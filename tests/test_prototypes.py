import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcrefine import (
    PointCloudScene,
    PrototypeSet,
    SupportSet,
    SupportShot,
    SyntheticFeatureProvider,
    SyntheticProviderConfig,
    context_prototypes,
    cosine,
    crop_novel,
    masked_pool,
    support_prototypes,
)
from pcrefine.errors import AlignmentError, ContractError, EmptyMaskError
import pcrefine.prototypes as prototypes
from pcrefine.prototypes import _pool_windows


def means(features, labels):
    """The masked mean per class of _pool_windows, for every c >= 0 in labels."""
    return {c: mean for c, (mean, _) in _pool_windows(features, labels).items()}


class TestMaskedPool:
    def test_single_row(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(masked_pool(rows, [1, 0]), [1.0, 0.0])

    def test_mean(self):
        rows = np.array([[2.0, 0.0], [0.0, 2.0], [9.0, 9.0]])
        np.testing.assert_array_equal(masked_pool(rows, [1, 1, 0]), [1.0, 1.0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(100, 7))
        mask = rng.random(100) < 0.4
        mask[0] = True
        # Independent oracle: explicit accumulation loop.
        acc = np.zeros(7)
        count = 0
        for i in range(100):
            if mask[i]:
                acc = acc + rows[i]
                count += 1
        np.testing.assert_allclose(masked_pool(rows, mask), acc / count, atol=1e-12)

    def test_empty_mask(self):
        with pytest.raises(EmptyMaskError):
            masked_pool(np.ones((3, 2)), [0, 0, 0])

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            masked_pool(np.ones((3, 2)), [1, 0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_permutation_equivariant(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        rows = rng.normal(size=(n, 5))
        mask = rng.random(n) < 0.5
        mask[int(rng.integers(0, n))] = True
        perm = rng.permutation(n)
        np.testing.assert_allclose(
            masked_pool(rows, mask), masked_pool(rows[perm], mask[perm]), atol=1e-12
        )

    def test_full_mask_is_row_mean(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(30, 4))
        np.testing.assert_allclose(
            masked_pool(rows, np.ones(30)), rows.mean(axis=0), atol=1e-12
        )


class TestPoolByClass:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_equal_to_masked_pool(self, schema, dtype, seed):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((500, 7)).astype(dtype)
        # Interleaved labels with background, negative and out-of-schema values.
        labels = rng.integers(-3, schema.n_classes + 4, size=500)
        pooled = means(feats, labels)
        assert sorted(pooled) == sorted(set(labels[labels >= 0].tolist()))
        for c, v in pooled.items():
            assert v.dtype == np.float64
            assert v.tobytes() == masked_pool(feats, labels == c).tobytes()
        # context_prototypes checks its labels: out-of-schema values are -1 there.
        novel = context_prototypes(
            feats, np.where(labels < schema.n_classes, np.maximum(labels, -1), -1), schema)
        assert novel.classes() == [c for c in sorted(pooled) if schema.is_novel(c)]
        for c in novel.classes():
            assert novel[c].tobytes() == pooled[c].tobytes()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("n, d", [(1, 7), (3, 1), (4097, 3), (30_000, 16)])
    def test_bitwise_equal_to_cast_then_sum(self, dtype, n, d):
        # Reference: the whole gather cast to float64, then summed.
        rng = np.random.default_rng(n)
        feats = (rng.standard_normal((n, d)) * 100).astype(dtype)
        labels = rng.integers(-1, 3, size=n)
        labels[0] = 0
        for c, v in means(feats, labels).items():
            rows = np.flatnonzero(labels == c)
            expected = np.asarray(feats[rows], dtype=np.float64).sum(axis=0) / rows.size
            assert v.tobytes() == expected.tobytes()
            assert masked_pool(feats, labels == c).tobytes() == expected.tobytes()

    def test_no_labeled_rows(self):
        assert means(np.ones((3, 2)), np.array([-1, -1, -1])) == {}


def tiny_windows(monkeypatch, dtype, d, window_rows, block_rows):
    """Windows of window_rows (d,)-wide rows of dtype, and a block of
    block_rows float64 rows: the carry and block_rows - 1 rows behind it."""
    monkeypatch.setattr(prototypes, "WINDOW_BYTES", window_rows * d * np.dtype(dtype).itemsize)
    monkeypatch.setattr(prototypes, "BLOCK_BYTES", block_rows * d * 8)


def recording_walks(monkeypatch):
    """The (start, stop) windows of each walk _pool_windows makes, one list
    per walk."""
    walks, windows = [], prototypes._windows

    def recording(features, window_bytes):
        walks.append([])
        for start, stop in windows(features, window_bytes):
            walks[-1].append((start, stop))
            yield start, stop

    monkeypatch.setattr(prototypes, "_windows", recording)
    return walks


class TestWindowedPool:
    """_pool_windows with 7-row windows and a 20-row block: classes span
    several windows, one is larger than the block, and one has no row where
    inner is set."""

    @staticmethod
    def case(dtype, d):
        rng = np.random.default_rng(d)
        n = 301
        feats = (rng.standard_normal((n, d)) * 100).astype(dtype)
        feats[rng.random((n, d)) < 0.2] = -0.0
        labels = np.full(n, -1)
        labels[rng.permutation(n)[:50]] = 3  # larger than the block
        free = np.flatnonzero(labels == -1)
        for c, size in zip((0, 1, 2, 5, 6, 8), (6, 9, 5, 8, 7, 12)):
            pick = rng.choice(free, size, replace=False)
            labels[pick] = c
            free = np.setdiff1d(free, pick)
        inner = rng.random(n) < 0.6
        inner[labels == 5] = False
        feats[labels == 6, 0] = -0.0  # a column of -0.0
        return feats, labels, inner

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 3, 32])
    def test_bitwise_equal_to_the_references(self, monkeypatch, dtype, d):
        tiny_windows(monkeypatch, dtype, d, window_rows=7, block_rows=20)
        feats, labels, inner = self.case(dtype, d)
        pooled = _pool_windows(feats, labels, inner)
        candidates = means(feats, np.where(inner, labels, -1))
        assert list(pooled) == [0, 1, 2, 3, 5, 6, 8]
        for c, (mean, part) in pooled.items():
            rows = np.flatnonzero(labels == c)
            reference = feats[rows].sum(axis=0, dtype=np.float64) / rows.size
            assert mean.tobytes() == reference.tobytes()
            assert mean.tobytes() == masked_pool(feats, labels == c).tobytes()
            if c == 5:
                assert part is None and c not in candidates
            else:
                assert part.tobytes() == candidates[c].tobytes()
                assert part.tobytes() == masked_pool(feats, (labels == c) & inner).tobytes()
        assert {c: v.tobytes() for c, v in means(feats, labels).items()} == \
            {c: mean.tobytes() for c, (mean, _) in pooled.items()}

    @pytest.mark.parametrize("sizes", ["mixed", "one_past_the_block", "all_in_one_class"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_walks_the_windows_once_in_file_order(self, monkeypatch, d, sizes):
        # However the classes compare with the block (small ones, one many
        # blocks long, every row in one class), one walk reads every window.
        tiny_windows(monkeypatch, np.float64, d, window_rows=7, block_rows=20)
        feats, labels, inner = self.case(np.float64, d)
        if sizes == "one_past_the_block":
            labels = np.full(301, -1)
            labels[:21], labels[100:112] = 4, 1
        elif sizes == "all_in_one_class":
            labels = np.zeros(301, np.int64)
        walks = recording_walks(monkeypatch)
        _pool_windows(feats, labels, inner)
        assert walks == [[(s, min(s + 7, 301)) for s in range(0, 301, 7)]]

    def test_labels_past_the_features_raise(self):
        with pytest.raises(IndexError):
            _pool_windows(np.ones((3, 2)), np.array([0, -1, -1, 1]))


class TestChunkedPool:
    """Exactness table: classes of block - 1, block, block + 1 and
    3 * block + 5 rows, at 7-row windows (no window holds a block of a
    class) and at windows holding the whole class (its rows overflow the
    block inside one window). Each mean and inner mean is bitwise the
    cast-then-sum reference and masked_pool's."""

    @staticmethod
    def check(dtype, d, size):
        rng = np.random.default_rng(size * d)
        n = size + 40
        feats = (rng.standard_normal((n, d)) * 100).astype(dtype)
        feats[rng.random((n, d)) < 0.2] = -0.0
        labels = np.full(n, -1)
        rows = np.sort(rng.permutation(n)[:size])
        labels[rows] = 4
        others = np.setdiff1d(np.arange(n), rows)
        labels[others[:12]] = 1  # a small class beside 4 in the same windows
        if d > 1:
            feats[rows, 0] = -0.0  # a column of -0.0 beside others
        inner = rng.random(n) < 0.6
        inner[rows[:2]] = True, False  # some but not all of class 4's rows
        pooled = _pool_windows(feats, labels, inner)
        assert list(pooled) == [1, 4]
        for c, (mean, part) in pooled.items():
            mask = labels == c
            for got, rows_c in ((mean, np.flatnonzero(mask)), (part, np.flatnonzero(mask & inner))):
                reference = feats[rows_c].sum(axis=0, dtype=np.float64) / rows_c.size
                assert got.tobytes() == reference.tobytes()
                assert got.tobytes() == masked_pool(feats, np.isin(np.arange(n), rows_c)).tobytes()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 2, 3, 512])
    @pytest.mark.parametrize("size", [19, 20, 21, 65])
    def test_bitwise_equal_at_and_past_the_stage(self, monkeypatch, dtype, d, size):
        tiny_windows(monkeypatch, dtype, d, window_rows=7, block_rows=20)
        self.check(dtype, d, size)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 2, 3, 512])
    @pytest.mark.parametrize("size", [19, 20, 21, 65])
    def test_bitwise_equal_past_the_block_in_one_window(self, monkeypatch, dtype, d, size):
        tiny_windows(monkeypatch, dtype, d, window_rows=size + 40, block_rows=20)
        self.check(dtype, d, size)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bitwise_equal_past_numpy_casting_buffer(self, monkeypatch, dtype, d):
        # The reference casts through numpy's 8192-element buffer, which a
        # 4100-row block and a 12,305-row class outgrow; one column it sums
        # pairwise within the buffer, so a width-1 class is gathered whole.
        tiny_windows(monkeypatch, dtype, d, window_rows=1000, block_rows=4100)
        self.check(dtype, d, 3 * 4100 + 5)


class TestContextSumInPlace:
    """A class's inner rows are summed in the block, the other rows
    overwritten with -0.0 (a single column is gathered): each inner mean is
    bitwise the cast-then-sum reference, wherever the outer rows lie and
    whatever -0.0 the features hold."""

    PLACES = {
        "first": lambda n: np.arange(n) >= n // 3,
        "last": lambda n: np.arange(n) < n - n // 3,
        "alternating": lambda n: np.arange(n) % 2 == 1,
        "all_but_one": lambda n: np.arange(n) == n // 2,
    }

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 2, 3, 512])
    @pytest.mark.parametrize("place", sorted(PLACES))
    def test_bitwise_equal_to_the_gathered_sum(self, dtype, d, place):
        rng = np.random.default_rng(d)
        n = 61
        feats = (rng.standard_normal((n, d)) * 100).astype(dtype)
        feats[rng.random((n, d)) < 0.2] = -0.0
        inner = self.PLACES[place](n)
        if d > 1:
            feats[:, 0] = -0.0  # a column of -0.0 throughout
            feats[inner, -1] = -0.0  # and one of -0.0 on the inner rows only
        labels = np.zeros(n, np.int64)
        labels[::7] = -1  # unlabeled rows between the class's rows
        sel = (labels == 0) & inner
        (mean, part), = _pool_windows(feats, labels, inner).values()
        reference = feats[sel].sum(axis=0, dtype=np.float64) / sel.sum()
        assert part.tobytes() == reference.tobytes()
        assert mean.tobytes() == (feats[labels == 0].sum(axis=0, dtype=np.float64)
                                  / (labels == 0).sum()).tobytes()

    def test_allocates_nothing_the_size_of_the_class(self):
        # The class goes through the block one piece at a time; a gather of
        # its rows, or of its inner half, would allocate a share of its size.
        rng = np.random.default_rng(0)
        n, d = 2000, 512
        feats = rng.standard_normal((n, d)).astype(np.float32)
        labels, inner = np.zeros(n, np.int64), np.arange(n) % 2 == 0
        tracemalloc.start()
        try:
            _pool_windows(feats, labels, inner)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < prototypes.BLOCK_BYTES + feats.nbytes / 8, \
            f"{peak / 1e6:.2f} MB for a {feats.nbytes / 1e6:.2f} MB class"


class TestCosine:
    def test_identical(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_analytic(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70711, abs=1e-5)

    def test_degenerate_returns_minus_one(self):
        assert cosine([0.0, 0.0], [1.0, 0.0]) == -1.0
        assert cosine([1e-13, 0.0], [1.0, 0.0]) == -1.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariant(self, seed, s, t):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        assert cosine(a, b) == pytest.approx(cosine(s * a, t * b), abs=1e-9)


class TestPrototypeSet:
    def test_dim_consistency(self):
        with pytest.raises(ContractError):
            PrototypeSet({3: np.ones(4), 4: np.ones(5)})

    def test_non_vector_rejected(self):
        with pytest.raises(ContractError, match="prototype for class 3 is not a vector"):
            PrototypeSet({3: np.ones((2, 2))})

    def test_matrix_ordering(self):
        ps = PrototypeSet({5: np.array([1.0, 0.0]), 3: np.array([0.0, 1.0])})
        ids, mat = ps.matrix()
        np.testing.assert_array_equal(ids, [3, 5])
        np.testing.assert_array_equal(mat[0], [0.0, 1.0])


def constant_scene(n, value, dim_labels):
    return PointCloudScene(
        positions=np.zeros((n, 3)) + np.arange(n)[:, None],
        labels=np.full(n, dim_labels),
    )


class ConstantProvider:
    """Feature provider that returns a fixed row for every point."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def embed_scene(self, scene):
        return np.tile(self.row, (scene.point_count, 1))


# The three library functions that take a mask, each reduced to an array.
MASK_USERS = {
    "SupportShot": lambda scene, mask: SupportShot(scene, mask).mask,
    "masked_pool": lambda scene, mask: masked_pool(scene.positions, mask),
    "crop_novel": lambda scene, mask: crop_novel(scene, mask, 0.5)[0].positions,
}


@pytest.mark.parametrize("use", MASK_USERS)
@pytest.mark.parametrize("mask, error", [
    ([2, 2, 0], ContractError), (["a", "b", ""], ContractError),
    ([0.5, 0.0, 1.0], ContractError), ([np.nan, 1.0, 0.0], ContractError),
    ([1, 0], AlignmentError), ([[1], [0], [1]], AlignmentError),
], ids=["twos", "strings", "fraction", "nan", "wrong_length", "2d"])
def test_one_mask_contract(use, mask, error):
    """checked_mask is the one mask rule: a bad mask is rejected, never cast,
    and bool, integer and whole-float masks give bitwise-equal results."""
    scene = PointCloudScene(np.arange(9.0).reshape(3, 3) ** 2, [0, 1, 0])
    with pytest.raises(error, match=r"mask"):
        MASK_USERS[use](scene, mask)
    want = MASK_USERS[use](scene, np.array([True, False, True]))
    for good in ([1, 0, 1], np.array([1, 0, 1], dtype=np.uint8), np.array([1.0, 0.0, 1.0])):
        assert MASK_USERS[use](scene, good).tobytes() == want.tobytes()


class TestSupportSet:
    def test_coverage_enforced(self, schema):
        scene = constant_scene(4, 0, 3)
        shots = {3: (SupportShot(scene, [1, 0, 0, 0]),)}
        with pytest.raises(ContractError, match="missing"):
            SupportSet(schema=schema, shots=shots)

    def test_empty_mask_rejected(self, schema):
        with pytest.raises(EmptyMaskError):
            SupportShot(constant_scene(3, 0, 3), [0, 0, 0])

    def test_k_inferred(self, schema):
        scene = constant_scene(4, 0, 3)
        shots = {
            c: (SupportShot(scene, [1, 0, 0, 0]), SupportShot(scene, [0, 1, 0, 0]))
            for c in schema.novel_indices
        }
        support = SupportSet(schema=schema, shots=shots)
        assert support.k == 2


class TestSupportPrototypes:
    def test_constant_features(self, schema):
        v = np.array([1.0, 2.0, 3.0])
        scene = constant_scene(5, 0, 3)
        shots = {c: (SupportShot(scene, [1, 1, 0, 0, 0]),)
                 for c in schema.novel_indices}
        protos = support_prototypes(SupportSet(schema=schema, shots=shots),
                                    ConstantProvider(v))
        for c in schema.novel_indices:
            np.testing.assert_allclose(protos[c], v)

    def test_equal_weight_average(self, schema):
        # Two shots with different mask sizes must still weigh 50/50.
        scene_a = PointCloudScene(np.zeros((4, 3)), np.full(4, 3))
        scene_b = PointCloudScene(np.ones((2, 3)), np.full(2, 3))

        class PositionProvider:
            def embed_scene(self, scene):
                # Feature = scene marker: all-zeros scene -> a, ones -> b.
                if scene.positions.sum() == 0:
                    return np.tile([2.0, 0.0], (scene.point_count, 1))
                return np.tile([0.0, 4.0], (scene.point_count, 1))

        shots = {
            c: (SupportShot(scene_a, [1, 1, 1, 0]), SupportShot(scene_b, [1, 0]))
            for c in schema.novel_indices
        }
        protos = support_prototypes(SupportSet(schema=schema, shots=shots),
                                    PositionProvider())
        np.testing.assert_allclose(protos[3], [1.0, 2.0])

    def test_identical_shots_equal_single(self, schema):
        rng = np.random.default_rng(3)
        provider = SyntheticFeatureProvider(
            schema, SyntheticProviderConfig(dim=16, anchor_seed=0, noise_sigma=0.2)
        )
        scene = PointCloudScene(
            rng.uniform(0, 1, size=(20, 3)), np.full(20, 4)
        )
        mask = np.ones(20)
        one = {c: (SupportShot(scene, mask),) for c in schema.novel_indices}
        three = {c: (SupportShot(scene, mask),) * 3 for c in schema.novel_indices}
        p1 = support_prototypes(SupportSet(schema=schema, shots=one), provider)
        p3 = support_prototypes(SupportSet(schema=schema, shots=three), provider)
        for c in schema.novel_indices:
            np.testing.assert_array_equal(p1[c], p3[c])

    def test_features_not_one_row_per_point(self, schema):
        scene = constant_scene(5, 0, 3)
        shots = {c: (SupportShot(scene, [1, 1, 0, 0, 0]),) for c in schema.novel_indices}

        class ShortProvider:
            def embed_scene(self, scene):
                return np.ones((scene.point_count - 1, 3))

        with pytest.raises(AlignmentError, match=r"features of shape \(4, 3\) are not a matrix "
                                                 r"of one row per point \(5 points\)"):
            support_prototypes(SupportSet(schema=schema, shots=shots), ShortProvider())

    def test_shots_pooled_bitwise_as_masked_pool(self, schema, monkeypatch):
        # At 7-row windows and a 20-row block a shot of about 65 rows goes
        # through the block in many pieces, the others in a few.
        tiny_windows(monkeypatch, np.float64, 16, window_rows=7, block_rows=20)
        provider = SyntheticFeatureProvider(
            schema, SyntheticProviderConfig(dim=16, anchor_seed=0, noise_sigma=0.2))
        rng = np.random.default_rng(5)
        scene = PointCloudScene(rng.uniform(0, 1, size=(100, 3)), np.full(100, 4))
        masks = {c: rng.random(100) < (0.65 if c == 4 else 0.1) for c in schema.novel_indices}
        shots = {c: (SupportShot(scene, masks[c]),) for c in schema.novel_indices}
        protos = support_prototypes(SupportSet(schema=schema, shots=shots), provider)
        feats = provider.embed_scene(scene)
        for c in schema.novel_indices:
            assert protos[c].tobytes() == masked_pool(feats, masks[c]).tobytes()

    def test_shots_on_one_scene_share_a_walk_unless_they_overlap(self, schema, monkeypatch):
        # One shot per novel class on one scene: disjoint masks are pooled in
        # one walk, and a mask overlapping an earlier shot's takes a second.
        walked = recording_walks(monkeypatch)
        provider = SyntheticFeatureProvider(
            schema, SyntheticProviderConfig(dim=16, anchor_seed=0, noise_sigma=0.2))
        rng = np.random.default_rng(7)
        scene = PointCloudScene(rng.uniform(0, 1, size=(100, 3)), np.full(100, 4))
        part = np.arange(100) % len(schema.novel_indices)
        masks = {c: part == i for i, c in enumerate(schema.novel_indices)}
        feats = provider.embed_scene(scene)
        for walks in (1, 2):
            walked.clear()
            shots = {c: (SupportShot(scene, masks[c]),) for c in schema.novel_indices}
            protos = support_prototypes(SupportSet(schema=schema, shots=shots), provider)
            assert len(walked) == walks
            for c in schema.novel_indices:
                assert protos[c].tobytes() == masked_pool(feats, masks[c]).tobytes()
            masks[7] = masks[7] | masks[5]

    def test_first_non_finite_shot_in_shot_order_is_named(self, schema):
        # Classes 5 and 6 pool a NaN row, in one walk: class 5's shot comes first.
        scene = PointCloudScene(np.zeros((10, 3)), np.full(10, 4))
        part = np.arange(10) % len(schema.novel_indices)
        shots = {c: (SupportShot(scene, part == i),) for i, c in enumerate(schema.novel_indices)}
        feats = np.ones((10, 3))
        feats[(part == 2) | (part == 3), 1] = np.nan

        class NanProvider:
            def embed_scene(self, scene):
                return feats

        with pytest.raises(ContractError, match=r"^support scene None: "
                                                r"prototype for class 5 is not finite$"):
            support_prototypes(SupportSet(schema=schema, shots=shots), NanProvider())

    def test_pooling_beats_single_shot(self, schema):
        # Averaging K noisy shots should align with the class anchor at
        # least as well as any single shot, nearly always.
        wins = 0
        trials = 100
        for seed in range(trials):
            provider = SyntheticFeatureProvider(
                schema,
                SyntheticProviderConfig(dim=16, anchor_seed=seed, noise_sigma=0.1),
            )
            rng = np.random.default_rng(seed)
            c = 3
            shots = []
            singles = []
            for k in range(5):
                scene = PointCloudScene(
                    rng.uniform(0, 1, size=(8, 3)) + 10 * k,
                    np.full(8, c),
                )
                shots.append(SupportShot(scene, np.ones(8)))
                feats = provider.embed_scene(scene)
                singles.append(masked_pool(feats, np.ones(8)))
            full = {cc: tuple(shots) for cc in schema.novel_indices}
            pooled = support_prototypes(SupportSet(schema=schema, shots=full),
                                        provider)[c]
            anchor = provider.anchors[c]
            pooled_sim = cosine(pooled, anchor)
            if pooled_sim >= max(cosine(s, anchor) for s in singles):
                wins += 1
        assert wins >= 90
