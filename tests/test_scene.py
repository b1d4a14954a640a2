import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcrefine import ClassSchema, PointCloudScene, VoxelConfig, save_scene, voxel_labels, voxelize
from pcrefine.errors import AlignmentError, ConfigError, ContractError
import pcrefine.scene as scene_module
from pcrefine.scene import _voxel_cells, check_finite, checked_labels


class TestSchema:
    def test_index_ranges(self, schema):
        assert schema.n_base == 3
        assert schema.n_novel == 5
        assert schema.n_classes == 8
        assert list(schema.novel_indices) == [3, 4, 5, 6, 7]
        assert schema.is_base(0) and not schema.is_base(3)
        assert schema.is_novel(7) and not schema.is_novel(8)

    def test_disjointness_enforced(self):
        with pytest.raises(ConfigError):
            ClassSchema(("a", "b"), ("b", "c"))

    def test_name_lookup(self, schema):
        assert schema.name_of(0) == "floor"
        assert schema.name_of(3) == "lamp"
        with pytest.raises(ConfigError):
            schema.name_of(8)


class TestValidate:
    def test_length_mismatch_rejected_at_construction(self):
        with pytest.raises(AlignmentError):
            PointCloudScene(positions=np.zeros((5, 3)), labels=np.zeros(4))

    @pytest.mark.parametrize("labels", [[0.5, -5.0, 2.7], [0, -5, 2], [0, np.nan, 1], ["a", "b", "c"]])
    def test_labels_follow_the_label_contract(self, labels):
        # Never truncated or passed through: a fraction, NaN, a string or a
        # value below -1 is rejected, naming the scene's labels.
        with pytest.raises(ContractError, match="scene label"):
            PointCloudScene(positions=np.zeros((3, 3)), labels=np.array(labels))

    @pytest.mark.parametrize("via", ["constructor", "save_scene", "voxelize"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_colour_rejected(self, tmp_path, via, bad):
        # Before the check, save_scene wrote a NaN channel as 0, with only a
        # RuntimeWarning from the cast.
        colors = np.array([[0.0, 0.0, 0.0], [bad, 0.5, 2.0], [1.0, 1.0, 1.0]])
        build = functools.partial(PointCloudScene, np.zeros((3, 3)), np.zeros(3), colors)
        call = {"constructor": build,
                "save_scene": lambda: save_scene(build(), tmp_path / "s.ply"),
                "voxelize": lambda: voxelize(build(), VoxelConfig(0.1))}[via]
        with pytest.raises(ContractError, match=r"scene: colour \[.*\] of point 1 is not finite"):
            call()
        assert not (tmp_path / "s.ply").exists()

    @pytest.mark.filterwarnings("error")
    def test_finite_values_whose_sum_overflows_pass(self):
        # The one summing pass reads inf here; the exact pass clears it.
        huge = np.full((4, 3), 1.5e308)
        check_finite("x", huge)
        scene = PointCloudScene(np.zeros((4, 3)), np.zeros(4), colors=huge)
        assert scene.colors.tobytes() == huge.tobytes()
        huge[2, 1] = -np.inf
        with pytest.raises(ContractError, match="point 2 is not finite"):
            check_finite("x", huge)

    def test_whole_float_labels_become_int64(self):
        scene = PointCloudScene(positions=np.zeros((3, 3)), labels=np.array([-1.0, 0.0, 7.0]))
        assert scene.labels.dtype == np.int64 and scene.labels.tolist() == [-1, 0, 7]
        assert scene.labels.flags.c_contiguous


class TestCheckedLabels:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_narrow_floats_checked_without_overflow(self, dtype):
        # The default bound, int64 max, must not be cast into the label dtype.
        for hi in ({}, {"hi": 3}):
            out = checked_labels("x", np.array([-1, 0, 2], dtype), **hi)
            assert out.dtype == np.int64 and out.tolist() == [-1, 0, 2]
        for bad in (2.5, np.inf, -2):
            with pytest.raises(ContractError, match="x label"):
                checked_labels("x", np.array([0, bad], dtype))


class TestVoxelize:
    def test_same_cell_mean(self):
        scene = PointCloudScene(
            positions=np.array([[0.001, 0.001, 0.001], [0.009, 0.009, 0.009]]),
            labels=np.array([2, 2]),
        )
        out = voxelize(scene, VoxelConfig(0.02))
        assert out.point_count == 1
        np.testing.assert_allclose(out.positions[0], [0.005, 0.005, 0.005])
        assert out.labels[0] == 2

    def test_fine_grid_preserves_points(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 1, size=(20, 3))
        scene = PointCloudScene(pos, np.zeros(20))
        out = voxelize(scene, VoxelConfig(1e-6))
        assert out.point_count == 20

    def test_count_matches_cell_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        pos = rng.uniform(0, 1, size=(1000, 3))
        scene = PointCloudScene(pos, rng.integers(-1, 3, size=1000))
        out = voxelize(scene, VoxelConfig(0.1))
        # Independent oracle: distinct floor cells via a python set.
        cells = {tuple(int(np.floor(v / 0.1)) for v in p) for p in pos}
        assert out.point_count == len(cells)

    def test_majority_label_tie_breaks_small(self):
        scene = PointCloudScene(
            positions=np.full((4, 3), 0.005),
            labels=np.array([5, 1, 5, 1]),
        )
        out = voxelize(scene, VoxelConfig(0.02))
        assert out.labels[0] == 1

    def test_labels_never_invented(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 0.5, size=(500, 3))
        labels = rng.integers(-1, 4, size=500)
        out = voxelize(PointCloudScene(pos, labels), VoxelConfig(0.07))
        assert set(np.unique(out.labels)) <= set(np.unique(labels))

    def test_idempotent_point_count(self):
        rng = np.random.default_rng(9)
        scene = PointCloudScene(
            rng.uniform(-2, 2, size=(800, 3)), rng.integers(-1, 5, size=800)
        )
        once = voxelize(scene, VoxelConfig(0.1))
        twice = voxelize(once, VoxelConfig(0.1))
        assert twice.point_count == once.point_count

    def test_order_independent(self):
        rng = np.random.default_rng(11)
        pos = rng.uniform(0, 1, size=(300, 3))
        labels = rng.integers(-1, 4, size=300)
        perm = rng.permutation(300)
        a = voxelize(PointCloudScene(pos, labels), VoxelConfig(0.15))
        b = voxelize(PointCloudScene(pos[perm], labels[perm]), VoxelConfig(0.15))
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_allclose(a.positions, b.positions)

    def test_negative_grid_rejected(self):
        with pytest.raises(ConfigError):
            VoxelConfig(-0.1)
        with pytest.raises(ConfigError):
            VoxelConfig(0.0)

    @pytest.mark.parametrize("grid", [np.inf, -np.inf, np.nan])
    def test_non_finite_grid_rejected(self, grid):
        # An infinite grid would put every scene into one voxel.
        with pytest.raises(ConfigError, match="grid_size must be positive and finite"):
            VoxelConfig(grid)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10**6))
    def test_never_increases_count(self, n, seed):
        rng = np.random.default_rng(seed)
        scene = PointCloudScene(
            rng.uniform(-1, 1, size=(n, 3)), rng.integers(-1, 3, size=n)
        )
        out = voxelize(scene, VoxelConfig(0.25))
        assert 1 <= out.point_count <= n

    def test_colors_averaged(self):
        scene = PointCloudScene(
            positions=np.full((2, 3), 0.005),
            labels=np.array([0, 0]),
            colors=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
        )
        out = voxelize(scene, VoxelConfig(0.02))
        np.testing.assert_allclose(out.colors[0], [0.5, 0.5, 0.5])

    @pytest.mark.parametrize("seed, n, n_labels", [(0, 400, 2), (1, 900, 3), (2, 2000, 2)])
    def test_majority_matches_counter_oracle(self, seed, n, n_labels):
        # Few points per cell and two or three label values make ties common.
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 1, size=(n, 3))
        labels = rng.integers(-1, n_labels - 1, size=n)
        out = voxelize(PointCloudScene(pos, labels), VoxelConfig(0.2))
        by_cell = {}
        for p, label in zip(pos, labels):
            by_cell.setdefault(tuple(int(np.floor(v / 0.2)) for v in p), Counter())[int(label)] += 1
        assert out.point_count == len(by_cell)
        expected, ties = [], 0
        for cell in sorted(by_cell):
            counts = by_cell[cell]
            top = max(counts.values())
            winners = [label for label, c in counts.items() if c == top]
            ties += len(winners) > 1
            expected.append(min(winners))
        assert ties >= 5
        np.testing.assert_array_equal(out.labels, expected)

    @pytest.mark.parametrize("positions", [
        # Packed key past int64: a wrapped key merges the first two cells, losing label 2.
        [[0, 0, 0], [2**20, 0, 0], [2**22 - 1] * 3],
        # Cell indices past int64 on one axis.
        [[1e20, 0, 0], [1e20 + 2**40, 0, 0]],
    ])
    def test_grid_too_fine_for_extent_rejected(self, positions):
        scene = PointCloudScene(np.array(positions, dtype=np.float64),
                                np.arange(1, len(positions) + 1))
        with pytest.raises(ConfigError, match="too fine"):
            voxelize(scene, VoxelConfig(1.0))

    def test_label_range_too_wide_rejected(self):
        pos = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
        scene = PointCloudScene(pos, np.array([0, 2**62, 0]))
        with pytest.raises(ContractError, match="label range"):
            voxelize(scene, VoxelConfig(0.5))
        # Neither the packed keys nor, after the fallback, the ranks fit.
        with pytest.raises(ContractError, match="label range"):
            voxel_labels(scene, VoxelConfig(0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_rejected(self, bad):
        pos = np.zeros((3, 3))
        pos[1, 2] = bad
        with pytest.raises(ContractError, match="finite"):
            voxelize(PointCloudScene(pos, np.zeros(3)), VoxelConfig(0.1))


def majority_labels_unique(inverse, n_cells, labels):
    """The reference majority vote: np.unique over inverse * span + label,
    then the top count per cell, the smallest label on ties."""
    lo, hi = int(labels.min()), int(labels.max())
    span = hi - lo + 1
    if n_cells * span > np.iinfo(np.int64).max:
        raise ContractError(
            f"voxelize: label range [{lo}, {hi}] is too wide to pack "
            f"with {n_cells} cells into int64"
        )
    pairs, counts = np.unique(inverse * span + (labels - lo), return_counts=True)
    cell_of, label_of = np.divmod(pairs, span)
    starts = np.flatnonzero(np.diff(cell_of, prepend=-1))
    top = np.maximum.reduceat(counts, starts)
    return np.minimum.reduceat(np.where(counts == top[cell_of], label_of, span), starts) + lo


def voxelize_axis0(scene, cfg):
    """The reference: voxelize as it was written over the whole (N, 3) cell
    array, with axis-0 reductions and the key packed from (N, 3) temporaries."""
    check_finite("voxelize", scene.positions)
    cells = np.floor(scene.positions / cfg.grid_size)
    lo, hi = cells.min(axis=0), cells.max(axis=0)
    too_fine = f"grid_size {cfg.grid_size} is too fine for this scene: cell keys overflow int64"
    if lo.min() < -2**63 or hi.max() >= 2**63:
        raise ConfigError(too_fine)
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) > np.iinfo(np.int64).max:
        raise ConfigError(too_fine)
    rel = cells.astype(np.int64) - lo.astype(np.int64)
    key = (rel[:, 0] * spans[1] + rel[:, 1]) * spans[2] + rel[:, 2]
    _, inverse = np.unique(key, return_inverse=True)
    n_cells = int(inverse.max()) + 1
    counts = np.bincount(inverse, minlength=n_cells).astype(np.float64)
    positions = np.stack(
        [np.bincount(inverse, weights=scene.positions[:, k], minlength=n_cells)
         / counts for k in range(3)],
        axis=1,
    )
    colors = None
    if scene.colors is not None:
        colors = np.stack(
            [np.bincount(inverse, weights=scene.colors[:, k], minlength=n_cells)
             / counts for k in range(3)],
            axis=1,
        )
    labels = majority_labels_unique(inverse, n_cells, scene.labels)
    return PointCloudScene(positions=positions, labels=labels, colors=colors)


def assert_same_bytes(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([-1e3, -7.3, 0.0, 0.51, 250.0]),
    scale=st.sampled_from([0.05, 1.0, 20.0]),
    grid=st.sampled_from([0.03, 0.2, 1.0, 1e9]),  # 1e9: one cell for everything
    labels=st.sampled_from(["ties", "background", "wide"]),
    colored=st.booleans(),
)
@example(n=1, seed=0, offset=-7.3, scale=1.0, grid=0.2, labels="ties", colored=True)
def test_voxelize_bitwise_equals_axis0_reference(n, seed, offset, scale, grid, labels, colored):
    rng = np.random.default_rng(seed)
    # Unequal extents per axis, so a key packed with the wrong span misorders cells.
    pos = offset + scale * rng.uniform(-1, 1, size=(n, 3)) * [1.0, 0.25, 4.0]
    label = {"ties": rng.integers(-1, 1, size=n),  # -1 and 0 only: ties in most shared cells
             "background": np.full(n, -1),
             "wide": rng.integers(-1, 40, size=n)}[labels]
    colors = rng.uniform(0, 1, size=(n, 3)) if colored else None
    scene = PointCloudScene(pos, label, colors)
    got = voxelize(scene, VoxelConfig(grid))
    want = voxelize_axis0(scene, VoxelConfig(grid))
    for attr in ("positions", "colors", "labels"):
        assert_same_bytes(getattr(got, attr), getattr(want, attr))


def test_voxelize_cell_offsets_past_2_53_stay_exact():
    # Cells 0 and 1 lie 2**60 and 2**60 + 1 above lo: a float difference
    # rounds both to 2**60 and would merge them.
    scene = PointCloudScene(np.array([[-(2.0**60), 0, 0], [0, 0, 0], [1, 0, 0]]),
                            np.array([0, 1, 2]))
    got = voxelize(scene, VoxelConfig(1.0))
    assert got.labels.tolist() == [0, 1, 2]
    for attr in ("positions", "colors", "labels"):
        assert_same_bytes(getattr(got, attr), getattr(voxelize_axis0(scene, VoxelConfig(1.0)), attr))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([-1e3, -7.3, 0.0, 0.51, 250.0]),
    scale=st.sampled_from([0.05, 1.0, 20.0]),
    grid=st.sampled_from([0.03, 0.2, 1.0, 1e9]),
    labels=st.sampled_from(["ties", "background", "wide"]),
)
def test_voxel_labels_bitwise_equal_voxelize_labels(n, seed, offset, scale, grid, labels):
    # The scenes of test_voxelize_bitwise_equals_axis0_reference.
    rng = np.random.default_rng(seed)
    pos = offset + scale * rng.uniform(-1, 1, size=(n, 3)) * [1.0, 0.25, 4.0]
    label = {"ties": rng.integers(-1, 1, size=n),
             "background": np.full(n, -1),
             "wide": rng.integers(-1, 40, size=n)}[labels]
    scene = PointCloudScene(pos, label)
    got = voxel_labels(scene, VoxelConfig(grid))
    assert_same_bytes(got, voxelize(scene, VoxelConfig(grid)).labels)
    assert_same_bytes(got, voxelize_axis0(scene, VoxelConfig(grid)).labels)


def unique_inverse(positions, grid):
    """The reference grouping: np.unique's inverse of the key packed as
    voxelize_axis0 packs it."""
    cells = np.floor(positions / grid)
    lo = cells.min(axis=0)
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, cells.max(axis=0))]
    rel = cells.astype(np.int64) - lo.astype(np.int64)
    key = (rel[:, 0] * spans[1] + rel[:, 1]) * spans[2] + rel[:, 2]
    return np.unique(key, return_inverse=True)[1], math.prod(spans)


@pytest.fixture
def unique_calls(monkeypatch):
    """Counts np.unique calls, to tell which branch _voxel_cells took."""
    calls = []
    real = np.unique

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)
    monkeypatch.setattr(np, "unique", counting)
    return calls


@pytest.mark.parametrize("seed, n, grid", [(0, 1, 0.1), (1, 2, 0.1), (2, 1000, 0.05),
                                           (3, 5000, 0.2), (4, 20000, 0.01), (5, 300, 1e9)])
def test_voxel_cells_packed_sort_equals_unique_inverse(unique_calls, seed, n, grid):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-3, 3, size=(n, 3)) * [1.0, 0.25, 4.0]
    want, _ = unique_inverse(pos, grid)
    unique_calls.clear()  # the reference's own call
    inverse, n_cells = _voxel_cells(pos, grid)
    assert unique_calls == []
    assert_same_bytes(inverse, want)
    assert n_cells == int(want.max()) + 1


@pytest.mark.parametrize("x0, n_extra, packed", [
    # The 2**60 scene: prod(spans) << 2 bits still fits, so it packs.
    (-(2.0**60), 0, True),
    # The same spans with 8 more points: 4 row bits push the packed key past int64.
    (-(2.0**60), 8, False),
    # prod(spans) is about 2**62 and fits int64; shifted by 2 row bits it does not.
    (-(2.0**62), 0, False),
    # The nearest miss: (2**61 + 2) << 2 passes int64 max by 9.
    (-(2.0**61), 0, False),
])
def test_voxel_cells_falls_back_to_unique_when_rows_do_not_fit(unique_calls, x0, n_extra, packed):
    pos = np.array([[x0, 0, 0], [0, 0, 0], [1, 0, 0]] + [[0.5, 0, 0]] * n_extra)
    want, prod = unique_inverse(pos, 1.0)
    assert prod <= np.iinfo(np.int64).max
    unique_calls.clear()
    inverse, n_cells = _voxel_cells(pos, 1.0)
    assert unique_calls == ([] if packed else [{"return_inverse": True}])
    assert_same_bytes(inverse, want)
    assert n_cells == 3


@pytest.mark.parametrize("seed, n, grid", [(0, 1, 0.1), (1, 2, 0.1), (2, 1000, 0.05),
                                           (3, 5000, 0.2), (4, 20000, 0.01), (5, 300, 1e9)])
def test_voxel_labels_packed_keys_sort_once(unique_calls, seed, n, grid):
    # Labels -1..40 leave many ties; prod(spans) * 42 fits, so the packed
    # cell keys go straight to the vote: no ranks and no np.unique.
    rng = np.random.default_rng(seed)
    scene = PointCloudScene(rng.uniform(-3, 3, size=(n, 3)) * [1.0, 0.25, 4.0],
                            rng.integers(-1, 41, size=n))
    want = voxelize_axis0(scene, VoxelConfig(grid)).labels
    unique_calls.clear()  # the reference's own calls
    assert_same_bytes(voxel_labels(scene, VoxelConfig(grid)), want)
    assert unique_calls == []


@pytest.mark.parametrize("x0, labels, ranked_by_unique", [
    # The 2**60 scene with labels 0-7: (2**60 + 2) * 8 passes int64, and so
    # does (2**60 + 2) << 3 row bits, so the ranks come from np.unique.
    (-(2.0**60), [0, 1, 2, 3, 4, 5, 6, 7], True),
    # (2**59 + 2) * 101 passes int64, (2**59 + 2) << 2 row bits does not.
    (-(2.0**59), [0, 100, 7], False),
], ids=["unique-ranks", "packed-ranks"])
def test_voxel_labels_ranks_cells_when_pairs_do_not_fit(monkeypatch, unique_calls, x0, labels,
                                                        ranked_by_unique):
    pos = np.array([[x0, 0, 0], [0, 0, 0], [1, 0, 0]] + [[0.5, 0, 0]] * (len(labels) - 3))
    scene = PointCloudScene(pos, np.array(labels))
    want = voxelize_axis0(scene, VoxelConfig(1.0)).labels
    ranked = []
    real = scene_module._cell_ranks
    monkeypatch.setattr(scene_module, "_cell_ranks",
                        lambda *args: ranked.append(args[1]) or real(*args))
    unique_calls.clear()
    got = voxel_labels(scene, VoxelConfig(1.0))
    assert ranked == [int(-x0) + 2]
    assert unique_calls == ([{"return_inverse": True}] if ranked_by_unique else [])
    assert_same_bytes(got, want)
    assert_same_bytes(got, voxelize(scene, VoxelConfig(1.0)).labels)
