import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcrefine import BoxSpec, NoiseSpec, SceneSpec, corrupt_predictions, gen_scene, make_support
from pcrefine.errors import AlignmentError, ConfigError, ContractError
from pcrefine.sim import _nearest_to_complement, base_only_labels, random_scene_spec


def box(class_id, center=(2.0, 2.0, 0.5), size=(1.0, 1.0, 1.0), density=300.0):
    return BoxSpec(class_id, center, size, density)


class TestGenScene:
    def test_deterministic(self):
        spec = SceneSpec(extent=(4.0, 4.0), objects=(box(3),), seed=7)
        a, b = gen_scene(spec), gen_scene(spec)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_points_inside_geometry(self):
        spec = SceneSpec(extent=(4.0, 4.0), objects=(box(3),), seed=1)
        scene = gen_scene(spec)
        floor = scene.labels == 0
        assert (scene.positions[floor, 2] <= 0.02).all()
        assert (scene.positions[floor, :2] >= 0).all()
        assert (scene.positions[floor, :2] <= 4.0).all()
        obj = scene.labels == 3
        assert obj.any()
        np.testing.assert_array_less(np.abs(scene.positions[obj, 0] - 2.0), 0.5 + 1e-12)
        np.testing.assert_array_less(np.abs(scene.positions[obj, 2] - 0.5), 0.5 + 1e-12)

    def test_every_box_contributes(self):
        # Near-zero density still yields at least one point per box.
        spec = SceneSpec(
            extent=(4.0, 4.0),
            objects=(box(3, density=1e-6), box(5, center=(1.0, 1.0, 0.5), density=1e-6)),
            seed=2,
        )
        scene = gen_scene(spec)
        assert (scene.labels == 3).any()
        assert (scene.labels == 5).any()

    def test_expected_counts(self):
        spec = SceneSpec(extent=(5.0, 5.0), floor_density=100.0, seed=3)
        scene = gen_scene(spec)
        n = scene.point_count
        mean = 100.0 * 25
        assert abs(n - mean) < 5 * np.sqrt(mean)

    def test_box_outside_extent(self):
        spec = SceneSpec(extent=(2.0, 2.0), objects=(box(3, center=(2.0, 1.0, 0.5)),))
        with pytest.raises(ConfigError, match="outside"):
            gen_scene(spec)

    def test_extreme_accepted_spec_builds(self):
        # Vector fields may be 1-D arrays, and a class id may be the largest label a scene holds.
        top = 2**63 - 2
        spec = SceneSpec(np.array([4.0, 4.0]), (box(top, np.array([2.0, 2.0, 0.5]), np.ones(3)),),
                         floor_class=top, seed=4)
        scene = gen_scene(spec)
        assert (scene.labels == top).all()
        as_tuples = gen_scene(SceneSpec((4.0, 4.0), (box(top),), floor_class=top, seed=4))
        np.testing.assert_array_equal(scene.positions, as_tuples.positions)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SceneSpec(extent=(0.0, 4.0))
        with pytest.raises(ConfigError):
            BoxSpec(3, (0, 0, 0), (1.0, -1.0, 1.0), 10.0)
        with pytest.raises(ConfigError):
            NoiseSpec(flip_prob=1.5)


def demo_scene(schema, seed=0):
    spec = random_scene_spec(schema, seed=seed, novel_prob=1.0)
    return gen_scene(spec)


class TestCorrupt:
    def test_no_noise_is_identity(self, schema):
        scene = demo_scene(schema)
        out = corrupt_predictions(scene.labels, scene.positions, NoiseSpec(), schema)
        np.testing.assert_array_equal(out, scene.labels)

    def test_deterministic(self, schema):
        scene = demo_scene(schema)
        noise = NoiseSpec(p_miss=0.3, erosion_frac=0.2, flip_prob=0.1, seed=5)
        a = corrupt_predictions(scene.labels, scene.positions, noise, schema)
        b = corrupt_predictions(scene.labels, scene.positions, noise, schema)
        np.testing.assert_array_equal(a, b)

    def test_full_dropout(self, schema):
        scene = demo_scene(schema)
        noise = NoiseSpec(p_miss=1.0)
        out = corrupt_predictions(scene.labels, scene.positions, noise, schema)
        assert not (out >= schema.n_base).any()
        base = scene.labels < schema.n_base
        np.testing.assert_array_equal(out[base], scene.labels[base])

    def test_erosion_count(self, schema):
        scene = demo_scene(schema, seed=1)
        frac = 0.25
        noise = NoiseSpec(erosion_frac=frac)
        out = corrupt_predictions(scene.labels, scene.positions, noise, schema)
        for c in schema.novel_indices:
            n_before = int((scene.labels == c).sum())
            if n_before == 0:
                continue
            n_after = int((out == c).sum())
            assert n_after == n_before - int(np.floor(frac * n_before))

    def test_erosion_spares_a_class_too_small_to_lose_a_point(self, schema):
        # floor(0.2 * 4) = 0 points of class 3 go; floor(0.2 * 6) = 1 of class 4 does.
        gt = np.array([3] * 4 + [4] * 6 + [0] * 2)
        positions = np.column_stack([np.arange(12.0), np.zeros(12), np.zeros(12)])
        out = corrupt_predictions(gt, positions, NoiseSpec(erosion_frac=0.2), schema)
        np.testing.assert_array_equal(out[:4], gt[:4])
        assert (out[4:10] == 4).sum() == 5
        np.testing.assert_array_equal(out[10:], gt[10:])

    def test_erosion_removes_boundary_points(self, schema):
        scene = demo_scene(schema, seed=2)
        noise = NoiseSpec(erosion_frac=0.3)
        out = corrupt_predictions(scene.labels, scene.positions, noise, schema)
        from scipy.spatial import cKDTree
        for c in schema.novel_indices:
            mask = scene.labels == c
            if not mask.any():
                continue
            eroded = mask & (out != c)
            kept = mask & (out == c)
            if not eroded.any() or not kept.any():
                continue
            tree = cKDTree(scene.positions[~mask])
            d_eroded, _ = tree.query(scene.positions[eroded], k=1)
            d_kept, _ = tree.query(scene.positions[kept], k=1)
            assert d_eroded.max() <= d_kept.min() + 1e-9

    def test_flip_rate(self, schema):
        rng = np.random.default_rng(6)
        n = 100_000
        gt = rng.integers(0, schema.n_classes, size=n)
        positions = rng.uniform(0, 5, size=(n, 3))
        noise = NoiseSpec(flip_prob=0.2, seed=7)
        out = corrupt_predictions(gt, positions, noise, schema)
        rate = float((out != gt).mean())
        assert abs(rate - 0.2) < 0.01
        # A flip always lands on a different class.
        flipped = out != gt
        assert (out[flipped] != gt[flipped]).all()

    def test_alignment_check(self, schema):
        with pytest.raises(AlignmentError):
            corrupt_predictions(np.array([0, 1]), np.zeros((3, 3)), NoiseSpec(), schema)

    @pytest.mark.parametrize("erosion", [0.0, 0.5])
    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (12,)], ids=["2-d", "4-d", "flat"])
    def test_positions_not_n_by_3_rejected(self, schema, erosion, shape):
        gt = np.array([0, 3, 3, 4])
        with pytest.raises(AlignmentError, match=re.escape(f"positions must be (N, 3), got {shape}")):
            corrupt_predictions(gt, np.zeros(shape), NoiseSpec(erosion_frac=erosion), schema)

    @pytest.mark.parametrize("erosion", [0.0, 0.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_positions_not_finite_rejected(self, schema, erosion, bad):
        positions = np.arange(12, dtype=float).reshape(4, 3)
        positions[2, 1] = bad
        with pytest.raises(ContractError, match=rf"^positions: position \[6.0, {bad}, 8.0\] "
                                                r"of point 2 is not finite$"):
            corrupt_predictions(np.array([0, 3, 3, 4]), positions,
                                NoiseSpec(erosion_frac=erosion), schema)


def kdtree_eroded(positions, mask, k):
    """The erosion corrupt_predictions made with scipy's k-d tree: the k mask
    points nearest to the complement, ties to the lower index."""
    from scipy.spatial import cKDTree
    tree = cKDTree(positions[~mask])
    dist, _ = tree.query(positions[mask], k=1)
    order = np.argsort(dist, kind="stable")
    return np.flatnonzero(mask)[order[:k]]


def assert_erodes_like_kdtree(positions, mask, ks=None):
    n_mask = int(mask.sum())
    for k in ks or sorted({1, max(1, n_mask // 5), max(1, n_mask - 1), n_mask}):
        got = _nearest_to_complement(positions.T.copy(), mask, k)
        assert got.size == k
        np.testing.assert_array_equal(np.sort(got), np.sort(kdtree_eroded(positions, mask, k)))


def lattice(n):
    return np.stack(np.meshgrid(*[np.arange(n, dtype=float)] * 3, indexing="ij"), -1).reshape(-1, 3)


def erosion_case(name):
    """(positions, mask) of one named erosion case."""
    rng = np.random.default_rng(12)
    if name == "lattice-ties":  # every distance is 1, sqrt(2) or more, many times over
        positions = lattice(6)
        return positions, positions[:, 0] + positions[:, 1] < 5
    if name == "duplicates":  # each point twice; some pairs straddle the mask
        positions = np.repeat(rng.uniform(0, 1, (60, 3)), 2, axis=0)
        return positions, rng.random(120) < 0.5
    if name == "coplanar":
        positions = rng.uniform(0, 1, (200, 3))
        positions[:, 2] = 0.0
        return positions, positions[:, 0] < 0.6
    if name == "collinear":
        positions = np.zeros((150, 3))
        positions[:, 1] = rng.integers(0, 40, 150) * 0.25
        return positions, rng.random(150) < 0.7
    if name == "single-complement-point":  # the one point outside lies far off
        positions = rng.uniform(0, 1, (100, 3))
        positions[37] = (5.0, -3.0, 2.0)
        return positions, np.arange(100) != 37
    if name == "all-but-one-in-mask":  # the one point outside lies amid the mask
        positions = rng.uniform(0, 1, (100, 3))
        positions[0] = 0.5
        return positions, np.arange(100) != 0
    if name == "one-point-mask":
        positions = rng.uniform(0, 1, (80, 3))
        return positions, np.arange(80) == 41
    if name == "one-point-mask-on-a-complement-point":
        positions = rng.uniform(0, 1, (80, 3))
        positions[41] = positions[7]
        return positions, np.arange(80) == 41
    if name == "summation-order":  # equal in exact arithmetic; (x + y) + z breaks the tie
        positions = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, 0.1], [0.1, 0.1, 0.3], [9.0, 9.0, 9.0]])
        return positions, np.array([False, True, True, False])
    if name == "offset-1e6":
        positions = rng.uniform(0, 1, (300, 3)) + 1e6
        return positions, positions[:, 2] < 1e6 + 0.4
    if name == "far-clusters":  # mask and complement 1e4 apart, each tightly packed
        positions = rng.normal(0, 1e-3, (200, 3))
        positions[100:] += 1e4
        return positions, np.arange(200) < 100
    raise KeyError(name)


EROSION_CASES = ["lattice-ties", "duplicates", "coplanar", "collinear", "single-complement-point",
                 "all-but-one-in-mask", "one-point-mask", "one-point-mask-on-a-complement-point",
                 "summation-order", "offset-1e6", "far-clusters"]


class TestErosionSelection:
    """The numpy selection against scipy's k-d tree, which it replaced."""

    @pytest.mark.parametrize("case", EROSION_CASES)
    def test_same_points_as_kdtree(self, case):
        positions, mask = erosion_case(case)
        assert_erodes_like_kdtree(positions, mask)

    def test_same_points_as_kdtree_on_a_scene(self, schema):
        scene = demo_scene(schema, seed=3)
        for c in schema.novel_indices:
            mask = scene.labels == c
            if mask.any():
                assert_erodes_like_kdtree(scene.positions, mask)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_same_points_as_kdtree_on_lattice_clouds(self, data):
        # Coordinates on a coarse lattice give ties, duplicates and flat clouds.
        n = data.draw(st.integers(2, 40))
        step = data.draw(st.sampled_from([1.0, 0.1, 2.0**-20]))
        offset = data.draw(st.sampled_from([0.0, -7.5, 1e6]))
        cells = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=n, max_size=n))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if mask.all() or not mask.any():
            mask[0] = not mask[0]
        k = data.draw(st.integers(1, int(mask.sum())))
        positions = np.array(cells, dtype=float) * step + offset
        assert_erodes_like_kdtree(positions, mask, [k])


class TestRandomSceneSpec:
    def test_all_novel_when_forced(self, schema):
        spec = random_scene_spec(schema, seed=4, novel_prob=1.0)
        classes = {b.class_id for b in spec.objects}
        assert set(schema.novel_indices) <= classes

    def test_boxes_inside_extent(self, schema):
        for seed in range(10):
            spec = random_scene_spec(schema, seed=seed)
            gen_scene(spec)  # raises if any box leaves the extent


class TestBaseOnly:
    def test_novel_cleared(self, schema):
        gt = np.array([-1, 0, 2, 3, 7])
        out = base_only_labels(gt, schema)
        np.testing.assert_array_equal(out, [-1, 0, 2, -1, -1])


class TestMakeSupport:
    def test_coverage_and_masks(self, schema):
        scenes = [demo_scene(schema, seed=i) for i in range(6)]
        support = make_support(scenes, schema, k=2, seed=0)
        assert support.k == 2
        assert support.classes() == list(schema.novel_indices)
        for c, shots in support.shots.items():
            for shot in shots:
                assert (shot.scene.labels[shot.mask] == c).all()

    def test_deterministic(self, schema):
        scenes = [demo_scene(schema, seed=i) for i in range(6)]
        a = make_support(scenes, schema, k=2, seed=3)
        b = make_support(scenes, schema, k=2, seed=3)
        for c in a.classes():
            for sa, sb in zip(a.shots[c], b.shots[c]):
                np.testing.assert_array_equal(sa.scene.positions, sb.scene.positions)

    def test_too_few_scenes(self, schema):
        scenes = [demo_scene(schema, seed=0)]
        with pytest.raises(ContractError):
            make_support(scenes, schema, k=2, seed=0)
