from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcrefine import ClassSchema, PointCloudScene, VoxelConfig, voxelize
from pcrefine.errors import AlignmentError, ConfigError, ContractError
from pcrefine.scene import checked_labels


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_rejected(self, bad):
        pos = np.zeros((3, 3))
        pos[1, 2] = bad
        with pytest.raises(ContractError, match="finite"):
            voxelize(PointCloudScene(pos, np.zeros(3)), VoxelConfig(0.1))
