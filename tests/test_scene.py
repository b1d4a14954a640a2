import dataclasses
import functools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import from_dtype

from pcrefine import (
    BoxSpec,
    ClassSchema,
    InfillConfig,
    MixConfig,
    NoiseSpec,
    PointCloudScene,
    SceneSpec,
    SelectionConfig,
    SplitSpec,
    SyntheticProviderConfig,
    VoxelConfig,
    save_scene,
    voxelize,
)
from pcrefine.errors import AlignmentError, ConfigError, ContractError
import pcrefine.scene as scene_module
from pcrefine.scene import _cell_keys, _cell_ranks, _majority_labels, check_finite, checked_labels


def voxel_labels(columns, labels, grid_size):
    """voxelize's labels from the cell keys and the vote alone, as eval
    takes them: the packed keys go to the vote unranked."""
    return _majority_labels(*_cell_keys(columns, grid_size), labels,
                            int(labels.min()), int(labels.max()))


HUGE = 10**400  # an int past float64 max
GIANT = 10**5000  # an int past Python's 4300-digit int-to-string limit

# The fields a config needs besides the one a test sets.
REQUIRED = {
    SplitSpec: {"freq_threshold": 1, "n_base": 1},
    BoxSpec: {"class_id": 0, "center": (1.0, 1.0, 1.0), "size": (1.0, 1.0, 1.0), "density": 1.0},
    SceneSpec: {"extent": (4.0, 4.0)},
}

# Each config field that _check_number guards: a value it rejects and the
# start of the message, which names the field.
CONFIG_FAULTS = [
    (SelectionConfig, "tau", True, "tau must be a number"),
    (SelectionConfig, "tau", "0.5", "tau must be a number"),
    (SelectionConfig, "tau", None, "tau must be a number"),
    (InfillConfig, "delta", True, "delta must be a number"),
    (InfillConfig, "delta", "0.9", "delta must be a number"),
    (VoxelConfig, "grid_size", True, "grid_size must be a number"),
    (VoxelConfig, "grid_size", "0.1", "grid_size must be a number"),
    (MixConfig, "n_blocks", 2.5, "n_blocks must be an integer"),
    (MixConfig, "n_blocks", True, "n_blocks must be an integer"),
    (MixConfig, "n_blocks", 0, "n_blocks must be >= 1"),
    (MixConfig, "crop_margin_xy", math.nan, "crop_margin_xy must be >= 0"),
    (MixConfig, "crop_margin_xy", -1.0, "crop_margin_xy must be >= 0"),
    (MixConfig, "crop_margin_xy", "1", "crop_margin_xy must be a number"),
    (MixConfig, "seed", -1, "seed must be >= 0"),
    (MixConfig, "seed", 1.0, "seed must be an integer"),
    (NoiseSpec, "seed", -1, "seed must be >= 0"),
    (NoiseSpec, "seed", False, "seed must be an integer"),
    (SyntheticProviderConfig, "anchor_seed", -1, "anchor_seed must be >= 0"),
    (SyntheticProviderConfig, "anchor_seed", 0.5, "anchor_seed must be an integer"),
    (SelectionConfig, "tau", math.nan, "tau must be in [-1, 1], got nan"),
    (SelectionConfig, "tau", math.inf, "tau must be in [-1, 1], got inf"),
    (SelectionConfig, "tau", -1.5, "tau must be in [-1, 1], got -1.5"),
    pytest.param(SelectionConfig, "tau", HUGE, "tau must be in [-1, 1]", id="tau-huge"),
    (InfillConfig, "delta", math.nan, "delta must be in [-1, 1], got nan"),
    (InfillConfig, "delta", -math.inf, "delta must be in [-1, 1], got -inf"),
    (InfillConfig, "delta", 1.01, "delta must be in [-1, 1], got 1.01"),
    (VoxelConfig, "grid_size", 0.0, "grid_size must be > 0, got 0.0"),
    (VoxelConfig, "grid_size", math.inf, "grid_size must be finite, got inf"),
    pytest.param(VoxelConfig, "grid_size", HUGE, "grid_size must be finite", id="grid-huge"),
    (MixConfig, "n_blocks", math.inf, "n_blocks must be an integer"),
    (MixConfig, "crop_margin_xy", math.inf, "crop_margin_xy must be finite, got inf"),
    (MixConfig, "seed", math.nan, "seed must be an integer"),
    (SplitSpec, "freq_threshold", 1.5, "freq_threshold must be an integer, got 1.5"),
    (SplitSpec, "freq_threshold", True, "freq_threshold must be an integer, got True"),
    (SplitSpec, "freq_threshold", "1", "freq_threshold must be an integer, got '1'"),
    (SplitSpec, "freq_threshold", 0, "freq_threshold must be >= 1, got 0"),
    (SplitSpec, "n_base", True, "n_base must be an integer, got True"),
    (SplitSpec, "n_base", 2.0, "n_base must be an integer, got 2.0"),
    (SplitSpec, "n_base", 0, "n_base must be >= 1, got 0"),
    (NoiseSpec, "p_miss", True, "p_miss must be a number, got True"),
    (NoiseSpec, "p_miss", math.nan, "p_miss must be in [0, 1], got nan"),
    (NoiseSpec, "erosion_frac", -0.1, "erosion_frac must be in [0, 1], got -0.1"),
    (NoiseSpec, "erosion_frac", math.inf, "erosion_frac must be in [0, 1], got inf"),
    (NoiseSpec, "flip_prob", "0.1", "flip_prob must be a number, got '0.1'"),
    (NoiseSpec, "flip_prob", 1.5, "flip_prob must be in [0, 1], got 1.5"),
    (SyntheticProviderConfig, "dim", 2.5, "dim must be an integer, got 2.5"),
    (SyntheticProviderConfig, "dim", 0, "dim must be >= 1, got 0"),
    (SyntheticProviderConfig, "dim", True, "dim must be an integer, got True"),
    (SyntheticProviderConfig, "noise_sigma", math.nan, "noise_sigma must be >= 0, got nan"),
    (SyntheticProviderConfig, "noise_sigma", math.inf, "noise_sigma must be finite, got inf"),
    (SyntheticProviderConfig, "noise_sigma", -0.1, "noise_sigma must be >= 0, got -0.1"),
    pytest.param(SyntheticProviderConfig, "noise_sigma", HUGE, "noise_sigma must be finite",
                 id="noise_sigma-huge"),
    (SyntheticProviderConfig, "confusion_prob", True, "confusion_prob must be a number, got True"),
    (SyntheticProviderConfig, "confusion_prob", 1.5, "confusion_prob must be in [0, 1], got 1.5"),
    (SyntheticProviderConfig, "confusion_prob", math.nan, "confusion_prob must be in [0, 1]"),
    (BoxSpec, "class_id", 1.0, "class_id must be an integer, got 1.0"),
    (BoxSpec, "class_id", -2, "class_id must be in [-1, 9223372036854775806], got -2"),
    (BoxSpec, "center", (1.0, math.nan, 1.0), "center must be finite, got nan"),
    (BoxSpec, "center", (1.0, 1.0), "center must be 3 numbers"),
    (BoxSpec, "center", "abc", "center must be 3 numbers"),
    (BoxSpec, "size", (1.0, -1.0, 1.0), "size must be > 0, got -1.0"),
    (BoxSpec, "size", (1.0, 1.0, math.inf), "size must be finite, got inf"),
    (BoxSpec, "size", (1.0, "1", 1.0), "size must be a number, got '1'"),
    (BoxSpec, "size", 1.0, "size must be 3 numbers"),
    (BoxSpec, "density", math.nan, "density must be > 0, got nan"),
    (BoxSpec, "density", "300", "density must be a number, got '300'"),
    (BoxSpec, "density", math.inf, "density must be finite, got inf"),
    (SceneSpec, "extent", (4.0, math.nan), "extent must be > 0, got nan"),
    (SceneSpec, "extent", (0.0, 4.0), "extent must be > 0, got 0.0"),
    (SceneSpec, "extent", (4.0, "4"), "extent must be a number, got '4'"),
    (SceneSpec, "extent", (4.0, 4.0, 4.0), "extent must be 2 numbers"),
    (SceneSpec, "floor_class", 0.5, "floor_class must be an integer, got 0.5"),
    (SceneSpec, "floor_density", math.nan, "floor_density must be > 0, got nan"),
    (SceneSpec, "floor_density", "60", "floor_density must be a number, got '60'"),
    (SceneSpec, "seed", -1, "seed must be >= 0, got -1"),
    (SceneSpec, "seed", True, "seed must be an integer, got True"),
    (BoxSpec, "class_id", 2**63, "class_id must be in [-1, 9223372036854775806], got 9223372036854775808"),
    (BoxSpec, "center", np.zeros((3, 1)), "center must be 3 numbers"),
    (SceneSpec, "floor_class", 2**63, "floor_class must be in [-1, 9223372036854775806], got 9223372036854775808"),
    (SceneSpec, "extent", np.array(["4", "4"]), "extent must be a number, got np.str_('4')"),
    pytest.param(SelectionConfig, "tau", GIANT, "tau must be in [-1, 1], got an integer of 16610 bits",
                 id="tau-giant"),
    pytest.param(MixConfig, "n_blocks", -GIANT,
                 "n_blocks must be >= 1, got a negative integer of 16610 bits", id="n_blocks-giant"),
    pytest.param(InfillConfig, "delta", [GIANT],
                 "delta must be a number, got a list holding an integer too long to print",
                 id="delta-giant-list"),
    pytest.param(BoxSpec, "center", (GIANT,),
                 "center must be 3 numbers, got a tuple holding an integer too long to print",
                 id="center-giant"),
    (SceneSpec, "objects", 5, "objects must be an iterable of BoxSpec, got 5"),
    (SceneSpec, "objects", (1,), "objects must be an iterable of BoxSpec, got (1,)"),
]

CONFIG_VALUES = [
    (SelectionConfig, "tau", np.float32(0.5)),
    (SelectionConfig, "tau", 1),
    (InfillConfig, "delta", -1),
    (VoxelConfig, "grid_size", np.float64(0.1)),
    (MixConfig, "n_blocks", np.int64(2)),
    (MixConfig, "crop_margin_xy", 0),
    (MixConfig, "seed", 0),
    (NoiseSpec, "seed", np.int32(7)),
    (SyntheticProviderConfig, "anchor_seed", 0),
    (SelectionConfig, "tau", -1),
    (InfillConfig, "delta", np.float32(1.0)),
    (VoxelConfig, "grid_size", 1e-300),
    (MixConfig, "crop_margin_xy", 1e300),
    pytest.param(MixConfig, "seed", HUGE, id="MixConfig-seed-huge"),
    (SplitSpec, "freq_threshold", np.int64(1)),
    (SplitSpec, "n_base", 12),
    (NoiseSpec, "p_miss", 1),
    (NoiseSpec, "erosion_frac", np.float32(0.5)),
    (NoiseSpec, "flip_prob", Fraction(1, 3)),
    (SyntheticProviderConfig, "dim", np.int64(16)),
    (SyntheticProviderConfig, "noise_sigma", 0),
    (SyntheticProviderConfig, "confusion_prob", 1),
    (BoxSpec, "class_id", -1),
    (BoxSpec, "center", [np.float64(-5.0), 0, 1e9]),
    (BoxSpec, "size", (np.float32(0.5), 1, 2.0)),
    (BoxSpec, "density", 1e-6),
    (SceneSpec, "extent", (np.float64(8.0), 1)),
    (SceneSpec, "floor_class", np.int64(2)),
    (SceneSpec, "floor_density", 60),
    (SceneSpec, "seed", np.uint32(2**31)),
]

# Every number field of every config, for the fuzz test below.
NUMBER_FIELDS = {
    config: [f.name for f in dataclasses.fields(config) if f.name != "objects"]
    for config in (SelectionConfig, InfillConfig, VoxelConfig, MixConfig, SplitSpec,
                   NoiseSpec, SyntheticProviderConfig, BoxSpec, SceneSpec)
}

# A value of any kind: numbers of every type and size, numpy scalars, NaN and
# infinities, bools, strings, None, and tuples of these for the vector fields.
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(), st.just(HUGE),
    st.builds(lambda digits, sign: sign * 10**digits, st.integers(4300, 6000), st.sampled_from([1, -1])),
    st.floats(), st.fractions(), st.decimals(), st.complex_numbers(),
    *(from_dtype(np.dtype(t)) for t in ("bool", "int8", "uint64", "float16", "float32")),
)
ANY_VALUE = st.one_of(_SCALAR, st.lists(_SCALAR, max_size=4), st.tuples(_SCALAR, _SCALAR),
                      st.tuples(_SCALAR, _SCALAR, _SCALAR))


class TestConfigNumbers:
    @pytest.mark.parametrize("config, field, value, message", CONFIG_FAULTS)
    def test_fault_names_the_field(self, config, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            config(**{**REQUIRED.get(config, {}), field: value})

    @pytest.mark.parametrize("config, field, value", CONFIG_VALUES)
    def test_number_accepted(self, config, field, value):
        assert getattr(config(**{**REQUIRED.get(config, {}), field: value}), field) == value

    @pytest.mark.parametrize("config", NUMBER_FIELDS, ids=lambda config: config.__name__)
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_any_value_is_kept_or_a_config_error(self, config, data):
        field = data.draw(st.sampled_from(NUMBER_FIELDS[config]))
        value = data.draw(ANY_VALUE)
        try:
            built = config(**{**REQUIRED.get(config, {}), field: value})
        except ConfigError:
            return
        assert getattr(built, field) is value


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

    @pytest.mark.parametrize("base, novel, field", [
        ((1, 2, 3), ("n",), "base_names"),
        ("xyz", ("n",), "base_names"),
        (("a",), ["b", None], "novel_names"),
        (("a",), "n", "novel_names"),
        ({"a": 1}, ("n",), "base_names"),  # not its keys
        (("a",), 5, "novel_names"),
    ])
    def test_names_must_be_strings(self, base, novel, field):
        with pytest.raises(ConfigError, match=f"{field} must be a list of strings"):
            ClassSchema(base, novel)
        with pytest.raises(ConfigError, match=f"{field} must be a list of strings"):
            ClassSchema.from_dict({"base_names": base, "novel_names": novel})

    def test_name_lookup(self, schema):
        assert schema.name_of(0) == "floor"
        assert schema.name_of(3) == "lamp"
        with pytest.raises(ConfigError):
            schema.name_of(8)


class TestValidate:
    def test_length_mismatch_rejected_at_construction(self):
        with pytest.raises(AlignmentError):
            PointCloudScene(positions=np.zeros((5, 3)), labels=np.zeros(4))

    @pytest.mark.parametrize("positions, colors, message", [
        (np.zeros((3, 2)), None, r"positions must be \(N, 3\), got \(3, 2\)"),
        (np.zeros(3), None, r"positions must be \(N, 3\), got \(3,\)"),
        (np.zeros((0, 3)), None, "a scene must contain at least one point"),
        (np.zeros((3, 3)), np.zeros((2, 3)), r"colors shape \(2, 3\) does not match 3 points"),
        (np.zeros((3, 3)), np.zeros(3), r"colors shape \(3,\) does not match 3 points"),
    ], ids=["two_columns", "1-d_positions", "no_points", "short_colors", "1-d_colors"])
    def test_shape_faults_rejected_at_construction(self, positions, colors, message):
        with pytest.raises(AlignmentError, match=f"^{message}$"):
            PointCloudScene(positions, np.zeros(positions.shape[0]), colors)

    @pytest.mark.parametrize("labels", [[0.5, -5.0, 2.7], [0, -5, 2], [0, np.nan, 1], ["a", "b", "c"]])
    def test_labels_follow_the_label_contract(self, labels):
        # Never truncated or passed through: a fraction, NaN, a string or a
        # value below -1 is rejected, naming the scene's labels.
        with pytest.raises(ContractError, match="^scene: label "):
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
        check_finite("x", huge.T)
        scene = PointCloudScene(np.zeros((4, 3)), np.zeros(4), colors=huge)
        assert scene.colors.tobytes() == huge.tobytes()
        huge[2, 1] = -np.inf
        with pytest.raises(ContractError, match="point 2 is not finite"):
            check_finite("x", huge.T)

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

    @pytest.mark.parametrize("grid, message", [
        pytest.param(np.inf, "grid_size must be finite", id="inf"),
        pytest.param(-np.inf, "grid_size must be > 0", id="-inf"),
        pytest.param(np.nan, "grid_size must be > 0", id="nan"),
    ])
    def test_non_finite_grid_rejected(self, grid, message):
        # An infinite grid would put every scene into one voxel.
        with pytest.raises(ConfigError, match=message):
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
            voxel_labels(scene.positions.T, scene.labels, 0.5)

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
    check_finite("voxelize", scene.positions.T)
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
    got = voxel_labels(scene.positions.T, scene.labels, grid)
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
    """Counts np.unique calls, to tell which branch _cell_ranks took."""
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
    inverse, n_cells = _cell_ranks(*_cell_keys(pos.T, grid))
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
    inverse, n_cells = _cell_ranks(*_cell_keys(pos.T, 1.0))
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
    assert_same_bytes(voxel_labels(scene.positions.T, scene.labels, grid), want)
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
    got = voxel_labels(scene.positions.T, scene.labels, 1.0)
    assert ranked == [int(-x0) + 2]
    assert unique_calls == ([{"return_inverse": True}] if ranked_by_unique else [])
    assert_same_bytes(got, want)
    assert_same_bytes(got, voxelize(scene, VoxelConfig(1.0)).labels)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([-1e3, -7.3, 0.0, 0.51, 250.0]),
    scale=st.sampled_from([0.05, 1.0, 20.0]),
    grid=st.sampled_from([0.03, 0.2, 1.0, 1e9]),
    labels=st.sampled_from(["ties", "background", "wide"]),
)
def test_float32_columns_key_and_vote_equal_references(n, seed, offset, scale, grid, labels):
    # The scenes of test_voxelize_bitwise_equals_axis0_reference, rounded to
    # float32 as a PLY stores them: the keys and labels eval computes from a
    # file's float32 columns are those of the float64 scene.
    rng = np.random.default_rng(seed)
    pos = offset + scale * rng.uniform(-1, 1, size=(n, 3)) * [1.0, 0.25, 4.0]
    columns = pos.T.astype(np.float32)
    label = {"ties": rng.integers(-1, 1, size=n),
             "background": np.full(n, -1),
             "wide": rng.integers(-1, 40, size=n)}[labels]
    scene = PointCloudScene(columns.T, label)
    key, n_keys = _cell_keys(columns, grid)
    want_key, want_n_keys = _cell_keys(columns.astype(np.float64), grid)
    assert_same_bytes(key, want_key)
    assert n_keys == want_n_keys
    want = voxelize_axis0(scene, VoxelConfig(grid))
    for attr in ("positions", "colors", "labels"):
        assert_same_bytes(getattr(voxelize(scene, VoxelConfig(grid)), attr), getattr(want, attr))
    assert_same_bytes(voxel_labels(scene.positions.T, scene.labels, grid), want.labels)
    assert_same_bytes(voxel_labels(columns, scene.labels, grid), want.labels)


# Scenes at the int32 sort's bound and past it, and with labels far from
# int32 or from each other: x (one cell per unit) and labels.
PACKING_EDGES = {
    # 8 cells x span 2**28 = 2**31: the largest (cell, label) pair, 2**31 - 1, fits int32.
    "int32-at-2**31": ([0, 7, 7, 3, 3, 3], [0, 2**28 - 1, 0, 5, 2**28 - 1, 5]),
    # 1 cell x span 2**31: the pairs fit int32, but the span itself does not.
    "int32-one-cell-span-2**31": ([0, 0], [-1, 2**31 - 2]),
    # 3 cells x span 715827883 = 2**31 + 1: the pair 2**31 would wrap in int32.
    "int64-at-2**31+1": ([0, 2, 2, 1, 0], [715827882, 715827882, 0, 0, 0]),
    # Labels past int32 in an int32 sort: only their range is packed.
    "int32-labels-from-2**40": ([0, 0, 0, 1], [2**40 + 1, 2**40, 2**40 + 1, 2**40]),
    # Spans of 2**61 and 2**61 + 1: a score packed from the label would pass int64 max.
    "span-2**61": ([0, 0, 1], [2**61 - 1, 0, 0]),
    "span-2**61+1": ([0, 0, 1], [2**61, 0, 0]),
    "one-cell-span-2**61+1": ([0, 0, 0, 0, 0], [0, 0, 0, 0, 2**61]),
}


@pytest.mark.parametrize("edge", PACKING_EDGES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vote_at_its_packing_bounds_equals_reference(edge, dtype):
    x, labels = PACKING_EDGES[edge]
    pos = np.zeros((len(x), 3))
    pos[:, 0] = x
    scene = PointCloudScene(pos, np.array(labels))
    want = voxelize_axis0(scene, VoxelConfig(1.0)).labels
    assert want.dtype == np.int64
    got = [voxel_labels(scene.positions.T, scene.labels, 1.0),
           voxelize(scene, VoxelConfig(1.0)).labels,
           voxel_labels(pos.T.astype(dtype), scene.labels, 1.0)]
    for labels_out in got:
        assert_same_bytes(labels_out, want)


def test_cell_keys_of_float32_columns_past_2_53_stay_exact():
    # -2**60 is a float32: its cell lies 2**60 below the next, and a float
    # offset would round 2**60 + 1 to 2**60 and merge two cells.
    columns = np.array([[-(2.0**60), 0, 1], [0, 0, 0], [0, 0, 0]], dtype=np.float32)
    key, n_keys = _cell_keys(columns, 1.0)
    assert key.tolist() == [0, 2**60, 2**60 + 1]
    assert n_keys == 2**60 + 2
    want_key, want_n_keys = _cell_keys(columns.astype(np.float64), 1.0)
    assert_same_bytes(key, want_key)
    assert n_keys == want_n_keys
    scene = PointCloudScene(columns.T, np.array([0, 1, 2]))
    assert_same_bytes(voxel_labels(columns, scene.labels, 1.0),
                      voxelize_axis0(scene, VoxelConfig(1.0)).labels)


def reference_cell_keys(columns, grid_size):
    """_cell_keys as it was before the key was filled in chunks: whole-column
    quotients and cells, the spans from the quotients' extremes."""
    too_fine = f"grid_size {grid_size} is too fine for this scene: cell keys overflow int64"
    n = columns.shape[1]
    quotient = np.empty(n, dtype=np.float64)
    key, cell = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    n_keys = 1
    for k, column in enumerate(columns):
        np.divide(column, grid_size, out=quotient, dtype=np.float64)
        lo, hi = float(quotient.min()), float(quotient.max())
        if lo < -2**63 or hi >= 2**63:
            raise ConfigError(too_fine)
        lo, hi = math.floor(lo), math.floor(hi)
        span = hi - lo + 1
        n_keys *= span
        if n_keys > np.iinfo(np.int64).max:
            raise ConfigError(too_fine)
        offset = cell if k else key
        np.floor(quotient, out=offset, casting="unsafe")
        offset -= lo
        if k:
            key *= span
            key += offset
    return key, n_keys


def assert_same_keys(key, n_keys, want_key):
    """key holds the int64 reference's values, stored as int32 when every
    key below n_keys fits it and as int64 otherwise."""
    assert key.dtype == (np.int32 if n_keys <= 2**31 else np.int64)
    assert_same_bytes(key.astype(np.int64), want_key)


CHUNK = scene_module._KEY_CHUNK


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 2 * CHUNK + 2])
@pytest.mark.parametrize("extremes_last", [False, True])
def test_chunked_cell_keys_equal_reference(dtype, n, extremes_last):
    rng = np.random.default_rng(n)
    columns = (rng.normal(size=(3, n)) * [[3.0], [40.0], [0.5]] + [[-7.0], [1e4], [0.0]]).astype(dtype)
    if extremes_last:
        # The last two rows hold every column's minimum and maximum; at
        # n = 2 * CHUNK + 2 both lie in the last chunk, which holds only them.
        columns[:, -2] = columns.min(axis=1) - 5
        columns[:, -1] = columns.max(axis=1) + 5
    for grid in (0.05, 0.3, 1.0):
        key, n_keys = _cell_keys(columns, grid)
        want_key, want_n_keys = reference_cell_keys(columns, grid)
        assert_same_keys(key, n_keys, want_key)
        assert type(n_keys) is int and n_keys == want_n_keys


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fault", ["cell_past_int64", "keys_past_int64"])
def test_chunked_cell_keys_too_fine_in_last_chunk(dtype, fault):
    # Only the last row of the last (one-row) chunk breaks the bound: its
    # cell index itself, or the product of the spans it widens.
    columns = np.zeros((3, 2 * CHUNK + 1), dtype=dtype)
    columns[:, -1] = {"cell_past_int64": [1e20, 0, 0], "keys_past_int64": [2.0**40, 2.0**40, 0]}[fault]
    grid = {"cell_past_int64": 1e-3, "keys_past_int64": 1.0}[fault]
    for keys in (_cell_keys, reference_cell_keys):
        with pytest.raises(ConfigError, match=f"grid_size {grid} is too fine for this scene"):
            keys(columns, grid)
    assert_same_keys(*_cell_keys(columns[:, :-1], grid), reference_cell_keys(columns[:, :-1], grid)[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x0, n_keys, key_dtype", [
    # Cells 1 .. 2**31: the largest key, 2**31 - 1, fits int32.
    (1.0, 2**31, np.int32),
    # Cells 0 .. 2**31: the key 2**31 would wrap in int32.
    (0.0, 2**31 + 1, np.int64),
])
def test_cell_key_dtype_at_2_31_keys(dtype, x0, n_keys, key_dtype):
    columns = np.zeros((3, 3), dtype=dtype)
    columns[0] = [x0, 2.0**31, 5.0]  # each a float32
    key, got_n_keys = _cell_keys(columns, 1.0)
    assert got_n_keys == n_keys
    assert key.dtype == key_dtype
    assert key.tolist() == [0, 2**31 - int(x0), 5 - int(x0)]
    assert_same_keys(key, n_keys, reference_cell_keys(columns, 1.0)[0])


def packed_pairs(key, labels):
    """The (cell, label) pairs the vote sorts, from the int64 values."""
    lo, hi = int(labels.min()), int(labels.max())
    return np.sort(key.astype(np.int64) * (hi - lo + 1) + (labels - lo))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("edge, in_place", [("int32-at-2**31", True), ("int64-at-2**31+1", False)])
def test_vote_packs_int32_keys_in_place_up_to_2_31_pairs(dtype, edge, in_place):
    x, labels = PACKING_EDGES[edge]
    columns = np.zeros((3, len(x)), dtype=dtype)
    columns[0] = x
    labels = np.array(labels)
    key, n_keys = _cell_keys(columns, 1.0)
    assert key.dtype == np.int32
    before = key.copy()
    got = scene_module._majority_labels(key, n_keys, labels, int(labels.min()), int(labels.max()))
    # In place, the int32 key's buffer ends up holding the sorted pairs;
    # past 2**31 they are packed in an int64 copy and the key is left as is.
    assert_same_bytes(key, packed_pairs(before, labels).astype(np.int32) if in_place else before)
    scene = PointCloudScene(columns.T, labels)
    assert_same_bytes(got, voxelize_axis0(scene, VoxelConfig(1.0)).labels)
    assert_same_bytes(got, voxelize(scene, VoxelConfig(1.0)).labels)
    assert_same_bytes(got, voxel_labels(columns, labels, 1.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_far_off_narrow_scene_gets_int32_keys(dtype):
    # x near 2**40, in cells 2**17 apart (float32's spacing there): each
    # absolute cell index passes int32, but the span and the keys do not.
    columns = np.zeros((3, 5), dtype=dtype)
    columns[0] = 2.0**40 + np.array([0, 1, 2, 5, 2]) * 2.0**17
    columns[2] = [0, 0, 1, 0, 0]
    labels = np.array([3, 1, 1, 0, 4])
    key, n_keys = _cell_keys(columns, 1.0)
    assert n_keys == (5 * 2**17 + 1) * 2
    assert key.dtype == np.int32
    assert_same_keys(key, n_keys, reference_cell_keys(columns, 1.0)[0])
    scene = PointCloudScene(columns.T, labels)
    assert_same_bytes(voxel_labels(columns, labels, 1.0), voxelize_axis0(scene, VoxelConfig(1.0)).labels)


def test_wide_labels_rank_an_int32_key(monkeypatch):
    # 2**31 keys fit int32, but 2**31 x a label span of 2**40 + 1 passes
    # int64: the int32 key is ranked, and the 2 ranks pack with the labels.
    columns = np.zeros((3, 4), dtype=np.float32)
    columns[0] = [1.0, 2.0**31, 1.0, 2.0**31]
    labels = np.array([0, 2**40, 2**40, 2**40])
    key, n_keys = _cell_keys(columns, 1.0)
    assert (key.dtype, n_keys) == (np.int32, 2**31)
    fed = []
    real = scene_module._cell_ranks
    monkeypatch.setattr(scene_module, "_cell_ranks",
                        lambda key, n_keys: fed.append(key.dtype) or real(key, n_keys))
    got = scene_module._majority_labels(key, n_keys, labels, 0, 2**40)
    assert fed == [np.int32]
    assert got.tolist() == [0, 2**40]
    scene = PointCloudScene(columns.T, labels)
    assert_same_bytes(got, voxelize_axis0(scene, VoxelConfig(1.0)).labels)
    assert_same_bytes(voxel_labels(columns, labels, 1.0), got)
