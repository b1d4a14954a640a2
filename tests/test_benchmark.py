import numpy as np
import pytest

from pcrefine import (
    ClassStat,
    ClassStats,
    PointCloudScene,
    SplitSpec,
    build_split,
    class_stats,
)
from pcrefine.errors import ConfigError


def scene_with_labels(labels, seed=0):
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    return PointCloudScene(rng.uniform(0, 5, size=(len(labels), 3)), labels)


class TestClassStats:
    def test_scene_occurrence_counts(self, schema):
        scenes = [
            scene_with_labels([0, 0, 3]),
            scene_with_labels([0, -1]),
            scene_with_labels([3, 3, 3, 1]),
        ]
        stats = class_stats(scenes, schema)
        assert stats.occurrences(schema.name_of(0)) == 2
        assert stats.occurrences(schema.name_of(3)) == 2
        assert stats.occurrences(schema.name_of(1)) == 1
        assert stats.occurrences(schema.name_of(7)) == 0

    def test_mean_points_over_occurring_scenes(self, schema):
        scenes = [scene_with_labels([3, 3, 3]), scene_with_labels([3, 0])]
        stats = class_stats(scenes, schema)
        assert stats.mean_points(schema.name_of(3)) == pytest.approx(2.0)
        assert stats.mean_points(schema.name_of(0)) == pytest.approx(1.0)
        # Absent class: zero by convention.
        assert stats.mean_points(schema.name_of(6)) == 0.0

    def test_background_ignored(self, schema):
        stats = class_stats([scene_with_labels([-1, -1, -1])], schema)
        for name in stats.names():
            assert stats.occurrences(name) == 0

    def test_matches_loop_oracle(self, schema):
        rng = np.random.default_rng(1)
        scenes = [
            scene_with_labels(rng.integers(-1, schema.n_classes, size=rng.integers(5, 50)),
                              seed=i)
            for i in range(20)
        ]
        stats = class_stats(scenes, schema)
        for c in range(schema.n_classes):
            occ = sum(1 for s in scenes if (s.labels == c).any())
            total = sum(int((s.labels == c).sum()) for s in scenes)
            name = schema.name_of(c)
            assert stats.occurrences(name) == occ
            expected = total / occ if occ else 0.0
            assert stats.mean_points(name) == pytest.approx(expected)

    def test_round_trip_dict(self, schema):
        stats = ClassStats({"a": ClassStat(5, 12.5), "b": ClassStat(1, 3.0)})
        assert ClassStats.from_dict(stats.to_dict()) == stats


class TestBuildSplit:
    def test_threshold_is_strict(self):
        stats = ClassStats({
            "keep": ClassStat(11, 1.0),
            "drop": ClassStat(10, 1.0),
            "also_keep": ClassStat(12, 1.0),
        })
        schema = build_split(stats, SplitSpec(freq_threshold=10, n_base=1))
        names = set(schema.base_names) | set(schema.novel_names)
        assert names == {"keep", "also_keep"}

    def test_frequency_ordering_with_name_ties(self):
        stats = ClassStats({
            "zeta": ClassStat(50, 1.0),
            "alpha": ClassStat(50, 1.0),
            "mid": ClassStat(40, 1.0),
            "tail": ClassStat(30, 1.0),
        })
        schema = build_split(stats, SplitSpec(freq_threshold=1, n_base=2))
        assert schema.base_names == ("alpha", "zeta")
        assert schema.novel_names == ("mid", "tail")

    def test_counts_57_12_45(self):
        stats = ClassStats({
            f"c{i:03d}": ClassStat(200 - i, 1.0) for i in range(80)
        })
        # Classes with occurrences > 100 survive: 200 - i > 100 -> i < 100,
        # so cap the synthetic corpus at occurrence 101 for 57 survivors.
        stats = ClassStats({
            f"c{i:03d}": ClassStat(300 - i if i < 57 else 90, 1.0)
            for i in range(80)
        })
        schema = build_split(stats, SplitSpec(freq_threshold=100, n_base=12))
        assert schema.n_base == 12
        assert schema.n_novel == 45

    def test_too_few_survivors(self):
        stats = ClassStats({"only": ClassStat(5, 1.0)})
        with pytest.raises(ConfigError):
            build_split(stats, SplitSpec(freq_threshold=10, n_base=12))

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SplitSpec(freq_threshold=0, n_base=12)
        with pytest.raises(ConfigError):
            SplitSpec(freq_threshold=10, n_base=0)
