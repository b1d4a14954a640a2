"""Benchmark split construction: per-class occurrence statistics,
frequency-threshold retention, and base/novel assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .scene import ClassSchema, PointCloudScene, _check_number, checked_labels


@dataclass(frozen=True)
class ClassStat:
    occurrences: int
    mean_points: float


@dataclass(frozen=True)
class ClassStats:
    """Per-class occurrence count and mean points per occurrence."""

    stats: dict[str, ClassStat]

    def occurrences(self, name: str) -> int:
        return self.stats[name].occurrences

    def mean_points(self, name: str) -> float:
        return self.stats[name].mean_points

    def names(self) -> list[str]:
        return sorted(self.stats)

    def to_dict(self) -> dict:
        return {
            name: {"occurrences": s.occurrences, "mean_points": s.mean_points}
            for name, s in sorted(self.stats.items())
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClassStats":
        """Raises ValueError unless each row's occurrences is a whole number and
        its mean_points a finite one; a JSON boolean is neither."""
        stats = {}
        for name, v in d.items():
            occ, mean = v["occurrences"], v["mean_points"]
            if type(occ) not in (int, float) or not float(occ).is_integer():
                raise ValueError(f"class {name!r}: occurrences {occ!r} is not a whole number")
            if type(mean) not in (int, float) or not math.isfinite(mean):
                raise ValueError(f"class {name!r}: mean_points {mean!r} is not a finite number")
            stats[name] = ClassStat(int(occ), float(mean))
        return cls(stats)


@dataclass(frozen=True)
class SplitSpec:
    freq_threshold: int
    n_base: int

    def __post_init__(self):
        _check_number("freq_threshold", self.freq_threshold, integer=True, lo=1)
        _check_number("n_base", self.n_base, integer=True, lo=1)


def class_stats(scenes: Iterable[PointCloudScene], schema: ClassSchema) -> ClassStats:
    """Accumulate per-class statistics over a scene corpus.

    A class's occurrences are the scenes where it has at least one point;
    its mean points are averaged over those scenes.
    """
    n = schema.n_classes
    occ = np.zeros(n, dtype=np.int64)  # scenes with >= 1 point
    points = np.zeros(n, dtype=np.int64)
    for scene in scenes:
        labels = checked_labels(f"{scene.source_path or 'scene'}:", scene.labels, hi=n)
        counts = np.bincount(labels[labels >= 0], minlength=n)
        del scene, labels  # freed before the next scene is loaded
        occ += counts > 0
        points += counts

    stats = {}
    for c in range(n):
        name = schema.name_of(c)
        mean_pts = float(points[c] / occ[c]) if occ[c] else 0.0
        stats[name] = ClassStat(int(occ[c]), mean_pts)
    return ClassStats(stats)


def build_split(stats: ClassStats, spec: SplitSpec) -> ClassSchema:
    """Retain classes above the frequency threshold; the n_base most frequent
    become base classes, the remainder novel, both in descending frequency
    (ties by name, ascending)."""
    retained = [
        (name, s.occurrences)
        for name, s in stats.stats.items()
        if s.occurrences > spec.freq_threshold
    ]
    if len(retained) < spec.n_base:
        raise ConfigError(
            f"only {len(retained)} classes exceed threshold {spec.freq_threshold}; "
            f"need at least n_base = {spec.n_base}"
        )
    retained.sort(key=lambda t: (-t[1], t[0]))
    names = [name for name, _ in retained]
    return ClassSchema(tuple(names[: spec.n_base]), tuple(names[spec.n_base:]))
