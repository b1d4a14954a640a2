"""Point-cloud data model, label-space semantics, and voxel-grid downsampling.

Label convention: -1 marks background / unlabeled points, base classes occupy
indices [0, n_base), novel classes [n_base, n_classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, ConfigError, ContractError


@dataclass
class PointCloudScene:
    """A point cloud with per-point labels and optional colors.

    positions: (N, 3) float64 coordinates in meters.
    labels: (N,) int64 class indices (-1 for background).
    colors: optional (N, 3) float64 in [0, 1].
    """

    positions: np.ndarray
    labels: np.ndarray
    colors: np.ndarray | None = None
    source_path: str | None = field(default=None, compare=False)

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise AlignmentError(
                f"positions must be (N, 3), got {self.positions.shape}"
            )
        n = self.positions.shape[0]
        if n < 1:
            raise AlignmentError("a scene must contain at least one point")
        if self.labels.shape != (n,):
            raise AlignmentError(
                f"labels length {self.labels.shape} does not match {n} points"
            )
        if self.colors is not None:
            self.colors = np.ascontiguousarray(self.colors, dtype=np.float64)
            if self.colors.shape != (n, 3):
                raise AlignmentError(
                    f"colors shape {self.colors.shape} does not match {n} points"
                )

    @property
    def point_count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class ClassSchema:
    """Ordered base and novel class names defining the label index space."""

    base_names: tuple[str, ...]
    novel_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "base_names", tuple(self.base_names))
        object.__setattr__(self, "novel_names", tuple(self.novel_names))
        overlap = set(self.base_names) & set(self.novel_names)
        if overlap:
            raise ConfigError(f"base/novel class names overlap: {sorted(overlap)}")
        if len(set(self.base_names)) != len(self.base_names):
            raise ConfigError("duplicate base class names")
        if len(set(self.novel_names)) != len(self.novel_names):
            raise ConfigError("duplicate novel class names")

    @property
    def n_base(self) -> int:
        return len(self.base_names)

    @property
    def n_novel(self) -> int:
        return len(self.novel_names)

    @property
    def n_classes(self) -> int:
        return self.n_base + self.n_novel

    @property
    def novel_indices(self) -> range:
        return range(self.n_base, self.n_classes)

    def is_base(self, index: int) -> bool:
        return 0 <= index < self.n_base

    def is_novel(self, index: int) -> bool:
        return self.n_base <= index < self.n_classes

    def name_of(self, index: int) -> str:
        if self.is_base(index):
            return self.base_names[index]
        if self.is_novel(index):
            return self.novel_names[index - self.n_base]
        raise ConfigError(f"class index {index} outside [0, {self.n_classes})")

    def to_dict(self) -> dict:
        return {
            "base_names": list(self.base_names),
            "novel_names": list(self.novel_names),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClassSchema":
        return cls(tuple(d["base_names"]), tuple(d["novel_names"]))


def checked_labels(
    name: str, labels: np.ndarray, n: int | None = None, hi: int = np.iinfo(np.int64).max
) -> np.ndarray:
    """Labels as int64, checked before the cast: a 1-D vector (of n labels, if
    n is given) of integers in [-1, hi); floats must be whole-valued, so
    nothing is truncated into range. A shape fault is an AlignmentError, a
    value fault a ContractError naming the first bad value and its index."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or n not in (None, labels.shape[0]):
        rows = "a 1-D vector" if n is None else f"{n} labels, one per row"
        raise AlignmentError(f"{name} labels of shape {labels.shape} are not {rows}")
    if labels.dtype.kind not in "iuf":
        bad = np.ones(labels.shape, dtype=bool)
    elif labels.dtype.kind == "f":
        # Compared in at least float64: a bound like int64 max overflows a narrower float.
        values = labels.astype(np.result_type(labels.dtype, np.float64), copy=False)
        # NaN compares unequal to its floor, so it is caught too.
        bad = (values < -1) | (values >= hi) | (values != np.floor(values))
    else:
        bad = (labels < -1) | (labels >= hi)
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractError(
            f"{name} label {labels[i].item()!r} at point {i} breaks the label contract: "
            f"{name} labels must be integers in [-1, {hi}), got dtype {labels.dtype}"
        )
    return labels.astype(np.int64, copy=False)


@dataclass(frozen=True)
class VoxelConfig:
    grid_size: float = 0.02

    def __post_init__(self):
        if not self.grid_size > 0:
            raise ConfigError(f"grid_size must be positive, got {self.grid_size}")


def voxelize(scene: PointCloudScene, cfg: VoxelConfig) -> PointCloudScene:
    """Collapse each occupied voxel cell to one representative point.

    Position and color are cell means; the label is the cell-majority label
    with ties broken toward the smallest label value. Output points are
    ordered by lexicographic cell index, so the result is independent of
    input point order.

    Raises ContractError for a non-finite position, and ConfigError when the
    grid is so fine for the scene extent that a cell index or the packed
    cell key would not fit in int64.
    """
    if not np.isfinite(scene.positions).all():
        raise ContractError("voxelize: every position must be finite")
    cells = np.floor(scene.positions / cfg.grid_size)
    lo, hi = cells.min(axis=0), cells.max(axis=0)
    too_fine = f"grid_size {cfg.grid_size} is too fine for this scene: cell keys overflow int64"
    if lo.min() < -2**63 or hi.max() >= 2**63:
        raise ConfigError(too_fine)
    # Python ints, so a packed key past int64 is caught rather than wrapped.
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) > np.iinfo(np.int64).max:
        raise ConfigError(too_fine)
    rel = cells.astype(np.int64) - lo.astype(np.int64)
    # Packing preserves lexicographic (x, y, z) cell order under integer sort.
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

    labels = _majority_labels(inverse, n_cells, scene.labels)
    return PointCloudScene(positions=positions, labels=labels, colors=colors)


def _majority_labels(inverse: np.ndarray, n_cells: int, labels: np.ndarray) -> np.ndarray:
    """Most frequent label per cell, the smallest one on ties, from one sort."""
    lo, hi = int(labels.min()), int(labels.max())
    span = hi - lo + 1
    # Python ints, so a packed (cell, label) key past int64 is caught rather than wrapped.
    if n_cells * span > np.iinfo(np.int64).max:
        raise ContractError(
            f"voxelize: label range [{lo}, {hi}] is too wide to pack "
            f"with {n_cells} cells into int64"
        )
    # Sorted by cell, then by label: each cell is one run of distinct labels.
    pairs, counts = np.unique(inverse * span + (labels - lo), return_counts=True)
    cell_of, label_of = np.divmod(pairs, span)
    starts = np.flatnonzero(np.diff(cell_of, prepend=-1))
    top = np.maximum.reduceat(counts, starts)
    return np.minimum.reduceat(np.where(counts == top[cell_of], label_of, span), starts) + lo
