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
    labels: (N,) int64 class indices (-1 for background), checked by
        checked_labels: integers or whole-valued floats, none below -1.
    colors: optional (N, 3) float64 in [0, 1].
    """

    positions: np.ndarray
    labels: np.ndarray
    colors: np.ndarray | None = None
    source_path: str | None = field(default=None, compare=False)

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise AlignmentError(
                f"positions must be (N, 3), got {self.positions.shape}"
            )
        n = self.positions.shape[0]
        if n < 1:
            raise AlignmentError("a scene must contain at least one point")
        self.labels = np.ascontiguousarray(checked_labels("scene", self.labels, n))
        if self.colors is not None:
            self.colors = np.ascontiguousarray(self.colors, dtype=np.float64)
            if self.colors.shape != (n, 3):
                raise AlignmentError(
                    f"colors shape {self.colors.shape} does not match {n} points"
                )
            check_finite("scene", self.colors, "colour")

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


def checked_mask(name: str, mask: np.ndarray, n: int | None = None) -> np.ndarray:
    """A binary mask as bool, checked before the cast: a 1-D vector (of n
    entries, if n is given) of bools, or of numbers that are all exactly 0
    or 1. A shape fault is an AlignmentError, a value fault (2, 0.5, NaN, a
    string) a ContractError naming the first bad value and its index."""
    mask = np.asarray(mask)
    if mask.ndim != 1 or n not in (None, mask.shape[0]):
        rows = "a 1-D vector" if n is None else f"{n} entries, one per point"
        raise AlignmentError(f"{name} mask of shape {mask.shape} is not {rows}")
    if mask.dtype == bool:
        return mask
    bad = ~((mask == 0) | (mask == 1)) if mask.dtype.kind in "iuf" else np.ones(mask.shape, bool)
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractError(
            f"{name} mask value {mask[i].item()!r} at point {i} is not 0 or 1: "
            f"a mask holds bools or 0/1 numbers, got dtype {mask.dtype}"
        )
    return mask.astype(bool)


def check_finite(name: str, values: np.ndarray, what: str = "position") -> None:
    """Raise a ContractError naming the first point whose row of values (an
    (N, k) array of positions, or of what the rows hold) has a NaN or an
    infinity."""
    # One summing pass: a NaN or an infinity makes the sum non-finite. Finite
    # values past float64 max do too, and the exact pass below clears them.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(values.sum()):
            return
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ContractError(f"{name}: {what} {values[i].tolist()} of point {i} is not finite")


@dataclass(frozen=True)
class VoxelConfig:
    grid_size: float = 0.02

    def __post_init__(self):
        if not 0 < self.grid_size < math.inf:
            raise ConfigError(f"grid_size must be positive and finite, got {self.grid_size}")


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
    inverse, n_cells = _voxel_cells(scene.positions, cfg.grid_size)
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


def voxel_labels(scene: PointCloudScene, cfg: VoxelConfig) -> np.ndarray:
    """voxelize(scene, cfg).labels, bitwise, without the cell means: for a
    caller that reads only the labels and their count. Raises as voxelize."""
    key, n_keys = _cell_keys(scene.positions, cfg.grid_size)
    labels = scene.labels
    # The packed key orders cells as their ranks do, so the majority vote
    # needs no ranks unless (key, label) pairs would not fit in int64.
    if n_keys * (int(labels.max()) - int(labels.min()) + 1) > np.iinfo(np.int64).max:
        key, n_keys = _cell_ranks(key, n_keys)
    return _majority_labels(key, n_keys, labels)


def _voxel_cells(positions: np.ndarray, grid_size: float) -> tuple[np.ndarray, int]:
    """Each point's cell rank in lexicographic (x, y, z) cell order, which is
    np.unique(key, return_inverse=True)[1] of the packed cell key, and the
    number of occupied cells."""
    return _cell_ranks(*_cell_keys(positions, grid_size))


def _cell_keys(positions: np.ndarray, grid_size: float) -> tuple[np.ndarray, int]:
    """Each point's packed cell key, whose integer order is lexicographic
    (x, y, z) cell order, and prod(spans), which bounds the keys from above."""
    check_finite("voxelize", positions)
    # One contiguous column at a time: numpy reduces axis 0 of a C-ordered
    # (N, 3) array through a 3-wide inner loop, so min/max over the whole
    # cell array cost about as much as the sort. The values are the same.
    cells = [np.floor(positions[:, k] / grid_size) for k in range(3)]
    lo, hi = [c.min() for c in cells], [c.max() for c in cells]
    too_fine = f"grid_size {grid_size} is too fine for this scene: cell keys overflow int64"
    if min(lo) < -2**63 or max(hi) >= 2**63:
        raise ConfigError(too_fine)
    # Python ints, so a packed key past int64 is caught rather than wrapped.
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) > np.iinfo(np.int64).max:
        raise ConfigError(too_fine)
    # Offsets are taken in int64: a float difference past 2**53 would round.
    key = cells.pop(0).astype(np.int64) - np.int64(lo[0])
    for k in (1, 2):
        key *= spans[k]
        key += cells.pop(0).astype(np.int64) - np.int64(lo[k])
    return key, math.prod(spans)


def _cell_ranks(key: np.ndarray, n_keys: int) -> tuple[np.ndarray, int]:
    """np.unique(key, return_inverse=True)[1] of keys below n_keys, and the
    number of distinct keys. Overwrites key."""
    n = key.shape[0]
    bits = max(1, (n - 1).bit_length())
    if n_keys << bits > np.iinfo(np.int64).max:
        _, inverse = np.unique(key, return_inverse=True)
        return inverse, int(inverse.max()) + 1
    # key < n_keys, so key << bits | row fits in int64, and the packed
    # values are distinct: a value sort (SIMD, unlike argsort) orders the
    # rows by cell and carries each row's index in the low bits.
    key <<= bits
    key |= np.arange(n, dtype=np.int64)
    key.sort()
    row = key & ((1 << bits) - 1)
    key >>= bits
    # The rank of each sorted key among the distinct keys, reusing key's buffer.
    rank = np.cumsum(_run_starts(key), out=key)
    rank -= 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[row] = rank
    return inverse, int(rank[-1]) + 1


def _majority_labels(cell: np.ndarray, n_cells: int, labels: np.ndarray) -> np.ndarray:
    """Most frequent label per cell, the smallest one on ties, in cell order,
    from one value sort. cell is any per-point cell id in [0, n_cells) whose
    order is the cell order: a rank, or a packed key with its bound."""
    lo, hi = int(labels.min()), int(labels.max())
    span = hi - lo + 1
    # Python ints, so a packed (cell, label) key past int64 is caught rather than wrapped.
    if n_cells * span > np.iinfo(np.int64).max:
        raise ContractError(
            f"voxelize: label range [{lo}, {hi}] is too wide to pack "
            f"with {n_cells} cells into int64"
        )
    # Sorted by cell, then by label: each run of equal values is one
    # (cell, label) group, and each cell one run of groups.
    pairs = cell * span
    pairs -= lo  # before the labels, so no partial sum passes int64 max
    pairs += labels
    pairs.sort()
    group = np.flatnonzero(_run_starts(pairs))
    counts = np.diff(group, append=pairs.shape[0])
    cell_of, label_of = np.divmod(pairs[group], span)
    starts = np.flatnonzero(_run_starts(cell_of))
    top = np.repeat(np.maximum.reduceat(counts, starts), np.diff(starts, append=len(group)))
    return np.minimum.reduceat(np.where(counts == top, label_of, span), starts) + lo


def _run_starts(values: np.ndarray) -> np.ndarray:
    """A mask of the elements of a sorted 1-D array that start a run of
    equal values."""
    starts = np.empty(values.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts
