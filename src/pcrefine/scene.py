"""Point-cloud data model, label-space semantics, and voxel-grid downsampling.

Label convention: -1 marks background / unlabeled points, base classes occupy
indices [0, n_base), novel classes [n_base, n_classes).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, ConfigError, ContractError


@dataclass
class PointCloudScene:
    """A point cloud with per-point labels and optional colors.

    positions: (N, 3) float64 coordinates in meters.
    labels: (N,) int64 class indices (-1 for background), checked by
        checked_labels: integers or whole-valued floats, none below -1.
    colors: optional (N, 3) float64 in [0, 1], checked finite.
    source_path: the file read, if any; label and colour faults name it.
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
        name = self.source_path or "scene"
        self.labels = np.ascontiguousarray(checked_labels(f"{name}:", self.labels, n))
        if self.colors is not None:
            self.colors = np.ascontiguousarray(self.colors, dtype=np.float64)
            if self.colors.shape != (n, 3):
                raise AlignmentError(
                    f"colors shape {self.colors.shape} does not match {n} points"
                )
            check_finite(name, self.colors.T, "colour")

    @property
    def point_count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class ClassSchema:
    """Ordered base and novel class names, lists or tuples of str, defining the label index space."""

    base_names: tuple[str, ...]
    novel_names: tuple[str, ...]

    def __post_init__(self):
        for attr in ("base_names", "novel_names"):
            names = getattr(self, attr)
            if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
                raise ConfigError(f"{attr} must be a list of strings, got {_shown(names, repr)}")
            object.__setattr__(self, attr, tuple(names))
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
        return cls(d["base_names"], d["novel_names"])


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
    elif labels.size == 0 or (labels.min() >= -1 and labels.max() < hi):
        # Two reductions clear valid integers; the mask below only names a fault.
        return labels.astype(np.int64, copy=False)
    else:
        bad = (labels < -1) | (labels >= hi)
    if bad.any():
        i = int(np.argmax(bad))
        bound = ">= -1" if hi == np.iinfo(np.int64).max else f"in [-1, {hi})"
        raise ContractError(
            f"{name} label {labels[i].item()!r} at point {i} breaks the label contract: "
            f"labels must be integers {bound}, got dtype {labels.dtype}"
        )
    return labels.astype(np.int64, copy=False)


def _check_number(name: str, value, integer: bool = False, lo=None, hi=None, gt=None) -> None:
    """Raise a ConfigError naming the field unless value is a real number (an integer
    if integer is set, else finite as a float) of at least lo and at most hi, or above
    gt, for the bounds given. A bool or a string is not a number; NaN is in no interval."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {kind}, got {_shown(value, repr)}")
    if gt is not None and not value > gt:
        raise ConfigError(f"{name} must be > {gt}, got {_shown(value)}")
    if lo is not None and not (lo <= value if hi is None else lo <= value <= hi):
        interval = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be {interval}, got {_shown(value)}")
    try:  # any integer is finite; math.isfinite overflows on a real int like 10**400
        finite = integer or math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite, got {_shown(value)}")


def _shown(value, form=str) -> str:
    """form(value) for an error message. An int too long for Python's int-to-string
    limit, alone or inside a container, shows as its size instead."""
    try:
        return form(value)
    except ValueError:
        if isinstance(value, numbers.Integral):
            return f"{'a negative' if value < 0 else 'an'} integer of {int(value).bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to print"


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


def check_finite(name: str, columns: np.ndarray, what: str = "position") -> None:
    """Raise a ContractError naming the first point whose values have a NaN
    or an infinity. columns is a (k, N) float array, one row per coordinate
    (or whatever the points hold): positions.T, or a file's float32 columns."""
    # One summing pass: a NaN or an infinity makes the sum non-finite. Finite
    # values past the dtype's max do too, and the exact pass below clears them.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(columns.sum()):
            return
    finite = np.isfinite(columns).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ContractError(f"{name}: {what} {columns[:, i].tolist()} of point {i} is not finite")


@dataclass(frozen=True)
class VoxelConfig:
    grid_size: float = 0.02

    def __post_init__(self):
        _check_number("grid_size", self.grid_size, gt=0)


# Rows per chunk of _cell_keys: its float64 quotients and int64 cells,
# 128 KiB each, stay in cache between the divide, floor and pack.
_KEY_CHUNK = 2**14


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
    check_finite("voxelize", scene.positions.T)
    inverse, n_cells = _cell_ranks(*_cell_keys(scene.positions.T, cfg.grid_size))
    counts = np.bincount(inverse, minlength=n_cells).astype(np.float64)

    def cell_means(values: np.ndarray) -> np.ndarray:
        return np.stack([np.bincount(inverse, weights=values[:, k], minlength=n_cells)
                         / counts for k in range(3)], axis=1)

    positions = cell_means(scene.positions)
    colors = None if scene.colors is None else cell_means(scene.colors)
    labels = _majority_labels(inverse, n_cells, scene.labels,  # overwrites inverse
                              int(scene.labels.min()), int(scene.labels.max()))
    return PointCloudScene(positions=positions, labels=labels, colors=colors)


def _voxel_labels(columns: np.ndarray, labels: np.ndarray, grid_size: float) -> np.ndarray:
    """voxelize(scene, VoxelConfig(grid_size)).labels, bitwise, without the
    cell means, for the scene whose finite coordinates are the rows of
    columns, a (3, N) float32 or float64 array, and whose checked int64
    labels are labels. Raises as voxelize. Eval's truth labels take the same
    two steps, with the columns freed between them."""
    # The packed key orders cells as their ranks do, so the vote takes it as is.
    return _majority_labels(*_cell_keys(columns, grid_size), labels,
                            int(labels.min()), int(labels.max()))


def _cell_keys(
    columns: np.ndarray, grid_size: float, extremes: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Each point's packed cell key, whose integer order is lexicographic
    (x, y, z) cell order, and prod(spans), which bounds the keys from above.
    columns holds the finite x, y and z coordinates as rows, float32 or
    float64: positions.T, or a file's float32 columns. extremes, if given,
    is each row's [min, max] in the columns' dtype (_read_geometry's), and
    saves reading the columns for them. The key is int32 when prod(spans)
    is at most 2**31, so every key fits it, and int64 otherwise."""
    too_fine = f"grid_size {grid_size} is too fine for this scene: cell keys overflow int64"
    if extremes is None:
        extremes = [(column.min(), column.max()) for column in columns]
    # float64(x) is exact, so each quotient is the float64 x / grid_size
    # whatever the column dtype; a float32 quotient would give other cells.
    # x -> floor(float64(x) / grid_size) is monotone, so a column's extremes
    # give its extreme cells.
    los, spans = [], []
    n_keys = 1  # a Python int, so a packed key past int64 is caught rather than wrapped
    for lo, hi in np.divide(extremes, grid_size, dtype=np.float64).tolist():
        if lo < -2**63 or hi >= 2**63:
            raise ConfigError(too_fine)
        lo, hi = math.floor(lo), math.floor(hi)
        los.append(lo)
        spans.append(hi - lo + 1)
        n_keys *= spans[-1]
        if n_keys > np.iinfo(np.int64).max:
            raise ConfigError(too_fine)
    # The key is filled a chunk of rows at a time, so it is the only
    # full-size array and the chunk's quotients and cells stay in cache.
    # An int32 key is packed in an int64 chunk, then stored: a far-off
    # cell's absolute index need not fit int32, only its offset from the
    # lowest cell does.
    n = columns.shape[1]
    narrow = n_keys <= 2**31
    key = np.empty(n, dtype=np.int32 if narrow else np.int64)
    quotient = np.empty(min(n, _KEY_CHUNK), dtype=np.float64)
    cell = np.empty(min(n, _KEY_CHUNK), dtype=np.int64)
    packed = np.empty(min(n, _KEY_CHUNK), dtype=np.int64) if narrow else None
    for start in range(0, n, _KEY_CHUNK):
        rows = slice(start, min(start + _KEY_CHUNK, n))
        m = rows.stop - start
        q, c = quotient[:m], cell[:m]
        part = packed[:m] if narrow else key[rows]
        for k, column in enumerate(columns):
            np.divide(column[rows], grid_size, out=q, dtype=np.float64)
            # Offsets are taken in int64: a float difference past 2**53 would round.
            offset = c if k else part
            np.floor(q, out=offset, casting="unsafe")
            offset -= los[k]
            if k:
                part *= spans[k]
                part += offset
        if narrow:
            key[rows] = part
    return key, n_keys


def _cell_ranks(key: np.ndarray, n_keys: int) -> tuple[np.ndarray, int]:
    """np.unique(key, return_inverse=True)[1] of keys below n_keys, and the
    number of distinct keys. Overwrites an int64 key; an int32 key is
    widened first, so the row index fits beside it."""
    key = key.astype(np.int64, copy=False)
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


def _majority_labels(cell: np.ndarray, n_cells: int, labels: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Most frequent label per cell, the smallest one on ties, in cell order,
    as int64, from one value sort and one max. cell is any per-point int32
    or int64 cell id in [0, n_cells) whose order is the cell order: a rank,
    or a packed key with its bound, which is ranked first if (key, label)
    pairs would not fit in int64. labels are checked integers of any dtype,
    and lo and hi their min and max. Overwrites cell."""
    span = hi - lo + 1
    # Python ints, so a packed (cell, label) key past int64 is caught rather
    # than wrapped. Ranks keep the cell order and may fit where a sparse
    # packed cell key does not.
    if n_cells * span > np.iinfo(np.int64).max:
        cell, n_cells = _cell_ranks(cell, n_cells)
    if n_cells * span > np.iinfo(np.int64).max:
        raise ContractError(
            f"voxelize: label range [{lo}, {hi}] is too wide to pack "
            f"with {n_cells} cells into int64"
        )
    # Sorted by cell, then by label: each run of equal values is one
    # (cell, label) group, and each cell one run of groups.
    if n_cells * span <= 2**31:
        # Every pair fits int32, which sorts in half the time: packed in
        # place in an int32 cell, or straight from an int64 one. int32
        # arithmetic wraps modulo 2**32 and each pair lies in [0, 2**31), so
        # span and lo, taken modulo 2**32, and a wrapped partial sum give it
        # exactly.
        pairs = cell if cell.dtype == np.int32 else np.empty(cell.shape[0], dtype=np.int32)
        np.multiply(cell, _wrapped32(span), out=pairs, casting="unsafe")
        pairs -= _wrapped32(lo)
        np.add(pairs, labels, out=pairs, casting="unsafe")
    else:
        pairs = cell.astype(np.int64, copy=False)
        pairs *= span
        pairs -= lo  # before the labels, so no partial sum passes int64 max
        pairs += labels
    pairs.sort()
    n = pairs.shape[0]
    group = np.flatnonzero(_run_starts(pairs))
    counts = np.diff(group, append=n)
    # int64 whatever pairs is, so span and lo need not fit int32. Division by
    # a scalar, unlike divmod and %, runs a fast divide-by-constant.
    grouped = pairs[group].astype(np.int64, copy=False)
    cell_of = grouped // span
    starts = np.flatnonzero(_run_starts(cell_of))
    # A cell's groups run in label order, so of equal counts the first group
    # holds the smallest label. Scoring group g of m by count * m + m - 1 - g
    # makes the largest count win and the first group break a tie; the
    # scores stay below (n + 1) * m <= (n + 1) * n, inside int64 for any n
    # below 3e9, whatever the labels.
    m = group.shape[0]
    score = counts * m
    score += np.arange(m - 1, -1, -1)
    best = np.maximum.reduceat(score, starts)
    won = m - 1 - (best - best // m * m)
    return grouped[won] - cell_of[won] * span + lo


def _wrapped32(value: int) -> int:
    """value modulo 2**32, as an int32."""
    return (value + 2**31) % 2**32 - 2**31


def _run_starts(values: np.ndarray) -> np.ndarray:
    """A mask of the elements of a sorted 1-D array that start a run of
    equal values."""
    starts = np.empty(values.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts
