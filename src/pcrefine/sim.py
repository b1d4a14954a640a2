"""Procedural labeled scenes and a configurable noisy-prediction oracle.

Synthetic scenes (floor plus labeled boxes) and seeded corruption of their
ground truth stand in for a real dataset and raw encoder predictions, so
the whole refinement pipeline can be verified end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigError, ContractError
from .prototypes import SupportSet, SupportShot
from .scene import (
    ClassSchema,
    PointCloudScene,
    _check_number,
    _run_starts,
    _shown,
    check_finite,
    checked_labels,
)

# The largest label a scene holds: checked_labels wants int64 labels below int64 max.
_MAX_LABEL = int(np.iinfo(np.int64).max) - 1


def _check_numbers(name: str, values, n: int, **interval) -> None:
    """_check_number on each of n numbers held in a tuple, a list or a 1-D array."""
    if not (isinstance(values, (tuple, list)) or isinstance(values, np.ndarray)
            and values.ndim == 1) or len(values) != n:
        raise ConfigError(f"{name} must be {n} numbers, got {_shown(values, repr)}")
    for value in values:
        _check_number(name, value, **interval)


@dataclass(frozen=True)
class BoxSpec:
    """An axis-aligned box of labeled points: center/size in meters,
    density in points per cubic meter."""

    class_id: int
    center: tuple[float, float, float]
    size: tuple[float, float, float]
    density: float

    def __post_init__(self):
        _check_number("class_id", self.class_id, integer=True, lo=-1, hi=_MAX_LABEL)
        _check_numbers("center", self.center, 3)
        _check_numbers("size", self.size, 3, gt=0)
        _check_number("density", self.density, gt=0)

    @property
    def volume(self) -> float:
        return self.size[0] * self.size[1] * self.size[2]


@dataclass(frozen=True)
class SceneSpec:
    extent: tuple[float, float]
    objects: tuple[BoxSpec, ...] = ()
    floor_class: int = 0
    floor_density: float = 200.0  # points per square meter
    seed: int = 0

    def __post_init__(self):
        try:
            objects = tuple(self.objects)
        except TypeError:
            objects = None
        if objects is None or not all(isinstance(obj, BoxSpec) for obj in objects):
            raise ConfigError(
                f"objects must be an iterable of BoxSpec, got {_shown(self.objects, repr)}"
            )
        object.__setattr__(self, "objects", objects)
        _check_numbers("extent", self.extent, 2, gt=0)
        _check_number("floor_class", self.floor_class, integer=True, lo=-1, hi=_MAX_LABEL)
        _check_number("floor_density", self.floor_density, gt=0)
        _check_number("seed", self.seed, integer=True, lo=0)


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption applied to ground truth, in order: whole-class dropout,
    boundary erosion of each predicted mask, then per-point label flips."""

    p_miss: float = 0.0
    erosion_frac: float = 0.0
    flip_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("p_miss", "erosion_frac", "flip_prob"):
            _check_number(name, getattr(self, name), lo=0, hi=1)
        _check_number("seed", self.seed, integer=True, lo=0)


def gen_scene(spec: SceneSpec) -> PointCloudScene:
    """Deterministic scene: floor at z ~ 0 plus one point blob per box.

    Every requested box contributes at least one point. Boxes must lie
    within the XY extent.
    """
    rng = np.random.default_rng(spec.seed)
    ex, ey = spec.extent

    for obj in spec.objects:
        lo_x = obj.center[0] - obj.size[0] / 2
        hi_x = obj.center[0] + obj.size[0] / 2
        lo_y = obj.center[1] - obj.size[1] / 2
        hi_y = obj.center[1] + obj.size[1] / 2
        if lo_x < 0 or hi_x > ex or lo_y < 0 or hi_y > ey:
            raise ConfigError(
                f"box of class {obj.class_id} at {obj.center} size {obj.size} "
                f"extends outside extent {spec.extent}"
            )

    n_floor = max(1, int(rng.poisson(spec.floor_density * ex * ey)))
    floor = np.empty((n_floor, 3))
    floor[:, 0] = rng.uniform(0, ex, n_floor)
    floor[:, 1] = rng.uniform(0, ey, n_floor)
    floor[:, 2] = rng.uniform(0.0, 0.02, n_floor)
    chunks = [floor]
    labels = [np.full(n_floor, spec.floor_class, dtype=np.int64)]

    for obj in spec.objects:
        n = max(1, int(rng.poisson(obj.density * obj.volume)))
        pts = np.empty((n, 3))
        for k in range(3):
            half = obj.size[k] / 2
            pts[:, k] = rng.uniform(obj.center[k] - half, obj.center[k] + half, n)
        chunks.append(pts)
        labels.append(np.full(n, obj.class_id, dtype=np.int64))

    return PointCloudScene(
        positions=np.concatenate(chunks), labels=np.concatenate(labels)
    )


# Candidate pairs _nearest_to_complement measures at once, about 100 bytes
# each: the bound on its working memory, however the points cluster.
_PAIR_CHUNK = 1 << 16
# Mask points whose neighbouring cells are looked up at once.
_QUERY_BLOCK = 4096
# The 27 cell offsets of a 3 x 3 x 3 neighbourhood.
_NEIGHBOURS = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)])


def _nearest_to_complement(columns: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """The indices of the k points of mask nearest to a point outside it.

    columns is the (3, N) float64 array of the points' coordinates. A
    distance is computed as scipy's cKDTree computes it, sqrt((dx*dx +
    dy*dy) + dz*dz) in float64, and ties go to the lower index: the result
    is the first k of a stable sort of every mask point's nearest distance.
    mask must leave at least one point out.

    The complement is bucketed into cubic cells of side h. A mask point's
    27 neighbouring cells hold every complement point closer than h, so a
    nearest distance found below h is exact, and a point not resolved is at
    least h from the complement. The cells double in size until k points
    are resolved; points deep inside the mask never get an exact distance.
    """
    inside = np.flatnonzero(mask)
    queries = np.ascontiguousarray(columns[:, inside].T)
    lo, hi = queries.min(axis=0), queries.max(axis=0)
    extent = float((hi - lo).max())
    # The Chebyshev distance of every point from the mask's bounding box.
    gap = np.maximum(lo[0] - columns[0], columns[0] - hi[0])
    for a in (1, 2):
        np.maximum(gap, np.maximum(lo[a] - columns[a], columns[a] - hi[a]), out=gap)
    # Cells this large put every complement point next to every mask point.
    whole = (extent + max(float(gap.max()), 0.0)) * (1 + 1e-6)
    gap[inside] = np.inf
    # Start at the mask's mean spacing, or the least gap if that is larger.
    h = max(extent / float(np.cbrt(inside.size)), float(gap.min())) or 1.0
    best = np.full(inside.size, np.inf)
    pending = np.arange(inside.size)  # mask rows not yet resolved
    while True:
        reach = h * (1 + 1e-6)
        near = np.flatnonzero(gap <= reach)
        if near.size:
            origin = lo - reach
            points = np.ascontiguousarray(columns[:, near].T)
            cells = np.floor((points - origin) / h).astype(np.int64) + 1
            qcells = np.floor((queries[pending] - origin) / h).astype(np.int64) + 1
            dims = np.maximum(cells.max(axis=0), qcells.max(axis=0)) + 2
            strides = np.array([dims[1] * dims[2], dims[2], 1])
            keys = cells @ strides
            order = np.argsort(keys, kind="stable")
            keys, points = keys[order], points[order]
            first = np.flatnonzero(_run_starts(keys))
            cell_keys, counts = keys[first], np.diff(first, append=keys.size)
            steps, qkeys = _NEIGHBOURS @ strides, qcells @ strides
            for b in range(0, pending.size, _QUERY_BLOCK):
                rows = pending[b:b + _QUERY_BLOCK]
                wanted = qkeys[b:b + _QUERY_BLOCK, None] + steps
                slot = np.minimum(np.searchsorted(cell_keys, wanted), cell_keys.size - 1)
                hit = cell_keys[slot] == wanted
                owner = rows[np.nonzero(hit)[0]]  # grouped by mask row
                starts, sizes = first[slot[hit]], counts[slot[hit]]
                _measure(best, queries, owner, points, starts, sizes)
        if h >= whole:  # every complement point has been measured
            pending = pending[:0]
            break
        # Cell indices and distances round at about 1e-16 of the extent.
        pending = pending[best[pending] >= h - 1e-9 * (h + extent)]
        if inside.size - pending.size >= k:
            break
        h *= 2
    # Every resolved distance is below every unresolved one.
    resolved = np.ones(inside.size, dtype=bool)
    resolved[pending] = False
    ranked = np.flatnonzero(resolved)
    return inside[ranked[np.argsort(best[ranked], kind="stable")[:k]]]


def _measure(best, queries, owner, points, starts, sizes) -> None:
    """Lower best[q] to the distance from queries[q] to each of points[s:s + n],
    for every (q, s, n) of owner, starts and sizes (owner ascending), at most
    _PAIR_CHUNK pairs at a time."""
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if ends.size else 0
    for s in range(0, total, _PAIR_CHUNK):
        e = min(s + _PAIR_CHUNK, total)
        a = int(np.searchsorted(ends, s, side="right"))
        z = int(np.searchsorted(ends, e, side="left")) + 1
        skip = s - int(ends[a] - sizes[a])  # pairs of run a done by the last chunk
        n = sizes[a:z].copy()
        n[0] -= skip
        n[-1] -= ends[z - 1] - e
        base = starts[a:z].copy()
        base[0] += skip
        point = np.repeat(base - (np.cumsum(n) - n), n) + np.arange(e - s)
        query = np.repeat(owner[a:z], n)
        sq = queries[query] - points[point]
        sq *= sq
        dist = np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])
        seg = np.flatnonzero(_run_starts(query))
        q = query[seg]
        best[q] = np.minimum(best[q], np.minimum.reduceat(dist, seg))


def corrupt_predictions(
    gt: np.ndarray,
    positions: np.ndarray,
    noise: NoiseSpec,
    schema: ClassSchema,
) -> np.ndarray:
    """Simulated raw predictions: ground truth, checked, with seeded corruption.

    positions must be an (N, 3) array of finite coordinates, one row per label.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise AlignmentError(f"positions must be (N, 3), got {positions.shape}")
    out = checked_labels("gt", gt, positions.shape[0], schema.n_classes).copy()
    check_finite("positions", positions.T)
    rng = np.random.default_rng(noise.seed)

    # 1. Whole-class dropout of novel classes.
    for c in sorted(schema.novel_indices):
        if (out == c).any() and rng.random() < noise.p_miss:
            out[out == c] = -1

    # 2. Boundary erosion: relabel the mask points closest to the complement.
    if noise.erosion_frac > 0:
        columns = positions.T.copy()
        for c in sorted(schema.novel_indices):
            mask = out == c
            n_mask = int(mask.sum())
            if n_mask == 0 or n_mask == out.shape[0]:
                continue
            k = int(np.floor(noise.erosion_frac * n_mask))
            if k == 0:
                continue
            out[_nearest_to_complement(columns, mask, k)] = -1

    # 3. Per-point flips to a uniformly random other class.
    if noise.flip_prob > 0:
        n = out.shape[0]
        nc = schema.n_classes
        flip = rng.random(n) < noise.flip_prob
        draw = rng.integers(0, nc, size=n)
        labeled = out >= 0
        # For labeled points sample from the nc - 1 other classes.
        alt = rng.integers(0, nc - 1, size=n)
        alt = alt + (alt >= out)
        new = np.where(labeled, alt, draw)
        out = np.where(flip, new, out)

    return out


def random_scene_spec(
    schema: ClassSchema,
    seed: int,
    extent: tuple[float, float] = (8.0, 8.0),
    novel_prob: float = 0.7,
    box_density: float = 400.0,
    floor_density: float = 60.0,
) -> SceneSpec:
    """A randomized spec: floor (base class 0) plus one box per included
    class. Every novel class is included with probability novel_prob; base
    classes beyond the floor get one box each."""
    rng = np.random.default_rng(seed)
    ex, ey = extent
    objects = []

    def add_box(class_id: int, scale: float) -> None:
        size = (
            float(rng.uniform(0.3, 0.9) * scale),
            float(rng.uniform(0.3, 0.9) * scale),
            float(rng.uniform(0.3, 1.2)),
        )
        center = (
            float(rng.uniform(size[0] / 2, ex - size[0] / 2)),
            float(rng.uniform(size[1] / 2, ey - size[1] / 2)),
            float(size[2] / 2),
        )
        objects.append(BoxSpec(class_id, center, size, box_density))

    for c in range(1, schema.n_base):
        add_box(c, scale=1.5)
    for c in schema.novel_indices:
        if rng.random() < novel_prob:
            add_box(c, scale=1.0)
    return SceneSpec(
        extent=extent,
        objects=tuple(objects),
        floor_class=0,
        floor_density=floor_density,
        seed=int(rng.integers(0, 2**31)),
    )


def base_only_labels(gt: np.ndarray, schema: ClassSchema) -> np.ndarray:
    """Ground truth, checked, with every novel label cleared to background."""
    gt = checked_labels("gt", gt, hi=schema.n_classes)
    return np.where(gt >= schema.n_base, -1, gt)


def make_support(
    scenes: list[PointCloudScene],
    schema: ClassSchema,
    k: int,
    seed: int,
) -> SupportSet:
    """Draw K (scene, mask) shots per novel class from a corpus."""
    rng = np.random.default_rng(seed)
    shots: dict[int, tuple[SupportShot, ...]] = {}
    for c in sorted(schema.novel_indices):
        candidates = [i for i, s in enumerate(scenes) if (s.labels == c).any()]
        if len(candidates) < k:
            raise ContractError(
                f"novel class {c} ({schema.name_of(c)}) appears in only "
                f"{len(candidates)} scenes; need K = {k}"
            )
        chosen = rng.choice(len(candidates), size=k, replace=False)
        shots[c] = tuple(
            SupportShot(scenes[candidates[int(i)]],
                        scenes[candidates[int(i)]].labels == c)
            for i in chosen
        )
    return SupportSet(schema=schema, shots=shots)
