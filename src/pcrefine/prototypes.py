"""Masked average pooling, cosine similarity, and prototype containers.

These are the shared primitives of pseudo-label selection and adaptive
infilling: a prototype is the masked mean of per-point features for one
class, and all agreement decisions are cosine comparisons between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, ContractError, EmptyMaskError
from .scene import ClassSchema, PointCloudScene, checked_labels, checked_mask
from .scene_io import _windows


def masked_pool(features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Arithmetic mean of feature rows selected by a binary mask (checked
    by checked_mask).

    The selected rows are summed in float64 in ascending row order, so
    results are bitwise reproducible whatever the stored dtype; the sum
    casts as it reads, so no float64 copy of the rows is made.
    """
    features = np.asarray(features)
    mask = checked_mask("pooling", mask, features.shape[0])
    count = int(mask.sum())
    if count == 0:
        raise EmptyMaskError("mask selects no points")
    return features[mask].sum(axis=0, dtype=np.float64) / count


# A feature matrix is read in file order, WINDOW_BYTES of rows at a time, and
# a mapped matrix's pages are released behind each window (scene_io._windows).
# The rows pooled are copied into one staging buffer of STAGE_BYTES: classes
# are grouped to fit, and a larger class is summed through it in float64
# chunks (_chunked_sums). Infill's float64 block is STAGE_BYTES too, so a
# refine holds one window, one stage and one block whatever its class sizes
# or width: over a 100 MiB file of 512-wide rows a refine's peak rises by
# 18 MiB when no class fills the stage and 22 MiB when one holds 65% of the
# rows (tests/test_memory.py). A window of 8 MiB, not 16, walks twice the
# windows; with the context rows summed in place and a support scene's shots
# pooled in one walk, refine_corpus's build CPU still fell by 9.6% (9 of 10
# pairs) and its peak_rss_mb from 86.6 to 69.1 MB (10 of 10, BENCH_41.json).
WINDOW_BYTES = 8 << 20
STAGE_BYTES = 8 << 20


def _laid_over(stage: np.ndarray, dtype, rows: int, width: int) -> np.ndarray:
    """A (rows, width) matrix of dtype laid over the first bytes of the
    uint8 stage."""
    return stage[:rows * width * np.dtype(dtype).itemsize].view(dtype).reshape(rows, width)


def _pool_windows(
    features: np.ndarray, labels: np.ndarray, inner: np.ndarray | None = None,
    wanted=lambda c, mean: True,
) -> dict[int, tuple[np.ndarray, np.ndarray | None]]:
    """For every c >= 0 in checked int64 labels, the masked mean of the rows
    labeled c and, given a bool vector inner, the mean of those rows where
    inner is set, if wanted(c, mean) and there are any (None otherwise).
    Given inner, wanted (selection's keep rule) is called once per class in
    ascending order, with the class's whole mean.

    Classes are grouped in ascending order to fit the stage, and each group
    is read in one walk over the windows: each class's rows are taken from
    each window straight into the class's slot of the stage, in ascending
    row order, and once the last window is read each slot is summed in
    float64 as one array, and its inner rows only if the class is wanted.
    A class larger than the stage is summed through it in float64 chunks in
    its own walk, its inner rows' sum beside it. Both are the same reduction
    over the same rows as features[rows].sum(axis=0, dtype=np.float64), so
    both means are bitwise equal to masked_pool's.
    """
    valid = np.flatnonzero(labels >= 0)
    if valid.size and valid[-1] >= features.shape[0]:
        raise IndexError(f"row {valid[-1]} is labeled, past the {features.shape[0]} feature rows")
    order = valid[np.argsort(labels[valid], kind="stable")]
    values, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    ends = starts + counts
    width = features.shape[1]
    row_bytes = width * features.itemsize
    fit = max(1, STAGE_BYTES // max(1, row_bytes))  # rows of features the stage holds
    # A chunked sum lays two rows of each of two sums over the stage at least.
    stage = np.empty(max(min(order.size, fit) * row_bytes, 32 * width), np.uint8)
    pooled = {}

    def finish(c, mean, within, inner_mean):
        part = None
        if inner is not None and wanted(c, mean):
            if within.all():
                part = mean
            elif within.any():
                part = inner_mean()
        pooled[c] = mean, part

    first = 0
    while first < values.size:
        last = int(np.searchsorted(ends, starts[first] + fit, side="right"))
        last = max(last, first + 1)
        lo, hi = starts[first], ends[last - 1]
        rows = order[lo:hi]
        within = None if inner is None else inner[rows]
        if hi - lo > fit and width > 1:
            # One class larger than the stage; its inner rows are summed beside
            # it unless they are all of its rows or none.
            split = within is not None and within.any() and not within.all()
            sums = _chunked_sums(features, [rows, rows[within]] if split else [rows], stage)
            finish(int(values[first]), sums[0] / rows.size, within,
                   lambda: sums[1] / within.sum())
        else:
            # Classes first to last - 1 share the stage; a larger class of one
            # column (no larger than a label vector) has a buffer of its own.
            held = (_laid_over(stage, features.dtype, hi - lo, width) if hi - lo <= fit
                    else np.empty((hi - lo, width), features.dtype))
            # Ascending: class k's rows, offset by k * n, so one search finds
            # where every class's rows in a window start and stop.
            offsets = np.arange(last - first) * features.shape[0]
            key = np.repeat(offsets, counts[first:last]) + rows
            for start, stop in _windows(features, WINDOW_BYTES):
                cuts = np.searchsorted(key, [offsets + start, offsets + stop]).tolist()
                for i, j in zip(*cuts):
                    if j > i:  # mode "raise" would copy out twice; every row is in range
                        features.take(rows[i:j], axis=0, out=held[i:j], mode="clip")
            for c, a, b in zip(values[first:last], starts[first:last] - lo, ends[first:last] - lo):
                ours = None if within is None else within[a:b]
                finish(int(c), held[a:b].sum(axis=0, dtype=np.float64) / (b - a), ours,
                       lambda: _inner_sum(held[a:b], ours) / ours.sum())
        first = last
    return pooled


def _inner_sum(held: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """held[inner].sum(axis=0, dtype=np.float64), bitwise, with no copy of
    the rows for a matrix at least 2 wide: the other rows are overwritten
    with -0.0 in place and every row is summed. numpy sums such a matrix
    down its rows one row at a time, and adding -0.0 leaves every float64,
    +0.0 included, as it was. A single column it sums pairwise within its
    buffer, where the -0.0 rows would move the splits, so it is gathered."""
    if held.shape[1] == 1:
        return held[inner].sum(axis=0, dtype=np.float64)
    held[~inner] = -0.0
    return held.sum(axis=0, dtype=np.float64)


def _chunked_sums(features: np.ndarray, streams: list[np.ndarray],
                  stage: np.ndarray) -> list[np.ndarray]:
    """The float64 sum of the rows of features (at least 2 wide) listed in
    each of streams, ascending row vectors, read in one walk over the
    windows.

    Each stream's rows are copied in file order into its share of the stage,
    laid over as float64, and a full share is summed as one array whose
    leading row carries on the sum so far. numpy sums a matrix at least 2
    wide down its rows one row at a time, so this is bitwise
    features[rows].sum(axis=0, dtype=np.float64); a single column it sums
    pairwise within its buffer, which is why a width-1 class is not chunked.
    """
    width = features.shape[1]
    share = stage.size // (8 * width * len(streams))
    bufs = _laid_over(stage, np.float64, len(streams) * share, width).reshape(-1, share, width)
    fills = [0] * len(streams)  # the first chunk has no leading row
    for start, stop in _windows(features, WINDOW_BYTES):
        for s, (buf, rows) in enumerate(zip(bufs, streams)):
            i, j = np.searchsorted(rows, (start, stop)).tolist()
            while i < j:
                k = min(j - i, share - fills[s])
                buf[fills[s]:fills[s] + k] = features[rows[i:i + k]]
                fills[s] += k
                i += k
                if fills[s] == share:
                    buf[0] = buf.sum(axis=0)
                    fills[s] = 1
    return [buf[:fill].sum(axis=0) for buf, fill in zip(bufs, fills)]


def checked_features(name: str, features, prototypes: PrototypeSet) -> np.ndarray:
    """features as an array, checked to be a matrix, as wide as the named
    prototypes unless the set is empty and so fixes no width.

    Anything else is a ContractError naming the feature shape and the width.
    """
    features = np.asarray(features)
    width = next((v.shape[0] for v in prototypes.vectors.values()), None)
    if features.ndim != 2 or width not in (None, features.shape[1]):
        fault = "is not 2-D" if width is None else f"does not match the {name} prototype width {width}"
        raise ContractError(f"feature matrix of shape {features.shape} {fault}")
    return features


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; degenerate (near-zero norm) inputs return -1."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return -1.0
    return float(np.dot(a, b) / (na * nb))


@dataclass(frozen=True)
class PrototypeSet:
    """Immutable map from class index to a feature-space centroid."""

    vectors: dict[int, np.ndarray]

    def __post_init__(self):
        clean = {}
        dim = None
        for c, v in self.vectors.items():
            v = np.asarray(v, dtype=np.float64)
            if v.ndim != 1:
                raise ContractError(f"prototype for class {c} is not a vector")
            if dim is None:
                dim = v.shape[0]
            elif v.shape[0] != dim:
                raise ContractError(
                    f"prototype for class {c} has dim {v.shape[0]}, expected {dim}"
                )
            if not np.isfinite(v).all():
                raise ContractError(f"prototype for class {c} is not finite")
            clean[int(c)] = v
        object.__setattr__(self, "vectors", clean)

    def classes(self) -> list[int]:
        return sorted(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, class_id: int) -> bool:
        return class_id in self.vectors

    def __getitem__(self, class_id: int) -> np.ndarray:
        return self.vectors[class_id]

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Class ids (ascending) and the stacked prototype matrix."""
        ids = np.array(self.classes(), dtype=np.int64)
        mat = np.stack([self.vectors[int(c)] for c in ids])
        return ids, mat


@dataclass(frozen=True)
class SupportShot:
    """One labeled exemplar: a scene plus the binary mask of its novel class,
    checked by checked_mask and stored as bool."""

    scene: PointCloudScene
    mask: np.ndarray

    def __post_init__(self):
        mask = checked_mask("support", self.mask, self.scene.point_count)
        if not mask.any():
            raise EmptyMaskError("support mask selects no points")
        object.__setattr__(self, "mask", mask)


@dataclass(frozen=True)
class SupportSet:
    """K >= 1 shots for exactly the novel classes, on scenes labelled in [-1, n_classes).
    Each shot's mask is its annotation: masks may overlap and need not match the labels."""

    schema: ClassSchema
    shots: dict[int, tuple[SupportShot, ...]]
    k: int = field(init=False)

    def __post_init__(self):
        shots = {int(c): tuple(v) for c, v in self.shots.items()}
        expected = set(self.schema.novel_indices)
        if set(shots) != expected:
            missing = sorted(expected - set(shots))
            extra = sorted(set(shots) - expected)
            raise ContractError(
                f"support set must cover exactly the novel classes; "
                f"missing {missing}, unexpected {extra}"
            )
        sizes = {len(v) for v in shots.values()}
        if len(sizes) != 1 or 0 in sizes:
            raise ContractError(f"every novel class needs the same K >= 1 shots, got {sizes}")
        for scene in {id(s.scene): s.scene for v in shots.values() for s in v}.values():
            checked_labels(f"{scene.source_path or 'scene'}:", scene.labels,
                           hi=self.schema.n_classes)
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "k", sizes.pop())

    def classes(self) -> list[int]:
        return sorted(self.shots)


def support_prototypes(support: SupportSet, provider) -> PrototypeSet:
    """Per novel class: pool each shot with its mask, average the K results.

    Each shot contributes with equal weight regardless of its mask size;
    for K = 1 this is the plain masked mean. Each distinct support scene is
    embedded once, and its features are released once every shot on it is
    pooled, so at most one scene's features are held at a time; its shots
    are pooled in file order through one window and one stage, like a
    refine, in one walk unless their masks overlap.
    Features that are not one row per point are an AlignmentError, support
    scenes whose features differ in width, and a shot whose pooled rows are
    not finite, ContractErrors, each naming the support scene's file.
    """
    by_scene: dict[int, list[tuple[int, int, SupportShot]]] = {}
    for c in support.classes():
        for k, shot in enumerate(support.shots[c]):
            by_scene.setdefault(id(shot.scene), []).append((c, k, shot))
    pooled: dict[tuple[int, int], np.ndarray] = {}
    first = None  # the first support scene's path and feature shape
    for shots in by_scene.values():
        scene = shots[0][2].scene
        feats = np.asarray(provider.embed_scene(scene))
        if feats.ndim != 2 or feats.shape[0] != scene.point_count:
            raise AlignmentError(f"support scene {scene.source_path}: features of shape "
                                 f"{feats.shape} are not a matrix of one row per point "
                                 f"({scene.point_count} points)")
        if first is None:
            first = scene.source_path, feats.shape
        elif feats.shape[1:] != first[1][1:]:
            raise ContractError(
                f"support scene {scene.source_path}: features of shape {feats.shape} "
                f"differ in width from those of support scene {first[0]}, of shape {first[1]}"
            )
        # The scene's shots are pooled together, shot i as label i: one walk
        # per label vector, and a shot whose mask overlaps one already in the
        # vector waits for the next.
        means, left = {}, range(len(shots))
        while left:
            labels, later = np.full(scene.point_count, -1, np.int64), []
            for i in left:
                mask = shots[i][2].mask
                if (labels[mask] >= 0).any():
                    later.append(i)
                else:
                    labels[mask] = i
            means.update((i, mean) for i, (mean, _) in _pool_windows(feats, labels).items())
            left = later
        for i, (c, k, shot) in enumerate(shots):
            pooled[c, k] = means[i]
            if not np.isfinite(pooled[c, k]).all():
                raise ContractError(f"support scene {scene.source_path}: "
                                    f"prototype for class {c} is not finite")
        del feats

    vectors = {}
    for c in support.classes():
        stacked = np.stack([pooled[c, k] for k in range(support.k)])
        if (stacked == stacked[0]).all():
            # K identical shots must reduce to the K = 1 result bitwise.
            vectors[c] = stacked[0]
        else:
            vectors[c] = stacked.mean(axis=0)
    return PrototypeSet(vectors)
