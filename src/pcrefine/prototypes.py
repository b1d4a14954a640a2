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
# The pool sums its rows through one float64 block of BLOCK_BYTES (128 rows
# at width 512), and infill scores its rows one such block at a time, so a
# refine holds one window, one block and two float64 sums per class whatever
# its class sizes or width, and walks each scene's file twice: once to pool,
# once to infill. Over a 100 MiB file of 512-wide rows a refine's peak rises
# by 10 MiB whether or not one class holds 65% of the rows
# (tests/test_memory.py), against 18 and 22 MiB with an 8 MiB stage.
WINDOW_BYTES = 8 << 20
BLOCK_BYTES = 512 << 10


def _pool_windows(
    features: np.ndarray, labels: np.ndarray, inner: np.ndarray | None = None
) -> dict[int, tuple[np.ndarray, np.ndarray | None]]:
    """For every c >= 0 in checked int64 labels, ascending, the masked mean
    of the rows labeled c and, given a bool vector inner, the mean of those
    rows where inner is set, or None where there are none (or no inner).

    One walk over the windows: in each window, each class's rows, ascending,
    are cast into one float64 block behind a leading row that carries the
    class's sum so far, and the block is summed into that carry; given
    inner, the block's outer rows are then overwritten with -0.0 and it is
    summed again behind the class's inner carry. Each carry starts at -0.0,
    the exact identity of IEEE addition, and numpy sums a matrix at least 2
    wide down its rows one row at a time, so both sums are bitwise
    features[rows].sum(axis=0, dtype=np.float64), as masked_pool takes it.
    A single column numpy sums pairwise, so each class of a one-column
    matrix is gathered whole, at most a label vector's bytes.
    """
    valid = np.flatnonzero(labels >= 0)
    if valid.size and valid[-1] >= features.shape[0]:
        raise IndexError(f"row {valid[-1]} is labeled, past the {features.shape[0]} feature rows")
    values, counts = np.unique(labels[valid], return_counts=True)
    width = features.shape[1]
    sums = np.full((values.size, width), -0.0)
    inner_sums = sums.copy()
    inner_counts = np.zeros(values.size, np.int64)
    if width == 1:
        order = valid[np.argsort(labels[valid], kind="stable")]
        for s, b in enumerate(np.cumsum(counts).tolist()):
            rows = order[b - counts[s]:b]
            sums[s] = features[rows].sum(axis=0, dtype=np.float64)
            if inner is not None:
                rows = rows[inner[rows]]
                inner_counts[s] = rows.size
                inner_sums[s] = features[rows].sum(axis=0, dtype=np.float64)
    else:
        step = max(1, BLOCK_BYTES // max(1, 8 * width) - 1)  # rows behind the carry
        block = np.empty((min(step, valid.size) + 1, width))
        for start, stop in _windows(features, WINDOW_BYTES):
            i, j = np.searchsorted(valid, (start, stop)).tolist()
            if i == j:
                continue
            rows = valid[i:j]
            of = labels[rows]
            by_class = np.argsort(of, kind="stable")
            rows, of = rows[by_class], of[by_class]
            within = None if inner is None else inner[rows]
            cuts = (np.flatnonzero(of[1:] != of[:-1]) + 1).tolist()
            slots = np.searchsorted(values, of[[0, *cuts]]).tolist()
            for s, a, b in zip(slots, [0, *cuts], [*cuts, rows.size]):
                for p in range(a, b, step):
                    q = min(p + step, b)
                    piece = rows[p:q]
                    part = block[:q - p + 1]
                    part[1:] = features[piece]
                    part[0] = sums[s]
                    part.sum(axis=0, out=sums[s])
                    if within is None:
                        continue
                    ours = within[p:q]
                    k = np.count_nonzero(ours)
                    if k:
                        inner_counts[s] += k
                        if k < piece.size:
                            part[1:][~ours] = -0.0
                        part[0] = inner_sums[s]
                        part.sum(axis=0, out=inner_sums[s])
    return {int(c): (sums[s] / counts[s],
                     inner_sums[s] / inner_counts[s] if inner_counts[s] else None)
            for s, c in enumerate(values)}


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
    are pooled in file order through one window and one block, like a
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
