"""Masked average pooling, cosine similarity, and prototype containers.

These are the shared primitives of pseudo-label selection and adaptive
infilling: a prototype is the masked mean of per-point features for one
class, and all agreement decisions are cosine comparisons between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, EmptyMaskError
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
# The rows pooled are copied into a staging buffer of STAGE_BYTES, classes
# grouped to fit, so one window and one stage bound the memory a pool holds.
WINDOW_BYTES = 32 << 20
STAGE_BYTES = 16 << 20


def _pool_windows(
    features: np.ndarray, labels: np.ndarray, inner: np.ndarray | None = None,
    wanted=lambda c, mean: True,
) -> dict[int, tuple[np.ndarray, np.ndarray | None]]:
    """For every c >= 0 in checked int64 labels, the masked mean of the rows
    labeled c and, given a bool vector inner, the mean of those rows where
    inner is set, if wanted(c, mean) and there are any (None otherwise),
    read in one pass over the windows. Given inner, wanted (selection's keep
    rule) is called once per class in ascending order, as its mean is pooled.

    Each class's rows are taken from each window straight into the class's
    slot of the stage, in ascending row order, and once the last window is
    read each slot is summed in float64 as one array: the same reduction
    over the same rows as features[rows].sum(axis=0, dtype=np.float64), so
    both means are bitwise equal to masked_pool's.
    """
    valid = np.flatnonzero(labels >= 0)
    if valid.size and valid[-1] >= features.shape[0]:
        raise IndexError(f"row {valid[-1]} is labeled, past the {features.shape[0]} feature rows")
    order = valid[np.argsort(labels[valid], kind="stable")]
    values, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    ends = starts + counts
    row_bytes = max(1, features.shape[1] * features.itemsize)
    stage = np.empty((min(order.size, max(1, STAGE_BYTES // row_bytes)), features.shape[1]),
                     features.dtype)
    pooled = {}
    first = 0
    while first < values.size:
        # Classes first to last - 1 share the stage; a larger class has its own.
        last = int(np.searchsorted(ends, starts[first] + stage.shape[0], side="right"))
        last = max(last, first + 1)
        lo, hi = starts[first], ends[last - 1]
        held = stage if hi - lo <= stage.shape[0] else np.empty((hi - lo, features.shape[1]),
                                                                  features.dtype)
        rows = order[lo:hi]
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
            mean = held[a:b].sum(axis=0, dtype=np.float64) / (b - a)
            part = None
            if inner is not None and wanted(int(c), mean):
                within = inner[rows[a:b]]
                if within.all():
                    part = mean
                elif within.any():
                    part = held[a:b][within].sum(axis=0, dtype=np.float64) / within.sum()
            pooled[int(c)] = mean, part
        first = last
    return pooled


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
    pooled, so at most one scene's features are held at a time. Support
    scenes whose features differ in width, and a shot whose pooled rows are
    not finite, are ContractErrors naming the support scene's file.
    """
    by_scene: dict[int, list[tuple[int, int, SupportShot]]] = {}
    for c in support.classes():
        for k, shot in enumerate(support.shots[c]):
            by_scene.setdefault(id(shot.scene), []).append((c, k, shot))
    pooled: dict[tuple[int, int], np.ndarray] = {}
    first = None  # the first support scene's path and feature shape
    for shots in by_scene.values():
        scene = shots[0][2].scene
        feats = provider.embed_scene(scene)
        if first is None:
            first = scene.source_path, feats.shape
        elif feats.shape[1:] != first[1][1:]:
            raise ContractError(
                f"support scene {scene.source_path}: features of shape {feats.shape} "
                f"differ in width from those of support scene {first[0]}, of shape {first[1]}"
            )
        for c, k, shot in shots:
            pooled[c, k] = masked_pool(feats, shot.mask)
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
