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


def pool_by_class(
    features: np.ndarray, labels: np.ndarray
) -> dict[int, np.ndarray]:
    """Masked mean per label value, for every c >= 0 present in checked int64 labels.

    Bitwise equal to masked_pool(features, labels == c): the labeled rows
    are stably sorted by label, and each class's rows are gathered in
    ascending row order and summed in float64. Only labeled rows are read,
    and neither the feature matrix nor a class's rows are cast as a whole.
    """
    features = np.asarray(features)
    valid = np.flatnonzero(labels >= 0)
    order = valid[np.argsort(labels[valid], kind="stable")]
    values, starts, counts = np.unique(
        labels[order], return_index=True, return_counts=True
    )
    return {
        int(c): features[order[i:i + n]].sum(axis=0, dtype=np.float64) / n
        for c, i, n in zip(values, starts, counts)
    }


def novel_prototypes(
    features: np.ndarray, labels: np.ndarray, schema: ClassSchema
) -> PrototypeSet:
    """Masked mean feature per novel class present in checked int64 labels.

    Only rows labeled with a novel class are pooled.
    """
    novel = (labels >= schema.n_base) & (labels < schema.n_classes)
    return PrototypeSet(pool_by_class(features, np.where(novel, labels, -1)))


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
