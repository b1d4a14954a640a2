"""Adaptive infilling: label remaining background points by thresholded
nearest-prototype assignment against an adaptive prototype set that prefers
in-scene context prototypes and falls back to support prototypes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .prototypes import PrototypeSet, novel_prototypes
from .scene import ClassSchema, checked_labels


@dataclass(frozen=True)
class InfillConfig:
    delta: float = 0.9

    def __post_init__(self):
        if not -1.0 <= self.delta <= 1.0:
            raise ConfigError(f"delta must be in [-1, 1], got {self.delta}")


def context_prototypes(
    features: np.ndarray, y_prime: np.ndarray, schema: ClassSchema
) -> PrototypeSet:
    """Masked mean feature per novel class present in the current labels."""
    return novel_prototypes(features, y_prime, schema)


def adaptive_set(
    context: PrototypeSet, support: PrototypeSet, schema: ClassSchema
) -> PrototypeSet:
    """Context prototype where one exists, support prototype otherwise.

    Always yields exactly one prototype per novel class.
    """
    missing = [c for c in schema.novel_indices if c not in support]
    if missing:
        raise ConfigError(f"support prototypes missing novel classes {missing}")
    vectors = {}
    for c in schema.novel_indices:
        vectors[c] = context[c] if c in context else support[c]
    return PrototypeSet(vectors)


def infill(
    y_prime: np.ndarray,
    features: np.ndarray,
    adaptive: PrototypeSet,
    cfg: InfillConfig,
) -> np.ndarray:
    """Assign each unlabeled point the argmax-cosine class if it clears delta.

    Labeled points are never modified; argmax ties break toward the smallest
    class index. Single pass, no iteration.
    """
    features = np.asarray(features)
    y_prime = checked_labels("y_prime", y_prime, features.shape[0])
    out = y_prime.copy()
    unlabeled = y_prime == -1
    if not unlabeled.any() or len(adaptive) == 0:
        return out

    ids, protos = adaptive.matrix()
    sims = pairwise_cosine(np.asarray(features[unlabeled], dtype=np.float64), protos)
    best = np.argmax(sims, axis=1)  # first max -> smallest class id wins ties
    best_sim = sims[np.arange(sims.shape[0]), best]
    assign = np.where(best_sim >= cfg.delta, ids[best], -1)
    out[unlabeled] = assign
    return out


def pairwise_cosine(rows: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """Cosine of every row against every prototype; zero norms score -1."""
    rn = np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    pn = np.sqrt(np.einsum("ij,ij->i", protos, protos))[:, None]
    safe_p = np.where(pn < 1e-12, 1.0, pn)
    sims = rows @ (protos / safe_p).T
    sims /= np.where(rn < 1e-12, 1.0, rn)
    degenerate = (rn < 1e-12) | (pn < 1e-12).T
    return np.where(degenerate, -1.0, sims)
