"""Adaptive infilling: label remaining background points by thresholded
nearest-prototype assignment against an adaptive prototype set that prefers
in-scene context prototypes and falls back to support prototypes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from . import prototypes
from .prototypes import PrototypeSet, _pool_windows, checked_features
from .scene import ClassSchema, _check_number, checked_labels
from .scene_io import _windows


@dataclass(frozen=True)
class InfillConfig:
    delta: float = 0.9

    def __post_init__(self):
        _check_number("delta", self.delta, lo=-1, hi=1)


def context_prototypes(
    features: np.ndarray, y_prime: np.ndarray, schema: ClassSchema
) -> PrototypeSet:
    """Masked mean feature per novel class present in y_prime, checked below n_classes."""
    features = np.asarray(features)
    y_prime = checked_labels("y_prime", y_prime, features.shape[0], schema.n_classes)
    pooled = _pool_windows(features, np.where(y_prime >= schema.n_base, y_prime, -1))
    return PrototypeSet({c: mean for c, (mean, _) in pooled.items()})


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
    class index. Single pass, no iteration. Features must be a matrix as
    wide as the adaptive prototypes.
    """
    features = checked_features("adaptive", features, adaptive)
    y_prime = checked_labels("y_prime", y_prime, features.shape[0])
    return _infill(y_prime, features, adaptive, cfg.delta)[0]


def _infill(
    y_prime: np.ndarray, features: np.ndarray, adaptive: PrototypeSet, delta: float
) -> tuple[np.ndarray, int]:
    """infill on checked int64 labels, and the number of points it labeled."""
    out = y_prime.copy()
    rows = np.flatnonzero(y_prime == -1)
    if rows.size == 0 or len(adaptive) == 0:
        return out, 0

    ids, protos = adaptive.matrix()
    best, best_sim = _nearest_prototype(features, rows, protos)
    assigned = best_sim >= delta
    out[rows] = np.where(assigned, ids[best], -1)
    return out, int(assigned.sum())


# Rows per infill block. Each similarity is one dot product of its own row
# and prototype, so the block size bounds the float64 copy's memory (16 MiB
# of 512-wide rows) and never changes a result. Blocks lie inside the
# feature windows that scene_io._windows walks, prototypes.WINDOW_BYTES of
# rows each, whose mapped pages are released behind them.
INFILL_BLOCK_ROWS = 4096


def _nearest_prototype(
    features: np.ndarray, rows: np.ndarray, protos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index and cosine of the most similar prototype for each listed row,
    rows ascending.

    Rows are read one window of the matrix at a time, in file order, and
    gathered and cast to float64 one block at a time, so the whole float64
    copy of the unlabeled set is never built. Ties go to the first
    prototype. A listed row that is not finite is a ContractError naming
    the first such row by its index in features.
    """
    best, best_sim = [], []
    for start, stop in _windows(features, prototypes.WINDOW_BYTES):
        i, j = np.searchsorted(rows, (start, stop))
        for k in range(i, j, INFILL_BLOCK_ROWS):
            block = rows[k:min(k + INFILL_BLOCK_ROWS, j)]
            sims = pairwise_cosine(np.asarray(features[block], dtype=np.float64), protos,
                                   row_ids=block)
            best.append(np.argmax(sims, axis=1))
            best_sim.append(sims[np.arange(block.size), best[-1]])
    return np.concatenate(best), np.concatenate(best_sim)


def pairwise_cosine(
    rows: np.ndarray, protos: np.ndarray, row_ids: np.ndarray | None = None
) -> np.ndarray:
    """Cosine of every row against every prototype; zero norms score -1.

    Each similarity is one dot product of its row and unit prototype, so it
    does not depend on the other rows or prototypes passed. A row whose
    norm is not finite (a NaN or inf feature) is a ContractError naming the
    first such row by its entry in row_ids, or by its position in rows when
    row_ids is None.
    """
    rn = np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    finite = np.isfinite(rn)
    if not finite.all():
        i = int(np.argmin(finite))
        row = i if row_ids is None else int(row_ids[i])
        raise ContractError(
            f"feature row {row} is not finite (its norm is {rn[i, 0]}); "
            f"features must be finite"
        )
    pn = np.sqrt(np.einsum("ij,ij->i", protos, protos))[:, None]
    safe_p = np.where(pn < 1e-12, 1.0, pn)
    sims = np.vecdot(rows[:, None, :], (protos / safe_p)[None])
    sims /= np.where(rn < 1e-12, 1.0, rn)
    degenerate = (rn < 1e-12) | (pn < 1e-12).T
    return np.where(degenerate, -1.0, sims)
