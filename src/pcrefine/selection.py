"""Pseudo-label selection: keep a novel class's raw predictions only when
its predicted prototype agrees with the support prototype, then merge the
survivors into the background of the base label map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .prototypes import PrototypeSet, _pool_windows, checked_features, cosine
from .scene import ClassSchema, _check_number, checked_labels


@dataclass(frozen=True)
class SelectionConfig:
    tau: float = 0.6

    def __post_init__(self):
        _check_number("tau", self.tau, lo=-1, hi=1)


def select_and_merge(
    features: np.ndarray,
    raw: np.ndarray,
    base_labels: np.ndarray,
    support: PrototypeSet,
    cfg: SelectionConfig,
    schema: ClassSchema,
) -> tuple[np.ndarray, dict[int, float], list[int]]:
    """ps_refine plus the per-class agreement behind each keep/drop decision,
    and the kept classes in ascending order.

    Base-class predictions are always cleared to -1. A novel class keeps all
    of its points iff cosine(predicted, support) >= tau, one decision per
    class. Raises ContractError unless features are as wide as the support
    prototypes, raw labels are one integer in [-1, n_classes) per feature
    row, and base labels one in [-1, n_base).
    """
    return _select_and_merge(features, raw, base_labels, support, cfg, schema)[:3]


def _select_and_merge(
    features: np.ndarray,
    raw: np.ndarray,
    base_labels: np.ndarray,
    support: PrototypeSet,
    cfg: SelectionConfig,
    schema: ClassSchema,
) -> tuple[np.ndarray, dict[int, float], list[int], PrototypeSet]:
    """select_and_merge, and the kept classes' context prototypes, pooled in
    the same walk as the predicted prototypes: y_prime == c exactly where
    raw == c on base background and c is kept, so it is the mean of the
    class's raw rows on base background, where there are any. Every class's
    candidate is pooled; only a kept class's is used."""
    features = checked_features("support", features, support)
    raw = checked_labels("raw", raw, features.shape[0], schema.n_classes)
    base_labels = checked_labels("base", base_labels, features.shape[0], schema.n_base)
    background = base_labels == -1
    pooled = _pool_windows(features, np.where(raw >= schema.n_base, raw, -1), background)
    # The keep rule, once per class in ascending order. A non-finite prototype
    # is raised here, and so wins over a class absent from the support.
    agreement, kept = {}, []
    for c, (mean, _) in pooled.items():
        if not np.isfinite(mean).all():
            raise ContractError(f"prototype for class {c} is not finite")
        if c in support:
            agreement[c] = cosine(mean, support[c])
            if agreement[c] >= cfg.tau:
                kept.append(c)
    absent = [c for c in pooled if c not in support]
    if absent:
        raise ConfigError(f"novel class {absent[0]} predicted but absent from the support "
                          f"prototypes; the class list used for prediction does not match "
                          f"the support set")
    # A kept raw label goes where the base labels are background; base wins elsewhere.
    y_prime = np.where(background, np.where(np.isin(raw, kept), raw, -1), base_labels)
    context = PrototypeSet({c: pooled[c][1] for c in kept if pooled[c][1] is not None})
    return y_prime, agreement, kept, context


def ps_refine(
    features: np.ndarray,
    raw: np.ndarray,
    base_labels: np.ndarray,
    support: PrototypeSet,
    cfg: SelectionConfig,
    schema: ClassSchema,
) -> np.ndarray:
    """Selection pipeline: predicted prototypes -> class filter -> merge."""
    return select_and_merge(features, raw, base_labels, support, cfg, schema)[0]
