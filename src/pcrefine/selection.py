"""Pseudo-label selection: keep a novel class's raw predictions only when
its predicted prototype agrees with the support prototype, then merge the
survivors into the background of the base label map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .prototypes import PrototypeSet, cosine, novel_prototypes
from .scene import ClassSchema, checked_labels


@dataclass(frozen=True)
class SelectionConfig:
    tau: float = 0.6

    def __post_init__(self):
        if not -1.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must be in [-1, 1], got {self.tau}")


def prototype_agreement(
    predicted: PrototypeSet, support: PrototypeSet
) -> dict[int, float]:
    """Cosine between predicted and support prototype, per predicted class."""
    agreement = {}
    for c in predicted.classes():
        if c not in support:
            raise ConfigError(
                f"novel class {c} predicted but absent from the support prototypes; "
                f"the class list used for prediction does not match the support set"
            )
        agreement[c] = cosine(predicted[c], support[c])
    return agreement


def merge_into_background(
    base_labels: np.ndarray, filtered: np.ndarray, schema: ClassSchema
) -> np.ndarray:
    """Fill the background (-1) of base labels with filtered novel labels.

    Ground-truth base labels are never overwritten. The filtered vector may
    only carry novel indices and -1; a base index there means selection was
    skipped or mis-ordered.
    """
    filtered = checked_labels("filtered", filtered, hi=schema.n_classes)
    base_labels = checked_labels("base", base_labels, filtered.shape[0], schema.n_base)
    bad = (filtered >= 0) & (filtered < schema.n_base)
    if bad.any():
        raise ContractError(
            f"filtered labels contain base index {int(filtered[bad][0])}; "
            f"expected only novel indices and -1"
        )
    return _fill_background(base_labels, filtered)


def _fill_background(base_labels: np.ndarray, filtered: np.ndarray) -> np.ndarray:
    """merge_into_background on labels that already meet its contract."""
    return np.where(base_labels != -1, base_labels, filtered)


def select_and_merge(
    features: np.ndarray,
    raw: np.ndarray,
    base_labels: np.ndarray,
    support: PrototypeSet,
    cfg: SelectionConfig,
    schema: ClassSchema,
) -> tuple[np.ndarray, dict[int, float]]:
    """ps_refine plus the per-class agreement behind each keep/drop decision.

    Base-class predictions are always cleared to -1. A novel class keeps all
    of its points iff cosine(predicted, support) >= tau, one decision per
    class. Raises ContractError unless raw labels are one integer in
    [-1, n_classes) per feature row, and base labels one in [-1, n_base).
    """
    features = np.asarray(features)
    width = next((v.shape[0] for v in support.vectors.values()), None)
    if width is not None and (features.ndim != 2 or features.shape[1] != width):
        raise ContractError(
            f"feature matrix of shape {features.shape} does not match the "
            f"support prototype width {width}"
        )
    raw = checked_labels("raw", raw, features.shape[0], schema.n_classes)
    base_labels = checked_labels("base", base_labels, features.shape[0], schema.n_base)
    agreement = prototype_agreement(novel_prototypes(features, raw, schema), support)
    filtered = np.where(raw < schema.n_base, -1, raw)
    for c, sim in agreement.items():
        if sim < cfg.tau:
            filtered[raw == c] = -1
    # filtered holds only -1 and novel indices of the checked raw labels, and
    # base was checked above, so the merge needs no second check.
    return _fill_background(base_labels, filtered), agreement


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
