"""Pseudo-label selection: keep a novel class's raw predictions only when
its predicted prototype agrees with the support prototype, then merge the
survivors into the background of the base label map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigError, ContractError
from .prototypes import PrototypeSet, cosine, novel_prototypes
from .scene import ClassSchema


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
    base_labels = np.asarray(base_labels, dtype=np.int64)
    filtered = np.asarray(filtered, dtype=np.int64)
    if base_labels.shape != filtered.shape:
        raise AlignmentError(
            f"length mismatch: base {base_labels.shape} vs filtered {filtered.shape}"
        )
    if ((base_labels >= schema.n_base) | (base_labels < -1)).any():
        raise ContractError("base labels must contain only base indices and -1")
    bad = (filtered >= 0) & (filtered < schema.n_base)
    if bad.any():
        raise ContractError(
            f"filtered labels contain base index {int(filtered[bad][0])}; "
            f"expected only novel indices and -1"
        )
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
    class. Raises ContractError when raw or base labels are not one integer
    in [-1, n_classes) per feature row.
    """
    features = np.asarray(features)
    width = next((v.shape[0] for v in support.vectors.values()), None)
    if width is not None and (features.ndim != 2 or features.shape[1] != width):
        raise ContractError(
            f"feature matrix of shape {features.shape} does not match the "
            f"support prototype width {width}"
        )
    raw = _label_vector("raw", raw, features.shape[:1], schema)
    base_labels = _label_vector("base", base_labels, features.shape[:1], schema)
    agreement = prototype_agreement(novel_prototypes(features, raw, schema), support)
    filtered = np.where(raw < schema.n_base, -1, raw)
    for c, sim in agreement.items():
        if sim < cfg.tau:
            filtered[raw == c] = -1
    return merge_into_background(base_labels, filtered, schema), agreement


def _label_vector(
    name: str, labels: np.ndarray, shape: tuple[int, ...], schema: ClassSchema
) -> np.ndarray:
    """Labels as int64, checked before the cast: a float array may carry only
    whole values, so nothing is truncated into range."""
    labels = np.asarray(labels)
    if labels.shape != shape:
        raise AlignmentError(
            f"{name} labels of shape {labels.shape} do not match the feature rows {shape}"
        )
    if labels.dtype.kind not in "biuf":
        raise ContractError(f"{name} labels must be integers, got dtype {labels.dtype}")
    bad = (labels < -1) | (labels >= schema.n_classes)
    if labels.dtype.kind == "f":
        bad |= labels != np.floor(labels)  # NaN compares unequal, so it is caught too
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractError(
            f"{name} label {labels[i].item()!r} at point {i} is not an integer "
            f"in [-1, {schema.n_classes})"
        )
    return labels.astype(np.int64, copy=False)


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
