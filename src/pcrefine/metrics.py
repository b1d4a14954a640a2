"""Segmentation evaluation: confusion accumulation, per-class IoU,
base/novel/all mIoU with the harmonic mean, and pseudo-label quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .scene import ClassSchema, checked_labels


@dataclass
class ConfusionMatrix:
    """Rows are ground truth, columns are predictions.

    Points with ground truth -1 are excluded. A -1 prediction lands in a
    distinguished trailing "unlabeled" column: it counts toward the true
    class's denominator (a miss) but never toward an intersection.
    """

    n_classes: int
    counts: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros((self.n_classes, self.n_classes + 1), dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (self.n_classes, self.n_classes + 1):
                raise ContractError(
                    f"counts shape {self.counts.shape} != "
                    f"({self.n_classes}, {self.n_classes + 1})"
                )

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _label_pairs(name: str, pred: np.ndarray, gt: np.ndarray, n: int) -> np.ndarray:
    """The (n+1, n+1) int64 count of (gt, pred) label pairs, gt by rows, after
    checking both label vectors once; row and column 0 count label -1."""
    gt = checked_labels("gt", gt, hi=n)
    pred = checked_labels(name, pred, gt.shape[0], n)
    flat = np.bincount((gt + 1) * (n + 1) + pred + 1, minlength=(n + 1) ** 2)
    return flat.reshape(n + 1, n + 1)


def accumulate(
    conf: ConfusionMatrix, pred: np.ndarray, gt: np.ndarray
) -> ConfusionMatrix:
    """Add one scene's (pred, gt) pair to the confusion matrix in place."""
    pairs = _label_pairs("pred", pred, gt, conf.n_classes)
    # Row 0 (gt -1) is dropped; column 0 (pred -1) moves to the unlabeled column.
    conf.counts += np.roll(pairs[1:], -1, axis=1)
    return conf


def iou_per_class(conf: ConfusionMatrix) -> dict[int, float]:
    """IoU = TP / (TP + FP + FN) per class; zero-denominator classes are
    omitted (they never appeared in ground truth or predictions)."""
    counts = conf.counts
    n = conf.n_classes
    tp = np.diag(counts[:, :n]).astype(np.float64)
    fn = counts.sum(axis=1) - tp  # includes the unlabeled column
    fp = counts[:, :n].sum(axis=0) - tp
    denom = tp + fp + fn
    return {c: float(tp[c] / denom[c]) for c in range(n) if denom[c] > 0}


@dataclass(frozen=True)
class MetricSummary:
    miou_base: float
    miou_novel: float
    miou_all: float
    harmonic_mean: float
    excluded_classes: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "miou_base": self.miou_base,
            "miou_novel": self.miou_novel,
            "miou_all": self.miou_all,
            "harmonic_mean": self.harmonic_mean,
            "excluded_classes": list(self.excluded_classes),
        }

    def table(self) -> str:
        header = f"{'mIoU-B':>8}  {'mIoU-N':>8}  {'mIoU-A':>8}  {'HM':>8}"
        row = (
            f"{100 * self.miou_base:>8.2f}  {100 * self.miou_novel:>8.2f}  "
            f"{100 * self.miou_all:>8.2f}  {100 * self.harmonic_mean:>8.2f}"
        )
        return header + "\n" + row


def harmonic_mean(a: float, b: float) -> float:
    if a <= 0 or b <= 0:
        return 0.0
    return 2.0 * a * b / (a + b)


def summary(conf: ConfusionMatrix, schema: ClassSchema) -> MetricSummary:
    """mIoU over base, novel, and all evaluated classes, plus the harmonic
    mean of the base and novel means."""
    if conf.n_classes != schema.n_classes:
        raise ContractError(
            f"confusion matrix has {conf.n_classes} classes, schema {schema.n_classes}"
        )
    ious = iou_per_class(conf)
    base = [v for c, v in ious.items() if schema.is_base(c)]
    novel = [v for c, v in ious.items() if schema.is_novel(c)]
    miou_b = float(np.mean(base)) if base else 0.0
    miou_n = float(np.mean(novel)) if novel else 0.0
    miou_a = float(np.mean(list(ious.values()))) if ious else 0.0
    excluded = tuple(c for c in range(schema.n_classes) if c not in ious)
    return MetricSummary(miou_b, miou_n, miou_a, harmonic_mean(miou_b, miou_n), excluded)


@dataclass(frozen=True)
class QualityReport:
    """Per-novel-class pseudo-label precision and recall.

    A class with no predicted points has no precision entry; a class with no
    ground-truth points has no recall entry.
    """

    precision: dict[int, float]
    recall: dict[int, float]

    def mean_precision(self) -> float | None:
        return float(np.mean(list(self.precision.values()))) if self.precision else None

    def mean_recall(self) -> float | None:
        return float(np.mean(list(self.recall.values()))) if self.recall else None


def pseudo_label_quality(
    pseudo: np.ndarray, gt: np.ndarray, schema: ClassSchema
) -> QualityReport:
    """Precision/recall of pseudo-labels against ground truth, per novel class.
    A pseudo-label on a ground-truth -1 point counts against precision."""
    pairs = _label_pairs("pseudo", pseudo, gt, schema.n_classes)
    # Class c is row and column c + 1; a column sum includes the gt -1 row.
    tp, predicted, actual = np.diag(pairs)[1:], pairs.sum(axis=0)[1:], pairs.sum(axis=1)[1:]
    novel = schema.novel_indices
    precision = {c: int(tp[c]) / int(predicted[c]) for c in novel if predicted[c]}
    recall = {c: int(tp[c]) / int(actual[c]) for c in novel if actual[c]}
    return QualityReport(precision, recall)
