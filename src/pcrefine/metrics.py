"""Segmentation evaluation: confusion accumulation, per-class IoU,
base/novel/all mIoU with the harmonic mean, and pseudo-label quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .scene import ClassSchema, checked_labels

UNLABELED = -1


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


def accumulate(
    conf: ConfusionMatrix, pred: np.ndarray, gt: np.ndarray
) -> ConfusionMatrix:
    """Add one scene's (pred, gt) pair to the confusion matrix in place."""
    n = conf.n_classes
    gt = checked_labels("gt", gt, hi=n)
    pred = checked_labels("pred", pred, gt.shape[0], n)
    keep = gt != UNLABELED
    g = gt[keep]
    p = pred[keep]
    p = np.where(p == UNLABELED, n, p)  # trailing unlabeled column
    flat = np.bincount(g * (n + 1) + p, minlength=n * (n + 1))
    conf.counts += flat.reshape(n, n + 1)
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
    """Precision/recall of pseudo-labels against ground truth, per novel class."""
    gt = checked_labels("gt", gt, hi=schema.n_classes)
    pseudo = checked_labels("pseudo", pseudo, gt.shape[0], schema.n_classes)
    precision = {}
    recall = {}
    for c in schema.novel_indices:
        pred_c = pseudo == c
        gt_c = gt == c
        tp = int((pred_c & gt_c).sum())
        if pred_c.any():
            precision[c] = tp / int(pred_c.sum())
        if gt_c.any():
            recall[c] = tp / int(gt_c.sum())
    return QualityReport(precision, recall)
