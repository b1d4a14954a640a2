import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcrefine import (
    ClassSchema,
    ConfusionMatrix,
    accumulate,
    harmonic_mean,
    iou_per_class,
    pseudo_label_quality,
    summary,
)
from pcrefine.errors import AlignmentError, ContractError


class TestAccumulate:
    def test_tiny_example(self):
        conf = ConfusionMatrix(2)
        accumulate(conf, pred=np.array([0, 0, 1, -1]), gt=np.array([0, 1, 1, 0]))
        expected = np.array([
            [1, 0, 1],  # gt 0: one hit, one unlabeled prediction
            [1, 1, 0],  # gt 1: one confused with 0, one hit
        ])
        np.testing.assert_array_equal(conf.counts, expected)

    def test_counts_of_wrong_shape_rejected(self):
        with pytest.raises(ContractError, match=re.escape("counts shape (2, 2) != (2, 3)")):
            ConfusionMatrix(2, np.zeros((2, 2)))

    def test_background_gt_excluded(self):
        conf = ConfusionMatrix(2)
        accumulate(conf, pred=np.array([0, 1]), gt=np.array([-1, -1]))
        assert conf.total == 0

    def test_total_matches_valid_points(self):
        rng = np.random.default_rng(0)
        n_classes = 5
        gt = rng.integers(-1, n_classes, size=1000)
        pred = rng.integers(-1, n_classes, size=1000)
        conf = accumulate(ConfusionMatrix(n_classes), pred, gt)
        assert conf.total == int((gt != -1).sum())

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(1)
        n_classes = 4
        gt = rng.integers(-1, n_classes, size=500)
        pred = rng.integers(-1, n_classes, size=500)
        conf = accumulate(ConfusionMatrix(n_classes), pred, gt)
        manual = np.zeros((n_classes, n_classes + 1), dtype=int)
        for p, g in zip(pred, gt):
            if g == -1:
                continue
            manual[g, n_classes if p == -1 else p] += 1
        np.testing.assert_array_equal(conf.counts, manual)

    def test_accumulation_is_additive(self):
        rng = np.random.default_rng(2)
        gt = rng.integers(0, 3, size=200)
        pred = rng.integers(-1, 3, size=200)
        whole = accumulate(ConfusionMatrix(3), pred, gt)
        parts = ConfusionMatrix(3)
        accumulate(parts, pred[:90], gt[:90])
        accumulate(parts, pred[90:], gt[90:])
        np.testing.assert_array_equal(whole.counts, parts.counts)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            accumulate(ConfusionMatrix(2), np.array([2]), np.array([0]))
        with pytest.raises(ContractError):
            accumulate(ConfusionMatrix(2), np.array([0]), np.array([-2]))

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            accumulate(ConfusionMatrix(2), np.array([0, 1]), np.array([0]))


class TestIoU:
    def test_hand_example(self):
        counts = np.array([
            [6, 2, 2],   # class 0: TP 6, FN 2 + 2 (incl. unlabeled), FP from row 1
            [3, 7, 0],
        ])
        ious = iou_per_class(ConfusionMatrix(2, counts))
        assert ious[0] == pytest.approx(6 / (6 + 3 + 4))
        assert ious[1] == pytest.approx(7 / (7 + 2 + 3))

    def test_perfect_prediction(self):
        counts = np.diag([5, 9]).astype(int)
        counts = np.column_stack([counts, [0, 0]])
        ious = iou_per_class(ConfusionMatrix(2, counts))
        assert ious == {0: 1.0, 1: 1.0}

    def test_unlabeled_column_is_a_miss(self):
        counts = np.array([[5, 0, 5], [0, 1, 0]])
        ious = iou_per_class(ConfusionMatrix(2, counts))
        assert ious[0] == pytest.approx(0.5)

    def test_absent_class_omitted(self):
        counts = np.array([[4, 0, 0], [0, 0, 0]])
        ious = iou_per_class(ConfusionMatrix(2, counts))
        assert 1 not in ious

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(3)
        n_classes = 6
        gt = rng.integers(0, n_classes, size=2000)
        pred = rng.integers(-1, n_classes, size=2000)
        conf = accumulate(ConfusionMatrix(n_classes), pred, gt)
        ious = iou_per_class(conf)
        for c in range(n_classes):
            inter = int(((gt == c) & (pred == c)).sum())
            union = int(((gt == c) | (pred == c)).sum())
            if union:
                assert ious[c] == pytest.approx(inter / union)


class TestHarmonicMean:
    def test_known_values(self):
        assert harmonic_mean(0.6757, 0.3167) == pytest.approx(0.4312, abs=1e-4)
        assert harmonic_mean(0.6848, 0.2918) == pytest.approx(0.4092, abs=1e-4)

    def test_zero_degenerate(self):
        assert harmonic_mean(0.0, 0.5) == 0.0
        assert harmonic_mean(0.5, 0.0) == 0.0

    def test_symmetric_and_bounded(self):
        assert harmonic_mean(0.2, 0.8) == harmonic_mean(0.8, 0.2)
        assert harmonic_mean(0.2, 0.8) <= 0.5  # never exceeds the arithmetic mean

    @given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_between_min_and_max(self, a, b):
        h = harmonic_mean(a, b)
        assert min(a, b) - 1e-12 <= h <= max(a, b) + 1e-12


class TestSummary:
    def test_weighted_mean_identity(self):
        # mIoU-A must equal the class-count-weighted combination of B and N
        # when every class is evaluated.
        schema = ClassSchema(("b0", "b1"), ("n0",))
        counts = np.zeros((3, 4), dtype=int)
        counts[0, 0] = 10
        counts[1, 1] = 5
        counts[1, 3] = 5   # class 1 IoU = 0.5
        counts[2, 2] = 2
        counts[2, 3] = 6   # class 2 IoU = 0.25, misses stay unlabeled
        s = summary(ConfusionMatrix(3, counts), schema)
        assert s.miou_base == pytest.approx(0.75)
        assert s.miou_novel == pytest.approx(0.25)
        assert s.miou_all == pytest.approx((2 * 0.75 + 1 * 0.25) / 3)
        assert s.harmonic_mean == pytest.approx(harmonic_mean(0.75, 0.25))
        assert s.excluded_classes == ()

    def test_excluded_classes_reported(self):
        schema = ClassSchema(("b0",), ("n0", "n1"))
        counts = np.zeros((3, 4), dtype=int)
        counts[0, 0] = 1
        s = summary(ConfusionMatrix(3, counts), schema)
        assert s.excluded_classes == (1, 2)
        assert s.miou_novel == 0.0
        assert s.harmonic_mean == 0.0

    def test_schema_size_mismatch(self, schema):
        with pytest.raises(ContractError):
            summary(ConfusionMatrix(3), schema)

    def test_table_scales_by_100(self):
        schema = ClassSchema(("b0",), ("n0",))
        counts = np.zeros((2, 3), dtype=int)
        counts[0, 0] = 1
        counts[1, 1] = 1
        table = summary(ConfusionMatrix(2, counts), schema).table()
        assert "100.00" in table


class TestPseudoLabelQuality:
    def test_hand_example(self, schema):
        c = schema.n_base
        pseudo = np.array([c, c, c, -1, -1])
        gt = np.array([c, c, 0, c, -1])
        report = pseudo_label_quality(pseudo, gt, schema)
        assert report.precision[c] == pytest.approx(2 / 3)
        assert report.recall[c] == pytest.approx(2 / 3)

    def test_absent_entries(self, schema):
        c = schema.n_base
        report = pseudo_label_quality(np.array([-1, -1]), np.array([c, c]), schema)
        assert c not in report.precision
        assert report.recall[c] == 0.0
        assert report.mean_precision() is None

    def test_means(self, schema):
        c0, c1 = schema.n_base, schema.n_base + 1
        pseudo = np.array([c0, c0, c1, c1])
        gt = np.array([c0, -1, c1, c1])
        report = pseudo_label_quality(pseudo, gt, schema)
        assert report.mean_precision() == pytest.approx((0.5 + 1.0) / 2)
        assert report.mean_recall() == pytest.approx(1.0)

    def test_length_mismatch(self, schema):
        with pytest.raises(AlignmentError):
            pseudo_label_quality(np.array([0]), np.array([0, 1]), schema)


# The bodies of accumulate and pseudo_label_quality before both read one
# (gt, pred) pair count, kept as references the count must reproduce exactly.
def reference_accumulate(conf, pred, gt):
    n = conf.n_classes
    keep = gt != -1
    g = gt[keep]
    p = pred[keep]
    p = np.where(p == -1, n, p)
    flat = np.bincount(g * (n + 1) + p, minlength=n * (n + 1))
    conf.counts += flat.reshape(n, n + 1)
    return conf


def reference_quality(pseudo, gt, schema):
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
    return precision, recall


def hexed(values: dict) -> dict:
    return {c: v.hex() for c, v in values.items()}


@st.composite
def labelled_pairs(draw):
    """A schema and (gt, pred) vectors of 0-500 labels in [-1, n), each drawn
    from a random subset of the labels, so a class can be absent from one side
    and a prediction can land on a gt -1 point."""
    n_base, n_novel = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    n = n_base + n_novel
    schema = ClassSchema(tuple(f"b{i}" for i in range(n_base)),
                         tuple(f"n{i}" for i in range(n_novel)))
    size = draw(st.integers(0, 500))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    gt_pool, pred_pool = (draw(st.lists(st.integers(-1, n - 1), min_size=1, max_size=n + 1))
                          for _ in range(2))
    return schema, rng.choice(gt_pool, size), rng.choice(pred_pool, size)


class TestOnePairCount:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(case=labelled_pairs())
    def test_equals_the_per_class_mask_bodies(self, case):
        schema, gt, pred = case
        n = schema.n_classes
        conf = accumulate(ConfusionMatrix(n), pred, gt)
        np.testing.assert_array_equal(
            conf.counts, reference_accumulate(ConfusionMatrix(n), pred, gt).counts)
        report = pseudo_label_quality(pred, gt, schema)
        precision, recall = reference_quality(pred, gt, schema)
        assert list(report.precision) == list(precision)
        assert list(report.recall) == list(recall)
        assert hexed(report.precision) == hexed(precision)
        assert hexed(report.recall) == hexed(recall)
