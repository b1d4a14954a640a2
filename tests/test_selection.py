import re

import numpy as np
import pytest

from pcrefine import (
    ClassSchema,
    PrototypeSet,
    SelectionConfig,
    context_prototypes,
    cosine,
    masked_pool,
    ps_refine,
    refine_labels,
)
from pcrefine.errors import ConfigError, ContractError
import pcrefine.selection as selection
from pcrefine.selection import select_and_merge


def unit(d, axis):
    v = np.zeros(d)
    v[axis] = 1.0
    return v


def select(raw, predicted, support, tau, schema, d):
    """Selection alone through select_and_merge: base labels all -1, and each
    point labeled c carries predicted[c] as its feature row. The vectors hold
    small multiples of 1/4, so the pooled mean is exactly predicted[c]."""
    raw = np.asarray(raw)
    feats = np.zeros((raw.shape[0], d))
    for c, v in predicted.items():
        feats[raw == c] = v
    out, agreement, kept = select_and_merge(
        feats, raw, np.full(raw.shape[0], -1), PrototypeSet(support),
        SelectionConfig(tau), schema,
    )
    assert agreement == {c: cosine(v, support[c]) for c, v in predicted.items()}
    assert kept == sorted(c for c, s in agreement.items() if s >= tau)
    return out


def quarter_vector(rng, d):
    return rng.integers(-8, 9, size=d) / 4.0


class TestPredictedPrototypes:
    def test_singleton_mask(self, schema):
        feats = np.zeros((3, 4))
        feats[1] = [1.0, 2.0, 3.0, 4.0]
        raw = np.array([-1, 5, 0])
        protos = context_prototypes(feats, raw, schema)
        assert protos.classes() == [5]
        np.testing.assert_array_equal(protos[5], [1.0, 2.0, 3.0, 4.0])

    def test_no_novel_labels(self, schema):
        feats = np.ones((4, 3))
        raw = np.array([0, 1, 2, -1])
        assert len(context_prototypes(feats, raw, schema)) == 0

    def test_matches_pool_oracle(self, schema):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(200, 6))
        raw = rng.integers(-1, schema.n_classes, size=200)
        protos = context_prototypes(feats, raw, schema)
        for c in schema.novel_indices:
            if (raw == c).any():
                np.testing.assert_allclose(
                    protos[c], masked_pool(feats, raw == c), atol=1e-12
                )
            else:
                assert c not in protos


class TestSelect:
    def test_base_predictions_cleared(self, schema):
        out = select([2, 0, 1], {}, {}, 0.6, schema, d=3)
        np.testing.assert_array_equal(out, [-1, -1, -1])

    def test_orthogonal_prototypes_filtered(self, schema):
        out = select([4, 4, -1], {4: unit(4, 0)}, {4: unit(4, 1)}, 0.6, schema, d=4)
        np.testing.assert_array_equal(out, [-1, -1, -1])

    def test_per_class_decision_against_point_oracle(self, schema):
        rng = np.random.default_rng(1)
        raw = rng.integers(-1, schema.n_classes, size=500)
        d = 6
        predicted, support = {}, {}
        for c in schema.novel_indices:
            if (raw == c).any():
                predicted[c] = quarter_vector(rng, d)
                support[c] = rng.normal(size=d)
        tau = 0.3
        out = select(raw, predicted, support, tau, schema, d)
        # The seed must exercise both decisions for the oracle to mean anything.
        keep = {c: cosine(predicted[c], support[c]) >= tau for c in predicted}
        assert any(keep.values()) and not all(keep.values())
        # Oracle: evaluate the filter point by point.
        for i in range(500):
            c = int(raw[i])
            if 0 <= c < schema.n_base:
                expected = -1
            elif c >= schema.n_base:
                expected = c if keep[c] else -1
            else:
                expected = -1
            assert out[i] == expected

    def test_missing_support_class_errors(self, schema):
        with pytest.raises(ConfigError, match="5"):
            select([5], {5: unit(3, 0)}, {}, 0.6, schema, d=3)

    def test_tau_range(self):
        with pytest.raises(ConfigError):
            SelectionConfig(1.0 + 1e-9)
        SelectionConfig(1.0)  # boundary allowed

    def test_monotone_in_tau(self, schema):
        rng = np.random.default_rng(2)
        raw = rng.integers(-1, schema.n_classes, size=300)
        d = 5
        predicted = {c: quarter_vector(rng, d) for c in schema.novel_indices
                     if (raw == c).any()}
        support = {c: rng.normal(size=d) for c in schema.novel_indices}
        previous = None
        for tau in (0.2, 0.4, 0.6, 0.8):
            out = select(raw, predicted, support, tau, schema, d)
            labeled = set(np.flatnonzero(out != -1))
            if previous is not None:
                assert labeled <= previous
            previous = labeled


class TestPsRefine:
    def test_raw_all_background(self, schema):
        feats = np.ones((4, 3))
        raw = np.full(4, -1)
        base = np.array([0, -1, 2, -1])
        support = PrototypeSet({c: unit(3, 0) for c in schema.novel_indices})
        out = ps_refine(feats, raw, base, support, SelectionConfig(), schema)
        np.testing.assert_array_equal(out, base)

    def test_kept_class_survives_into_background(self, schema):
        d = 4
        feats = np.stack([unit(d, 0), unit(d, 0), unit(d, 1)])
        raw = np.array([4, 4, -1])
        base = np.array([-1, 0, -1])
        support = PrototypeSet({c: unit(d, 0) for c in schema.novel_indices})
        out = ps_refine(feats, raw, base, support, SelectionConfig(0.6), schema)
        # Point 0: background in base, kept novel label. Point 1: base wins.
        np.testing.assert_array_equal(out, [4, 0, -1])

    def test_output_labels_satisfy_threshold(self, schema):
        rng = np.random.default_rng(4)
        n, d = 400, 8
        feats = rng.normal(size=(n, d))
        raw = rng.integers(-1, schema.n_classes, size=n)
        base = np.where(rng.random(n) < 0.5, rng.integers(0, schema.n_base, size=n), -1)
        support = PrototypeSet({c: rng.normal(size=d) for c in schema.novel_indices})
        tau = 0.1
        out = ps_refine(feats, raw, base, support, SelectionConfig(tau), schema)
        predicted = context_prototypes(feats, raw, schema)
        for i in np.flatnonzero(out != -1):
            c = int(out[i])
            if c >= schema.n_base:
                assert cosine(predicted[c], support[c]) >= tau
            else:
                assert base[i] == c


class TestKeepRuleOnce:
    """One keep decision per predicted class, on schema ("a", "b") /
    ("n0", "n1", "n2"), where raw classes 2, 3 and 4 are all predicted."""

    SCHEMA = ClassSchema(("a", "b"), ("n0", "n1", "n2"))

    @staticmethod
    def case(absent=None, nan_class=None):
        rng = np.random.default_rng(0)
        n, d = 60, 4
        feats = rng.normal(size=(n, d))
        raw = np.repeat([-1, 0, 2, 3, 4], 12)
        base = np.where(np.arange(n) % 3 == 0, 1, -1)
        # Classes 2 and 4 agree with their support prototypes; 3 opposes its own.
        support = {c: masked_pool(feats, raw == c) for c in (2, 4)}
        support[3] = -masked_pool(feats, raw == 3)
        support.pop(absent, None)
        if nan_class is not None:
            feats[np.flatnonzero(raw == nan_class)[0], 1] = np.nan
        return feats, raw, base, PrototypeSet(support)

    def refine(self, feats, raw, base, support):
        return refine_labels(feats, raw, base, support, self.SCHEMA, SelectionConfig(0.6))

    def test_one_cosine_per_predicted_class(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(a)
            return cosine(a, b)

        monkeypatch.setattr(selection, "cosine", counting)
        _, report = self.refine(*self.case())
        assert len(calls) == 3
        assert sorted(report.class_agreement) == [2, 3, 4]
        assert report.kept_classes == [2, 4] and report.filtered_classes == [3]

    def test_dropped_class_has_no_context_prototype(self):
        # Every class's candidate is pooled in the walk; only the kept
        # classes' become context prototypes.
        feats, raw, base, support = self.case()
        _, agreement, kept, context = selection._select_and_merge(
            feats, raw, base, support, SelectionConfig(0.6), self.SCHEMA)
        assert kept == [2, 4] and sorted(agreement) == [2, 3, 4]
        assert context.classes() == [2, 4]
        for c in kept:
            assert context[c].tobytes() == masked_pool(feats, (raw == c) & (base == -1)).tobytes()

    def test_absent_support_class(self):
        text = ("novel class 3 predicted but absent from the support prototypes; "
                "the class list used for prediction does not match the support set")
        with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
            self.refine(*self.case(absent=3))

    def test_non_finite_prototype(self):
        with pytest.raises(ContractError, match=r"^prototype for class 4 is not finite$"):
            self.refine(*self.case(nan_class=4))

    def test_non_finite_prototype_wins_over_an_absent_class(self):
        with pytest.raises(ContractError, match=r"^prototype for class 4 is not finite$"):
            self.refine(*self.case(absent=3, nan_class=4))
