import numpy as np
import pytest

from pcrefine import (
    InfillConfig,
    PrototypeSet,
    adaptive_set,
    context_prototypes,
    cosine,
    infill,
    masked_pool,
)
from pcrefine.errors import ConfigError
from pcrefine.infill import INFILL_BLOCK_ROWS, _nearest_prototype, pairwise_cosine


def unit(d, axis):
    v = np.zeros(d)
    v[axis] = 1.0
    return v


class TestContextPrototypes:
    def test_no_novel_labels(self, schema):
        assert len(context_prototypes(np.ones((3, 2)), np.array([0, -1, 1]), schema)) == 0

    def test_single_class_equals_pool(self, schema):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(10, 4))
        y = np.array([4] * 4 + [-1] * 6)
        protos = context_prototypes(feats, y, schema)
        np.testing.assert_allclose(protos[4], masked_pool(feats, y == 4), atol=1e-12)

    def test_multi_class_oracle(self, schema):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(300, 5))
        y = rng.integers(-1, schema.n_classes, size=300)
        protos = context_prototypes(feats, y, schema)
        for c in schema.novel_indices:
            if (y == c).any():
                np.testing.assert_allclose(protos[c], masked_pool(feats, y == c), atol=1e-12)
            else:
                assert c not in protos


class TestAdaptiveSet:
    def test_empty_context_gives_support(self, schema):
        support = PrototypeSet({c: unit(4, 0) for c in schema.novel_indices})
        out = adaptive_set(PrototypeSet({}), support, schema)
        assert out.classes() == list(schema.novel_indices)
        for c in schema.novel_indices:
            np.testing.assert_array_equal(out[c], support[c])

    def test_full_context_wins(self, schema):
        support = PrototypeSet({c: unit(4, 0) for c in schema.novel_indices})
        context = PrototypeSet({c: unit(4, 1) for c in schema.novel_indices})
        out = adaptive_set(context, support, schema)
        for c in schema.novel_indices:
            np.testing.assert_array_equal(out[c], context[c])

    def test_mixed_presence_oracle(self, schema):
        rng = np.random.default_rng(2)
        support = PrototypeSet({c: rng.normal(size=4) for c in schema.novel_indices})
        context = PrototypeSet({c: rng.normal(size=4)
                                for c in schema.novel_indices if c % 2 == 0})
        out = adaptive_set(context, support, schema)
        assert len(out) == schema.n_novel
        for c in schema.novel_indices:
            expected = context[c] if c in context else support[c]
            np.testing.assert_array_equal(out[c], expected)

    def test_missing_support_class(self, schema):
        with pytest.raises(ConfigError, match="missing"):
            adaptive_set(PrototypeSet({}), PrototypeSet({3: unit(4, 0)}), schema)


class TestInfill:
    def full_adaptive(self, schema, d=6, seed=0):
        rng = np.random.default_rng(seed)
        return PrototypeSet({c: rng.normal(size=d) for c in schema.novel_indices})

    def test_nothing_to_infill(self, schema):
        y = np.array([0, 1, 4])
        out = infill(y, np.ones((3, 6)), self.full_adaptive(schema), InfillConfig())
        np.testing.assert_array_equal(out, y)

    def test_exact_match_labeled(self, schema):
        d = 6
        adaptive = PrototypeSet({c: unit(d, c - schema.n_base)
                                 for c in schema.novel_indices})
        feats = np.stack([unit(d, 2)])  # equals prototype of class n_base + 2
        out = infill(np.array([-1]), feats, adaptive, InfillConfig(0.9))
        assert out[0] == schema.n_base + 2

    def test_matches_brute_force_loop(self, schema):
        rng = np.random.default_rng(5)
        n, d = 500, 8
        feats = rng.normal(size=(n, d))
        y = np.where(rng.random(n) < 0.6, -1,
                     rng.integers(0, schema.n_classes, size=n))
        adaptive = self.full_adaptive(schema, d=d, seed=6)
        cfg = InfillConfig(0.3)
        out = infill(y, feats, adaptive, cfg)
        # Oracle: per-point argmax with threshold, smallest class on ties.
        for i in range(n):
            if y[i] != -1:
                assert out[i] == y[i]
                continue
            best_c, best_s = -1, -np.inf
            for c in sorted(adaptive.classes()):
                s = cosine(feats[i], adaptive[c])
                if s > best_s:
                    best_c, best_s = c, s
            expected = best_c if best_s >= cfg.delta else -1
            assert out[i] == expected

    def test_monotone_label_growth(self, schema):
        rng = np.random.default_rng(7)
        n, d = 300, 6
        feats = rng.normal(size=(n, d))
        y = np.where(rng.random(n) < 0.5, -1, rng.integers(0, schema.n_classes, size=n))
        out = infill(y, feats, self.full_adaptive(schema, d=d), InfillConfig(0.5))
        labeled_before = y != -1
        assert (out[labeled_before] == y[labeled_before]).all()
        assert (out != -1).sum() >= labeled_before.sum()

    def test_threshold_soundness(self, schema):
        rng = np.random.default_rng(8)
        n, d = 400, 6
        feats = rng.normal(size=(n, d))
        y = np.full(n, -1)
        adaptive = self.full_adaptive(schema, d=d, seed=9)
        delta = 0.4
        out = infill(y, feats, adaptive, InfillConfig(delta))
        for i in np.flatnonzero(out != -1):
            sims = [cosine(feats[i], adaptive[c]) for c in adaptive.classes()]
            assert max(sims) >= delta

    def test_delta_monotonicity(self, schema):
        rng = np.random.default_rng(10)
        n, d = 300, 6
        feats = rng.normal(size=(n, d))
        y = np.full(n, -1)
        adaptive = self.full_adaptive(schema, d=d, seed=11)
        previous = None
        for delta in (0.2, 0.4, 0.6, 0.8):
            out = infill(y, feats, adaptive, InfillConfig(delta))
            newly = set(np.flatnonzero(out != -1))
            if previous is not None:
                assert newly <= previous
            previous = newly

    def test_tie_breaks_to_smallest_class(self, schema):
        d = 4
        v = unit(d, 0)
        adaptive = PrototypeSet({c: v for c in schema.novel_indices})
        out = infill(np.array([-1]), np.stack([v]), adaptive, InfillConfig(0.9))
        assert out[0] == schema.n_base  # smallest novel index

    def test_context_prototype_precedence(self, schema):
        # Build v_c orthogonal to p_c: infilling must follow v_c.
        d = 6
        c = schema.n_base
        support = PrototypeSet({cc: unit(d, 1) for cc in schema.novel_indices})
        feats = np.stack([
            unit(d, 0),   # labeled c -> context prototype = e0
            unit(d, 0),   # unlabeled, matches context prototype
            unit(d, 1),   # unlabeled, matches support prototype only
        ])
        y = np.array([c, -1, -1])
        context = context_prototypes(feats, y, schema)
        adaptive = adaptive_set(context, support, schema)
        np.testing.assert_array_equal(adaptive[c], unit(d, 0))
        out = infill(y, feats, adaptive, InfillConfig(0.9))
        assert out[1] == c
        # Point 2 aligns with e1 = support prototypes of the other classes,
        # whose smallest index is c + 1.
        assert out[2] == c + 1

    def test_delta_range(self):
        with pytest.raises(ConfigError):
            InfillConfig(-1.5)


def unblocked_infill(y, feats, adaptive, delta):
    """Reference: one pairwise_cosine over every unlabeled row at once."""
    ids, protos = adaptive.matrix()
    unlabeled = y == -1
    sims = pairwise_cosine(np.asarray(feats[unlabeled], dtype=np.float64), protos)
    best = np.argmax(sims, axis=1)
    best_sim = sims[np.arange(sims.shape[0]), best]
    out = y.copy()
    out[unlabeled] = np.where(best_sim >= delta, ids[best], -1)
    return out, best, best_sim


class TestBlockedInfill:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_unlabeled", [
        1, INFILL_BLOCK_ROWS - 1, INFILL_BLOCK_ROWS + 1, 2 * INFILL_BLOCK_ROWS + 1,
        4 * INFILL_BLOCK_ROWS + 123,  # more than three blocks
    ])
    def test_bitwise_equal_to_unblocked(self, schema, n_unlabeled, dtype):
        rng = np.random.default_rng(n_unlabeled)
        n_labeled, d = 500, 32
        y = np.concatenate([np.full(n_unlabeled, -1),
                            rng.integers(0, schema.n_classes, size=n_labeled)])
        y = y[rng.permutation(y.size)]
        feats = rng.normal(size=(y.size, d)).astype(dtype)
        feats[np.flatnonzero(y == -1)[0]] = 0  # a zero row scores -1 everywhere
        adaptive = PrototypeSet({c: rng.normal(size=d) for c in schema.novel_indices})
        best, best_sim = _nearest_prototype(feats, np.flatnonzero(y == -1), adaptive.matrix()[1])
        outcomes = set()
        for delta in (-1.0, 0.0, 0.05):
            expected, expected_best, expected_sim = unblocked_infill(y, feats, adaptive, delta)
            assert best.tobytes() == expected_best.tobytes()
            assert best_sim.tobytes() == expected_sim.tobytes()
            out = infill(y, feats, adaptive, InfillConfig(delta))
            assert out.tobytes() == expected.tobytes()
            outcomes.update(np.unique(out[y == -1] == -1))
        assert outcomes == {True, False}  # some rows infilled, some left unlabeled
