import io
import re
import sys

import numpy as np
import pytest

from pcrefine import (
    ClassSchema,
    InfillConfig,
    MixConfig,
    NoiseSpec,
    PointCloudScene,
    SelectionConfig,
    SyntheticFeatureProvider,
    SyntheticProviderConfig,
    corrupt_predictions,
    gen_scene,
    make_support,
    mix,
    ps_refine,
    refine_labels,
    support_prototypes,
)
from pcrefine.benchmark import class_stats
from pcrefine.errors import AlignmentError, ContractError
from pcrefine.infill import (
    adaptive_set,
    context_prototypes,
    infill,
    pairwise_cosine,
)
from pcrefine.metrics import ConfusionMatrix, accumulate, pseudo_label_quality
import pcrefine.prototypes as prototypes
from pcrefine.prototypes import PrototypeSet, SupportSet, SupportShot, _pool_windows, cosine, masked_pool
from pcrefine.scene import checked_labels
from pcrefine.embeddings import load_embeddings, save_embeddings
import pcrefine.scene_io as scene_io
from pcrefine.scene_io import save_labels
from pcrefine.selection import _select_and_merge, select_and_merge
from pcrefine.sim import base_only_labels, random_scene_spec

SCHEMA = ClassSchema(
    tuple(f"base_{i:02d}" for i in range(3)),
    tuple(f"novel_{i:02d}" for i in range(5)),
)


class Float32Provider:
    """Serves another provider's features as stored embedding files hold
    them: rounded to float32."""

    def __init__(self, inner):
        self.inner = inner

    def embed_scene(self, scene):
        return self.inner.embed_scene(scene).astype(np.float32)


def noisy_case(seed, dim=16):
    provider = Float32Provider(SyntheticFeatureProvider(SCHEMA, SyntheticProviderConfig(
        dim=dim, anchor_seed=seed, noise_sigma=0.6, confusion_prob=0.1)))
    scene = gen_scene(random_scene_spec(SCHEMA, seed=seed, novel_prob=1.0))
    raw = corrupt_predictions(scene.labels, scene.positions,
                              NoiseSpec(0.2, 0.1, 0.3, seed=seed), SCHEMA)
    pool = [gen_scene(random_scene_spec(SCHEMA, seed=seed * 7919 + j, novel_prob=1.0))
            for j in range(3)]
    support = support_prototypes(make_support(pool, SCHEMA, k=2, seed=seed), provider)
    base = base_only_labels(scene.labels, SCHEMA)
    return provider.embed_scene(scene), raw, base, support


class TestStoredDtype:
    def test_float32_and_float64_features_refine_bitwise_equal(self):
        sel_cfg, inf_cfg = SelectionConfig(0.6), InfillConfig(0.8)
        kept = filtered = infilled = 0
        for seed in range(6):
            feats, raw, base, support = noisy_case(seed)
            assert feats.dtype == np.float32
            y32, r32 = refine_labels(feats, raw, base, support, SCHEMA, sel_cfg, inf_cfg)
            y64, r64 = refine_labels(feats.astype(np.float64), raw, base, support,
                                     SCHEMA, sel_cfg, inf_cfg)
            np.testing.assert_array_equal(y32, y64)
            assert r32.to_dict() == r64.to_dict()
            kept += len(r32.kept_classes)
            filtered += len(r32.filtered_classes)
            infilled += r32.infilled_points
        # The seeds exercise both selection outcomes and infilling.
        assert kept and filtered and infilled


class TestCoreMatchesPublicStages:
    def test_labels_and_report_against_the_public_stages(self):
        reached = {"kept": 0, "filtered": 0, "infilled": 0}
        for seed in range(3):
            feats, raw, base, support = noisy_case(seed)
            for tau, delta in [(0.3, 0.5), (0.6, 0.8), (0.9, 0.95), (0.99, -1.0)]:
                sel_cfg, inf_cfg = SelectionConfig(tau), InfillConfig(delta)
                y, report = refine_labels(feats, raw, base, support, SCHEMA, sel_cfg, inf_cfg)
                y_prime = ps_refine(feats, raw, base, support, sel_cfg, SCHEMA)
                adaptive = adaptive_set(
                    context_prototypes(feats, y_prime, SCHEMA), support, SCHEMA)
                y_final = infill(y_prime, feats, adaptive, inf_cfg)
                np.testing.assert_array_equal(y, y_final)
                assert y.dtype == y_final.dtype
                agreement = report.class_agreement
                expected = {
                    "kept_classes": [c for c, s in sorted(agreement.items()) if s >= tau],
                    "filtered_classes": [c for c, s in sorted(agreement.items()) if s < tau],
                    "selected_points": int(((y_prime != -1) & (base == -1)).sum()),
                    "infilled_points": int((y_final != y_prime).sum()),
                }
                assert {k: getattr(report, k) for k in expected} == expected
                reached["kept"] += len(report.kept_classes)
                reached["filtered"] += len(report.filtered_classes)
                reached["infilled"] += report.infilled_points
        # The grid exercises both selection outcomes and infilling.
        assert all(reached.values()), reached


def reference_refine(feats, raw, base, support, tau, delta):
    """The refine as it was before one windowed pass pooled it: masked_pool
    per class over the whole matrix, once for the predicted prototypes and
    again over y_prime for the context ones, then one infill over every
    unlabeled row."""
    novel = [c for c in np.unique(raw) if SCHEMA.is_novel(int(c))]
    predicted = {int(c): masked_pool(feats, raw == c) for c in novel}
    agreement = {c: cosine(v, support[c]) for c, v in predicted.items()}
    kept = [c for c, sim in sorted(agreement.items()) if sim >= tau]
    y_prime = np.where(base != -1, base, np.where(np.isin(raw, kept), raw, -1))
    context = {c: masked_pool(feats, y_prime == c) for c in kept if (y_prime == c).any()}
    adaptive = PrototypeSet({c: context.get(c, support[c]) for c in SCHEMA.novel_indices})
    ids, protos = adaptive.matrix()
    y = y_prime.copy()
    rows = np.flatnonzero(y_prime == -1)
    sims = pairwise_cosine(np.asarray(feats[rows], dtype=np.float64), protos)
    best = np.argmax(sims, axis=1)
    y[rows] = np.where(sims[np.arange(rows.size), best] >= delta, ids[best], -1)
    return y_prime, agreement, kept, predicted, context, y


class TestWindowedCore:
    """The public stages and the refine core, at windows of 64 rows and a
    stage of 100, against the whole-matrix reference: novel classes span
    several windows and stage groups, and some are larger than the stage."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_public_stages_and_core_against_the_reference(self, monkeypatch, dtype):
        monkeypatch.setattr(prototypes, "WINDOW_BYTES", 64 * 16 * np.dtype(dtype).itemsize)
        monkeypatch.setattr(prototypes, "STAGE_BYTES", 100 * 16 * np.dtype(dtype).itemsize)
        reached = {"kept": 0, "filtered": 0, "context": 0}
        for seed in range(3):
            feats, raw, base, support = noisy_case(seed)
            feats = feats.astype(dtype)
            for tau, delta in [(0.3, 0.5), (0.6, 0.8), (0.9, 0.95)]:
                y_prime, agreement, kept, predicted, context, y = reference_refine(
                    feats, raw, base, support, tau, delta)
                sel_cfg = SelectionConfig(tau)
                got = select_and_merge(feats, raw, base, support, sel_cfg, SCHEMA)
                assert len(got) == 3
                assert got[0].tobytes() == y_prime.tobytes()
                assert got[1] == agreement and got[2] == kept
                assert ps_refine(feats, raw, base, support, sel_cfg, SCHEMA).tobytes() == \
                    y_prime.tobytes()
                core = _select_and_merge(feats, raw, base, support, sel_cfg, SCHEMA)[3]
                public = context_prototypes(feats, y_prime, SCHEMA)
                assert core.classes() == public.classes() == sorted(context)
                for c in context:
                    assert core[c].tobytes() == public[c].tobytes() == context[c].tobytes()
                pooled = _pool_windows(feats, np.where(np.isin(raw, list(predicted)), raw, -1))
                assert {c: mean.tobytes() for c, (mean, _) in pooled.items()} == \
                    {c: v.tobytes() for c, v in predicted.items()}
                refined, report = refine_labels(feats, raw, base, support, SCHEMA, sel_cfg,
                                                InfillConfig(delta))
                assert refined.tobytes() == y.tobytes()
                assert report.class_agreement == agreement and report.kept_classes == kept
                reached["kept"] += len(kept)
                reached["filtered"] += len(agreement) - len(kept)
                reached["context"] += len(context)
        assert all(reached.values()), reached

    def test_column_slice_of_a_mapped_matrix(self, tmp_path, monkeypatch):
        # The slice's rows lie strides[0] bytes apart in the file, 4 x 256,
        # not 4 x 64: every window the refine walks is sized by that stride,
        # so it spans at most WINDOW_BYTES of the file (16 file rows here),
        # and the slice refines as its copy in memory does, byte for byte.
        feats, raw, base, support = noisy_case(0, dim=64)
        wide = np.zeros((feats.shape[0], 256), np.float32)
        wide[:, :64] = feats
        save_embeddings(wide, tmp_path / "f.gfve")
        sliced = load_embeddings(tmp_path / "f.gfve")[:, :64]
        monkeypatch.setattr(prototypes, "WINDOW_BYTES", 16 * 256 * 4)
        spans, drop = [], scene_io._drop_mapped_pages

        def recording(rec, start, stop):
            spans.append((stop - start) * rec.strides[0])
            drop(rec, start, stop)

        monkeypatch.setattr(scene_io, "_drop_mapped_pages", recording)
        y, report = refine_labels(sliced, raw, base, support, SCHEMA)
        assert len(spans) > 2 and max(spans) <= prototypes.WINDOW_BYTES
        y_copy, report_copy = refine_labels(np.array(sliced), raw, base, support, SCHEMA)
        assert y.tobytes() == y_copy.tobytes()
        assert report.to_dict() == report_copy.to_dict()


class TestChecksOnce:
    def test_each_label_vector_checked_once_per_refine(self, monkeypatch):
        checked = []

        def recording(name, *args, **kwargs):
            checked.append(name)
            return checked_labels(name, *args, **kwargs)

        feats, raw, base, support = noisy_case(0)  # its SupportSet checks support labels
        for module in ("pcrefine.selection", "pcrefine.infill", "pcrefine.prototypes"):
            monkeypatch.setattr(sys.modules[module], "checked_labels", recording)
        refine_labels(feats, raw, base, support, SCHEMA)
        assert checked == ["raw", "base"]


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_row_named_and_blas_threads_restored(self, value):
        feats, raw, base, support = noisy_case(0)
        i = int(np.flatnonzero((raw == -1) & (base == -1))[0])  # a row only infill reads
        feats[i, 3] = value
        with pytest.raises(ContractError, match=rf"feature row {i} is not finite"):
            refine_labels(feats, raw, base, support, SCHEMA)


class TestFeatureWidth:
    def test_width_mismatch_is_contract_error(self):
        feats, raw, base, _ = noisy_case(0, dim=16)
        _, _, _, support = noisy_case(0, dim=32)
        assert ((raw >= SCHEMA.n_base) & (raw < SCHEMA.n_classes)).any()
        for call in (
            lambda: refine_labels(feats, raw, base, support, SCHEMA),
            lambda: select_and_merge(feats, raw, base, support, SelectionConfig(), SCHEMA),
            lambda: infill(raw, feats, support, InfillConfig()),
        ):
            with pytest.raises(ContractError, match=r"shape \(\d+, 16\).*width 32"):
                call()
        with pytest.raises(ContractError, match=rf"^feature matrix of shape \({raw.size},\) "
                                                r"does not match the adaptive prototype width 32$"):
            infill(raw, feats[:, 0], support, InfillConfig())

    @pytest.mark.parametrize("shape", [(), (3,), (3, 4)], ids=["0-d", "1-D", "2-D"])
    def test_empty_prototype_set_still_requires_a_matrix(self, shape):
        # An empty set fixes no width, but the features must still be a matrix:
        # 0-d features raised a bare IndexError, and 1-D ones passed unchecked.
        features = np.ones(shape)
        labels = np.array([-1, 0, -1])  # no novel class, so no prototype is read
        empty = PrototypeSet({})
        for call in (
            lambda: infill(labels, features, empty, InfillConfig()),
            lambda: select_and_merge(features, labels, labels, empty, SelectionConfig(), SCHEMA)[0],
        ):
            if len(shape) == 2:
                assert call().tolist() == [-1, 0, -1]
            else:
                with pytest.raises(ContractError, match=rf"^feature matrix of shape "
                                                        rf"{re.escape(str(shape))} is not 2-D$"):
                    call()


# Each library function that takes label vectors: the labels of one valid
# call, the name the checker gives the corrupted argument (a regex), its
# upper bound, and the call with that argument replaced.
N_BASE, N = SCHEMA.n_base, SCHEMA.n_classes
GT = np.array([0, 1, N_BASE, N - 1, -1, N_BASE + 1])
FILTERED = np.array([-1, N_BASE, -1, N - 1, N_BASE + 1, -1])
INT64_MAX = np.iinfo(np.int64).max
CONTRACT_CALLS = {
    "infill": (
        FILTERED, "y_prime", INT64_MAX,
        lambda y: infill(y, np.eye(6), PrototypeSet({N_BASE: np.ones(6)}), InfillConfig())),
    "accumulate:pred": (GT, "pred", N, lambda y: accumulate(ConfusionMatrix(N), y, GT)),
    "accumulate:gt": (GT, "gt", N, lambda y: accumulate(ConfusionMatrix(N), GT, y)),
    "pseudo_label_quality:pseudo": (
        GT, "pseudo", N, lambda y: pseudo_label_quality(y, GT, SCHEMA)),
    "pseudo_label_quality:gt": (GT, "gt", N, lambda y: pseudo_label_quality(GT, y, SCHEMA)),
    "context_prototypes:y_prime": (
        FILTERED, "y_prime", N, lambda y: context_prototypes(np.eye(6), y, SCHEMA)),
    "corrupt_predictions:gt": (
        GT, "gt", N, lambda y: corrupt_predictions(y, np.zeros((6, 3)), NoiseSpec(), SCHEMA)),
    "base_only_labels:gt": (GT, "gt", N, lambda y: base_only_labels(y, SCHEMA)),
    "save_labels": (
        GT, r"<_io\.BytesIO object at 0x[0-9a-f]+>:", INT64_MAX,
        lambda y: save_labels(y, io.BytesIO())),
}
# Calls with no feature rows or second vector to hold the labels' length to.
UNSIZED = {"base_only_labels:gt", "save_labels"}


class TestLabelContract:
    @pytest.mark.parametrize("which, value", [
        ("raw", 99), ("raw", -5), ("raw", -4.3), ("raw", np.nan), ("base", 2.5),
        ("base", SCHEMA.n_base),  # a novel index in the base labels
    ])
    def test_label_outside_schema_rejected(self, which, value):
        feats, raw, base, support = noisy_case(0)
        labels = {"raw": raw, "base": base}
        i = int(np.flatnonzero(labels[which] == -1)[0])
        labels[which] = labels[which].astype(type(value))
        labels[which][i] = value
        with pytest.raises(ContractError, match=rf"{which} label {value!r} at point {i}\b"):
            refine_labels(feats, labels["raw"], labels["base"], support, SCHEMA)

    def test_non_numeric_labels_rejected(self):
        feats, raw, base, support = noisy_case(0)
        with pytest.raises(ContractError, match=r"^raw label '-?\d+' at point 0 breaks the "
                                                "label contract: labels must be integers"):
            refine_labels(feats, raw.astype(str), base, support, SCHEMA)

    def test_misaligned_labels_rejected(self):
        feats, raw, base, support = noisy_case(0)
        with pytest.raises(AlignmentError, match="raw labels"):
            refine_labels(feats, raw[:, None], base, support, SCHEMA)
        with pytest.raises(AlignmentError, match="base labels"):
            refine_labels(feats, raw, base[1:], support, SCHEMA)

    @pytest.mark.parametrize("call", CONTRACT_CALLS)
    def test_valid_labels_accepted(self, call):
        labels, _, _, fn = CONTRACT_CALLS[call]
        fn(labels)
        fn(labels.astype(np.float32))  # whole-valued floats are integers

    @pytest.mark.parametrize("fault", ["fractional", "nan", "string", "below", "at_bound"])
    @pytest.mark.parametrize("call", CONTRACT_CALLS)
    def test_bad_value_rejected(self, call, fault):
        labels, name, hi, fn = CONTRACT_CALLS[call]
        i = 3
        if fault == "string":
            bad, i = labels.astype(str), 0
        else:
            value = {"fractional": 2.5, "nan": np.nan, "below": -2, "at_bound": hi}[fault]
            bad = labels.astype(type(value))
            bad[i] = value
        with pytest.raises(ContractError, match=rf"{name} label {bad[i].item()!r} at point {i}\b"):
            fn(bad)

    @pytest.mark.parametrize("call", CONTRACT_CALLS)
    def test_misaligned_rejected(self, call):
        labels, name, _, fn = CONTRACT_CALLS[call]
        with pytest.raises(AlignmentError, match=rf"{name} labels of shape \(6, 1\)"):
            fn(labels[:, None])
        if call in UNSIZED:
            return
        # One short vector of a pair: whichever is checked second is blamed.
        with pytest.raises(AlignmentError, match="labels of shape"):
            fn(labels[:-1])

    @pytest.mark.parametrize("site", ["class_stats", "SupportSet", "embed_scene", "mix"])
    def test_scene_label_at_n_classes_rejected(self, site):
        positions = np.arange(9.0).reshape(3, 3)
        good = PointCloudScene(positions, [0, N - 1, -1], source_path="good.ply")
        bad = PointCloudScene(positions, [0, -1, N], source_path="bad.ply")

        def support(scene):
            return SupportSet(SCHEMA, {c: (SupportShot(scene, [1, 1, 0]),)
                                       for c in SCHEMA.novel_indices})

        calls = {
            "class_stats": lambda: class_stats([good, bad], SCHEMA),
            "SupportSet": lambda: support(bad),
            "embed_scene": lambda: SyntheticFeatureProvider(
                SCHEMA, SyntheticProviderConfig(dim=16)).embed_scene(bad),
            "mix": lambda: mix(bad, support(good), MixConfig(n_blocks=1)),
        }
        with pytest.raises(ContractError, match=rf"^bad\.ply: label {N} at point 2\b"):
            calls[site]()
