import sys

import numpy as np
import pytest

from pcrefine import (
    ClassSchema,
    InfillConfig,
    NoiseSpec,
    SelectionConfig,
    SyntheticFeatureProvider,
    SyntheticProviderConfig,
    corrupt_predictions,
    gen_scene,
    make_support,
    refine_labels,
    support_prototypes,
)
from pcrefine.errors import AlignmentError, ContractError
from pcrefine.infill import infill
from pcrefine.metrics import ConfusionMatrix, accumulate, pseudo_label_quality
from pcrefine.prototypes import PrototypeSet
from pcrefine.scene import checked_labels
from pcrefine.selection import merge_into_background, select_and_merge
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


class TestChecksOnce:
    def test_each_label_vector_checked_once_per_refine(self, monkeypatch):
        checked = []

        def recording(name, *args, **kwargs):
            checked.append(name)
            return checked_labels(name, *args, **kwargs)

        for module in ("pcrefine.selection", "pcrefine.infill"):
            monkeypatch.setattr(sys.modules[module], "checked_labels", recording)
        feats, raw, base, support = noisy_case(0)
        refine_labels(feats, raw, base, support, SCHEMA)
        assert checked == ["raw", "base", "y_prime"]


class TestFeatureWidth:
    def test_width_mismatch_is_contract_error(self):
        feats, raw, base, _ = noisy_case(0, dim=16)
        _, _, _, support = noisy_case(0, dim=32)
        assert ((raw >= SCHEMA.n_base) & (raw < SCHEMA.n_classes)).any()
        for call in (
            lambda: refine_labels(feats, raw, base, support, SCHEMA),
            lambda: select_and_merge(feats, raw, base, support, SelectionConfig(), SCHEMA),
        ):
            with pytest.raises(ContractError, match=r"shape \(\d+, 16\).*width 32"):
                call()


# Each library function that takes label vectors: the labels of one valid
# call, the name the checker gives the corrupted argument, its upper bound,
# and the call with that argument replaced.
N_BASE, N = SCHEMA.n_base, SCHEMA.n_classes
GT = np.array([0, 1, N_BASE, N - 1, -1, N_BASE + 1])
FILTERED = np.array([-1, N_BASE, -1, N - 1, N_BASE + 1, -1])
INT64_MAX = np.iinfo(np.int64).max
BASE = np.array([0, -1, 2, -1, -1, 1])
CONTRACT_CALLS = {
    "merge_into_background:filtered": (
        FILTERED, "filtered", N, lambda y: merge_into_background(BASE, y, SCHEMA)),
    "merge_into_background:base": (
        BASE, "base", N_BASE, lambda y: merge_into_background(y, FILTERED, SCHEMA)),
    "infill": (
        FILTERED, "y_prime", INT64_MAX,
        lambda y: infill(y, np.eye(6), PrototypeSet({N_BASE: np.ones(6)}), InfillConfig())),
    "accumulate:pred": (GT, "pred", N, lambda y: accumulate(ConfusionMatrix(N), y, GT)),
    "accumulate:gt": (GT, "gt", N, lambda y: accumulate(ConfusionMatrix(N), GT, y)),
    "pseudo_label_quality:pseudo": (
        GT, "pseudo", N, lambda y: pseudo_label_quality(y, GT, SCHEMA)),
    "pseudo_label_quality:gt": (GT, "gt", N, lambda y: pseudo_label_quality(GT, y, SCHEMA)),
}


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
        with pytest.raises(ContractError, match="raw labels must be integers"):
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
        # One short vector of a pair: whichever is checked second is blamed.
        with pytest.raises(AlignmentError, match="labels of shape"):
            fn(labels[:-1])
