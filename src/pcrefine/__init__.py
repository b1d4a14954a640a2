"""pcrefine: point-cloud pseudo-label refinement toolkit.

Fuses dense but noisy per-point class predictions with sparse, accurate
few-shot support samples via prototype-guided selection and adaptive
infilling, plus a context-preserving novel-base mix augmentation,
benchmark split construction, and segmentation metrics.

Each public name loads its module on first use (PEP 562), so a process
pays only for the layers it touches.
"""

import importlib
import os
import sys
import types

# Every cosine is a per-pair np.vecdot; the only BLAS calls left are 1-D dot/norm and
# simulate's small QR, so OpenBLAS's idle workers would only spin (a caller's value wins).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("ClassSchema", "PointCloudScene", "VoxelConfig", "voxelize"), "scene"),
    **dict.fromkeys(("load_manifest", "load_scene", "load_support", "save_manifest",
                     "save_scene", "save_support"), "scene_io"),
    **dict.fromkeys(("SyntheticFeatureProvider", "SyntheticProviderConfig",
                     "FileFeatureProvider", "class_anchors", "load_embeddings",
                     "save_embeddings"), "embeddings"),
    **dict.fromkeys(("PrototypeSet", "SupportSet", "SupportShot", "cosine", "masked_pool",
                     "support_prototypes"), "prototypes"),
    **dict.fromkeys(("SelectionConfig", "ps_refine"), "selection"),
    **dict.fromkeys(("InfillConfig", "adaptive_set", "context_prototypes", "infill"), "infill"),
    **dict.fromkeys(("RefineReport", "refine_labels"), "pipeline"),
    **dict.fromkeys(("MixConfig", "corners_xy", "crop_novel", "mix", "pick_pair"), "mix"),
    **dict.fromkeys(("ClassStat", "ClassStats", "SplitSpec", "build_split", "class_stats"),
                    "benchmark"),
    **dict.fromkeys(("ConfusionMatrix", "MetricSummary", "QualityReport", "accumulate",
                     "harmonic_mean", "iou_per_class", "pseudo_label_quality", "summary"),
                    "metrics"),
    **dict.fromkeys(("BoxSpec", "NoiseSpec", "SceneSpec", "corrupt_predictions", "gen_scene",
                     "make_support"), "sim"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


class _Package(types.ModuleType):
    """The package's module type. infill and mix name both a submodule and
    its function; the import system binds each submodule it loads to the
    package attribute of its name, and that binding is refused here, so
    pcrefine.infill and pcrefine.mix stay the functions."""

    def __setattr__(self, name, value):
        if not (name in ("infill", "mix") and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
