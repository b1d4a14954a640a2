"""The package namespace: each public name resolves on first use to the very
object its defining module holds, and the surface is the same whatever was
imported first. infill and mix name both a submodule and a function; the
package attribute is the function."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcrefine

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = {
    "ClassSchema", "PointCloudScene", "VoxelConfig", "voxelize",
    "load_manifest", "load_scene", "load_support", "save_manifest", "save_scene", "save_support",
    "SyntheticFeatureProvider", "SyntheticProviderConfig", "FileFeatureProvider",
    "class_anchors", "load_embeddings", "save_embeddings",
    "PrototypeSet", "SupportSet", "SupportShot", "cosine", "masked_pool", "support_prototypes",
    "SelectionConfig", "ps_refine",
    "InfillConfig", "adaptive_set", "context_prototypes", "infill",
    "RefineReport", "refine_labels",
    "MixConfig", "corners_xy", "crop_novel", "mix", "pick_pair",
    "ClassStat", "ClassStats", "SplitSpec", "build_split", "class_stats",
    "ConfusionMatrix", "MetricSummary", "QualityReport", "accumulate", "harmonic_mean",
    "iou_per_class", "pseudo_label_quality", "summary",
    "BoxSpec", "NoiseSpec", "SceneSpec", "corrupt_predictions", "gen_scene", "make_support",
}

# Run in a fresh interpreter after `import pcrefine.infill, pcrefine.mix`:
# prints each name of __all__ that is not its defining module's object.
MISMATCHES = """
import json, sys
import pcrefine.infill, pcrefine.mix
import pcrefine
print(json.dumps([name for name in pcrefine.__all__ if getattr(pcrefine, name) is not
                  getattr(sys.modules[getattr(pcrefine, name).__module__], name)]))
"""


def test_all_is_the_public_surface():
    assert set(pcrefine.__all__) == PUBLIC and len(pcrefine.__all__) == len(PUBLIC)


def test_each_name_is_its_defining_modules_object():
    modules = {name: getattr(pcrefine, name).__module__ for name in pcrefine.__all__}
    assert all(module.startswith("pcrefine.") for module in modules.values())
    assert [name for name, module in modules.items()
            if getattr(pcrefine, name) is not getattr(sys.modules[module], name)] == []


def test_infill_and_mix_are_the_functions_after_submodule_imports():
    import pcrefine.infill  # noqa: F401
    import pcrefine.mix  # noqa: F401

    assert callable(pcrefine.infill) and pcrefine.infill is sys.modules["pcrefine.infill"].infill
    assert callable(pcrefine.mix) and pcrefine.mix is sys.modules["pcrefine.mix"].mix


def test_names_match_when_submodules_load_first():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", MISMATCHES], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []


def test_dir_and_star_import_cover_all():
    assert set(pcrefine.__all__) <= set(dir(pcrefine))
    namespace = {}
    exec("from pcrefine import *", namespace)
    assert all(namespace[name] is getattr(pcrefine, name) for name in pcrefine.__all__)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="'pcrefine' has no attribute 'no_such_name'"):
        pcrefine.no_such_name
