"""Seeded corpora for the benchmark workloads, and the reference outputs the
timed commands are checked against. Only pcrefine's public API is used.

`build(workload, seed, size, out)` writes the corpus under `out/corpus`, the
references under `out/reference` and a summary in `out/bench.json`. The same
seed gives byte-identical files.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from pcrefine import metrics, sim
from pcrefine.cli import main as cli_main
from pcrefine.embeddings import (
    FileFeatureProvider,
    SyntheticFeatureProvider,
    SyntheticProviderConfig,
    load_embeddings,
    save_embeddings,
)
from pcrefine.infill import InfillConfig
from pcrefine.mix import MixConfig, mix
from pcrefine.pipeline import refine_labels
from pcrefine.prototypes import SupportSet, SupportShot, support_prototypes
from pcrefine.scene import ClassSchema, PointCloudScene, VoxelConfig, voxelize
from pcrefine.scene_io import (
    Manifest,
    SceneEntry,
    load_labels,
    load_manifest,
    load_scene,
    save_labels,
    save_manifest,
    save_scene,
)
from pcrefine.selection import SelectionConfig

TAU = 0.6
DELTA = 0.9
GRID = 0.05
MIX_BLOCKS = 3
MIX_MARGIN = 1.0
# Features reuse rows of a seeded noise bank; drawing 51M fresh gaussians
# per 100k x 512 scene would dominate set-up time.
NOISE_ROWS = 4096

SIZES = {
    "refine_corpus": {
        "full": dict(scenes=6, points=100_000, dim=512, sigma=0.02, base=12, novel=45,
                     support_scenes=10),
        # sigma * sqrt(dim) is the same, so decisions lie as close to tau and delta.
        "tiny": dict(scenes=2, points=2_000, dim=32, sigma=0.08, base=3, novel=5,
                     support_scenes=4),
    },
    "cli_cold": {
        "full": dict(scenes=16),
        "tiny": dict(scenes=2),
    },
    "geometry": {
        "full": dict(scenes=4, points=1_000_000, base=12, novel=45, support_scenes=10),
        "tiny": dict(scenes=2, points=5_000, base=3, novel=5, support_scenes=4),
    },
}


def schema_for(n_base: int, n_novel: int) -> ClassSchema:
    return ClassSchema(
        tuple(f"base_{i:02d}" for i in range(n_base)),
        tuple(f"novel_{i:02d}" for i in range(n_novel)),
    )


def exact_size(scene: PointCloudScene, points: int, rng) -> PointCloudScene:
    """A seeded subset of exactly `points` points, in original order, so that
    every seed gives the same amount of work."""
    if scene.point_count < points:
        raise ValueError(f"generated {scene.point_count} points, need {points}")
    keep = np.sort(rng.choice(scene.point_count, size=points, replace=False))
    colors = None if scene.colors is None else scene.colors[keep]
    return PointCloudScene(scene.positions[keep], scene.labels[keep], colors)


class FeatureMaker:
    """normalize(anchor(label) + noise) in float32, as SyntheticFeatureProvider
    draws features, with noise rows taken from a seeded bank."""

    def __init__(self, schema: ClassSchema, dim: int, sigma: float, seed: int):
        provider = SyntheticFeatureProvider(
            schema, SyntheticProviderConfig(dim=dim, anchor_seed=seed))
        self.anchors = np.vstack(
            [provider.background_anchor]
            + [provider.anchors[c] for c in range(schema.n_classes)]
        ).astype(np.float32)
        self.rng = np.random.default_rng([seed, 7])
        self.bank = (sigma * self.rng.standard_normal((NOISE_ROWS, dim))).astype(np.float32)

    def embed(self, scene: PointCloudScene) -> np.ndarray:
        feats = self.anchors[scene.labels + 1]
        feats += self.bank[self.rng.integers(0, NOISE_ROWS, scene.point_count)]
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        return feats


def write_support(out: Path, support: SupportSet, embed=None) -> None:
    """support.json and its files, laid out as `pcrefine simulate` writes
    them: a support scene shared by several shots is written once."""
    doc = {"version": 1, "k": support.k, "classes": {}}
    saved: dict[int, str] = {}
    for c in support.classes():
        entries = []
        for j, shot in enumerate(support.shots[c]):
            if id(shot.scene) not in saved:
                sid = f"support_{len(saved):03d}"
                save_scene(shot.scene, out / f"support/{sid}.ply")
                if embed is not None:
                    save_embeddings(embed(shot.scene), out / f"support/{sid}.gfve")
                saved[id(shot.scene)] = sid
            sid = saved[id(shot.scene)]
            mask_rel = f"support/mask_c{c}_s{j}.npy"
            np.save(out / mask_rel, shot.mask)
            entry = {"scene": f"support/{sid}.ply", "mask": mask_rel}
            if embed is not None:
                entry["embedding"] = f"support/{sid}.gfve"
            entries.append(entry)
        doc["classes"][str(c)] = entries
    (out / "support.json").write_text(json.dumps(doc, indent=2))


def load_support(manifest: Manifest) -> tuple[SupportSet, dict[str, Path]]:
    """The support set of a corpus and the embedding file of each support scene."""
    doc = json.loads(manifest.resolve(manifest.support).read_text())
    scenes: dict[str, PointCloudScene] = {}
    embeddings: dict[str, Path] = {}
    shots = {}
    for c, entries in doc["classes"].items():
        class_shots = []
        for e in entries:
            if e["scene"] not in scenes:
                scenes[e["scene"]] = load_scene(manifest.resolve(e["scene"]))
            scene = scenes[e["scene"]]
            if "embedding" in e:
                embeddings[scene.source_path] = manifest.resolve(e["embedding"])
            class_shots.append(SupportShot(scene, np.load(manifest.resolve(e["mask"]))))
        shots[int(c)] = tuple(class_shots)
    return SupportSet(schema=manifest.schema, shots=shots), embeddings


def support_pool(schema, n, seed, colorize=None):
    pool = []
    for i in range(n):
        scene = sim.gen_scene(sim.random_scene_spec(schema, seed=seed * 999983 + i, novel_prob=1.0))
        pool.append(colorize(scene) if colorize else scene)
    return pool


def make_refine_corpus(out: Path, seed: int, scenes, points, dim, sigma, base, novel,
                       support_scenes):
    """Scenes of exactly `points` points with `dim`-dim float32 embeddings,
    feature noise `sigma` and flip rate 0.1, one support shot per novel class."""
    schema = schema_for(base, novel)
    features = FeatureMaker(schema, dim, sigma, seed)
    rng = np.random.default_rng([seed, 1])
    for sub in ("scenes", "embeddings", "raw", "base_labels", "support"):
        (out / sub).mkdir(parents=True)
    entries = []
    for i in range(scenes):
        spec = sim.random_scene_spec(schema, seed=seed * 100003 + i, extent=(16.0, 16.0),
                                     box_density=4000.0, floor_density=300.0)
        scene = exact_size(sim.gen_scene(spec), points, rng)
        sid = f"train_{i:03d}"
        save_scene(scene, out / f"scenes/{sid}.ply")
        save_embeddings(features.embed(scene), out / f"embeddings/{sid}.gfve")
        raw = sim.corrupt_predictions(scene.labels, scene.positions,
                                      sim.NoiseSpec(flip_prob=0.1, seed=seed * 100003 + i), schema)
        save_labels(raw, out / f"raw/{sid}.npy")
        save_labels(sim.base_only_labels(scene.labels, schema), out / f"base_labels/{sid}.npy")
        entries.append(SceneEntry(sid, f"scenes/{sid}.ply", "train", f"embeddings/{sid}.gfve",
                                  f"raw/{sid}.npy", f"base_labels/{sid}.npy"))
    support = sim.make_support(support_pool(schema, support_scenes, seed), schema, 1, seed=seed)
    write_support(out, support, embed=features.embed)
    save_manifest(Manifest(schema, entries, "support.json", out), out / "manifest.json")


def make_cli_corpus(out: Path, seed: int, scenes):
    """The baseline corpus: `pcrefine simulate --shots 2 --flip 0.2 --erosion 0.2`."""
    argv = ["simulate", "--out", str(out), "--seed", str(seed), "--scenes", str(scenes),
            "--shots", "2", "--flip", "0.2", "--erosion", "0.2"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"simulate exited with {code}")


def make_geometry_corpus(out: Path, seed: int, scenes, points, base, novel, support_scenes):
    """Coloured scenes of exactly `points` points, and per scene a
    voxel-resolution prediction at grid GRID with flip rate 0.1."""
    schema = schema_for(base, novel)
    rng = np.random.default_rng([seed, 2])
    palette = rng.uniform(0.0, 1.0, size=(schema.n_classes, 3))

    def colorize(scene):
        colors = palette[scene.labels] + rng.normal(0.0, 0.05, size=(scene.point_count, 3))
        return PointCloudScene(scene.positions, scene.labels, np.clip(colors, 0.0, 1.0))

    for sub in ("scenes", "pred", "support"):
        (out / sub).mkdir(parents=True)
    entries = []
    for i in range(scenes):
        spec = sim.random_scene_spec(schema, seed=seed * 100003 + i, extent=(16.0, 16.0),
                                     box_density=40000.0, floor_density=2500.0)
        scene = colorize(exact_size(sim.gen_scene(spec), points, rng))
        sid = f"train_{i:03d}"
        save_scene(scene, out / f"scenes/{sid}.ply")
        voxels = voxelize(load_scene(out / f"scenes/{sid}.ply"), VoxelConfig(grid_size=GRID))
        pred = sim.corrupt_predictions(voxels.labels, voxels.positions,
                                       sim.NoiseSpec(flip_prob=0.1, seed=seed * 100003 + i), schema)
        save_labels(pred, out / f"pred/{sid}.npy")
        entries.append(SceneEntry(sid, f"scenes/{sid}.ply", "train"))
    support = sim.make_support(support_pool(schema, support_scenes, seed, colorize), schema, 1, seed=seed)
    write_support(out, support)
    save_manifest(Manifest(schema, entries, "support.json", out), out / "manifest.json")


def eval_reference(manifest: Manifest, pred_dir: Path, grid: float) -> dict:
    """What `pcrefine eval` reports for these predictions."""
    conf = metrics.ConfusionMatrix(manifest.schema.n_classes)
    for entry in manifest.entries("train"):
        scene = load_scene(manifest.resolve(entry.path))
        if grid > 0:
            scene = voxelize(scene, VoxelConfig(grid_size=grid))
        metrics.accumulate(conf, load_labels(pred_dir / f"{entry.scene_id}.npy"), scene.labels)
    return {
        "metrics": metrics.summary(conf, manifest.schema).to_dict(),
        "per_class_iou": {str(c): v for c, v in metrics.iou_per_class(conf).items()},
    }


def refine_reference(manifest: Manifest, ref: Path) -> None:
    """refine_labels on the loaded inputs, with library support prototypes."""
    support, embeddings = load_support(manifest)
    prototypes = support_prototypes(support, FileFeatureProvider(embeddings))
    (ref / "refined").mkdir(parents=True)
    for entry in manifest.entries("train"):
        refined, _ = refine_labels(
            load_embeddings(manifest.resolve(entry.embedding)),
            load_labels(manifest.resolve(entry.raw_predictions)),
            load_labels(manifest.resolve(entry.base_labels)),
            prototypes, manifest.schema, SelectionConfig(tau=TAU), InfillConfig(delta=DELTA),
        )
        save_labels(refined, ref / f"refined/{entry.scene_id}.npy")


def mix_reference(manifest: Manifest, ref: Path, seed: int) -> None:
    """What `pcrefine mix --seed <seed>` writes: scene i mixed with rng [seed, i]."""
    support, _ = load_support(manifest)
    cfg = MixConfig(n_blocks=MIX_BLOCKS, crop_margin_xy=MIX_MARGIN, seed=seed)
    (ref / "mixed").mkdir(parents=True)
    for i, entry in enumerate(manifest.entries("train")):
        scene = load_scene(manifest.resolve(entry.path))
        mixed = mix(scene, support, cfg, np.random.default_rng([seed, i]))
        save_scene(mixed, ref / f"mixed/{entry.scene_id}.ply")


def build(workload: str, seed: int, size: str, out: Path) -> None:
    corpus, ref = out / "corpus", out / "reference"
    ref.mkdir(parents=True)
    params = SIZES[workload][size]
    if workload == "refine_corpus":
        make_refine_corpus(corpus, seed, **params)
    elif workload == "cli_cold":
        make_cli_corpus(corpus, seed, **params)
    else:
        make_geometry_corpus(corpus, seed, **params)

    manifest = load_manifest(corpus / "manifest.json")
    entries = manifest.entries("train")
    points = {e.scene_id: load_scene(manifest.resolve(e.path)).point_count for e in entries}
    summary = {"params": params, "points": points, "n_classes": manifest.schema.n_classes}
    if workload == "geometry":
        mix_reference(manifest, ref, seed)
        summary["eval"] = eval_reference(manifest, corpus / "pred", GRID)
    else:
        refine_reference(manifest, ref)
        summary["eval"] = eval_reference(manifest, ref / "refined", 0.0)
        summary["unlabeled_base"] = {
            e.scene_id: int((load_labels(manifest.resolve(e.base_labels)) == -1).sum())
            for e in entries
        }
    (out / "bench.json").write_text(json.dumps(summary))
