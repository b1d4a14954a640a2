"""Command-line entry point composing the refinement pipeline.

Subcommands: simulate, refine, mix, stats, split, eval. Every subcommand is
deterministic given its inputs and --seed; exit codes are 0 (ok),
2 (usage / contract violation), 3 (I/O or file-format failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmark, metrics, sim
from .embeddings import FileFeatureProvider, SyntheticFeatureProvider, SyntheticProviderConfig
from .embeddings import load_embeddings, save_embeddings
from .errors import ConfigError, ContractError, FormatError, PcrefineError
from .infill import InfillConfig
from .mix import MixConfig, mix
from .pipeline import refine_labels
from .prototypes import support_prototypes
from .scene import ClassSchema, PointCloudScene, VoxelConfig, voxel_labels
from .scene_io import (
    Manifest,
    SceneEntry,
    _read_geometry,
    load_labels,
    load_manifest,
    load_scene,
    load_support,
    save_labels,
    save_manifest,
    save_scene,
    save_support,
)
from .selection import SelectionConfig

REPORT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONTRACT = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Flag faults raise ConfigError (exit 2, JSON on stderr), not SystemExit."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="pcrefine",
        description="Point-cloud pseudo-label refinement toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate a synthetic corpus with embeddings, raw predictions, and support shots")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sp.add_argument("--scenes", type=int, default=8, help="number of training scenes (default 8)")
    sp.add_argument("--support-scenes", type=int, default=10, help="number of support-pool scenes (default 10)")
    sp.add_argument("--base", type=int, default=3, help="number of base classes (default 3)")
    sp.add_argument("--novel", type=int, default=5, help="number of novel classes (default 5)")
    sp.add_argument("--shots", type=int, default=1, help="support shots K per novel class (default 1)")
    sp.add_argument("--dim", type=int, default=32, help="feature dimension (default 32)")
    sp.add_argument("--noise-sigma", type=float, default=0.0, help="feature noise sigma (default 0)")
    sp.add_argument("--confusion", type=float, default=0.0, help="feature confusion probability (default 0)")
    sp.add_argument("--p-miss", type=float, default=0.0, help="per-class dropout probability (default 0)")
    sp.add_argument("--erosion", type=float, default=0.0, help="mask boundary erosion fraction (default 0)")
    sp.add_argument("--flip", type=float, default=0.0, help="per-point label flip probability (default 0)")
    sp.set_defaults(func=cmd_simulate)

    rp = sub.add_parser("refine", help="refine raw predictions with selection and infilling")
    rp.add_argument("--manifest", required=True, help="corpus manifest JSON")
    rp.add_argument("--out", required=True, help="output directory for refined labels")
    rp.add_argument("--tau", type=float, default=0.6,
                    help="selection agreement threshold in [-1, 1] (default 0.6)")
    rp.add_argument("--delta", type=float, default=0.9,
                    help="infilling similarity threshold in [-1, 1] (default 0.9)")
    rp.set_defaults(func=cmd_refine)

    mp = sub.add_parser("mix", help="novel-base mix augmentation of training scenes")
    mp.add_argument("--manifest", required=True)
    mp.add_argument("--out", required=True, help="output directory for mixed scenes")
    mp.add_argument("--blocks", type=int, default=3, help="support blocks per scene (default 3)")
    mp.add_argument("--margin", type=float, default=1.0, help="crop margin in meters (default 1.0)")
    mp.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    mp.set_defaults(func=cmd_mix)

    tp = sub.add_parser("stats", help="per-class occurrence statistics over a corpus")
    tp.add_argument("--manifest", required=True)
    tp.add_argument("--out", help="write JSON stats here (default stdout only)")
    tp.set_defaults(func=cmd_stats)

    lp = sub.add_parser("split", help="build a base/novel split from class stats")
    lp.add_argument("--stats", required=True, help="stats JSON from the stats subcommand")
    lp.add_argument("--threshold", type=int, required=True,
                    help="retain classes with occurrences strictly above this")
    lp.add_argument("--base", type=int, required=True, help="number of base classes")
    lp.add_argument("--out", help="write the schema JSON here (default stdout)")
    lp.set_defaults(func=cmd_split)

    ep = sub.add_parser("eval", help="evaluate predicted labels against scene ground truth")
    ep.add_argument("--manifest", required=True)
    ep.add_argument("--pred-dir", required=True, help="directory of <scene-id>.npy label files")
    ep.add_argument("--role", default="train", help="which manifest role to evaluate (default train)")
    ep.add_argument("--grid", type=float, default=0.0,
                    help="voxelize ground truth at this grid size before eval (default 0: off)")
    ep.add_argument("--out", help="write the JSON report here (default stdout only)")
    ep.set_defaults(func=cmd_eval)

    return p


def _error_object(exc: Exception) -> str:
    return json.dumps({
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "version": REPORT_SCHEMA_VERSION,
    })


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except (FormatError, OSError) as exc:
        print(_error_object(exc), file=sys.stderr)
        return EXIT_IO
    except PcrefineError as exc:
        print(_error_object(exc), file=sys.stderr)
        return EXIT_CONTRACT
    return EXIT_OK


def _generic_schema(n_base: int, n_novel: int) -> ClassSchema:
    return ClassSchema(
        tuple(f"base_{i:02d}" for i in range(n_base)),
        tuple(f"novel_{i:02d}" for i in range(n_novel)),
    )


def cmd_simulate(args) -> None:
    if args.base < 1 or args.novel < 1:
        raise ConfigError("need at least one base and one novel class")
    out = Path(args.out)
    for sub in ("scenes", "embeddings", "raw", "base_labels"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    schema = _generic_schema(args.base, args.novel)
    provider = SyntheticFeatureProvider(schema, SyntheticProviderConfig(
        dim=args.dim, anchor_seed=args.seed,
        noise_sigma=args.noise_sigma, confusion_prob=args.confusion,
    ))
    noise = sim.NoiseSpec(p_miss=args.p_miss, erosion_frac=args.erosion,
                          flip_prob=args.flip, seed=args.seed)

    entries = []
    for i in range(args.scenes):
        spec = sim.random_scene_spec(schema, seed=args.seed * 100003 + i)
        scene = sim.gen_scene(spec)
        sid = f"train_{i:03d}"
        scene_rel = f"scenes/{sid}.ply"
        save_scene(scene, out / scene_rel)
        feats = provider.embed_scene(scene)
        save_embeddings(feats, out / f"embeddings/{sid}.gfve")
        raw = sim.corrupt_predictions(
            scene.labels, scene.positions,
            sim.NoiseSpec(noise.p_miss, noise.erosion_frac, noise.flip_prob,
                          seed=noise.seed * 100003 + i),
            schema,
        )
        save_labels(raw, out / f"raw/{sid}.npy")
        save_labels(sim.base_only_labels(scene.labels, schema), out / f"base_labels/{sid}.npy")
        entries.append(SceneEntry(
            scene_id=sid, path=scene_rel, role="train",
            embedding=f"embeddings/{sid}.gfve",
            raw_predictions=f"raw/{sid}.npy",
            base_labels=f"base_labels/{sid}.npy",
        ))

    # Support pool: every novel class is always present so K shots exist.
    pool = []
    for i in range(args.support_scenes):
        spec = sim.random_scene_spec(
            schema, seed=args.seed * 999983 + i, novel_prob=1.0
        )
        pool.append(sim.gen_scene(spec))
    support = sim.make_support(pool, schema, args.shots, seed=args.seed)

    save_support(support, out, provider.embed_scene)

    manifest = Manifest(schema=schema, scenes=entries, support="support.json", root=out)
    save_manifest(manifest, out / "manifest.json")
    print(json.dumps({
        "version": REPORT_SCHEMA_VERSION,
        "out": str(out),
        "scenes": args.scenes,
        "support_shots": args.shots,
    }))


def _role_entries(manifest: Manifest, role: str) -> list[SceneEntry]:
    """The manifest's scenes with this role; none at all is a usage error."""
    entries = manifest.entries(role)
    if not entries:
        raise ConfigError(f"manifest has no scenes with role {role!r}")
    return entries


def cmd_refine(args) -> None:
    sel_cfg = SelectionConfig(tau=args.tau)
    inf_cfg = InfillConfig(delta=args.delta)
    manifest = load_manifest(Path(args.manifest))
    entries = _role_entries(manifest, "train")
    support_set, embeddings = load_support(manifest)
    support = support_prototypes(support_set, FileFeatureProvider(embeddings))
    del support_set  # the support scenes are not needed once pooled
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # Every scene is refined before anything is written, so a run that fails
    # on a later scene leaves no labels behind.
    refined_labels, scene_reports = {}, {}
    for entry in entries:
        if not (entry.embedding and entry.raw_predictions and entry.base_labels):
            raise ConfigError(f"scene {entry.scene_id} lacks embedding/raw/base_labels")
        feats = load_embeddings(manifest.resolve(entry.embedding))
        raw = load_labels(manifest.resolve(entry.raw_predictions))
        base = load_labels(manifest.resolve(entry.base_labels))
        try:
            refined_labels[entry.scene_id], report = refine_labels(
                feats, raw, base, support, manifest.schema, sel_cfg, inf_cfg
            )
        except PcrefineError as exc:
            # Same type, so the exit code stays; the message gains the scene.
            raise type(exc)(f"scene {entry.scene_id}: {exc}") from exc
        scene_reports[entry.scene_id] = report.to_dict()
    for scene_id, refined in refined_labels.items():
        save_labels(refined, out / f"{scene_id}.npy")

    report_doc = {
        "version": REPORT_SCHEMA_VERSION,
        "tau": args.tau,
        "delta": args.delta,
        "scenes": scene_reports,
    }
    (out / "report.json").write_text(json.dumps(report_doc, indent=2))
    print(json.dumps(report_doc))


def cmd_mix(args) -> None:
    cfg = MixConfig(n_blocks=args.blocks, crop_margin_xy=args.margin, seed=args.seed)
    manifest = load_manifest(Path(args.manifest))
    entries = _role_entries(manifest, "train")
    support = load_support(manifest)[0]
    n_classes = manifest.schema.n_classes
    for shots in support.shots.values():
        for shot in shots:
            _check_below(shot.scene, n_classes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, entry in enumerate(entries):
        scene = _check_below(load_scene(manifest.resolve(entry.path)), n_classes)
        rng = np.random.default_rng([args.seed, i])
        mixed = mix(scene, support, cfg, rng)
        save_scene(mixed, out / f"{entry.scene_id}.ply")
    print(json.dumps({
        "version": REPORT_SCHEMA_VERSION,
        "mixed_scenes": len(entries),
        "blocks": args.blocks,
    }))


def _check_below(scene: PointCloudScene, n_classes: int) -> PointCloudScene:
    """The scene, once its labels are known to lie below n_classes; the
    scene checked them from below. mix copies labels into its output, so a
    label past the schema is a ContractError naming the scene's file."""
    if scene.labels.max() >= n_classes:
        i = int(np.argmax(scene.labels >= n_classes))
        raise ContractError(
            f"{scene.source_path}: label {scene.labels[i]} at point {i} is outside "
            f"the manifest schema's {n_classes} classes"
        )
    return scene


def cmd_stats(args) -> None:
    manifest = load_manifest(Path(args.manifest))
    scenes = (load_scene(manifest.resolve(e.path)) for e in manifest.scenes
              if e.role != "support")
    stats = benchmark.class_stats(scenes, manifest.schema)
    doc = {"version": REPORT_SCHEMA_VERSION, "count_mode": "scenes",
           "classes": stats.to_dict()}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2))
    print(json.dumps(doc))


def cmd_split(args) -> None:
    path = Path(args.stats)
    try:
        doc = json.loads(path.read_text())
        stats = benchmark.ClassStats.from_dict(doc["classes"] if "classes" in doc else doc)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed stats file: {type(exc).__name__}: {exc}") from exc
    schema = benchmark.build_split(
        stats, benchmark.SplitSpec(freq_threshold=args.threshold, n_base=args.base)
    )
    out_doc = {"version": REPORT_SCHEMA_VERSION, "schema": schema.to_dict()}
    if args.out:
        Path(args.out).write_text(json.dumps(out_doc, indent=2))
    print(json.dumps(out_doc))


def _truth_labels(path: Path, grid: VoxelConfig | None) -> np.ndarray:
    """The ground-truth labels eval scores for the scene at path: per point,
    or per voxel cell of grid. Colours are never read, and only the labels
    outlive the call, so a scene is freed before the next one loads."""
    positions, labels, _ = _read_geometry(path)
    scene = PointCloudScene(positions, labels, source_path=str(path))  # checks the labels
    return scene.labels if grid is None else voxel_labels(scene, grid)


def cmd_eval(args) -> None:
    # Checked before any file is read: a negative, NaN or infinite grid is a ConfigError.
    grid = None if args.grid == 0 else VoxelConfig(grid_size=args.grid)
    manifest = load_manifest(Path(args.manifest))
    pred_dir = Path(args.pred_dir)
    conf = metrics.ConfusionMatrix(manifest.schema.n_classes)
    for entry in _role_entries(manifest, args.role):
        truth = _truth_labels(manifest.resolve(entry.path), grid)
        pred_path = pred_dir / f"{entry.scene_id}.npy"
        if not pred_path.exists():
            raise ConfigError(f"missing predictions for scene {entry.scene_id}: {pred_path}")
        pred = load_labels(pred_path)
        if pred.shape[0] != truth.shape[0]:
            raise ContractError(
                f"scene {entry.scene_id}: {pred.shape[0]} predictions for "
                f"{truth.shape[0]} points"
            )
        metrics.accumulate(conf, pred, truth)
    result = metrics.summary(conf, manifest.schema)
    doc = {"version": REPORT_SCHEMA_VERSION, "metrics": result.to_dict(),
           "per_class_iou": {str(c): v for c, v in metrics.iou_per_class(conf).items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2))
    print(result.table())
    print(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
