"""Command-line entry point composing the refinement pipeline.

Subcommands: simulate, refine, mix, stats, split, eval. Every subcommand is
deterministic given its inputs and --seed; exit codes are 0 (ok),
2 (usage / contract violation), 3 (I/O or file-format failure).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmark, metrics, sim
from .embeddings import FileFeatureProvider, SyntheticFeatureProvider, SyntheticProviderConfig
from .embeddings import load_embeddings, save_embeddings
from .errors import ConfigError, FormatError, PcrefineError
from .infill import InfillConfig
from .mix import MixConfig, _blocks
from .pipeline import refine_labels
from .prototypes import SupportSet, support_prototypes
from .scene import ClassSchema, VoxelConfig, _cell_keys, _check_number, _majority_labels, checked_labels
from .scene_io import (
    Manifest,
    SceneEntry,
    _append_blocks,
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
    # The counts here, and --seed and the noise flags in the configs, are checked before any mkdir.
    for flag in ("scenes", "support_scenes", "base", "novel", "shots"):
        _check_number(f"--{flag.replace('_', '-')}", getattr(args, flag), integer=True, lo=1)
    noise = sim.NoiseSpec(p_miss=args.p_miss, erosion_frac=args.erosion,
                          flip_prob=args.flip, seed=args.seed)
    schema = _generic_schema(args.base, args.novel)
    provider = SyntheticFeatureProvider(schema, SyntheticProviderConfig(
        dim=args.dim, anchor_seed=args.seed,
        noise_sigma=args.noise_sigma, confusion_prob=args.confusion,
    ))
    out = Path(args.out)
    for sub in ("scenes", "embeddings", "raw", "base_labels"):
        (out / sub).mkdir(parents=True, exist_ok=True)

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
            dataclasses.replace(noise, seed=noise.seed * 100003 + i), schema,
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


@contextlib.contextmanager
def _scene_faults(entry: SceneEntry):
    """Prefix any PcrefineError raised while a command handles a manifest
    scene with 'scene <id>: '; the error keeps its type, so its exit code."""
    try:
        yield
    except PcrefineError as exc:
        raise type(exc)(f"scene {entry.scene_id}: {exc}") from exc


def _scene_ply(
    manifest: Manifest, entry: SceneEntry
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """_read_geometry of a manifest scene's PLY, its int32 labels checked in
    [-1, n_classes), and their (min, max): every fault, a label one
    included, names the file."""
    path = manifest.resolve(entry.path)
    columns, labels, rec, extremes = _read_geometry(path)
    lo, hi = int(labels.min()), int(labels.max())
    if lo < -1 or hi >= manifest.schema.n_classes:
        # Raised on the int64 cast, so the message reads as for any label file.
        checked_labels(f"{path}:", labels.astype(np.int64), hi=manifest.schema.n_classes)
    return columns, labels, rec, extremes, (lo, hi)


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
        with _scene_faults(entry):
            if not (entry.embedding and entry.raw_predictions and entry.base_labels):
                raise ConfigError("lacks embedding/raw/base_labels")
            feats = load_embeddings(manifest.resolve(entry.embedding))
            raw = load_labels(manifest.resolve(entry.raw_predictions))
            base = load_labels(manifest.resolve(entry.base_labels))
            refined_labels[entry.scene_id], report = refine_labels(
                feats, raw, base, support, manifest.schema, sel_cfg, inf_cfg
            )
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
    support = load_support(manifest)[0]  # SupportSet checks the support labels
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, entry in enumerate(entries):
        _mix_scene(manifest, entry, support, cfg, np.random.default_rng([args.seed, i]),
                   out / f"{entry.scene_id}.ply")
    print(json.dumps({
        "version": REPORT_SCHEMA_VERSION,
        "mixed_scenes": len(entries),
        "blocks": args.blocks,
    }))


def _mix_scene(manifest: Manifest, entry: SceneEntry, support: SupportSet, cfg: MixConfig,
               rng: np.random.Generator, path: Path) -> None:
    """save_scene(mix(scene, support, cfg, rng), path) for a manifest scene,
    with the base points, which mix never alters, written from the record as
    read; the blocks read only the base's corners and floor, from its float32
    columns. The scene's buffers are freed on return, before cmd_mix reads
    the next one."""
    columns, labels, rec, _, _ = _scene_ply(manifest, entry)
    del labels  # read only for its check
    blocks = _blocks(columns.T, support, cfg, rng)
    del columns
    _append_blocks(path, rec, blocks)


def cmd_stats(args) -> None:
    manifest = load_manifest(Path(args.manifest))
    # Only the checked labels outlive each read: no scene is built.
    labels = (_scene_ply(manifest, e)[1] for e in manifest.scenes if e.role != "support")
    stats = benchmark._label_stats(labels, manifest.schema)
    doc = {"version": REPORT_SCHEMA_VERSION, "count_mode": "scenes",
           "classes": stats.to_dict()}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2))
    print(json.dumps(doc))


def cmd_split(args) -> None:
    path = Path(args.stats)
    try:
        doc = json.loads(path.read_bytes())
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


def _truth_labels(manifest: Manifest, entry: SceneEntry, grid: VoxelConfig | None) -> np.ndarray:
    """The ground-truth labels eval scores for a manifest scene: per point, or
    per voxel cell of grid, as voxelize(load_scene(path), grid).labels gives
    them. The cell keys come from the file's float32 columns, so no float64
    positions or scene are built; colours are never read, and only the
    labels outlive the call. The vertex record, and with it the file's
    mapping, is dropped on read, and the columns once the keys are taken:
    the two steps of _voxel_labels, with only the keys and labels left for
    the vote. The labels stay the file's int32 (accumulate widens them at
    grid 0), and the column and label ranges taken by the read are not
    taken again."""
    columns, labels, rec, extremes, (lo, hi) = _scene_ply(manifest, entry)
    del rec
    if grid is None:
        return labels
    with _scene_faults(entry):  # a voxel fault names the scene
        key, n_keys = _cell_keys(columns, grid.grid_size, extremes)
        del columns
        return _majority_labels(key, n_keys, labels, lo, hi)


def cmd_eval(args) -> None:
    # Checked before any file is read: a negative, NaN or infinite grid is a ConfigError.
    grid = None if args.grid == 0 else VoxelConfig(grid_size=args.grid)
    manifest = load_manifest(Path(args.manifest))
    pred_dir = Path(args.pred_dir)
    conf = metrics.ConfusionMatrix(manifest.schema.n_classes)
    for entry in _role_entries(manifest, args.role):
        truth = _truth_labels(manifest, entry, grid)
        with _scene_faults(entry):
            pred_path = pred_dir / f"{entry.scene_id}.npy"
            if not pred_path.exists():
                raise ConfigError(f"missing predictions: {pred_path}")
            metrics.accumulate(conf, load_labels(pred_path), truth)  # checks the length
        del truth  # freed before the next scene is read
    result = metrics.summary(conf, manifest.schema)
    doc = {"version": REPORT_SCHEMA_VERSION, "metrics": result.to_dict(),
           "per_class_iou": {str(c): v for c, v in metrics.iou_per_class(conf).items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2))
    print(result.table())
    print(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
