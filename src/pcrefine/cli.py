"""Command-line entry point composing the refinement pipeline.

Subcommands: simulate, refine, mix, stats, split, eval. Every subcommand is
deterministic given its inputs and --seed; exit codes are 0 (ok),
2 (usage / contract violation), 3 (I/O or file-format failure).

Each cmd_* returns its output document, without a version, and the file
it goes to, or None; main alone stamps the version, writes the document
indented to that file and prints it on one line.

The module level imports only errors, scene and scene_io, which main and
eval read; each cmd_* imports the other layers it runs, so a process
loads only its command's modules.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, FormatError, PcrefineError
from .scene import ClassSchema, VoxelConfig, _cell_keys, _check_number, _majority_labels
from .scene_io import (
    Manifest,
    SceneEntry,
    _append_blocks,
    _read_geometry,
    _vertex_count,
    load_labels,
    load_manifest,
    load_support,
    save_labels,
    save_manifest,
    save_scene,
    save_support,
)

if TYPE_CHECKING:
    from .mix import MixConfig
    from .prototypes import SupportSet

REPORT_SCHEMA_VERSION = 1


def _return_freed_heap() -> None:
    """Hand the C heap's free pages back to the OS, where glibc can.

    glibc serves numpy blocks of a few MB from the heap once it has freed a
    mapping that large, and free() shrinks the heap only when nothing live
    sits above them, so whether freed pages stay resident depends on where
    small, unrelated allocations fell. In a process that runs commands
    through main, a command's data then landed in or beside what came
    before it, and its peak RSS moved by 15 MB from run to run. cmd_eval
    calls this before a --grid vote reads its first scene: the vote's
    buffers take fresh pages either way. Without a grid eval holds only
    labels, and returning the heap a refine left before it cost more than
    eval's own work. cmd_mix calls it once its scenes are written, for
    whatever reads them next; not before, as mix reuses the pages freed
    before it, and returning them made it fault 3,300 pages in afresh.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes  # numpy has loaded it already

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # None outside glibc
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


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
        doc, path = args.func(args)
        doc = {"version": REPORT_SCHEMA_VERSION, **doc}
        if path:
            Path(path).write_text(json.dumps(doc, indent=2))
        print(json.dumps(doc))
    except (FormatError, OSError) as exc:
        print(_error_object(exc), file=sys.stderr)
        return EXIT_IO
    except PcrefineError as exc:
        print(_error_object(exc), file=sys.stderr)
        return EXIT_CONTRACT
    return EXIT_OK


def cmd_simulate(args) -> tuple[dict, None]:
    """Write a synthetic corpus under --out; its document is printed only."""
    from . import sim
    from .embeddings import SyntheticFeatureProvider, SyntheticProviderConfig, save_embeddings

    # The counts here, and --seed and the noise flags in the configs, are checked before any mkdir.
    for flag in ("scenes", "support_scenes", "base", "novel", "shots"):
        _check_number(f"--{flag.replace('_', '-')}", getattr(args, flag), integer=True, lo=1)
    noise = sim.NoiseSpec(p_miss=args.p_miss, erosion_frac=args.erosion,
                          flip_prob=args.flip, seed=args.seed)
    schema = ClassSchema(tuple(f"base_{i:02d}" for i in range(args.base)),
                         tuple(f"novel_{i:02d}" for i in range(args.novel)))
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
    return {"out": str(out), "scenes": args.scenes, "support_shots": args.shots}, None


def _role_entries(manifest: Manifest, *roles: str) -> list[SceneEntry]:
    """The manifest's scenes with any of these roles; none at all is a usage error."""
    entries = manifest.entries(*roles)
    if not entries:
        raise ConfigError(f"manifest has no scenes with role {' or '.join(map(repr, roles))}")
    return entries


@contextlib.contextmanager
def _scene_faults(entry: SceneEntry):
    """Prefix any PcrefineError raised while a command handles a manifest
    scene with 'scene <id>: '; the error keeps its type, so its exit code."""
    try:
        yield
    except PcrefineError as exc:
        raise type(exc)(f"scene {entry.scene_id}: {exc}") from exc


def cmd_refine(args) -> tuple[dict, Path]:
    """Write refined train labels as <out>/<id>.npy; the document goes to <out>/report.json.

    Each scene's labels are written as soon as it is refined, into a
    .partial-* directory under --out, so one scene's labels are held at a
    time. Once every scene has succeeded they are moved into --out; on any
    failure the directory is removed, so a failed run leaves no labels
    behind. A killed process may leave the directory."""
    import tempfile

    from .embeddings import _scene_embedding
    from .infill import InfillConfig
    from .pipeline import refine_labels
    from .prototypes import support_prototypes
    from .selection import SelectionConfig

    sel_cfg = SelectionConfig(tau=args.tau)
    inf_cfg = InfillConfig(delta=args.delta)
    manifest = load_manifest(Path(args.manifest))
    entries = _role_entries(manifest, "train")
    support = support_prototypes(*load_support(manifest))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    scene_reports = {}
    with tempfile.TemporaryDirectory(prefix=".partial-", dir=out) as staging:
        for entry in entries:
            with _scene_faults(entry):
                if not (entry.embedding and entry.raw_predictions and entry.base_labels):
                    raise ConfigError("lacks embedding/raw/base_labels")
                ply = manifest.resolve(entry.path)
                feats = _scene_embedding(ply, _vertex_count(ply), manifest.resolve(entry.embedding))
                raw = load_labels(manifest.resolve(entry.raw_predictions))
                base = load_labels(manifest.resolve(entry.base_labels))
                refined, report = refine_labels(
                    feats, raw, base, support, manifest.schema, sel_cfg, inf_cfg
                )
            save_labels(refined, Path(staging, f"{entry.scene_id}.npy"))
            del refined  # freed before the next scene is refined
            scene_reports[entry.scene_id] = report.to_dict()
        for scene_id in scene_reports:
            os.replace(Path(staging, f"{scene_id}.npy"), out / f"{scene_id}.npy")

    return {"tau": args.tau, "delta": args.delta, "scenes": scene_reports}, out / "report.json"


def cmd_mix(args) -> tuple[dict, None]:
    """Write each mixed train scene as <out>/<id>.ply; its document is printed only."""
    from .mix import MixConfig

    cfg = MixConfig(n_blocks=args.blocks, crop_margin_xy=args.margin, seed=args.seed)
    manifest = load_manifest(Path(args.manifest))
    entries = _role_entries(manifest, "train")
    support = load_support(manifest)[0]  # SupportSet checks the support labels
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, entry in enumerate(entries):
        _mix_scene(manifest, entry, support, cfg, np.random.default_rng([args.seed, i]),
                   out / f"{entry.scene_id}.ply")
    del support
    _return_freed_heap()
    return {"mixed_scenes": len(entries), "blocks": args.blocks}, None


def _mix_scene(manifest: Manifest, entry: SceneEntry, support: SupportSet, cfg: MixConfig,
               rng: np.random.Generator, path: Path) -> None:
    """save_scene(mix(scene, support, cfg, rng), path) for a manifest scene,
    with the base points, which mix never alters, copied from the PLY as
    read; the blocks read only the base's corners and floor, from its float32
    columns. The scene's buffers are freed on return, before cmd_mix reads
    the next one."""
    from .mix import _blocks

    source = manifest.resolve(entry.path)
    columns, labels, rec, _, _ = _read_geometry(source, manifest.schema.n_classes)
    del labels  # read only for its check
    blocks = _blocks(columns.T, support, cfg, rng)
    del columns
    _append_blocks(path, rec, blocks, source)


def cmd_stats(args) -> tuple[dict, str | None]:
    """Per-class statistics of the corpus' train and test scenes, for --out."""
    from . import benchmark

    manifest = load_manifest(Path(args.manifest))
    # Only the checked labels outlive each read: no scene is built.
    labels = (_read_geometry(manifest.resolve(e.path), manifest.schema.n_classes)[1]
              for e in _role_entries(manifest, "train", "test"))
    stats = benchmark._label_stats(labels, manifest.schema)
    return {"count_mode": "scenes", "classes": stats.to_dict()}, args.out


def cmd_split(args) -> tuple[dict, str | None]:
    """The base/novel class schema built from a stats file, for --out."""
    from . import benchmark

    path = Path(args.stats)
    try:
        doc = json.loads(path.read_bytes())
        stats = benchmark.ClassStats.from_dict(doc["classes"] if "classes" in doc else doc)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed stats file: {type(exc).__name__}: {exc}") from exc
    schema = benchmark.build_split(
        stats, benchmark.SplitSpec(freq_threshold=args.threshold, n_base=args.base)
    )
    return {"schema": schema.to_dict()}, args.out


def _truth_labels(manifest: Manifest, entry: SceneEntry, grid: VoxelConfig | None) -> np.ndarray:
    """The ground-truth labels eval scores for a manifest scene, per point or
    per voxel cell of grid, equal to voxelize(load_scene(path), grid).labels.
    No float64 positions or scene are built. Only the cell keys and the
    file's int32 labels are alive at the vote: the vertex record (and with
    it the file's mapping) and the columns are freed first, and the ranges
    the read took are not taken again."""
    columns, labels, rec, extremes, (lo, hi) = _read_geometry(manifest.resolve(entry.path),
                                                              manifest.schema.n_classes)
    del rec
    if grid is None:
        return labels
    with _scene_faults(entry):  # a voxel fault names the scene
        key, n_keys = _cell_keys(columns, grid.grid_size, extremes)
        del columns
        return _majority_labels(key, n_keys, labels, lo, hi)


def cmd_eval(args) -> tuple[dict, str | None]:
    """Scores of --pred-dir against the role's ground truth, for --out. The
    table is printed here, before main prints the document."""
    from . import metrics

    # Checked before any file is read: a negative, NaN or infinite grid is a ConfigError.
    grid = None if args.grid == 0 else VoxelConfig(grid_size=args.grid)
    if grid is not None:
        _return_freed_heap()
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
    print(result.table())
    iou = {str(c): v for c, v in metrics.iou_per_class(conf).items()}
    return {"metrics": result.to_dict(), "per_class_iou": iou}, args.out


if __name__ == "__main__":
    sys.exit(main())
