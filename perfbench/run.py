"""Benchmark of the pcrefine CLI, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and bounds are listed in BENCHMARK.json beside this
directory. Each workload is a closed loop with one client: set-up builds a
seeded corpus and reference outputs in a child process (several rounds, the
median is `setup_s`), a warm-up cycle runs, and then command cycles run one
after another for S seconds. Times are CPU seconds (user + system, all
threads, child processes included): on a shared virtual machine they leave
out the time the hypervisor steals, which swings wall time by tens of
percent from minute to minute. Wall times are recorded beside them. Every command's outputs are checked against the
references. With --trace 0 the end-to-end metrics are printed; with --trace 1
untraced and traced cycles alternate and the per-layer metrics are printed.
The last line of stdout is the JSON result; the line before it records the
machine and the corpus. Files go to .perfbench_work/ in the checkout; the
corpus is removed at exit, span dumps of traced runs are kept.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up rounds per workload: as many as fit in the run's time budget.
SETUP_ROUNDS = {"refine_corpus": 2, "cli_cold": 3, "geometry": 2}
IMPORT_PROBES = 5
# The console script `pcrefine` is exactly this.
CONSOLE = "import sys; from pcrefine.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import json, sys, time; before = set(sys.modules); t = time.perf_counter(); "
    "import pcrefine.cli; dt = time.perf_counter() - t; "
    "new = set(sys.modules) - before; "
    "print(json.dumps({'s': dt, 'modules': len(new), "
    "'scipy': sum(1 for m in new if m == 'scipy' or m.startswith('scipy.'))}))"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="corpus size; tiny is for the smoke test")
    p.add_argument("--setup-into", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cpu_seconds() -> float:
    """CPU time used so far by this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# --------------------------------------------------------------------------
# Executing commands


class InProcess:
    """Calls pcrefine.cli.main in this process; peak RSS is this process's."""

    def __init__(self):
        from pcrefine.cli import main

        self.main = main

    def run(self, argv, traced, scratch):
        recorder = None
        if traced:
            recorder = tracer.Tracer()
            recorder.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.main(argv)
        except Exception:  # an uncaught crash is a failed command, not a failed run
            traceback.print_exc()
            code = None
        finally:
            wall = time.perf_counter() - start
            if recorder is not None:
                recorder.uninstall()
        return {"code": code, "wall": wall,
                "spans": recorder.spans if recorder else None,
                "absent": recorder.absent if recorder else []}

    def peak_rss_mb(self, results):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Subprocess:
    """Runs each command as a fresh `pcrefine` process."""

    def __init__(self):
        self.env = child_env()

    def run(self, argv, traced, scratch):
        spans_path = scratch / "spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-c", CONSOLE, *argv]
        with open(scratch / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            sys.stderr.write((scratch / "stderr.txt").read_text())
        result = {"code": code, "wall": wall, "rss_kb": usage.ru_maxrss,
                  "spans": None, "absent": []}
        if traced and spans_path.exists():
            dump = json.loads(spans_path.read_text())
            result["spans"], result["absent"] = dump["spans"], dump["absent"]
            spans_path.unlink()
        return result

    def peak_rss_mb(self, results):
        return max(r["rss_kb"] for r in results) / 1024


# --------------------------------------------------------------------------
# One workload run


class Run:
    def __init__(self, args, setup_dir: Path, out: Path):
        import corpus

        self.args = args
        self.corpus_dir = setup_dir / "corpus"
        self.ref = setup_dir / "reference"
        self.bench = json.loads((setup_dir / "bench.json").read_text())
        self.out = out
        manifest = str(self.corpus_dir / "manifest.json")
        eval_json = str(out / "eval.json")
        if args.workload == "geometry":
            self.build_out = out / "mixed"
            build = ["mix", "--manifest", manifest, "--out", str(self.build_out),
                     "--blocks", str(corpus.MIX_BLOCKS), "--margin", str(corpus.MIX_MARGIN),
                     "--seed", str(args.seed)]
            evaluate = ["eval", "--manifest", manifest, "--pred-dir",
                        str(self.corpus_dir / "pred"), "--grid", str(corpus.GRID),
                        "--out", eval_json]
        else:
            self.build_out = out / "refined"
            build = ["refine", "--manifest", manifest, "--out", str(self.build_out),
                     "--tau", str(corpus.TAU), "--delta", str(corpus.DELTA)]
            evaluate = ["eval", "--manifest", manifest, "--pred-dir", str(self.build_out),
                        "--out", eval_json]
        self.commands = [("build", build), ("eval", evaluate)]
        self.points = sum(self.bench["points"].values())

    def cycle(self, executor, traced):
        results = []
        for kind, argv in self.commands:
            if kind == "build":
                shutil.rmtree(self.build_out, ignore_errors=True)
            else:
                (self.out / "eval.json").unlink(missing_ok=True)
            cpu = cpu_seconds()
            result = executor.run(argv, traced, self.out)
            result["cpu"] = cpu_seconds() - cpu
            result["kind"] = kind
            result["ok"] = result["code"] == 0 and self.check(kind, result)
            results.append(result)
        return results

    def check(self, kind, result) -> bool:
        """Compare a command's outputs with the set-up references."""
        try:
            if kind == "eval":
                doc = json.loads((self.out / "eval.json").read_text())
                result["hiou"] = doc["metrics"]["harmonic_mean"]
                ref = self.bench["eval"]
                return doc["metrics"] == ref["metrics"] and doc["per_class_iou"] == ref["per_class_iou"]
            if self.args.workload == "geometry":
                return all(
                    (self.build_out / f"{sid}.ply").read_bytes()
                    == (self.ref / f"mixed/{sid}.ply").read_bytes()
                    for sid in self.bench["points"]
                )
            n_classes = self.bench["n_classes"]
            for sid, n in self.bench["points"].items():
                labels = np.load(self.build_out / f"{sid}.npy")
                expected = np.load(self.ref / f"refined/{sid}.npy")
                if labels.shape != (n,) or labels.dtype != expected.dtype:
                    return False
                if labels.min() < -1 or labels.max() >= n_classes:
                    return False
                if not np.array_equal(labels, expected):
                    return False
            result["report"] = json.loads((self.build_out / "report.json").read_text())
            return True
        except (OSError, ValueError, KeyError) as exc:
            print(f"perfbench: {kind} output check failed: {exc!r}", file=sys.stderr)
            return False


def run_setup_round(args, dest: Path) -> dict:
    shutil.rmtree(dest, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-into", str(dest),
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    start, cpu = time.perf_counter(), cpu_seconds()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up failed with exit code {proc.returncode}")
    return {"cpu": cpu_seconds() - cpu, "wall": time.perf_counter() - start}


def speed_probe_ms() -> float:
    """Median of a fixed 600x600 float64 matmul, in ms: records machine drift."""
    a = np.random.default_rng(0).standard_normal((600, 600))
    times = []
    for _ in range(15):
        start = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def machine_info() -> dict:
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l3": l3.read_text().strip() if l3.exists() else "unknown",
    }


def import_probe() -> dict:
    """`import pcrefine.cli` in fresh interpreters: median seconds, module counts."""
    runs = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                             text=True, env=child_env(), cwd=ROOT, check=True).stdout
        runs.append(json.loads(out.strip().splitlines()[-1]))
    return {
        "cli.import_s": statistics.median(r["s"] for r in runs),
        "cli.import_modules": runs[0]["modules"],
        "cli.import_scipy_modules": runs[0]["scipy"],
    }


# --------------------------------------------------------------------------
# Metrics


def end_to_end(run: Run, executor, cycles, setup_s: float) -> dict:
    results = [r for cycle in cycles for r in cycle]
    cpu = {kind: [r["cpu"] for r in results if r["kind"] == kind] for kind in ("build", "eval")}
    hious = [r["hiou"] for r in results if "hiou" in r]
    return {
        "setup_s": setup_s,
        "build_cpu_s_p50": statistics.median(cpu["build"]),
        "eval_cpu_s_p50": statistics.median(cpu["eval"]),
        "points_per_cpu_s": run.points * len(results) / sum(r["cpu"] for r in results),
        "peak_rss_mb": executor.peak_rss_mb(results),
        "eval_hiou": hious[0] if hious else 0.0,
        "success_rate": sum(r["ok"] for r in results) / len(results),
    }


def layer_table(cycle) -> dict:
    """Per traced function: calls, self seconds and counters over one cycle."""
    table = defaultdict(lambda: defaultdict(int))
    keys = defaultdict(set)
    for result in cycle:
        spans = result["spans"] or []
        for span, self_s in zip(spans, tracer.self_times(spans)):
            row = table[span["name"]]
            row["calls"] += 1
            row["self_s"] += self_s
            for counter, value in span.get("counts", {}).items():
                if counter == "key":
                    keys[span["name"]].add(value)
                else:
                    row[counter] += value
    for name, distinct in keys.items():
        table[name]["distinct_ratio"] = len(distinct) / table[name]["calls"]
    return table


def per_layer(run: Run, cycles, traced_flags, names) -> dict:
    traced = [c for c, t in zip(cycles, traced_flags) if t]
    untraced = [c for c, t in zip(cycles, traced_flags) if not t]
    tables = [layer_table(c) for c in traced]
    metrics = import_probe()

    def cycle_cpu(cycle):
        return sum(r["cpu"] for r in cycle)

    metrics["trace.overhead_s"] = (statistics.median(map(cycle_cpu, traced))
                                   - statistics.median(map(cycle_cpu, untraced)))
    commands = [r for c in traced for r in c]
    in_spans = sum((s["end"] - s["start"]) / 1e9
                   for r in commands for s in (r["spans"] or []) if s["parent"] is None)
    metrics["trace.outside_share"] = 1.0 - in_spans / sum(r["wall"] for r in commands)

    reports = [r["report"] for r in commands if "report" in r]
    kept = attempted = assigned = unlabeled = 0
    for report in reports:
        for sid, scene in report["scenes"].items():
            kept += len(scene["kept_classes"])
            attempted += len(scene["kept_classes"]) + len(scene["filtered_classes"])
            assigned += scene["infilled_points"]
            unlabeled += run.bench["unlabeled_base"][sid] - scene["selected_points"]
    metrics["selection.kept_ratio"] = kept / attempted if attempted else 0.0
    metrics["infill.assigned_ratio"] = assigned / unlabeled if unlabeled else 0.0

    for name in names:
        if name not in metrics:
            function, stat = name.rsplit(".", 1)
            values = [t[function][stat] if function in t else 0 for t in tables]
            # Counts repeat exactly from cycle to cycle; times take the median.
            metrics[name] = statistics.median(values) if stat.endswith(("_s", "_ratio")) else values[0]
    return metrics


# --------------------------------------------------------------------------


def run_workload(args, spec: dict) -> int:
    work = WORK / f"{args.workload}-{os.getpid()}"
    setup_dir, out = work / "setup", work / "out"
    try:
        out.mkdir(parents=True)
        info = {"workload": args.workload, "why": spec["why"][args.workload], "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, **machine_info(),
                "speed_probe_ms_before": speed_probe_ms()}
        rounds = [run_setup_round(args, setup_dir) for _ in range(SETUP_ROUNDS[args.workload])]

        start, cpu = time.perf_counter(), cpu_seconds()
        executor = Subprocess() if args.workload == "cli_cold" else InProcess()
        run = Run(args, setup_dir, out)
        warmup = run.cycle(executor, traced=False)
        warmup_s = {"cpu": cpu_seconds() - cpu, "wall": time.perf_counter() - start}

        cycles, traced_flags = [], []
        deadline = time.perf_counter() + args.seconds
        while len(cycles) < 1 + args.trace or time.perf_counter() < deadline:
            traced = bool(args.trace) and len(cycles) % 2 == 1
            cycles.append(run.cycle(executor, traced))
            traced_flags.append(traced)

        results = [r for cycle in cycles for r in cycle]
        failed = sum(not r["ok"] for r in results)
        if args.trace:
            metrics = per_layer(run, cycles, traced_flags, spec["per_layer"])
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            (traces / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
                [[{"argv": run.commands[i][1], "wall": r["wall"], "spans": r["spans"]}
                  for i, r in enumerate(c)] for c in cycles]))
        else:
            setup_s = statistics.median(r["cpu"] for r in rounds) + warmup_s["cpu"]
            metrics = end_to_end(run, executor, cycles, setup_s)
        info.update({
            "corpus": {"params": run.bench["params"], "points": run.points},
            "setup_rounds_s": rounds, "warmup_s": warmup_s,
            "samples_s": {kind: [{"cpu": r["cpu"], "wall": r["wall"]}
                                 for r in results if r["kind"] == kind]
                          for kind in ("build", "eval")},
            "warmup_ok": all(r["ok"] for r in warmup),
            "error_rate": failed / len(results),
            "absent": sorted({a for r in results for a in r["absent"]}),
            "speed_probe_ms_after": speed_probe_ms(),
        })
        print(json.dumps({"run_info": info}))
        units = spec["units"]
        print(json.dumps({
            "correct": failed == 0 and info["warmup_ok"],
            "attempted": len(results),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pcrefine" / "cli.py").is_file():
        print(f"perfbench: no pcrefine sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_into:
        import corpus

        corpus.build(args.workload, args.seed, args.size, Path(args.setup_into))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["why"] = {w["name"]: w["why"] for w in spec["workloads"]}
    spec["units"] = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    spec["per_layer"] = [m["name"] for m in spec["per_layer"]]
    if args.workload not in spec["why"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
