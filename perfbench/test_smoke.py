"""Smoke test of the benchmark: every workload at tiny size, plus the tracer.

Run from the checkout root: python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import tracer  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench/run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def run(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = run(workload, 0)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat(workload):
    first, second = run(workload, 1)["metrics"], run(workload, 1)["metrics"]
    assert sorted(first) == sorted(m["name"] for m in SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_reports_absent_function_and_self_time(monkeypatch):
    import pcrefine
    from pcrefine import cli, pipeline

    infill = sys.modules["pcrefine.infill"]  # the package's `infill` is the function

    monkeypatch.setitem(tracer.TARGETS, "selection", ("removed_function",))
    original, original_cosine = pipeline.refine_labels, infill.pairwise_cosine
    t = tracer.Tracer()
    t.install()
    try:
        # Rebound at every module attribute bound to it, the package's too.
        assert cli.refine_labels is pipeline.refine_labels is pcrefine.refine_labels
        assert pipeline.refine_labels is not original
        assert infill.pairwise_cosine is not original_cosine  # called within its module
    finally:
        t.uninstall()
    assert cli.refine_labels is pipeline.refine_labels is original
    assert infill.pairwise_cosine is original_cosine
    assert t.absent == ["selection.removed_function"]

    spans = [{"start": 0, "end": 10, "parent": None},
             {"start": 2, "end": 5, "parent": 0},
             {"start": 6, "end": 8, "parent": 0}]
    assert tracer.self_times(spans) == [5e-9, 3e-9, 2e-9]
