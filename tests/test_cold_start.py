"""Which scipy modules each CLI command loads, checked in a fresh interpreter.

scipy is imported at one call site only, the k-d tree of simulated
erosion, so every other command, refine included, starts without it.
The test process has scipy loaded already, so every check runs in a new
`sys.executable` with `PYTHONPATH` pointing at this checkout's `src`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcrefine.cli import EXIT_OK, main

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys
import pcrefine, pcrefine.cli
argv = json.loads(sys.argv[1])
code = pcrefine.cli.main(argv) if argv else 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
with open(sys.argv[2], "w") as f:
    json.dump({"code": code, "scipy": loaded}, f)
"""


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cold")
    assert main(["simulate", "--out", str(root / "corpus"), "--scenes", "2",
                 "--support-scenes", "2", "--dim", "16", "--erosion", "0.2"]) == EXIT_OK
    manifest = str(root / "corpus" / "manifest.json")
    assert main(["refine", "--manifest", manifest, "--out", str(root / "refined")]) == EXIT_OK
    assert main(["stats", "--manifest", manifest, "--out", str(root / "stats.json")]) == EXIT_OK
    return root


def scipy_after(root, argv):
    """The scipy modules loaded by a fresh interpreter running `main(argv)`."""
    result = root / "child.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv), str(result)],
                   env=env, cwd=root, check=True, stdout=subprocess.DEVNULL)
    doc = json.loads(result.read_text())
    assert doc["code"] == EXIT_OK
    return set(doc["scipy"])


@pytest.mark.parametrize("argv", [
    [],
    ["eval", "--manifest", "corpus/manifest.json", "--pred-dir", "refined"],
    ["mix", "--manifest", "corpus/manifest.json", "--out", "mixed"],
    ["stats", "--manifest", "corpus/manifest.json"],
    ["split", "--stats", "stats.json", "--threshold", "1", "--base", "2"],
    ["simulate", "--out", "sim0", "--scenes", "1", "--support-scenes", "1", "--dim", "16"],
    ["refine", "--manifest", "corpus/manifest.json", "--out", "refined2"],
], ids=["import", "eval", "mix", "stats", "split", "simulate-no-erosion", "refine"])
def test_command_loads_no_scipy(corpus, argv):
    assert scipy_after(corpus, argv) == set()


def test_simulate_with_erosion_loads_scipy_spatial(corpus):
    loaded = scipy_after(corpus, ["simulate", "--out", "sim1", "--scenes", "1",
                                  "--support-scenes", "1", "--dim", "16",
                                  "--erosion", "0.2"])
    assert "scipy.spatial" in loaded
