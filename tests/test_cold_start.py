"""What only a fresh interpreter shows: which modules each CLI command
loads, the OpenBLAS thread count it starts with, the exit status and stderr
of `python -m pcrefine.cli`, and the bytes a chain of CLI processes writes.

No command loads scipy, simulate --erosion included, and the chain runs
and writes the same bytes when scipy cannot be imported at all.
Importing the CLI loads no third-party package but numpy, and each command
loads only the pcrefine layers it runs.
The test process has scipy loaded already, so every check runs in a new
`sys.executable` with `PYTHONPATH` pointing at this checkout's `src`.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcrefine.cli import EXIT_CONTRACT, EXIT_IO, EXIT_OK, main

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys
import pcrefine, pcrefine.cli
argv = json.loads(sys.argv[1])
code = pcrefine.cli.main(argv) if argv else 0
loaded = {top: sorted(m for m in sys.modules if m.split(".")[0] == top)
          for top in ("scipy", "pcrefine")}
with open(sys.argv[2], "w") as f:
    json.dump({"code": code, **loaded}, f)
"""


# The top-level packages outside the standard library loaded once the CLI
# is imported. The child runs with -S, so no site .pth hook preloads any,
# and finds packages on this process's sys.path.
THIRD_PARTY = """
import json, sys
import pcrefine.cli
top = {m.split(".")[0] for m in sys.modules} - {"__main__"}
print(json.dumps(sorted(top - set(sys.stdlib_module_names))))
"""


def test_cli_import_loads_only_numpy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, sys.path)])}
    out = subprocess.run([sys.executable, "-S", "-c", THIRD_PARTY], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert set(json.loads(out)) == {"numpy", "pcrefine"}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cold")
    assert main(["simulate", "--out", str(root / "corpus"), "--scenes", "2",
                 "--support-scenes", "2", "--dim", "16", "--erosion", "0.2"]) == EXIT_OK
    manifest = str(root / "corpus" / "manifest.json")
    assert main(["refine", "--manifest", manifest, "--out", str(root / "refined")]) == EXIT_OK
    assert main(["stats", "--manifest", manifest, "--out", str(root / "stats.json")]) == EXIT_OK
    return root


COMMANDS = {
    "import": [],
    "eval": ["eval", "--manifest", "corpus/manifest.json", "--pred-dir", "refined"],
    "mix": ["mix", "--manifest", "corpus/manifest.json", "--out", "mixed"],
    "stats": ["stats", "--manifest", "corpus/manifest.json"],
    "split": ["split", "--stats", "stats.json", "--threshold", "1", "--base", "2"],
    "simulate-no-erosion": ["simulate", "--out", "sim0", "--scenes", "1", "--support-scenes",
                            "1", "--dim", "16"],
    "simulate-erosion": ["simulate", "--out", "sim1", "--scenes", "1", "--support-scenes", "1",
                         "--dim", "16", "--erosion", "0.2"],
    "refine": ["refine", "--manifest", "corpus/manifest.json", "--out", "refined2"],
}


@pytest.fixture(scope="module")
def loaded_after(corpus):
    """The scipy and pcrefine modules a fresh interpreter has loaded once
    `main` returns from a command of COMMANDS, by top-level package; each
    command runs once."""
    runs = {}

    def loaded(command):
        if command not in runs:
            result = corpus / "child.json"
            env = {**os.environ, "PYTHONPATH": str(SRC)}
            subprocess.run([sys.executable, "-c", CHILD, json.dumps(COMMANDS[command]),
                            str(result)], env=env, cwd=corpus, check=True,
                           stdout=subprocess.DEVNULL)
            doc = json.loads(result.read_text())
            assert doc["code"] == EXIT_OK
            runs[command] = {top: set(doc[top]) for top in ("scipy", "pcrefine")}
        return runs[command]

    return loaded


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_loads_no_scipy(loaded_after, command):
    assert loaded_after(command)["scipy"] == set()


# The layers every CLI process loads: main and eval share errors, scene and
# scene_io. Each command adds only the layers it runs.
CLI_BASE = {"cli", "errors", "scene", "scene_io"}
COMMAND_LAYERS = {
    "import": set(),
    "eval": {"metrics"},
    "mix": {"mix", "prototypes", "embeddings"},  # PLYs are written through embeddings._replacing
    "stats": {"benchmark"},
    "split": {"benchmark"},
    "simulate-no-erosion": {"sim", "prototypes", "embeddings"},
    "simulate-erosion": {"sim", "prototypes", "embeddings"},
    "refine": {"embeddings", "prototypes", "selection", "infill", "pipeline"},
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_loads_only_its_layers(loaded_after, command):
    want = {"pcrefine", *(f"pcrefine.{m}" for m in CLI_BASE | COMMAND_LAYERS[command])}
    assert loaded_after(command)["pcrefine"] == want


# pcrefine sets OpenBLAS to one thread when it loads, unless the caller chose a
# count. The variable is removed from the child's env on purpose: this process
# holds "1" once it imports pcrefine, so an inherited env would prove nothing.
BLAS_CHILD = """
import json, os
import pcrefine.cli
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as f:
        threads = next(int(line.split()[1]) for line in f if line.startswith("Threads:"))
print(json.dumps({"value": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": threads}))
"""


# numpy reads OPENBLAS_NUM_THREADS once, when it loads: a finder ahead of the
# import system's records the variable at the moment numpy is first imported.
BLAS_AT_NUMPY = """
import json, os, sys
assert "numpy" not in sys.modules
seen = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Watch())
import pcrefine
loaded = "numpy" in sys.modules
pcrefine.PointCloudScene
print(json.dumps({"at_numpy": seen[:1], "numpy_at_import": loaded}))
"""


def test_package_import_sets_blas_threads_before_numpy_loads():
    # `import pcrefine` loads no layer, so numpy loads with the first public name.
    out = subprocess.run([sys.executable, "-c", BLAS_AT_NUMPY], env=env_with_blas_threads(None),
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == {"at_numpy": ["1"], "numpy_at_import": False}


def env_with_blas_threads(value):
    """This process's env with src on PYTHONPATH and OPENBLAS_NUM_THREADS set to
    `value`, or removed when it is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    return env


@pytest.mark.parametrize("caller, want", [(None, "1"), ("2", "2")], ids=["unset", "caller-set"])
def test_cli_import_sets_one_blas_thread_unless_caller_did(caller, want):
    out = subprocess.run([sys.executable, "-c", BLAS_CHILD], env=env_with_blas_threads(caller),
                         check=True, capture_output=True, text=True).stdout
    doc = json.loads(out)
    assert doc["value"] == want
    if caller is None:
        if doc["threads"] is None:
            pytest.skip("no /proc/self/status to count the process's threads")
        assert doc["threads"] == 1


CONSOLE = "import sys; from pcrefine.cli import main; sys.exit(main())"
# eval --grid scores one label per voxel: the refined labels' majority in each cell.
VOXEL_PREDICTIONS = """
import os
import numpy as np
from pcrefine import PointCloudScene, VoxelConfig, load_manifest, load_scene, voxelize
from pcrefine.scene_io import load_labels
manifest = load_manifest("corpus/manifest.json")
os.mkdir("pred_grid")
for entry in manifest.entries("train"):
    scene = load_scene(manifest.resolve(entry.path))
    refined = PointCloudScene(scene.positions, load_labels(f"refined/{entry.scene_id}.npy"))
    np.save(f"pred_grid/{entry.scene_id}.npy", voxelize(refined, VoxelConfig(0.05)).labels)
"""


# The sha256 of every file the default-thread chain writes, and of each
# command's stdout. An output changed on purpose: paste the dict the failing
# test prints over this file.
GOLDEN = Path(__file__).with_name("golden.json")


# The simulate -> refine -> eval head of the chain, and the files it writes.
HEAD = (
    ["simulate", "--out", "corpus", "--scenes", "2", "--dim", "64",
     "--erosion", "0.2", "--flip", "0.05", "--seed", "7"],
    ["refine", "--manifest", "corpus/manifest.json", "--out", "refined"],
    ["eval", "--manifest", "corpus/manifest.json", "--pred-dir", "refined", "--out", "eval.json"],
)
HEAD_OUTPUTS = ("corpus/", "refined/", "eval.json")


def written_under(root):
    """Every file under `root`, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def chain_outputs(root, blas_threads):
    """Every file a simulate -> refine -> eval, eval --grid, mix, stats ->
    split chain of fresh processes writes under `root`, by relative path,
    and each command's stdout, as stdout/<step>, with the given OpenBLAS
    setting."""
    env = env_with_blas_threads(blas_threads)
    stdout = {}
    for step, args in (
        *((argv[0], [CONSOLE, *argv]) for argv in HEAD),
        (None, [VOXEL_PREDICTIONS]),
        ("eval_grid", [CONSOLE, "eval", "--manifest", "corpus/manifest.json",
                       "--pred-dir", "pred_grid", "--grid", "0.05", "--out", "eval_grid.json"]),
        ("mix", [CONSOLE, "mix", "--manifest", "corpus/manifest.json", "--out", "mixed",
                 "--blocks", "3"]),
        ("stats", [CONSOLE, "stats", "--manifest", "corpus/manifest.json", "--out", "stats.json"]),
        ("split", [CONSOLE, "split", "--stats", "stats.json", "--threshold", "1", "--base", "2",
                   "--out", "split.json"]),
    ):
        run = subprocess.run([sys.executable, "-c", *args], env=env, cwd=root, check=True,
                             stdout=subprocess.PIPE)
        if step is not None:
            stdout[f"stdout/{step}"] = run.stdout
    return {**written_under(root), **stdout}


@pytest.fixture(scope="module")
def default_chain(tmp_path_factory):
    return chain_outputs(tmp_path_factory.mktemp("default"), None)


def test_outputs_match_golden_digests(default_chain):
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in default_chain.items()}
    assert digests == json.loads(GOLDEN.read_text()), json.dumps(digests, indent=2)


def test_chain_head_without_scipy_writes_golden_bytes(tmp_path):
    # A None entry in sys.modules makes every import of scipy or a submodule fail.
    no_scipy = f'import sys; sys.modules["scipy"] = None; {CONSOLE}'
    for argv in HEAD:
        subprocess.run([sys.executable, "-c", no_scipy, *argv], env=env_with_blas_threads(None),
                       cwd=tmp_path, check=True, stdout=subprocess.DEVNULL)
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in written_under(tmp_path).items()}
    golden = json.loads(GOLDEN.read_text())
    assert digests == {name: digest for name, digest in golden.items()
                       if name.startswith(HEAD_OUTPUTS)}


def test_outputs_do_not_depend_on_blas_thread_count(default_chain, tmp_path):
    # simulate's QR in class_anchors and the 1-D dot products are the BLAS calls left.
    threaded = chain_outputs(tmp_path, "2")
    assert threaded.keys() == default_chain.keys()
    assert [name for name in default_chain if threaded[name] != default_chain[name]] == []


# What only a fresh process shows: the status `python -m pcrefine.cli` exits
# with, and a stderr whose last line is the JSON error object (warnings may
# come before it) and that holds no traceback.
@pytest.mark.parametrize("argv, code, error", [
    (["eval", "--manifest", "corpus/manifest.json", "--pred-dir", "refined"], EXIT_OK, None),
    (["refine", "--manifest", "corpus/manifest.json", "--out", "bad_tau", "--tau", "abc"],
     EXIT_CONTRACT, "ConfigError"),
    # A stats document read as a manifest: it has no schema.
    (["eval", "--manifest", "stats.json", "--pred-dir", "refined"], EXIT_IO, "FormatError"),
], ids=["ok", "flag-fault", "format-fault"])
def test_module_entry_point_exit_status(corpus, argv, code, error):
    run = subprocess.run([sys.executable, "-m", "pcrefine.cli", *argv],
                         env=env_with_blas_threads(None), cwd=corpus,
                         capture_output=True, text=True)
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr
    if error is None:
        assert run.stderr == ""
    else:
        doc = json.loads(run.stderr.splitlines()[-1])
        assert doc.keys() == {"error", "version"} and doc["version"] == 1
        assert doc["error"].keys() == {"type", "message"} and doc["error"]["type"] == error
