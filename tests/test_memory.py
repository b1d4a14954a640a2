"""Per-scene memory of the commands that loop over a manifest's scenes.

mix, stats and eval hold one scene at a time, so listing one PLY under
three scene ids must not raise a command's peak much above the peak with
one id. Peaks are traced by tracemalloc, which sees numpy's buffers and
Python's bytes objects, but not a mapped file's pages. eval --grid hands
the heap freed before it back to the OS before it reads a scene, and mix
once its scenes are written.
"""

import contextlib
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import pcrefine.cli as cli_module
import pcrefine.scene as scene_module
from pcrefine import PointCloudScene, VoxelConfig, voxelize
from pcrefine.cli import EXIT_OK, main
from pcrefine.scene_io import Manifest, SceneEntry, load_manifest, save_labels, save_manifest, save_scene

N_POINTS = 180_000


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A simulated corpus (for its schema and support set) whose manifests
    list one coloured PLY of N_POINTS points under 1 and under 3 scene ids,
    with a prediction file at grid 0.05 for each id."""
    root = tmp_path_factory.mktemp("memory")
    with contextlib.redirect_stdout(None):
        assert main(["simulate", "--out", str(root), "--scenes", "1", "--support-scenes", "4",
                     "--seed", "5"]) == EXIT_OK
    schema = load_manifest(root / "manifest.json").schema
    rng = np.random.default_rng(11)
    scene = PointCloudScene(rng.uniform(0, [12.0, 12.0, 3.0], size=(N_POINTS, 3)),
                            rng.integers(-1, schema.n_classes, size=N_POINTS),
                            rng.uniform(0, 1, size=(N_POINTS, 3)))
    save_scene(scene, root / "big.ply")
    truth = voxelize(scene, VoxelConfig(0.05)).labels
    (root / "pred").mkdir()
    for count in (1, 3):
        entries = [SceneEntry(scene_id=f"big_{i}", path="big.ply", role="train") for i in range(count)]
        save_manifest(Manifest(schema, entries, support="support.json", root=root),
                      root / f"big_{count}.json")
    for i in range(3):
        save_labels(truth, root / "pred" / f"big_{i}.npy")
    return root


def argv(corpus, command, count):
    args = {"mix": ["--out", str(corpus / f"mixed_{count}")],
            "stats": [],
            "eval": ["--pred-dir", str(corpus / "pred"), "--grid", "0.05"]}[command]
    return [command, "--manifest", str(corpus / f"big_{count}.json"), *args]


def traced_peak(argv):
    """The peak traced memory of one main(argv) run, in bytes."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(None):
            assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["mix", "stats", "eval"])
def test_peak_does_not_grow_with_scene_count(corpus, command):
    main(argv(corpus, command, 1))  # a warm run, so lazy imports are not counted
    one = traced_peak(argv(corpus, command, 1))
    three = traced_peak(argv(corpus, command, 3))
    assert three <= 1.15 * one, f"{command}: {three / 1e6:.1f} MB for 3 scenes, {one / 1e6:.1f} MB for 1"


def test_eval_grid_votes_with_the_record_and_columns_freed(corpus, monkeypatch):
    args = argv(corpus, "eval", 1)
    main(args)
    peak = traced_peak(args)
    # At the vote, neither the vertex record (which holds the file's bytes
    # or its mapping) nor the float32 columns may be alive.
    read, alive = [], []
    read_geometry, majority_labels = cli_module._read_geometry, scene_module._majority_labels

    def reading(*args):
        columns, labels, rec, extremes, ranges = read_geometry(*args)
        read.append((weakref.ref(columns), weakref.ref(rec)))
        return columns, labels, rec, extremes, ranges

    def voting(*args):
        alive.extend(ref() is not None for refs in read for ref in refs)
        return majority_labels(*args)

    monkeypatch.setattr(cli_module, "_read_geometry", reading)
    monkeypatch.setattr(scene_module, "_majority_labels", voting)
    monkeypatch.setattr(cli_module, "_majority_labels", voting)
    with contextlib.redirect_stdout(None):
        assert main(args) == EXIT_OK
    assert alive == [False, False]
    # Kept alive through the vote, the columns raise the traced peak by
    # about their size.
    pinned = []

    def pinning(*args):
        pinned.append(read_geometry(*args))
        return pinned[-1]

    monkeypatch.setattr(cli_module, "_read_geometry", pinning)
    assert traced_peak(args) - peak >= 0.8 * N_POINTS * 12


def test_freed_heap_returned_before_eval_reads_and_after_mix_writes(corpus, monkeypatch):
    # eval --grid before its first scene is read, so its vote does not land
    # among what came before it; mix once its last scene is written and its
    # support set is gone, so whatever reads the mixed PLYs next does not
    # land among mix's freed buffers.
    out = corpus / "mixed_trim"
    calls, supports, reads = [], [], []
    load_support, read_geometry = cli_module.load_support, cli_module._read_geometry

    def loading(manifest):
        support, provider = load_support(manifest)
        supports.append(weakref.ref(support))
        return support, provider

    def reading(*args):
        reads.append(args[0])
        return read_geometry(*args)

    monkeypatch.setattr(cli_module, "load_support", loading)
    monkeypatch.setattr(cli_module, "_read_geometry", reading)
    monkeypatch.setattr(cli_module, "_return_freed_heap", lambda: calls.append(
        (len(reads), sorted(p.name for p in out.iterdir()), supports[0]() is None)))
    with contextlib.redirect_stdout(None):
        assert main(["mix", "--manifest", str(corpus / "big_3.json"), "--out", str(out)]) == EXIT_OK
        assert main(argv(corpus, "eval", 3)) == EXIT_OK
        # Without a grid eval votes nothing, and leaves the heap as it is.
        assert main(["eval", "--manifest", str(corpus / "manifest.json"),
                     "--pred-dir", str(corpus / "raw")]) == EXIT_OK
    mixed = ["big_0.ply", "big_1.ply", "big_2.ply"]
    assert calls == [(3, mixed, True), (3, mixed, True)]


TRIM_PROBE = """
import numpy as np
import pcrefine.cli as cli

def anon_mb():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) / 1024

np.ones(2 << 20).sum()  # a freed 16 MB mapping: glibc now serves smaller blocks from the heap
blocks = [np.ones(1 << 17) for _ in range(24)]  # 24 MB
pin = np.ones(1 << 17)  # allocated above them, so free() cannot shrink the heap
del blocks
before = anon_mb()
cli._return_freed_heap()
print(before - anon_mb())
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"),
                    reason="malloc_trim is glibc's")
def test_return_freed_heap_releases_a_hole_below_a_live_block():
    # In a fresh interpreter, so no earlier test's heap is in the way.
    env = {**os.environ, "PYTHONPATH": str(Path(cli_module.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", TRIM_PROBE], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert float(out) >= 20, f"{out.strip()} MB returned of 24"


def test_stats_reads_no_more_than_mix(corpus):
    # stats keeps only each scene's int32 labels; it builds no scene, whose
    # float64 positions and colours alone take 48 B a point.
    for command in ("mix", "stats"):
        main(argv(corpus, command, 1))
    mix_peak = traced_peak(argv(corpus, "mix", 1))
    stats_peak = traced_peak(argv(corpus, "stats", 1))
    assert stats_peak <= mix_peak, f"stats {stats_peak / 1e6:.2f} MB, mix {mix_peak / 1e6:.2f} MB"


def test_eval_grid_votes_in_32_bits(corpus, monkeypatch):
    # The labels stay the file's int32 and the cell keys fit int32, so the
    # (cell, label) pairs are packed in the key's own buffer. Widened to
    # int64, as they were once held, the labels and keys raise the traced
    # peak by at least 6 B a point.
    args = argv(corpus, "eval", 1)
    main(args)
    peak = traced_peak(args)
    read_geometry, cell_keys = cli_module._read_geometry, cli_module._cell_keys

    def reading(*args):
        columns, labels, rec, extremes, ranges = read_geometry(*args)
        return columns, labels.astype(np.int64), rec, extremes, ranges

    def keying(*args):
        key, n_keys = cell_keys(*args)
        return key.astype(np.int64), n_keys

    monkeypatch.setattr(cli_module, "_read_geometry", reading)
    monkeypatch.setattr(cli_module, "_cell_keys", keying)
    widened = traced_peak(args)
    assert widened - peak >= 6 * N_POINTS, f"{peak / 1e6:.2f} MB, widened {widened / 1e6:.2f} MB"


# A child refines one scene from its mapped embedding file and prints the
# rise of its own peak RSS (VmHWM) over the peak after its imports and
# inputs: wait4's ru_maxrss would count the RSS a spawned child inherits
# from this process at exec.
REFINE_PEAK = """
import sys
import numpy as np
from pcrefine import ClassSchema, PrototypeSet, refine_labels
from pcrefine.embeddings import load_embeddings

def hwm_mib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024

schema = ClassSchema(("b0", "b1"), tuple(f"n{i}" for i in range(6)))
raw, base, anchors = (np.load(p) for p in sys.argv[2:5])
support = PrototypeSet({c: anchors[c] for c in schema.novel_indices})
features = load_embeddings(sys.argv[1])
baseline = hwm_mib()
refine_labels(features, raw, base, support, schema)
print(hwm_mib() - baseline)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_refine_holds_one_window_and_one_stage_of_features(tmp_path):
    # A 105 MB embedding file, three windows and more, with novel rows on
    # every page: a refine that gathered from the whole mapping would hold
    # all of it.
    from pcrefine.embeddings import EMBEDDING_MAGIC, EMBEDDING_VERSION
    from pcrefine.prototypes import STAGE_BYTES, WINDOW_BYTES

    n, d, chunk = 51_200, 512, 4096
    rng = np.random.default_rng(3)
    anchors = np.linalg.qr(rng.standard_normal((d, 8)))[0].T  # 8 orthonormal classes
    raw = rng.integers(-1, 8, size=n)
    base = np.where(raw < 2, raw, -1)
    noise = rng.standard_normal((chunk, d)).astype(np.float32) * 0.02
    path = tmp_path / "big.gfve"
    try:
        with open(path, "wb") as f:
            f.write(EMBEDDING_MAGIC + struct.pack("<IQI", EMBEDDING_VERSION, n, d))
            for start in range(0, n, chunk):
                rows = raw[start:start + chunk]
                f.write((anchors[rows].astype(np.float32) + noise[:rows.size]).tobytes())
        inputs = []
        for name, array in (("raw", raw), ("base", base), ("anchors", anchors)):
            np.save(tmp_path / f"{name}.npy", array)
            inputs.append(str(tmp_path / f"{name}.npy"))
        env = {**os.environ, "PYTHONPATH": str(Path(cli_module.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", REFINE_PEAK, str(path), *inputs],
                             capture_output=True, text=True, env=env, check=True).stdout
    finally:
        path.unlink(missing_ok=True)
    bound = (WINDOW_BYTES + STAGE_BYTES) / 2**20 + 24
    assert float(out) < bound, f"peak rose {float(out):.1f} MiB over a {n * d * 4 / 2**20:.0f} MiB file"
