"""Per-scene memory of the commands that loop over a manifest's scenes.

mix, stats and eval hold one scene at a time, so listing one PLY under
three scene ids must not raise a command's peak much above the peak with
one id. Peaks are traced by tracemalloc, which sees numpy's buffers and
Python's bytes objects, but not a mapped file's pages.
"""

import contextlib
import tracemalloc
import weakref

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
