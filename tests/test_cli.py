import contextlib
import copy
import functools
import io
import json
import operator
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import from_dtype
from numpy.lib.recfunctions import repack_fields

import pcrefine.cli as cli_module
import pcrefine.pipeline as pipeline_module
import pcrefine.prototypes as prototypes_module
import pcrefine.scene_io as scene_io
from pcrefine import (
    MixConfig,
    PointCloudScene,
    VoxelConfig,
    crop_novel,
    metrics,
    mix,
    pick_pair,
    refine_labels,
    support_prototypes,
    voxelize,
)
from pcrefine.cli import EXIT_CONTRACT, EXIT_IO, EXIT_OK, main
from pcrefine.embeddings import load_embeddings, save_embeddings
from pcrefine.scene_io import (
    MissingLabelWarning,
    load_labels,
    load_manifest,
    load_scene,
    load_support,
    save_labels,
    save_scene,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate(tmp_path, capsys, **overrides):
    args = {
        "--out": str(tmp_path / "corpus"),
        "--seed": "1",
        "--scenes": "4",
        "--support-scenes": "8",
        "--shots": "2",
        "--dim": "16",
        "--flip": "0.1",
        "--erosion": "0.1",
    }
    args.update(overrides)
    argv = ["simulate"]
    for k, v in args.items():
        argv += [k, v]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    return tmp_path / "corpus"


class TestSimulate:
    def test_produces_complete_corpus(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys)
        manifest = load_manifest(corpus / "manifest.json")
        train = manifest.entries("train")
        assert len(train) == 4
        for entry in train:
            scene = load_scene(manifest.resolve(entry.path))
            raw = load_labels(manifest.resolve(entry.raw_predictions))
            base = load_labels(manifest.resolve(entry.base_labels))
            assert raw.shape == base.shape == (scene.point_count,)
            # Base label files never contain novel indices.
            assert base.max() < manifest.schema.n_base
        support_doc = json.loads((corpus / "support.json").read_text())
        assert support_doc["k"] == 2
        assert len(support_doc["classes"]) == manifest.schema.n_novel

    def test_deterministic(self, tmp_path, capsys):
        a = simulate(tmp_path / "a", capsys)
        b = simulate(tmp_path / "b", capsys)
        sa = load_scene(a / "scenes/train_000.ply")
        sb = load_scene(b / "scenes/train_000.ply")
        np.testing.assert_array_equal(sa.positions, sb.positions)
        np.testing.assert_array_equal(sa.labels, sb.labels)

    def test_no_room_for_a_background_anchor_writes_nothing(self, tmp_path, capsys):
        # 8 orthonormal class anchors span all 8 dimensions.
        out = tmp_path / "x"
        code, stdout, err = run(capsys, "simulate", "--out", str(out),
                                "--base", "3", "--novel", "5", "--dim", "8")
        assert code == EXIT_CONTRACT
        assert json.loads(err)["error"] == {
            "type": "ConfigError",
            "message": "cannot build a background anchor orthogonal to all class anchors; "
                       "increase the feature dimension"}
        assert stdout == ""
        assert not out.exists()

    def test_rejects_zero_classes(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--out", str(tmp_path / "x"),
                           "--base", "0")
        assert code == EXIT_CONTRACT
        assert json.loads(err)["error"]["type"] == "ConfigError"


class TestRefine:
    def test_writes_labels_and_report(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys)
        out = tmp_path / "refined"
        code, stdout, _ = run(capsys, "refine",
                              "--manifest", str(corpus / "manifest.json"),
                              "--out", str(out))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["version"] == 1
        assert report["tau"] == 0.6
        assert len(report["scenes"]) == 4
        manifest = load_manifest(corpus / "manifest.json")
        prototypes = support_prototypes(*load_support(manifest))
        for entry in manifest.entries("train"):
            refined = load_labels(out / f"{entry.scene_id}.npy")
            base = load_labels(manifest.resolve(entry.base_labels))
            labeled = base != -1
            # Base annotations survive refinement untouched.
            np.testing.assert_array_equal(refined[labeled], base[labeled])
            # Each file is the library's save_labels(refine_labels(...)[0]), byte for byte.
            want = refine_labels(load_embeddings(manifest.resolve(entry.embedding)),
                                 load_labels(manifest.resolve(entry.raw_predictions)), base,
                                 prototypes, manifest.schema)[0]
            save_labels(want, tmp_path / "want.npy")
            assert (out / f"{entry.scene_id}.npy").read_bytes() == (tmp_path / "want.npy").read_bytes()

    def test_missing_support_file(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys)
        (corpus / "support.json").unlink()
        code, _, err = run(capsys, "refine",
                           "--manifest", str(corpus / "manifest.json"),
                           "--out", str(tmp_path / "refined"))
        assert code == EXIT_CONTRACT
        assert "support" in json.loads(err)["error"]["message"]

    def test_identical_shots_match_single_shot(self, tmp_path, capsys):
        # Feature noise, so the pooled shot is no exact float32 vector and a
        # plain mean of three copies would drift from it in the last bits.
        corpus = simulate(tmp_path, capsys, **{"--shots": "1", "--noise-sigma": "0.1"})
        manifest = str(corpus / "manifest.json")
        assert run(capsys, "refine", "--manifest", manifest,
                   "--out", str(tmp_path / "k1"))[0] == EXIT_OK
        support_path = corpus / "support.json"
        doc = json.loads(support_path.read_text())
        doc["k"] = 3
        doc["classes"] = {c: shots[:1] * 3 for c, shots in doc["classes"].items()}
        support_path.write_text(json.dumps(doc))
        assert run(capsys, "refine", "--manifest", manifest,
                   "--out", str(tmp_path / "k3"))[0] == EXIT_OK

        # K identical shots reduce to the K = 1 prototype bitwise.
        k1 = json.loads((tmp_path / "k1/report.json").read_text())["scenes"]
        k3 = json.loads((tmp_path / "k3/report.json").read_text())["scenes"]
        assert k3 == k1
        for scene_id in k1:
            np.testing.assert_array_equal(load_labels(tmp_path / f"k3/{scene_id}.npy"),
                                          load_labels(tmp_path / f"k1/{scene_id}.npy"))

    def test_feature_width_mismatch(self, tmp_path, capsys):
        wide = simulate(tmp_path / "wide", capsys, **{"--scenes": "1", "--dim": "32"})
        narrow = simulate(tmp_path / "narrow", capsys, **{"--scenes": "1"})
        # Same seed, so the scenes match point for point; only the width differs.
        for src in (narrow / "embeddings").iterdir():
            (wide / "embeddings" / src.name).write_bytes(src.read_bytes())
        code, _, err = run(capsys, "refine", "--manifest", str(wide / "manifest.json"),
                           "--out", str(tmp_path / "refined"))
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ContractError"
        assert ", 16)" in error["message"] and "width 32" in error["message"]

    def test_corrupt_embedding_is_io_error(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys)
        victim = corpus / "embeddings/train_000.gfve"
        victim.write_bytes(b"NOPE" + victim.read_bytes()[4:])
        code, _, err = run(capsys, "refine",
                           "--manifest", str(corpus / "manifest.json"),
                           "--out", str(tmp_path / "refined"))
        assert code == EXIT_IO
        assert json.loads(err)["error"]["type"] == "FormatError"

    @pytest.mark.parametrize("target", ["embeddings/train_001.gfve", "support/support_000.gfve"])
    @pytest.mark.parametrize("fault", ["trailing_bytes", "smaller_d"])
    def test_payload_longer_than_header_is_io_error(self, tmp_path, capsys, target, fault):
        # A d rewritten 16 -> 15 used to load the payload reinterpreted at
        # width 15, and refine exited 2 with a width error.
        corpus = simulate(tmp_path, capsys, **{"--scenes": "2"})
        victim = corpus / target
        data = bytearray(victim.read_bytes())
        if fault == "trailing_bytes":
            data += bytes(4)
        else:
            struct.pack_into("<I", data, 16, 15)
        victim.write_bytes(data)
        out = tmp_path / "refined"
        code, _, err = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                           "--out", str(out))
        assert code == EXIT_IO
        error = json.loads(err)["error"]
        assert error["type"] == "FormatError"
        assert str(victim) in error["message"] and "overlong payload" in error["message"]
        assert f"have {len(data) - 20}" in error["message"]
        assert not list(out.glob("*.npy"))

    def test_out_of_range_raw_label(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
        raw_path = corpus / "raw/train_000.npy"
        raw = np.load(raw_path)
        raw[0] = 99
        np.save(raw_path, raw)
        code, _, err = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                           "--out", str(tmp_path / "refined"))
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ContractError"
        assert "scene train_000: raw label 99 at point 0" in error["message"]
        assert not (tmp_path / "refined/train_000.npy").exists()

    def test_failure_on_later_scene_writes_nothing(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "2"})
        raw_path = corpus / "raw/train_001.npy"
        raw = np.load(raw_path)
        raw[0] = 99
        np.save(raw_path, raw)
        out = tmp_path / "refined"
        code, _, err = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                           "--out", str(out))
        assert code == EXIT_CONTRACT
        assert json.loads(err)["error"]["type"] == "ContractError"
        assert not list(out.glob("*.npy"))
        assert not (out / "report.json").exists()

    def test_ply_short_of_its_embedding_writes_nothing(self, tmp_path, capsys):
        # The raw and base labels still match the embedding's rows, so only
        # the PLY's vertex count tells that the scene's files disagree.
        corpus = simulate(tmp_path, capsys, **{"--scenes": "2"})
        ply, embedding = corpus / "scenes/train_001.ply", corpus / "embeddings/train_001.gfve"
        scene = load_scene(ply)
        save_scene(PointCloudScene(scene.positions[:-10], scene.labels[:-10]), ply)
        out = tmp_path / "refined"
        code, stdout, err = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                                "--out", str(out))
        assert code == EXIT_CONTRACT
        n = scene.point_count
        assert json.loads(err)["error"] == {
            "type": "AlignmentError",
            "message": f"scene train_001: {ply} declares {n - 10} points, "
                       f"but {embedding} holds {n} feature rows"}
        assert stdout == ""
        assert list(out.iterdir()) == []

    def test_each_scene_is_staged_before_the_next_is_refined(self, tmp_path, capsys, monkeypatch):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "3"})
        out = tmp_path / "refined"
        seen, refine = [], pipeline_module.refine_labels

        def recording(*args):
            seen.append([p.relative_to(out).parts for p in sorted(out.rglob("*.npy"))])
            return refine(*args)

        monkeypatch.setattr(pipeline_module, "refine_labels", recording)
        code, _, _ = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                         "--out", str(out))
        assert code == EXIT_OK
        [staging] = {parts[0] for parts in seen[-1]}
        assert staging.startswith(".partial-")
        assert seen == [[], [(staging, "train_000.npy")],
                        [(staging, "train_000.npy"), (staging, "train_001.npy")]]
        # Every file moved into --out, and no staging directory left.
        assert sorted(p.name for p in out.iterdir()) == [
            "report.json", "train_000.npy", "train_001.npy", "train_002.npy"]

    @pytest.mark.parametrize("fault, code", [("raw_label", EXIT_CONTRACT), ("write", EXIT_IO)])
    def test_failing_later_scene_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                      fault, code):
        # An earlier run's files stay byte for byte, and the staged labels of
        # the scenes before the fault are removed with their directory.
        corpus = simulate(tmp_path, capsys, **{"--scenes": "3"})
        out = tmp_path / "refined"
        argv = ["refine", "--manifest", str(corpus / "manifest.json"), "--out", str(out)]
        assert run(capsys, *argv, "--tau", "-1")[0] == EXIT_OK  # keeps every class
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        if fault == "raw_label":
            raw = np.load(corpus / "raw/train_002.npy")
            raw[0] = 99
            np.save(corpus / "raw/train_002.npy", raw)
        else:
            def failing(labels, path):
                if Path(path).name == "train_002.npy":
                    raise OSError(28, "No space left on device")
                save_labels(labels, path)

            monkeypatch.setattr(cli_module, "save_labels", failing)
        assert run(capsys, *argv)[0] == code
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not list(out.glob(".partial-*"))

    def test_missing_train_ply_is_io_error(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "2"})
        (corpus / "scenes/train_001.ply").unlink()
        out = tmp_path / "refined"
        code, _, err = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                           "--out", str(out))
        assert code == EXIT_IO
        error = json.loads(err)["error"]
        assert error["type"] == "FileNotFoundError"
        assert str(corpus / "scenes/train_001.ply") in error["message"]
        assert list(out.iterdir()) == []

    def test_non_finite_feature(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "2"})
        raw, base = (np.load(corpus / f"{kind}/train_001.npy") for kind in ("raw", "base_labels"))
        i = int(np.flatnonzero((raw == -1) & (base == -1))[0])  # a row only infill reads
        path = corpus / "embeddings/train_001.gfve"
        feats = np.array(load_embeddings(path))
        feats[i, 2] = np.nan
        save_embeddings(feats, path)
        out = tmp_path / "refined"
        code, stdout, err = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                                "--out", str(out))
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ContractError"
        assert f"scene train_001: feature row {i} is not finite" in error["message"]
        assert stdout == ""
        assert not list(out.glob("*.npy"))

    def test_non_finite_pooled_train_row_names_the_scene(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "2"})
        raw = np.load(corpus / "raw/train_001.npy")
        i = int(np.flatnonzero(raw >= 3)[0])  # a raw novel row, which selection pools
        path = corpus / "embeddings/train_001.gfve"
        feats = np.array(load_embeddings(path))
        feats[i, 0] = np.nan
        save_embeddings(feats, path)
        out = tmp_path / "refined"
        code, _, err = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                           "--out", str(out))
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ContractError"
        assert error["message"].startswith("scene train_001: prototype for class ")
        assert error["message"].endswith(" is not finite")
        assert not list(out.glob("*.npy"))

    def test_non_finite_support_row_names_the_support_scene(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "2"})
        shot = json.loads((corpus / "support.json").read_text())["classes"]["5"][1]
        mask = np.load(corpus / shot["mask"])
        path = corpus / shot["embedding"]
        feats = np.array(load_embeddings(path))
        feats[np.flatnonzero(mask)[0], 0] = np.nan
        save_embeddings(feats, path)
        out = tmp_path / "refined"
        code, _, err = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                           "--out", str(out))
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ContractError"
        assert error["message"].startswith(f"support scene {corpus / shot['scene']}: ")
        assert "prototype for class " in error["message"]
        assert error["message"].endswith(" is not finite")
        assert not out.exists() or not list(out.glob("*.npy"))

    def test_support_scene_with_two_embedding_files(self, tmp_path, capsys):
        # One shot of a shared support scene names another file of as many
        # rows: its features would replace the scene's for every shot on it.
        corpus = simulate(tmp_path, capsys, **{"--scenes": "2", "--noise-sigma": "0.1"})
        support_path = corpus / "support.json"
        doc = json.loads(support_path.read_text())
        shots = [shot for c in doc["classes"] for shot in doc["classes"][c]]
        scene = next(s["scene"] for s in shots if sum(t["scene"] == s["scene"] for t in shots) > 1)
        first, second = [shot for shot in shots if shot["scene"] == scene][:2]
        save_embeddings(np.array(load_embeddings(corpus / first["embedding"]))[::-1],
                        corpus / "support/other.gfve")
        second["embedding"] = "support/other.gfve"
        support_path.write_text(json.dumps(doc))
        out = tmp_path / "refined"
        code, stdout, err = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                                "--out", str(out))
        assert code == EXIT_IO
        assert json.loads(err)["error"] == {
            "type": "FormatError",
            "message": f"{support_path}: support scene {corpus / scene} is listed with two "
                       f"embedding files, {corpus / first['embedding']} and "
                       f"{corpus / 'support/other.gfve'}"}
        assert stdout == "" and not out.exists()

    def test_shot_without_embedding_uses_its_scenes_file(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "2", "--noise-sigma": "0.1"})
        manifest = str(corpus / "manifest.json")
        assert run(capsys, "refine", "--manifest", manifest, "--out", str(tmp_path / "a"))[0] == EXIT_OK
        support_path = corpus / "support.json"
        doc = json.loads(support_path.read_text())
        shots = [shot for c in doc["classes"] for shot in doc["classes"][c]]
        for i, shot in enumerate(shots):  # every later shot on a scene lists no file
            if any(t["scene"] == shot["scene"] for t in shots[:i]):
                del shot["embedding"]
        assert len(shots) > sum("embedding" in shot for shot in shots)
        support_path.write_text(json.dumps(doc))
        assert run(capsys, "refine", "--manifest", manifest, "--out", str(tmp_path / "b"))[0] == EXIT_OK
        for path in sorted((tmp_path / "a").iterdir()):
            assert (tmp_path / "b" / path.name).read_bytes() == path.read_bytes()

    def test_narrower_support_embedding_names_the_support_scene(self, tmp_path, capsys):
        # K = 2 shots per class on different support scenes: their pooled
        # vectors of two widths cannot be averaged.
        corpus = simulate(tmp_path, capsys)
        shot = json.loads((corpus / "support.json").read_text())["classes"]["5"][1]
        path = corpus / shot["embedding"]
        save_embeddings(np.array(load_embeddings(path))[:, :8], path)
        code, _, err = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                           "--out", str(tmp_path / "refined"))
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ContractError"
        assert error["message"].startswith("support scene ")
        assert str(corpus / shot["scene"]) in error["message"]

    def test_bad_tau(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys)
        code, _, err = run(capsys, "refine",
                           "--manifest", str(corpus / "manifest.json"),
                           "--out", str(tmp_path / "refined"),
                           "--tau", "2.0")
        assert code == EXIT_CONTRACT


class TestMix:
    def test_mixed_scenes_grow(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys)
        out = tmp_path / "mixed"
        code, _, _ = run(capsys, "mix",
                         "--manifest", str(corpus / "manifest.json"),
                         "--out", str(out), "--blocks", "2", "--seed", "5")
        assert code == EXIT_OK
        manifest = load_manifest(corpus / "manifest.json")
        for entry in manifest.entries("train"):
            original = load_scene(manifest.resolve(entry.path))
            mixed = load_scene(out / f"{entry.scene_id}.ply")
            assert mixed.point_count > original.point_count
            np.testing.assert_allclose(
                mixed.positions[:original.point_count], original.positions,
                atol=1e-6,
            )

    # stats reads no support scene; refine reads no train PLY.
    @pytest.mark.parametrize("command, role", [
        pytest.param("mix", "train", id="train"),
        pytest.param("mix", "support", id="support"),
        pytest.param("stats", "train", id="stats-train"),
        pytest.param("refine", "support", id="refine-support"),
    ])
    def test_label_past_schema(self, tmp_path, capsys, command, role):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
        path = corpus / ("scenes/train_000.ply" if role == "train"
                         else "support/support_000.ply")
        scene = load_scene(path)
        i = int(np.flatnonzero(scene.labels >= 0)[0])
        scene.labels[i:] = np.where(scene.labels[i:] >= 0, 99, -1)
        save_scene(scene, path)
        out = tmp_path / "out"
        code, stdout, err = run(capsys, command, "--manifest", str(corpus / "manifest.json"),
                                "--out", str(out))
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ContractError"
        assert f"{path}: label 99 at point {i} " in error["message"]
        assert stdout == ""
        assert not out.exists() or not list(out.iterdir())

    def test_deterministic(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys)
        for name in ("m1", "m2"):
            code, _, _ = run(capsys, "mix",
                             "--manifest", str(corpus / "manifest.json"),
                             "--out", str(tmp_path / name), "--seed", "9")
            assert code == EXIT_OK
        a = load_scene(tmp_path / "m1/train_001.ply")
        b = load_scene(tmp_path / "m2/train_001.ply")
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.labels, b.labels)


def colour_ply(path, rng):
    """Rewrite the PLY at path with random colours."""
    scene = load_scene(path)
    save_scene(PointCloudScene(scene.positions, scene.labels,
                               rng.uniform(0, 1, size=(scene.point_count, 3))), path)


def snap_to_grid(rec):
    """Round a vertex record's x, y and z in place to whole metres."""
    for name in ("x", "y", "z"):
        rec[name] = np.round(rec[name])


# A mix case: which PLYs carry colours, and how the train PLYs are then rewritten.
MIX_LAYOUTS = {
    "coloured": ({"train", "support"}, {}),
    "colourless": (set(), {}),
    "coloured_support": ({"support"}, {}),
    "coloured_base": ({"train"}, {}),
    "ascii": ({"train", "support"}, {"fmt": "ascii"}),
    "ascii_colourless": (set(), {"fmt": "ascii"}),
    "shuffled": ({"train", "support"},
                 {"edit": lambda rec: rec[["label", "blue", "z", "red", "x", "green", "y"]]}),
    "no_label": ({"train", "support"},
                 {"edit": lambda rec: rec[["x", "y", "z", "red", "green", "blue"]]}),
    "trailing_bytes": ({"train", "support"}, {"trailing": bytes(7)}),
    # Train points snapped to a 1 m grid: several tie at every XY extreme and at the floor.
    "integer_grid": ({"train", "support"}, {"edit": snap_to_grid}),
}


@contextlib.contextmanager
def warnings_recorded():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught


def mix_corpus(tmp_path, capsys, layout):
    """A 2-scene simulated corpus with 2 shots per class, laid out as MIX_LAYOUTS[layout]."""
    coloured, rewrite = MIX_LAYOUTS[layout]
    corpus = simulate(tmp_path, capsys, **{"--scenes": "2", "--support-scenes": "4"})
    rng = np.random.default_rng(3)
    for role in coloured:
        for path in sorted(corpus.glob("scenes/*.ply" if role == "train" else "support/*.ply")):
            colour_ply(path, rng)
    if rewrite:
        for path in sorted(corpus.glob("scenes/*.ply")):
            edit_ply_record(path, **rewrite)
    return corpus


class TestMixBytes:
    """mix writes each scene's PLY byte for byte as the library would:
    save_scene(mix(load_scene(f), support, cfg, default_rng([seed, i]))),
    without decoding a train scene."""

    @pytest.mark.parametrize("layout", list(MIX_LAYOUTS))
    def test_equals_library_reference(self, tmp_path, capsys, monkeypatch, layout):
        corpus = mix_corpus(tmp_path, capsys, layout)
        manifest = load_manifest(corpus / "manifest.json")
        train = manifest.entries("train")
        ref = tmp_path / "ref"
        ref.mkdir()
        support, _ = load_support(manifest)
        cfg = MixConfig(n_blocks=3, crop_margin_xy=0.5, seed=4)
        with warnings_recorded() as caught:
            for i, entry in enumerate(train):
                mixed = mix(load_scene(manifest.resolve(entry.path)), support, cfg,
                            np.random.default_rng([4, i]))
                save_scene(mixed, ref / f"{entry.scene_id}.ply")
        decoded = []
        decode = scene_io.load_scene
        monkeypatch.setattr(scene_io, "load_scene",
                            lambda path: decoded.append(Path(path)) or decode(path))
        with warnings_recorded() as warned:
            code, _, _ = run(capsys, "mix", "--manifest", str(corpus / "manifest.json"),
                             "--out", str(tmp_path / "mixed"), "--blocks", "3",
                             "--margin", "0.5", "--seed", "4")
        assert code == EXIT_OK
        assert [str(w.message) for w in warned] == [str(w.message) for w in caught]
        for entry in train:
            got = (tmp_path / f"mixed/{entry.scene_id}.ply").read_bytes()
            assert got == (ref / f"{entry.scene_id}.ply").read_bytes(), entry.scene_id
        # The support scenes load through the recorder; no train scene does.
        assert decoded and not {manifest.resolve(e.path) for e in train} & set(decoded)
        if layout == "no_label":
            assert len(warned) == len(train)
            for entry in train:
                header = manifest.resolve(entry.path).read_bytes().split(b"\n")
                n_base = int(header[2].removeprefix(b"element vertex "))
                assert (load_scene(ref / f"{entry.scene_id}.ply").labels[:n_base] == -1).all()
        if layout == "coloured_support":
            assert b"red" not in got
        if layout == "integer_grid":  # the tie rule, not a unique extreme, picks each corner
            for entry in train:
                columns = load_scene(manifest.resolve(entry.path)).positions.T
                for column in (columns[0], columns[1]):
                    assert (column == column.min()).sum() > 1 and (column == column.max()).sum() > 1
                assert (columns[2] == columns[2].min()).sum() > 1

    def test_blocks_are_labelled_by_their_masks(self, tmp_path, capsys):
        # The support PLYs lose their labels, and the first shot drawn has its
        # mask widened over base-labelled points inside its box: a block holds
        # the shot's class exactly where the mask selects, -1 elsewhere.
        corpus = mix_corpus(tmp_path, capsys, "coloured")
        manifest = load_manifest(corpus / "manifest.json")
        support, _ = load_support(manifest)
        classes = support.classes()
        rng = np.random.default_rng([4, 0])
        c = classes[int(rng.integers(0, len(classes)))]
        j = int(rng.integers(0, support.k))
        shot = support.shots[c][j]
        xy = shot.scene.positions[:, :2]
        lo, hi = xy[shot.mask].min(axis=0), xy[shot.mask].max(axis=0)
        inside = ((xy >= lo) & (xy <= hi)).all(axis=1)
        widened = shot.mask | (inside & (shot.scene.labels >= 0)
                               & (shot.scene.labels < manifest.schema.n_base))
        assert (widened & ~shot.mask).any()
        doc = json.loads((corpus / "support.json").read_text())
        np.save(corpus / doc["classes"][str(c)][j]["mask"], widened)
        for path in sorted(corpus.glob("support/*.ply")):
            edit_ply_record(path, lambda rec: rec[[n for n in rec.dtype.names if n != "label"]])

        cfg = MixConfig(n_blocks=3, crop_margin_xy=0.5, seed=4)
        with warnings_recorded() as caught:
            support, _ = load_support(manifest)
            for i, entry in enumerate(manifest.entries("train")):
                base = load_scene(manifest.resolve(entry.path))
                mixed = mix(base, support, cfg, np.random.default_rng([4, i]))
                save_scene(mixed, tmp_path / f"ref_{entry.scene_id}.ply")
                rng, expected = np.random.default_rng([4, i]), []
                for _ in range(cfg.n_blocks):
                    b = classes[int(rng.integers(0, len(classes)))]
                    block_shot = support.shots[b][int(rng.integers(0, support.k))]
                    expected.append(np.where(crop_novel(block_shot.scene, block_shot.mask,
                                                        cfg.crop_margin_xy)[1], b, -1))
                    pick_pair(rng)
                np.testing.assert_array_equal(mixed.labels[base.point_count:],
                                              np.concatenate(expected))
        assert (support.shots[c][j].mask == widened).all()
        assert (mixed.labels[base.point_count:] >= manifest.schema.n_base).any()
        with warnings_recorded() as warned:
            code, _, _ = run(capsys, "mix", "--manifest", str(corpus / "manifest.json"),
                             "--out", str(tmp_path / "mixed"), "--blocks", "3",
                             "--margin", "0.5", "--seed", "4")
        assert code == EXIT_OK
        assert [str(w.message) for w in warned] == [str(w.message) for w in caught]
        for entry in manifest.entries("train"):
            assert ((tmp_path / f"mixed/{entry.scene_id}.ply").read_bytes()
                    == (tmp_path / f"ref_{entry.scene_id}.ply").read_bytes()), entry.scene_id

    @pytest.mark.parametrize("layout", ["coloured", "shuffled"])
    def test_out_over_its_own_input(self, tmp_path, capsys, layout):
        # The base record is mapped from the very file each output replaces.
        corpus = mix_corpus(tmp_path, capsys, layout)
        flags = ["--manifest", str(corpus / "manifest.json"), "--blocks", "3", "--seed", "2"]
        assert run(capsys, "mix", *flags, "--out", str(tmp_path / "mixed"))[0] == EXIT_OK
        assert run(capsys, "mix", *flags, "--out", str(corpus / "scenes"))[0] == EXIT_OK
        for path in sorted((tmp_path / "mixed").iterdir()):
            assert (corpus / "scenes" / path.name).read_bytes() == path.read_bytes()
        assert sorted(p.name for p in (corpus / "scenes").iterdir()) == ["train_000.ply", "train_001.ply"]

    @pytest.mark.parametrize("layout", ["coloured", "colourless", "shuffled"])
    @pytest.mark.parametrize("fault", ["nan_position", "label_n_classes"])
    def test_fault_in_train_ply_exits_2(self, tmp_path, capsys, layout, fault):
        corpus = mix_corpus(tmp_path, capsys, layout)
        n_classes = load_manifest(corpus / "manifest.json").schema.n_classes
        path = corpus / "scenes/train_001.ply"
        column, value, message = {
            "nan_position": ("x", np.nan, f"{path}: position [nan,"),
            "label_n_classes": ("label", n_classes, f"{path}: label {n_classes} at point 7 "),
        }[fault]
        edit_ply_record(path, lambda rec: rec[column].__setitem__(7, value))
        out = tmp_path / "mixed"
        code, stdout, err = run(capsys, "mix", "--manifest", str(corpus / "manifest.json"),
                                "--out", str(out))
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ContractError"
        assert message in error["message"]
        assert stdout == ""
        assert not (out / "train_001.ply").exists()


def test_support_plys_without_labels_are_read_silently(tmp_path, capsys):
    # A support set's masks are its annotation: refine and mix read support
    # PLYs without labels with no MissingLabelWarning, and write the bytes
    # they write with the labels there.
    corpus = simulate(tmp_path, capsys, **{"--scenes": "1", "--support-scenes": "6"})
    commands = {"refine": ["--tau", "0.3"], "mix": ["--blocks", "3", "--seed", "2"]}

    def outputs(tag):
        written = {}
        for command, flags in commands.items():
            out = tmp_path / f"{command}_{tag}"
            with warnings_recorded() as warned:
                code, _, _ = run(capsys, command, "--manifest", str(corpus / "manifest.json"),
                                 "--out", str(out), *flags)
            assert code == EXIT_OK and not warned, (command, [str(w.message) for w in warned])
            written.update({f"{command}/{p.name}": p.read_bytes() for p in sorted(out.iterdir())})
        return written

    labelled = outputs("labelled")
    for path in sorted(corpus.glob("support/*.ply")):
        edit_ply_record(path, lambda rec: rec[[n for n in rec.dtype.names if n != "label"]])
        assert b"property int label" not in path.read_bytes()
    assert outputs("unlabelled") == labelled
    assert any(name.startswith("refine/") for name in labelled)
    assert any(name.startswith("mix/") for name in labelled)


def break_support(path, case):
    """Corrupt a support.json, its first shot's mask or the manifest's entry
    for it; return the faulty file's path."""
    if case == "no_support_entry":
        manifest = path.parent / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["support"]
        manifest.write_text(json.dumps(doc))
        return manifest
    if case == "missing":
        path.unlink()
        return path
    if case == "invalid_json":
        path.write_text('{"classes": ')
        return path
    doc = json.loads(path.read_text())
    first = next(iter(doc["classes"]))
    if case.startswith("mask_of_"):
        mask_path = path.parent / doc["classes"][first][0]["mask"]
        mask = np.load(mask_path)
        np.save(mask_path, np.full(mask.shape, 2) if case == "mask_of_twos"
                else np.where(mask, "yes", "no"))
        return mask_path
    if case == "no_classes":
        del doc["classes"]
    elif case == "non_integer_class":
        doc["classes"]["novel"] = doc["classes"].pop(first)
    elif case.startswith("version_"):
        doc["version"] = VERSIONS[case]
    elif case.startswith("k_"):
        doc["k"] = KS[case]
    elif case == "scene_with_two_embeddings":
        # The first shot's scene and mask again, with the second shot's embedding file.
        shots = doc["classes"][first]
        shots[1] = {**shots[0], "embedding": shots[1]["embedding"]}
    else:
        del doc["classes"][first][0][case.removeprefix("shot_without_")]
    path.write_text(json.dumps(doc))
    return path


# A version other than the JSON integer 1; true and 1.0 equal 1 in Python.
VERSIONS = {"version_7": 7, "version_true": True, "version_float": 1.0}
# A "k" other than the JSON integer shot count of every class (2 here).
KS = {"k_5": 5, "k_1": 1, "k_true": True, "k_float": 2.0, "k_null": None}


@pytest.mark.parametrize("command", ["refine", "mix"])
@pytest.mark.parametrize("case, code, error", [
    ("no_support_entry", EXIT_CONTRACT, "ConfigError"),
    ("missing", EXIT_CONTRACT, "ConfigError"),
    ("invalid_json", EXIT_IO, "FormatError"),
    ("no_classes", EXIT_IO, "FormatError"),
    ("shot_without_scene", EXIT_IO, "FormatError"),
    ("shot_without_mask", EXIT_IO, "FormatError"),
    ("non_integer_class", EXIT_IO, "FormatError"),
    ("version_7", EXIT_IO, "FormatError"),
    ("version_true", EXIT_IO, "FormatError"),
    ("version_float", EXIT_IO, "FormatError"),
    *((case, EXIT_IO, "FormatError") for case in KS),
    ("scene_with_two_embeddings", EXIT_IO, "FormatError"),
    ("mask_of_twos", EXIT_IO, "FormatError"),
    ("mask_of_strings", EXIT_IO, "FormatError"),
])
def test_bad_support_file(tmp_path, capsys, command, case, code, error):
    corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
    broken = break_support(corpus / "support.json", case)
    got, out, err = run(capsys, command, "--manifest", str(corpus / "manifest.json"),
                        "--out", str(tmp_path / "out"))
    assert got == code
    assert json.loads(err)["error"]["type"] == error
    assert str(broken) in json.loads(err)["error"]["message"]
    assert out == ""


def respell_shared_scene(corpus, other_embedding=False):
    """Rewrite, in support.json, the scene and embedding paths of a shot whose
    scene file an earlier shot also lists, from support/<file> to
    support/./../support/<file>, the same files; or set its embedding to
    another support scene's file. Return the shot."""
    path = corpus / "support.json"
    doc = json.loads(path.read_text())
    shots = [shot for class_shots in doc["classes"].values() for shot in class_shots]
    shot = next(shot for i, shot in enumerate(shots)
                if shot["scene"] in {earlier["scene"] for earlier in shots[:i]})
    if other_embedding:
        shot["embedding"] = next(s["embedding"] for s in shots if s["scene"] != shot["scene"])
    else:
        shot["embedding"] = shot["embedding"].replace("support/", "support/./../support/")
    shot["scene"] = shot["scene"].replace("support/", "support/./../support/")
    path.write_text(json.dumps(doc))
    return shot


class TestSupportFiles:
    """load_support loads each support scene file once, however support.json
    spells its path, and checks each mask where its file is read and in
    SupportShot, no more."""

    def test_respelled_scene_path_loads_one_scene(self, tmp_path, capsys, monkeypatch):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
        refine = ["refine", "--manifest", str(corpus / "manifest.json"), "--out"]
        assert run(capsys, *refine, str(tmp_path / "plain"))[0] == EXIT_OK
        doc = json.loads((corpus / "support.json").read_text())
        files = {shot["scene"] for shots in doc["classes"].values() for shot in shots}
        respell_shared_scene(corpus)

        loaded = []
        read = scene_io.load_scene
        monkeypatch.setattr(scene_io, "load_scene", lambda path: loaded.append(path) or read(path))
        support, _ = load_support(load_manifest(corpus / "manifest.json"))
        scenes = {id(shot.scene) for shots in support.shots.values() for shot in shots}
        assert len(loaded) == len(scenes) == len(files)

        assert run(capsys, *refine, str(tmp_path / "respelled"))[0] == EXIT_OK
        plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert plain == sorted(p.name for p in (tmp_path / "respelled").iterdir())
        assert "report.json" in plain
        for name in plain:
            assert (tmp_path / "respelled" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes(), name

    def test_respelled_scene_with_another_embedding_is_format_error(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
        shot = respell_shared_scene(corpus, other_embedding=True)
        code, out, err = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                             "--out", str(tmp_path / "out"))
        assert code == EXIT_IO and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "FormatError"
        assert "is listed with two embedding files" in error["message"]
        assert str(corpus / shot["embedding"]) in error["message"]

    def test_each_mask_checked_twice(self, tmp_path, capsys, monkeypatch):
        # Once where its file is read, with the scene's point count, and once
        # in SupportShot, the library's boundary.
        corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
        calls = []
        check = prototypes_module.checked_mask

        def counting(name, *args, **kwargs):
            calls.append(name)
            return check(name, *args, **kwargs)

        monkeypatch.setattr(scene_io, "checked_mask", counting)
        monkeypatch.setattr(prototypes_module, "checked_mask", counting)
        support, _ = load_support(load_manifest(corpus / "manifest.json"))
        n_shots = sum(len(shots) for shots in support.shots.values())
        assert n_shots == 10
        assert len(calls) == 2 * n_shots
        assert calls.count("support") == n_shots


def break_input(corpus, pred_dir, case):
    """Corrupt one input file of a one-scene corpus; return the file's path."""
    manifest_path = corpus / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    if case == "non_utf8":
        # A UTF-16 byte order mark before UTF-8 text.
        manifest_path.write_bytes(b"\xff\xfe" + manifest_path.read_bytes())
        return manifest_path
    if case == "manifest_without_schema":
        del doc["schema"]
    elif case == "misspelled_role":
        doc["scenes"][0]["role"] = "tran"
    elif case == "non_string_role":
        doc["scenes"][0]["role"] = 5
    elif case.startswith("entry_without_"):
        del doc["scenes"][0][case.removeprefix("entry_without_")]
    elif case == "non_string_support":
        doc["support"] = 5
    elif case == "nul_in_support":
        doc["support"] = "support\0.json"
    elif case == "duplicate_id":
        doc["scenes"].append(dict(doc["scenes"][0]))
    elif case.startswith("version_"):
        doc["version"] = VERSIONS[case]
    elif case.startswith("non_string_"):
        doc["scenes"][0][case.removeprefix("non_string_")] = 5
    else:
        if case.startswith("raw_"):
            target = corpus / doc["scenes"][0]["raw_predictions"]
        elif case.startswith("pred_"):
            target = pred_dir / f"{doc['scenes'][0]['id']}.npy"
            np.save(target, np.zeros(3, dtype=np.int64))
        elif case.startswith("embedding_"):
            target = corpus / doc["scenes"][0]["embedding"]
        elif case.startswith("ply_"):
            target = corpus / doc["scenes"][0]["path"]
        else:
            support = json.loads((corpus / "support.json").read_text())
            target = corpus / next(iter(support["classes"].values()))[0]["mask"]
        if case.endswith("_float_labels_npy"):
            np.save(target, np.load(target).astype(np.float64))
        elif case.endswith("_2d_labels_npy"):
            np.save(target, np.load(target)[:, None])
        elif "npz" in case:
            # An .npz archive of the array under the .npy name.
            array = np.load(target)
            with open(target, "wb") as f:
                np.savez(f, data=array)
        elif case == "embedding_cut_4_bytes":
            target.write_bytes(target.read_bytes()[:-4])
        elif case == "embedding_cut_to_12_bytes":  # the magic, then half a header
            target.write_bytes(target.read_bytes()[:12])
        elif case == "ply_negative_count":
            head, sep, body = target.read_bytes().partition(b"end_header\n")
            lines = [b"element vertex -5" if line.startswith(b"element vertex ") else line
                     for line in head.split(b"\n")]
            target.write_bytes(b"\n".join(lines) + sep + body)
        else:
            # Cut inside the .npy header, or emptied.
            target.write_bytes(target.read_bytes()[:20] if "truncated" in case else b"")
        return target
    manifest_path.write_text(json.dumps(doc))
    return manifest_path


MANIFEST_CASES = ["manifest_without_schema", "entry_without_id",
                  "entry_without_path", "entry_without_role",
                  "non_string_path", "non_string_embedding",
                  "non_string_raw_predictions", "non_string_base_labels",
                  "non_string_support", "misspelled_role", "non_string_role",
                  "non_string_id", "version_true", "version_float", "duplicate_id",
                  "non_utf8", "nul_in_support"]


@pytest.mark.parametrize("command, case", [
    *[(command, case) for case in MANIFEST_CASES for command in ("refine", "eval", "mix")],
    ("refine", "raw_truncated_labels_npy"), ("refine", "raw_empty_labels_npy"),
    ("refine", "raw_float_labels_npy"), ("refine", "raw_2d_labels_npy"),
    ("refine", "raw_npz_labels_npy"),
    ("eval", "pred_truncated_labels_npy"), ("eval", "pred_empty_labels_npy"),
    ("eval", "pred_float_labels_npy"), ("eval", "pred_npz_labels_npy"),
    ("refine", "truncated_mask_npy"), ("mix", "empty_mask_npy"), ("refine", "npz_mask_npy"),
    ("refine", "embedding_cut_4_bytes"), ("eval", "ply_negative_count"),
    ("refine", "embedding_cut_to_12_bytes"),
])
def test_malformed_input_file(tmp_path, capsys, command, case):
    corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    broken = break_input(corpus, pred_dir, case)
    argv = [command, "--manifest", str(corpus / "manifest.json")]
    argv += ["--pred-dir", str(pred_dir)] if command == "eval" else ["--out", str(tmp_path / "out")]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_IO
    error = json.loads(err)["error"]
    assert error["type"] == "FormatError"
    assert str(broken) in error["message"]
    if case.startswith("non_string_"):
        assert f"'{case.removeprefix('non_string_')}'" in error["message"]
    if case.endswith("_role") or case == "duplicate_id":
        assert "'train_000'" in error["message"]


@pytest.mark.parametrize("command", ["mix", "eval"])
def test_non_finite_position_in_ply(tmp_path, capsys, command):
    corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
    path = corpus / "scenes/train_000.ply"
    # Edited in the file: save_scene refuses a NaN position.
    edit_ply_record(path, lambda rec: rec["x"].__setitem__(5, np.nan))
    argv = [command, "--manifest", str(corpus / "manifest.json")]
    argv += ["--pred-dir", str(tmp_path)] if command == "eval" else ["--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONTRACT
    error = json.loads(err)["error"]
    assert error["type"] == "ContractError"
    assert f"{path}: position [nan," in error["message"] and "point 5 " in error["message"]
    assert out == ""


@pytest.mark.parametrize("command", ["mix", "eval"])
def test_ply_without_vertices(tmp_path, capsys, command):
    corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
    path = corpus / "scenes/train_000.ply"
    head = path.read_bytes().partition(b"end_header\n")[0].decode("ascii")
    lines = ["element vertex 0" if line.startswith("element") else line for line in head.splitlines()]
    path.write_text("\n".join(lines + ["end_header", ""]))
    argv = [command, "--manifest", str(corpus / "manifest.json")]
    argv += ["--pred-dir", str(tmp_path)] if command == "eval" else ["--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONTRACT
    assert json.loads(err)["error"] == {
        "type": "AlignmentError", "message": f"{path}: a scene must contain at least one point"}
    assert out == ""


# A fault -> the error type it raises and a text its message holds, which
# names the manifest scene or the file ({path}) the fault is in.
NAMED_FAULTS = {
    "pred_label_99": ("ContractError", "scene train_001: pred label 99 at point 3 "),
    "train_label_99": ("ContractError", "{path}: label 99 at point 3 "),
    "train_label_minus_5": ("ContractError", "{path}: label -5 at point 3 "),
    "support_label_99": ("ContractError", "{path}: label 99 at point 3 "),
    "support_label_minus_5": ("ContractError", "{path}: label -5 at point 3 "),
    "short_mask": ("AlignmentError", "{path} mask of shape "),
    # uint64 label files whose int64 cast would wrap to -1 and to -2**63.
    "pred_uint64_max": ("ContractError", "scene train_001: {path}: label 18446744073709551615 at point 3 "),
    "pred_uint64_2**63": ("ContractError", "scene train_001: {path}: label 9223372036854775808 at point 3 "),
    "raw_uint64_max": ("ContractError", "scene train_001: {path}: label 18446744073709551615 at point 3 "),
    "raw_uint64_2**63": ("ContractError", "scene train_001: {path}: label 9223372036854775808 at point 3 "),
}


@pytest.mark.parametrize("command, fault", [
    ("eval", "pred_label_99"),
    *((command, fault) for command in ("eval", "mix", "stats")
      for fault in ("train_label_99", "train_label_minus_5")),
    *((command, fault) for command in ("refine", "mix")
      for fault in ("support_label_99", "support_label_minus_5")),
    ("refine", "short_mask"), ("mix", "short_mask"),
    ("eval", "pred_uint64_max"), ("eval", "pred_uint64_2**63"),
    ("refine", "raw_uint64_max"), ("refine", "raw_uint64_2**63"),
])
def test_fault_names_its_scene_or_file(tmp_path, capsys, command, fault):
    corpus = simulate(tmp_path, capsys, **{"--scenes": "2"})
    pred_dir = tmp_path / "pred"  # predictions equal to the ground truth
    pred_dir.mkdir()
    for sid in ("train_000", "train_001"):
        np.save(pred_dir / f"{sid}.npy", load_scene(corpus / f"scenes/{sid}.ply").labels)
    if fault == "short_mask":
        shot = next(iter(json.loads((corpus / "support.json").read_text())["classes"].values()))[0]
        path = corpus / shot["mask"]
        np.save(path, np.load(path)[:-1])
    elif fault == "pred_label_99":
        path = pred_dir / "train_001.npy"
        pred = np.load(path)
        pred[3] = 99
        np.save(path, pred)
    elif "uint64" in fault:
        path = (pred_dir if fault.startswith("pred") else corpus / "raw") / "train_001.npy"
        labels = np.maximum(np.load(path), 0).astype(np.uint64)
        labels[3] = 2**63 if fault.endswith("2**63") else 2**64 - 1
        np.save(path, labels)
    else:
        path = corpus / ("support/support_000.ply" if fault.startswith("support")
                         else "scenes/train_001.ply")
        value = 99 if fault.endswith("_99") else -5
        edit_ply_record(path, lambda rec: rec["label"].__setitem__(3, value))
    argv = [command, "--manifest", str(corpus / "manifest.json")]
    argv += ["--pred-dir", str(pred_dir)] if command == "eval" else ["--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONTRACT
    error = json.loads(err)["error"]
    kind, message = NAMED_FAULTS[fault]
    assert error["type"] == kind
    assert message.format(path=path) in error["message"]
    if message.startswith("{path}"):  # a file fault reads alike from every command
        assert error["message"].startswith(str(path))
    assert out == ""


@pytest.mark.parametrize("command, role", [
    ("refine", None), ("mix", None), ("eval", None), ("eval", "test"), ("eval", "trian"),
    ("stats", None),
])
def test_no_scenes_for_role(tmp_path, capsys, command, role):
    corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
    manifest_path = corpus / "manifest.json"
    if role is None:
        # Every scene moved out of the roles the command reads.
        doc = json.loads(manifest_path.read_text())
        for entry in doc["scenes"]:
            entry["role"] = "support" if command == "stats" else "test"
        manifest_path.write_text(json.dumps(doc))
    argv = [command, "--manifest", str(manifest_path)]
    if command == "eval":
        argv += ["--pred-dir", str(tmp_path)] + (["--role", role] if role else [])
    else:
        argv += ["--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONTRACT
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    if command == "stats":
        assert error["message"] == "manifest has no scenes with role 'train' or 'test'"
    else:
        assert error["message"].endswith(f"manifest has no scenes with role {role or 'train'!r}")
    assert out == ""


@pytest.mark.parametrize("command", ["refine", "stats", "split", "eval"])
def test_document_write_fault_is_io_error(tmp_path, capsys, command):
    # The document's file is a directory, so main's write fails: exit 3, and
    # no document is printed (eval has printed its table by then).
    corpus = simulate(tmp_path, capsys)
    manifest = str(corpus / "manifest.json")
    for argv in (["refine", "--manifest", manifest, "--out", str(tmp_path / "refined")],
                 ["stats", "--manifest", manifest, "--out", str(tmp_path / "stats.json")]):
        assert run(capsys, *argv)[0] == EXIT_OK
    blocked = tmp_path / "out" / "report.json"
    blocked.mkdir(parents=True)
    code, out, err = run(capsys, command, *{
        "refine": ["--manifest", manifest, "--out", str(blocked.parent)],
        "stats": ["--manifest", manifest, "--out", str(blocked)],
        "split": ["--stats", str(tmp_path / "stats.json"), "--threshold", "1", "--base", "2",
                  "--out", str(blocked)],
        "eval": ["--manifest", manifest, "--pred-dir", str(tmp_path / "refined"),
                 "--out", str(blocked)],
    }[command])
    assert code == EXIT_IO
    assert json.loads(err)["error"]["type"] == "IsADirectoryError"
    assert '"version"' not in out and (out != "") == (command == "eval")


class TestStatsAndSplit:
    def test_stats_then_split(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys)
        stats_path = tmp_path / "stats.json"
        code, stdout, _ = run(capsys, "stats",
                              "--manifest", str(corpus / "manifest.json"),
                              "--out", str(stats_path))
        assert code == EXIT_OK
        doc = json.loads(stats_path.read_text())
        assert doc["count_mode"] == "scenes"
        assert "base_00" in doc["classes"]

        split_path = tmp_path / "schema.json"
        code, stdout, _ = run(capsys, "split",
                              "--stats", str(stats_path),
                              "--threshold", "1", "--base", "2",
                              "--out", str(split_path))
        assert code == EXIT_OK
        schema_doc = json.loads(split_path.read_text())["schema"]
        assert len(schema_doc["base_names"]) == 2

    def test_split_threshold_too_high(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys)
        stats_path = tmp_path / "stats.json"
        run(capsys, "stats", "--manifest", str(corpus / "manifest.json"),
            "--out", str(stats_path))
        code, _, err = run(capsys, "split", "--stats", str(stats_path),
                           "--threshold", "1000", "--base", "2")
        assert code == EXIT_CONTRACT


STATS_ROW = {"occurrences": 3, "mean_points": 10.0}


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps({"classes": {"a": {"occurrences": 3}}}),
    json.dumps([STATS_ROW]),
    json.dumps({"classes": {"a": {"occurrences": "many", "mean_points": 1.0}}}),
    json.dumps({"classes": {"a": {"occurrences": 2.7, "mean_points": 1.0}}}),
    json.dumps({"classes": {"a": {"occurrences": True, "mean_points": 1.0}}}),
    json.dumps({"classes": {"a": {"occurrences": 3, "mean_points": "nan"}}}),
    json.dumps({"classes": {"a": {"occurrences": 3, "mean_points": float("nan")}}}),
    json.dumps({"classes": {"a": {"occurrences": 3, "mean_points": False}}}),
], ids=["invalid-json", "no-mean-points", "json-list", "non-numeric-occurrences",
        "fractional-occurrences", "boolean-occurrences", "string-nan-mean-points",
        "nan-mean-points", "boolean-mean-points"])
def test_split_malformed_stats(tmp_path, capsys, text):
    stats_path = tmp_path / "stats.json"
    stats_path.write_text(text)
    code, out, err = run(capsys, "split", "--stats", str(stats_path),
                         "--threshold", "1", "--base", "1")
    assert code == EXIT_IO
    error = json.loads(err)["error"]
    assert error["type"] == "FormatError"
    assert str(stats_path) in error["message"]
    assert out == ""


@pytest.mark.parametrize("names", [[1, 2, 3], "xyz"], ids=["integers", "bare-string"])
def test_non_string_class_names(tmp_path, capsys, names):
    corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
    manifest_path = corpus / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["schema"]["base_names"] = names
    manifest_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "stats", "--manifest", str(manifest_path))
    assert code == EXIT_CONTRACT
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert "base_names must be a list of strings" in error["message"]
    assert out == ""


# A schema ClassSchema refuses -> the text of its ConfigError.
SCHEMA_FAULTS = {
    "overlap": ({"base_names": ["base_00", "base_01"], "novel_names": ["base_00"]},
                "base/novel class names overlap: ['base_00']"),
    "duplicate-base": ({"base_names": ["base_00", "base_00"], "novel_names": ["novel_00"]},
                       "duplicate base class names"),
    "duplicate-novel": ({"base_names": ["base_00"], "novel_names": ["novel_00", "novel_00"]},
                        "duplicate novel class names"),
    "non-string": ({"base_names": ["base_00", 1], "novel_names": ["novel_00"]},
                   "base_names must be a list of strings, got ['base_00', 1]"),
}


@pytest.mark.parametrize("fault", SCHEMA_FAULTS)
def test_schema_fault_names_the_manifest(tmp_path, capsys, fault):
    schema, text = SCHEMA_FAULTS[fault]
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"version": 1, "schema": schema, "scenes": []}))
    code, out, err = run(capsys, "eval", "--manifest", str(manifest_path), "--pred-dir", str(tmp_path))
    assert code == EXIT_CONTRACT
    assert json.loads(err)["error"] == {"type": "ConfigError", "message": f"{manifest_path}: {text}"}
    assert out == ""


def test_split_whole_float_occurrences(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    stats_path.write_text(json.dumps({"a": {"occurrences": 3.0, "mean_points": 2}}))
    code, out, _ = run(capsys, "split", "--stats", str(stats_path),
                       "--threshold", "1", "--base", "1")
    assert code == EXIT_OK
    assert json.loads(out)["schema"]["base_names"] == ["a"]


@pytest.mark.parametrize("argv, message", [
    (["refine", "--manifest", "m.json", "--out", "o", "--tau", "abc"],
     "argument --tau: invalid float value: 'abc'"),
    (["refine", "--manifest", "m.json"], "required: --out"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    ([], "required: command"),
    (["eval", "--manifest", "m.json", "--pred-dir", "p", "--bogus"],
     "unrecognized arguments: --bogus"),
])
def test_flag_fault_is_json_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONTRACT
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert message in error["message"]
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["mix", "--manifest", "m.json", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["mix", "--manifest", "m.json", "--margin", "nan"], "crop_margin_xy must be >= 0, got nan"),
    (["simulate", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["simulate", "--noise-sigma", "nan"], "noise_sigma must be >= 0, got nan"),
    (["simulate", "--noise-sigma", "inf"], "noise_sigma must be finite, got inf"),
    (["simulate", "--confusion", "nan"], "confusion_prob must be in [0, 1], got nan"),
    (["simulate", "--flip", "inf"], "flip_prob must be in [0, 1], got inf"),
    (["simulate", "--dim", "0"], "dim must be >= 1, got 0"),
    (["simulate", "--scenes", "0"], "--scenes must be >= 1, got 0"),
    (["simulate", "--scenes", "-3"], "--scenes must be >= 1, got -3"),
    (["simulate", "--support-scenes", "0"], "--support-scenes must be >= 1, got 0"),
    (["simulate", "--base", "0"], "--base must be >= 1, got 0"),
    (["simulate", "--novel", "0"], "--novel must be >= 1, got 0"),
    (["simulate", "--shots", "0"], "--shots must be >= 1, got 0"),
    (["mix", "--manifest", "m.json", "--margin", "inf"], "crop_margin_xy must be finite, got inf"),
])
def test_config_fault_is_json_error_before_any_write(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == EXIT_CONTRACT
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert message in error["message"]
    assert stdout == ""
    assert not out.exists()


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["refine", "--help"])
    assert exc.value.code == 0
    assert "--tau" in capsys.readouterr().out


class TestEval:
    def test_perfect_predictions(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys, **{"--flip": "0.0", "--erosion": "0.0"})
        manifest = load_manifest(corpus / "manifest.json")
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for entry in manifest.entries("train"):
            scene = load_scene(manifest.resolve(entry.path))
            np.save(pred_dir / f"{entry.scene_id}.npy", scene.labels)
        out_path = tmp_path / "metrics.json"
        code, stdout, _ = run(capsys, "eval",
                              "--manifest", str(corpus / "manifest.json"),
                              "--pred-dir", str(pred_dir),
                              "--out", str(out_path))
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["metrics"]["miou_base"] == pytest.approx(1.0)
        assert doc["metrics"]["harmonic_mean"] == pytest.approx(1.0)

    def test_missing_prediction_file(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys)
        empty = tmp_path / "pred"
        empty.mkdir()
        code, _, err = run(capsys, "eval",
                           "--manifest", str(corpus / "manifest.json"),
                           "--pred-dir", str(empty))
        assert code == EXIT_CONTRACT

    def test_length_mismatch(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys)
        manifest = load_manifest(corpus / "manifest.json")
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for entry in manifest.entries("train"):
            np.save(pred_dir / f"{entry.scene_id}.npy", np.zeros(3, dtype=np.int64))
        code, _, err = run(capsys, "eval",
                           "--manifest", str(corpus / "manifest.json"),
                           "--pred-dir", str(pred_dir))
        assert code == EXIT_CONTRACT
        n_points = load_scene(manifest.resolve(manifest.entries("train")[0].path)).point_count
        assert json.loads(err)["error"] == {
            "type": "AlignmentError",
            "message": f"scene train_000: pred labels of shape (3,) are not {n_points} labels, "
                       "one per row"}

    def test_voxelized_eval(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys, **{"--flip": "0.0", "--erosion": "0.0"})
        manifest = load_manifest(corpus / "manifest.json")
        from pcrefine import VoxelConfig, voxelize
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for entry in manifest.entries("train"):
            scene = load_scene(manifest.resolve(entry.path))
            coarse = voxelize(scene, VoxelConfig(grid_size=0.1))
            np.save(pred_dir / f"{entry.scene_id}.npy", coarse.labels)
        out_path = tmp_path / "metrics.json"
        code, stdout, _ = run(capsys, "eval",
                              "--manifest", str(corpus / "manifest.json"),
                              "--pred-dir", str(pred_dir),
                              "--grid", "0.1", "--out", str(out_path))
        assert code == EXIT_OK
        assert json.loads(out_path.read_text())["metrics"]["harmonic_mean"] == 1.0

    @pytest.mark.parametrize("grid, message", [
        pytest.param("-1", "grid_size must be > 0, got -1.0", id="-1"),
        pytest.param("nan", "grid_size must be > 0, got nan", id="nan"),
        pytest.param("inf", "grid_size must be finite, got inf", id="inf"),
        # Too fine for the scene's extent: found only once a scene is read, so named.
        pytest.param("1e-300", "scene train_000: grid_size 1e-300 is too fine for this scene",
                     id="1e-300"),
    ])
    def test_bad_grid(self, tmp_path, capsys, grid, message):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
        code, out, err = run(capsys, "eval", "--manifest", str(corpus / "manifest.json"),
                             "--pred-dir", str(tmp_path), "--grid", grid)
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigError"
        assert message in error["message"]
        assert out == ""


def coloured_eval_corpus(tmp_path, capsys):
    """A simulated corpus whose train PLYs carry colours, and a directory of
    noisy per-point and per-voxel predictions for it."""
    corpus = simulate(tmp_path, capsys)
    manifest = load_manifest(corpus / "manifest.json")
    rng = np.random.default_rng(5)
    for entry in manifest.entries("train"):
        path = manifest.resolve(entry.path)
        scene = load_scene(path)
        scene = PointCloudScene(scene.positions, scene.labels,
                                rng.uniform(0, 1, size=(scene.point_count, 3)))
        save_scene(scene, path)
        for grid in (0.0, 0.05, 0.1):
            truth = voxelize(scene, VoxelConfig(grid)).labels if grid else scene.labels
            flip = rng.random(truth.shape[0]) < 0.2
            pred = np.where(flip, rng.integers(-1, manifest.schema.n_classes, truth.shape[0]), truth)
            (tmp_path / f"pred_{grid}").mkdir(exist_ok=True)
            np.save(tmp_path / f"pred_{grid}/{entry.scene_id}.npy", pred)
    return corpus, manifest


def reference_eval_doc(manifest, pred_dir, grid, unlabelled=()):
    """The eval document from load_scene and voxelize(...).labels, with the
    scenes named in unlabelled scored as all -1."""
    conf = metrics.ConfusionMatrix(manifest.schema.n_classes)
    for entry in manifest.entries("train"):
        scene = load_scene(manifest.resolve(entry.path))
        truth = voxelize(scene, VoxelConfig(grid)).labels if grid else scene.labels
        if entry.scene_id in unlabelled:
            truth = np.full_like(truth, -1)
        metrics.accumulate(conf, load_labels(pred_dir / f"{entry.scene_id}.npy"), truth)
    return {"version": 1, "metrics": metrics.summary(conf, manifest.schema).to_dict(),
            "per_class_iou": {str(c): v for c, v in metrics.iou_per_class(conf).items()}}


def edit_ply_record(path, edit=lambda rec: None, fmt="binary_little_endian", trailing=b""):
    """Apply edit to the vertex record of a binary PLY written by save_scene,
    then write it back as fmt, followed by trailing bytes. edit may drop or
    reorder fields by returning a new record; the header follows its order."""
    data = path.read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    lines = data[:end].decode("ascii").splitlines()
    props = {line.split()[2]: line for line in lines if line.startswith("property")}
    types = {"x": "<f4", "y": "<f4", "z": "<f4", "red": "u1", "green": "u1", "blue": "u1",
             "label": "<i4"}
    rec = np.frombuffer(data, dtype=[(n, types[n]) for n in props], offset=end).copy()
    edited = edit(rec)
    if edited is not None:  # a view of some fields, at the old offsets
        rec = repack_fields(edited)
    header = [lines[0], f"format {fmt} 1.0", lines[2], *(props[n] for n in rec.dtype.names),
              "end_header", ""]
    if fmt == "ascii":
        body = "".join(" ".join(map(repr, row)) + "\n" for row in rec.tolist()).encode("ascii")
    else:
        body = rec.tobytes()
    path.write_bytes("\n".join(header).encode("ascii") + body + trailing)


class TestEvalReader:
    """eval reads positions and labels only; its scores and its faults are
    those of load_scene followed by voxelize."""

    @pytest.mark.parametrize("grid, layout", [
        *(pytest.param(grid, "binary", id=grid) for grid in ("0", "0.05", "0.1")),
        # Eval takes each column at its offset in the record, whatever the order.
        *(pytest.param(grid, "shuffled", id=f"{grid}-shuffled") for grid in ("0", "0.05", "0.1")),
        pytest.param("0.05", "ascii", id="0.05-ascii"),
    ])
    def test_scores_equal_the_load_scene_reference(self, tmp_path, capsys, grid, layout):
        corpus, manifest = coloured_eval_corpus(tmp_path, capsys)
        for entry in manifest.entries("train"):
            if layout == "shuffled":
                edit_ply_record(manifest.resolve(entry.path), lambda rec: rec[["z", "label", "x", "y"]])
            elif layout == "ascii":
                edit_ply_record(manifest.resolve(entry.path), fmt="ascii")
        pred_dir = tmp_path / f"pred_{float(grid)}"
        code, out, _ = run(capsys, "eval", "--manifest", str(corpus / "manifest.json"),
                           "--pred-dir", str(pred_dir), "--grid", grid,
                           "--out", str(tmp_path / "eval.json"))
        assert code == EXIT_OK
        want = reference_eval_doc(manifest, pred_dir, float(grid))
        assert out.splitlines()[-1] == json.dumps(want)
        assert (tmp_path / "eval.json").read_text() == json.dumps(want, indent=2)

    @pytest.mark.parametrize("grid", ["0", "0.1"])
    def test_ply_without_labels_scores_as_background(self, tmp_path, capsys, grid):
        corpus, manifest = coloured_eval_corpus(tmp_path, capsys)
        pred_dir = tmp_path / f"pred_{float(grid)}"
        path = corpus / "scenes/train_001.ply"
        want = reference_eval_doc(manifest, pred_dir, float(grid), unlabelled={"train_001"})
        edit_ply_record(path, lambda rec: rec[["x", "y", "z", "red", "green", "blue"]])
        assert b"property int label" not in path.read_bytes()
        with pytest.warns(MissingLabelWarning, match="no 'label' property"):
            code, out, _ = run(capsys, "eval", "--manifest", str(corpus / "manifest.json"),
                               "--pred-dir", str(pred_dir), "--grid", grid)
        assert code == EXIT_OK
        assert out.splitlines()[-1] == json.dumps(want)

    @pytest.mark.parametrize("grid", ["0", "0.1"])
    @pytest.mark.parametrize("fault, message", [
        ("nan_position", "train_001.ply: position [nan,"),
        ("label_minus_5", "train_001.ply: label -5 at point 7 "),
        # Past the schema's classes, and outvoted in its voxel at --grid 0.1.
        ("label_99", "train_001.ply: label 99 at point 7 "),
        ("inf_z_last_point", ", inf] of point "),
    ])
    def test_fault_in_train_ply_exits_2(self, tmp_path, capsys, grid, fault, message):
        corpus, _ = coloured_eval_corpus(tmp_path, capsys)
        column, index, value = {"nan_position": ("x", 7, np.nan), "label_minus_5": ("label", 7, -5),
                                "label_99": ("label", 7, 99), "inf_z_last_point": ("z", -1, np.inf)}[fault]
        n = load_scene(corpus / "scenes/train_001.ply").point_count
        edit_ply_record(corpus / "scenes/train_001.ply",
                        lambda rec: rec[column].__setitem__(index, value))
        if fault == "inf_z_last_point":
            message += f"{n - 1} is not finite"
        code, out, err = run(capsys, "eval", "--manifest", str(corpus / "manifest.json"),
                             "--pred-dir", str(tmp_path / f"pred_{float(grid)}"), "--grid", grid)
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ContractError"
        assert message in error["message"]
        assert str(corpus / "scenes/train_001.ply") in error["message"]
        assert out == ""

    def test_finite_positions_whose_float32_sum_overflows_score(self, tmp_path, capsys):
        # Two x of 3e38 are finite, but the float32 columns' one summing pass
        # reads inf; the exact pass must clear them, as it does for float64.
        corpus, manifest = coloured_eval_corpus(tmp_path, capsys)
        path = corpus / "scenes/train_001.ply"

        def edit(rec):
            rec["x"][[0, 8]] = 3e38
            with np.errstate(over="ignore"):
                assert not np.isfinite(np.stack([rec["x"], rec["y"], rec["z"]]).sum())
        edit_ply_record(path, edit)
        pred_dir = tmp_path / "pred_0.0"
        code, out, _ = run(capsys, "eval", "--manifest", str(corpus / "manifest.json"),
                           "--pred-dir", str(pred_dir), "--grid", "0")
        assert code == EXIT_OK
        assert load_scene(path).positions[[0, 8], 0].tolist() == [float(np.float32(3e38))] * 2
        assert out.splitlines()[-1] == json.dumps(reference_eval_doc(manifest, pred_dir, 0.0))

    def test_truth_label_past_the_classes_in_one_wide_voxel_exits_2(self, tmp_path, capsys):
        # Labels -1 and 2**31 - 2 span 2**31 in one cell: the (cell, label)
        # pairs fit int32, the span does not. The vote still runs, and the
        # label 2**31 - 2 it returns is past the schema's classes.
        corpus, manifest = coloured_eval_corpus(tmp_path, capsys)
        path = corpus / "scenes/train_001.ply"

        def edit(rec):
            rec["label"] = 2**31 - 2
            rec["label"][0] = -1
        edit_ply_record(path, edit)
        pred_dir = tmp_path / "pred_wide"
        pred_dir.mkdir()
        for entry in manifest.entries("train"):
            positions = load_scene(manifest.resolve(entry.path)).positions
            n_cells = len(np.unique(np.floor(positions / 1e6), axis=0))
            np.save(pred_dir / f"{entry.scene_id}.npy", np.zeros(n_cells, dtype=np.int64))
        code, out, err = run(capsys, "eval", "--manifest", str(corpus / "manifest.json"),
                             "--pred-dir", str(pred_dir), "--grid", "1e6")
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ContractError"
        assert "train_001" in error["message"]
        assert str(2**31 - 2) in error["message"]
        assert out == ""


class TestEndToEnd:
    def test_refine_improves_noisy_predictions(self, tmp_path, capsys):
        corpus = simulate(tmp_path, capsys, **{"--flip": "0.2", "--erosion": "0.2",
                                               "--scenes": "6"})
        manifest = load_manifest(corpus / "manifest.json")
        out = tmp_path / "refined"
        code, _, _ = run(capsys, "refine",
                         "--manifest", str(corpus / "manifest.json"),
                         "--out", str(out))
        assert code == EXIT_OK

        from pcrefine import pseudo_label_quality
        raw_prec, ref_prec = [], []
        for entry in manifest.entries("train"):
            scene = load_scene(manifest.resolve(entry.path))
            raw = load_labels(manifest.resolve(entry.raw_predictions))
            refined = load_labels(out / f"{entry.scene_id}.npy")
            q_raw = pseudo_label_quality(raw, scene.labels, manifest.schema)
            q_ref = pseudo_label_quality(refined, scene.labels, manifest.schema)
            if q_raw.mean_precision() is not None and q_ref.mean_precision() is not None:
                raw_prec.append(q_raw.mean_precision())
                ref_prec.append(q_ref.mean_precision())
        assert np.mean(ref_prec) > np.mean(raw_prec)


def run_quiet(*argv):
    """main() with stdout dropped and stderr returned; Hypothesis examples
    cannot share the function-scoped capsys."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """A 2-scene corpus and its clean refined labels."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus, refined = root / "corpus", root / "refined"
    assert run_quiet("simulate", "--out", str(corpus), "--scenes", "2",
                     "--support-scenes", "2", "--dim", "16")[0] == EXIT_OK
    assert run_quiet("refine", "--manifest", str(corpus / "manifest.json"),
                     "--out", str(refined))[0] == EXIT_OK
    return root, load_manifest(corpus / "manifest.json")


@st.composite
def label_file_fault(draw):
    """A dtype, up to three (position, value) edits, and a length change."""
    dtype = np.dtype(draw(st.sampled_from(
        ["int8", "uint8", "int16", "int32", "int64", "uint64",
         "float32", "float64", "bool", "<U3"])))
    value = st.one_of(st.integers(-3, 10), from_dtype(dtype))
    edits = draw(st.lists(st.tuples(st.integers(0, 2**16), value), max_size=3))
    return dtype, edits, draw(st.sampled_from([0, 0, 0, -1, 1]))


def apply_fault(labels, dtype, edits, resize):
    out = labels.astype(dtype)
    for pos, value in edits:
        out[pos % len(out)] = np.asarray(value).astype(dtype)
    return np.resize(out, len(out) + resize)


def assert_clean_exit(code, err):
    assert code in (EXIT_OK, EXIT_CONTRACT, EXIT_IO)
    if code != EXIT_OK:
        assert "error" in json.loads(err)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(target=st.sampled_from(["raw", "base", "pred"]), fault=label_file_fault())
def test_fuzzed_label_file_through_main(fuzz_corpus, target, fault):
    """One raw, base or prediction .npy of the later scene is rewritten with a
    drawn dtype and values; refine and eval exit 0, 2 or 3, and a refine that
    exits 0 writes only labels in [-1, n_classes)."""
    root, manifest = fuzz_corpus
    manifest_path = str(root / "corpus/manifest.json")
    entry = manifest.entries("train")[-1]
    path = {"raw": manifest.resolve(entry.raw_predictions),
            "base": manifest.resolve(entry.base_labels),
            "pred": root / f"refined/{entry.scene_id}.npy"}[target]
    original = path.read_bytes()
    try:
        np.save(path, apply_fault(np.load(path), *fault))
        pred_dir = root / "refined"
        if target != "pred":
            pred_dir = tempfile.mkdtemp(dir=root)
            code, err = run_quiet("refine", "--manifest", manifest_path, "--out", pred_dir)
            assert_clean_exit(code, err)
            if code == EXIT_OK:
                for e in manifest.entries("train"):
                    labels = load_labels(f"{pred_dir}/{e.scene_id}.npy")
                    assert labels.min() >= -1 and labels.max() < manifest.schema.n_classes
        assert_clean_exit(*run_quiet("eval", "--manifest", manifest_path,
                                     "--pred-dir", str(pred_dir)))
    finally:
        path.write_bytes(original)


HEADER_LINES = ["", "ply", "element", "element vertex", "element vertex -5", "element face 3",
                "format ascii 1.0", "format binary_big_endian 1.0", "property float x",
                "property double y", "property uchar red", "property int label",
                "property list uchar int label", "comment é", "end_header"]
PLY_TYPES = ["float", "float32", "double", "uchar", "char", "int", "int32", "uint", "short"]
ASCII_VALUES = ["nan", "inf", "-inf", "abc", "2.5", "300", "-2", "-1", "1e40", "0x1", "é"]


# The new text each kind of PLY fault writes; corrupt_ply says where.
PLY_FAULT_TEXT = {
    "header_line": st.sampled_from(HEADER_LINES),
    "count": st.one_of(st.integers(-5, 2**40).map(str),
                       st.sampled_from(["abc", "1e3", "+3", "", "7.0"])),
    "type": st.sampled_from(PLY_TYPES),
    "ascii_value": st.one_of(st.sampled_from(ASCII_VALUES), st.integers(-300, 300).map(str),
                             st.floats().map(repr)),
    "truncate": st.just(""),
}


def corrupt_ply(path, kind, at, text):
    """Rewrite the binary PLY at path with one fault: a header line, the
    vertex count or a property type replaced by text, one value of an ASCII
    rewrite replaced by text, or a cut; `at` picks the line, value or offset."""
    data = path.read_bytes()
    if kind == "truncate":
        path.write_bytes(data[:at % len(data)])
        return
    head, _, body = data.partition(b"end_header\n")
    lines = head.decode("ascii").splitlines()
    if kind == "header_line":
        lines[at % len(lines)] = text
    elif kind == "count":
        lines[2] = f"element vertex {text}"
    elif kind == "type":
        i = 3 + at % (len(lines) - 3)  # a property line
        lines[i] = f"property {text} {lines[i].split()[-1]}"
    else:
        scene = load_scene(path)
        lines[1] = "format ascii 1.0"
        rows = [[repr(float(v)) for v in p] + [str(label)]
                for p, label in zip(scene.positions, scene.labels)]
        row = rows[at % len(rows)]
        row[at % len(row)] = text
        body = "".join(" ".join(row) + "\n" for row in rows).encode("utf-8")
    path.write_bytes("\n".join(lines + ["end_header", ""]).encode("utf-8") + body)


@pytest.mark.parametrize("kind", list(PLY_FAULT_TEXT))
@settings(max_examples=5, derandomize=True, deadline=None, database=None)
@given(at=st.integers(0, 2**20), data=st.data())
def test_fuzzed_ply_file_through_main(fuzz_corpus, kind, at, data):
    """The later train PLY is corrupted, 5 examples per kind of fault; eval
    and mix exit 0, 2 or 3, and a mix that exits 0 writes PLYs that load
    with labels of -1 or more."""
    root, manifest = fuzz_corpus
    manifest_path = str(root / "corpus/manifest.json")
    path = manifest.resolve(manifest.entries("train")[-1].path)
    original = path.read_bytes()
    try:
        corrupt_ply(path, kind, at, data.draw(PLY_FAULT_TEXT[kind]))
        assert_clean_exit(*run_quiet("eval", "--manifest", manifest_path,
                                     "--pred-dir", str(root / "refined")))
        out = tempfile.mkdtemp(dir=root)
        code, err = run_quiet("mix", "--manifest", manifest_path, "--out", out)
        assert_clean_exit(code, err)
        if code == EXIT_OK:
            for e in manifest.entries("train"):
                assert load_scene(f"{out}/{e.scene_id}.ply").labels.min() >= -1
    finally:
        path.write_bytes(original)


# Values a fuzzed corpus JSON field is given: every JSON type, near misses of
# 1, empty and NUL-bearing strings, and a path to another corpus file.
JSON_VALUES = [None, True, 1, 1.0, -1, 2**70, "", "x", "a\0b", "support.json",
               [], {}, [1], {"a": 1}]
DUPLICATE = "\0duplicate"


def json_fields(node, path=()):
    """The path (object keys and list indices) to every value below node."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from json_fields(child, path + (key,))


def edit_json(doc, path, op, value):
    """The JSON text of doc with the field at path dropped, retyped to value,
    or duplicated: a list element is repeated, and an object key is written a
    second time, with value (json.loads keeps the later one)."""
    doc = copy.deepcopy(doc)
    *parents, key = path
    parent = functools.reduce(operator.getitem, parents, doc)
    if op == "drop":
        del parent[key]
    elif op == "retype":
        parent[key] = value
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[DUPLICATE] = value
    return json.dumps(doc).replace(json.dumps(DUPLICATE), json.dumps(key))


@pytest.mark.parametrize("name", ["manifest.json", "support.json"])
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_corpus_json_through_main(fuzz_corpus, name, data):
    """One field of the corpus's manifest.json or support.json is dropped,
    retyped or duplicated; refine and mix exit 0, 2 or 3, and a run that
    exits 0 writes only labels in [-1, n_classes)."""
    root, _ = fuzz_corpus
    manifest_path = root / "corpus/manifest.json"
    path = root / "corpus" / name
    original = path.read_bytes()
    doc = json.loads(original)
    field = data.draw(st.sampled_from(list(json_fields(doc))))
    op = data.draw(st.sampled_from(["drop", "retype", "duplicate"]))
    value = data.draw(st.sampled_from(JSON_VALUES))
    try:
        path.write_text(edit_json(doc, field, op, value))
        for command in ("refine", "mix"):
            out = tempfile.mkdtemp(dir=root)
            code, err = run_quiet(command, "--manifest", str(manifest_path), "--out", out)
            assert_clean_exit(code, err)
            if code == EXIT_OK:
                manifest = load_manifest(manifest_path)
                for e in manifest.entries("train"):
                    labels = (load_labels(f"{out}/{e.scene_id}.npy") if command == "refine"
                              else load_scene(f"{out}/{e.scene_id}.ply").labels)
                    assert labels.min() >= -1 and labels.max() < manifest.schema.n_classes
    finally:
        path.write_bytes(original)


# Where each .gfve header field sits, and how it is packed (see save_embeddings).
GFVE_HEADER = {"magic": (0, "4s"), "version": (4, "<I"), "n": (8, "<Q"), "d": (16, "<I")}


@st.composite
def gfve_fault(draw, n, d):
    """A header field and its new value, or "length" and how many bytes to
    cut (below 0) or append; new n and d values cluster near the true ones."""
    field = draw(st.sampled_from([*GFVE_HEADER, "length"]))
    value = {
        "magic": st.one_of(st.binary(min_size=4, max_size=4), st.just(b"gfve")),
        "version": st.sampled_from([0, 2, 2**32 - 1]),
        "n": st.one_of(st.integers(0, 2**64 - 1), st.integers(max(0, n - 3), n + 3)),
        "d": st.one_of(st.integers(0, 2**32 - 1), st.integers(max(0, d - 3), d + 3)),
        "length": st.one_of(st.integers(-n * d * 4 - 20, -1), st.integers(1, 64)),
    }[field]
    return field, draw(value)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(target=st.sampled_from(["train", "support"]), data=st.data())
def test_fuzzed_embedding_file_through_main(fuzz_corpus, target, data):
    """The header of the later train scene's or the first support scene's
    .gfve gets a drawn magic, version, n or d, or the file is cut or grown;
    refine exits 3 and leaves no labels behind, unless the draw left the
    file as it was."""
    root, manifest = fuzz_corpus
    path = (manifest.resolve(manifest.entries("train")[-1].embedding) if target == "train"
            else root / "corpus/support/support_000.gfve")
    original = path.read_bytes()
    n, d = load_embeddings(path).shape
    field, value = data.draw(gfve_fault(n, d))
    if field == "length":
        corrupted = original[:len(original) + value] if value < 0 else original + bytes(value)
    else:
        offset, fmt = GFVE_HEADER[field]
        packed = struct.pack(fmt, value)
        corrupted = original[:offset] + packed + original[offset + len(packed):]
    try:
        path.write_bytes(corrupted)
        out = tempfile.mkdtemp(dir=root)
        code, err = run_quiet("refine", "--manifest", str(root / "corpus/manifest.json"),
                              "--out", out)
        assert_clean_exit(code, err)
        # The payload must be exactly n x d x 4 bytes, so every change to the
        # header or the length is a format fault.
        assert code == (EXIT_OK if corrupted == original else EXIT_IO)
        if code != EXIT_OK:
            assert not list(Path(out).glob("*.npy"))
        else:
            for e in manifest.entries("train"):
                labels = load_labels(f"{out}/{e.scene_id}.npy")
                assert labels.min() >= -1 and labels.max() < manifest.schema.n_classes
    finally:
        path.write_bytes(original)


# Values a fuzzed flag is given: numbers, NaN, infinities, -0, negatives,
# a JSON boolean and an empty string. A count flag draws no valid count
# above 8, so no run builds a large corpus.
FLAG_VALUE = st.one_of(
    st.integers(-3, 8).map(str),  # small values, so that many runs get past the checks
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "-0", "-0.0", "true", "", "1e400", "9" * 30]),
)
COUNT_VALUE = st.one_of(
    st.integers(-8, 8).map(str),
    st.sampled_from(["nan", "inf", "-inf", "-0", "-0.0", "true", "", "2.5", "1e3"]),
)
COUNT_FLAGS = {"--scenes", "--support-scenes", "--base", "--novel", "--shots", "--dim", "--blocks"}
# Each subcommand's flags but --out, which would write wherever a value points.
FUZZED_FLAGS = {
    "simulate": ["--seed", "--scenes", "--support-scenes", "--base", "--novel", "--shots",
                 "--dim", "--noise-sigma", "--confusion", "--p-miss", "--erosion", "--flip"],
    "refine": ["--manifest", "--tau", "--delta"],
    "mix": ["--manifest", "--blocks", "--margin", "--seed"],
    "stats": ["--manifest"],
    "split": ["--stats", "--threshold", "--base"],
    "eval": ["--manifest", "--pred-dir", "--role", "--grid"],
}


@pytest.mark.parametrize("command", FUZZED_FLAGS)
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_flag_through_main(fuzz_corpus, command, data):
    """One flag of a valid run gets a drawn value (as --flag=value, so a
    leading '-' reaches the flag's parser); the run exits 0, 2 or 3, with a
    JSON error on stderr unless it exits 0."""
    root, _ = fuzz_corpus
    manifest, out = str(root / "corpus/manifest.json"), str(root / f"flag_{command}")
    stats = root / "stats.json"
    if not stats.exists():
        assert run_quiet("stats", "--manifest", manifest, "--out", str(stats))[0] == EXIT_OK
    argv = {
        "simulate": ["--out", out, "--scenes", "1", "--support-scenes", "1",
                     "--base", "1", "--novel", "1", "--dim", "8"],
        "refine": ["--manifest", manifest, "--out", out],
        "mix": ["--manifest", manifest, "--out", out, "--blocks", "1"],
        "stats": ["--manifest", manifest],
        "split": ["--stats", str(stats), "--threshold", "1", "--base", "1"],
        "eval": ["--manifest", manifest, "--pred-dir", str(root / "refined")],
    }[command]
    flag = data.draw(st.sampled_from(FUZZED_FLAGS[command]))
    value = data.draw(COUNT_VALUE if flag in COUNT_FLAGS else FLAG_VALUE)
    assert_clean_exit(*run_quiet(command, *argv, f"{flag}={value}"))
