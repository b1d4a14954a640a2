import contextlib
import copy
import functools
import io
import json
import operator
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import from_dtype
from numpy.lib.recfunctions import repack_fields

from pcrefine import VoxelConfig, metrics, voxelize
from pcrefine.cli import EXIT_CONTRACT, EXIT_IO, EXIT_OK, main
from pcrefine.embeddings import load_embeddings, save_embeddings
from pcrefine.scene_io import (
    MissingLabelWarning,
    load_labels,
    load_manifest,
    load_scene,
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
        for entry in manifest.entries("train"):
            refined = load_labels(out / f"{entry.scene_id}.npy")
            base = load_labels(manifest.resolve(entry.base_labels))
            labeled = base != -1
            # Base annotations survive refinement untouched.
            np.testing.assert_array_equal(refined[labeled], base[labeled])

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

    def test_one_blas_thread_does_not_change_outputs(self, tmp_path, capsys, monkeypatch):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "2", "--dim": "64"})
        outputs = []
        for name in ("scoped", "unscoped"):
            if name == "unscoped":
                monkeypatch.setattr(sys.modules["pcrefine.infill"], "_one_blas_thread",
                                    contextlib.nullcontext)
            code, _, _ = run(capsys, "refine", "--manifest", str(corpus / "manifest.json"),
                             "--out", str(tmp_path / name))
            assert code == EXIT_OK
            outputs.append({f.name: f.read_bytes() for f in (tmp_path / name).iterdir()})
        assert sorted(outputs[0]) == ["report.json", "train_000.npy", "train_001.npy"]
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("role", ["train", "support"])
    def test_label_past_schema(self, tmp_path, capsys, role):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
        path = corpus / ("scenes/train_000.ply" if role == "train"
                         else "support/support_000.ply")
        scene = load_scene(path)
        i = int(np.flatnonzero(scene.labels >= 0)[0])
        scene.labels[i:] = np.where(scene.labels[i:] >= 0, 99, -1)
        save_scene(scene, path)
        out = tmp_path / "mixed"
        code, stdout, err = run(capsys, "mix", "--manifest", str(corpus / "manifest.json"),
                                "--out", str(out))
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ContractError"
        assert f"{path}: label 99 at point {i} " in error["message"]
        assert stdout == ""
        assert not list(out.glob("*.ply"))

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


def break_support(path, case):
    """Corrupt a support.json or its first shot's mask; return the file's path."""
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
    else:
        del doc["classes"][first][0][case.removeprefix("shot_without_")]
    path.write_text(json.dumps(doc))
    return path


# A version other than the JSON integer 1; true and 1.0 equal 1 in Python.
VERSIONS = {"version_7": 7, "version_true": True, "version_float": 1.0}


@pytest.mark.parametrize("command", ["refine", "mix"])
@pytest.mark.parametrize("case, code, error", [
    ("missing", EXIT_CONTRACT, "ConfigError"),
    ("invalid_json", EXIT_IO, "FormatError"),
    ("no_classes", EXIT_IO, "FormatError"),
    ("shot_without_scene", EXIT_IO, "FormatError"),
    ("shot_without_mask", EXIT_IO, "FormatError"),
    ("non_integer_class", EXIT_IO, "FormatError"),
    ("version_7", EXIT_IO, "FormatError"),
    ("version_true", EXIT_IO, "FormatError"),
    ("version_float", EXIT_IO, "FormatError"),
    ("mask_of_twos", EXIT_IO, "FormatError"),
    ("mask_of_strings", EXIT_IO, "FormatError"),
])
def test_bad_support_file(tmp_path, capsys, command, case, code, error):
    corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
    broken = break_support(corpus / "support.json", case)
    got, _, err = run(capsys, command, "--manifest", str(corpus / "manifest.json"),
                      "--out", str(tmp_path / "out"))
    assert got == code
    assert json.loads(err)["error"]["type"] == error
    assert str(broken) in json.loads(err)["error"]["message"]


def break_input(corpus, pred_dir, case):
    """Corrupt one input file of a one-scene corpus; return the file's path."""
    manifest_path = corpus / "manifest.json"
    doc = json.loads(manifest_path.read_text())
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
        else:
            support = json.loads((corpus / "support.json").read_text())
            target = corpus / next(iter(support["classes"].values()))[0]["mask"]
        if case.endswith("_float_labels_npy"):
            np.save(target, np.load(target).astype(np.float64))
        elif case.endswith("_2d_labels_npy"):
            np.save(target, np.load(target)[:, None])
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
                  "non_string_id", "version_true", "version_float", "duplicate_id"]


@pytest.mark.parametrize("command, case", [
    *[(command, case) for case in MANIFEST_CASES for command in ("refine", "eval", "mix")],
    ("refine", "raw_truncated_labels_npy"), ("refine", "raw_empty_labels_npy"),
    ("refine", "raw_float_labels_npy"), ("refine", "raw_2d_labels_npy"),
    ("eval", "pred_truncated_labels_npy"), ("eval", "pred_empty_labels_npy"),
    ("eval", "pred_float_labels_npy"),
    ("refine", "truncated_mask_npy"), ("mix", "empty_mask_npy"),
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
    scene = load_scene(path)
    scene.positions[5, 0] = np.nan
    save_scene(scene, path)
    argv = [command, "--manifest", str(corpus / "manifest.json")]
    argv += ["--pred-dir", str(tmp_path)] if command == "eval" else ["--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONTRACT
    error = json.loads(err)["error"]
    assert error["type"] == "ContractError"
    assert f"{path}: position [nan," in error["message"] and "point 5 " in error["message"]
    assert out == ""


@pytest.mark.parametrize("command, role", [
    ("refine", None), ("mix", None), ("eval", None), ("eval", "test"), ("eval", "trian"),
])
def test_no_scenes_for_role(tmp_path, capsys, command, role):
    corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
    manifest_path = corpus / "manifest.json"
    if role is None:
        # Every scene moved out of the role the command reads.
        doc = json.loads(manifest_path.read_text())
        for entry in doc["scenes"]:
            entry["role"] = "test"
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
    assert repr(role or "train") in error["message"]
    assert out == ""


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
        code, stdout, _ = run(capsys, "eval",
                              "--manifest", str(corpus / "manifest.json"),
                              "--pred-dir", str(pred_dir),
                              "--grid", "0.1")
        assert code == EXIT_OK

    @pytest.mark.parametrize("grid", ["-1", "nan", "inf"])
    def test_bad_grid(self, tmp_path, capsys, grid):
        corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
        code, out, err = run(capsys, "eval", "--manifest", str(corpus / "manifest.json"),
                             "--pred-dir", str(tmp_path), "--grid", grid)
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigError"
        assert "grid_size must be positive" in error["message"]
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
        scene.colors = rng.uniform(0, 1, size=(scene.point_count, 3))
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


def edit_ply_record(path, edit):
    """Apply edit to the vertex record of a binary PLY written by save_scene,
    keeping its header; edit may drop fields by returning a new record."""
    data = path.read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:end].decode("ascii")
    names = [line.split()[2] for line in header.splitlines() if line.startswith("property")]
    types = {"x": "<f4", "y": "<f4", "z": "<f4", "red": "u1", "green": "u1", "blue": "u1",
             "label": "<i4"}
    rec = np.frombuffer(data, dtype=[(n, types[n]) for n in names], offset=end).copy()
    edited = edit(rec)
    if edited is not None:  # a view of some fields, at the old offsets
        rec = repack_fields(edited)
    kept = "".join(line + "\n" for line in header.splitlines()
                   if not line.startswith("property") or line.split()[2] in rec.dtype.names)
    path.write_bytes(kept.encode("ascii") + rec.tobytes())


class TestEvalReader:
    """eval reads positions and labels only; its scores and its faults are
    those of load_scene followed by voxelize."""

    @pytest.mark.parametrize("grid", ["0", "0.05", "0.1"])
    def test_scores_equal_the_load_scene_reference(self, tmp_path, capsys, grid):
        corpus, manifest = coloured_eval_corpus(tmp_path, capsys)
        pred_dir = tmp_path / f"pred_{float(grid)}"
        code, out, _ = run(capsys, "eval", "--manifest", str(corpus / "manifest.json"),
                           "--pred-dir", str(pred_dir), "--grid", grid)
        assert code == EXIT_OK
        want = reference_eval_doc(manifest, pred_dir, float(grid))
        assert out.splitlines()[-1] == json.dumps(want)

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
        ("label_minus_5", "scene label -5 at point 7 "),
    ])
    def test_fault_in_train_ply_exits_2(self, tmp_path, capsys, grid, fault, message):
        corpus, _ = coloured_eval_corpus(tmp_path, capsys)
        column, value = {"nan_position": ("x", np.nan), "label_minus_5": ("label", -5)}[fault]
        edit_ply_record(corpus / "scenes/train_001.ply",
                        lambda rec: rec[column].__setitem__(7, value))
        code, out, err = run(capsys, "eval", "--manifest", str(corpus / "manifest.json"),
                             "--pred-dir", str(tmp_path / f"pred_{float(grid)}"), "--grid", grid)
        assert code == EXIT_CONTRACT
        error = json.loads(err)["error"]
        assert error["type"] == "ContractError"
        assert message in error["message"]
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
