import json

import numpy as np
import pytest

from pcrefine.cli import EXIT_CONTRACT, EXIT_IO, EXIT_OK, main
from pcrefine.scene_io import load_labels, load_manifest, load_scene


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
        assert "raw label 99 at point 0" in error["message"]
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
    if case == "missing":
        path.unlink()
        return
    if case == "invalid_json":
        path.write_text('{"classes": ')
        return
    doc = json.loads(path.read_text())
    first = next(iter(doc["classes"]))
    if case == "no_classes":
        del doc["classes"]
    elif case == "non_integer_class":
        doc["classes"]["novel"] = doc["classes"].pop(first)
    else:
        del doc["classes"][first][0][case.removeprefix("shot_without_")]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("command", ["refine", "mix"])
@pytest.mark.parametrize("case, code, error", [
    ("missing", EXIT_CONTRACT, "ConfigError"),
    ("invalid_json", EXIT_IO, "FormatError"),
    ("no_classes", EXIT_IO, "FormatError"),
    ("shot_without_scene", EXIT_IO, "FormatError"),
    ("shot_without_mask", EXIT_IO, "FormatError"),
    ("non_integer_class", EXIT_IO, "FormatError"),
])
def test_bad_support_file(tmp_path, capsys, command, case, code, error):
    corpus = simulate(tmp_path, capsys, **{"--scenes": "1"})
    break_support(corpus / "support.json", case)
    got, _, err = run(capsys, command, "--manifest", str(corpus / "manifest.json"),
                      "--out", str(tmp_path / "out"))
    assert got == code
    assert json.loads(err)["error"]["type"] == error


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
                  "non_string_support", "misspelled_role", "non_string_role"]


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
    if case.endswith("_role"):
        assert "'train_000'" in error["message"]


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
], ids=["invalid-json", "no-mean-points", "json-list", "non-numeric-occurrences"])
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
