import numpy as np
import pytest

from pcrefine import PointCloudScene, load_scene, save_scene
from pcrefine.errors import FormatError
from pcrefine.scene_io import (
    Manifest,
    MissingLabelWarning,
    SceneEntry,
    load_labels,
    load_manifest,
    save_labels,
    save_manifest,
)


def make_scene(n=3, colors=True, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloudScene(
        positions=rng.uniform(-5, 5, size=(n, 3)),
        labels=rng.integers(-1, 6, size=n),
        colors=rng.integers(0, 256, size=(n, 3)) / 255.0 if colors else None,
    )


def test_round_trip(tmp_path):
    scene = make_scene(17)
    path = tmp_path / "scene.ply"
    save_scene(scene, path)
    back = load_scene(path)
    assert back.point_count == 17
    # Positions are stored as float32.
    np.testing.assert_array_equal(
        back.positions.astype(np.float32), scene.positions.astype(np.float32)
    )
    np.testing.assert_array_equal(back.labels, scene.labels)
    np.testing.assert_allclose(back.colors, scene.colors, atol=1 / 510)


def test_double_round_trip_is_identity(tmp_path):
    scene = make_scene(9, seed=5)
    p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
    save_scene(scene, p1)
    first = load_scene(p1)
    save_scene(first, p2)
    second = load_scene(p2)
    np.testing.assert_array_equal(first.positions, second.positions)
    np.testing.assert_array_equal(first.labels, second.labels)
    np.testing.assert_array_equal(first.colors, second.colors)


def test_ascii_reader(tmp_path):
    path = tmp_path / "ascii.ply"
    path.write_text(
        "ply\nformat ascii 1.0\ncomment written by hand\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "property int label\nend_header\n"
        "0.5 -1.25 2 255 0 51 3\n"
        "0.1 0 -7.5 0 128 255 -1\n"
        "\n"
        "1e3 4 0.25 10 20 30 12\n"
    )
    scene = load_scene(path)
    # Positions pass through float32, as a binary file stores them.
    np.testing.assert_array_equal(
        scene.positions,
        np.array([[0.5, -1.25, 2.0], [0.1, 0.0, -7.5], [1000.0, 4.0, 0.25]],
                 dtype=np.float32).astype(np.float64),
    )
    assert scene.positions.dtype == np.float64
    np.testing.assert_array_equal(
        scene.colors, np.array([[255, 0, 51], [0, 128, 255], [10, 20, 30]]) / 255.0
    )
    np.testing.assert_array_equal(scene.labels, [3, -1, 12])
    assert scene.labels.dtype == np.int64


def test_no_colors(tmp_path):
    scene = make_scene(4, colors=False)
    save_scene(scene, tmp_path / "s.ply")
    back = load_scene(tmp_path / "s.ply")
    assert back.colors is None


def test_missing_label_property_warns(tmp_path):
    path = tmp_path / "nolabel.ply"
    body = (
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
        "0 0 0\n1 1 1\n"
    )
    path.write_text(body)
    with pytest.warns(MissingLabelWarning):
        scene = load_scene(path)
    assert (scene.labels == -1).all()


def test_truncated_ascii_payload(tmp_path):
    path = tmp_path / "trunc.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 5\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property int label\nend_header\n0 0 0 1\n"
    )
    with pytest.raises(FormatError, match="truncated"):
        load_scene(path)


def test_truncated_binary_payload(tmp_path):
    scene = make_scene(10)
    path = tmp_path / "full.ply"
    save_scene(scene, path)
    data = path.read_bytes()
    short = tmp_path / "short.ply"
    short.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="byte offset"):
        load_scene(short)


def test_unknown_property_rejected(tmp_path):
    path = tmp_path / "odd.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float curvature\nend_header\n0 0 0 0\n"
    )
    with pytest.raises(FormatError, match="curvature"):
        load_scene(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("plx\nformat ascii 1.0\nend_header\n")
    with pytest.raises(FormatError, match="line 1"):
        load_scene(path)


def test_labels_npy_round_trip(tmp_path):
    labels = np.array([-1, 0, 7, 3], dtype=np.int64)
    save_labels(labels, tmp_path / "l.npy")
    np.testing.assert_array_equal(load_labels(tmp_path / "l.npy"), labels)


def test_manifest_round_trip(tmp_path, schema):
    manifest = Manifest(
        schema=schema,
        scenes=[
            SceneEntry("s0", "scenes/s0.ply", "train", embedding="emb/s0.gfve"),
            SceneEntry("s1", "scenes/s1.ply", "test"),
        ],
        support="support.json",
    )
    save_manifest(manifest, tmp_path / "manifest.json")
    back = load_manifest(tmp_path / "manifest.json")
    assert back.schema == schema
    assert back.support == "support.json"
    assert [e.scene_id for e in back.entries("train")] == ["s0"]
    assert back.entries("train")[0].embedding == "emb/s0.gfve"
    assert back.resolve("scenes/s0.ply") == tmp_path / "scenes/s0.ply"


def test_manifest_bad_json(tmp_path):
    (tmp_path / "m.json").write_text("{not json")
    with pytest.raises(FormatError):
        load_manifest(tmp_path / "m.json")
