import mmap
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pcrefine import (
    ClassSchema,
    FileFeatureProvider,
    InfillConfig,
    NoiseSpec,
    PointCloudScene,
    SelectionConfig,
    SyntheticFeatureProvider,
    SyntheticProviderConfig,
    class_anchors,
    corrupt_predictions,
    cosine,
    gen_scene,
    load_embeddings,
    make_support,
    refine_labels,
    save_embeddings,
    support_prototypes,
)
from pcrefine.errors import AlignmentError, ConfigError, FormatError
from pcrefine.sim import base_only_labels, random_scene_spec

SRC = Path(__file__).resolve().parents[1] / "src"


def make_scene(labels):
    labels = np.asarray(labels)
    return PointCloudScene(
        positions=np.arange(labels.size * 3, dtype=float).reshape(-1, 3),
        labels=labels,
    )


@pytest.fixture
def no_mmap(monkeypatch):
    """Fails the test if load_embeddings maps a file."""
    def refuse(*args, **kwargs):
        raise AssertionError("a file was mapped")
    monkeypatch.setattr(mmap, "mmap", refuse)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        save_embeddings(mat, tmp_path / "e.gfve")
        back = load_embeddings(tmp_path / "e.gfve")
        np.testing.assert_array_equal(back, mat)

    def test_header_layout(self, tmp_path):
        save_embeddings(np.zeros((2, 3)), tmp_path / "e.gfve")
        data = (tmp_path / "e.gfve").read_bytes()
        assert data[:4] == b"GFVE"
        assert int.from_bytes(data[4:8], "little") == 1  # version
        assert int.from_bytes(data[8:16], "little") == 2  # N
        assert int.from_bytes(data[16:20], "little") == 3  # D
        assert len(data) == 20 + 2 * 3 * 4

    def test_truncated(self, tmp_path, no_mmap):
        save_embeddings(np.zeros((4, 4)), tmp_path / "e.gfve")
        data = (tmp_path / "e.gfve").read_bytes()
        (tmp_path / "short.gfve").write_bytes(data[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_embeddings(tmp_path / "short.gfve")

    @pytest.mark.parametrize("fault", ["trailing_bytes", "smaller_n", "smaller_d"])
    def test_payload_longer_than_header_says(self, tmp_path, no_mmap, fault):
        save_embeddings(np.zeros((4, 4)), tmp_path / "e.gfve")
        data = bytearray((tmp_path / "e.gfve").read_bytes())
        if fault == "trailing_bytes":
            data += bytes(4)
        else:  # a header rewritten smaller would reinterpret the payload
            offset, fmt = {"smaller_n": (8, "<Q"), "smaller_d": (16, "<I")}[fault]
            struct.pack_into(fmt, data, offset, 3)
        (tmp_path / "long.gfve").write_bytes(data)
        have, need = len(data) - 20, {"trailing_bytes": 64, "smaller_n": 48, "smaller_d": 48}[fault]
        with pytest.raises(FormatError, match=f"long.gfve: overlong payload: need {need} bytes .* have {have}"):
            load_embeddings(tmp_path / "long.gfve")

    def test_loads_float32_as_stored(self, tmp_path):
        mat = np.random.default_rng(0).standard_normal((37, 5)).astype(np.float32)
        mat[0, :4] = [-0.0, np.inf, np.nan, np.float32(1e-45)]
        save_embeddings(mat, tmp_path / "e.gfve")
        back = load_embeddings(tmp_path / "e.gfve")
        assert back.dtype == np.float32
        assert back.flags.c_contiguous
        assert back.shape == mat.shape
        assert back.tobytes() == mat.tobytes()

    def test_huge_header_on_short_file_allocates_nothing(self, tmp_path, no_mmap):
        path = tmp_path / "huge.gfve"
        path.write_bytes(b"GFVE" + struct.pack("<IQI", 1, 2**40, 4) + b"\x00" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated payload"):
                load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("make", [
        lambda x: x,                                   # float64
        lambda x: x.astype(np.float32),
        lambda x: x.astype(">f4"),
        lambda x: np.asfortranarray(x),
        lambda x: x[::2],                              # row-strided
        lambda x: x[:0],                               # (0, d)
    ], ids=["f64", "f32", "big-endian-f32", "fortran", "row-strided", "no-rows"])
    def test_bytes_are_the_little_endian_float32_matrix(self, tmp_path, make):
        features = make(np.random.default_rng(3).standard_normal((9, 5)))
        save_embeddings(features, tmp_path / "e.gfve")
        header = b"GFVE" + struct.pack("<IQI", 1, *features.shape)
        payload = np.asarray(features, np.float32).astype("<f4").tobytes()
        assert (tmp_path / "e.gfve").read_bytes() == header + payload

    @pytest.mark.parametrize("features", [np.float32(1.0), np.zeros(4)], ids=["0-d", "1-d"])
    def test_not_a_matrix_rejected_with_its_shape(self, tmp_path, features):
        with pytest.raises(ConfigError, match=rf"got shape {re.escape(str(features.shape))}$"):
            save_embeddings(features, tmp_path / "e.gfve")
        assert list(tmp_path.iterdir()) == []

    def test_float32_matrix_written_without_a_copy(self, tmp_path):
        features = np.ones((1024, 512), dtype=np.float32)  # 2 MiB
        tracemalloc.start()
        try:
            save_embeddings(features, tmp_path / "e.gfve")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < features.nbytes // 4

    def test_failed_write_keeps_the_old_path_and_leaves_no_temporary(self, tmp_path):
        (tmp_path / "e.gfve").mkdir()  # a directory cannot be replaced by a file
        with pytest.raises(OSError):
            save_embeddings(np.zeros((2, 3)), tmp_path / "e.gfve")
        assert [p.name for p in tmp_path.iterdir()] == ["e.gfve"]
        assert (tmp_path / "e.gfve").is_dir()

    def test_mapped_features_saved_back_to_their_own_path(self, tmp_path):
        # In a fresh interpreter: truncating a mapped file kills the process with SIGBUS.
        path = tmp_path / "e.gfve"
        features = np.random.default_rng(4).standard_normal((300, 64)).astype(np.float32)
        save_embeddings(features, path)
        child = ("import sys; from pcrefine import load_embeddings, save_embeddings; "
                 "save_embeddings(load_embeddings(sys.argv[1]), sys.argv[1])")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        run = subprocess.run([sys.executable, "-c", child, str(path)], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        np.testing.assert_array_equal(load_embeddings(path), features)
        assert [p.name for p in tmp_path.iterdir()] == ["e.gfve"]

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.gfve").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_embeddings(tmp_path / "bad.gfve")

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0)])
    def test_empty_payload_loads_without_mapping(self, tmp_path, no_mmap, shape):
        save_embeddings(np.zeros(shape), tmp_path / "e.gfve")
        back = load_embeddings(tmp_path / "e.gfve")
        assert back.shape == shape
        assert back.dtype == np.float32

    def test_mapped_view_is_read_only_and_contiguous(self, tmp_path):
        mat = np.arange(12, dtype=np.float32).reshape(4, 3)
        save_embeddings(mat, tmp_path / "e.gfve")
        back = load_embeddings(tmp_path / "e.gfve")
        assert back.flags.c_contiguous
        assert not back.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back[0, 0] = 1.0
        np.testing.assert_array_equal(back, mat)

    def test_refine_on_mapped_file_equals_refine_on_a_copy(self, tmp_path):
        schema = ClassSchema(("b0", "b1", "b2"), ("n0", "n1", "n2", "n3"))
        provider = SyntheticFeatureProvider(schema, SyntheticProviderConfig(
            dim=16, anchor_seed=3, noise_sigma=0.6, confusion_prob=0.1))
        scene = gen_scene(random_scene_spec(schema, seed=3, novel_prob=1.0))
        raw = corrupt_predictions(scene.labels, scene.positions,
                                  NoiseSpec(0.2, 0.1, 0.3, seed=3), schema)
        pool = [gen_scene(random_scene_spec(schema, seed=30 + j, novel_prob=1.0))
                for j in range(2)]
        support = support_prototypes(make_support(pool, schema, k=1, seed=3), provider)
        base = base_only_labels(scene.labels, schema)
        save_embeddings(provider.embed_scene(scene), tmp_path / "e.gfve")

        mapped = load_embeddings(tmp_path / "e.gfve")
        copied = np.array(mapped)
        assert not mapped.flags.writeable and copied.flags.writeable
        cfgs = SelectionConfig(0.3), InfillConfig(0.5)
        y_mapped, r_mapped = refine_labels(mapped, raw, base, support, schema, *cfgs)
        y_copied, r_copied = refine_labels(copied, raw, base, support, schema, *cfgs)
        assert y_mapped.tobytes() == y_copied.tobytes()
        assert r_mapped.to_dict() == r_copied.to_dict()
        # Both selection outcomes and infilling are exercised.
        assert r_mapped.kept_classes and r_mapped.filtered_classes
        assert r_mapped.infilled_points


class TestAnchors:
    def test_orthonormal(self, schema):
        anchors = class_anchors(schema, dim=8, anchor_seed=0)
        assert len(anchors) == schema.n_classes
        for c in anchors.classes():
            assert np.linalg.norm(anchors[c]) == pytest.approx(1.0)
        for a in anchors.classes():
            for b in anchors.classes():
                if a < b:
                    assert abs(np.dot(anchors[a], anchors[b])) < 1e-9

    def test_max_pairwise_cosine_is_zero(self):
        schema = ClassSchema(tuple(f"b{i}" for i in range(4)),
                             tuple(f"n{i}" for i in range(6)))
        anchors = class_anchors(schema, dim=16, anchor_seed=5)
        worst = max(
            abs(cosine(anchors[a], anchors[b]))
            for a in anchors.classes() for b in anchors.classes() if a < b
        )
        assert worst < 1e-9

    def test_deterministic(self, schema):
        a = class_anchors(schema, dim=12, anchor_seed=3)
        b = class_anchors(schema, dim=12, anchor_seed=3)
        for c in a.classes():
            np.testing.assert_array_equal(a[c], b[c])

    def test_zero_dim_rejected(self, schema):
        with pytest.raises(ConfigError):
            class_anchors(schema, dim=0, anchor_seed=0)

    @pytest.mark.parametrize("dim, message", [
        (-3, "dim must be >= 1, got -3"),
        (2.5, "dim must be an integer, got 2.5"),
        (True, "dim must be an integer, got True"),
        ("16", "dim must be an integer, got '16'"),
    ])
    def test_dim_checked_like_a_config_field(self, schema, dim, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            class_anchors(schema, dim=dim, anchor_seed=0)

    def test_small_dim_warns(self, schema):
        with pytest.warns(UserWarning, match="not orthogonal"):
            class_anchors(schema, dim=2, anchor_seed=0)


class TestSyntheticProvider:
    def test_zero_noise_hits_anchor_exactly(self, schema):
        provider = SyntheticFeatureProvider(
            schema, SyntheticProviderConfig(dim=16, anchor_seed=1)
        )
        scene = make_scene([0, 3, 7, -1])
        feats = provider.embed_scene(scene)
        for i, label in enumerate(scene.labels):
            anchor = provider.background_anchor if label == -1 else provider.anchors[int(label)]
            np.testing.assert_allclose(feats[i], anchor, atol=1e-12)

    def test_background_anchor_orthogonal_to_classes(self, schema):
        provider = SyntheticFeatureProvider(
            schema, SyntheticProviderConfig(dim=16, anchor_seed=1)
        )
        for c in range(schema.n_classes):
            assert abs(np.dot(provider.background_anchor, provider.anchors[c])) < 1e-9

    def test_deterministic(self, schema):
        cfg = SyntheticProviderConfig(dim=16, anchor_seed=2, noise_sigma=0.3,
                                      confusion_prob=0.2)
        scene = make_scene([0, 1, 4, 5, -1, 3])
        a = SyntheticFeatureProvider(schema, cfg).embed_scene(scene)
        b = SyntheticFeatureProvider(schema, cfg).embed_scene(scene)
        np.testing.assert_array_equal(a, b)

    def test_zero_noise_cosine_one(self, schema):
        provider = SyntheticFeatureProvider(
            schema, SyntheticProviderConfig(dim=16, anchor_seed=4)
        )
        rng = np.random.default_rng(0)
        scene = make_scene(rng.integers(0, schema.n_classes, size=200))
        feats = provider.embed_scene(scene)
        for i, label in enumerate(scene.labels):
            assert cosine(feats[i], provider.anchors[int(label)]) == pytest.approx(1.0)

    def test_confusion_rate_converges(self, schema):
        p = 0.15
        provider = SyntheticFeatureProvider(
            schema, SyntheticProviderConfig(dim=16, anchor_seed=6, confusion_prob=p)
        )
        n = 100_000
        rng = np.random.default_rng(1)
        scene = make_scene(rng.integers(0, schema.n_classes, size=n))
        feats = provider.embed_scene(scene)
        own = np.stack([provider.anchors[int(c)] for c in scene.labels])
        wrong = ~np.isclose((feats * own).sum(axis=1), 1.0)
        assert abs(wrong.mean() - p) < 0.01

    def test_no_room_for_a_background_anchor(self, schema):
        # As many orthonormal class anchors as dimensions leave no direction free.
        with pytest.raises(ConfigError, match="^cannot build a background anchor orthogonal"):
            SyntheticFeatureProvider(schema, SyntheticProviderConfig(dim=schema.n_classes))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            SyntheticProviderConfig(confusion_prob=1.5)
        with pytest.raises(ConfigError):
            SyntheticProviderConfig(noise_sigma=-0.1)


class TestFileProvider:
    def test_pass_through(self, tmp_path):
        mat = np.eye(4, 8)
        save_embeddings(mat, tmp_path / "s.gfve")
        scene = make_scene([0, 1, 2, 3])
        scene.source_path = "scene_a"
        provider = FileFeatureProvider({"scene_a": tmp_path / "s.gfve"})
        feats = provider.embed_scene(scene)
        assert feats.shape == (4, 8)
        np.testing.assert_array_equal(feats, mat)

    def test_row_mismatch(self, tmp_path):
        save_embeddings(np.zeros((3, 8)), tmp_path / "s.gfve")
        scene = make_scene([0, 1, 2, 3])
        scene.source_path = "scene_a"
        provider = FileFeatureProvider({"scene_a": tmp_path / "s.gfve"})
        # The text of a train scene's mismatch: both files and both counts.
        with pytest.raises(AlignmentError, match=f"^scene_a declares 4 points, but "
                                                 f"{re.escape(str(tmp_path / 's.gfve'))} "
                                                 f"holds 3 feature rows$"):
            provider.embed_scene(scene)

    def test_unknown_scene(self):
        provider = FileFeatureProvider({})
        with pytest.raises(ConfigError):
            provider.embed_scene(make_scene([0]))
