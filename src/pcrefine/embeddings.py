"""Per-point feature providers and the embedding file format.

Providers stand in for a 3D vision-language encoder: the refinement math
only needs per-point feature geometry, so the pipeline runs against either
precomputed feature files or a deterministic synthetic generator.
"""

from __future__ import annotations

import os
import struct
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import AlignmentError, ConfigError, FormatError
from .prototypes import PrototypeSet
from .scene import ClassSchema, PointCloudScene

EMBEDDING_MAGIC = b"GFVE"
EMBEDDING_VERSION = 1


class FeatureProvider(Protocol):
    def embed_scene(self, scene: PointCloudScene) -> np.ndarray:
        """Return the (N, D) feature matrix for a scene, rows in point order."""


def save_embeddings(features: np.ndarray, path: str | Path) -> None:
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2:
        raise ConfigError(f"expected (N, D) matrix, got shape {features.shape}")
    n, d = features.shape
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC)
        f.write(struct.pack("<IQI", EMBEDDING_VERSION, n, d))
        f.write(features.astype("<f4").tobytes())


def load_embeddings(path: str | Path) -> np.ndarray:
    """The (N, D) float32 matrix of an embedding file, as stored.

    The payload size is checked against the file size before anything is
    mapped. The result is a read-only, C-contiguous view of the mapped
    file, so only the pages of the rows a caller reads are ever loaded.
    Truncating the file while the view is alive raises SIGBUS on access.
    """
    import mmap  # here, not at module level, as np.memmap does: keeps CLI start-up lean

    path = Path(path)
    with open(path, "rb") as f:
        header = f.read(20)
        if header[:4] != EMBEDDING_MAGIC:
            raise FormatError(f"{path}: bad magic {header[:4]!r}, expected {EMBEDDING_MAGIC!r}")
        if len(header) < 20:
            raise FormatError(f"{path}: truncated header ({len(header)} bytes)")
        version, n, d = struct.unpack_from("<IQI", header, 4)
        if version != EMBEDDING_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        need = n * d * 4
        have = os.fstat(f.fileno()).st_size - 20
        if have < need:
            raise FormatError(
                f"{path}: truncated payload: need {need} bytes for {n}x{d}, "
                f"have {have}"
            )
        if need == 0:  # an empty payload cannot be mapped
            return np.empty((n, d), dtype="<f4")
        buf = mmap.mmap(f.fileno(), 20 + need, access=mmap.ACCESS_READ)
    return np.frombuffer(buf, dtype="<f4", count=n * d, offset=20).reshape(n, d)


def class_anchors(schema: ClassSchema, dim: int, anchor_seed: int) -> PrototypeSet:
    """Seeded orthonormal unit anchors, one per class index in [0, n_classes).

    The first min(n_classes, dim) anchors are pairwise orthogonal; any
    remainder (dim < n_classes) is only normalized, with a warning.
    """
    if dim <= 0:
        raise ConfigError(f"feature dimension must be positive, got {dim}")
    n = schema.n_classes
    if dim < n:
        warnings.warn(
            f"feature dim {dim} < {n} classes; anchors beyond {dim} are not orthogonal"
        )
    rng = np.random.default_rng(anchor_seed)
    raw = rng.standard_normal((n, dim))
    k = min(n, dim)
    q, _ = np.linalg.qr(raw[:k].T)
    vectors = {c: q[:, c].copy() for c in range(k)}
    for c in range(k, n):
        v = raw[c]
        vectors[c] = v / np.linalg.norm(v)
    return PrototypeSet(vectors)


@dataclass(frozen=True)
class SyntheticProviderConfig:
    """Controls the synthetic feature generator.

    noise_sigma scales isotropic gaussian noise added to the class anchor;
    confusion_prob swaps a point's anchor for a uniformly random wrong-class
    anchor before noise is applied.
    """

    dim: int = 32
    anchor_seed: int = 0
    noise_sigma: float = 0.0
    confusion_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.confusion_prob <= 1.0:
            raise ConfigError(f"confusion_prob must be in [0, 1], got {self.confusion_prob}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


class SyntheticFeatureProvider:
    """Deterministic features: normalize(anchor(label) + sigma * gaussian).

    Background points (-1) draw from a dedicated anchor orthogonal to every
    class anchor, so infilling tests can include distractors.
    """

    def __init__(self, schema: ClassSchema, config: SyntheticProviderConfig):
        self.schema = schema
        self.config = config
        self.anchors = class_anchors(schema, config.dim, config.anchor_seed)
        self.background_anchor = self._background_anchor()

    def _background_anchor(self) -> np.ndarray:
        rng = np.random.default_rng(self.config.anchor_seed + 1)
        v = rng.standard_normal(self.config.dim)
        for c in self.anchors.classes():
            a = self.anchors[c]
            v = v - np.dot(v, a) * a
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise ConfigError(
                "cannot build a background anchor orthogonal to all class anchors; "
                "increase the feature dimension"
            )
        return v / norm

    def anchor_for(self, label: int) -> np.ndarray:
        return self.background_anchor if label == -1 else self.anchors[label]

    def embed_scene(self, scene: PointCloudScene) -> np.ndarray:
        cfg = self.config
        n = scene.point_count
        anchor_matrix = np.vstack(
            [self.background_anchor]
            + [self.anchors[c] for c in range(self.schema.n_classes)]
        )
        idx = scene.labels + 1  # -1 -> row 0 (background anchor)

        # Noise is deterministic per (config, scene): distinct scenes draw
        # distinct streams, repeated calls on the same scene are identical.
        digest = zlib.crc32(scene.positions.tobytes())
        rng = np.random.default_rng([cfg.anchor_seed + 2, digest])
        if cfg.confusion_prob > 0:
            confused = rng.random(n) < cfg.confusion_prob
            wrong = rng.integers(0, self.schema.n_classes - 1, size=n)
            # Skip the point's own class so a confused draw is always wrong.
            wrong = wrong + (wrong >= scene.labels)
            idx = np.where(confused & (scene.labels >= 0), wrong + 1, idx)
        feats = anchor_matrix[idx]
        if cfg.noise_sigma > 0:
            feats = feats + cfg.noise_sigma * rng.standard_normal((n, cfg.dim))
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        return feats / norms


class FileFeatureProvider:
    """Serves precomputed features from embedding files keyed by scene path."""

    def __init__(self, paths: dict[str, str | Path]):
        self.paths = {str(k): Path(v) for k, v in paths.items()}

    def embed_scene(self, scene: PointCloudScene) -> np.ndarray:
        if scene.source_path is None or scene.source_path not in self.paths:
            raise ConfigError(
                f"no embedding file registered for scene {scene.source_path!r}"
            )
        feats = load_embeddings(self.paths[scene.source_path])
        if feats.shape[0] != scene.point_count:
            raise AlignmentError(
                f"embedding rows {feats.shape[0]} != scene points "
                f"{scene.point_count} for {scene.source_path}"
            )
        return feats
