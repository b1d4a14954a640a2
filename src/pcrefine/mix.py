"""Novel-base mix augmentation: crop a support sample around its novel
object, align it to the base scene at a randomly chosen pair of opposite
XY corners with floor-level Z alignment, and concatenate. Repeating for
several blocks grows the scene outward while leaving base points untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyMaskError
from .prototypes import SupportSet
from .scene import PointCloudScene, checked_mask

PAIRINGS = ("bottom", "top", "left", "right")

# Selected base corner -> opposite novel corner.
_OPPOSITE = {"bottom": "top", "top": "bottom", "left": "right", "right": "left"}


@dataclass(frozen=True)
class MixConfig:
    n_blocks: int = 3
    crop_margin_xy: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ConfigError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.crop_margin_xy < 0:
            raise ConfigError(f"crop_margin_xy must be >= 0, got {self.crop_margin_xy}")


def corners_xy(points: np.ndarray) -> dict[str, np.ndarray]:
    """XY-extreme points of a cloud keyed by PAIRINGS: bottom (min Y), top
    (max Y), left (min X), right (max X), full 3D coordinates. Ties break to
    the smallest index."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ConfigError("corners_xy needs at least one point")
    return {
        "bottom": points[int(np.argmin(points[:, 1]))].copy(),
        "top": points[int(np.argmax(points[:, 1]))].copy(),
        "left": points[int(np.argmin(points[:, 0]))].copy(),
        "right": points[int(np.argmax(points[:, 0]))].copy(),
    }


def pick_pair(rng: np.random.Generator) -> str:
    """Uniformly choose which base corner to align; the novel cloud
    contributes the opposite corner."""
    return PAIRINGS[int(rng.integers(0, 4))]


def crop_novel(
    support_scene: PointCloudScene, mask: np.ndarray, margin: float
) -> tuple[PointCloudScene, np.ndarray]:
    """Cut the XY bounding box of masked points, expanded by margin per side.

    The full Z range is kept. Retained points carry the support scene's label
    where masked and -1 elsewhere, so surrounding context comes along without
    leaking foreign labels.
    """
    mask = checked_mask("crop", mask, support_scene.point_count)
    if not mask.any():
        raise EmptyMaskError("crop mask selects no points")
    pos = support_scene.positions
    lo = pos[mask, :2].min(axis=0) - margin
    hi = pos[mask, :2].max(axis=0) + margin
    keep = (
        (pos[:, 0] >= lo[0]) & (pos[:, 0] <= hi[0])
        & (pos[:, 1] >= lo[1]) & (pos[:, 1] <= hi[1])
    )
    kept_mask = mask[keep]
    labels = np.where(kept_mask, support_scene.labels[keep], -1)
    colors = support_scene.colors[keep] if support_scene.colors is not None else None
    cropped = PointCloudScene(positions=pos[keep].copy(), labels=labels, colors=colors)
    return cropped, kept_mask


def mix(
    base: PointCloudScene,
    support: SupportSet,
    cfg: MixConfig,
    rng: np.random.Generator | None = None,
) -> PointCloudScene:
    """Insert n_blocks cropped support shots around the base scene.

    Shots are sampled uniformly with replacement (class, then shot). Each
    block aligns against the accumulated cloud from previous blocks, so
    insertions fan out as the scene grows. Base points are never altered.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    classes = support.classes()
    # The grown cloud's corners and floor, carried block to block. Taking
    # each corner over the pair (carried, block) keeps corners_xy's rule:
    # ties and NaN resolve as argmax/argmin over the whole cloud would.
    corners = corners_xy(base.positions)
    floor = base.positions[:, 2].min()
    positions, labels, colors = [base.positions], [base.labels], [base.colors]
    for _ in range(cfg.n_blocks):
        c = classes[int(rng.integers(0, len(classes)))]
        shot = support.shots[c][int(rng.integers(0, support.k))]
        cropped, _ = crop_novel(shot.scene, shot.mask, cfg.crop_margin_xy)
        pairing = pick_pair(rng)
        # Snap the block's opposite corner onto the chosen corner in XY and
        # drop it to the floor in Z.
        target = corners[pairing]
        source = corners_xy(cropped.positions)[_OPPOSITE[pairing]]
        moved = cropped.positions + np.array(
            [target[0] - source[0], target[1] - source[1], 0.0]
        )
        moved[:, 2] += floor - moved[:, 2].min()
        block = corners_xy(moved)
        corners = {k: corners_xy(np.stack([corners[k], block[k]]))[k] for k in PAIRINGS}
        floor = np.min([floor, moved[:, 2].min()])
        positions.append(moved)
        labels.append(cropped.labels)
        colors.append(cropped.colors)
    mixed = PointCloudScene(positions=np.concatenate(positions), labels=np.concatenate(labels))
    if all(col is not None for col in colors):
        # Copies of checked scenes' colours: set after construction, they
        # skip the scene's finite check, a pass over 24 MB per 1M points.
        mixed.colors = np.concatenate(colors)
    return mixed
