import numpy as np
import pytest

from pcrefine import (
    ClassSchema,
    MixConfig,
    PointCloudScene,
    SupportSet,
    SupportShot,
    corners_xy,
    crop_novel,
    mix,
    pick_pair,
)
from pcrefine.errors import ConfigError, EmptyMaskError
from pcrefine.mix import PAIRINGS

OPPOSITE = {"bottom": "top", "top": "bottom", "left": "right", "right": "left"}


def scene_from(points, labels=None):
    points = np.asarray(points, dtype=float)
    if points.shape[1] == 2:
        points = np.column_stack([points, np.zeros(len(points))])
    if labels is None:
        labels = np.zeros(len(points))
    return PointCloudScene(points, np.asarray(labels))


class TestCorners:
    def test_extremes(self):
        c = corners_xy(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 3.0, 0.0]]))
        assert list(c) == list(PAIRINGS)
        np.testing.assert_array_equal(c["left"], [0, 0, 0])
        np.testing.assert_array_equal(c["right"], [2, 0, 0])
        np.testing.assert_array_equal(c["top"], [1, 3, 0])
        # Bottom tie (y = 0) breaks to the smallest index.
        np.testing.assert_array_equal(c["bottom"], [0, 0, 0])

    def test_single_point(self):
        c = corners_xy(np.array([[1.0, 2.0, 3.0]]))
        for key in PAIRINGS:
            np.testing.assert_array_equal(c[key], [1, 2, 3])

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=(1000, 3))
        c = corners_xy(pts)
        assert c["left"][0] == pts[:, 0].min()
        assert c["right"][0] == pts[:, 0].max()
        assert c["bottom"][1] == pts[:, 1].min()
        assert c["top"][1] == pts[:, 1].max()


class TestPickPair:
    def test_deterministic(self):
        assert pick_pair(np.random.default_rng(3)) == pick_pair(np.random.default_rng(3))

    def test_uniform(self):
        rng = np.random.default_rng(1)
        draws = [pick_pair(rng) for _ in range(4000)]
        for key in PAIRINGS:
            assert abs(draws.count(key) - 1000) <= 100


class TestCrop:
    def test_contains_masked_points(self):
        rng = np.random.default_rng(2)
        scene = scene_from(rng.uniform(0, 10, size=(100, 3)), np.full(100, 5))
        mask = rng.random(100) < 0.2
        mask[0] = True
        cropped, cmask = crop_novel(scene, mask, margin=0.0)
        assert cmask.sum() == mask.sum()
        assert cropped.point_count >= mask.sum()

    def test_saturating_margin(self):
        rng = np.random.default_rng(3)
        scene = scene_from(rng.uniform(0, 4, size=(50, 3)), np.full(50, 4))
        mask = np.zeros(50, dtype=bool)
        mask[7] = True
        cropped, _ = crop_novel(scene, mask, margin=100.0)
        assert cropped.point_count == 50

    def test_membership_matches_box_oracle(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 10, size=(400, 3))
        scene = scene_from(pts, np.full(400, 6))
        mask = rng.random(400) < 0.1
        mask[0] = True
        margin = 0.5
        cropped, _ = crop_novel(scene, mask, margin)
        lo = pts[mask, :2].min(axis=0) - margin
        hi = pts[mask, :2].max(axis=0) + margin
        expected = sum(
            1 for p in pts
            if lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]
        )
        assert cropped.point_count == expected

    def test_unmasked_context_loses_label(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [5.0, 5.0, 0.0]])
        scene = scene_from(pts, [7, 1, 1])
        cropped, cmask = crop_novel(scene, [1, 0, 0], margin=0.5)
        assert cropped.point_count == 2
        np.testing.assert_array_equal(cropped.labels, [7, -1])
        np.testing.assert_array_equal(cmask, [True, False])

    def test_empty_mask(self):
        with pytest.raises(EmptyMaskError):
            crop_novel(scene_from([[0, 0]]), [0], 1.0)


ONE_NOVEL = ClassSchema(("floor",), ("lamp",))


def picked_pairings(seed, n_blocks):
    """The pairings `mix` draws at `seed` from a one-class, one-shot support."""
    rng = np.random.default_rng(seed)
    pairings = []
    for _ in range(n_blocks):
        rng.integers(0, 1), rng.integers(0, 1)  # class, then shot
        pairings.append(pick_pair(rng))
    return pairings


def mix_one_block(base, novel, pairing, mask=None):
    """`mix` inserting the whole `novel` scene (the margin covers it) as its
    one block, at the first seed whose stream picks `pairing`."""
    mask = np.ones(novel.point_count, dtype=bool) if mask is None else mask
    support = SupportSet(ONE_NOVEL, {1: (SupportShot(novel, mask),)})
    seed = next(s for s in range(100) if picked_pairings(s, 1) == [pairing])
    return mix(base, support, MixConfig(n_blocks=1, crop_margin_xy=1e6, seed=seed))


class TestTranslateAlign:
    """The per-block step of `mix`: snap the block's opposite corner onto
    the grown cloud's chosen corner in XY, drop it to the floor in Z."""

    def test_translation_arithmetic(self):
        base = scene_from([[5.0, 0.0], [5.0, 5.0]])
        novel = scene_from([[1.0, 4.0], [1.0, 0.0]], labels=[4, 0])
        out = mix_one_block(base, novel, "bottom", mask=np.array([True, False]))
        # T = base bottom - novel top = (4, -4, 0); z floors already equal.
        np.testing.assert_allclose(out.positions[2], [5.0, 0.0, 0.0], atol=1e-12)
        assert out.point_count == 4
        np.testing.assert_array_equal(out.labels, [0, 0, 4, -1])

    def test_floor_alignment(self):
        base = scene_from(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 2.0]]))
        novel = scene_from(np.array([[4.0, 4.0, 0.3], [4.0, 5.0, 1.3]]), [5, 5])
        out = mix_one_block(base, novel, "top")
        inserted = out.positions[2:]
        assert inserted[:, 2].min() == pytest.approx(0.0, abs=1e-12)

    def test_corner_coincidence(self):
        rng = np.random.default_rng(5)
        for pairing in PAIRINGS:
            base = scene_from(rng.uniform(0, 3, size=(30, 3)))
            novel = scene_from(rng.uniform(10, 12, size=(20, 3)), np.full(20, 3))
            out = mix_one_block(base, novel, pairing)
            bc = corners_xy(base.positions)[pairing]
            nc = corners_xy(out.positions[30:])[OPPOSITE[pairing]]
            np.testing.assert_allclose(nc[:2], bc[:2], atol=1e-9)

    def test_rigidity(self):
        rng = np.random.default_rng(6)
        base = scene_from(rng.uniform(0, 3, size=(10, 3)))
        novel_pts = rng.uniform(5, 8, size=(15, 3))
        novel = scene_from(novel_pts, np.full(15, 4))
        out = mix_one_block(base, novel, "left")
        moved = out.positions[10:]
        orig_d = np.linalg.norm(novel_pts[:, None] - novel_pts[None, :], axis=2)
        new_d = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
        np.testing.assert_allclose(new_d, orig_d, atol=1e-9)

    def test_later_block_aligns_against_grown_cloud(self):
        # Block 2 snaps onto a corner of base + block 1, not of the base alone.
        base = scene_from([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        novel = scene_from([[0.0, 0.0, 0.0], [0.0, 3.0, 1.0]], [2, 2])
        support = SupportSet(ONE_NOVEL, {1: (SupportShot(novel, [True, True]),)})
        for seed in range(50):
            out = mix(base, support, MixConfig(n_blocks=2, crop_margin_xy=1e6, seed=seed))
            second = picked_pairings(seed, 2)[1]
            grown = corners_xy(out.positions[:4])[second]
            block = corners_xy(out.positions[4:])[OPPOSITE[second]]
            np.testing.assert_array_equal(block[:2], grown[:2])


def build_support(schema, seed=0, k=2):
    rng = np.random.default_rng(seed)
    shots = {}
    for c in schema.novel_indices:
        per = []
        for _ in range(k):
            n = int(rng.integers(20, 40))
            pts = rng.uniform(0, 6, size=(n, 3))
            labels = np.full(n, c)
            labels[rng.random(n) < 0.3] = 0  # surrounding context
            mask = labels == c
            if not mask.any():
                mask[0] = True
                labels[0] = c
            per.append(SupportShot(PointCloudScene(pts, labels), mask))
        shots[c] = tuple(per)
    return SupportSet(schema=schema, shots=shots)


class TestMix:
    def test_single_block_composition(self, schema):
        support = build_support(schema)
        rng = np.random.default_rng(11)
        base = PointCloudScene(rng.uniform(0, 8, size=(100, 3)),
                               rng.integers(0, schema.n_base, size=100))
        cfg = MixConfig(n_blocks=1, crop_margin_xy=1.0, seed=4)
        assert_same_scene(mix(base, support, cfg), reference_mix(base, support, cfg))

    def test_count_conservation_and_base_immutability(self, schema):
        support = build_support(schema, seed=1)
        rng = np.random.default_rng(12)
        base = PointCloudScene(rng.uniform(0, 8, size=(200, 3)),
                               rng.integers(0, schema.n_base, size=200))
        out = mix(base, support, MixConfig(n_blocks=3, seed=9))
        assert out.point_count > 200
        np.testing.assert_array_equal(out.positions[:200], base.positions)
        np.testing.assert_array_equal(out.labels[:200], base.labels)

    def test_deterministic(self, schema):
        support = build_support(schema, seed=2)
        rng = np.random.default_rng(13)
        base = PointCloudScene(rng.uniform(0, 8, size=(50, 3)),
                               rng.integers(0, schema.n_base, size=50))
        a = mix(base, support, MixConfig(n_blocks=3, seed=21))
        b = mix(base, support, MixConfig(n_blocks=3, seed=21))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_label_conservation_per_block(self, schema):
        support = build_support(schema, seed=3, k=1)
        rng = np.random.default_rng(14)
        base = PointCloudScene(rng.uniform(0, 8, size=(80, 3)),
                               rng.integers(0, schema.n_base, size=80))
        out = mix(base, support, MixConfig(n_blocks=1, seed=2))
        inserted = out.labels[80:]
        rng2 = np.random.default_rng(2)
        classes = support.classes()
        c = classes[int(rng2.integers(0, len(classes)))]
        shot = support.shots[c][int(rng2.integers(0, support.k))]
        cropped, _ = crop_novel(shot.scene, shot.mask, 1.0)
        assert sorted(inserted) == sorted(cropped.labels)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MixConfig(n_blocks=0)
        with pytest.raises(ConfigError):
            MixConfig(crop_margin_xy=-1.0)


def translate_and_align(base, novel_local, pairing):
    """The sequential step `mix` replaced, kept as a reference: align one
    block against the whole cloud grown so far, rescanning it for its
    corners and floor, and concatenate."""
    base_corner = corners_xy(base.positions)[pairing]
    novel_corner = corners_xy(novel_local.positions)[OPPOSITE[pairing]]
    translation = np.array(
        [base_corner[0] - novel_corner[0], base_corner[1] - novel_corner[1], 0.0]
    )
    moved = novel_local.positions + translation
    moved[:, 2] += base.positions[:, 2].min() - moved[:, 2].min()
    positions = np.concatenate([base.positions, moved])
    labels = np.concatenate([base.labels, novel_local.labels])
    colors = None
    if base.colors is not None and novel_local.colors is not None:
        colors = np.concatenate([base.colors, novel_local.colors])
    return PointCloudScene(positions=positions, labels=labels, colors=colors)


def reference_mix(base, support, cfg):
    """`mix` as a loop of translate_and_align over the same sampling stream."""
    rng = np.random.default_rng(cfg.seed)
    classes = support.classes()
    mixed = base
    for _ in range(cfg.n_blocks):
        c = classes[int(rng.integers(0, len(classes)))]
        shot = support.shots[c][int(rng.integers(0, support.k))]
        cropped, _ = crop_novel(shot.scene, shot.mask, cfg.crop_margin_xy)
        mixed = translate_and_align(mixed, cropped, pick_pair(rng))
    return mixed


def assert_same_scene(out, ref):
    """Bitwise equality of positions, labels and colours."""
    assert out.positions.shape == ref.positions.shape
    assert out.positions.tobytes() == ref.positions.tobytes()
    assert out.labels.tobytes() == ref.labels.tobytes()
    assert (out.colors is None) == (ref.colors is None)
    if ref.colors is not None:
        assert out.colors.tobytes() == ref.colors.tobytes()


TIE_SCHEMA = ClassSchema(("floor", "wall"), ("lamp", "plant"))


def random_case(seed):
    """A base scene, a support set and a config. Three cases in four sit on
    a small integer grid, so corners and floors tie across blocks. Colour
    modes cycle through: none, everywhere, base only, and all but one shot."""
    rng = np.random.default_rng(seed)
    on_grid = seed % 4 != 3
    colour_mode = (seed // 4) % 4

    def cloud(n, lo, hi):
        if on_grid:
            return rng.integers(lo, hi + 1, size=(n, 3)).astype(np.float64)
        return rng.uniform(lo, hi, size=(n, 3))

    def colours(n, on):
        return rng.integers(0, 256, size=(n, 3)) / 255.0 if on else None

    nb = int(rng.integers(1, 40))
    base = PointCloudScene(cloud(nb, -3, 3), rng.integers(0, 2, size=nb),
                           colours(nb, colour_mode in (1, 2)))
    k = int(rng.integers(1, 3))
    bare = (int(rng.integers(0, 2)), int(rng.integers(0, k)))
    shots = {}
    for c in TIE_SCHEMA.novel_indices:
        per = []
        for j in range(k):
            n = int(rng.integers(1, 25))
            mask = rng.random(n) < 0.5
            mask[int(rng.integers(0, n))] = True
            labels = np.where(mask, c, 0)
            on = colour_mode == 1 or (colour_mode == 3 and (c - 2, j) != bare)
            per.append(SupportShot(PointCloudScene(cloud(n, -2, 2), labels,
                                                   colours(n, on)), mask))
        shots[c] = tuple(per)
    support = SupportSet(schema=TIE_SCHEMA, shots=shots)
    margin = float(rng.integers(0, 3)) if on_grid else float(rng.uniform(0, 2))
    cfg = MixConfig(n_blocks=1 + seed % 5, crop_margin_xy=margin, seed=seed)
    return base, support, cfg


class TestMatchesSequentialReference:
    @pytest.mark.parametrize("chunk", range(4))
    def test_bitwise_equal(self, chunk):
        # 4 x 60 = 240 seeded cases, n_blocks 1-5, 180 of them on a grid.
        for seed in range(chunk * 60, (chunk + 1) * 60):
            base, support, cfg = random_case(seed)
            assert_same_scene(mix(base, support, cfg), reference_mix(base, support, cfg))

    def test_nan_positions_match(self):
        # A NaN coordinate in the base, or a NaN height in a shot (a NaN in
        # a shot's XY would empty its crop box), resolves corners and the
        # floor as argmax/argmin/min over the whole cloud do.
        for seed in range(40):
            base, support, cfg = random_case(seed)
            rng = np.random.default_rng(10_000 + seed)
            if seed % 2:
                scene, axis = base, int(rng.integers(0, 3))
            else:
                scene, axis = support.shots[2][0].scene, 2
            scene.positions[int(rng.integers(0, scene.point_count)), axis] = np.nan
            assert_same_scene(mix(base, support, cfg), reference_mix(base, support, cfg))
