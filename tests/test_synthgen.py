"""Synthetic corpus generator: determinism, file layout, class signal."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from blademl.features import extract_features
from blademl.raster import load_ppm
from blademl.rng import SplitMix64
from blademl.synthgen import (
    CLASS_NAMES,
    GenConfig,
    _background,
    _paint_crack,
    _paint_erosion,
    generate_dataset,
    generate_image,
)

from digests import read_pinned
from oracles import paint_crack_scalar, paint_erosion_scalar

# sha256 per (class, size) of the rasters of seeds 0-99, concatenated, as
# `generator_digests()` computes them.  Pinned with the per-pixel painters
# kept in oracles.py; re-pin only for a deliberate change of image bytes.
GOLDEN = Path(__file__).resolve().parent / "golden" / "synthgen.sha256"
GOLDEN_SIZES = ((16, 16), (17, 23), (64, 64), (128, 128), (135, 61))
GOLDEN_SEEDS = range(100)
# Faces outside the pinned sizes, checked against the scalar painters only:
# a wide strip and a tall thin one, where strokes and discs reach the edges.
ODD_SIZES = ((300, 40), (17, 250))


def generator_digests() -> dict:
    """{"<class>/<width>x<height>": digest} over GOLDEN_SIZES and GOLDEN_SEEDS."""
    out = {}
    for label in CLASS_NAMES:
        for width, height in GOLDEN_SIZES:
            h = hashlib.sha256()
            for seed in GOLDEN_SEEDS:
                h.update(generate_image(label, SplitMix64(seed), width, height)
                         .samples.tobytes())
            out[f"{label}/{width}x{height}"] = h.hexdigest()
    return out


def test_class_names():
    assert CLASS_NAMES == ("healthy", "crack", "erosion")


def test_generate_image_deterministic():
    for label in CLASS_NAMES:
        a = generate_image(label, SplitMix64(11), 64, 64)
        b = generate_image(label, SplitMix64(11), 64, 64)
        assert a == b


def test_generate_image_golden_digests():
    assert generator_digests() == read_pinned(GOLDEN)


@pytest.mark.parametrize("width,height", GOLDEN_SIZES + ODD_SIZES)
@pytest.mark.parametrize("painter,reference", [
    (_paint_crack, paint_crack_scalar),
    (_paint_erosion, paint_erosion_scalar),
], ids=["crack", "erosion"])
def test_painters_match_scalar_reference(painter, reference, width, height):
    # Block draws against one uniform() per draw: same pixels, and the
    # stream ends in the same state.
    for seed in GOLDEN_SEEDS:
        gray = _background(SplitMix64(seed), width, height)
        expected = gray.copy()
        rng = SplitMix64(seed * 7919 + 1)
        ref_rng = SplitMix64(seed * 7919 + 1)
        painter(gray, rng)
        reference(expected, ref_rng)
        assert gray.tobytes() == expected.tobytes(), seed
        assert rng.state == ref_rng.state, seed


def test_generate_image_channels_equal():
    for label in CLASS_NAMES:
        grid = generate_image(label, SplitMix64(2), 32, 32).grid()
        assert np.array_equal(grid[..., 0], grid[..., 1])
        assert np.array_equal(grid[..., 0], grid[..., 2])


def test_generate_image_unknown_label():
    with pytest.raises(ValueError, match="unknown class label"):
        generate_image("rust", SplitMix64(0), 32, 32)


def test_genconfig_validation():
    with pytest.raises(ValueError):
        GenConfig((1, 2))
    with pytest.raises(ValueError):
        GenConfig((1, -1, 1))
    with pytest.raises(ValueError):
        GenConfig((0, 0, 0))
    with pytest.raises(ValueError):
        GenConfig((1, 1, 1), width=8)
    cfg = GenConfig((1, 0, 0))
    assert cfg.counts == (1, 0, 0)


def test_generate_dataset_layout(tmp_path):
    out = tmp_path / "data"
    entries = generate_dataset(GenConfig((3, 2, 1), seed=5, width=32, height=32), out)
    assert [name for name, _ in entries] == [
        "healthy_000.ppm", "healthy_001.ppm", "healthy_002.ppm",
        "crack_003.ppm", "crack_004.ppm", "erosion_005.ppm",
    ]
    assert [label for _, label in entries] == (
        ["healthy"] * 3 + ["crack"] * 2 + ["erosion"]
    )
    for name, _ in entries:
        assert (out / name).exists()
    labels = (out / "labels.csv").read_text().splitlines()
    assert labels[0] == "# counts: 3,2,1"
    assert labels[1] == "# seed: 5"
    assert labels[2] == "# size: 32x32"
    assert labels[3] == "id,label"
    assert labels[4] == "healthy_000.ppm,healthy"
    assert len(labels) == 4 + 6


def test_generate_dataset_single_image(tmp_path):
    entries = generate_dataset(GenConfig((1, 0, 0), width=16, height=16), tmp_path / "one")
    assert entries == [("healthy_000.ppm", "healthy")]


def test_image_seed_is_seed_xor_index(tmp_path):
    out = tmp_path / "data"
    generate_dataset(GenConfig((20, 20, 20), seed=42, width=32, height=32), out)
    # Image 17 (a healthy image) regenerated standalone from child seed 42^17.
    standalone = generate_image("healthy", SplitMix64(42 ^ 17), 32, 32)
    stored = load_ppm((out / "healthy_017.ppm").read_bytes())
    assert stored == standalone
    # Same for an image of each defect class.
    standalone = generate_image("crack", SplitMix64(42 ^ 25), 32, 32)
    assert load_ppm((out / "crack_025.ppm").read_bytes()) == standalone
    standalone = generate_image("erosion", SplitMix64(42 ^ 55), 32, 32)
    assert load_ppm((out / "erosion_055.ppm").read_bytes()) == standalone


def test_generate_dataset_reruns_byte_identical(tmp_path):
    cfg = GenConfig((2, 2, 2), seed=9, width=32, height=32)
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_dataset(cfg, a)
    generate_dataset(cfg, b)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _features_for(label, seed, count=20):
    rows = []
    for s in range(count):
        raster = generate_image(label, SplitMix64(seed + s), 128, 128)
        rows.append(extract_features(raster))
    return np.array(rows)


def test_healthy_images_have_low_dark_spot_fraction():
    healthy = _features_for("healthy", seed=0)
    assert np.all(healthy[:, 27] < 0.05)


def test_defect_classes_shift_the_feature_distribution():
    healthy = _features_for("healthy", seed=0)
    crack = _features_for("crack", seed=0)
    erosion = _features_for("erosion", seed=0)
    # Cracks add dark pixels, raising the mean dark-spot fraction.
    assert crack[:, 27].mean() > healthy[:, 27].mean()
    # Both defects darken the image overall.
    assert crack[:, 0].mean() < healthy[:, 0].mean()
    assert erosion[:, 0].mean() < healthy[:, 0].mean()
    # Cracks add strong edges.
    assert crack[:, 26].mean() > healthy[:, 26].mean()
