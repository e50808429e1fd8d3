"""Seeded synthetic blade-image corpus with injectable defect classes.

Stands in for a private drone-survey image set so the whole pipeline can be
exercised end to end.  Determinism is the core contract: every random draw
comes from SplitMix64 in a documented fixed order (background noise
row-major, then defect parameters, then defect pixels), and each image gets
its own child generator seeded as seed XOR global index, so any image can be
regenerated alone and still match the full run byte for byte.  The
painters read that order in blocks (SplitMix64 is counter-based, see rng),
so the documented order is the contract, not the number of calls.

Rendering conventions, fixed so the classes are recoverable by both the
classifiers and the clustering stage:

* crack: one random-walk polyline starting anywhere on the face, heading
  uniform, 30-60 unit steps, per-step heading perturbation within +-pi/16,
  clamped to stay on the face; each step stamps a square whose side, 1-3
  px, is drawn per step; painted pixels get values uniform in [30, 60].
* erosion: 3-8 disc patches (radius 5-15) laid out as a pitting row along
  the top edge of the face (leading-edge erosion), one patch per equal
  horizontal slot with jitter, centers within the top eighth of the image;
  40% of each disc's pixels darken by uniform [40, 80].
"""

from __future__ import annotations

import math
import os
from contextlib import closing
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fmt import write_csv
from .parallel import split_map
from .raster import Raster, write_ppm
from .rng import SplitMix64, index_below

CLASS_NAMES = ("healthy", "crack", "erosion")

_BG_TOP = 180.0
_BG_BOTTOM = 120.0
_NOISE_SPAN = 10.0
_CRACK_STEPS = (30, 60)
_CRACK_WIDTH = (1, 3)
_CRACK_VALUE = (30, 60)
_CRACK_TURN = math.pi / 16.0
_EROSION_PATCHES = (3, 8)
_EROSION_RADIUS = (5, 15)
_EROSION_DENSITY = 0.4
_EROSION_DARKEN = (40, 80)
_EROSION_BAND = 0.125
_EROSION_JITTER = 0.5


@dataclass
class GenConfig:
    """Corpus recipe: per-class image counts, seed, and image size."""

    counts: tuple[int, int, int]
    seed: int = 0
    width: int = 128
    height: int = 128

    def __post_init__(self):
        self.counts = tuple(int(c) for c in self.counts)
        if len(self.counts) != len(CLASS_NAMES):
            raise ValueError("counts must list healthy, crack, erosion")
        if any(c < 0 for c in self.counts):
            raise ValueError("class counts must be nonnegative")
        if sum(self.counts) < 1:
            raise ValueError("corpus must contain at least one image")
        if self.width < 16 or self.height < 16:
            raise ValueError("image size must be at least 16x16")


def _in_range(u, lo: int, hi: int):
    """Uniform integers in [lo, hi], one per uniform draw in u."""
    return lo + index_below(u, hi - lo + 1)


def _rand_int(rng: SplitMix64, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] from one uniform draw."""
    return int(_in_range(rng.uniform(), lo, hi))


def _background(rng: SplitMix64, width: int, height: int) -> np.ndarray:
    # Vertical gradient 180 -> 120 plus per-pixel noise in [-10, 10],
    # drawn row-major; round-half-up then clamp to [0, 255].
    rows = np.arange(height, dtype=np.float64)
    base = _BG_TOP + (_BG_BOTTOM - _BG_TOP) * rows / (height - 1)
    noise = rng.uniforms(height * width).reshape(height, width)
    noise = noise * (2.0 * _NOISE_SPAN) - _NOISE_SPAN
    gray = np.floor(base[:, None] + noise + 0.5)
    return np.clip(gray, 0.0, 255.0).astype(np.int64)


def _paint_crack(gray: np.ndarray, rng: SplitMix64) -> None:
    height, width = gray.shape
    # Parameters first: start point, heading, step count, then one
    # (heading perturbation, stroke width) pair per step.
    x = rng.uniform() * width
    y = rng.uniform() * height
    angle = rng.uniform() * (2.0 * math.pi)
    steps = _rand_int(rng, *_CRACK_STEPS)
    moves = rng.uniforms(2 * steps)
    strokes = _in_range(moves[1::2], *_CRACK_WIDTH)
    points = []
    for turn in moves[0::2].tolist():
        angle += (turn * 2.0 - 1.0) * _CRACK_TURN
        x += math.cos(angle)
        y += math.sin(angle)
        # The walk stays on the blade face.
        x = min(max(x, 0.0), width - 1.0)
        y = min(max(y, 0.0), height - 1.0)
        points.append((math.floor(x), math.floor(y)))
    # Step i stamps a stroke x stroke square from -(stroke // 2): its cell k
    # sits at row offset k // stroke and column offset k % stroke.
    cells = strokes * strokes
    step = np.repeat(np.arange(steps), cells)
    k = np.arange(step.size) - np.repeat(np.cumsum(cells) - cells, cells)
    stroke = strokes[step]
    x0, y0 = np.array(points).T[:, step] - stroke // 2
    rows, cols = y0 + k // stroke, x0 + k % stroke
    on = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
    painted = np.zeros(gray.shape, dtype=bool)
    painted[rows[on], cols[on]] = True
    # Pixel values last, in row-major order over the painted set.
    gray[painted] = _in_range(rng.uniforms(int(painted.sum())), *_CRACK_VALUE)


def _paint_erosion(gray: np.ndarray, rng: SplitMix64) -> None:
    height, width = gray.shape
    # All patch parameters first: count, then per patch radius and center.
    # Patches form a pitting row along the top edge (leading-edge erosion):
    # one per equal horizontal slot, jittered within half the slot, centers
    # in the top eighth of the face.  A disc's pixels take no draws; squares
    # use Python's `**` (C pow) per row and column, the disc test's defined
    # arithmetic; numpy's x * x could round a tie at the disc edge
    # differently.
    patches = _rand_int(rng, *_EROSION_PATCHES)
    slot = width / patches
    discs = []
    for i in range(patches):
        radius = _rand_int(rng, *_EROSION_RADIUS)
        cx = (i + 0.5) * slot + (rng.uniform() - 0.5) * (slot * _EROSION_JITTER)
        cy = rng.uniform() * (height * _EROSION_BAND)
        rows = range(max(0, math.floor(cy - radius)),
                     min(height - 1, math.ceil(cy + radius)) + 1)
        cols = range(max(0, math.floor(cx - radius)),
                     min(width - 1, math.ceil(cx + radius)) + 1)
        dx2 = np.array([(col - cx) ** 2 for col in cols])
        dy2 = np.array([(row - cy) ** 2 for row in rows])
        r, c = np.nonzero(dx2 + dy2[:, None] <= radius * radius)
        discs.append((r + rows.start) * width + c + cols.start)
    pixels = np.concatenate(discs)
    # Then per disc, row-major over its pixels: a selection draw per pixel
    # and a darkening amount for the selected 40%, so n pixels take at most
    # 2n draws, read ahead from a copy of the stream.  Draw j is a selection
    # draw iff the draws below 0.4 right before it, back to draw 0 or the
    # last draw >= 0.4, are even in number (selection and amount alternate).
    u = SplitMix64(rng.state).uniforms(2 * pixels.size)
    below = u < _EROSION_DENSITY
    index = np.arange(u.size)
    start = np.maximum.accumulate(index * np.concatenate(([1], ~below[:-1])))
    draws = np.flatnonzero((index - start) % 2 == 0)[:pixels.size]
    picked = below[draws]
    rng.advance(pixels.size + int(picked.sum()))
    # Amounts are nonnegative and the face starts in [0, 255], so one clamp
    # after all discs equals one per disc.
    np.subtract.at(gray, np.divmod(pixels[picked], width),
                   _in_range(u[draws[picked] + 1], *_EROSION_DARKEN))
    np.maximum(gray, 0, out=gray)


def generate_image(label: str, rng: SplitMix64, width: int, height: int) -> Raster:
    """Render one synthetic blade image of the given class.

    The returned raster is 3-channel with equal channels (gray content in
    RGB carriers, matching the PPM output format).
    """
    if label not in CLASS_NAMES:
        raise ValueError(f"unknown class label {label!r}")
    gray = _background(rng, width, height)
    if label == "crack":
        _paint_crack(gray, rng)
    elif label == "erosion":
        _paint_erosion(gray, rng)
    rgb = np.repeat(gray.astype(np.uint8)[:, :, None], 3, axis=2)
    return Raster(width, height, rgb.reshape(-1))


def _ppm_bytes(cfg: GenConfig, job: tuple[int, str]) -> bytes:
    index, label = job
    child = SplitMix64(cfg.seed ^ index)
    return write_ppm(generate_image(label, child, cfg.width, cfg.height))


def generate_dataset(cfg: GenConfig, out_dir) -> list[tuple[str, str]]:
    """Write the corpus images plus a `labels.csv` into out_dir.

    Files are named `<class>_<global index>.ppm` in P6 format.  Each image
    uses an independent child generator seeded as cfg.seed XOR its global
    index.  Every other image renders in split_map's worker; this process
    writes them all, in order.  Returns the (file name, label) pairs in
    generation order.
    """
    os.makedirs(out_dir, exist_ok=True)
    labels = [label for label, count in zip(CLASS_NAMES, cfg.counts)
              for _ in range(count)]
    pad = max(3, len(str(len(labels) - 1)))
    entries = [(f"{label}_{index:0{pad}d}.ppm", label)
               for index, label in enumerate(labels)]
    render = partial(_ppm_bytes, cfg)
    with closing(split_map(render, enumerate(labels))) as images:
        for (name, _), data in zip(entries, images):
            with open(os.path.join(out_dir, name), "wb") as handle:
                handle.write(data)
    metadata = {
        "counts": ",".join(str(c) for c in cfg.counts),
        "seed": cfg.seed,
        "size": f"{cfg.width}x{cfg.height}",
    }
    write_csv(os.path.join(out_dir, "labels.csv"), ["id", "label"], entries,
              metadata)
    return entries
