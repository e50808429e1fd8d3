"""Hand-crafted 37-dimensional image features and z-score normalization.

The feature layout is fixed so that every stage downstream (classifiers,
clustering, CSV files) agrees on column meaning:

  [0-2]   per-channel means R, G, B, divided by 255
  [3-5]   per-channel population standard deviations, divided by 255
  [6-8]   per-channel standardized skewness (third central moment / sd^3,
          0 when sd = 0)
  [9-24]  16-bin grayscale histogram, bin i covering [16 i, 16 i + 16) with
          the last bin closed at 255, normalized to sum 1
  [25]    mean 3x3 Sobel gradient magnitude over interior pixels, divided by
          255 * sqrt(32) (the analytic maximum)
  [26]    edge density: fraction of interior pixels with raw magnitude > 100
  [27]    dark-spot fraction: pixels with gray < mean - 2 sd (0 when sd = 0)
  [28-36] 3x3 grid of grayscale cell means / 255, row-major; cell bounds use
          floor division with remainder pixels assigned to the last cells

Four float sums have order-dependent bits: channel variance and third moment
add pixel after pixel in row-major order, per channel; gray variance and mean
Sobel magnitude are numpy's pairwise sums over a contiguous row-major array.
Every other sum is of integers, exact in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fmt import iter_csv, write_float_rows
from .raster import Raster, luma

FEATURE_COUNT = 37
FEATURE_COLUMNS = [f"f{i:03d}" for i in range(FEATURE_COUNT)]

_SOBEL_MAX = 255.0 * np.sqrt(32.0)
_EDGE_THRESHOLD = 100
_LEVELS = np.arange(256.0)
_CHANNEL_BASE = np.arange(0, 768, 256)  # index of channel c's table entry 0


def extract_features(r: Raster) -> np.ndarray:
    """Compute the 37-feature vector for one RGB raster.

    Pure and deterministic: the same raster always yields bit-identical
    output.  Images smaller than 3x3 are rejected because the Sobel interior
    would be empty.
    """
    if r.width < 3 or r.height < 3:
        raise ValueError("image smaller than 3x3 has no gradient interior")

    n_pixels = r.width * r.height
    pixels = r.samples.reshape(-1, 3)
    out = np.zeros(FEATURE_COUNT)

    index = np.add(pixels, _CHANNEL_BASE, out=np.empty(pixels.shape, np.intp))
    counts = np.bincount(index.reshape(-1), minlength=768).reshape(3, 256)
    means = counts @ _LEVELS / n_pixels
    deviations = _LEVELS - means[:, None]
    table = np.stack([deviations * deviations, deviations ** 3], axis=-1)
    # (n_pixels, 3, 2) summed over axis 0: pixel after pixel per channel.
    sums = table.reshape(768, 2).take(index, axis=0).sum(axis=0)
    sds = np.sqrt(sums[:, 0] / n_pixels)
    m3 = sums[:, 1] / n_pixels
    out[0:3] = means / 255.0
    out[3:6] = sds / 255.0
    nonzero = sds > 0.0
    out[6:9][nonzero] = m3[nonzero] / sds[nonzero] ** 3

    gray = luma(pixels)
    gray_counts = np.bincount(gray, minlength=256)
    out[9:25] = gray_counts.reshape(16, 16).sum(axis=1) / n_pixels
    g_mean = gray_counts @ _LEVELS / n_pixels
    g_dev = _LEVELS - g_mean
    g_sd = np.sqrt((g_dev * g_dev).take(gray).sum() / n_pixels)
    if g_sd > 0.0:
        out[27] = gray_counts[_LEVELS < g_mean - 2.0 * g_sd].sum() / n_pixels

    gray = gray.reshape(r.height, r.width)
    vertical = gray[:-2] + 2 * gray[1:-1] + gray[2:]
    horizontal = gray[:, :-2] + 2 * gray[:, 1:-1] + gray[:, 2:]
    gx = vertical[:, 2:] - vertical[:, :-2]
    gy = horizontal[2:] - horizontal[:-2]
    squared = gx * gx + gy * gy
    out[25] = np.sqrt(squared).mean() / _SOBEL_MAX
    out[26] = np.count_nonzero(squared > _EDGE_THRESHOLD ** 2) / squared.size

    row_base = r.height // 3
    col_base = r.width // 3
    rows = np.add.reduceat(gray, [0, row_base, 2 * row_base], axis=0, dtype=np.int64)
    cells = np.add.reduceat(rows, [0, col_base, 2 * col_base], axis=1)
    sizes = np.outer([row_base, row_base, r.height - 2 * row_base],
                     [col_base, col_base, r.width - 2 * col_base])
    out[28:37] = (cells / sizes).reshape(-1) / 255.0
    return out


@dataclass
class FeatureMatrix:
    """Tabular carrier of feature rows with ids and optional labels."""

    ids: list[str]
    labels: list[str] | None
    columns: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        n, width = self.values.shape
        if len(self.ids) != n:
            raise ValueError("ids and rows must have equal length")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels and rows must have equal length")
        if len(self.columns) != width:
            raise ValueError("column names must match row width")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("column names must be unique")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass
class NormalizationParams:
    """Per-column mean and population standard deviation for reuse on
    held-out rows."""

    mean: np.ndarray
    sd: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.sd = np.asarray(self.sd, dtype=np.float64)
        if self.mean.shape != self.sd.shape or self.mean.ndim != 1:
            raise ValueError("mean and sd must be 1-D and equal length")
        bad = np.flatnonzero(~(np.isfinite(self.mean) & np.isfinite(self.sd)))
        if bad.size:
            raise ValueError(f"column {bad[0]}: mean and sd must be finite")
        if np.any(self.sd < 0.0):
            raise ValueError("standard deviations must be nonnegative")

    def apply(
        self, values: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """(x - mean) / sd per column; zero-sd columns map to all zeros.
        `out`, which may be `values` itself, receives the result."""
        values = np.asarray(values, dtype=np.float64)
        out = np.subtract(values, self.mean, out=out)
        nonzero = self.sd > 0.0
        out[:, nonzero] /= self.sd[nonzero]
        out[:, ~nonzero] = 0.0
        return out


def zscore_normalize(m: FeatureMatrix) -> tuple[FeatureMatrix, NormalizationParams]:
    """Column-wise z-scoring with population (divisor n) standard deviation."""
    if m.n < 1:
        raise ValueError("cannot normalize an empty matrix")
    params = NormalizationParams(m.values.mean(axis=0), m.values.std(axis=0))
    normalized = FeatureMatrix(m.ids, m.labels, m.columns, params.apply(m.values))
    return normalized, params


def write_features_csv(m: FeatureMatrix, path, metadata: dict | None = None) -> None:
    """Write `id,label,<columns...>` CSV with 17-significant-digit values.

    Optional metadata is emitted first as `# key: value` comment lines so
    every output file records how it was produced.
    """
    labels = m.labels if m.labels is not None else [""] * m.n
    write_float_rows(
        path, ["id", "label", *m.columns], zip(m.ids, labels), m.values, metadata
    )


def read_features_csv(path) -> FeatureMatrix:
    """Read the CSV format of write_features_csv after its `#` metadata lines.

    Rows whose cell count differs from the header, and non-numeric or
    non-finite cells, are rejected, naming the offending data row.
    """
    rows = iter_csv(path)
    header = next(rows, None)
    if header is None:
        raise ValueError(f"{path}: empty feature file")
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise ValueError(f"{path}: header must start with id,label")
    columns = header[2:]
    if len(set(columns)) != len(columns):
        raise ValueError(f"{path}: duplicate column names in header")
    ids: list[str] = []
    labels: list[str] = []
    vectors: list[np.ndarray] = []
    for i, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: wrong column count on data row {i} "
                f"({len(row)} cells, expected {len(header)})"
            )
        ids.append(row[0])
        labels.append(row[1])
        try:
            vectors.append(np.array([float(cell) for cell in row[2:]]))
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric value on data row {i}") from exc
    values = np.array(vectors).reshape(len(ids), len(columns))
    nonfinite = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if nonfinite.size:
        raise ValueError(f"{path}: non-finite value on data row {nonfinite[0] + 1}")
    has_labels = any(label != "" for label in labels)
    return FeatureMatrix(ids, labels if has_labels else None, columns, values)
