"""Feature extraction, normalization, and the feature CSV format."""

import math

import numpy as np
import pytest

from blademl.clustering import pairwise_distances, write_distance_csv
from blademl.features import (
    FEATURE_COLUMNS,
    FEATURE_COUNT,
    FeatureMatrix,
    NormalizationParams,
    extract_features,
    read_features_csv,
    write_features_csv,
    zscore_normalize,
)
from blademl.fmt import read_csv, render_json, write_csv, write_float_rows
from blademl.raster import Raster
from blademl.rng import SplitMix64
from blademl.synthgen import CLASS_NAMES, generate_image

from oracles import (
    extract_features_numpy,
    features_ref,
    float_rows_csv_ref,
    skewness_direct,
    splitmix64_stream,
)

# Frozen from the straight-line reference: 3x3 all-black image with a white
# center pixel.
WHITE_CENTER = [
    0.1111111111111111, 0.1111111111111111, 0.1111111111111111,
    0.3142696805273545, 0.3142696805273545, 0.3142696805273545,
    2.474873734152915, 2.474873734152915, 2.474873734152915,
    0.8888888888888888, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1111111111111111,
    0.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0,
]


def _raster(width, height, samples):
    return Raster(width, height, samples)


def _random_raster(seed, width, height):
    samples = [v % 256 for v in splitmix64_stream(seed, width * height * 3)]
    return _raster(width, height, samples), samples


def test_constant_midgray_vector():
    vec = extract_features(_raster(4, 4, [128] * 48))
    expected = np.zeros(FEATURE_COUNT)
    expected[0:3] = 128.0 / 255.0
    expected[9 + 8] = 1.0
    expected[28:37] = 128.0 / 255.0
    assert np.array_equal(vec, expected)


def test_all_black_vector():
    vec = extract_features(_raster(3, 3, [0] * 27))
    expected = np.zeros(FEATURE_COUNT)
    expected[9] = 1.0
    assert np.array_equal(vec, expected)


def test_white_center_frozen_and_oracle():
    samples = [0] * 27
    for c in range(3):
        samples[3 * 4 + c] = 255
    vec = extract_features(_raster(3, 3, samples))
    assert vec == pytest.approx(WHITE_CENTER, abs=1e-12)
    assert features_ref(3, 3, samples) == pytest.approx(WHITE_CENTER, abs=1e-12)


@pytest.mark.parametrize("seed,width,height", [(1, 8, 8), (2, 5, 7), (3, 9, 4)])
def test_random_images_match_reference(seed, width, height):
    raster, samples = _random_raster(seed, width, height)
    vec = extract_features(raster)
    ref = features_ref(width, height, samples)
    np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-9)


def _grid_families():
    """1,200 (kind, grid) pairs from 3x3 to 69x69: random, constant,
    two-valued and four adjacent values, each channel drawn on its own."""
    gen = np.random.default_rng(2024)
    kinds = ("random", "constant", "binary", "narrow")
    for case in range(1200):
        width, height = (int(v) for v in gen.integers(3, 70, size=2))
        shape = (height, width, 3)
        kind = kinds[case % 4]
        if kind == "random":
            grid = gen.integers(0, 256, size=shape)
        elif kind == "constant":
            grid = np.broadcast_to(gen.integers(0, 256, size=3), shape)
        elif kind == "binary":
            pair = gen.integers(0, 256, size=(2, 3))
            grid = np.where(gen.random(shape) < gen.random(), pair[0], pair[1])
        else:
            grid = gen.integers(0, 253, size=3) + gen.integers(0, 4, size=shape)
        yield kind, np.ascontiguousarray(grid, dtype=np.uint8)


def _generated_grids():
    """Corpus rasters of every class at square, large and odd sizes."""
    for label in CLASS_NAMES:
        for width, height in ((16, 16), (64, 64), (128, 128), (135, 61)):
            for seed in range(6):
                raster = generate_image(label, SplitMix64(seed), width, height)
                yield f"{label}-{width}x{height}-{seed}", raster.grid()


def _extract(grid):
    height, width = grid.shape[:2]
    return extract_features(Raster(width, height, grid.reshape(-1)))


def test_skewness_table_matches_direct_cubes():
    for case, (kind, grid) in enumerate(_grid_families()):
        got = _extract(grid)[6:9]
        assert got.tobytes() == skewness_direct(grid).tobytes(), (case, kind)


@pytest.mark.parametrize("grids", [_grid_families, _generated_grids],
                         ids=["families", "generated"])
def test_extract_matches_numpy_reference(grids):
    # All 37 columns, bit for bit, against the whole-grid numpy reductions.
    for case, (kind, grid) in enumerate(grids()):
        got = _extract(grid)
        assert got.tobytes() == extract_features_numpy(grid).tobytes(), (case, kind)


def test_dark_fraction_threshold_is_strict():
    # 3 black and 12 gray-5 pixels: mean 4 and sd 2 exactly, so the dark
    # threshold mean - 2 sd is exactly 0, and no pixel lies below it.
    samples = [0] * 9 + [5] * 36
    vec = extract_features(_raster(5, 3, samples))
    assert vec[27] == 0.0
    assert vec.tobytes() == extract_features_numpy(
        np.array(samples, dtype=np.uint8).reshape(3, 5, 3)).tobytes()


def test_histogram_sums_to_one():
    for seed in range(5):
        raster, _ = _random_raster(seed + 10, 6, 6)
        vec = extract_features(raster)
        assert abs(vec[9:25].sum() - 1.0) < 1e-9


def test_edge_features_fire_on_a_hard_edge():
    # Left half black, right half white: the Sobel interior sees a strong
    # vertical edge, so both gradient features must be positive.
    width, height = 8, 8
    samples = []
    for _ in range(height):
        for col in range(width):
            v = 0 if col < width // 2 else 255
            samples.extend([v, v, v])
    vec = extract_features(_raster(width, height, samples))
    assert vec[25] > 0.0
    assert vec[26] > 0.0
    ref = features_ref(width, height, samples)
    np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-9)


def test_grid_cells_cover_remainder_pixels():
    # 7x5: base cells 2x1 wide; the last row/column absorb the remainder.
    # Paint only the bottom-right remainder region and check cell (2,2).
    width, height = 7, 5
    samples = [0] * (width * height * 3)
    for row in range(4, 5):
        for col in range(4, 7):
            for c in range(3):
                samples[3 * (row * width + col) + c] = 255
    vec = extract_features(_raster(width, height, samples))
    ref = features_ref(width, height, samples)
    np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-9)
    assert vec[36] > 0.0


def test_extract_validation():
    with pytest.raises(ValueError):
        extract_features(_raster(2, 3, [0] * 18))
    with pytest.raises(ValueError):
        extract_features(_raster(3, 2, [0] * 18))


def test_feature_columns_shape():
    assert FEATURE_COUNT == 37
    assert len(FEATURE_COLUMNS) == 37
    assert len(set(FEATURE_COLUMNS)) == 37


# ---------------------------------------------------------------------------
# z-score normalization


def _matrix(values, labels=None):
    values = np.asarray(values, dtype=np.float64)
    ids = [f"r{i}" for i in range(values.shape[0])]
    columns = [f"c{j}" for j in range(values.shape[1])]
    return FeatureMatrix(ids, labels, columns, values)


def test_zscore_frozen_column():
    normalized, params = zscore_normalize(_matrix([[1.0], [2.0], [3.0]]))
    expected = math.sqrt(1.5)
    assert normalized.values[:, 0] == pytest.approx(
        [-1.2247, 0.0, 1.2247], abs=1e-4
    )
    assert normalized.values[:, 0] == pytest.approx(
        [-expected, 0.0, expected], abs=1e-12
    )
    assert params.mean[0] == 2.0
    assert params.sd[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)


def test_zscore_constant_column_maps_to_zero():
    normalized, params = zscore_normalize(_matrix([[5.0, 1.0], [5.0, 3.0]]))
    assert np.array_equal(normalized.values[:, 0], [0.0, 0.0])
    assert params.sd[0] == 0.0
    # apply() follows the same convention on held-out rows.
    held_out = params.apply(np.array([[9.0, 2.0]]))
    assert held_out[0, 0] == 0.0
    assert held_out[0, 1] == 0.0


def test_zscore_idempotent():
    raw = np.array(splitmix64_stream(6, 40), dtype=np.float64).reshape(10, 4)
    raw = raw / 2.0**64
    once, _ = zscore_normalize(_matrix(raw))
    twice, _ = zscore_normalize(once)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-9)
    assert abs(once.values.mean(axis=0)).max() < 1e-12
    np.testing.assert_allclose(once.values.std(axis=0), 1.0, atol=1e-12)


def test_normalization_params_validation():
    with pytest.raises(ValueError):
        NormalizationParams(np.zeros(3), -np.ones(3))
    with pytest.raises(ValueError):
        NormalizationParams(np.zeros(3), np.ones(2))
    with pytest.raises(ValueError):
        zscore_normalize(_matrix(np.empty((0, 2))))


def test_normalization_params_reject_nonfinite():
    for mean, sd in (([np.nan, 1.0], [1.0, 2.0]), ([0.0, 1.0], [1.0, np.nan]),
                     ([0.0, np.inf], [1.0, 2.0]), ([0.0, 1.0], [np.inf, 2.0])):
        with pytest.raises(ValueError, match="finite"):
            NormalizationParams(mean, sd)
    values = np.arange(6.0).reshape(3, 2)
    values[1, 1] = np.nan
    with pytest.raises(ValueError, match="column 1: mean and sd must be finite"):
        zscore_normalize(_matrix(values))


# ---------------------------------------------------------------------------
# CSV round-trip


def test_features_csv_round_trip(tmp_path):
    raw = np.array(splitmix64_stream(13, 20), dtype=np.float64).reshape(4, 5)
    raw = (raw / 2.0**64 - 0.5) * 1e6
    m = _matrix(raw, labels=["a", "b", "a", "c"])
    path = tmp_path / "features.csv"
    write_features_csv(m, path, metadata={"source": "test"})
    back = read_features_csv(path)
    assert back.ids == m.ids
    assert back.labels == m.labels
    assert back.columns == m.columns
    assert np.array_equal(back.values, m.values)
    assert path.read_text().startswith("# source: test\n")


def test_features_csv_unlabeled_round_trip(tmp_path):
    m = _matrix(np.ones((2, 2)))
    path = tmp_path / "features.csv"
    write_features_csv(m, path)
    back = read_features_csv(path)
    assert back.labels is None


def test_features_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,c0\nr0,a,1.0,extra\n")
    with pytest.raises(ValueError, match="data row 1"):
        read_features_csv(path)
    path.write_text("id,label,c0\nr0,a,notanumber\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_features_csv(path)
    for cell in ("nan", "inf", "-inf"):
        path.write_text(f"# m: x\nid,label,c0,c1\nr0,a,1,2\nr1,a,3,{cell}\n")
        with pytest.raises(ValueError,
                           match=r"bad\.csv: non-finite value on data row 2"):
            read_features_csv(path)
    path.write_text("id,label,c0,c1,c0\nr0,a,1,2,3\n")
    with pytest.raises(ValueError,
                       match=r"bad\.csv: duplicate column names in header"):
        read_features_csv(path)
    path.write_text("nope,label,c0\n")
    with pytest.raises(ValueError, match="header"):
        read_features_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_features_csv(path)


def test_features_csv_hash_id_round_trip(tmp_path):
    # `#` lines are metadata only before the header; a data row whose id
    # starts with `#` is kept.
    m = FeatureMatrix(["#a", "b"], ["x", "#y"], ["c0"], np.array([[1.0], [2.0]]))
    path = tmp_path / "features.csv"
    write_features_csv(m, path, metadata={"source": "test"})
    back = read_features_csv(path)
    assert back.ids == ["#a", "b"]
    assert back.labels == ["x", "#y"]
    assert np.array_equal(back.values, m.values)


def test_csv_writers_round_trip_carriage_return(tmp_path):
    # csv.writer with a `\n` line terminator quotes `\n` but not `\r`; an
    # unquoted `\r` inside a cell ends the row when the file is read back.
    ids = ["x\ry", "b"]
    write_csv(tmp_path / "plain.csv", ["id", "n"], [[ids[0], 1], [ids[1], 2]])
    assert read_csv(tmp_path / "plain.csv") == [
        ["id", "n"], ["x\ry", "1"], ["b", "2"],
    ]
    m = FeatureMatrix(ids, ["p\r", "q"], ["c0"], np.array([[1.0], [2.0]]))
    write_features_csv(m, tmp_path / "features.csv")
    back = read_features_csv(tmp_path / "features.csv")
    assert (back.ids, back.labels) == (m.ids, m.labels)
    assert np.array_equal(back.values, m.values)
    write_distance_csv(pairwise_distances(m), ids, tmp_path / "distances.csv")
    rows = read_csv(tmp_path / "distances.csv")
    assert rows[0] == ["id", *ids]
    assert [row[0] for row in rows[1:]] == ids
    assert all(len(row) == 3 for row in rows)


# Ids and labels that csv.writer must quote, or that sit next to a bare
# comma: a lone empty cell is the one it writes as `""`.
AWKWARD_CELLS = ["a,b", 'say "hi"', "two\nlines", "#hash", " lead", ""]
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                  np.inf, -np.inf, np.nan, 0.1, 1.0 / 3.0, -123456789.125]


@pytest.mark.parametrize("labels", [list(reversed(AWKWARD_CELLS)), None],
                         ids=["labeled", "unlabeled"])
def test_features_csv_matches_csv_writer_reference(tmp_path, labels):
    gen = np.random.default_rng(7)
    values = gen.normal(scale=1e3, size=(len(AWKWARD_CELLS), FEATURE_COUNT))
    values.reshape(-1)[:len(SPECIAL_VALUES)] = SPECIAL_VALUES
    m = FeatureMatrix(AWKWARD_CELLS, labels, list(FEATURE_COLUMNS), values)
    meta = {"images": "a dir", "labels": "x.csv"}
    write_features_csv(m, tmp_path / "got.csv", metadata=meta)
    float_rows_csv_ref(
        tmp_path / "want.csv", ["id", "label", *FEATURE_COLUMNS],
        zip(m.ids, labels or [""] * m.n), values, meta,
    )
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_features_csv_rejects_zero_columns(tmp_path):
    m = FeatureMatrix(["a"], None, [], np.empty((1, 0)))
    with pytest.raises(ValueError, match="at least one value column"):
        write_features_csv(m, tmp_path / "f.csv")
    assert not (tmp_path / "f.csv").exists()


def test_float_rows_without_rows_write_the_header_only(tmp_path):
    path = tmp_path / "f.csv"
    write_float_rows(path, ["id", "c0"], [], np.empty((0, 1)), {"m": "x"})
    assert path.read_text() == "# m: x\nid,c0\n"


def test_render_json_rejects_non_finite():
    assert render_json({"w": [1.0, 0.5]}) == '{\n  "w": [1, 0.5]\n}'
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="cannot serialize non-finite"):
            render_json({"w": [1.0, value]})


def test_feature_matrix_validation():
    with pytest.raises(ValueError):
        FeatureMatrix(["a"], None, ["c0"], np.ones((2, 1)))
    with pytest.raises(ValueError):
        FeatureMatrix(["a", "b"], ["x"], ["c0"], np.ones((2, 1)))
    with pytest.raises(ValueError):
        FeatureMatrix(["a"], None, ["c0", "c1"], np.ones((1, 1)))
    with pytest.raises(ValueError):
        FeatureMatrix(["a"], None, ["c0"], np.ones(1))
    with pytest.raises(ValueError):
        FeatureMatrix(["a"], None, ["c0", "c0"], np.ones((1, 2)))
