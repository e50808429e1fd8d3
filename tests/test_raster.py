"""PPM decode/encode and luma."""

import numpy as np
import pytest

from blademl.raster import (
    PpmHeaderError,
    PpmMaxvalError,
    PpmParseError,
    PpmSampleError,
    PpmTruncatedError,
    PpmZeroDimensionError,
    Raster,
    load_ppm,
    luma,
    write_ppm,
)

from oracles import grayscale_ref, ppm_p3_bytes, ppm_p6_bytes, splitmix64_stream


def test_p3_single_pixel():
    r = load_ppm(b"P3\n1 1\n255\n10 20 30\n")
    assert (r.width, r.height) == (1, 1)
    assert r.grid().shape == (1, 1, 3)
    assert list(r.samples) == [10, 20, 30]


def test_p6_all_zero():
    r = load_ppm(b"P6\n2 2\n255\n" + bytes(12))
    assert (r.width, r.height) == (2, 2)
    assert list(r.samples) == [0] * 12


def test_p3_and_p6_decode_identically():
    samples = [v % 256 for v in splitmix64_stream(11, 48)]
    a = load_ppm(ppm_p3_bytes(4, 4, samples))
    b = load_ppm(ppm_p6_bytes(4, 4, samples))
    assert a == b
    assert list(a.samples) == samples


def test_header_comments_are_skipped():
    r = load_ppm(b"P3 # format\n# a comment line\n1 # width\n1\n255\n1 2 3\n")
    assert list(r.samples) == [1, 2, 3]


def test_p3_flexible_whitespace():
    r = load_ppm(b"P3\t1\r\n1   255\n\n  9\t8 7")
    assert list(r.samples) == [9, 8, 7]


def test_bad_magic():
    with pytest.raises(PpmHeaderError) as err:
        load_ppm(b"P7\n1 1\n255\n1 2 3\n")
    assert err.value.offset == 0
    assert "byte offset" in str(err.value)


def test_bad_maxval():
    data = b"P3\n1 1\n65535\n1 2 3\n"
    with pytest.raises(PpmMaxvalError) as err:
        load_ppm(data)
    assert err.value.offset == data.index(b"65535")


def test_non_digit_dimension():
    for data, token in ((b"P3\n1x 1\n255\n1 2 3\n", b"1x"),
                        (b"P6\n1 -1\n255\n" + bytes(3), b"-1")):
        with pytest.raises(PpmHeaderError, match="invalid .* token") as err:
            load_ppm(data)
        assert err.value.offset == data.index(token)


def test_zero_dimensions():
    with pytest.raises(PpmZeroDimensionError):
        load_ppm(b"P3\n0 1\n255\n")
    with pytest.raises(PpmZeroDimensionError):
        load_ppm(b"P3\n1 0\n255\n")


def test_truncated_p6_payload():
    with pytest.raises(PpmTruncatedError) as err:
        load_ppm(b"P6\n2 2\n255\n" + bytes(5))
    assert "5 of 12" in str(err.value)


def test_truncated_p3_samples():
    with pytest.raises(PpmTruncatedError):
        load_ppm(b"P3\n2 2\n255\n1 2 3\n")


def test_p3_sample_out_of_range():
    data = b"P3\n1 1\n255\n1 999 3\n"
    with pytest.raises(PpmSampleError) as err:
        load_ppm(data)
    assert err.value.offset == data.index(b"999")


def test_p3_non_numeric_sample():
    with pytest.raises(PpmSampleError):
        load_ppm(b"P3\n1 1\n255\n1 x 3\n")


def test_p3_comment_between_samples():
    r = load_ppm(b"P3\n1 1\n255\n10 # red\n20\n# a whole line\n30\n")
    assert list(r.samples) == [10, 20, 30]


def test_p3_hash_right_after_token_starts_comment():
    r = load_ppm(b"P3\n1 1\n255\n1#c\n2 3")
    assert list(r.samples) == [1, 2, 3]


def test_hash_runs_inside_comments():
    # A comment runs to the end of its line whatever it holds, and a stream
    # that ends inside a long run of '#' fails at once, not after trying
    # every way to split the run into comments.
    assert list(load_ppm(b"P3\n1 1\n255\n1 ##2\n2 3").samples) == [1, 2, 3]
    data = b"P3" + b"#" * 64
    with pytest.raises(PpmTruncatedError) as err:
        load_ppm(data)
    assert str(err.value) == f"stream ended before width (byte offset {len(data)})"


def test_p3_tokens_after_last_sample_are_ignored():
    r = load_ppm(b"P3\n1 1\n255\n1 2 3 4 x 999 -1 #\n")
    assert list(r.samples) == [1, 2, 3]


def test_p3_bad_sample_before_stream_end():
    data = b"P3\n2 1\n255\n1 2 x 4\n"
    with pytest.raises(PpmSampleError) as err:
        load_ppm(data)
    assert str(err.value) == f"invalid sample token b'x' (byte offset {data.index(b'x')})"


def test_leading_zeros_accepted():
    r = load_ppm(b"P3\n1 1\n0255\n0255 007 0\n")
    assert list(r.samples) == [255, 7, 0]


def test_p3_twenty_digit_sample():
    big = b"9" * 20
    data = b"P3\n1 1\n255\n1 2 " + big + b" 4\n"
    with pytest.raises(PpmSampleError) as err:
        load_ppm(data)
    assert err.value.offset == data.index(big)
    assert f"sample value {int(big)} exceeds maxval" in str(err.value)


def test_stream_ends_before_maxval():
    data = b"P3\n1 1 # no maxval\n"
    with pytest.raises(PpmTruncatedError) as err:
        load_ppm(data)
    assert err.value.offset == len(data)
    assert str(err.value).startswith("stream ended before maxval")


def test_truncated_p3_names_missing_sample():
    data = b"P3\n2 1\n255\n1 2 3 4\n# end\n"
    with pytest.raises(PpmTruncatedError) as err:
        load_ppm(data)
    assert str(err.value) == f"stream ended before sample 4 (byte offset {len(data)})"


def test_oversized_declared_image_is_truncated():
    # The sample count is checked against the stream, never allocated.
    data = b"P3\n99999999999 99999999999\n255\n1 2 3\n"
    with pytest.raises(PpmTruncatedError) as err:
        load_ppm(data)
    assert err.value.offset == len(data)


def test_p6_comment_right_after_maxval():
    data = b"P6\n1 1\n255#c\n" + bytes(3)
    with pytest.raises(PpmHeaderError) as err:
        load_ppm(data)
    assert err.value.offset == data.index(b"#")


def test_errors_are_value_errors():
    for cls in (
        PpmHeaderError, PpmMaxvalError, PpmZeroDimensionError,
        PpmTruncatedError, PpmSampleError,
    ):
        assert issubclass(cls, PpmParseError)
        assert issubclass(cls, ValueError)


def _random_raster(seed, width=5, height=4):
    samples = [v % 256 for v in splitmix64_stream(seed, width * height * 3)]
    return Raster(width, height, samples)


def test_write_ppm_round_trip():
    r = _random_raster(3)
    assert load_ppm(write_ppm(r, binary=True)) == r
    assert load_ppm(write_ppm(r, binary=False)) == r


def test_write_ppm_is_canonical():
    r = _random_raster(4)
    assert write_ppm(r) == write_ppm(r)
    assert write_ppm(r, binary=False) == write_ppm(r, binary=False)


def test_grayscale_frozen_values():
    rgb = np.array([[255, 255, 255], [0, 0, 0], [100, 150, 50]], np.uint8)
    assert list(luma(rgb)) == [255, 0, 124]


def test_grayscale_matches_fraction_oracle():
    raw = splitmix64_stream(21, 600)
    triples = [(raw[i] % 256, raw[i + 1] % 256, raw[i + 2] % 256)
               for i in range(0, 600, 3)]
    expected = [grayscale_ref(*t) for t in triples]
    assert list(luma(np.array(triples, np.uint8))) == expected


def test_grayscale_identity_on_equal_channels():
    values = list(range(0, 256, 5))
    rgb = np.repeat(np.array(values, np.uint8)[:, None], 3, axis=1)
    assert list(luma(rgb)) == values


def test_raster_validation():
    with pytest.raises(ValueError):
        Raster(2, 2, [0] * 11)
    with pytest.raises(ValueError):
        Raster(0, 2, [])
    with pytest.raises(ValueError):
        Raster(1, 1, [0, 300, 0])
    with pytest.raises(ValueError):
        Raster(1, 1, [0, -1, 0])


def test_raster_grid_and_immutability():
    r = Raster(2, 1, [1, 2, 3, 4, 5, 6])
    assert r.grid().shape == (1, 2, 3)
    assert r.grid()[0, 1, 2] == 6
    with pytest.raises(ValueError):
        r.samples[0] = 9


def test_raster_equality():
    a = Raster(1, 1, [1, 2, 3])
    assert a == Raster(1, 1, [1, 2, 3])
    assert a != Raster(1, 1, [1, 2, 4])
    assert a != "not a raster"
    assert np.array_equal(a.grid()[..., 0], [[1]])
