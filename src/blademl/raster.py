"""PPM decoding and encoding of RGB rasters.

An image is modeled as a discrete function f(x, y) over N columns and M rows
with three 8-bit samples (R, G, B) per pixel.  Only PPM (P3/P6, maxval 255)
input is supported, because it is the one common format that can be decoded
bit-exactly without pulling in a codec.  One compiled tokenizer reads the
header of both formats and the P3 samples; the samples are checked and
converted in bulk, and only a bad stream is walked token by token, to name
the first bad token and its byte offset.
"""

from __future__ import annotations

import re

import numpy as np

# A token is a run of bytes up to whitespace or '#', and '#' starts a
# comment that runs to the end of the line.  Group 1 is the token; the
# whitespace and comments on both sides are consumed, so from a token start
# `findall` tiles the rest of the stream token by token, and `match` from
# the magic or a match's end finds the next token.  Fails only at the end.
# A comment must reach the end of its line, so the separators split only one
# way and that failure backtracks in linear time.
_SEPARATORS = rb"\s*(?:#[^\n]*(?![^\n])\s*)*"
_TOKEN = re.compile(_SEPARATORS + rb"([^\s#]+)" + _SEPARATORS)


class PpmParseError(ValueError):
    """Base class for PPM decode failures; message carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class PpmHeaderError(PpmParseError):
    """Missing or malformed magic/width/height/maxval token."""


class PpmMaxvalError(PpmParseError):
    """Maxval other than 255."""


class PpmZeroDimensionError(PpmParseError):
    """Width or height declared as zero."""


class PpmTruncatedError(PpmParseError):
    """Pixel payload ends before N * M * 3 samples."""


class PpmSampleError(PpmParseError):
    """ASCII sample outside [0, maxval]."""


class Raster:
    """Immutable RGB pixel grid: `width` columns, `height` rows, row-major
    channel-interleaved `samples`, 8 bits per sample."""

    __slots__ = ("width", "height", "samples")

    def __init__(self, width: int, height: int, samples):
        if width < 1 or height < 1:
            raise ValueError("raster dimensions must be positive")
        arr = np.asarray(samples)
        if arr.dtype != np.uint8:
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise ValueError("samples must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        arr = arr.reshape(-1).copy()
        if arr.size != width * height * 3:
            raise ValueError(
                f"expected {width * height * 3} samples, got {arr.size}"
            )
        arr.setflags(write=False)
        self.width = width
        self.height = height
        self.samples = arr

    def grid(self) -> np.ndarray:
        """Samples reshaped to (height, width, 3); read-only view."""
        return self.samples.reshape(self.height, self.width, 3)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Raster)
            and self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self.samples, other.samples))
        )

    def __repr__(self) -> str:
        return f"Raster(width={self.width}, height={self.height})"


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, re.Match]:
    match = _TOKEN.match(data, pos)
    if match is None:
        raise PpmTruncatedError(f"stream ended before {what}", len(data))
    if not match[1].isdigit():
        raise PpmHeaderError(f"invalid {what} token {match[1]!r}", match.start(1))
    return int(match[1]), match


def _sample_error(data: bytes, pos: int, count: int, maxval: int):
    """The error of a P3 sample stream that failed the bulk checks: its
    first bad token in stream order, or else the end of the stream."""
    read = 0
    for read, match in zip(range(1, count + 1), _TOKEN.finditer(data, pos)):
        if not match[1].isdigit():
            message = f"invalid sample token {match[1]!r}"
        elif int(match[1]) > maxval:
            message = f"sample value {int(match[1])} exceeds maxval"
        else:
            continue
        return PpmSampleError(message, match.start(1))
    return PpmTruncatedError(f"stream ended before sample {read}", len(data))


def load_ppm(data: bytes) -> Raster:
    """Decode a P3 (ASCII) or P6 (binary) PPM stream into a Raster.

    Decoding is bit-exact and order-preserving: samples are returned in
    row-major, top-left-origin, RGB-interleaved order exactly as stored.
    Only maxval 255 is accepted.  P3 samples after the last one the header
    asks for are ignored.
    """
    magic = data[:2]
    if magic not in (b"P3", b"P6"):
        raise PpmHeaderError(f"missing or unknown magic {magic!r}", 0)
    width, wmatch = _header_int(data, 2, "width")
    height, hmatch = _header_int(data, wmatch.end(), "height")
    if width == 0:
        raise PpmZeroDimensionError("zero image width", wmatch.start(1))
    if height == 0:
        raise PpmZeroDimensionError("zero image height", hmatch.start(1))
    maxval, mmatch = _header_int(data, hmatch.end(), "maxval")
    if maxval != 255:
        raise PpmMaxvalError(f"unsupported maxval {maxval}", mmatch.start(1))

    count = width * height * 3
    if magic == b"P6":
        # Exactly one whitespace byte separates maxval from binary payload.
        pos = mmatch.end(1)
        if not data[pos : pos + 1].isspace():
            raise PpmHeaderError("expected single whitespace after maxval", pos)
        pos += 1
        if len(data) - pos < count:
            raise PpmTruncatedError(
                f"payload holds {len(data) - pos} of {count} bytes", len(data)
            )
        samples = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
        return Raster(width, height, samples)

    tokens = _TOKEN.findall(data, mmatch.end())
    del tokens[count:]
    # Tokens are nonempty, so their concatenation is all digits only if
    # every token is.
    if len(tokens) == count and b"".join(tokens).isdigit():
        values = list(map(int, tokens))
        if max(values) <= maxval:
            return Raster(width, height, np.array(values, dtype=np.uint8))
    raise _sample_error(data, mmatch.end(), count, maxval)


def write_ppm(r: Raster, binary: bool = True) -> bytes:
    """Encode a Raster as P6 (binary) or P3 (ASCII) bytes.

    The encoding is canonical (fixed header layout, one pixel row per P3
    line) so identical rasters serialize to identical bytes.
    """
    if binary:
        header = b"P6\n%d %d\n255\n" % (r.width, r.height)
        return header + r.samples.tobytes()
    rows = r.samples.reshape(r.height, 3 * r.width).tolist()
    lines = [f"P3\n{r.width} {r.height}\n255"]
    lines += [" ".join(map(str, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def luma(rgb: np.ndarray) -> np.ndarray:
    """Luma round_half_up(0.299 R + 0.587 G + 0.114 B) of (..., 3) samples.

    The weights are exact thousandths, so this is the integer arithmetic
    (299 R + 587 G + 114 B + 500) // 1000, exact on every platform; int32
    holds the numerator's 255,500 maximum."""
    rgb = rgb.astype(np.int32)
    return (299 * rgb[..., 0] + 587 * rgb[..., 1] + 114 * rgb[..., 2] + 500) // 1000
