"""PPM image decoding and pixel-grid arithmetic.

An image is modeled as a discrete function f(x, y) over N columns and M rows
with 8 bits per sample.  Only PPM (P3/P6, maxval 255) input is supported,
because it is the one common format that can be decoded bit-exactly without
pulling in a codec.
"""

from __future__ import annotations

import numpy as np

_WHITESPACE = b" \t\n\r\x0b\x0c"


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
    """Immutable pixel grid: `width` columns, `height` rows, row-major
    `samples` (channel-interleaved for RGB), 8 bits per sample."""

    __slots__ = ("width", "height", "channels", "bit_depth", "samples")

    def __init__(self, width: int, height: int, samples, channels: int = 3):
        if width < 1 or height < 1:
            raise ValueError("raster dimensions must be positive")
        if channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        arr = np.asarray(samples)
        if arr.dtype != np.uint8:
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise ValueError("samples must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        arr = arr.reshape(-1).copy()
        if arr.size != width * height * channels:
            raise ValueError(
                f"expected {width * height * channels} samples, got {arr.size}"
            )
        arr.setflags(write=False)
        self.width = width
        self.height = height
        self.channels = channels
        self.bit_depth = 8
        self.samples = arr

    def grid(self) -> np.ndarray:
        """Samples reshaped to (height, width, channels); read-only view."""
        return self.samples.reshape(self.height, self.width, self.channels)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Raster)
            and self.width == other.width
            and self.height == other.height
            and self.channels == other.channels
            and bool(np.array_equal(self.samples, other.samples))
        )

    def __repr__(self) -> str:
        return (
            f"Raster(width={self.width}, height={self.height}, "
            f"channels={self.channels})"
        )


def _skip_space(data: bytes, pos: int) -> int:
    # Whitespace and '#' comments (to end of line) separate header tokens.
    n = len(data)
    while pos < n:
        b = data[pos : pos + 1]
        if b in _WHITESPACE:
            pos += 1
        elif b == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    return pos


def _next_token(data: bytes, pos: int, what: str) -> tuple[bytes, int, int]:
    pos = _skip_space(data, pos)
    if pos >= len(data):
        raise PpmTruncatedError(f"stream ended before {what}", pos)
    start = pos
    while pos < len(data) and data[pos : pos + 1] not in _WHITESPACE:
        if data[pos : pos + 1] == b"#":
            break
        pos += 1
    return data[start:pos], start, pos


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    token, start, pos = _next_token(data, pos, what)
    if not token.isdigit():
        raise PpmHeaderError(f"invalid {what} token {token!r}", start)
    return int(token), start, pos


def load_ppm(data: bytes) -> Raster:
    """Decode a P3 (ASCII) or P6 (binary) PPM stream into a 3-channel Raster.

    Decoding is bit-exact and order-preserving: samples are returned in
    row-major, top-left-origin, RGB-interleaved order exactly as stored.
    Only maxval 255 is accepted.
    """
    magic = data[:2]
    if magic not in (b"P3", b"P6"):
        raise PpmHeaderError(f"missing or unknown magic {magic!r}", 0)
    pos = 2
    width, wstart, pos = _header_int(data, pos, "width")
    height, hstart, pos = _header_int(data, pos, "height")
    if width == 0:
        raise PpmZeroDimensionError("zero image width", wstart)
    if height == 0:
        raise PpmZeroDimensionError("zero image height", hstart)
    maxval, mstart, pos = _header_int(data, pos, "maxval")
    if maxval != 255:
        raise PpmMaxvalError(f"unsupported maxval {maxval}", mstart)

    count = width * height * 3
    if magic == b"P6":
        # Exactly one whitespace byte separates maxval from binary payload.
        if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
            raise PpmHeaderError("expected single whitespace after maxval", pos)
        pos += 1
        if len(data) - pos < count:
            raise PpmTruncatedError(
                f"payload holds {len(data) - pos} of {count} bytes", len(data)
            )
        samples = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
        return Raster(width, height, samples)

    values = np.empty(count, dtype=np.uint8)
    for i in range(count):
        token, start, pos = _next_token(data, pos, f"sample {i}")
        if not token.isdigit():
            raise PpmSampleError(f"invalid sample token {token!r}", start)
        v = int(token)
        if v > maxval:
            raise PpmSampleError(f"sample value {v} exceeds maxval", start)
        values[i] = v
    return Raster(width, height, values)


def write_ppm(r: Raster, binary: bool = True) -> bytes:
    """Encode a 3-channel Raster as P6 (binary) or P3 (ASCII) bytes.

    The encoding is canonical (fixed header layout, one pixel row per P3
    line) so identical rasters serialize to identical bytes.
    """
    if r.channels != 3:
        raise ValueError("write_ppm requires a 3-channel raster")
    if binary:
        header = b"P6\n%d %d\n255\n" % (r.width, r.height)
        return header + r.samples.tobytes()
    lines = [f"P3\n{r.width} {r.height}\n255"]
    grid = r.grid()
    for row in range(r.height):
        lines.append(" ".join(str(int(v)) for v in grid[row].reshape(-1)))
    return ("\n".join(lines) + "\n").encode("ascii")


def luma(rgb: np.ndarray) -> np.ndarray:
    """Luma round_half_up(0.299 R + 0.587 G + 0.114 B) of (..., 3) samples.

    The weights are exact thousandths, so this is the integer arithmetic
    (299 R + 587 G + 114 B + 500) // 1000, exact on every platform; int32
    holds the numerator's 255,500 maximum."""
    rgb = rgb.astype(np.int32)
    return (299 * rgb[..., 0] + 587 * rgb[..., 1] + 114 * rgb[..., 2] + 500) // 1000


def to_grayscale(r: Raster) -> Raster:
    """One-channel raster of the luma of every pixel (see luma)."""
    if r.channels != 3:
        raise ValueError("to_grayscale requires a 3-channel raster")
    return Raster(r.width, r.height, luma(r.samples.reshape(-1, 3)), channels=1)
