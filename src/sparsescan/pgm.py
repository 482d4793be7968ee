"""Binary (P5) graymap reading and writing.

The on-disk contract is deliberately narrow: magic "P5", decimal width,
height and maxval 255, each header token followed by a single whitespace
byte, then exactly width*height raw intensity bytes in row-major order.
Writing then reading a file reproduces the original bytes exactly.
"""

import numpy as np


class PgmError(ValueError):
    """Base class for graymap parse failures; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class PgmHeaderError(PgmError):
    """Malformed magic or header token."""


class PgmDepthError(PgmError):
    """Declared maxval is not the supported 8-bit 255."""


class PgmTruncationError(PgmError):
    """Pixel payload shorter than the header promises."""


_WHITESPACE = b" \t\n\r\x0b\x0c"


def _read_token(data: bytes, pos: int, what: str) -> tuple[bytes, int]:
    start = pos
    while pos < len(data) and data[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    if pos == start:
        raise PgmHeaderError(f"expected {what}", start)
    if pos >= len(data):
        raise PgmHeaderError(f"missing whitespace after {what}", pos)
    # exactly one whitespace byte terminates each token
    return data[start:pos], pos + 1


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, nxt = _read_token(data, pos, what)
    if not token.isdigit():
        raise PgmHeaderError(f"{what} is not a decimal integer: {token!r}", pos)
    return int(token), nxt


def read_pgm(path) -> np.ndarray:
    """Load a P5 graymap as a (height, width) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_pgm(data)


def parse_pgm(data: bytes) -> np.ndarray:
    if data[:2] != b"P5":
        raise PgmHeaderError(f"bad magic {data[:2]!r}, expected b'P5'", 0)
    if len(data) < 3 or data[2:3] not in _WHITESPACE:
        raise PgmHeaderError("missing whitespace after magic", 2)
    pos = 3
    width, pos = _read_int(data, pos, "width")
    height, pos = _read_int(data, pos, "height")
    maxval_pos = pos
    maxval, pos = _read_int(data, pos, "maxval")
    if maxval != 255:
        raise PgmDepthError(f"unsupported depth: maxval {maxval}", maxval_pos)
    if width < 1 or height < 1:
        raise PgmHeaderError(f"degenerate dimensions {width}x{height}", 3)
    expected = width * height
    payload = data[pos : pos + expected]
    if len(payload) < expected:
        raise PgmTruncationError(
            f"payload has {len(payload)} of {expected} bytes", pos + len(payload)
        )
    if len(data) > pos + expected:
        raise PgmHeaderError(f"{len(data) - pos - expected} trailing bytes", pos + expected)
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path, values: np.ndarray) -> None:
    """Write a (height, width) uint8 array as a P5 graymap; a failed write keeps path."""
    from .core import atomic_write  # core imports this module

    atomic_write(path, serialize_pgm(values))


def serialize_pgm(values: np.ndarray) -> bytes:
    arr = np.asarray(values)
    if arr.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {arr.dtype}")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-D image, got shape {arr.shape}")
    height, width = arr.shape
    header = b"P5\n%d %d\n255\n" % (width, height)
    return header + np.ascontiguousarray(arr).tobytes()
