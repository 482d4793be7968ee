"""Core image and measurement types plus the distortion and PSNR metrics.

Intensities live on the 0..255 scale but are kept as float64 everywhere;
quantization back to bytes happens only when an artifact is exported.
Pixel (row, col) pairs map to linear indices in row-major order, which is
the canonical ordering used for tie-breaking throughout the package.
"""

import os
import secrets
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import pgm
from .numerics import exact_abs_sum, quantize_u8

PSNR_CAP_DB = 99.0
INTENSITY_MAX = 255.0


def atomic_write(path, data: bytes) -> None:
    """Write via a sibling temp file and rename: no torn file, and a failure keeps path."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # open()'s mode: umask applies
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class DimensionMismatchError(ValueError):
    pass


class OutOfBoundsError(ValueError):
    pass


class DuplicateMeasurementError(ValueError):
    pass


class PixelLocation(NamedTuple):
    row: int
    col: int


def linear_index(loc: PixelLocation, width: int) -> int:
    return loc.row * width + loc.col


def location_of(index: int, width: int) -> PixelLocation:
    return PixelLocation(index // width, index % width)


@dataclass(frozen=True)
class GroundTruthImage:
    """Fully known image used for simulation and training."""

    width: int
    height: int
    values: np.ndarray  # (height, width) float64 in [0, 255]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.height, self.width):
            raise DimensionMismatchError(
                f"values shape {v.shape} != ({self.height}, {self.width})"
            )
        if self.width < 1 or self.height < 1:
            raise ValueError("image must have at least one pixel")
        if not np.all(np.isfinite(v)):
            raise ValueError("image values must be finite")
        if v.min() < 0.0 or v.max() > INTENSITY_MAX:
            raise ValueError("image values must lie in [0, 255]")
        object.__setattr__(self, "values", v)

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    @classmethod
    def from_array(cls, values: np.ndarray) -> "GroundTruthImage":
        v = np.asarray(values, dtype=np.float64)
        return cls(width=v.shape[1], height=v.shape[0], values=v)


@dataclass(frozen=True)
class Reconstruction:
    """Estimated image produced from a partial measurement set."""

    width: int
    height: int
    values: np.ndarray  # (height, width) float64

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.height, self.width):
            raise DimensionMismatchError(
                f"values shape {v.shape} != ({self.height}, {self.width})"
            )
        object.__setattr__(self, "values", v)


@dataclass
class MeasurementSet:
    """Ordered collection of measured pixels over a fixed grid.

    Mutated only through add(); the mask, the value grid and the entry list
    stay consistent by construction.
    """

    width: int
    height: int
    entries: list = field(default_factory=list)  # [(PixelLocation, float)]
    mask: np.ndarray = field(init=False)  # (height, width) bool

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must have at least one pixel")
        self.mask = np.zeros((self.height, self.width), dtype=bool)
        self._value_grid = np.zeros((self.height, self.width), dtype=np.float64)
        entries, self.entries = self.entries, []
        for loc, value in entries:
            self.add(loc, value)

    @classmethod
    def from_linear(cls, width: int, height: int, indices, values) -> "MeasurementSet":
        """The set add() builds from row-major indices and their values, in order, at once.

        Raises OutOfBoundsError and DuplicateMeasurementError as add() does.
        """
        mset = cls(width=width, height=height)
        lin = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        if lin.ndim != 1 or vals.shape != lin.shape:
            raise ValueError("expected equally long 1-D indices and values")
        outside = (lin < 0) | (lin >= width * height)
        if outside.any():
            raise OutOfBoundsError(f"index {lin[outside][0]} outside {width}x{height} grid")
        _, first = np.unique(lin, return_index=True)
        if first.size < lin.size:
            again = int(lin[np.setdiff1d(np.arange(lin.size), first)[0]])
            raise DuplicateMeasurementError(f"{location_of(again, width)} already measured")
        mset.mask.flat[lin] = True
        mset._value_grid.flat[lin] = vals
        rows, cols = np.divmod(lin, width)
        mset.entries = list(zip(map(PixelLocation, rows.tolist(), cols.tolist()), vals.tolist()))
        return mset

    @property
    def k(self) -> int:
        return len(self.entries)

    def __contains__(self, loc) -> bool:
        r, c = int(loc[0]), int(loc[1])
        return 0 <= r < self.height and 0 <= c < self.width and bool(self.mask[r, c])

    def unmeasured_index(self, loc) -> int:
        """Linear index of loc, the one check that it is an unmeasured pixel of the grid.

        Raises OutOfBoundsError outside the grid and DuplicateMeasurementError if measured.
        """
        r, c = int(loc[0]), int(loc[1])
        if not (0 <= r < self.height and 0 <= c < self.width):
            raise OutOfBoundsError(f"{PixelLocation(r, c)} outside {self.width}x{self.height} grid")
        if self.mask[r, c]:
            raise DuplicateMeasurementError(f"{PixelLocation(r, c)} already measured")
        return r * self.width + c

    def check_grid(self, recon) -> None:
        """The one check that a reconstruction covers this set's grid; raises ValueError."""
        if (recon.width, recon.height) != (self.width, self.height):
            raise ValueError("reconstruction and measurement set dimensions differ")

    def add(self, loc, value: float) -> int:
        """Measure value at the unmeasured pixel loc; returns its linear index."""
        lin = self.unmeasured_index(loc)
        loc = location_of(lin, self.width)
        value = float(value)
        self.entries.append((loc, value))
        self.mask[loc] = True
        self._value_grid[loc] = value
        return lin

    def measured_indices(self) -> np.ndarray:
        """Linear indices of measured pixels in ascending order."""
        return np.flatnonzero(self.mask.ravel())

    def unmeasured_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.mask.ravel())

    def value_grid(self) -> np.ndarray:
        """(height, width) float64 grid, zero at unmeasured pixels."""
        return self._value_grid

    def copy(self) -> "MeasurementSet":
        return MeasurementSet(width=self.width, height=self.height, entries=self.entries)


def load_image(path) -> GroundTruthImage:
    """Read a P5 graymap into a float image."""
    data = pgm.read_pgm(path)
    return GroundTruthImage.from_array(data.astype(np.float64))


def save_image(path, values: np.ndarray) -> None:
    """Quantize real intensities half-away-from-zero and write a P5 file."""
    pgm.write_pgm(path, quantize_u8(values))


def _as_grid(a) -> np.ndarray:
    values = a.values if hasattr(a, "values") else a
    return np.asarray(values, dtype=np.float64)


def distortion(a, b) -> float:
    """Sum of absolute per-pixel differences, exactly rounded.

    Accepts 2-D arrays or anything carrying a .values grid.
    """
    a, b = _as_grid(a), _as_grid(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"{a.shape} vs {b.shape}")
    return exact_abs_sum(a, b)


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB against a 255 peak, capped at 99 dB."""
    a, b = _as_grid(a), _as_grid(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"{a.shape} vs {b.shape}")
    diff = np.ravel(a) - np.ravel(b)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP_DB
    value = 10.0 * np.log10(INTENSITY_MAX * INTENSITY_MAX / mse)
    return float(min(value, PSNR_CAP_DB))
