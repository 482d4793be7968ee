"""Inverse-distance-weighted reconstruction from sparse measurements.

Each unmeasured pixel is estimated as the 1/d^p weighted average of its
nearest measured neighbors; measured pixels are copied exactly.
"""

from dataclasses import dataclass

import numpy as np

from . import neighbors
from .core import (
    MeasurementSet,
    PixelLocation,
    Reconstruction,
    linear_index,
    location_of,
)
from .numerics import row_blocks
from . import pgm


@dataclass(frozen=True)
class IdwParams:
    """Reconstruction controls: neighbor count, distance power, window halfwidth."""

    neighbors: int = 10
    power: float = 2.0
    window: int = 15

    def __post_init__(self):
        if self.neighbors < 1:
            raise ValueError("neighbors must be >= 1")
        if not self.power > 0:
            raise ValueError("power must be positive")
        if self.window < 1:
            raise ValueError("window halfwidth must be >= 1")


def idw_from_neighbors(
    comp: np.ndarray, n: int, value_flat: np.ndarray, power: float
) -> np.ndarray:
    """IDW estimates for rows of canonical neighbor composites.

    The weighted sums run in canonical neighbor order with a fixed reduction,
    so results are bitwise independent of how the rows were batched.  A call
    whose lists are all full skips the pad masks; a masked slot adds the
    weight 0.0 and the value 0.0, so the bits are the same either way.
    """
    d2, idx, valid = neighbors.decode_lists(comp, n)
    weights = neighbors.zero_pads(d2.astype(np.float64) ** (-0.5 * power), valid)
    vals = neighbors.zero_pads(value_flat[idx], valid)
    return np.sum(weights * vals, axis=1) / np.sum(weights, axis=1)


def nearest_measured(mset: MeasurementSet, loc, count: int):
    """The `count` nearest measured pixels to loc as (location, value, distance).

    Ordered by distance, ties broken by lower linear index; a measured query
    pixel returns itself first at distance zero.  Fewer than `count` entries
    come back when the set is smaller than that.
    """
    if not (0 <= loc[0] < mset.height and 0 <= loc[1] < mset.width):
        raise ValueError(f"{tuple(loc)} outside {mset.width}x{mset.height} grid")
    q = np.array([linear_index(PixelLocation(*loc), mset.width)], dtype=np.int64)
    comp = neighbors.knn_measured(q, mset.measured_indices(), mset.width, mset.height, count)
    d2, idx, valid = neighbors.decode_lists(comp, mset.width * mset.height)
    real = comp.shape[1] if valid is None else np.count_nonzero(valid)  # pads trail
    values = mset.value_grid().ravel()
    return [
        (location_of(int(i), mset.width), float(values[i]), float(np.sqrt(float(d))))
        for d, i in zip(d2[0, :real], idx[0, :real])
    ]


def reconstruct(mset: MeasurementSet, params: IdwParams) -> Reconstruction:
    """Full IDW reconstruction: measured pixels exact, the rest estimated.

    The estimates are made ROW_BLOCK pixels at a time; each row is computed
    on its own, so the result does not depend on the block size.
    """
    out = mset.value_grid().copy()
    unmeas = mset.unmeasured_indices()
    if unmeas.size:
        comp = neighbors.knn_measured(
            unmeas, mset.measured_indices(), mset.width, mset.height, params.neighbors
        )
        # estimates read only measured values, so a block's writes leave the
        # next block's inputs as they were
        flat = out.ravel()
        for block in row_blocks(unmeas.size):
            flat[unmeas[block]] = idw_from_neighbors(comp[block], flat.size, flat, params.power)
    return Reconstruction(width=mset.width, height=mset.height, values=out)


def window_bounds(loc, width: int, height: int, halfwidth: int):
    """Clipped (r0, r1, c0, c1) bounds of the square window centered at loc."""
    r0 = max(loc[0] - halfwidth, 0)
    r1 = min(loc[0] + halfwidth, height - 1)
    c0 = max(loc[1] - halfwidth, 0)
    c1 = min(loc[1] + halfwidth, width - 1)
    return r0, r1, c0, c1


def save_mask(path, mask: np.ndarray) -> None:
    """Export a boolean measurement mask as P5 (measured=255, unmeasured=0)."""
    pgm.write_pgm(path, np.where(mask, 255, 0).astype(np.uint8))
