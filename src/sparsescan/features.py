"""Per-pixel descriptors fed to the ERD regressors.

Six features in fixed order for an unmeasured pixel s:
  f1  horizontal gradient magnitude of the reconstruction at s
  f2  vertical gradient magnitude
  f3  standard deviation of the nearest measured neighbor values
  f4  mean absolute difference between the reconstruction at s and those values
  f5  Euclidean distance to the nearest measured pixel
  f6  fraction of pixels measured within Chebyshev radius w of s

Gradients are central differences halved, falling back to one-sided at the
borders.  f6 always divides by the full (2w+1)^2 window area, so border
pixels see smaller fractions.

The features depend on three different inputs:
  - f3, f4 and f5 depend only on the pixel's neighbour list (measured values
    never change) and, for f4, on the value at s.  An unmeasured pixel's
    estimate is fixed by its list, so neighbour_terms computes the three
    once per list, against the given centre values;
  - f1 and f2 read the reconstruction around s (its linear index gives its
    borders), and compute_feature_matrix assembles them around the terms;
  - f6 depends only on the window's measured count.
The sampler's batch path (terms cached per pixel), select_next's (terms
built from scratch) and the single-pixel path call the same two functions,
so they agree bitwise.
"""

from dataclasses import dataclass

import numpy as np

from . import neighbors
from .core import MeasurementSet, PixelLocation, Reconstruction, location_of
from .numerics import summed_area
from .recon import IdwParams, window_bounds

FEATURE_COUNT = 6
STD_FLOOR = 1e-8


@dataclass(frozen=True)
class FeatureVector:
    location: PixelLocation
    values: np.ndarray  # (FEATURE_COUNT,)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (FEATURE_COUNT,):
            raise ValueError(f"expected {FEATURE_COUNT} features, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("features must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature standardization constants frozen into trained models."""

    means: np.ndarray  # (FEATURE_COUNT,)
    stds: np.ndarray  # (FEATURE_COUNT,), floored at STD_FLOOR

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        stds = np.asarray(self.stds, dtype=np.float64)
        if means.shape != (FEATURE_COUNT,) or stds.shape != (FEATURE_COUNT,):
            raise ValueError("stats must have one entry per feature")
        if np.any(stds < STD_FLOOR):
            raise ValueError(f"stds must be floored at {STD_FLOOR}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)


def fit_stats(feature_rows: np.ndarray) -> FeatureStats:
    """Population mean and std per feature column, std floored at 1e-8."""
    rows = np.asarray(feature_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != FEATURE_COUNT:
        raise ValueError(f"expected (n, {FEATURE_COUNT}) feature rows")
    if rows.shape[0] < 1:
        raise ValueError("at least one row required")
    means = rows.mean(axis=0)
    stds = np.sqrt(np.mean((rows - means) ** 2, axis=0))
    return FeatureStats(means=means, stds=np.maximum(stds, STD_FLOOR))


def standardize(values: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """(v - mean) / std, elementwise over the final axis."""
    return (np.asarray(values, dtype=np.float64) - stats.means) / stats.stds


def measured_counts_grid(mask: np.ndarray, halfwidth: int) -> np.ndarray:
    """Per-pixel count of measured pixels within Chebyshev radius halfwidth.

    Computed with a summed-area table; all integer arithmetic, so it agrees
    exactly with direct counting.
    """
    h, w = mask.shape
    sat = summed_area(mask)
    r = np.arange(h)
    c = np.arange(w)
    r0 = np.maximum(r - halfwidth, 0)
    r1 = np.minimum(r + halfwidth, h - 1) + 1
    c0 = np.maximum(c - halfwidth, 0)
    c1 = np.minimum(c + halfwidth, w - 1) + 1
    return (
        sat[r1[:, None], c1[None, :]]
        - sat[r0[:, None], c1[None, :]]
        - sat[r1[:, None], c0[None, :]]
        + sat[r0[:, None], c0[None, :]]
    )


def neighbour_terms(
    comp: np.ndarray, n: int, value_flat: np.ndarray, center: np.ndarray
) -> np.ndarray:
    """The list terms f3, f4 and f5, as (m, 3) columns, of rows of neighbour composites.

    f4 compares each row's neighbour values with its entry of center, the
    value at that row's pixel.  Each row depends on its own composites,
    centre and the measured values alone, with a fixed reduction, so it is
    bitwise independent of the batch.  A call whose lists are all full skips
    the pad masks and divides by the list length; a masked slot adds 0.0, so
    the bits are the same either way.
    """
    d2, idx, valid = neighbors.decode_lists(comp, n)
    vals = neighbors.zero_pads(value_flat[idx], valid)
    counts = float(comp.shape[1]) if valid is None else valid.sum(axis=1).astype(np.float64)
    nb_mean = np.sum(vals, axis=1) / counts
    spread = neighbors.zero_pads((vals - nb_mean[:, None]) ** 2, valid)
    f3 = np.sqrt(np.sum(spread, axis=1) / counts)
    f4 = np.sum(neighbors.zero_pads(np.abs(center[:, None] - vals), valid), axis=1) / counts
    return np.column_stack([f3, f4, np.sqrt(d2[:, 0].astype(np.float64))])


def compute_feature_matrix(
    recon_grid: np.ndarray,
    pixels: np.ndarray,
    terms: np.ndarray,
    window_counts: np.ndarray,
    params: IdwParams,
) -> np.ndarray:
    """Descriptor rows from the list terms and the current reconstruction.

    recon_grid is the current (h, w) reconstruction, pixels the targets'
    linear indices (the grid borders come from them alone), terms their
    neighbour_terms, window_counts the number of measured pixels within
    Chebyshev radius params.window of each target.
    """
    h, w = recon_grid.shape
    flat = recon_grid.ravel()
    col = pixels % w
    has_left, has_right = col > 0, col < w - 1
    has_up, has_down = pixels >= w, pixels < (h - 1) * w
    left = flat[pixels - has_left]
    right = flat[pixels + has_right]
    up = flat[pixels - w * has_up]
    down = flat[pixels + w * has_down]
    denom_h = has_left.astype(np.float64) + has_right.astype(np.float64)
    denom_v = has_up.astype(np.float64) + has_down.astype(np.float64)
    # a 0 denominator means a 1-pixel axis: both sides read s, and +0.0 / 1.0 is 0.0
    f1 = np.abs(right - left) / np.maximum(denom_h, 1.0)
    f2 = np.abs(down - up) / np.maximum(denom_v, 1.0)
    area = float((2 * params.window + 1) ** 2)
    f6 = window_counts.astype(np.float64) / area
    return np.column_stack([f1, f2, terms, f6])


def extract_features(
    recon: Reconstruction, mset: MeasurementSet, s, params: IdwParams
) -> FeatureVector:
    """Descriptor for one unmeasured pixel against the current reconstruction."""
    if (recon.width, recon.height) != (mset.width, mset.height):
        raise ValueError("reconstruction and measurement set dimensions differ")
    lin = np.array([mset.unmeasured_index(s)], dtype=np.int64)
    s = location_of(int(lin[0]), mset.width)
    comp = neighbors.knn_measured(
        lin, mset.measured_indices(), mset.width, mset.height, params.neighbors
    )
    r0, r1, c0, c1 = window_bounds(s, mset.width, mset.height, params.window)
    count = np.array([np.count_nonzero(mset.mask[r0 : r1 + 1, c0 : c1 + 1])], dtype=np.int64)
    values = mset.value_grid().ravel()
    terms = neighbour_terms(comp, values.size, values, recon.values.ravel()[lin])
    matrix = compute_feature_matrix(recon.values, lin, terms, count, params)
    return FeatureVector(location=s, values=matrix[0])
