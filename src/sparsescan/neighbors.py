"""Canonical nearest-measured-neighbor search over the pixel grid.

Neighbors are ordered by (squared distance, linear index) ascending, so any
distance tie resolves to the lower row-major index.  Both are integers, so
the pair packs losslessly into one int64 composite key: d2 * N + index.
Every search path (batch KD-tree, brute force, incremental insertion)
produces identical composites, which is what makes reconstruction and
scoring results independent of how the neighbor sets were obtained.
"""

import numpy as np
from scipy.spatial import cKDTree

# larger than any real composite for images up to ~46000x46000
SENTINEL = np.int64(2**62)

# extra candidates fetched per query to absorb boundary ties; rows where the
# tie group still straddles the cutoff fall back to exhaustive search
_QUERY_PAD = 32


def check_grid_capacity(width: int, height: int) -> None:
    n = width * height
    d2_max = 2 * (max(width, height) - 1) ** 2
    if (d2_max + 1) * n >= int(SENTINEL):
        raise ValueError(f"grid {width}x{height} too large for composite keys")


def decode(comp: np.ndarray, n: int):
    """Split composites into (d2, index, valid); invalid slots get d2=1, idx=0."""
    valid = comp < SENTINEL
    safe = np.where(valid, comp, np.int64(n))
    d2 = safe // n
    idx = safe - d2 * n
    return np.where(valid, d2, 1), np.where(valid, idx, 0), valid


def knn_measured(
    query_indices: np.ndarray,
    measured_indices: np.ndarray,
    width: int,
    height: int,
    count: int,
) -> np.ndarray:
    """Composites of the `count` canonical nearest measured pixels per query.

    Returns an (m, count) int64 array sorted ascending per row, padded with
    SENTINEL when fewer than `count` pixels are measured.
    """
    measured_indices = np.asarray(measured_indices, dtype=np.int64)
    query_indices = np.asarray(query_indices, dtype=np.int64)
    k = measured_indices.size
    m = query_indices.size
    n = width * height
    if k == 0:
        raise ValueError("at least one measured pixel required")
    qr, qc = np.divmod(query_indices, width)
    mr, mc = np.divmod(measured_indices, width)

    if k <= count + _QUERY_PAD:
        d2 = (qr[:, None] - mr[None, :]) ** 2 + (qc[:, None] - mc[None, :]) ** 2
        cand = d2 * n + measured_indices[None, :]
        cand.sort(axis=1)
        out = np.full((m, count), SENTINEL, dtype=np.int64)
        take = min(count, k)
        out[:, :take] = cand[:, :take]
        return out

    tree = cKDTree(np.column_stack([mr, mc]).astype(np.float64))
    kq = count + _QUERY_PAD
    _, nn = tree.query(np.column_stack([qr, qc]).astype(np.float64), k=kq)
    nn = np.atleast_2d(nn)
    cr = mr[nn]
    cc = mc[nn]
    d2 = (qr[:, None] - cr) ** 2 + (qc[:, None] - cc) ** 2
    cand = d2 * n + measured_indices[nn]
    cand.sort(axis=1)
    out = cand[:, :count].copy()

    # Points the tree left out are at least as far as the worst candidate, so
    # the selection is provably canonical when the worst candidate d2 strictly
    # exceeds the selected cutoff d2.  Otherwise redo those rows exhaustively.
    worst_d2 = cand[:, -1] // n
    cutoff_d2 = cand[:, count - 1] // n
    bad = np.flatnonzero(worst_d2 <= cutoff_d2)
    if bad.size:
        d2b = (qr[bad][:, None] - mr[None, :]) ** 2 + (qc[bad][:, None] - mc[None, :]) ** 2
        cb = d2b * n + measured_indices[None, :]
        cb.sort(axis=1)
        out[bad] = cb[:, :count]
    return out


def insert_measurement(
    comp: np.ndarray,
    query_indices: np.ndarray,
    new_index: int,
    width: int,
    height: int,
    active: np.ndarray,
) -> np.ndarray:
    """Fold one new measured pixel into existing neighbor lists in place.

    comp is (m, count) sorted composites for the pixels in query_indices;
    active masks the rows still worth maintaining.  The rows may be any
    subset of the grid, such as the pixels the new one can reach; a caller
    that passes copies of its rows writes the changed ones back.  Returns
    the positions of the rows whose neighbor set changed.  Keeping the best
    `count` composites under insertion preserves canonical ordering, so
    incrementally maintained lists match a fresh knn_measured call exactly.
    """
    n = width * height
    count = comp.shape[1]
    nr, nc = divmod(int(new_index), width)
    qr, qc = np.divmod(query_indices, width)
    d2 = (qr - nr) ** 2 + (qc - nc) ** 2
    new_comp = d2 * np.int64(n) + np.int64(new_index)
    affected = np.flatnonzero(active & (new_comp < comp[:, -1]))
    if affected.size:
        block = np.concatenate([comp[affected], new_comp[affected, None]], axis=1)
        block.sort(axis=1)
        comp[affected] = block[:, :count]
    return affected
