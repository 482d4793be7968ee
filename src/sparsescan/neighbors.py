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

from .numerics import row_blocks

# larger than any real composite for images up to ~46000x46000
SENTINEL = np.int64(2**62)

# Measured sets of at most count + _BRUTE_FORCE_PAD pixels are searched
# exhaustively: at 41 measured pixels on 64x64 that takes 3-4 ms against
# 7-11 ms for building and querying a tree.
_BRUTE_FORCE_PAD = 32

# The tree returns count + _QUERY_PAD candidates per query.  A row's list is
# provably canonical when the worst candidate lies strictly farther than its
# count-th neighbour.  When a tie group at that distance is larger than the
# pad (the 32 lattice points at d2 = 1105 around one pixel, say), the row is
# searched exhaustively instead.  With count 10 and a pad of 8, that took 1
# row in about 3 million on uniform masks of 1-40% density at 64x64 to
# 512x512, and none on lattices of step 3, 4 and 8; a pad of 4 took 7,014
# rows in 1.3 million.  A pad of 8 builds the lists in about half the time
# a pad of 32 takes.
_QUERY_PAD = 8


def check_grid_capacity(width: int, height: int) -> None:
    n = width * height
    d2_max = 2 * (max(width, height) - 1) ** 2
    if (d2_max + 1) * n >= int(SENTINEL):
        raise ValueError(f"grid {width}x{height} too large for composite keys")


def decode(comp: np.ndarray, n: int):
    """Split composites into (d2, index, valid); invalid slots get d2=1, idx=0."""
    valid = comp < SENTINEL
    # an invalid slot decodes as the composite n: d2 = 1, index 0
    safe = np.where(valid, comp, np.int64(n))
    d2 = safe // n
    return d2, safe - d2 * n, valid


def _exhaustive(qr, qc, mr, mc, measured_indices, n: int, count: int) -> np.ndarray:
    """Composites of the `count` nearest pixels of the whole measured set, per query.

    Slots past the size of the measured set hold SENTINEL.
    """
    d2 = (qr[:, None] - mr[None, :]) ** 2 + (qc[:, None] - mc[None, :]) ** 2
    cand = d2 * n + measured_indices[None, :]
    cand.sort(axis=1)
    out = np.full((qr.size, count), SENTINEL, dtype=np.int64)
    take = min(count, cand.shape[1])
    out[:, :take] = cand[:, :take]
    return out


def knn_measured(
    query_indices: np.ndarray,
    measured_indices: np.ndarray,
    width: int,
    height: int,
    count: int,
) -> np.ndarray:
    """Composites of the `count` canonical nearest measured pixels per query.

    Returns an (m, count) int64 array sorted ascending per row, padded with
    SENTINEL when fewer than `count` pixels are measured.  Queries are
    answered ROW_BLOCK at a time against one tree, so temporaries stay
    bounded; each row is found on its own, so the result does not depend on
    the block size.
    """
    measured_indices = np.asarray(measured_indices, dtype=np.int64)
    query_indices = np.asarray(query_indices, dtype=np.int64)
    k = measured_indices.size
    n = width * height
    if k == 0:
        raise ValueError("at least one measured pixel required")
    mr, mc = np.divmod(measured_indices, width)
    out = np.empty((query_indices.size, count), dtype=np.int64)
    brute = k <= count + _BRUTE_FORCE_PAD
    if not brute:
        tree = cKDTree(np.column_stack([mr, mc]).astype(np.float64))
    for block in row_blocks(query_indices.size):
        qr, qc = np.divmod(query_indices[block], width)
        if brute:
            out[block] = _exhaustive(qr, qc, mr, mc, measured_indices, n, count)
            continue
        _, nn = tree.query(np.column_stack([qr, qc]).astype(np.float64), k=count + _QUERY_PAD)
        nn = np.atleast_2d(nn)
        d2 = (qr[:, None] - mr[nn]) ** 2 + (qc[:, None] - mc[nn]) ** 2
        cand = d2 * n + measured_indices[nn]
        cand.sort(axis=1)
        # Points the tree left out are at least as far as the worst candidate,
        # so the selection is provably canonical when the worst candidate d2
        # strictly exceeds the selected cutoff d2.  Otherwise redo those rows
        # exhaustively.
        bad = np.flatnonzero(cand[:, -1] // n <= cand[:, count - 1] // n)
        if bad.size:
            cand[bad, :count] = _exhaustive(qr[bad], qc[bad], mr, mc, measured_indices, n, count)
        out[block] = cand[:, :count]
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
