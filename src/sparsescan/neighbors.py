"""Canonical nearest-measured-neighbor search over the pixel grid.

Neighbors are ordered by (squared distance, linear index) ascending, so any
distance tie resolves to the lower row-major index.  Both are integers, so
the pair packs losslessly into one int64 composite key: d2 * N + index.
There are two search paths: a KD-tree searched once per 4x4 tile of queries,
and incremental insertion.  Both produce identical composites, which is what
makes reconstruction and scoring results independent of how the neighbor
sets were obtained.  knn_measured, the from-scratch build every other list
starts from, checks both of its preconditions (a non-empty measured set and a
grid whose composites fit) itself.
"""

import itertools

import numpy as np
from scipy.spatial import cKDTree

from . import numerics

# larger than any composite of a grid check_grid_capacity accepts (38968x38968 at most)
SENTINEL = np.int64(2**62)

# Tree searches answer the queries of one _TILE x _TILE pixel tile together.
# Every pixel of a tile lies within _TILE_HALF_DIAGONAL of its centre.
_TILE = 4
_TILE_HALF_DIAGONAL = (_TILE - 1) / 2 * np.sqrt(2.0)

# The (tile pixels x candidates) matrix of one group of tiles holds at most
# ROW_BLOCK * _GROUP_WIDTH entries, 1 MB at the default block, so a tile
# whose ball crosses a dense cluster widens only its own group.
_GROUP_WIDTH = 32


def check_grid_capacity(width: int, height: int) -> None:
    n = width * height
    d2_max = 2 * (max(width, height) - 1) ** 2
    if (d2_max + 1) * n >= int(SENTINEL):
        raise ValueError(f"grid {width}x{height} too large for composite keys")


def decode_lists(comp: np.ndarray, n: int):
    """Split rows of sorted composites into (d2, index, valid); a pad decodes as n: d2 1, index 0.

    Pads trail each sorted list, so its last column decides.  Once every list
    is full, as at k >= count measured pixels, valid is None and callers skip
    the pad masks; a masked slot only adds 0.0, so both paths give the same bits.
    """
    valid = None
    if comp[:, -1].max(initial=0) >= SENTINEL:
        valid = comp < SENTINEL
        comp = np.where(valid, comp, np.int64(n))
    d2 = comp // n
    return d2, comp - d2 * n, valid


def zero_pads(a: np.ndarray, valid) -> np.ndarray:
    """a with its pad slots set to 0.0, or a itself when valid is None."""
    return a if valid is None else np.where(valid, a, 0.0)


def _tile_lists(tree, qr, qc, mr, mc, measured_indices, width, n, count, out) -> None:
    """Write the canonical lists of one block's queries into out, one search per tile.

    For a pixel p of a tile with centre c and half-diagonal h, the distance
    r(p) to its count-th nearest measured pixel is at most r(c) + |p - c|.
    So every measured pixel within r(p) of p, each tie at that distance
    included, lies within r(c) + 2h of c: the ball of that radius around c
    holds the list of every pixel in the tile.  The radius is inflated a
    little so that float rounding cannot drop a tie.
    """
    tiles_per_row = -(-width // _TILE)
    tiles, of_row, rows_per_tile = np.unique(
        (qr // _TILE) * tiles_per_row + qc // _TILE, return_inverse=True, return_counts=True
    )
    origins = np.column_stack(np.divmod(tiles, tiles_per_row)) * _TILE
    centres = origins + (_TILE - 1) / 2
    r_count = tree.query(centres, k=[count])[0][:, 0]
    radius = (r_count + 2 * _TILE_HALF_DIAGONAL) * (1 + 1e-12) + 1e-9
    balls = tree.query_ball_point(centres, radius, return_sorted=False)
    sizes = np.fromiter(map(len, balls), dtype=np.int64, count=len(balls))
    flat = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.int64, count=int(sizes.sum()))
    del balls
    starts = np.cumsum(sizes) - sizes
    # Tiles go in order of candidate count, and the rows with them; a group
    # takes as many tiles as keep its (tile pixels x widest count) matrix
    # within the bound.
    by_size = np.argsort(sizes, kind="stable")
    rank = np.empty_like(by_size)
    rank[by_size] = np.arange(by_size.size)
    order = np.argsort(rank[of_row], kind="stable")
    row_stops = np.cumsum(rows_per_tile[by_size])
    tile_cells = _TILE * _TILE * sizes[by_size]
    pixel = (qr % _TILE) * _TILE + qc % _TILE
    offsets = np.arange(_TILE)[:, None]
    limit = numerics.ROW_BLOCK * _GROUP_WIDTH
    lo = 0
    while lo < by_size.size:
        cells = np.arange(1, by_size.size - lo + 1) * tile_cells[lo:]
        hi = lo + max(1, int(np.searchsorted(cells, limit, side="right")))
        group = by_size[lo:hi]
        slot = np.arange(sizes[group[-1]])
        # slots past a tile's own candidates read the next tile's; they are
        # made SENTINEL below
        j = flat[np.minimum(starts[group][:, None] + slot, flat.size - 1)]
        pad = (slot >= sizes[group][:, None])[:, None, :]
        # composite = n * dr^2 + (n * dc^2 + index): a term per tile row and
        # one per tile column, summed for each of the tile's pixels
        row_term = (mr[j] - origins[group, :1])[:, None, :] - offsets
        row_term *= row_term
        row_term *= n
        col_term = (mc[j] - origins[group, 1:])[:, None, :] - offsets
        col_term *= col_term
        col_term *= n
        col_term += measured_indices[j][:, None, :]
        np.copyto(row_term, SENTINEL, where=pad)
        np.copyto(col_term, 0, where=pad)
        cand = (row_term[:, :, None, :] + col_term[:, None, :, :]).reshape(-1, slot.size)
        rows = order[row_stops[lo - 1] if lo else 0 : row_stops[hi - 1]]
        mine = cand[(rank[of_row[rows]] - lo) * (_TILE * _TILE) + pixel[rows]]
        del cand
        mine.partition(count - 1, axis=1)
        best = mine[:, :count]
        best.sort(axis=1)
        out[rows] = best
        lo = hi


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
    answered ROW_BLOCK at a time against one tree, searched once per tile of
    the block, so temporaries stay bounded.  Every list is exact, so the
    result does not depend on the block size or on the grouping.

    A build needs a count of at least 1, at least one measured pixel and a
    grid whose composites fit below SENTINEL; any failing raises ValueError,
    so callers need not check them.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    check_grid_capacity(width, height)
    measured_indices = np.asarray(measured_indices, dtype=np.int64)
    query_indices = np.asarray(query_indices, dtype=np.int64)
    k = measured_indices.size
    n = width * height
    if k == 0:
        raise ValueError("at least one measured pixel required")
    mr, mc = np.divmod(measured_indices, width)
    out = np.empty((query_indices.size, count), dtype=np.int64)
    take = min(count, k)
    out[:, take:] = SENTINEL
    tree = cKDTree(np.column_stack([mr, mc]).astype(np.float64))
    for block in numerics.row_blocks(query_indices.size):
        qr, qc = np.divmod(query_indices[block], width)
        _tile_lists(tree, qr, qc, mr, mc, measured_indices, width, n, take, out[block, :take])
    return out


def insert_measurement(
    comp: np.ndarray,
    query_indices: np.ndarray,
    new_index: int,
    width: int,
    height: int,
) -> np.ndarray:
    """Fold one new measured pixel into existing neighbor lists in place.

    comp is (m, count) sorted composites for the pixels in query_indices.
    The rows may be any subset of the grid, such as the pixels the new one
    can reach; a caller that passes copies of its rows writes the changed
    ones back.  A row whose last slot holds -1, as a measured pixel's does,
    is never entered: -1 is below every composite.  Returns the positions
    of the rows whose neighbor set changed.  Keeping the best `count`
    composites under insertion preserves canonical ordering, so
    incrementally maintained lists match a fresh knn_measured call exactly.
    """
    n = width * height
    count = comp.shape[1]
    nr, nc = divmod(int(new_index), width)
    qr, qc = np.divmod(query_indices, width)
    d2 = (qr - nr) ** 2 + (qc - nc) ** 2
    new_comp = d2 * np.int64(n) + np.int64(new_index)
    affected = np.flatnonzero(new_comp < comp[:, -1])
    if affected.size:
        block = np.concatenate([comp[affected], new_comp[affected, None]], axis=1)
        block.sort(axis=1)
        comp[affected] = block[:, :count]
    return affected
