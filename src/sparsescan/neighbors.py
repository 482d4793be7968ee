"""Canonical nearest-measured-neighbor search over the pixel grid.

Neighbors are ordered by (squared distance, linear index) ascending, so any
distance tie resolves to the lower row-major index.  Both are integers, so
the pair packs losslessly into one int64 composite key: d2 * N + index.
There are two search paths: a grid search that answers each 4x4 tile of
queries together, and incremental insertion.  Both produce identical
composites, which is what makes reconstruction and scoring results
independent of how the neighbor sets were obtained.  knn_measured, the
from-scratch build every other list starts from, checks both of its
preconditions (a non-empty measured set and a grid whose composites fit)
itself.
"""

import numpy as np

from . import numerics

# larger than any composite of a grid check_grid_capacity accepts (38968x38968 at most)
SENTINEL = np.int64(2**62)

# The grid search answers the queries of one _TILE x _TILE pixel tile
# together, and files the measured pixels by the same tiles (cells).  Every
# pixel of a tile lies within _TILE_HALF_DIAGONAL of its centre.
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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + l) over the pairs (s, l)."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - lengths - starts, lengths)


def _least(hi: np.ndarray, todo: np.ndarray, enough) -> np.ndarray:
    """hi, each element in todo lowered to the least m in 0..hi for which enough(element, m) holds.

    enough(todo elements, m) is elementwise and monotone in m, and holds at hi.
    """
    lo = hi.copy()
    lo[todo] = 0
    hi = hi.copy()
    todo = todo[lo[todo] < hi[todo]]
    while todo.size:
        mid = (lo[todo] + hi[todo]) // 2
        ok = enough(todo, mid)
        hi[todo[ok]] = mid[ok]
        lo[todo[~ok]] = mid[~ok] + 1
        todo = todo[lo[todo] < hi[todo]]
    return lo


class _Cells:
    """The measured pixels filed by _TILE x _TILE cell, the tiles of the queries.

    rows, cols and lin list the pixels cell by cell, the cells in row-major
    order, so the pixels of a run of cells along one cell row are the one
    slice start[first cell] : start[last cell + 1].  The cell rows within
    half_rows[t] of cell t and the cell columns within half_cols[t] of it
    hold at least take measured pixels: the least square that does, or a
    rectangle within it narrowed one way.  The summed-area table of the cell
    counts answers each guess of their bisections in four lookups.
    """

    def __init__(self, measured_indices: np.ndarray, width: int, height: int, take: int):
        self.take = take
        self.wc = wc = -(-width // _TILE)
        self.hc = hc = -(-height // _TILE)
        r, c = np.divmod(measured_indices, width)
        key = np.sort(((r // _TILE) * wc + c // _TILE) * _TILE**2 + (r % _TILE) * _TILE + c % _TILE)
        cell, within = np.divmod(key, _TILE**2)
        cell_row, cell_col = np.divmod(cell, wc)
        self.rows = cell_row * _TILE + within // _TILE
        self.cols = cell_col * _TILE + within % _TILE
        self.lin = self.rows * width + self.cols
        # the measured cell rows and columns: no candidate lies outside them
        self.row_span = int(cell_row[0]), int(cell_row[-1])
        self.col_span = int(cell_col.min()), int(cell_col.max())
        counts = np.bincount(cell, minlength=hc * wc)
        self.start = np.zeros(hc * wc + 1, dtype=np.int64)
        np.cumsum(counts, out=self.start[1:])
        sat = numerics.summed_area(counts.reshape(hc, wc)).ravel()
        every = np.arange(hc * wc)
        ti, tj = np.divmod(every, wc)

        def held(cell, a, b):
            # measured pixels in cell rows ti +- a, columns tj +- b
            r0 = np.maximum(ti[cell] - a, 0) * (wc + 1)
            r1 = np.minimum(ti[cell] + a + 1, hc) * (wc + 1)
            c0 = np.maximum(tj[cell] - b, 0)
            c1 = np.minimum(tj[cell] + b + 1, wc)
            return sat[r1 + c1] - sat[r0 + c1] - sat[r1 + c0] + sat[r0 + c0]

        s = _least(np.full(hc * wc, max(hc, wc) - 1), every, lambda c, m: held(c, m, m) >= take)
        # A square whose last ring crosses a dense cluster holds many more
        # than take pixels.  A rectangle within it, narrower one way, holds
        # fewer, and one cell more that way usually keeps the take nearest
        # of all in it.
        crowded = every[held(every, s, s) > 2 * take]
        a = _least(s, crowded, lambda c, m: held(c, m, s[c]) >= take)
        b = _least(s, crowded, lambda c, m: held(c, s[c], m) >= take)
        narrow = a <= b
        self.half_rows = np.where(narrow, np.minimum(a + 1, s), s)
        self.half_cols = np.where(narrow, s, np.minimum(b + 1, s))

    def _take(self, tile, i, j0, j1):
        """Positions, and the tile of each, of the measured pixels in cells j0..j1 of cell row i."""
        row = i * self.wc
        first = self.start[row + np.maximum(j0, 0)]
        sizes = self.start[row + np.minimum(j1, self.wc - 1) + 1] - first
        return _ranges(first, sizes), np.repeat(tile, sizes)

    def _rows(self, i0, i1):
        """(tile, cell row) of the cell rows i0..i1 of each tile, within the measured rows."""
        i0 = np.maximum(i0, self.row_span[0])
        sizes = np.minimum(i1, self.row_span[1]) - i0 + 1
        return np.repeat(np.arange(i0.size), sizes), _ranges(i0, sizes)

    def _dist4(self, pos, of, centre2):
        """4 |q - c|^2 for each measured pixel q = pos and the centre c = centre2 / 2 of its tile of."""
        dr = 2 * self.rows[pos] - centre2[0][of]
        dc = 2 * self.cols[pos] - centre2[1][of]
        return dr * dr + dc * dc

    def ball(self, tiles: np.ndarray):
        """Positions of the measured pixels within R + 2h of each tile's centre c, and their counts.

        The rectangle of cells around a tile holds at least take measured
        pixels, so R, the take-th smallest distance from c among them, is at
        least r(c), the distance to the take-th nearest of all, and equals
        it when the rectangle holds the nearest ones.  The ball is gathered
        a cell row at a time from the cells that meet it, then cut to the
        disk.
        """
        ti, tj = np.divmod(tiles, self.wc)
        centre2 = 2 * _TILE * ti + _TILE - 1, 2 * _TILE * tj + _TILE - 1
        a, b = self.half_rows[tiles], self.half_cols[tiles]
        tile, i = self._rows(ti - a, ti + a)
        pos, of = self._take(tile, i, (tj - b)[tile], (tj + b)[tile])
        d4 = self._dist4(pos, of, centre2)
        sizes = np.bincount(of, minlength=tiles.size)
        scale = int(d4.max()) + 1
        kth = np.sort(of * scale + d4)[np.cumsum(sizes) - sizes + self.take - 1]
        kth -= np.arange(tiles.size) * scale
        # inflated a little so that float rounding cannot drop a tie
        radius = (np.sqrt(kth) / 2 + 2 * _TILE_HALF_DIAGONAL) * (1 + 1e-12) + 1e-9
        # A cell's nearest pixel row (column) lies _TILE * gap - pad from the
        # centre, gap cells away.  A cell row is read when the disk meets it
        # within the measured columns, and in it the cells the disk meets;
        # the reaches are at least 0, so truncation is floor.
        pad = (_TILE - 1) / 2
        col_gap = np.maximum(_TILE * np.maximum(self.col_span[0] - tj, tj - self.col_span[1]) - pad, 0)
        r2 = radius * radius
        row_reach = ((np.sqrt(np.maximum(r2 - col_gap * col_gap, 0)) + pad) / _TILE).astype(np.int64)
        tile, i = self._rows(ti - row_reach, ti + row_reach)
        row_gap = np.maximum(_TILE * np.abs(i - ti[tile]) - pad, 0)
        col_reach = np.sqrt(np.maximum(r2[tile] - row_gap * row_gap, 0))
        col_reach = ((col_reach + pad) / _TILE).astype(np.int64)
        j = tj[tile]
        pos, of = self._take(tile, i, j - col_reach, j + col_reach)
        inside = self._dist4(pos, of, centre2) <= 4 * r2[of]
        return pos[inside], np.bincount(of[inside], minlength=tiles.size)


def _tile_lists(cells, qr, qc, n, count, out) -> None:
    """Write the canonical lists of one block's queries into out, one ball per tile.

    For a pixel p of a tile with centre c and half-diagonal h, the distance
    r(p) to its count-th nearest measured pixel is at most r(c) + |p - c|.
    So every measured pixel within r(p) of p, each tie at that distance
    included, lies within r(c) + 2h of c: a ball around c of that radius or
    more holds the list of every pixel in the tile.
    """
    tiles, of_row, rows_per_tile = np.unique(
        (qr // _TILE) * cells.wc + qc // _TILE, return_inverse=True, return_counts=True
    )
    origins = np.column_stack(np.divmod(tiles, cells.wc)) * _TILE
    flat, sizes = cells.ball(tiles)
    starts = np.cumsum(sizes) - sizes
    # Tiles go in order of candidate count, and the rows with them; a group
    # takes as many tiles as keep its (tile pixels x widest count) matrix
    # within the bound.
    by_size = np.argsort(sizes, kind="stable")
    rank = np.empty_like(by_size)
    rank[by_size] = np.arange(by_size.size)
    order = np.argsort(rank[of_row], kind="stable")
    row_stops = np.cumsum(rows_per_tile[by_size])
    tile_entries = _TILE * _TILE * sizes[by_size]
    pixel = (qr % _TILE) * _TILE + qc % _TILE
    offsets = np.arange(_TILE)[:, None]
    limit = numerics.ROW_BLOCK * _GROUP_WIDTH
    lo = 0
    while lo < by_size.size:
        entries = np.arange(1, by_size.size - lo + 1) * tile_entries[lo:]
        hi = lo + max(1, int(np.searchsorted(entries, limit, side="right")))
        group = by_size[lo:hi]
        slot = np.arange(sizes[group[-1]])
        # slots past a tile's own candidates read the next tile's; they are
        # made SENTINEL below
        j = flat[np.minimum(starts[group][:, None] + slot, flat.size - 1)]
        pad = (slot >= sizes[group][:, None])[:, None, :]
        # composite = n * dr^2 + (n * dc^2 + index): a term per tile row and
        # one per tile column, summed for each of the tile's pixels
        row_term = (cells.rows[j] - origins[group, :1])[:, None, :] - offsets
        row_term *= row_term
        row_term *= n
        col_term = (cells.cols[j] - origins[group, 1:])[:, None, :] - offsets
        col_term *= col_term
        col_term *= n
        col_term += cells.lin[j][:, None, :]
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
    SENTINEL when fewer than `count` pixels are measured.  The measured
    pixels are filed once by 4x4 cell; queries are answered ROW_BLOCK at a
    time, each tile of the block from the cells that meet its ball, so
    temporaries stay bounded.  Every list is exact, so the result does not
    depend on the block size or on the grouping.

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
    out = np.empty((query_indices.size, count), dtype=np.int64)
    take = min(count, k)
    out[:, take:] = SENTINEL
    cells = _Cells(measured_indices, width, height, take)
    for block in numerics.row_blocks(query_indices.size):
        qr, qc = np.divmod(query_indices[block], width)
        _tile_lists(cells, qr, qc, n, take, out[block, :take])
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
