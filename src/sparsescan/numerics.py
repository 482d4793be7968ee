"""Low-level numeric helpers with strict determinism guarantees.

Lazy rescoring in the greedy loop and the blocks of full-image scoring
require that scoring a subset of candidate rows produces bit-identical
numbers to scoring the full batch.  A plain BLAS matmul does not guarantee
that: its kernel, blocking and reduction order can depend on the batch
shape, so a row's bits change with the rows around it.  Three techniques avoid that here:

- ``tile_product`` (the MLP forward pass) takes rows zero-padded once to
  whole tiles of ``MATMUL_TILE`` rows and stacked as (tiles, MATMUL_TILE,
  k); one ``np.matmul`` over the stack runs one BLAS product of the same
  (MATMUL_TILE, k) @ (k, n) shape per tile, so every call runs the same
  kernel on the same tile shape.
- SVR prediction (``regress.svr.predict_svr``) turns the tile round: a slab
  of ``ROW_TILE`` support-vector rows, each extended by two terms, is the
  left operand and up to ``ROW_TILE`` query rows, each extended likewise,
  are the zero-padded columns of the right one, so the product is already
  -gamma * d2.  Each block of queries fills its column tile once and runs
  every slab through one cache-resident buffer whose first row carries the
  coefficient sum.  A call's last block pads its tile only to a multiple of
  64 columns, and a slab is clamped at 0 only when a value in it is above 0
  or NaN.  A row tile of the plain cross product, (ROW_TILE, t) @ (t,
  support vectors), is not row-position invariant on the OpenBLAS this was
  measured with; the column tile is, at widths 64, 128, 192 and 256.
- ``stable_matvec`` (lsq) and ``stable_cross_sq_dists`` (SVR training, and
  SVR prediction where the column tile fails its self-test) use ``einsum``,
  whose per-element reduction order depends only on the contracted length.

Both tile orientations sit behind a memoised self-test per operand shape
built on ``_position_invariant``: a result row, or column, must not depend on
its position in a tile or on the other rows in it.  Each test runs the
product that prediction runs, over two tiles in one call.  The row tile's
test is here; the SVR test (``regress.svr.slab_path``) runs the slab loop
itself, once for each narrowed width of a last tile.  A shape that fails
falls back to ``einsum``.
"""

import functools
import itertools
import math

import numpy as np

ROW_TILE = 256  # query columns per full SVR column tile, support vectors per slab
MATMUL_TILE = 64  # rows per BLAS tile of tile_product

# Pixels per block of a full-image build (neighbour search, re-estimation,
# scoring, distortion sums).  Every row is computed on its own, so results do
# not depend on it; it bounds the temporaries, and as a multiple of ROW_TILE
# and MATMUL_TILE only a call's last block pads a BLAS tile.
ROW_BLOCK = 4096


def row_blocks(m: int):
    """Slices that cover range(m) in order, ROW_BLOCK at a time."""
    return [slice(start, start + ROW_BLOCK) for start in range(0, m, ROW_BLOCK)]


def summed_area(counts: np.ndarray) -> np.ndarray:
    """The (h + 1, w + 1) int64 summed-area table of a 2-D array of counts.

    sat[r, c] is the sum of counts[:r, :c], so any rectangle's sum is four
    lookups; integer arithmetic, so it agrees exactly with direct counting.
    """
    h, w = counts.shape
    sat = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(counts, axis=0, dtype=np.int64), axis=1, out=sat[1:, 1:])
    return sat


def row_tiles(a: np.ndarray) -> np.ndarray:
    """The rows of a (m, k) as (tiles, MATMUL_TILE, k), the last tile zero-padded."""
    m, k = a.shape
    tiles = np.zeros((-(-m // MATMUL_TILE), MATMUL_TILE, k))
    tiles.reshape(-1, k)[:m] = a
    return tiles


def _tile_matmul(h: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = h[i] @ w for every tile i, in one stacked np.matmul.

    numpy runs one BLAS product of shape (MATMUL_TILE, k) @ (k, n) per tile,
    so every product has one shape however many tiles there are.
    """
    return np.matmul(h, w, out=out)


def tile_product(h: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = h[i] @ w for stacked tiles h, with batch-composition-stable rounding.

    h is (tiles, MATMUL_TILE, k) and out (tiles, MATMUL_TILE, n), both
    C-contiguous float64.  The product runs through _tile_matmul when (k, n)
    weights passed the self-test, else through einsum over the rows.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    k, n = w.shape
    if _tiles_row_invariant(k, n):
        return _tile_matmul(h, w, out)
    np.einsum("ij,jk->ik", h.reshape(-1, k), w, out=out.reshape(-1, n))
    return out


def _position_invariant(tiles, a: np.ndarray, part: int = None) -> bool:
    """Self-test of a tiled computation: tiles(a) has one result row per row of a.

    a holds one tile of rows.  One call of two tiles, a full tile of permuted
    rows and a padded tile of `part` of the same rows permuted (a third of a
    tile when not given), must give every row the bits it gets in a single
    unpermuted full tile.
    """
    rng = np.random.default_rng(1)
    tile = a.shape[0]
    part = tile // 3 if part is None else part
    perm = rng.permutation(tile)
    perm_part = rng.permutation(part)
    full = tiles(a)
    got = tiles(np.concatenate([a[perm], a[perm_part]]))
    return np.array_equal(got[:tile], full[perm]) and np.array_equal(
        got[tile:], full[perm_part]
    )


@functools.lru_cache(maxsize=None)
def _tiles_row_invariant(k: int, n: int) -> bool:
    """Whether stacked ``_tile_matmul`` tiles are row-position invariant for (k, n) weights."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((MATMUL_TILE, k))
    b = rng.standard_normal((k, n))

    def product(rows):
        h = row_tiles(rows)
        return _tile_matmul(h, b, np.empty((len(h), MATMUL_TILE, n))).reshape(-1, n)[: len(rows)]

    return _position_invariant(product, a)


def matmul_path(k: int, n: int) -> str:
    """Which path ``tile_product`` takes for (k, n) weights."""
    return f"blas-tile{MATMUL_TILE}" if _tiles_row_invariant(k, n) else "einsum"


def stable_matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(m, k) @ (k,) with batch-composition-stable rounding."""
    return np.einsum("ij,j->i", a, v)


def stable_cross_sq_dists(
    a: np.ndarray, b: np.ndarray, out: np.ndarray = None, scratch: np.ndarray = None
) -> np.ndarray:
    """Squared Euclidean distances between rows of a (m, t) and b (n, t).

    out receives the (m, n) result and scratch, another (m, n) float64 array,
    the cross products; each is allocated when not given.  Callers that loop
    over blocks pass the same two arrays every time.
    """
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    cross = np.einsum("ij,kj->ik", a, b, out=scratch)
    cross *= 2.0  # exact, so d2 rounds as aa + bb - 2 * cross
    d2 = np.add(aa[:, None], bb[None, :], out=out)
    d2 -= cross
    # negative values only from rounding; distances are squared magnitudes
    return np.maximum(d2, 0.0, out=d2)


def exact_abs_sum(a: np.ndarray, b: np.ndarray) -> float:
    """Exactly rounded sum of |a - b|.

    math.fsum returns the correctly rounded float64 sum, so the result is
    independent of element order and of how the inputs were sliced; it is
    fed one ROW_BLOCK of Python floats at a time.
    """
    a, b = np.ravel(a), np.ravel(b)
    return math.fsum(
        itertools.chain.from_iterable(np.abs(a[s] - b[s]).tolist() for s in row_blocks(a.size))
    )


def quantize_u8(values: np.ndarray) -> np.ndarray:
    """Map real intensities to uint8, rounding halves away from zero."""
    v = np.asarray(values, dtype=np.float64)
    q = np.floor(np.abs(v) + 0.5) * np.sign(v)
    return np.clip(q, 0.0, 255.0).astype(np.uint8)
