"""Low-level numeric helpers with strict determinism guarantees.

Lazy rescoring in the greedy loop and the threaded chunks of ``select_next``
require that scoring a subset of candidate rows produces bit-identical
numbers to scoring the full batch.  A plain BLAS matmul does not guarantee
that: its kernel, blocking and reduction order can depend on the batch
shape, so a row's bits change with the rows around it.  Two techniques avoid that here:

- ``stable_matmul`` (the MLP forward pass) pushes rows through ``np.matmul``
  in zero-padded tiles of one fixed shape, ``ROW_TILE`` rows, so every call
  runs the same BLAS kernel on the same tile shape.  A memoised self-test per
  weight shape checks that a row's result does not depend on its position
  in a tile; where it does, that shape falls back to ``einsum``.
- ``stable_matvec`` (lsq) and ``stable_cross_sq_dists`` (SVR) use ``einsum``,
  whose per-element reduction order depends only on the contracted length.
  A BLAS tile of the SVR cross product is not row-position invariant even at
  a fixed shape.
"""

import functools
import math

import numpy as np

ROW_TILE = 256  # rows per BLAS tile; also the row block of SVR prediction


def _blas_tiles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, k) @ (k, n) as (ROW_TILE, k) @ (k, n) BLAS products.

    a and b must be C-contiguous float64.  Full tiles are read from a in
    place; the last partial tile is copied into a zero-padded tile, so every
    product has the same shape.
    """
    m, k = a.shape
    out = np.empty((m, b.shape[1]))
    full = m - m % ROW_TILE
    for start in range(0, full, ROW_TILE):
        stop = start + ROW_TILE
        np.matmul(a[start:stop], b, out=out[start:stop])
    if full < m:
        tail = np.zeros((ROW_TILE, k))
        tail[: m - full] = a[full:]
        out[full:] = np.matmul(tail, b)[: m - full]
    return out


@functools.lru_cache(maxsize=None)
def _tiles_row_invariant(k: int, n: int) -> bool:
    """Self-test of ``_blas_tiles`` for (k, n) weights, run once per shape.

    One call of two tiles, a full tile of permuted rows and a padded tile of
    some of the same rows permuted, must give every row the bits it gets in
    a single unpermuted full tile.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((ROW_TILE, k))
    b = rng.standard_normal((k, n))
    part = ROW_TILE // 3
    perm = rng.permutation(ROW_TILE)
    perm_part = rng.permutation(part)
    full = _blas_tiles(a, b)
    got = _blas_tiles(np.concatenate([a[perm], a[perm_part]]), b)
    want = np.concatenate([full[perm], full[perm_part]])
    return bool(np.array_equal(got, want))


def matmul_path(k: int, n: int) -> str:
    """Which path ``stable_matmul`` takes for (k, n) weights."""
    return f"blas-tile{ROW_TILE}" if _tiles_row_invariant(k, n) else "einsum"


def stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, k) @ (k, n) with batch-composition-stable rounding."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if _tiles_row_invariant(*b.shape):
        return _blas_tiles(a, b)
    return np.einsum("ij,jk->ik", a, b)


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
    independent of element order and of how the inputs were sliced.
    """
    return math.fsum(np.abs(np.ravel(a) - np.ravel(b)).tolist())


def quantize_u8(values: np.ndarray) -> np.ndarray:
    """Map real intensities to uint8, rounding halves away from zero."""
    v = np.asarray(values, dtype=np.float64)
    q = np.floor(np.abs(v) + 0.5) * np.sign(v)
    return np.clip(q, 0.0, 255.0).astype(np.uint8)
