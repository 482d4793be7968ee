"""Epsilon-insensitive support vector regressor with an RBF kernel.

The dual is solved by sequential pairwise optimization over the doubled
variable vector a = [alpha; alpha*], picking the maximal violating pair
until the KKT gap drops below tol.  Prediction is
sum_i coeff_i * exp(-gamma * ||v - sv_i||^2) + b, with -gamma * ||v - sv_i||^2
computed by one BLAS product per slab of support vectors, and each slab
exponentiated and added to a running coefficient sum while it is in cache;
training and rbf_kernel keep the einsum distances of
numerics.stable_cross_sq_dists.
"""

import functools
from dataclasses import dataclass

import numpy as np

from ..numerics import ROW_TILE, _position_invariant, stable_cross_sq_dists

_TAU = 1e-12

TAIL_STEP = 64  # a call's last column tile is cut to whole steps of this many columns


@dataclass(frozen=True)
class SvrModel:
    support_vectors: np.ndarray  # (nsv, t) standardized feature rows
    coefficients: np.ndarray  # (nsv,) dual coefficients in [-C, C]
    bias: float
    gamma: float
    c: float
    epsilon: float
    converged: bool = True
    support_indices: np.ndarray = None  # rows of the fitted sample kept as SVs

    def __post_init__(self):
        sv = np.asarray(self.support_vectors, dtype=np.float64)
        co = np.asarray(self.coefficients, dtype=np.float64)
        if sv.ndim != 2 or co.shape != (sv.shape[0],):
            raise ValueError("support vectors and coefficients disagree")
        if sv.shape[0] < 1:
            raise ValueError("at least one support vector required")
        if np.any(np.abs(co) > self.c + 1e-12):
            raise ValueError("dual coefficients must satisfy |coeff| <= C")
        idx = self.support_indices
        idx = np.arange(sv.shape[0]) if idx is None else np.asarray(idx, dtype=np.int64)
        object.__setattr__(self, "support_vectors", sv)
        object.__setattr__(self, "coefficients", co)
        object.__setattr__(self, "support_indices", idx)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * stable_cross_sq_dists(a, b))


def auto_gamma(V: np.ndarray) -> float:
    """1 / (t * pooled variance); close to 1/t for standardized features."""
    V = np.asarray(V, dtype=np.float64)
    pooled = float(np.mean(np.var(V, axis=0)))
    if pooled <= 0.0:
        return 1.0 / V.shape[1]
    return 1.0 / (V.shape[1] * pooled)


def dual_objective(K: np.ndarray, targets: np.ndarray, epsilon: float, beta: np.ndarray) -> float:
    """Dual value -0.5 b'Kb - eps*sum|b| + y'b for coefficient vector beta."""
    quad = float(beta @ K @ beta)
    return -0.5 * quad - epsilon * float(np.sum(np.abs(beta))) + float(targets @ beta)


def fit_svr(
    V: np.ndarray,
    R: np.ndarray,
    c: float = 1.0,
    epsilon: float = 0.1,
    gamma: float = None,
    seed: int = 0,
    subsample_cap: int = 2000,
    max_iter: int = None,
    tol: float = 1e-3,
) -> SvrModel:
    """Fit by pairwise dual optimization; subsamples past the cap first.

    Data beyond subsample_cap rows is thinned with a seeded uniform draw so
    the kernel matrix stays dense and affordable.  Hitting max_iter returns
    the best iterate with converged=False rather than raising.
    """
    V = np.asarray(V, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    if V.ndim != 2 or R.shape != (V.shape[0],):
        raise ValueError("expected V (n, t) and R (n,)")
    if V.shape[0] < 1:
        raise ValueError("at least one row required")

    picked = np.arange(V.shape[0], dtype=np.int64)
    if V.shape[0] > subsample_cap:
        rng = np.random.default_rng(seed)
        picked = np.sort(rng.choice(V.shape[0], size=subsample_cap, replace=False))
        V = V[picked]
        R = R[picked]
    n = V.shape[0]
    if gamma is None:
        gamma = auto_gamma(V)
    if max_iter is None:
        max_iter = max(20000, 100 * n)

    K = rbf_kernel(V, V, gamma)
    # doubled variables: a[:n] = alpha (z=+1), a[n:] = alpha* (z=-1)
    z = np.concatenate([np.ones(n), -np.ones(n)])
    p = np.concatenate([epsilon - R, epsilon + R])
    a = np.zeros(2 * n)
    G = p.copy()
    base = np.concatenate([np.arange(n), np.arange(n)])

    converged = False
    for _ in range(max_iter):
        up = ((z > 0) & (a < c)) | ((z < 0) & (a > 0))
        low = ((z > 0) & (a > 0)) | ((z < 0) & (a < c))
        viol = -z * G
        i = int(np.argmax(np.where(up, viol, -np.inf)))
        j = int(np.argmin(np.where(low, viol, np.inf)))
        if viol[i] - viol[j] <= tol:
            converged = True
            break
        bi, bj = base[i], base[j]
        quad = K[bi, bi] + K[bj, bj] - 2.0 * K[bi, bj]
        if quad <= 0.0:
            quad = _TAU
        t_step = (viol[i] - viol[j]) / quad
        # direction d = z_i e_i - z_j e_j keeps the equality constraint
        if z[i] > 0:
            t_step = min(t_step, c - a[i])
        else:
            t_step = min(t_step, a[i])
        if z[j] > 0:
            t_step = min(t_step, a[j])
        else:
            t_step = min(t_step, c - a[j])
        if t_step <= 0.0:
            # no feasible progress left in this pair; stop without claiming
            # the KKT gap closed
            break
        a[i] += z[i] * t_step
        a[j] -= z[j] * t_step
        col = np.concatenate([K[bi] - K[bj], K[bi] - K[bj]])
        G += t_step * z * col

    up = ((z > 0) & (a < c)) | ((z < 0) & (a > 0))
    low = ((z > 0) & (a > 0)) | ((z < 0) & (a < c))
    viol = -z * G
    free = (a > 0.0) & (a < c)
    if np.any(free):
        bias = float(np.mean(viol[free]))
    else:
        hi = np.max(viol[up]) if np.any(up) else 0.0
        lo = np.min(viol[low]) if np.any(low) else 0.0
        bias = float((hi + lo) / 2.0)

    beta = a[:n] - a[n:]
    sv = np.flatnonzero(np.abs(beta) > _TAU)
    if sv.size == 0:
        # keep one vector so prediction still has a kernel term to anchor it
        sv = np.array([int(np.argmax(np.abs(beta)))], dtype=np.int64)
    return SvrModel(
        support_vectors=V[sv].copy(),
        coefficients=beta[sv],
        bias=bias,
        gamma=float(gamma),
        c=float(c),
        epsilon=float(epsilon),
        converged=converged,
        support_indices=picked[sv],
    )


@functools.lru_cache(maxsize=None)
def slab_path(t: int) -> str:
    """Which product path predict_svr takes for t features.

    The self-test runs the slab loop itself on a random model of ROW_TILE + 1
    support vectors, so the carried sum crosses a slab edge: each query must
    get the same bits wherever it sits among the others.  It runs once for
    each width a last block can take below ROW_TILE (64, 128 and 192
    columns), each against the same full ROW_TILE-column tile.
    """
    rng = np.random.default_rng(0)
    model = SvrModel(
        support_vectors=rng.standard_normal((ROW_TILE + 1, t)),
        coefficients=rng.uniform(-1.0, 1.0, ROW_TILE + 1),
        bias=0.0,
        gamma=1.0 / t,
        c=1.0,
        epsilon=0.1,
    )
    queries = rng.standard_normal((ROW_TILE, t))

    def slabs(rows):
        return _predict_slabs(model, rows)

    # one padded tile for each width below ROW_TILE, a third of a step short
    widths = range(TAIL_STEP, ROW_TILE, TAIL_STEP)
    if all(_position_invariant(slabs, queries, w - TAIL_STEP // 3) for w in widths):
        return f"blas-coltile{ROW_TILE}"
    return "einsum"


def predict_svr(model: SvrModel, v: np.ndarray) -> np.ndarray:
    """Batch-composition-stable prediction for standardized rows v (m, t).

    BLAS computes -gamma * d2 itself: with left rows [2 gamma sv_i,
    -gamma |sv_i|^2, -gamma] and right columns [v_j; 1; |v_j|^2], the
    product is -gamma (|sv_i|^2 + |v_j|^2 - 2 sv_i . v_j).  Each block of
    ROW_TILE query rows fills one tile of ROW_TILE columns; the last block
    fills a tile of the next multiple of TAIL_STEP columns at or above its
    rows (at most ROW_TILE), its padded columns zero.  The tile runs through
    one (ROW_TILE + 1, width) buffer that stays in cache: for each slab of
    ROW_TILE support vectors (the last slab's rows zero-padded), one
    (ROW_TILE, t + 2) @ (t + 2, width) product fills rows 1 onwards; the
    support vectors' rows are clamped at 0 when any of them is above 0 or
    NaN (rounding can leave them slightly positive; a clamp that changes no
    value is skipped) and exponentiated; and row 0, which carries the
    coefficient sum, becomes row 0 plus those rows times their
    coefficients.  einsum("ij,i->j") adds the rows in order, so carrying
    the sum gives each column the bits of one einsum over all the support
    vectors' rows.  A query's bits depend only on its own column, whatever
    the tile's width, which slab_path checks for every width.  When the
    slab loop fails its self-test, prediction keeps the einsum blocks,
    whose rows do not depend on the block they are computed in.
    """
    if slab_path(model.support_vectors.shape[1]) == "einsum":
        return _predict_einsum_blocks(model, v)
    return _predict_slabs(model, v)


def _predict_slabs(model: SvrModel, v: np.ndarray) -> np.ndarray:
    """predict_svr through the slab loop, the path slab_path self-tests.

    Full blocks take ROW_TILE columns and the last block the fewest whole
    TAIL_STEP columns that hold it, so a small batch computes a narrow tile.
    """
    sv = model.support_vectors
    nsv, t = sv.shape
    gamma = model.gamma
    nslab = -(-nsv // ROW_TILE)
    left = np.zeros((nslab * ROW_TILE, t + 2))
    np.multiply(sv, 2.0 * gamma, out=left[:nsv, :t])
    left[:nsv, t] = -gamma * np.einsum("ij,ij->i", sv, sv)
    left[:nsv, t + 1] = -gamma
    # weights[s] multiplies buffer rows [carried sum, slab s]
    weights = np.ones((nslab, ROW_TILE + 1))
    weights[:, 1:] = np.pad(model.coefficients, (0, nslab * ROW_TILE - nsv)).reshape(nslab, -1)
    # a narrower block views the front of the same storage as a C-contiguous
    # (rows, width) array, so every product writes a whole array
    tile_store = np.empty((t + 2) * ROW_TILE)
    buf_store = np.empty((ROW_TILE + 1) * ROW_TILE)
    out = np.empty(v.shape[0])
    for start in range(0, v.shape[0], ROW_TILE):
        block = v[start : start + ROW_TILE]
        rows = block.shape[0]
        width = min(ROW_TILE, -(-rows // TAIL_STEP) * TAIL_STEP)
        tile = tile_store[: (t + 2) * width].reshape(t + 2, width)
        buf = buf_store[: (ROW_TILE + 1) * width].reshape(ROW_TILE + 1, width)
        tile[:t, :rows] = block.T
        tile[t, :rows] = 1.0
        tile[t + 1, :rows] = np.einsum("ij,ij->i", block, block)
        tile[:, rows:] = 0.0
        buf[0] = 0.0
        for s in range(nslab):
            stop = 1 + min(ROW_TILE, nsv - s * ROW_TILE)  # buffer rows in use
            np.matmul(left[s * ROW_TILE : (s + 1) * ROW_TILE], tile, out=buf[1:])
            slab = buf[1:stop]
            # skipped only when every value is at most 0; max is NaN if any value is
            if not slab.max() <= 0.0:
                np.minimum(slab, 0.0, out=slab)
            np.exp(slab, out=slab)
            buf[0] = np.einsum("ij,i->j", buf[:stop], weights[s, :stop])
        out[start : start + rows] = buf[0, :rows]
    return out + model.bias


def _predict_einsum_blocks(model: SvrModel, v: np.ndarray) -> np.ndarray:
    """predict_svr through einsum, ROW_TILE rows into two reused arrays."""
    sv = model.support_vectors
    out = np.empty(v.shape[0])
    k_work, cross_work = np.empty((2, min(v.shape[0], ROW_TILE), sv.shape[0]))
    for start in range(0, v.shape[0], ROW_TILE):
        block = v[start : start + ROW_TILE]
        rows = block.shape[0]
        k = stable_cross_sq_dists(block, sv, out=k_work[:rows], scratch=cross_work[:rows])
        k *= -model.gamma
        np.exp(k, out=k)
        out[start : start + ROW_TILE] = np.einsum("ij,j->i", k, model.coefficients)
    return out + model.bias
