"""Epsilon-insensitive support vector regressor with an RBF kernel.

The dual is solved by sequential pairwise optimization over the doubled
variable vector a = [alpha; alpha*], picking the maximal violating pair
until the KKT gap drops below tol.  Prediction is
sum_i coeff_i * exp(-gamma * ||v - sv_i||^2) + b.
"""

from dataclasses import dataclass

import numpy as np

from ..numerics import ROW_TILE, stable_cross_sq_dists

_TAU = 1e-12


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


def predict_svr(model: SvrModel, v: np.ndarray) -> np.ndarray:
    """Batch-composition-stable prediction for standardized rows v (m, t).

    Kernel rows are built ROW_TILE rows at a time, so memory stays at two
    (ROW_TILE, support vectors) arrays; einsum rows do not depend on the
    block they are computed in.  Every block reuses the same two arrays:
    fresh ones per block make the allocator hand their pages back and fault
    them in again, which cost more than the arithmetic.
    """
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
