"""Tests for the pairwise-dual support vector regressor."""

import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from sparsescan import load_model
from sparsescan.numerics import ROW_TILE, stable_cross_sq_dists
from sparsescan.regress import f6_rise_bound, predict_batch
from sparsescan.regress import svr
from sparsescan.regress.svr import (
    SvrModel,
    auto_gamma,
    dual_objective,
    fit_svr,
    predict_svr,
    rbf_kernel,
    slab_path,
)


# batch sizes at and just past each width a call's last column tile can take
TAIL_WIDTHS = [64, 65, 128, 129, 192, 193, ROW_TILE + 64, ROW_TILE + 65]


def qp_dual_optimum(K, targets, c, epsilon):
    """Dense QP oracle for the SVR dual, solved over doubled variables.

    Minimizes 0.5 b'Kb + eps*sum(a) - y'b with b = a[:n] - a[n:] subject to
    0 <= a <= C and sum(b) = 0, i.e. the same problem the pairwise solver
    works on, handed to an unrelated constrained-QP method.
    """
    n = len(targets)

    def neg_dual(aa):
        beta = aa[:n] - aa[n:]
        return 0.5 * beta @ K @ beta + epsilon * aa.sum() - targets @ beta

    def neg_dual_grad(aa):
        beta = aa[:n] - aa[n:]
        kb = K @ beta
        return np.concatenate([kb + epsilon - targets, -kb + epsilon + targets])

    cons = [
        {
            "type": "eq",
            "fun": lambda aa: aa[:n].sum() - aa[n:].sum(),
            "jac": lambda aa: np.concatenate([np.ones(n), -np.ones(n)]),
        }
    ]
    res = minimize(
        neg_dual,
        np.zeros(2 * n),
        jac=neg_dual_grad,
        method="SLSQP",
        bounds=[(0.0, c)] * (2 * n),
        constraints=cons,
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    assert res.success, res.message
    return -float(res.fun)


def toy_dataset(seed, n=30):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, 6))
    R = np.sin(V[:, 0]) + 0.5 * V[:, 1] ** 2 + 0.1 * rng.standard_normal(n)
    return V, R


def random_svr(nsv, seed, t=6):
    """An SvrModel with nsv random support vectors; prediction needs no fit."""
    rng = np.random.default_rng(seed)
    return SvrModel(
        support_vectors=rng.standard_normal((nsv, t)),
        coefficients=rng.uniform(-1.0, 1.0, nsv),
        bias=0.25,
        gamma=1.0 / t,
        c=1.0,
        epsilon=0.1,
    )


def whole_batch_formula(model, q):
    """The einsum kernel of rbf_kernel over the whole batch, then the weighted sum."""
    k = rbf_kernel(q, model.support_vectors, model.gamma)
    return np.einsum("ij,j->i", k, model.coefficients) + model.bias


def kernel_exponents(model, block):
    """-gamma * d2 of up to ROW_TILE query rows, as one 256-wide column tile.

    Returns the (slabs * ROW_TILE, ROW_TILE) products of every slab against
    the block's tile: a row per support vector, the last slab's rows and the
    tile's columns past the block zero-padded.
    """
    sv = model.support_vectors
    nsv, t = sv.shape
    gamma = model.gamma
    padded = -(-nsv // ROW_TILE) * ROW_TILE
    left = np.zeros((padded, t + 2))
    left[:nsv, :t] = sv * (2.0 * gamma)
    left[:nsv, t] = -gamma * np.einsum("ij,ij->i", sv, sv)
    left[:nsv, t + 1] = -gamma
    rows = block.shape[0]
    tile = np.zeros((t + 2, ROW_TILE))
    tile[:t, :rows] = block.T
    tile[t, :rows] = 1.0
    tile[t + 1, :rows] = np.einsum("ij,ij->i", block, block)
    k = np.empty((padded, ROW_TILE))
    for s in range(0, padded, ROW_TILE):
        np.matmul(left[s : s + ROW_TILE], tile, out=k[s : s + ROW_TILE])
    return k


def one_kernel_block_formula(model, q):
    """The slab arithmetic with the whole kernel of a query block kept at once.

    Each block of up to ROW_TILE query rows gets every slab's product in one
    (slabs * ROW_TILE, ROW_TILE) array, always 256 columns wide, clamped and
    exponentiated whole, and then one einsum over the support vectors' rows.
    """
    nsv = model.support_vectors.shape[0]
    out = np.empty(q.shape[0])
    for start in range(0, q.shape[0], ROW_TILE):
        block = q[start : start + ROW_TILE]
        rows = block.shape[0]
        k = kernel_exponents(model, block)
        np.exp(np.minimum(k, 0.0), out=k)
        out[start : start + rows] = np.einsum("ij,i->j", k[:nsv], model.coefficients)[:rows]
    return out + model.bias


def extended_precision_formula(model, q):
    """whole_batch_formula evaluated in np.longdouble, 100 query rows at a time.

    Where longdouble is the x87 80-bit format, its 64-bit significand puts
    the rounding of this evaluation some 2,000 times below float64's.
    """
    sv = model.support_vectors.astype(np.longdouble)
    gamma = np.longdouble(model.gamma)
    coefficients = model.coefficients.astype(np.longdouble)
    out = np.empty(q.shape[0], dtype=np.longdouble)
    for start in range(0, q.shape[0], 100):
        block = q[start : start + 100].astype(np.longdouble)
        k = np.exp(-gamma * stable_cross_sq_dists(block, sv))
        out[start : start + 100] = np.einsum("ij,j->i", k, coefficients)
    return out + np.longdouble(model.bias)


@pytest.fixture
def fresh_column_self_test():
    """Forget memoised slab-loop self-test results before and after the test."""
    slab_path.cache_clear()
    yield
    slab_path.cache_clear()


def full_beta(model, n):
    beta = np.zeros(n)
    beta[model.support_indices] = model.coefficients
    return beta


class TestDualOracle:
    def test_matches_dense_qp_on_random_datasets(self):
        worst = 0.0
        for seed in range(20):
            V, R = toy_dataset(100 + seed)
            gamma = auto_gamma(V)
            K = rbf_kernel(V, V, gamma)
            model = fit_svr(V, R, gamma=gamma)
            assert model.converged
            assert np.all(np.abs(model.coefficients) <= 1.0 + 1e-12)
            achieved = dual_objective(K, R, model.epsilon, full_beta(model, 30))
            worst = max(worst, abs(qp_dual_optimum(K, R, 1.0, 0.1) - achieved))
        assert worst <= 1e-3

    def test_equality_constraint_is_preserved(self):
        # pairwise steps move matched amounts, so sum(beta) stays at 0
        for seed in (0, 1, 2):
            V, R = toy_dataset(300 + seed, n=40)
            model = fit_svr(V, R)
            assert abs(float(np.sum(model.coefficients))) < 1e-9

    def test_nonbound_residuals_sit_near_the_tube(self):
        # KKT at gap tol: rows with |coeff| strictly inside the box cannot
        # stray past epsilon by more than the stopping tolerance
        V, R = toy_dataset(200, n=40)
        model = fit_svr(V, R)
        beta = full_beta(model, 40)
        resid = np.abs(predict_svr(model, V) - R)
        nonbound = np.abs(beta) < model.c - 1e-9
        assert np.max(resid[nonbound]) <= model.epsilon + 1e-3

    def test_dual_objective_hand_case(self):
        # 2x2 identity kernel, beta = (0.5, -0.5):
        # -0.5*(0.25+0.25) - eps*1.0 + (y0 - y1)*0.5
        K = np.eye(2)
        value = dual_objective(K, np.array([2.0, 1.0]), 0.1, np.array([0.5, -0.5]))
        assert value == pytest.approx(-0.25 - 0.1 + 0.5, rel=1e-15)


class TestTube:
    def test_constant_targets_collapse_to_bias(self):
        # flat targets fit inside the tube with zero coefficients; the
        # bound-set midpoint puts the bias exactly at the constant
        rng = np.random.default_rng(5)
        V = rng.standard_normal((25, 6))
        R = np.full(25, 42.5)
        model = fit_svr(V, R)
        assert model.converged
        assert np.all(model.coefficients == 0.0)
        assert model.bias == 42.5
        np.testing.assert_array_equal(predict_svr(model, V), np.full(25, 42.5))

    def test_targets_inside_tube_need_no_coefficients(self):
        # spread capped at 0.08 < 2*epsilon, so one constant covers everything
        rng = np.random.default_rng(6)
        V = rng.standard_normal((25, 6))
        R = 7.0 + 0.04 * rng.uniform(-1.0, 1.0, size=25)
        model = fit_svr(V, R)
        assert np.all(model.coefficients == 0.0)
        assert model.bias == pytest.approx((R.max() + R.min()) / 2.0, rel=1e-12)
        assert np.max(np.abs(predict_svr(model, V) - R)) <= 0.1


class TestBoxAndSupport:
    def test_box_respected_for_larger_c(self):
        V, R = toy_dataset(7)
        model = fit_svr(V, 5.0 * R, c=2.5)
        assert np.all(np.abs(model.coefficients) <= 2.5 + 1e-12)
        assert np.any(np.abs(model.coefficients) > 1.0)  # box actually used

    def test_support_rows_map_back_to_inputs(self):
        V, R = toy_dataset(8)
        model = fit_svr(V, R)
        idx = model.support_indices
        assert idx.dtype == np.int64
        assert np.all((idx >= 0) & (idx < 30))
        assert np.all(np.diff(idx) > 0)
        np.testing.assert_array_equal(model.support_vectors, V[idx])

    def test_subsample_keeps_original_row_indices(self):
        rng = np.random.default_rng(9)
        V = rng.standard_normal((120, 6))
        R = np.tanh(V[:, 2]) + 0.05 * rng.standard_normal(120)
        model = fit_svr(V, R, subsample_cap=40, seed=3)
        assert model.support_indices.size <= 40
        np.testing.assert_array_equal(model.support_vectors, V[model.support_indices])

    def test_max_iter_exhaustion_reports_not_converged(self):
        V, R = toy_dataset(10)
        model = fit_svr(V, R, max_iter=3)
        assert not model.converged
        assert np.all(np.abs(model.coefficients) <= 1.0 + 1e-12)


class TestDeterminism:
    def test_repeat_fits_are_bit_identical(self):
        V, R = toy_dataset(11, n=50)
        a = fit_svr(V, R)
        b = fit_svr(V, R)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        np.testing.assert_array_equal(a.support_indices, b.support_indices)
        assert a.bias == b.bias and a.gamma == b.gamma

    def test_subsample_seed_controls_row_choice(self):
        rng = np.random.default_rng(12)
        V = rng.standard_normal((100, 6))
        R = V[:, 0] ** 2 + 0.1 * rng.standard_normal(100)
        a = fit_svr(V, R, subsample_cap=30, seed=0)
        b = fit_svr(V, R, subsample_cap=30, seed=0)
        c = fit_svr(V, R, subsample_cap=30, seed=1)
        np.testing.assert_array_equal(a.support_indices, b.support_indices)
        assert not np.array_equal(a.support_indices, c.support_indices)


class TestPrediction:
    def test_single_support_vector_formula(self):
        sv = np.array([[1.0, 2.0, 0.0, 0.0, 0.0, 0.0]])
        model = SvrModel(
            support_vectors=sv,
            coefficients=np.array([0.75]),
            bias=0.25,
            gamma=0.5,
            c=1.0,
            epsilon=0.1,
        )
        query = np.array([[2.0, 0.0, 0.0, 0.0, 0.0, 0.0]])  # squared dist 5
        want = 0.75 * math.exp(-0.5 * 5.0) + 0.25
        assert predict_svr(model, query)[0] == pytest.approx(want, rel=1e-15)
        at_sv = predict_svr(model, sv)[0]
        assert at_sv == pytest.approx(1.0, rel=1e-15)  # exp(0) term

    def test_rows_predict_independently(self):
        V, R = toy_dataset(13)
        model = fit_svr(V, R)
        batch = predict_svr(model, V)
        for i in (0, 14, 29):
            assert predict_svr(model, V[i : i + 1])[0] == batch[i]

    @pytest.mark.parametrize("nsv", [23, 1927])
    def test_support_vector_shapes_take_the_column_tiles(self, nsv):
        # fails on a BLAS build whose slab product is not position invariant:
        # prediction there is correct but runs the slower einsum blocks
        model = random_svr(nsv, seed=nsv)
        assert slab_path(model.support_vectors.shape[1]) == f"blas-coltile{ROW_TILE}"

    @pytest.mark.parametrize("m", [1, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 1000, *TAIL_WIDTHS])
    @pytest.mark.parametrize("nsv", [1, 23, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 1927])
    def test_rows_independent_of_batch_across_tile_edges(self, m, nsv):
        model = random_svr(nsv, seed=nsv)
        rng = np.random.default_rng(m)
        q = rng.standard_normal((m, 6))
        full = predict_svr(model, q)
        perm = rng.permutation(m)
        assert np.array_equal(predict_svr(model, q[perm]), full[perm])
        for i in {0, min(ROW_TILE - 1, m - 1), min(ROW_TILE, m - 1), m - 1}:
            assert predict_svr(model, q[i : i + 1])[0] == full[i]

    @pytest.mark.parametrize(
        "m", [1, 3, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 718, 4097, *TAIL_WIDTHS]
    )
    @pytest.mark.parametrize("nsv", [1, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 600])
    def test_slab_sums_equal_one_kernel_block(self, m, nsv):
        # carrying the coefficient sum from slab to slab must give each query
        # the bits of one einsum over the whole kernel block
        model = random_svr(nsv, seed=nsv + 2)
        q = np.random.default_rng(m).standard_normal((m, 6))
        assert predict_svr(model, q).tobytes() == one_kernel_block_formula(model, q).tobytes()

    def test_einsum_adds_a_carried_row_in_order(self):
        # predict_svr's bits rest on einsum("ij,i->j") adding the rows one
        # after another: then a sum carried as the first row of the next
        # chunk, with weight 1, continues the one sum over all the rows
        rng = np.random.default_rng(19)
        k = rng.standard_normal((1927, ROW_TILE)) * 10.0 ** rng.integers(-8, 9, (1927, ROW_TILE))
        coefficients = rng.uniform(-1.0, 1.0, 1927)
        carried = np.zeros(ROW_TILE)
        for s in range(0, 1927, ROW_TILE):
            rows = np.vstack([carried, k[s : s + ROW_TILE]])
            weights = np.concatenate([[1.0], coefficients[s : s + ROW_TILE]])
            carried = np.einsum("ij,i->j", rows, weights)
        assert carried.tobytes() == np.einsum("ij,i->j", k, coefficients).tobytes()

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="np.longdouble is no wider than float64 here",
    )
    @pytest.mark.parametrize("nsv", [23, 1927])
    def test_agrees_with_einsum_reference(self, nsv):
        # the reference is the einsum formula in extended precision: in
        # float64 that formula is itself off by up to 1.2e-12 relative on
        # these rows at nsv=23, more than the slab path
        model = random_svr(nsv, seed=nsv + 1)
        q = np.random.default_rng(16).standard_normal((1000, 6))
        want = extended_precision_formula(model, q)
        got = predict_svr(model, q).astype(np.longdouble)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_query_at_a_support_vector_has_kernel_at_most_one(self):
        # with one coefficient 1, the others 0 and no bias, a prediction is
        # one kernel value; at its own support vector d2 is 0, and rounding
        # leaves -gamma * d2 above 0 for about half of these vectors
        rng = np.random.default_rng(18)
        sv = 10.0 * rng.standard_normal((1927, 6))
        for i in sorted({*range(0, 1927, 7), ROW_TILE - 1, ROW_TILE, 1926}):
            coefficients = np.zeros(1927)
            coefficients[i] = 1.0
            model = SvrModel(sv, coefficients, bias=0.0, gamma=1.0 / 6.0, c=1.0, epsilon=0.1)
            k = predict_svr(model, sv[i : i + 1])[0]
            assert 1.0 - 1e-12 <= k <= 1.0

    @pytest.mark.parametrize("nan_query", [False, True])
    def test_one_call_mixes_clamped_and_unclamped_slabs(self, nan_query):
        # a query at its own support vector can round -gamma * d2 above 0, so
        # that vector's slab needs the clamp; the far queries beside it leave
        # every other slab at or below 0, and those skip it.  A NaN query
        # makes every slab's max NaN, and each must then still be clamped
        rng = np.random.default_rng(20)
        sv = 10.0 * rng.standard_normal((1927, 6))
        model = SvrModel(sv, rng.uniform(-1.0, 1.0, 1927), 0.5, 1.0 / 6.0, 1.0, 0.1)
        far = 1000.0 + rng.standard_normal((40, 6))
        if nan_query:
            far[7, 2] = np.nan
        for i in range(1927):
            q = np.vstack([sv[i], far])
            k = kernel_exponents(model, q)
            if k[i, 0] > 0.0:
                break
        else:
            pytest.fail("no support vector rounds its own exponent above 0")
        slabs = k.reshape(-1, ROW_TILE, ROW_TILE)
        assert np.flatnonzero(np.any(slabs > 0.0, axis=(1, 2))).tolist() == [i // ROW_TILE]
        got = predict_svr(model, q)
        assert got.tobytes() == one_kernel_block_formula(model, q).tobytes()
        assert np.isnan(got[8]) == nan_query

    def test_failed_self_test_keeps_whole_batch_formula_bits(
        self, fresh_column_self_test, monkeypatch
    ):
        # a slab loop whose queries depend on their tile position must fail
        # the self-test; prediction then builds einsum kernel rows ROW_TILE at
        # a time, and the bits must be those of the whole-batch kernel
        def position_dependent(model, v):
            return whole_batch_formula(model, v) + np.arange(v.shape[0]) * 1e-9

        monkeypatch.setattr(svr, "_predict_slabs", position_dependent)
        V, R = toy_dataset(15)
        model = fit_svr(V, R)
        assert slab_path(V.shape[1]) == "einsum"
        rng = np.random.default_rng(16)
        for m in (1, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 1000):
            q = rng.standard_normal((m, V.shape[1]))
            assert np.array_equal(predict_svr(model, q), whole_batch_formula(model, q))

    def test_self_test_runs_once_per_shape(self, fresh_column_self_test):
        # the slab shape depends on the feature count alone
        rng = np.random.default_rng(17)
        for nsv, t in ((23, 6), (40, 6), (300, 6), (23, 4)):
            model = random_svr(nsv, seed=nsv, t=t)
            for m in (3, 300, 700):
                predict_svr(model, rng.standard_normal((m, t)))
        info = slab_path.cache_info()
        assert (info.misses, info.hits) == (2, 10)

    def test_slab_operands_are_built_once_and_keep_no_model_alive(self):
        rng = np.random.default_rng(3)

        def model(seed):
            rng = np.random.default_rng(seed)
            sv = rng.standard_normal((300, 6))
            return SvrModel(sv, rng.uniform(-1, 1, 300), 0.0, 0.2, 1.0, 0.1)

        first = model(1)
        queries = rng.standard_normal((5, 6))
        before = predict_svr(first, queries)
        left, weights = svr._slab_operands(first)
        assert left.shape == (2 * ROW_TILE, 8) and weights.shape == (2, ROW_TILE + 1)
        predict_svr(first, queries)
        assert svr._slab_operands(first)[0] is left  # kept, not rebuilt
        alive = weakref.ref(first)
        del first
        gc.collect()
        assert alive() is None
        # a later model, perhaps at the freed one's address, gets its own
        second = model(2)
        np.testing.assert_array_equal(
            svr._slab_operands(second)[0][:300, :6], second.support_vectors * 0.4
        )
        assert predict_svr(model(1), queries).tobytes() == before.tobytes()

    def test_auto_gamma_values(self):
        rng = np.random.default_rng(14)
        V = rng.standard_normal((500, 6))
        pooled = float(np.mean(np.var(V, axis=0)))
        assert auto_gamma(V) == pytest.approx(1.0 / (6 * pooled), rel=1e-15)
        assert auto_gamma(np.ones((10, 4))) == 0.25  # degenerate spread


def worst_offset_rows(model, j, step, rng, count=40):
    """Rows on support vectors but for input j, which sits where a kernel
    term's slope along j peaks, |u| = 1 / sqrt(2 gamma), with the step
    straddling the peak on either side; then random rows around them."""
    sv = model.support_vectors
    u = 1.0 / math.sqrt(2.0 * model.gamma)
    base = sv[rng.integers(0, sv.shape[0], count)]
    rows = []
    for offset in (u, -u):
        row = base.copy()
        row[:, j] += offset - step / 2.0
        rows.append(row)
    rows.append(base + rng.normal(0.0, u, base.shape))
    return np.concatenate(rows)


class TestRiseBound:
    """rise_bound caps what raising one standardized input by step can add to
    a computed prediction.  The greedy loop lets a pixel whose only changed
    input is f6 wait behind it, so a bound too small would let it pick the
    wrong pixel."""

    @staticmethod
    def model(kind, gamma, rng):
        c = 10.0 ** rng.uniform(-1.0, 2.0)
        sv = rng.normal(0.0, 2.0 / math.sqrt(gamma), (300, 6))
        if kind == "one":
            sv, coef = sv[:1], np.array([c])
        elif kind == "stacked":  # equal vectors and coefficients: L is reached
            sv, coef = np.repeat(sv[:1], 7, axis=0), np.full(7, -c)
        else:
            coef = rng.uniform(-c, c, sv.shape[0])
        return SvrModel(sv, coef, bias=rng.normal(0.0, 30.0), gamma=gamma, c=c, epsilon=0.1)

    @pytest.mark.parametrize("fraction", (0.005, 0.5))
    @pytest.mark.parametrize("kind", ("one", "stacked", "random"))
    @pytest.mark.parametrize("gamma", (1e-4, 0.02, 1.0 / 6.0, 3.0, 100.0))
    def test_raising_one_input_by_step_stays_within_the_bound(self, gamma, kind, fraction):
        rng = np.random.default_rng([int(gamma * 1e4), len(kind), int(fraction * 1e3)])
        model = self.model(kind, gamma, rng)
        step = fraction / math.sqrt(2.0 * gamma)  # a fraction of the peak offset
        bound = svr.rise_bound(model, step)
        for j in (0, 5):
            rows = worst_offset_rows(model, j, step, rng)
            raised = rows.copy()
            raised[:, j] += step
            rise = np.abs(predict_svr(model, raised) - predict_svr(model, rows))
            assert rise.max() <= bound, (j, rise.max() / bound)
            if kind != "random" and fraction < 0.1:
                # the rows at the peak come within 0.1% of the bound, so a
                # bound a quarter of the size fails here
                assert rise.max() >= 0.999 * bound

    @pytest.mark.parametrize("window", [15, 7, 3])
    def test_one_more_measured_pixel_stays_within_f6_rise_bound(self, window):
        # the benchmark's model (trained at window 15), through
        # predict_batch's standardization: rows at the peak offset in f6 from
        # its support vectors, raised by one measured pixel of the window the
        # features count in, 1/(2w+1)^2 in raw f6
        path = Path(__file__).resolve().parents[1] / "perfbench" / "models"
        model = load_model(path / "svr.slnm")
        area = (2 * window + 1) ** 2
        stats = model.stats
        step = 1.0 / (area * stats.stds[5])
        rows = worst_offset_rows(model.payload, 5, step, np.random.default_rng(5), count=200)
        raw = rows * stats.stds + stats.means
        raised = raw.copy()
        raised[:, 5] += 1.0 / area
        rise = np.abs(predict_batch(model, raised) - predict_batch(model, raw))
        bound = f6_rise_bound(model, window)
        # sum |c_i| sqrt(2 gamma / e) = 668.5, sigma6 0.1296
        assert bound == pytest.approx(668.5 / (area * 0.1296), rel=1e-3)
        assert rise.max() <= bound
        assert rise.max() > 0.0
        for kind in ("lsq", "nn"):
            assert f6_rise_bound(load_model(path / f"{kind}.slnm"), window) is None


class TestValidation:
    def test_rejects_oversized_coefficients(self):
        with pytest.raises(ValueError):
            SvrModel(
                support_vectors=np.ones((1, 6)),
                coefficients=np.array([1.5]),
                bias=0.0,
                gamma=0.1,
                c=1.0,
                epsilon=0.1,
            )

    def test_rejects_shape_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            SvrModel(
                support_vectors=np.ones((2, 6)),
                coefficients=np.array([0.1]),
                bias=0.0,
                gamma=0.1,
                c=1.0,
                epsilon=0.1,
            )
        with pytest.raises(ValueError):
            fit_svr(np.empty((0, 6)), np.empty(0))

    def test_rejects_bad_target_shape(self):
        with pytest.raises(ValueError):
            fit_svr(np.ones((5, 6)), np.ones(4))
