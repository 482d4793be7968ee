"""Tests for the pairwise-dual support vector regressor."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from sparsescan.numerics import ROW_TILE
from sparsescan.regress.svr import (
    SvrModel,
    auto_gamma,
    dual_objective,
    fit_svr,
    predict_svr,
    rbf_kernel,
)


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

    def test_blocked_prediction_matches_whole_batch_formula(self):
        # predict_svr builds kernel rows ROW_TILE at a time; the bits must be
        # those of the whole-batch kernel
        V, R = toy_dataset(15)
        model = fit_svr(V, R)
        rng = np.random.default_rng(16)
        for m in (1, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 1000):
            q = rng.standard_normal((m, V.shape[1]))
            k = rbf_kernel(q, model.support_vectors, model.gamma)
            want = np.einsum("ij,j->i", k, model.coefficients) + model.bias
            assert np.array_equal(predict_svr(model, q), want)

    def test_auto_gamma_values(self):
        rng = np.random.default_rng(14)
        V = rng.standard_normal((500, 6))
        pooled = float(np.mean(np.var(V, axis=0)))
        assert auto_gamma(V) == pytest.approx(1.0 / (6 * pooled), rel=1e-15)
        assert auto_gamma(np.ones((10, 4))) == 0.25  # degenerate spread


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
