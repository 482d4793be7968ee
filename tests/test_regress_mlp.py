"""Neural regressor numerics: gradients, the optimizer step, convergence."""

import math

import numpy as np
import pytest

from sparsescan import numerics
from sparsescan.regress.mlp import (
    HIDDEN_LAYERS,
    HIDDEN_UNITS,
    MlpConfig,
    MlpModel,
    TrainingDivergedError,
    adam_update,
    fit_mlp,
    forward,
    init_params,
    loss_and_gradients,
)


def numeric_gradient(weights, biases, x, r, activation, wi, index, step=1e-5):
    """Central finite difference on one weight entry."""
    w_plus = [w.copy() for w in weights]
    w_minus = [w.copy() for w in weights]
    w_plus[wi][index] += step
    w_minus[wi][index] -= step
    lp = loss_and_gradients(w_plus, biases, x, r, activation)[0]
    lm = loss_and_gradients(w_minus, biases, x, r, activation)[0]
    return (lp - lm) / (2.0 * step)


def numeric_bias_gradient(weights, biases, x, r, activation, bi, index, step=1e-5):
    b_plus = [b.copy() for b in biases]
    b_minus = [b.copy() for b in biases]
    b_plus[bi][index] += step
    b_minus[bi][index] -= step
    lp = loss_and_gradients(weights, b_plus, x, r, activation)[0]
    lm = loss_and_gradients(weights, b_minus, x, r, activation)[0]
    return (lp - lm) / (2.0 * step)


def einsum_forward(weights, biases, x, activation):
    """Reference forward pass with every product through einsum."""
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        z = np.einsum("ij,jk->ik", h, w) + b
        h = np.maximum(z, 0.0) if activation == "relu" else z
    return (np.einsum("ij,jk->ik", h, weights[-1]) + biases[-1])[:, 0]


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        # 20 random configurations; entries near a relu kink are skipped for
        # the relu nets because the finite difference itself is invalid there
        rng = np.random.default_rng(0)
        failures = []
        for trial in range(20):
            activation = "relu" if trial % 2 == 0 else "identity"
            weights, biases = init_params(6, seed=trial)
            weights = [w * 0.5 for w in weights]
            x = rng.standard_normal((7, 6))
            r = rng.standard_normal(7)
            _, grad_w, grad_b = loss_and_gradients(weights, biases, x, r, activation)
            for wi in range(len(weights)):
                idx = (
                    int(rng.integers(weights[wi].shape[0])),
                    int(rng.integers(weights[wi].shape[1])),
                )
                num = numeric_gradient(weights, biases, x, r, activation, wi, idx)
                rel = relative_error(grad_w[wi][idx], num)
                if rel > 1e-4:
                    failures.append((trial, wi, idx, rel))
            bi = int(rng.integers(len(biases)))
            bidx = int(rng.integers(biases[bi].shape[0]))
            num = numeric_bias_gradient(weights, biases, x, r, activation, bi, bidx)
            rel = relative_error(grad_b[bi][bidx], num)
            if rel > 1e-4:
                failures.append((trial, "bias", bi, rel))
        assert failures == []

    def test_zero_residual_means_zero_gradient(self):
        # targets must come from the same batched-matmul arithmetic the
        # training pass uses internally; the inference path reduces in a
        # different order and lands a few ulps away
        weights, biases = init_params(6, seed=3)
        x = np.random.default_rng(1).standard_normal((5, 6))
        h = x
        for w, b in zip(weights[:-1], biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
        r = (h @ weights[-1] + biases[-1])[:, 0]
        loss, grad_w, grad_b = loss_and_gradients(weights, biases, x, r, "relu")
        assert loss == 0.0
        for g in grad_w + grad_b:
            assert np.all(g == 0.0)


class TestAdamStep:
    def test_hand_computed_first_step(self):
        # from zero state with gradient 1: m=0.1, v=0.001, mhat=1, vhat=1,
        # update = lr * 1 / (1 + eps), i.e. essentially the learning rate
        config = MlpConfig()
        updated, m_new, v_new = adam_update(0.0, 1.0, 0.0, 0.0, 1, config)
        assert m_new == pytest.approx(0.1, rel=1e-15)
        assert v_new == pytest.approx(0.001, rel=1e-15)
        expected = -(0.001 * 1.0 / (math.sqrt(1.0) + 1e-8))
        assert updated == expected
        assert abs(updated + 0.001) < 1e-8  # the documented w: 0 -> -lr * 1

    def test_exact_formula_reproduction(self):
        # arbitrary state, exactly re-derived step by step in plain python
        config = MlpConfig()
        value, grad, m, v, step = 0.7, -2.3, 0.15, 0.4, 9
        updated, m_new, v_new = adam_update(value, grad, m, v, step, config)
        # coefficients spelled (1.0 - beta): that is what the update computes,
        # and (1.0 - 0.9) is one ulp below the literal 0.1
        em = 0.9 * m + (1.0 - 0.9) * grad
        ev = 0.999 * v + (1.0 - 0.999) * grad * grad
        mh = em / (1.0 - 0.9**step)
        vh = ev / (1.0 - 0.999**step)
        assert m_new == em and v_new == ev
        assert updated == value - 0.001 * mh / (math.sqrt(vh) + 1e-8)

    def test_gradient_direction_is_descent(self):
        config = MlpConfig()
        up, _, _ = adam_update(1.0, 5.0, 0.0, 0.0, 1, config)
        assert up < 1.0
        down, _, _ = adam_update(1.0, -5.0, 0.0, 0.0, 1, config)
        assert down > 1.0


class TestForward:
    def test_identity_network_collapses_to_linear_map(self):
        # with identity activations the network is x @ (W0 W1 ... W5) + chain
        # of biases; compare against the explicitly collapsed affine map
        weights, biases = init_params(6, seed=5)
        x = np.random.default_rng(2).standard_normal((40, 6))
        out = forward(weights, biases, x, "identity")
        A = np.eye(6)
        c = np.zeros(6)
        for w, b in zip(weights, biases):
            A = A @ w
            c = c @ w + b
        collapsed = x @ A + c
        np.testing.assert_allclose(out, collapsed[:, 0], rtol=1e-8, atol=1e-8)

    def test_rows_are_batch_independent(self):
        weights, biases = init_params(6, seed=6)
        x = np.random.default_rng(3).standard_normal((30, 6))
        full = forward(weights, biases, x, "relu")
        for i in (0, 11, 29):
            single = forward(weights, biases, x[i : i + 1], "relu")
            assert full[i] == single[0]

    @pytest.mark.parametrize("m", [1, 255, 256, 257, 1000])
    def test_rows_are_position_independent_across_tile_edges(self, m):
        weights, biases = init_params(6, seed=7)
        rng = np.random.default_rng(m)
        x = rng.standard_normal((m, 6))
        full = forward(weights, biases, x, "relu")
        perm = rng.permutation(m)
        assert np.array_equal(forward(weights, biases, x[perm], "relu"), full[perm])
        for i in {0, min(255, m - 1), min(256, m - 1), m - 1}:
            assert forward(weights, biases, x[i : i + 1], "relu")[0] == full[i]

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_agrees_with_einsum_reference(self, activation):
        weights, biases = init_params(6, seed=8)
        x = np.random.default_rng(4).standard_normal((1000, 6))
        np.testing.assert_allclose(
            forward(weights, biases, x, activation),
            einsum_forward(weights, biases, x, activation),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_failed_self_test_falls_back_to_einsum(self, monkeypatch):
        # a product whose rows depend on their batch position must fail the
        # self-test; forward then runs einsum and stays batch-independent
        def position_dependent(a, b):
            return a @ b + np.arange(a.shape[0])[:, None] * 1e-9

        numerics._tiles_row_invariant.cache_clear()
        monkeypatch.setattr(numerics, "_blas_tiles", position_dependent)
        try:
            weights, biases = init_params(6, seed=9)
            x = np.random.default_rng(5).standard_normal((300, 6))
            full = forward(weights, biases, x, "relu")
            assert np.array_equal(full, einsum_forward(weights, biases, x, "relu"))
            for i in (0, 150, 299):
                assert forward(weights, biases, x[i : i + 1], "relu")[0] == full[i]
        finally:
            numerics._tiles_row_invariant.cache_clear()

    def test_architecture_shapes(self):
        weights, biases = init_params(6, seed=0)
        assert weights[0].shape == (6, HIDDEN_UNITS)
        assert all(w.shape == (HIDDEN_UNITS, HIDDEN_UNITS) for w in weights[1:-1])
        assert weights[-1].shape == (HIDDEN_UNITS, 1)
        assert len(weights) == HIDDEN_LAYERS + 1
        model = MlpModel(weights=tuple(weights), biases=tuple(biases), activation="relu")
        assert model.activation == "relu"


class TestFitMlp:
    def test_learns_a_linear_target(self):
        # realizable target: loss must fall by orders of magnitude quickly
        rng = np.random.default_rng(4)
        V = rng.standard_normal((256, 6))
        theta = np.array([3.0, -2.0, 1.0, 0.5, -1.5, 2.5])
        R = V @ theta
        config = MlpConfig(epochs=200, seed=1)
        model, final_loss = fit_mlp(V, R, config)
        initial_loss = 0.5 * float(R @ R)  # zero-ish untrained predictions
        assert final_loss < 1e-4 * initial_loss

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        V = rng.standard_normal((100, 6))
        R = rng.standard_normal(100)
        m1, l1 = fit_mlp(V, R, MlpConfig(epochs=10, seed=7))
        m2, l2 = fit_mlp(V, R, MlpConfig(epochs=10, seed=7))
        assert l1 == l2
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)

    def test_seed_changes_outcome(self):
        rng = np.random.default_rng(6)
        V = rng.standard_normal((100, 6))
        R = rng.standard_normal(100)
        m1, _ = fit_mlp(V, R, MlpConfig(epochs=5, seed=1))
        m2, _ = fit_mlp(V, R, MlpConfig(epochs=5, seed=2))
        assert not np.array_equal(m1.weights[0], m2.weights[0])

    def test_divergence_raises_with_context(self):
        # targets this large overflow the squared-residual sum on the very
        # first batch, so the failure context is fully deterministic
        rng = np.random.default_rng(7)
        V = rng.standard_normal((64, 6))
        R = np.full(64, 1e200)
        with pytest.raises(TrainingDivergedError) as err:
            with np.errstate(over="ignore"):
                fit_mlp(V, R, MlpConfig(epochs=3, seed=0))
        assert err.value.epoch == 0
        assert err.value.batch == 0
        assert not np.isfinite(err.value.loss)
        assert "epoch 0" in str(err.value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MlpConfig(epochs=0)
        with pytest.raises(ValueError):
            MlpConfig(activation="tanh")
