"""Neural regressor numerics: gradients, the optimizer step, convergence."""

import math
from pathlib import Path

import numpy as np
import pytest

from sparsescan import numerics
from sparsescan.regress import load_model, mlp
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


def reference_loss_and_gradients(weights, biases, x, r, activation):
    """The textbook pass with a fresh array for every intermediate."""
    pre = []
    post = [x]
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if activation == "relu" else z
        post.append(h)
    pred = (h @ weights[-1] + biases[-1])[:, 0]
    resid = pred - r
    loss = 0.5 * float(resid @ resid)

    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    delta = resid[:, None]
    grads_w[-1] = post[-1].T @ delta
    grads_b[-1] = delta.sum(axis=0)
    back = delta @ weights[-1].T
    for layer in range(len(weights) - 2, -1, -1):
        if activation == "relu":
            back = back * (pre[layer] > 0.0)
        grads_w[layer] = post[layer].T @ back
        grads_b[layer] = back.sum(axis=0)
        if layer > 0:
            back = back @ weights[layer].T
    return loss, grads_w, grads_b


def reference_adam_update(value, grad, m, v, step, config):
    m_new = config.beta1 * m + (1.0 - config.beta1) * grad
    v_new = config.beta2 * v + (1.0 - config.beta2) * grad * grad
    m_hat = m_new / (1.0 - config.beta1**step)
    v_hat = v_new / (1.0 - config.beta2**step)
    updated = value - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return updated, m_new, v_new


def reference_fit_mlp(V, R, config):
    """The per-array training loop: one allocating Adam update per weight and bias array."""
    n = V.shape[0]
    weights, biases = init_params(V.shape[1], config.seed)
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    rng = np.random.default_rng(config.seed + 1)
    step = 0
    epoch_loss = 0.0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for bi, start in enumerate(range(0, n, config.batch_size)):
            sel = order[start : start + config.batch_size]
            loss, gw, gb = reference_loss_and_gradients(
                weights, biases, V[sel], R[sel], config.activation
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, bi, loss)
            epoch_loss += loss
            step += 1
            for i in range(len(weights)):
                weights[i], m_w[i], v_w[i] = reference_adam_update(
                    weights[i], gw[i], m_w[i], v_w[i], step, config
                )
                biases[i], m_b[i], v_b[i] = reference_adam_update(
                    biases[i], gb[i], m_b[i], v_b[i], step, config
                )
    return weights, biases, epoch_loss


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


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


    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_bits_equal_the_allocating_pass(self, activation, m):
        rng = np.random.default_rng(m)
        weights, biases = init_params(6, seed=m)
        biases = [rng.standard_normal(b.shape) * 0.1 for b in biases]
        x = rng.standard_normal((m, 6))
        r = rng.standard_normal(m)
        loss, grad_w, grad_b = loss_and_gradients(weights, biases, x, r, activation)
        ref_loss, ref_w, ref_b = reference_loss_and_gradients(weights, biases, x, r, activation)
        assert_same_bits(loss, ref_loss)
        for got, want in zip(grad_w + grad_b, ref_w + ref_b):
            assert_same_bits(got, want)


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

    def test_array_bits_equal_the_allocating_formula(self):
        # from step 356 on, 1 - beta1**step is 1.0 and the update skips the
        # divide by it; subnormal first moments are where that divide is slow
        rng = np.random.default_rng(8)
        config = MlpConfig()
        value, grad = rng.standard_normal(500), rng.standard_normal(500)
        m, v = rng.standard_normal(500) * 0.1, rng.uniform(0.0, 0.1, 500)
        grad[:100] *= 1e-310
        m[:100] *= 1e-310
        state = (value.copy(), grad.copy(), m.copy(), v.copy())
        for step in (17, 300, 400):
            got = adam_update(value, grad, m, v, step, config)
            want = reference_adam_update(value, grad, m, v, step, config)
            for a, b in zip(got, want):
                assert_same_bits(a, b)
        for before, after in zip(state, (value, grad, m, v)):
            assert_same_bits(before, after)  # the inputs are left as they were

    def test_gradient_direction_is_descent(self):
        config = MlpConfig()
        up, _, _ = adam_update(1.0, 5.0, 0.0, 0.0, 1, config)
        assert up < 1.0
        down, _, _ = adam_update(1.0, -5.0, 0.0, 0.0, 1, config)
        assert down > 1.0


ULP = np.float64(5e-324)  # the smallest subnormal, 2**-1074


class TestHeldMoments:
    """fit_mlp's held first moments against reference_adam_update, step by step."""

    @staticmethod
    def state():
        # (value, m, v, gradient) per element; run() varies the gradients of
        # elements 7, 8 and 10 from step to step
        rows = [
            (0.5, 5 * ULP, 0.01, 0.0),  # a fixed point: held
            (-0.25, -5 * ULP, 0.02, -0.0),  # held
            (0.5, 6 * ULP, 0.01, 0.0),  # 6 ulps decay to 5, then held
            (0.5, -6 * ULP, 0.0, -0.0),
            (0.0, -5 * ULP, 0.01, 0.0),  # a zero weight is never held
            (-0.0, -5 * ULP, 0.01, 0.0),  # if held, it would stay -0.0, not turn +0.0
            (-0.0, 5 * ULP, 0.01, -0.0),
            (0.5, 5 * ULP, 0.01, 0.0),  # released when its gradient turns nonzero
            (1.0, 1e-3, 1e-4, 2e-3),  # an ordinary weight
            (0.3, ULP, 0.0, 0.0),
            (1e-300, 3 * ULP, 0.0, -0.0),  # any nonzero update would show
            (1e-300, 49 * ULP, 0.0, 0.0),
        ]
        return tuple(np.array(col) for col in zip(*rows))

    @staticmethod
    def run(config, first_step, steps, turn=None):
        value, m, v, grad = TestHeldMoments.state()
        ref = (value.copy(), m.copy(), v.copy())
        held = mlp._HeldMoments(config)
        work = (np.empty_like(value), np.empty_like(value))
        held.hold(value, m, first_step - 1)  # as if the state came from step first_step - 1
        counts = []
        for step in range(first_step, first_step + steps):
            g = grad.copy()
            g[8] = 2e-3 * (-1) ** step
            if step == turn:
                g[7] = 1e-3
            g[10] = 0.0 if step % 2 else -0.0
            held.release(g, m)
            mlp._adam_step(value, g, m, v, step, config, work)
            held.hold(value, m, step)
            ref = reference_adam_update(*ref[:1], g, *ref[1:], step, config)
            true_m = m.copy()
            true_m[held.index] = held.moment
            for got, want in zip((value, true_m, v), ref):
                assert_same_bits(got, want)
            counts.append(sorted(held.index.tolist()))
        return counts

    def test_fixed_points_at_the_defaults(self):
        held = mlp._HeldMoments(MlpConfig())
        assert held.ulps == 5
        assert mlp._HeldMoments(MlpConfig(beta1=0.99, learning_rate=0.01)).ulps == 49
        assert mlp._HeldMoments(MlpConfig(learning_rate=0.7)).ulps == 0  # 0.7 ulp rounds up

    def test_bits_equal_the_reference_across_the_bias_correction(self):
        # 1 - 0.9**step first rounds to 1.0 at step 356, so the first hold
        # comes after step 355
        counts = self.run(MlpConfig(), 340, 40, turn=365)
        assert counts[:15] == [[]] * 15
        assert counts[15] == [0, 1, 2, 3, 7, 9, 10]
        assert 7 in counts[24] and 7 not in counts[25]  # released by step 365
        assert 11 in counts[-1]  # 49 ulps decay to 5

    def test_zero_weights_are_not_held(self):
        # held from the start: element 5 would keep its -0.0 where the step
        # makes it -0.0 - (-0.0) = +0.0
        counts = self.run(MlpConfig(), 400, 10, turn=403)
        assert counts[0] == [0, 1, 2, 3, 7, 9, 10]
        assert counts[3] == [0, 1, 2, 3, 9, 10]

    def test_nothing_is_held_before_the_bias_correction_rounds_away(self):
        # beta1 = 0.99 holds 49 ulps, and m / (1 - beta1**step) * lr of 49
        # ulps is not zero: holding before step 3,725 would change bits
        config = MlpConfig(beta1=0.99, learning_rate=0.01)
        assert self.run(config, 1, 30) == [[]] * 30
        counts = self.run(config, 3720, 10)
        assert counts[:4] == [[]] * 4
        assert counts[4] == [0, 1, 2, 3, 7, 9, 10, 11]

    def test_nothing_is_held_where_a_few_ulps_move_the_weight(self):
        assert self.run(MlpConfig(learning_rate=0.7), 400, 20) == [[]] * 20


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
        # a stacked product that is exact within each tile but moves every
        # tile after the first by 1e-9 per tile: a self-test of one tile
        # would pass it, the two-tile one must not, and forward then runs
        # einsum and stays batch-independent
        def tile_dependent(h, w, out):
            np.matmul(h, w, out=out)
            out += np.arange(h.shape[0])[:, None, None] * 1e-9
            return out

        numerics._tiles_row_invariant.cache_clear()
        monkeypatch.setattr(numerics, "_tile_matmul", tile_dependent)
        try:
            weights, biases = init_params(6, seed=9)
            assert {numerics.matmul_path(*w.shape) for w in weights} == {"einsum"}
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


def tile256_forward(weights, biases, x, activation):
    """The forward pass as it ran before the stacked tiles, kept as the oracle:
    each layer a loop of (256, k) @ (k, n) products, the last partial tile
    copied into a zero-padded tile, a fresh output per layer."""

    def blas_tiles(a, b):
        m, k = a.shape
        out = np.empty((m, b.shape[1]))
        full = m - m % 256
        for start in range(0, full, 256):
            np.matmul(a[start : start + 256], b, out=out[start : start + 256])
        if full < m:
            tail = np.zeros((256, k))
            tail[: m - full] = a[full:]
            out[full:] = np.matmul(tail, b)[: m - full]
        return out

    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(weights[:-1], biases[:-1]):
        h = blas_tiles(h, w)
        h += b
        if activation == "relu":
            np.maximum(h, 0.0, out=h)
    return (blas_tiles(h, weights[-1]) + biases[-1])[:, 0]


def committed_nn_weights():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "models" / "nn.slnm"
    payload = load_model(path).payload
    return payload.weights, payload.biases


T = numerics.MATMUL_TILE
PASS = mlp.PASS_TILES * T  # rows that go through the layers together


class TestStackedTilesKeepBits:
    """forward's stacked MATMUL_TILE-row tiles, PASS_TILES of them a pass,
    give every row the bits of the 256-row tile loop they replaced."""

    @pytest.mark.parametrize("m", [0, 1, T - 1, T, T + 1, 255, 256, 257, 700, PASS + 1, 4096])
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("weights_from", ["committed", "init_params"])
    def test_bits_equal_the_256_row_tiles(self, weights_from, activation, m):
        if weights_from == "committed":
            weights, biases = committed_nn_weights()
        else:
            weights, biases = init_params(6, seed=31)
            biases = [np.random.default_rng(32).uniform(-0.1, 0.1, b.shape) for b in biases]
        rng = np.random.default_rng(m)
        x = rng.standard_normal((m, 6)) * 2.0
        full = forward(weights, biases, x, activation)
        assert full.shape == (m,)
        assert full.tobytes() == tile256_forward(weights, biases, x, activation).tobytes()
        perm = rng.permutation(m)
        assert forward(weights, biases, x[perm], activation).tobytes() == full[perm].tobytes()
        for i in sorted({0, T - 1, T, 255, 256, PASS - 1, PASS, m - 1} & set(range(m))):
            assert forward(weights, biases, x[i : i + 1], activation)[0] == full[i]


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

    def test_divergence_in_a_later_batch_matches_the_per_array_loop(self):
        # one overflowing target, placed where epoch 0 puts it in batch 1, so
        # batch 0 first updates the weights
        config = MlpConfig(epochs=2, batch_size=64, seed=4)
        rng = np.random.default_rng(9)
        V = rng.standard_normal((131, 6))
        R = rng.standard_normal(131)
        order = np.random.default_rng(config.seed + 1).permutation(131)
        R[order[100]] = 1e200
        errors = []
        for fit in (reference_fit_mlp, fit_mlp):
            with pytest.raises(TrainingDivergedError) as err:
                with np.errstate(over="ignore", invalid="ignore"):
                    fit(V, R, config)
            errors.append((err.value.epoch, err.value.batch, err.value.loss))
        assert errors[0] == errors[1]
        assert errors[1][:2] == (0, 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MlpConfig(epochs=0)
        with pytest.raises(ValueError):
            MlpConfig(activation="tanh")
        # beta = 1.0 and eps = 0.0 used to fail after an epoch as a divergence
        for bad in (1.0, 1.5, -0.5, math.nan):
            with pytest.raises(ValueError, match="beta1 and beta2"):
                MlpConfig(beta1=bad)
            with pytest.raises(ValueError, match="beta1 and beta2"):
                MlpConfig(beta2=bad)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="adam_eps"):
                MlpConfig(adam_eps=bad)
        MlpConfig(beta1=0.0, beta2=0.0, adam_eps=1e-300)


class TestFitMlpBits:
    """fit_mlp's flat-vector training against the per-array reference loop."""

    @pytest.mark.parametrize(
        "n, t, batch_size, activation, epochs",
        [
            (131, 6, 64, "relu", 12),  # a short last batch
            (131, 6, 64, "identity", 12),
            (40, 6, 100, "relu", 15),  # batch_size > n
            (1, 6, 64, "relu", 30),
            (50, 3, 7, "relu", 60),  # 480 steps: from step 356 on, 1 - beta1**step is 1.0
            (50, 3, 7, "relu", 6),
            (50, 3, 7, "identity", 6),
        ],
    )
    def test_weights_biases_and_loss_are_bit_identical(self, n, t, batch_size, activation, epochs):
        rng = np.random.default_rng(n * 10 + t)
        V = rng.standard_normal((n, t))
        R = rng.standard_normal(n)
        config = MlpConfig(epochs=epochs, batch_size=batch_size, seed=3, activation=activation)
        model, loss = fit_mlp(V, R, config)
        ref_w, ref_b, ref_loss = reference_fit_mlp(V, R, config)
        assert_same_bits(loss, ref_loss)
        assert len(model.weights) == len(ref_w) and len(model.biases) == len(ref_b)
        for got, want in zip(model.weights + model.biases, ref_w + ref_b):
            assert_same_bits(got, want)

    def test_held_moments_change_no_bits(self, monkeypatch):
        # 7,000 steps: the first moments of dead relu units decay to fixed
        # points a few ulps above zero and are held from about step 6,880 on
        most = []

        class Counted(mlp._HeldMoments):
            def hold(self, value, m, step):
                super().hold(value, m, step)
                most.append(self.index.size)

        monkeypatch.setattr(mlp, "_HeldMoments", Counted)
        rng = np.random.default_rng(163)
        V = rng.standard_normal((16, 3))
        R = rng.standard_normal(16)
        config = MlpConfig(epochs=3500, batch_size=8, seed=3, learning_rate=1e-2)
        model, loss = fit_mlp(V, R, config)
        assert max(most) > 1000
        ref_w, ref_b, ref_loss = reference_fit_mlp(V, R, config)
        assert_same_bits(loss, ref_loss)
        for got, want in zip(model.weights + model.biases, ref_w + ref_b):
            assert_same_bits(got, want)
