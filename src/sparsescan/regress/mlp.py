"""Fully connected ERD regressor trained with Adam.

Fixed architecture: input t -> 50, four more 50 -> 50 hidden layers, then
50 -> 1 linear output.  Hidden activation is relu by default with an
identity option; the loss is 0.5 * sum of squared residuals over a batch.
"""

from dataclasses import dataclass, field

import numpy as np

from ..numerics import stable_matmul

HIDDEN_UNITS = 50
HIDDEN_LAYERS = 5
ACTIVATIONS = ("relu", "identity")


class TrainingDivergedError(RuntimeError):
    """Non-finite loss during fitting; carries epoch, batch and loss."""

    def __init__(self, epoch: int, batch: int, loss: float):
        super().__init__(
            f"non-finite loss {loss!r} at epoch {epoch}, batch {batch}; "
            "lower the learning rate or rescale the targets"
        )
        self.epoch = epoch
        self.batch = batch
        self.loss = loss


@dataclass(frozen=True)
class MlpConfig:
    epochs: int = 500
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    activation: str = "relu"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")


@dataclass(frozen=True)
class MlpModel:
    weights: tuple  # 6 matrices: (t,50), (50,50) x 4, (50,1)
    biases: tuple  # (50,) x 5, (1,)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        bs = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        if len(ws) != HIDDEN_LAYERS + 1 or len(bs) != HIDDEN_LAYERS + 1:
            raise ValueError(f"expected {HIDDEN_LAYERS + 1} weight/bias pairs")
        t = ws[0].shape[0]
        shapes = [(t, HIDDEN_UNITS)]
        shapes += [(HIDDEN_UNITS, HIDDEN_UNITS)] * (HIDDEN_LAYERS - 1)
        shapes += [(HIDDEN_UNITS, 1)]
        for w, b, want in zip(ws, bs, shapes):
            if w.shape != want or b.shape != (want[1],):
                raise ValueError(f"layer shape {w.shape}/{b.shape} != {want}")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)


def _act(x: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(x, 0.0)
    return x


def init_params(feature_count: int, seed: int):
    """Seeded scaled-uniform initialization, biases zero."""
    rng = np.random.default_rng(seed)
    dims = [feature_count] + [HIDDEN_UNITS] * HIDDEN_LAYERS + [1]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-scale, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def forward(weights, biases, x: np.ndarray, activation: str) -> np.ndarray:
    """Batch-composition-stable forward pass; returns (m,) predictions."""
    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(weights[:-1], biases[:-1]):
        h = stable_matmul(h, w)
        h += b
        if activation == "relu":
            np.maximum(h, 0.0, out=h)
    return (stable_matmul(h, weights[-1]) + biases[-1])[:, 0]


def loss_and_gradients(weights, biases, x: np.ndarray, r: np.ndarray, activation: str):
    """Loss 0.5 * sum((r - pred)^2) and its gradients w.r.t. all parameters."""
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    pre = []
    post = [x]
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        z = h @ w + b
        pre.append(z)
        h = _act(z, activation)
        post.append(h)
    pred = (h @ weights[-1] + biases[-1])[:, 0]
    resid = pred - r
    loss = 0.5 * float(resid @ resid)

    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    delta = resid[:, None]  # d loss / d output
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


def adam_update(value, grad, m, v, step: int, config: MlpConfig):
    """One Adam step; elementwise, so it applies to scalars and arrays alike."""
    m_new = config.beta1 * m + (1.0 - config.beta1) * grad
    v_new = config.beta2 * v + (1.0 - config.beta2) * grad * grad
    m_hat = m_new / (1.0 - config.beta1**step)
    v_hat = v_new / (1.0 - config.beta2**step)
    updated = value - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return updated, m_new, v_new


def fit_mlp(V: np.ndarray, R: np.ndarray, config: MlpConfig = MlpConfig()):
    """Mini-batch Adam over shuffled epochs; returns (model, final_epoch_loss)."""
    V = np.asarray(V, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    if V.ndim != 2 or R.shape != (V.shape[0],):
        raise ValueError("expected V (n, t) and R (n,)")
    n = V.shape[0]
    if n < 1:
        raise ValueError("at least one row required")

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
            loss, gw, gb = loss_and_gradients(weights, biases, V[sel], R[sel], config.activation)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, bi, loss)
            epoch_loss += loss
            step += 1
            for i in range(len(weights)):
                weights[i], m_w[i], v_w[i] = adam_update(
                    weights[i], gw[i], m_w[i], v_w[i], step, config
                )
                biases[i], m_b[i], v_b[i] = adam_update(
                    biases[i], gb[i], m_b[i], v_b[i], step, config
                )
    model = MlpModel(
        weights=tuple(weights), biases=tuple(biases), activation=config.activation
    )
    return model, epoch_loss
