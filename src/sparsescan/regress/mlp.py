"""Fully connected ERD regressor trained with Adam.

Fixed architecture: input t -> 50, four more 50 -> 50 hidden layers, then
50 -> 1 linear output.  Hidden activation is relu by default with an
identity option; the loss is 0.5 * sum of squared residuals over a batch.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ..numerics import MATMUL_TILE, row_tiles, tile_product

HIDDEN_UNITS = 50
HIDDEN_LAYERS = 5
# Tiles that forward takes through all the layers at once: at 50 units its
# two buffers then hold 410 KB each and stay in L2 cache.  On a Xeon with
# 2 MiB of L2 a core, a 4,096-row block in one pass (1.6 MB a buffer) ran
# 1.4 times slower.
PASS_TILES = 16
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
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ValueError("adam_eps must be positive")
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
    """Batch-composition-stable forward pass; returns (m,) predictions.

    The rows are zero-padded once to whole tiles of MATMUL_TILE rows and stay
    stacked as (tiles, MATMUL_TILE, width) through every layer: each hidden
    layer is one tile_product into one of two flat buffers that the layers
    take in turn, with the bias added and relu applied in place.  A padding
    row never reaches a real row's bits, since each row's product depends
    only on that row.  Up to PASS_TILES tiles go through all the layers
    together, so that the two buffers stay in cache.
    """
    x = np.asarray(x, dtype=np.float64)
    tiles = row_tiles(x)
    size = min(len(tiles), PASS_TILES) * MATMUL_TILE * max(w.shape[1] for w in weights[:-1])
    hidden = (np.empty(size), np.empty(size))
    out = np.empty((len(tiles), MATMUL_TILE, 1))
    for start in range(0, len(tiles), PASS_TILES):
        h = tiles[start : start + PASS_TILES]
        rows = h.shape[0] * MATMUL_TILE
        for i, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
            z = _rows(hidden[i % 2], rows, w.shape[1]).reshape(h.shape[0], MATMUL_TILE, -1)
            h = tile_product(h, w, z)
            h += b
            if activation == "relu":
                np.maximum(h, 0.0, out=h)
        tile_product(h, weights[-1], out[start : start + PASS_TILES])
    out += biases[-1]
    return out.reshape(-1)[: x.shape[0]]


def _layer_views(flat: np.ndarray, shapes):
    """Views of a flat vector laid out W0, b0, W1, b1, ... for weights of these shapes."""
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in shapes:
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


def _rows(flat: np.ndarray, m: int, width: int) -> np.ndarray:
    return flat[: m * width].reshape(m, width)


class _Backprop:
    """Loss and gradients of one batch, in work arrays sized for `rows` rows.

    Every product and sum is the one the textbook allocating pass computes,
    on operands of the same shapes and layouts, so the bits are the same
    whether the outputs land in fresh arrays or in views of a flat vector.
    """

    def __init__(self, weights, rows: int, activation: str):
        self.relu = activation == "relu"
        widths = [w.shape[1] for w in weights[:-1]]
        self.pre = [np.empty((rows, u)) for u in widths]
        self.post = [np.empty((rows, u)) for u in widths] if self.relu else self.pre
        self.out = np.empty((rows, 1))
        self.resid = np.empty(rows)
        # flat, so that an (m, width) view of the first m * width entries is
        # C-contiguous for any batch size m and layer width
        size = rows * max(w.shape[0] for w in weights)
        self.back = (np.empty(size), np.empty(size))
        self.mask = np.empty(size, dtype=bool)

    def loss(self, weights, biases, x: np.ndarray, r: np.ndarray) -> float:
        """Forward pass over the m rows of x; keeps the activations, returns the loss."""
        m = x.shape[0]
        h = x
        for w, b, pre, post in zip(weights[:-1], biases[:-1], self.pre, self.post):
            z = np.matmul(h, w, out=pre[:m])
            z += b
            h = np.maximum(z, 0.0, out=post[:m]) if self.relu else z
        out = np.matmul(h, weights[-1], out=self.out[:m])
        out += biases[-1]
        resid = np.subtract(out[:, 0], r, out=self.resid[:m])
        return 0.5 * float(resid @ resid)

    def gradients(self, weights, x: np.ndarray, grads_w, grads_b) -> None:
        """Back-propagate the last loss() into grads_w and grads_b."""
        m = x.shape[0]
        inputs = [x] + [post[:m] for post in self.post]
        delta = self.resid[:m, None]  # d loss / d output
        np.matmul(inputs[-1].T, delta, out=grads_w[-1])
        np.add.reduce(delta, axis=0, out=grads_b[-1])
        out = _rows(self.back[0], m, weights[-1].shape[0])
        back = np.matmul(delta, weights[-1].T, out=out)
        for i, layer in enumerate(range(len(weights) - 2, -1, -1)):
            if self.relu:
                # a multiply, not a masked store: it keeps the -0.0 signs
                pre = self.pre[layer][:m]
                mask = np.greater(pre, 0.0, out=_rows(self.mask, m, pre.shape[1]))
                np.multiply(back, mask, out=back)
            np.matmul(inputs[layer].T, back, out=grads_w[layer])
            np.add.reduce(back, axis=0, out=grads_b[layer])
            if layer > 0:
                # the signal alternates between the two back buffers
                out = _rows(self.back[(i + 1) % 2], m, weights[layer].shape[0])
                back = np.matmul(back, weights[layer].T, out=out)


def loss_and_gradients(weights, biases, x: np.ndarray, r: np.ndarray, activation: str):
    """Loss 0.5 * sum((r - pred)^2) and its gradients w.r.t. all parameters."""
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    net = _Backprop(weights, x.shape[0], activation)
    loss = net.loss(weights, biases, x, r)
    grads_w = [np.empty_like(w) for w in weights]
    grads_b = [np.empty_like(b) for b in biases]
    net.gradients(weights, x, grads_w, grads_b)
    return loss, grads_w, grads_b


def _adam_step(value, grad, m, v, step: int, config: MlpConfig, work) -> None:
    """adam_update in place on value, m and v; work is two arrays of their shape.

    Each operation is the one the formula in adam_update spells, in its order,
    so the in-place bits equal the allocating ones.  Once 1 - beta1**step
    rounds to 1.0 (from step 356 for beta1 = 0.9), m / 1.0 is m bit for bit,
    and that divide, slow over subnormal moments, is skipped.

    From then on an element whose gradient is +-0 and whose first moment is
    +-k ulps of zero, k <= _HeldMoments.ulps, does not move: m * beta1 rounds
    back to m, m + (+-0) is m, m * lr rounds to +-0, and value - (+-0) is
    value unless value is itself zero (-0.0 - (-0.0) is +0.0).  v never
    reads m.  So the same bits come out when such an m is stored as +0.0 for
    the step: m stays +0.0, the update is +0.0 and value is unchanged.
    fit_mlp holds such moments that way (_HeldMoments), because every
    multiply over a subnormal m takes the processor's slow path.
    """
    a, b = work
    np.multiply(m, config.beta1, out=m)
    np.multiply(grad, 1.0 - config.beta1, out=a)
    m += a
    np.multiply(v, config.beta2, out=v)
    np.multiply(grad, 1.0 - config.beta2, out=a)
    a *= grad
    v += a
    c1 = 1.0 - config.beta1**step
    if c1 == 1.0:
        np.multiply(m, config.learning_rate, out=a)
    else:
        np.divide(m, c1, out=a)
        a *= config.learning_rate
    np.divide(v, 1.0 - config.beta2**step, out=b)
    np.sqrt(b, out=b)
    b += config.adam_eps
    a /= b
    value -= a


class _HeldMoments:
    """First moments that _adam_step cannot move, stored as +0.0 while held.

    Late in a fit the first moments of weights that get no gradient, such as
    those of dead relu units, decay into subnormals until m * beta1 rounds
    back to m, and stay there.  hold() stores those moments in m as +0.0 and
    keeps their values here; release() puts a moment back before any step
    that gives its element a nonzero gradient.  Between the two, _adam_step
    computes the same value, m and v bits as over the true moments.
    """

    def __init__(self, config: MlpConfig):
        tiny = np.arange(1, 65, dtype=np.uint64).view(np.float64)  # 1 .. 64 ulps of 0
        fixed = (tiny * config.beta1 == tiny) & (tiny * config.learning_rate == 0.0)
        # the largest k with every j <= k ulps fixed: 5 at the defaults
        self.ulps = int(fixed.size if fixed.all() else fixed.argmin())
        self.beta1 = config.beta1
        self.index = np.empty(0, dtype=np.int64)
        self.moment = np.empty(0)

    def release(self, grad, m) -> None:
        """Put back into m every held moment whose element's gradient is nonzero."""
        g = grad[self.index]
        if g.any():  # NaN counts as nonzero
            keep = g == 0.0
            m[self.index[~keep]] = self.moment[~keep]
            self.index, self.moment = self.index[keep], self.moment[keep]

    def hold(self, value, m, step: int) -> None:
        """Hold every fixed-point moment of a nonzero value, once step is past bias correction."""
        if 1.0 - self.beta1 ** (step + 1) != 1.0:
            return
        # integer ops on the bits: no subnormal penalty, and a held +0.0 is 0
        bits = m.view(np.uint64) & np.uint64(0x7FFF_FFFF_FFFF_FFFF)
        new = np.flatnonzero((bits >= 1) & (bits <= self.ulps))
        new = new[value[new] != 0.0]
        self.index = np.concatenate((self.index, new))
        self.moment = np.concatenate((self.moment, m[new]))
        m[new] = 0.0


def adam_update(value, grad, m, v, step: int, config: MlpConfig):
    """One Adam step; elementwise, so it applies to scalars and arrays alike.

    m_new = beta1 * m + (1 - beta1) * grad
    v_new = beta2 * v + (1 - beta2) * grad * grad
    updated = value - lr * m_hat / (sqrt(v_hat) + eps), with m_hat and v_hat
    the bias-corrected moments.  Returns (updated, m_new, v_new).
    """
    value, grad, m, v = (
        np.array(a, dtype=np.float64) for a in np.broadcast_arrays(value, grad, m, v)
    )
    _adam_step(value, grad, m, v, step, config, (np.empty_like(value), np.empty_like(value)))
    # [()] turns a 0-d result back into a scalar and leaves arrays as they are
    return value[()], m[()], v[()]


def fit_mlp(V: np.ndarray, R: np.ndarray, config: MlpConfig = MlpConfig()):
    """Mini-batch Adam over shuffled epochs; returns (model, final_epoch_loss).

    All weights and biases live in one flat float64 vector, and the gradient
    and both Adam moments share its layout, so a batch is one backprop that
    writes into gradient views of that vector, then one in-place Adam step
    over the whole of it.  Every element still sees the same operations in
    the same order as a per-array update with freshly allocated arrays, so
    the weights, biases and loss are bit-identical to that loop.

    After each epoch, the subnormal first moments that the step can no longer
    move (those of dead relu units, late in a fit) are held out of it as +0.0
    until their element gets a gradient again: no bit changes, and the step's
    multiplies no longer take the processor's slow path over them.
    """
    V = np.asarray(V, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    if V.ndim != 2 or R.shape != (V.shape[0],):
        raise ValueError("expected V (n, t) and R (n,)")
    n, t = V.shape
    if n < 1:
        raise ValueError("at least one row required")

    init_w, init_b = init_params(t, config.seed)
    shapes = [w.shape for w in init_w]
    params = np.concatenate([a.ravel() for pair in zip(init_w, init_b) for a in pair])
    weights, biases = _layer_views(params, shapes)
    grad = np.empty_like(params)
    grads_w, grads_b = _layer_views(grad, shapes)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    work = (np.empty_like(params), np.empty_like(params))
    held = _HeldMoments(config)
    net = _Backprop(weights, min(n, config.batch_size), config.activation)
    rng = np.random.default_rng(config.seed + 1)
    step = 0
    epoch_loss = 0.0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for bi, start in enumerate(range(0, n, config.batch_size)):
            sel = order[start : start + config.batch_size]
            x = V[sel]
            loss = net.loss(weights, biases, x, R[sel])
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch, bi, loss)
            epoch_loss += loss
            step += 1
            net.gradients(weights, x, grads_w, grads_b)
            held.release(grad, m)
            _adam_step(params, grad, m, v, step, config, work)
        held.hold(params, m, step)
    model = MlpModel(
        weights=tuple(w.copy() for w in weights),
        biases=tuple(b.copy() for b in biases),
        activation=config.activation,
    )
    return model, epoch_loss
