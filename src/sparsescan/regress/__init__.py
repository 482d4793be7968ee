"""ERD regressors behind one model type and one prediction entry point."""

from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureStats, standardize
from ..numerics import matmul_path, stable_matvec
from ..recon import IdwParams
from .linear import LinearModel, fit_linear
from .mlp import MlpConfig, MlpModel, TrainingDivergedError, fit_mlp
from .mlp import forward as _mlp_forward
from .svr import SvrModel, fit_svr, predict_svr, slab_path

KINDS = ("lsq", "svr", "nn")
_PAYLOAD_TYPES = {"lsq": LinearModel, "svr": SvrModel, "nn": MlpModel}


@dataclass(frozen=True)
class ErdModel:
    """A trained scorer plus the preprocessing frozen at training time."""

    kind: str
    payload: object
    stats: FeatureStats
    idw: IdwParams
    pretrained: bool = False
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if not isinstance(self.payload, _PAYLOAD_TYPES[self.kind]):
            raise ValueError(
                f"kind {self.kind!r} expects {_PAYLOAD_TYPES[self.kind].__name__}, "
                f"got {type(self.payload).__name__}"
            )


def predict_batch(model: ErdModel, raw_features: np.ndarray) -> np.ndarray:
    """Predicted ERD for raw (unstandardized) feature rows (m, t).

    Results are bitwise identical no matter how the rows are batched, which
    lazy rescoring and the blocks of full-image scoring rely on.
    """
    rows = np.asarray(raw_features, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if rows.shape[1] != model.stats.means.shape[0]:
        raise ValueError(
            f"expected {model.stats.means.shape[0]} features per row, got {rows.shape[1]}"
        )
    v = standardize(rows, model.stats)
    if model.kind == "lsq":
        return stable_matvec(v, model.payload.theta)
    if model.kind == "svr":
        return predict_svr(model.payload, v)
    return _mlp_forward(
        model.payload.weights, model.payload.biases, v, model.payload.activation
    )


def prediction_path(model: ErdModel) -> str:
    """The product path predict_batch runs for model, as effective.cfg reports it.

    nn layers go through tile_product, one stacked product per layer over
    tiles of MATMUL_TILE rows (``blas-tile64``, or ``einsum`` for a weight
    shape whose self-test failed); svr's kernel goes through (256, features
    + 2) slabs against column tiles of 256 query columns, a call's last tile
    cut to a multiple of 64 (``blas-coltile256``, or ``einsum`` when the
    slab loop failed its self-test at any of those widths); lsq always uses
    einsum.
    """
    if model.kind == "nn":
        return "+".join(sorted({matmul_path(*w.shape) for w in model.payload.weights}))
    if model.kind == "svr":
        return slab_path(model.payload.support_vectors.shape[1])
    return "einsum"


from .modelio import (  # noqa: E402  (needs ErdModel defined first)
    ModelChecksumError,
    ModelFormatError,
    ModelKindError,
    ModelVersionError,
    load_model,
    save_model,
)

__all__ = [
    "ErdModel",
    "KINDS",
    "LinearModel",
    "MlpConfig",
    "MlpModel",
    "ModelChecksumError",
    "ModelFormatError",
    "ModelKindError",
    "ModelVersionError",
    "SvrModel",
    "TrainingDivergedError",
    "fit_linear",
    "fit_mlp",
    "fit_svr",
    "load_model",
    "predict_batch",
    "prediction_path",
    "save_model",
]
