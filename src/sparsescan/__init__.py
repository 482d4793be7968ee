"""Dynamic sparse sampling toolkit.

Greedily selects measurement locations by predicting, for every unmeasured
pixel, how much measuring it would reduce the reconstruction distortion.
Three interchangeable regressors (least squares, kernel SVR, neural net)
score candidates over a fixed six-feature descriptor; reconstruction is
inverse-distance weighting over nearest measured neighbors.
"""

__version__ = "0.1.0"

from .core import (
    GroundTruthImage,
    MeasurementSet,
    PixelLocation,
    Reconstruction,
    distortion,
    load_image,
    psnr,
    save_image,
)
from .recon import IdwParams, nearest_measured, reconstruct
from .features import FeatureStats, FeatureVector, extract_features, fit_stats, standardize
from .regress import ErdModel, load_model, predict_batch, save_model
from .regress.linear import LinearModel, fit_linear
from .regress.svr import SvrModel, fit_svr
from .regress.mlp import MlpConfig, MlpModel, fit_mlp
from .training import (
    RdEvaluator,
    TrainingDatabase,
    TrainingSchedule,
    generate_training_db,
    train_erd_model,
)
from .engine import (
    RunConfig,
    SamplingRun,
    SimulatedSource,
    run_random_baseline,
    run_sampling,
    select_next,
)
