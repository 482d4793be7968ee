"""Reduction-in-distortion targets and training database generation.

The RD of a candidate pixel is the drop in total absolute error obtained by
measuring it: D(X, Xhat_before) - D(X, Xhat_after).  The windowed variant
confines both the reconstruction update and the distortion sums to the
(2w+1)^2 window centered on the candidate, which is what training uses; a
window covering the whole image is the exact value.  The update is
ReconState.splice, the one a sampler's measurement writes.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    GroundTruthImage,
    MeasurementSet,
    atomic_write,
)
from .engine import ReconState
from .features import FEATURE_COUNT, fit_stats, standardize
from .features import compute_feature_matrix  # noqa: F401  (perfbench/tracing.py wraps this name)
from .numerics import exact_abs_sum
from .recon import IdwParams, window_bounds
from .recon import idw_from_neighbors  # noqa: F401  (perfbench/tracing.py wraps this name)
from .regress import KINDS, ErdModel
from .regress.linear import fit_linear
from .regress.mlp import MlpConfig, fit_mlp
from .regress.svr import fit_svr


@dataclass(frozen=True)
class TrainingSchedule:
    """Sampling densities and candidate counts for database generation."""

    densities: tuple = (0.01, 0.05, 0.10, 0.20, 0.30, 0.40)
    samples_per_level: int = 500
    rd_window: int = 15
    seed: int = 0

    def __post_init__(self):
        d = tuple(float(x) for x in self.densities)
        if len(d) < 1:
            raise ValueError("at least one density required")
        if any(not (0.0 < x < 1.0) for x in d):
            raise ValueError("densities must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(d, d[1:])):
            raise ValueError("densities must be strictly increasing")
        if self.samples_per_level < 1:
            raise ValueError("samples_per_level must be >= 1")
        if self.rd_window < 1:
            raise ValueError("rd_window must be >= 1")
        object.__setattr__(self, "densities", d)


@dataclass
class TrainingDatabase:
    features: np.ndarray  # (n, FEATURE_COUNT) raw descriptor rows
    rd: np.ndarray  # (n,) windowed RD targets
    image_ids: list  # (n,) str per row
    densities: np.ndarray  # (n,) sampling density per row
    provenance: list  # [(image_id, density, block_seed)] per generation block

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        r = np.asarray(self.rd, dtype=np.float64)
        if f.ndim != 2 or f.shape[1] != FEATURE_COUNT or r.shape != (f.shape[0],):
            raise ValueError("features and rd shapes disagree")
        if f.shape[0] < 1:
            raise ValueError("database must contain at least one row")
        if not np.all(np.isfinite(r)):
            raise ValueError("rd targets must be finite")
        self.features = f
        self.rd = r

    @property
    def n(self) -> int:
        return self.features.shape[0]


class RdEvaluator:
    """Scores many candidates against one fixed measurement set.

    Builds the reconstruction state, indexed by pixel, once.  A trial takes
    from its splice, which the sampler's measurements use too, the window's
    lists that the candidate enters and their new estimates, and writes
    nothing.  Results are bit-identical to rebuilding everything per candidate.
    """

    def __init__(self, image: GroundTruthImage, mset: MeasurementSet, params: IdwParams):
        if (image.width, image.height) != (mset.width, mset.height):
            raise ValueError("image and measurement set dimensions differ")
        if mset.k == mset.width * mset.height:
            raise ValueError("no unmeasured pixels to evaluate")
        self.state = ReconState(mset, params)
        self._truth_flat = image.values.ravel()

    @property
    def unmeasured(self) -> np.ndarray:
        return self.state.mset.unmeasured_indices()

    def rd_exact(self, s) -> float:
        """Full-image RD from measuring s at its true value."""
        return self.rd_windowed(s, max(self.state.width, self.state.height))

    def rd_windowed(self, s, halfwidth: int) -> float:
        """RD confined to the (2w+1)^2 window centered on s."""
        if halfwidth < 1:
            raise ValueError("window halfwidth must be >= 1")
        st = self.state
        lin = st.mset.unmeasured_index(s)
        value = float(self._truth_flat[lin])
        r0, r1, c0, c1 = window_bounds(divmod(lin, st.width), st.width, st.height, halfwidth)
        win = (np.arange(r0, r1 + 1)[:, None] * st.width + np.arange(c0, c1 + 1)[None, :]).ravel()
        changed, _, estimates = st.splice(lin, value, win)
        before = st.recon_flat[win]
        after = np.where(win == lin, value, before)
        after[changed] = estimates
        truth = self._truth_flat[win]
        return exact_abs_sum(truth, before) - exact_abs_sum(truth, after)

    def feature_matrix(self, candidate_indices: np.ndarray) -> np.ndarray:
        """Raw descriptor rows for unmeasured pixels given as linear indices."""
        pixels = np.asarray(candidate_indices, dtype=np.int64)
        if np.any((pixels < 0) | (pixels >= self.state.n)):
            raise ValueError("candidates must lie inside the grid")
        if self.state.mset.mask.take(pixels).any():
            raise ValueError("candidates must be unmeasured")
        return self.state.features(pixels)


def _block_seed(master: int, image_index: int, density_index: int) -> int:
    ss = np.random.SeedSequence([int(master), image_index, density_index])
    return int(ss.generate_state(1, np.uint64)[0])


def generate_training_db(
    images,
    schedule: TrainingSchedule,
    params: IdwParams,
    image_ids=None,
) -> TrainingDatabase:
    """Sample (features, windowed RD) pairs over a grid of densities.

    For every image and density, a seeded uniform mask is drawn, then up to
    samples_per_level unmeasured candidates are scored.  Each (image,
    density) block gets its own derived seed so the database is reproducible
    row for row.
    """
    images = list(images)
    if not images:
        raise ValueError("at least one image required")
    if image_ids is None:
        image_ids = [f"img{i:03d}" for i in range(len(images))]
    if len(image_ids) != len(images):
        raise ValueError("one id per image required")

    feats, rds, ids, dens, provenance = [], [], [], [], []
    for ii, image in enumerate(images):
        n = image.pixel_count
        if n < 2:
            raise ValueError("images must have at least two pixels")
        for di, density in enumerate(schedule.densities):
            if density * n < 1.0:
                raise ValueError(
                    f"density {density} yields no measurements on {image.width}x{image.height}"
                )
            n_meas = math.ceil(density * n)
            if n_meas >= n:
                raise ValueError(f"density {density} leaves no unmeasured candidates")
            seed = _block_seed(schedule.seed, ii, di)
            rng = np.random.default_rng(seed)
            chosen = rng.choice(n, size=n_meas, replace=False)
            mset = MeasurementSet.from_linear(
                image.width, image.height, chosen, image.values.ravel()[chosen]
            )

            ev = RdEvaluator(image, mset, params)
            m = min(schedule.samples_per_level, ev.unmeasured.size)
            cand = rng.choice(ev.unmeasured, size=m, replace=False)
            feats.append(ev.feature_matrix(cand))
            block_rd = np.empty(m)
            for j, lin in enumerate(cand.tolist()):
                block_rd[j] = ev.rd_windowed(divmod(lin, image.width), schedule.rd_window)
            rds.append(block_rd)
            ids.extend([image_ids[ii]] * m)
            dens.extend([density] * m)
            provenance.append((image_ids[ii], density, seed))

    return TrainingDatabase(
        features=np.concatenate(feats, axis=0),
        rd=np.concatenate(rds),
        image_ids=ids,
        densities=np.array(dens),
        provenance=provenance,
    )


def save_training_csv(db: TrainingDatabase, path) -> None:
    """Export rows as image_id,density,f1..f6,rd with round-trip float text."""
    lines = ["image_id,density,f1,f2,f3,f4,f5,f6,rd"]
    for i in range(db.n):
        cells = [db.image_ids[i], repr(float(db.densities[i]))]
        cells += [repr(float(x)) for x in db.features[i]]
        cells.append(repr(float(db.rd[i])))
        lines.append(",".join(cells))
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def train_erd_model(
    images,
    schedule: TrainingSchedule,
    params: IdwParams,
    kind: str,
    activation: str = MlpConfig.activation,
    seed: int = 0,
    epochs: int = MlpConfig.epochs,
    pretrained: bool = False,
    extra: dict = None,
    image_ids=None,
):
    """End-to-end fit: database, standardization stats, then the regressor.

    Returns (model, database, diagnostics dict).  The diagnostics include
    db_s and fit_s, the seconds spent building the database and fitting the
    regressor.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown regressor kind {kind!r}")
    t0 = time.perf_counter()
    db = generate_training_db(images, schedule, params, image_ids=image_ids)
    db_s = time.perf_counter() - t0
    stats = fit_stats(db.features)
    V = standardize(db.features, stats)
    R = db.rd
    diag = {"rows": db.n, "db_s": db_s}
    t0 = time.perf_counter()
    if kind == "lsq":
        payload = fit_linear(V, R)
        diag["fit_s"] = time.perf_counter() - t0
        resid = V @ payload.theta - R
        diag["residual_norm"] = float(np.linalg.norm(resid))
        diag["rank_deficient"] = payload.rank_deficient
    elif kind == "svr":
        payload = fit_svr(V, R, seed=seed)
        diag["fit_s"] = time.perf_counter() - t0
        diag["support_vectors"] = int(payload.support_vectors.shape[0])
        diag["converged"] = payload.converged
    else:
        config = MlpConfig(epochs=epochs, seed=seed, activation=activation)
        payload, final_loss = fit_mlp(V, R, config)
        diag["fit_s"] = time.perf_counter() - t0
        diag["final_epoch_loss"] = final_loss
    model = ErdModel(
        kind=kind,
        payload=payload,
        stats=stats,
        idw=params,
        pretrained=pretrained,
        extra=dict(extra or {}),
    )
    return model, db, diag
