"""Greedy adaptive sampling loop.

Each step scores unmeasured pixels with a trained regressor, measures the
highest-scoring location (ties to the lowest linear index), and updates the
reconstruction within the window around the new point.  The "lazy" scoring
mode rescores only pixels whose descriptor inputs could have changed, which
is provably the same set of scores the "full" mode recomputes from scratch:
prediction is row-stable, so untouched rows keep identical bits.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import neighbors
from .core import (
    GroundTruthImage,
    MeasurementSet,
    PixelLocation,
    Reconstruction,
    atomic_write_text,
    distortion,
    linear_index,
    psnr,
)
from .features import compute_feature_matrix, measured_counts_grid
from .recon import IdwParams, idw_from_neighbors, window_bounds
from .regress import predict_batch

SCORING_MODES = ("lazy", "full")


class SourceQueryError(RuntimeError):
    """Measurement source failed; carries the 1-based step index."""

    def __init__(self, step: int, loc, reason: str):
        self.step = step
        self.loc = loc
        super().__init__(f"source query failed at step {step}, {loc}: {reason}")


class SimulatedSource:
    """Plays back a ground-truth image, optionally with frozen Gaussian noise.

    The noise field is drawn once up front, so repeated queries at one
    location always return the same value.  Values are not clipped.
    """

    def __init__(self, image: GroundTruthImage, noise_sigma: float = 0.0, seed: int = 0):
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        self.image = image
        self.noise_sigma = float(noise_sigma)
        self.seed = int(seed)
        if self.noise_sigma > 0.0:
            rng = np.random.default_rng(self.seed)
            self._noise = rng.normal(0.0, self.noise_sigma, (image.height, image.width))
        else:
            self._noise = np.zeros((image.height, image.width))

    @property
    def width(self) -> int:
        return self.image.width

    @property
    def height(self) -> int:
        return self.image.height

    def value(self, s) -> float:
        return float(self.image.values[s[0], s[1]] + self._noise[s[0], s[1]])


def _artifact_percent(density: float) -> int:
    """Whole percent that names a checkpoint's mask_XXX/recon_XXX artifacts."""
    return int(round(density * 100))


@dataclass(frozen=True)
class RunConfig:
    initial_density: float = 0.01
    budget_density: float = 0.40
    checkpoint_densities: tuple = (0.10, 0.20, 0.30, 0.40)
    seed: int = 0
    idw: IdwParams = field(default_factory=IdwParams)
    scoring: str = "lazy"
    workers: int = 1

    def __post_init__(self):
        if not (0.0 < self.initial_density <= self.budget_density <= 1.0):
            raise ValueError("need 0 < initial_density <= budget_density <= 1")
        cps = tuple(sorted(float(c) for c in self.checkpoint_densities))
        if any(not (0.0 < c <= 1.0) for c in cps):
            raise ValueError("checkpoint densities must lie in (0, 1]")
        if any(c > self.budget_density for c in cps):
            raise ValueError("checkpoint densities must not exceed the budget")
        pcts = [_artifact_percent(c) for c in cps]
        clash = [c for c, p in zip(cps, pcts) if pcts.count(p) > 1]
        if clash:
            raise ValueError(
                f"checkpoint densities {clash} round to the same whole percent, "
                "so their mask/recon artifacts would overwrite each other"
            )
        if self.scoring not in SCORING_MODES:
            raise ValueError(f"scoring must be one of {SCORING_MODES}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        object.__setattr__(self, "checkpoint_densities", cps)


@dataclass(frozen=True)
class HistoryEntry:
    step: int  # measurement count after this entry, 1-based
    location: PixelLocation
    value: float
    predicted_erd: float  # NaN for seeded or random draws


@dataclass
class Checkpoint:
    density: float
    step: int
    reconstruction: Reconstruction
    mask: np.ndarray
    psnr_db: float  # NaN when no ground truth is available
    distortion: float  # NaN when no ground truth is available
    elapsed_s: float


@dataclass
class SamplingRun:
    config: RunConfig
    width: int
    height: int
    history: list
    checkpoints: list
    final_reconstruction: Reconstruction
    final_mask: np.ndarray
    wall_time_s: float

    @property
    def measured_count(self) -> int:
        return len(self.history)


def _score_rows(model, state, rows: np.ndarray) -> np.ndarray:
    """Predicted ERD for the given state rows (canonical descriptor pipeline)."""
    lins = state.unmeasured[rows]
    rr, cc = np.divmod(lins, state.width)
    raw = compute_feature_matrix(
        state.recon_flat.reshape(state.height, state.width),
        rr,
        cc,
        state.comp[rows],
        state.value_flat,
        state.cnt[rr, cc],
        state.params,
    )
    return predict_batch(model, raw)


def _score_rows_parallel(model, state, rows: np.ndarray, workers: int) -> np.ndarray:
    if workers <= 1 or rows.size < 2 * workers:
        return _score_rows(model, state, rows)
    from concurrent.futures import ThreadPoolExecutor

    chunks = np.array_split(rows, workers)
    out = np.empty(rows.size)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda ch: _score_rows(model, state, ch), chunks))
    pos = 0
    for ch, res in zip(chunks, results):
        out[pos : pos + ch.size] = res
        pos += ch.size
    return out


class _GreedyState:
    """Incremental mirror of (neighbors, counts, reconstruction, scores).

    Row i describes the i-th initially-unmeasured pixel; rows go inactive as
    pixels are measured.  All updates reproduce, bit for bit, what a from-
    scratch rebuild would compute.
    """

    def __init__(
        self,
        mset: MeasurementSet,
        params: IdwParams,
        model=None,
        workers: int = 1,
        scoring: str = "lazy",
    ):
        neighbors.check_grid_capacity(mset.width, mset.height)
        if mset.k == 0:
            raise ValueError("measurement set is empty")
        self.mset = mset
        self.params = params
        self.model = model
        self.workers = workers
        self.scoring_full = scoring == "full"
        self.width = mset.width
        self.height = mset.height
        self.n = mset.width * mset.height
        self.unmeasured = mset.unmeasured_indices()
        self.active = np.ones(self.unmeasured.size, dtype=bool)
        self._row_of = np.full(self.n, -1, dtype=np.int64)
        self._row_of[self.unmeasured] = np.arange(self.unmeasured.size)
        self.comp = neighbors.knn_measured(
            self.unmeasured, mset.measured_indices(), self.width, self.height, params.neighbors
        )
        self.value_flat = mset.value_grid().ravel().copy()
        self.recon_flat = self.value_flat.copy()
        self.recon_flat[self.unmeasured] = idw_from_neighbors(
            self.comp, self.n, self.value_flat, params.power
        )
        self.cnt = measured_counts_grid(mset.mask, params.window)
        self.scores = np.full(self.unmeasured.size, -np.inf)
        if model is not None and self.unmeasured.size:
            rows = np.flatnonzero(self.active)
            self.scores[rows] = _score_rows_parallel(model, self, rows, workers)

    def reconstruction(self) -> Reconstruction:
        return Reconstruction(
            width=self.width,
            height=self.height,
            values=self.recon_flat.reshape(self.height, self.width).copy(),
        )

    def best(self):
        """(location, score) of the max-score active row, ties to lowest index."""
        if not np.any(self.active):
            raise ValueError("image fully measured")
        top = np.max(self.scores[self.active])
        tied = self.unmeasured[self.active & (self.scores == top)]
        lin = int(tied.min())
        return PixelLocation(lin // self.width, lin % self.width), float(top)

    def measure(self, loc, value: float) -> None:
        loc = PixelLocation(int(loc[0]), int(loc[1]))
        lin = linear_index(loc, self.width)
        row = int(self._row_of[lin])
        if row < 0 or not self.active[row]:
            raise ValueError(f"{loc} is already measured")
        self.mset.add(loc, value)
        self.active[row] = False
        self.scores[row] = -np.inf
        self.value_flat[lin] = value
        self.recon_flat[lin] = value

        w = self.params.window
        r0, r1, c0, c1 = window_bounds(loc, self.width, self.height, w)
        self.cnt[r0 : r1 + 1, c0 : c1 + 1] += 1

        affected = neighbors.insert_measurement(
            self.comp, self.unmeasured, lin, self.width, self.height, self.active
        )

        # IDW values can change only where the neighbor list changed, but the
        # canonical update window matches the standalone incremental rebuild.
        in_window = self._active_rows_in_box(loc, w)
        if in_window.size:
            self.recon_flat[self.unmeasured[in_window]] = idw_from_neighbors(
                self.comp[in_window], self.n, self.value_flat, self.params.power
            )

        if self.model is None:
            return
        if self.mset.k >= self.n:
            return
        if self.scoring_full:
            rows = np.flatnonzero(self.active)
        else:
            # descriptor inputs reach one pixel past the recon window
            near = self._active_rows_in_box(loc, w + 1)
            rows = np.union1d(affected, near)
        if rows.size:
            self.scores[rows] = _score_rows_parallel(self.model, self, rows, self.workers)

    def _active_rows_in_box(self, loc, halfwidth: int) -> np.ndarray:
        r0, r1, c0, c1 = window_bounds(loc, self.width, self.height, halfwidth)
        rr = self.unmeasured // self.width
        cc = self.unmeasured % self.width
        inside = self.active & (rr >= r0) & (rr <= r1) & (cc >= c0) & (cc <= c1)
        return np.flatnonzero(inside)


def select_next(model, recon: Reconstruction, mset: MeasurementSet, workers: int = 1):
    """Highest predicted-ERD unmeasured pixel against the given reconstruction.

    Returns (PixelLocation, predicted_erd); ties break to the lowest linear
    index.  Scoring may be chunked across threads; the result is identical
    to a serial pass.
    """
    if (recon.width, recon.height) != (mset.width, mset.height):
        raise ValueError("reconstruction and measurement set dimensions differ")
    if mset.k < 1:
        raise ValueError("at least one measurement required")
    unmeasured = mset.unmeasured_indices()
    if unmeasured.size == 0:
        raise ValueError("image fully measured")
    params = model.idw
    comp = neighbors.knn_measured(
        unmeasured, mset.measured_indices(), mset.width, mset.height, params.neighbors
    )
    counts = measured_counts_grid(mset.mask, params.window)
    value_flat = mset.value_grid().ravel()
    rr, cc = np.divmod(unmeasured, mset.width)

    def score_chunk(sl):
        raw = compute_feature_matrix(
            recon.values, rr[sl], cc[sl], comp[sl], value_flat, counts[rr[sl], cc[sl]], params
        )
        return predict_batch(model, raw)

    if workers <= 1 or unmeasured.size < 2 * workers:
        scores = score_chunk(slice(None))
    else:
        from concurrent.futures import ThreadPoolExecutor

        bounds = np.linspace(0, unmeasured.size, workers + 1).astype(int)
        slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(score_chunk, slices))
        scores = np.concatenate(parts)

    top = scores.max()
    lin = int(unmeasured[scores == top].min())
    return PixelLocation(lin // mset.width, lin % mset.width), float(top)


def _query(source, loc, step: int) -> float:
    try:
        value = float(source.value(loc))
    except SourceQueryError:
        raise
    except Exception as exc:
        raise SourceQueryError(step, loc, str(exc)) from exc
    if not math.isfinite(value):
        raise SourceQueryError(step, loc, f"non-finite value {value!r}")
    return value


def _seed_measurements(source, config: RunConfig, history: list) -> MeasurementSet:
    n = source.width * source.height
    k0 = math.ceil(config.initial_density * n)
    rng = np.random.default_rng(config.seed)
    chosen = rng.choice(n, size=k0, replace=False)
    mset = MeasurementSet(width=source.width, height=source.height)
    for i, lin in enumerate(chosen):
        loc = PixelLocation(int(lin) // source.width, int(lin) % source.width)
        value = _query(source, loc, i + 1)
        mset.add(loc, value)
        history.append(HistoryEntry(i + 1, loc, value, float("nan")))
    return mset


class _CheckpointTracker:
    def __init__(self, config: RunConfig, n: int, ground_truth):
        self.thresholds = [(d, math.ceil(d * n)) for d in config.checkpoint_densities]
        self.next_idx = 0
        self.truth = ground_truth
        self.out = []

    def poll(self, state: _GreedyState, k: int, elapsed_s: float) -> None:
        while self.next_idx < len(self.thresholds) and k >= self.thresholds[self.next_idx][1]:
            density, _ = self.thresholds[self.next_idx]
            recon = state.reconstruction()
            if self.truth is not None:
                p = psnr(self.truth.values, recon.values)
                d = distortion(self.truth.values, recon.values)
            else:
                p, d = float("nan"), float("nan")
            self.out.append(
                Checkpoint(
                    density=density,
                    step=k,
                    reconstruction=recon,
                    mask=state.mset.mask.copy(),
                    psnr_db=p,
                    distortion=d,
                    elapsed_s=elapsed_s,
                )
            )
            self.next_idx += 1


def _finish(config, state, history, tracker, wall: float) -> SamplingRun:
    return SamplingRun(
        config=config,
        width=state.width,
        height=state.height,
        history=history,
        checkpoints=tracker.out,
        final_reconstruction=state.reconstruction(),
        final_mask=state.mset.mask.copy(),
        wall_time_s=wall,
    )


def run_sampling(
    source, model, config: RunConfig, ground_truth: GroundTruthImage = None
) -> SamplingRun:
    """Seed, then greedily measure argmax-ERD pixels until the budget."""
    if ground_truth is not None and (
        ground_truth.width != source.width or ground_truth.height != source.height
    ):
        raise ValueError("ground truth and source dimensions differ")
    n = source.width * source.height
    budget_k = math.ceil(config.budget_density * n)
    history = []
    mset = _seed_measurements(source, config, history)
    state = _GreedyState(
        mset, config.idw, model=model, workers=config.workers, scoring=config.scoring
    )
    tracker = _CheckpointTracker(config, n, ground_truth)
    tracker.poll(state, mset.k, 0.0)

    t0 = time.perf_counter()
    while mset.k < budget_k:
        loc, erd = state.best()
        value = _query(source, loc, mset.k + 1)
        state.measure(loc, value)
        history.append(HistoryEntry(mset.k, loc, value, erd))
        tracker.poll(state, mset.k, time.perf_counter() - t0)
    wall = time.perf_counter() - t0
    return _finish(config, state, history, tracker, wall)


def run_random_baseline(
    source, config: RunConfig, ground_truth: GroundTruthImage = None
) -> SamplingRun:
    """Same loop shape, but locations drawn uniformly without replacement."""
    if ground_truth is not None and (
        ground_truth.width != source.width or ground_truth.height != source.height
    ):
        raise ValueError("ground truth and source dimensions differ")
    n = source.width * source.height
    budget_k = math.ceil(config.budget_density * n)
    history = []
    rng = np.random.default_rng(config.seed)
    k0 = math.ceil(config.initial_density * n)
    chosen = rng.choice(n, size=k0, replace=False)
    mset = MeasurementSet(width=source.width, height=source.height)
    for i, lin in enumerate(chosen):
        loc = PixelLocation(int(lin) // source.width, int(lin) % source.width)
        value = _query(source, loc, i + 1)
        mset.add(loc, value)
        history.append(HistoryEntry(i + 1, loc, value, float("nan")))
    state = _GreedyState(mset, config.idw, model=None, workers=1)
    tracker = _CheckpointTracker(config, n, ground_truth)
    tracker.poll(state, mset.k, 0.0)

    order = rng.permutation(mset.unmeasured_indices())
    t0 = time.perf_counter()
    for lin in order[: budget_k - mset.k]:
        loc = PixelLocation(int(lin) // source.width, int(lin) % source.width)
        value = _query(source, loc, mset.k + 1)
        state.measure(loc, value)
        history.append(HistoryEntry(mset.k, loc, value, float("nan")))
        tracker.poll(state, mset.k, time.perf_counter() - t0)
    wall = time.perf_counter() - t0
    return _finish(config, state, history, tracker, wall)


def save_history_csv(run: SamplingRun, path) -> None:
    """Export the measurement order as step,row,col,value,predicted_erd."""
    lines = ["step,row,col,value,predicted_erd"]
    for e in run.history:
        lines.append(
            f"{e.step},{e.location.row},{e.location.col},"
            f"{repr(float(e.value))},{repr(float(e.predicted_erd))}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_checkpoint_artifacts(run: SamplingRun, out_dir) -> list:
    """Write mask_XXX.pgm / recon_XXX.pgm per checkpoint; returns the paths."""
    import os

    from .recon import save_mask, save_reconstruction

    paths = []
    for cp in run.checkpoints:
        pct = _artifact_percent(cp.density)
        mask_path = os.path.join(out_dir, f"mask_{pct:03d}.pgm")
        recon_path = os.path.join(out_dir, f"recon_{pct:03d}.pgm")
        save_mask(mask_path, cp.mask)
        save_reconstruction(recon_path, cp.reconstruction)
        paths.extend([mask_path, recon_path])
    return paths
