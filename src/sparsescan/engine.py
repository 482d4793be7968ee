"""Greedy adaptive sampling loop.

Each step scores unmeasured pixels with a trained regressor, measures the
highest-scoring location (ties to the lowest linear index), and re-estimates
every pixel whose neighbour list the new point entered, so the
reconstruction is always reconstruct(mask), bit for bit.  Only pixels whose
descriptor inputs could have changed are rescored, which gives the scores a
full rescoring would: prediction is row-stable, so untouched rows keep
identical bits.  The uniform-random baseline runs the same loop.

A step touches only pixels the new measurement can reach.  Two per-image-row
caches bound the work: the largest k-th-neighbour composite of each row
limits which neighbour lists an insertion has to look at, and the largest
score of each row lets the argmax skip rows nothing changed in.  What a
neighbour list fixes (the IDW estimate, and the descriptor terms of the list
and that estimate) is cached per pixel and recomputed only for the lists a
step changed.  So a step costs what the neighbour reach and the window
cost, not what the image does.  Once every list of a call is full, as from
k measured pixels on, the list arithmetic skips its pad masks, with the
same bits.
"""

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import neighbors
from .core import (
    GroundTruthImage,
    MeasurementSet,
    PixelLocation,
    Reconstruction,
    atomic_write,
    distortion,
    linear_index,
    location_of,
    psnr,
    save_image,
)
from .features import compute_feature_matrix, measured_counts_grid, neighbour_terms
from .numerics import row_blocks
from .recon import IdwParams, idw_from_neighbors, save_mask, window_bounds
from .regress import predict_batch


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
        if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
        self.image = image
        self.width, self.height = image.width, image.height
        self.noise_sigma = float(noise_sigma)
        self.seed = int(seed)
        if self.noise_sigma > 0.0:
            rng = np.random.default_rng(self.seed)
            self._noise = rng.normal(0.0, self.noise_sigma, (image.height, image.width))
        else:
            self._noise = np.zeros((image.height, image.width))

    def value(self, s) -> float:
        if not (0 <= s[0] < self.height and 0 <= s[1] < self.width):
            raise ValueError(f"{s} outside {self.width}x{self.height} grid")
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


def _score(model, pixels: np.ndarray, features, scores: np.ndarray, step: int):
    """Write the predicted ERD of pixels into scores, ROW_BLOCK pixels at a time.

    features(block) gives the descriptor rows of pixels[block].  Prediction
    is row-stable, so the scores do not depend on the blocks.  A non-finite
    prediction cannot be ranked: it raises FloatingPointError naming the step
    the scores choose.
    """
    for block in row_blocks(pixels.size):
        scores[pixels[block]] = predict_batch(model, features(block))
    bad = int(np.count_nonzero(~np.isfinite(scores[pixels])))
    if bad:
        raise FloatingPointError(
            f"model predicted {bad} non-finite ERD value(s) choosing step {step}"
        )


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array (np.unique hashes, at more cost)."""
    first = np.empty(ascending.size, dtype=bool)
    first[:1] = True
    first[1:] = ascending[1:] != ascending[:-1]
    return ascending[first]


class ReconState:
    """Incremental (neighbours, window counts, reconstruction) of a measurement set.

    Every per-pixel array is indexed by pixel (linear index).  Which pixels
    are measured is mset.mask alone.  Neighbour composites and window counts
    stay equal, bit for bit, to what a from-scratch rebuild would compute.
    Rows of measured pixels are never read, but for the last composite slot,
    which holds -1: below every composite, so no insertion enters it, and
    the reach key of a pixel that has no list.

    recon_flat is the reconstruction: the measured value at every measured
    pixel and the IDW estimate of its current neighbour list at every other
    one.  Measured values never change, so an estimate changes only with its
    list: splice re-estimates the pixels whose lists a new measurement would
    change, wherever they lie, and measure writes them and the value, so
    recon_flat stays equal to reconstruct(mset), bit for bit.  An RD trial
    sums what splice returns and writes nothing.

    terms holds each unmeasured pixel's neighbour_terms against its
    estimate.  Both are fixed by the list, so they are written together, and
    a feature row reads one row of terms.

    reach[r] is the largest k-th-neighbour composite (comp[:, -1]) among the
    unmeasured pixels of image row r, or -1 when the row has none: the
    largest comp[:, -1] of the row, since measured pixels hold -1 there.  A
    new pixel enters the list of pixel p only if its composite d2 * N + index
    is below comp[p, -1], which is at most reach[row of p].  So on each row
    only the columns whose squared distance to the new pixel keeps the
    composite below reach[r] can change, and an insertion looks at those
    alone.  Composites only fall, so after a measurement reach is recomputed
    for the rows whose lists changed and for the row of the new pixel.
    """

    def __init__(self, mset: MeasurementSet, params: IdwParams):
        self.mset = mset
        self.params = params
        self.width = mset.width
        self.height = mset.height
        self.n = mset.width * mset.height
        unmeasured = mset.unmeasured_indices()
        measured = mset.measured_indices()
        self.comp = np.zeros((self.n, params.neighbors), dtype=np.int64)
        self.comp[unmeasured] = neighbors.knn_measured(
            unmeasured, measured, self.width, self.height, params.neighbors
        )
        self.comp[measured, -1] = -1
        self.recon_flat = mset.value_grid().ravel().copy()
        self.terms = np.zeros((self.n, 3))
        for block in row_blocks(unmeasured.size):
            rows = unmeasured[block]
            comp = self.comp[rows]
            estimates = idw_from_neighbors(comp, self.n, self.recon_flat, params.power)
            self._refresh(rows, comp, estimates)
        self.cnt = measured_counts_grid(mset.mask, params.window)
        self.reach = np.full(self.height, -1, dtype=np.int64)
        self._update_reach(np.arange(self.height))

    def _refresh(self, pixels: np.ndarray, comp: np.ndarray, estimates: np.ndarray) -> None:
        """Write pixels' estimates and recompute their terms from their neighbour composites.

        An estimate reads only measured values, and the terms only those and
        the pixel's new estimate, so pixels can be refreshed in any grouping.
        """
        self.recon_flat[pixels] = estimates
        self.terms[pixels] = neighbour_terms(comp, self.n, self.recon_flat, estimates)

    def _update_reach(self, rows: np.ndarray) -> None:
        self.reach[rows] = self.comp[:, -1].reshape(self.height, self.width)[rows].max(axis=1)

    def _reachable(self, lin: int) -> np.ndarray:
        """Unmeasured pixels, ascending, whose neighbour lists lin could enter."""
        w = self.width
        nr, nc = divmod(lin, w)
        # d2 * N + lin < reach  <=>  d2 <= (reach - lin - 1) // N
        rows = np.arange(self.height)
        span2 = (self.reach - lin - 1) // self.n - (rows - nr) ** 2
        rows = np.flatnonzero(span2 >= 0)
        # below w^2 (< 2^32) the float root floors to the integer root
        span = np.sqrt(np.minimum(span2[rows], w * w)).astype(np.int64)
        lo = np.maximum(nc - span, 0)
        lengths = np.minimum(nc + span, w - 1) - lo + 1
        starts = rows * w + lo - (np.cumsum(lengths) - lengths)
        pixels = np.arange(lengths.sum()) + np.repeat(starts, lengths)
        return pixels[~self.mset.mask.ravel()[pixels]]

    def reconstruction(self) -> Reconstruction:
        return Reconstruction(
            width=self.width,
            height=self.height,
            values=self.recon_flat.reshape(self.height, self.width).copy(),
        )

    def features(self, pixels: np.ndarray) -> np.ndarray:
        """Raw descriptor rows for unmeasured pixels given as linear indices."""
        return compute_feature_matrix(
            self.recon_flat.reshape(self.height, self.width),
            pixels,
            self.terms.take(pixels, axis=0),
            self.cnt.take(pixels),
            self.params,
        )

    def splice(self, lin: int, value: float, pixels: np.ndarray):
        """What measuring value at lin would change among pixels; the state is kept.

        Returns (changed, comp, estimates): the positions in pixels (linear
        indices) of the unmeasured lists lin would enter, those lists with
        lin spliced in, and their IDW estimates with value at lin.  For the
        trial, lin's own list is closed (-1 in its last slot) and its value
        is value, as a measurement leaves them; both are restored after.
        """
        kept = self.comp[lin, -1], self.recon_flat[lin]
        self.comp[lin, -1], self.recon_flat[lin] = -1, value
        comp = self.comp.take(pixels, axis=0)
        changed = neighbors.insert_measurement(comp, pixels, lin, self.width, self.height)
        comp = comp[changed]
        estimates = idw_from_neighbors(comp, self.n, self.recon_flat, self.params.power)
        self.comp[lin, -1], self.recon_flat[lin] = kept
        return changed, comp, estimates

    def measure(self, loc, value: float) -> np.ndarray:
        """Add a measurement; returns the pixels whose neighbour lists changed."""
        lin = self.mset.add(loc, value)
        self.comp[lin, -1] = -1
        self.recon_flat[lin] = value

        r0, r1, c0, c1 = window_bounds(loc, self.width, self.height, self.params.window)
        self.cnt[r0 : r1 + 1, c0 : c1 + 1] += 1

        reachable = self._reachable(lin)
        changed, comp, estimates = self.splice(lin, value, reachable)
        affected = reachable[changed]
        self.comp[affected] = comp
        self._refresh(affected, comp, estimates)
        self._update_reach(np.append(_distinct(affected // self.width), lin // self.width))
        return affected


class _Greedy:
    """Argmax-ERD policy.  After a measurement only the pixels whose descriptor
    inputs could have changed are rescored: prediction is row-stable, so
    that gives the scores a full rescoring would.

    Pixels are scored by _score, as in select_next.  Measured pixels score
    -inf, and row_max holds the largest score of each image row.  best()
    takes the first maximal row, then the first maximal pixel in it: that is
    the lowest linear index among the top scores, np.argmax's tie rule over
    all scores.  A step refreshes the maxima of the rows it rescored and of
    the new pixel's row.
    """

    def __init__(self, state: ReconState, model):
        self.state = state
        self.model = model
        self.scores = np.full(state.n, -np.inf)
        self._rescore(state.mset.unmeasured_indices())
        self.row_max = self._grid().max(axis=1)

    def _grid(self) -> np.ndarray:
        return self.scores.reshape(self.state.height, self.state.width)

    def _rescore(self, pixels: np.ndarray) -> None:
        def features(block):
            return self.state.features(pixels[block])

        _score(self.model, pixels, features, self.scores, self.state.mset.k + 1)

    def best(self):
        r = int(np.argmax(self.row_max))
        c = int(np.argmax(self._grid()[r]))
        return PixelLocation(r, c), float(self.row_max[r])

    def measured(self, loc, affected: np.ndarray) -> None:
        st = self.state
        h, w = st.height, st.width
        self.scores[linear_index(loc, w)] = -np.inf
        # Rescore the window (f6 changed there), the pixels whose lists
        # changed (f3-f5) and their 4-neighbours (f1 and f2 read a changed
        # value one pixel away).  A changed pixel strictly inside the box
        # has its 4-neighbours in the box, so only those on or past its
        # border ring are expanded.  Clipping the neighbours to the grid
        # makes duplicates, which the sort drops.
        r0, r1, c0, c1 = window_bounds(loc, w, h, st.params.window)
        ar, ac = np.divmod(affected, w)
        ring = (ar <= r0) | (ar >= r1) | (ac <= c0) | (ac >= c1)
        ar, ac = ar[ring], ac[ring]
        rr = np.concatenate([ar, np.maximum(ar - 1, 0), np.minimum(ar + 1, h - 1), ar, ar])
        cc = np.concatenate([ac, ac, ac, np.maximum(ac - 1, 0), np.minimum(ac + 1, w - 1)])
        out = (rr < r0) | (rr > r1) | (cc < c0) | (cc > c1)
        outside = _distinct(np.sort(rr[out] * w + cc[out]))
        outside = outside[~st.mset.mask.ravel()[outside]]
        br, bc = np.nonzero(~st.mset.mask[r0 : r1 + 1, c0 : c1 + 1])
        self._rescore(np.concatenate([(br + r0) * w + (bc + c0), outside]))
        rows = _distinct(outside // w)
        rows = np.concatenate([np.arange(r0, r1 + 1), rows[(rows < r0) | (rows > r1)]])
        self.row_max[rows] = self._grid()[rows].max(axis=1)


class _Random:
    """Uniform draws without replacement: a prefix of one permutation of the
    pixels left unmeasured by the seeds."""

    def __init__(self, state: ReconState, rng):
        self.width = state.width
        self._order = iter(rng.permutation(state.mset.unmeasured_indices()))

    def best(self):
        return location_of(int(next(self._order)), self.width), float("nan")

    def measured(self, loc, affected: np.ndarray) -> None:
        pass


def select_next(model, recon: Reconstruction, mset: MeasurementSet):
    """Highest predicted-ERD unmeasured pixel against the given reconstruction.

    Returns (PixelLocation, predicted_erd); ties break to the lowest linear
    index.  Scores every unmeasured pixel from scratch: one neighbour search
    and one window count of mset, then descriptor rows read from recon, scored
    by _score.  A non-finite prediction raises FloatingPointError.
    """
    if (recon.width, recon.height) != (mset.width, mset.height):
        raise ValueError("reconstruction and measurement set dimensions differ")
    if mset.k == mset.width * mset.height:
        raise ValueError("image fully measured")
    w, h, params = mset.width, mset.height, model.idw
    pixels = mset.unmeasured_indices()
    comp = neighbors.knn_measured(pixels, mset.measured_indices(), w, h, params.neighbors)
    values = mset.value_grid().ravel()
    center = recon.values.ravel()
    cnt = measured_counts_grid(mset.mask, params.window)

    def features(block):
        lin = pixels[block]
        terms = neighbour_terms(comp[block], w * h, values, center[lin])
        return compute_feature_matrix(recon.values, lin, terms, cnt.take(lin), params)

    scores = np.full(w * h, -np.inf)
    _score(model, pixels, features, scores, mset.k + 1)
    lin = int(np.argmax(scores))
    return location_of(lin, w), float(scores[lin])


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


def _sample(source, config: RunConfig, ground_truth, policy) -> SamplingRun:
    """Seed uniformly, then measure the policy's choices until the budget.

    policy(state, rng) builds the selector once the seeds are in; rng is the
    generator that drew them.
    """
    if ground_truth is not None and (
        ground_truth.width != source.width or ground_truth.height != source.height
    ):
        raise ValueError("ground truth and source dimensions differ")
    n = source.width * source.height
    budget_k = math.ceil(config.budget_density * n)
    rng = np.random.default_rng(config.seed)
    chosen = rng.choice(n, size=math.ceil(config.initial_density * n), replace=False)
    mset = MeasurementSet(width=source.width, height=source.height)
    history = []
    for lin in chosen:
        loc = location_of(int(lin), source.width)
        value = _query(source, loc, mset.k + 1)
        mset.add(loc, value)
        history.append(HistoryEntry(mset.k, loc, value, float("nan")))
    state = ReconState(mset, config.idw)
    chooser = policy(state, rng)
    pending = [(d, math.ceil(d * n)) for d in config.checkpoint_densities]
    checkpoints = []

    def poll(elapsed_s):
        """Take a Checkpoint for each pending density the measured count has reached."""
        while pending and mset.k >= pending[0][1]:
            recon = state.reconstruction()
            p = d = float("nan")
            if ground_truth is not None:
                p = psnr(ground_truth.values, recon.values)
                d = distortion(ground_truth.values, recon.values)
            density, _ = pending.pop(0)
            checkpoints.append(
                Checkpoint(density, mset.k, recon, mset.mask.copy(), p, d, elapsed_s)
            )

    poll(0.0)

    t0 = time.perf_counter()
    while mset.k < budget_k:
        loc, erd = chooser.best()
        value = _query(source, loc, mset.k + 1)
        chooser.measured(loc, state.measure(loc, value))
        history.append(HistoryEntry(mset.k, loc, value, erd))
        poll(time.perf_counter() - t0)
    wall = time.perf_counter() - t0
    return SamplingRun(
        config=config,
        width=state.width,
        height=state.height,
        history=history,
        checkpoints=checkpoints,
        final_reconstruction=state.reconstruction(),
        final_mask=mset.mask.copy(),
        wall_time_s=wall,
    )


def run_sampling(
    source, model, config: RunConfig, ground_truth: GroundTruthImage = None
) -> SamplingRun:
    """Seed, then greedily measure argmax-ERD pixels until the budget."""
    return _sample(source, config, ground_truth, lambda state, rng: _Greedy(state, model))


def run_random_baseline(
    source, config: RunConfig, ground_truth: GroundTruthImage = None
) -> SamplingRun:
    """Same loop, but locations drawn uniformly without replacement."""
    return _sample(source, config, ground_truth, _Random)


def save_history_csv(run: SamplingRun, path) -> None:
    """Export the measurement order as step,row,col,value,predicted_erd."""
    lines = ["step,row,col,value,predicted_erd"]
    for e in run.history:
        lines.append(
            f"{e.step},{e.location.row},{e.location.col},"
            f"{repr(float(e.value))},{repr(float(e.predicted_erd))}"
        )
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def save_checkpoint_artifacts(run: SamplingRun, out_dir) -> list:
    """Write mask_XXX.pgm / recon_XXX.pgm per checkpoint; returns the paths."""
    paths = []
    for cp in run.checkpoints:
        pct = _artifact_percent(cp.density)
        mask_path = os.path.join(out_dir, f"mask_{pct:03d}.pgm")
        recon_path = os.path.join(out_dir, f"recon_{pct:03d}.pgm")
        save_mask(mask_path, cp.mask)
        save_image(recon_path, cp.reconstruction.values)
        paths.extend([mask_path, recon_path])
    return paths
