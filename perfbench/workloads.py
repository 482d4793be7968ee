"""The benchmark's workloads: one round of work each, its checks and its metrics.

A run repeats whole rounds of one workload, at least the workload's
`rounds`, until the measured work has taken `--seconds`; every round attempts the same operations, so the share
of failed operations is the same in every run.  The seed picks the initial
measurement draw of every sampling run.  The test images, and the training
draws of the pretraining workload (seed 0, as `sparsescan pretrain` uses by
default), are fixed, so quality figures compare like with like across seeds.
"""

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from sparsescan import (
    ErdModel,
    IdwParams,
    MlpConfig,
    RunConfig,
    SimulatedSource,
    TrainingSchedule,
    fit_mlp,
    fit_stats,
    generate_training_db,
    load_model,
    predict_batch,
    reconstruct,
    run_random_baseline,
    run_sampling,
    save_model,
    standardize,
)
from sparsescan.synth import blob_image, generic_texture

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
MODELS = os.path.join(HERE, "models")
OUT = os.path.join(HERE, "out")

IMAGE_SEED = 7  # the fixed test images
TRAIN_SEED = 0  # the training draws and the MLP initialisation of pretraining
PROBE_SEED = 0  # the fixed-input run that shows the stale-checkpoint fault
PROBE_DENSITY = 0.011  # a few greedy steps past the seeds: the fault shows, the probe is cheap
INITIAL_DENSITY = 0.01
SETUP_REPS = 5  # at least, and then more until SETUP_SECONDS have gone by
SETUP_SECONDS = 1.0
SETUP_REPS_MAX = 50
# step_ms_tail: p96 within windows of at least 250 consecutive intervals (so
# at least ten lie beyond it), then the median over the windows, so that a
# second-long stall of the machine moves one window, not the figure
TAIL_WINDOW = 250
TAIL_PCT = 96.0


@dataclass(frozen=True)
class Sampling:
    """A greedy run over a fixed blob image from INITIAL_DENSITY to budget."""

    model: str  # a file under models/; empty for the model a round trains
    size: int
    budget: float
    checkpoints: tuple  # ends at the budget; the others also get a select_next replay
    probe: bool = True  # also check the checkpoint of a short fixed-input run
    rounds: int = 1  # at least this many rounds a run, however short `--seconds`

    def image(self):
        return blob_image(self.size, seed=IMAGE_SEED)

    def config(self, seed, budget=None, checkpoints=None):
        return RunConfig(
            initial_density=INITIAL_DENSITY,
            budget_density=self.budget if budget is None else budget,
            checkpoint_densities=self.checkpoints if checkpoints is None else checkpoints,
            seed=seed,
        )


@dataclass(frozen=True)
class Pretrain:
    """generate_training_db on generic_texture(size) and fit_mlp, then a session
    that samples with the model just trained."""

    size: int
    epochs: int
    session: Sampling
    rounds: int = 1


WORKLOADS = {
    "greedy-nn-128": Sampling("nn.slnm", 128, 0.20, (0.10, 0.15, 0.20)),
    "greedy-lsq-256": Sampling("lsq.slnm", 256, 0.05, (0.03, 0.04, 0.05)),
    # a round of 369 steps lasts about 13 s, too short to average out the
    # drift of a shared core, so a run makes two
    "greedy-svr-64": Sampling("svr.slnm", 64, 0.10, (0.06, 0.08, 0.10), rounds=2),
    "pretrain-nn-128": Pretrain(
        128, 300, Sampling("", 128, 0.20, (0.10, 0.15, 0.20), probe=False)
    ),
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "psnr_db": "dB",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "regress.predict_batch.s": "s",
    "regress.predict_batch.rows": "count",
    "regress.predict_batch.gflop": "GFLOP",
    "regress.predict_batch.gflop_per_s": "GFLOP/s",
    "engine.rows_rescored_per_step": "rows",
    "engine.run_sampling.self_s": "s",
    "neighbors.insert_measurement.s": "s",
    "neighbors.insert_measurement.rows_scanned": "count",
    "neighbors.insert_measurement.rows_changed": "count",
    "neighbors.insert_measurement.changed_per_scanned": "ratio",
    "features.compute_feature_matrix.s": "s",
    "features.compute_feature_matrix.rows": "count",
    "recon.idw_from_neighbors.s": "s",
    "recon.idw_from_neighbors.rows": "count",
    "neighbors.knn_measured.s": "s",
    "neighbors.knn_measured.rows": "count",
    "regress.load_model.s": "s",
    "training.rd_windowed.s": "s",
    "training.rd_windowed.calls": "count",
    "training.RdEvaluator.s": "s",
    "numerics.exact_abs_sum.s": "s",
    "training.generate_training_db.self_s": "s",
    "training.generate_training_db.rows_per_s": "rows/s",
    "regress.fit_mlp.s": "s",
    "regress.fit_mlp.batches_per_s": "batches/s",
    "source.query.s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class TimedSource:
    """The measurement source run_sampling queries; notes when each query came."""

    def __init__(self, image):
        self._sim = SimulatedSource(image)
        self.width = image.width
        self.height = image.height
        self.times = []

    def value(self, s):
        self.times.append(time.perf_counter())
        return self._sim.value(s)


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, args, kwargs)


def flops_per_row(model):
    """2 x the multiply-adds of the model's matrix products for one feature row."""
    t = model.stats.means.shape[0]
    if model.kind == "nn":
        return 2 * sum(w.shape[0] * w.shape[1] for w in model.payload.weights)
    if model.kind == "svr":
        return 2 * model.payload.support_vectors.shape[0] * (t + 1)
    return 2 * t


@dataclass
class Session:
    """One sampling run: what it produced and what it took."""

    model: ErdModel
    image: object
    config: RunConfig
    run: object
    run_s: float
    intervals_ms: np.ndarray  # between consecutive source queries after seeding


def sample(spec, model_path, seed, tracer=None):
    image = spec.image()
    config = spec.config(seed)
    src = TimedSource(image)
    if tracer is not None:
        src.value = tracer.wrap("source.query", src.value)
    model = _call(tracer, "regress.load_model", load_model, model_path)
    t0 = time.perf_counter()
    run = _call(tracer, "engine.run_sampling", run_sampling, src, model, config, ground_truth=image)
    run_s = time.perf_counter() - t0
    k0 = math.ceil(INITIAL_DENSITY * image.pixel_count)
    return Session(model, image, config, run, run_s, np.diff(np.array(src.times[k0:])) * 1e3)


def setup_once(spec, model_path, seed):
    """load_model plus everything run_sampling does before its first greedy query."""
    config = spec.config(seed, budget=INITIAL_DENSITY, checkpoints=())
    t0 = time.perf_counter()
    model = load_model(model_path)
    run_sampling(SimulatedSource(spec.image()), model, config)
    return time.perf_counter() - t0


@dataclass
class Training:
    db: object
    model: ErdModel
    loss: float
    run_s: float  # generate_training_db plus fit_mlp
    batches: int


def train(wl, tracer=None):
    image = generic_texture(wl.size)
    params = IdwParams()
    t0 = time.perf_counter()
    db = _call(tracer, "training.generate_training_db", generate_training_db,
               [image], TrainingSchedule(seed=TRAIN_SEED), params, image_ids=["generic"])
    db_s = time.perf_counter() - t0
    stats = fit_stats(db.features)
    V = standardize(db.features, stats)
    config = MlpConfig(epochs=wl.epochs, seed=TRAIN_SEED)
    t0 = time.perf_counter()
    payload, loss = _call(tracer, "regress.fit_mlp", fit_mlp, V, db.rd, config)
    fit_s = time.perf_counter() - t0
    model = ErdModel(kind="nn", payload=payload, stats=stats, idw=params, pretrained=True)
    batches = wl.epochs * math.ceil(db.n / config.batch_size)
    return Training(db, model, loss, db_s + fit_s, batches)


@dataclass
class Round:
    wall_s: float  # every call into the program the round makes before its checks
    run_s: float  # the workload's main call
    session: Session
    training: Training  # None for the sampling workloads
    model_path: str

    def key(self):
        """Bytes that must not change when tracing is switched on."""
        hist = [(e.step, *e.location, e.value, e.predicted_erd) for e in self.session.run.history]
        parts = [np.array(hist, dtype=np.float64).tobytes()]
        if self.training is not None:
            tr = self.training
            parts += [tr.db.features.tobytes(), tr.db.rd.tobytes()]
            parts += [a.tobytes() for a in tr.model.payload.weights + tr.model.payload.biases]
        return b"".join(parts)


def do_round(wl, seed, tracer=None):
    t0 = time.perf_counter()
    if isinstance(wl, Pretrain):
        path = os.path.join(OUT, f"pretrain-{seed}.slnm")
        tr = train(wl, tracer)
        save_model(tr.model, path)
        ses = sample(wl.session, path, seed, tracer)
        return Round(time.perf_counter() - t0, tr.run_s, ses, tr, path)
    path = os.path.join(MODELS, wl.model)
    ses = sample(wl, path, seed, tracer)
    return Round(time.perf_counter() - t0, ses.run_s, ses, None, path)


class Result:
    def __init__(self):
        self.chk = checks.Checker()
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.notes = []


def check_session(res, ses, rng):
    """The sampling run's history, checkpoints and next choices; returns the last PSNR."""
    run, image, params = ses.run, ses.image, ses.model.idw
    chk = res.chk
    checks.check_history(chk, run, image, ses.config)
    res.attempted += 1
    psnr = float("nan")
    for i, cp in enumerate(run.checkpoints):
        res.attempted += 1
        mset = checks.prefix_set(run.history, cp.step, run.width, run.height)
        chk.expect(np.array_equal(mset.mask, cp.mask), f"checkpoint {cp.density} mask")
        ref = reconstruct(mset, params)
        checks.check_reconstruction(chk, mset, ref, params, rng)
        checks.check_window_exact(chk, run.history[cp.step - 1].location, cp, ref, params)
        stale = int(np.count_nonzero(ref.values != cp.reconstruction.values))
        res.notes.append(f"checkpoint {cp.density:g}: {stale} pixels differ from reconstruct(mask)")
        psnr = checks.check_psnr(chk, cp, image)
        if i < len(run.checkpoints) - 1:
            res.attempted += 1
            checks.check_next_choice(chk, ses.model, run, cp.step, cp.reconstruction, mset)
    return psnr


def check_training(res, wl, tr, path, rng):
    chk = res.chk
    checks.check_training_rows(
        chk, tr.db, generic_texture(wl.size), TrainingSchedule(seed=TRAIN_SEED), tr.model.idw, rng
    )
    r = tr.db.rd
    chk.expect(tr.loss < float(np.sum((r - r.mean()) ** 2)),
               "final epoch loss is not below the targets' sum of squared deviations")
    rows = tr.db.features[:: max(1, tr.db.n // 256)]
    chk.expect(np.array_equal(predict_batch(load_model(path), rows), predict_batch(tr.model, rows)),
               "save_model/load_model changed the predictions")
    res.attempted += 3  # the database, the fit and the round trip


def probe(res, spec, model_path):
    """The checkpoint of a fixed-input run to PROBE_DENSITY against reconstruct(mask).

    The engine re-estimates only pixels inside the window of each new
    measurement, although neighbour lists change farther out, so at low
    density the checkpoint differs from reconstruct(mask).  The input does
    not depend on the seed, so this operation fails in every round until
    that is mended, and it is counted as failed.
    """
    config = RunConfig(
        initial_density=INITIAL_DENSITY,
        budget_density=PROBE_DENSITY,
        checkpoint_densities=(PROBE_DENSITY,),
        seed=PROBE_SEED,
    )
    model = load_model(model_path)
    run = run_sampling(SimulatedSource(spec.image()), model, config)
    cp = run.checkpoints[0]
    ref = reconstruct(checks.prefix_set(run.history, cp.step, run.width, run.height), model.idw)
    stale = int(np.count_nonzero(ref.values != cp.reconstruction.values))
    res.notes.append(f"probe, seed {PROBE_SEED} at {PROBE_DENSITY:g}: {stale} pixels differ")
    res.attempted += 1
    res.failed += int(stale > 0)


def check_round(res, wl, rnd, rng):
    """Every check of a round; returns the PSNR of the session's last checkpoint."""
    if rnd.training is not None:
        check_training(res, wl, rnd.training, rnd.model_path, rng)
    spec = wl.session if isinstance(wl, Pretrain) else wl
    psnr = check_session(res, rnd.session, rng)
    if spec.probe:
        probe(res, spec, rnd.model_path)
    return psnr


def run_timed(wl, seed, seconds):
    """At least `wl.rounds` rounds, and more until their calls into the program
    have taken `seconds`; then the set-ups."""
    spec = wl.session if isinstance(wl, Pretrain) else wl
    res = Result()
    rng = np.random.default_rng([seed, 1])
    rounds, psnrs = [], []
    while sum(r.wall_s for r in rounds) < seconds or len(rounds) < wl.rounds:
        rounds.append(do_round(wl, seed))
        psnrs.append(check_round(res, wl, rounds[-1], rng))
    setups = []
    while len(setups) < SETUP_REPS_MAX and (
        len(setups) < SETUP_REPS or sum(setups) < SETUP_SECONDS
    ):
        setups.append(setup_once(spec, rounds[-1].model_path, seed))
    steps = np.concatenate([r.session.intervals_ms for r in rounds])
    windows = [w for r in rounds for w in np.array_split(
        r.session.intervals_ms, max(1, r.session.intervals_ms.size // TAIL_WINDOW))]
    res.metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r.run_s for r in rounds),
        "step_ms_p50": float(np.percentile(steps, 50)),
        "step_ms_tail": statistics.median(float(np.percentile(w, TAIL_PCT)) for w in windows),
        "psnr_db": statistics.median(psnrs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    res.notes.append(
        f"rounds={len(rounds)} intervals={steps.size} tail windows={len(windows)} setups={len(setups)}"
    )
    return res


def rows_rescored_per_step(tracer):
    """Rows scored per greedy step: each predict call of run_sampling but its first."""
    rows = steps = 0
    seen = set()
    for name, _, _, parent, counts in tracer.spans:
        if (
            name == "regress.predict_batch"
            and parent >= 0
            and tracer.spans[parent][0] == "engine.run_sampling"
        ):
            if parent in seen:
                rows += counts["rows"]
                steps += 1
            seen.add(parent)
    return rows / steps


def layer_metrics(tracer, rnd, plain_wall_s):
    agg = tracer.summary()

    def g(name, key="s"):
        return float(agg[name][key]) if name in agg else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def span_s(name):
        return sum(e - s for n, s, e, _, _ in tracer.spans if n == name)

    rows = g("regress.predict_batch", "rows")
    gflop = rows * flops_per_row(rnd.session.model) / 1e9
    scanned = g("neighbors.insert_measurement", "rows_scanned")
    changed = g("neighbors.insert_measurement", "rows_changed")
    tr = rnd.training
    return {
        "regress.predict_batch.s": g("regress.predict_batch"),
        "regress.predict_batch.rows": rows,
        "regress.predict_batch.gflop": gflop,
        "regress.predict_batch.gflop_per_s": ratio(gflop, g("regress.predict_batch")),
        "engine.rows_rescored_per_step": rows_rescored_per_step(tracer),
        "engine.run_sampling.self_s": g("engine.run_sampling"),
        "neighbors.insert_measurement.s": g("neighbors.insert_measurement"),
        "neighbors.insert_measurement.rows_scanned": scanned,
        "neighbors.insert_measurement.rows_changed": changed,
        "neighbors.insert_measurement.changed_per_scanned": ratio(changed, scanned),
        "features.compute_feature_matrix.s": g("features.compute_feature_matrix"),
        "features.compute_feature_matrix.rows": g("features.compute_feature_matrix", "rows"),
        "recon.idw_from_neighbors.s": g("recon.idw_from_neighbors"),
        "recon.idw_from_neighbors.rows": g("recon.idw_from_neighbors", "rows"),
        "neighbors.knn_measured.s": g("neighbors.knn_measured"),
        "neighbors.knn_measured.rows": g("neighbors.knn_measured", "rows"),
        "regress.load_model.s": g("regress.load_model"),
        "training.rd_windowed.s": g("training.rd_windowed"),
        "training.rd_windowed.calls": g("training.rd_windowed", "calls"),
        "training.RdEvaluator.s": g("training.RdEvaluator"),
        "numerics.exact_abs_sum.s": g("numerics.exact_abs_sum"),
        "training.generate_training_db.self_s": g("training.generate_training_db"),
        "training.generate_training_db.rows_per_s":
            ratio(tr.db.n if tr else 0, span_s("training.generate_training_db")),
        "regress.fit_mlp.s": g("regress.fit_mlp"),
        "regress.fit_mlp.batches_per_s": ratio(tr.batches if tr else 0, span_s("regress.fit_mlp")),
        "source.query.s": g("source.query"),
        "trace.overhead_s": rnd.wall_s - plain_wall_s,
        "trace.coverage": sum(tracer.self_times()) / rnd.wall_s,
    }


def run_traced(wl, seed, trace_path):
    """An untraced and a traced round on the same inputs; the per-layer metrics.

    The spans of the traced round are written to trace_path.
    """
    res = Result()
    rng = np.random.default_rng([seed, 1])
    plain = do_round(wl, seed)
    psnr = check_round(res, wl, plain, rng)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = do_round(wl, seed, tracer)
    check_round(res, wl, traced, rng)
    res.chk.expect(plain.key() == traced.key(), "outputs differ with tracing on")
    res.metrics = layer_metrics(tracer, traced, plain.wall_s)
    # the pretraining round also runs fit_stats, standardize and save_model
    res.chk.expect(
        0.97 <= res.metrics["trace.coverage"] <= 1.0,
        f"self times cover {res.metrics['trace.coverage']:.4f} of the traced wall",
    )
    if not isinstance(wl, Pretrain):
        ses = plain.session
        base = run_random_baseline(SimulatedSource(ses.image), ses.config)
        cp = base.checkpoints[-1]
        rb = checks.own_psnr(ses.image.values, cp.reconstruction.values)
        res.chk.expect(psnr >= rb, f"greedy psnr {psnr} < random baseline {rb}")
        res.notes.append(f"random baseline {rb:.3f} dB, greedy {psnr:.3f} dB")
    tracer.write(trace_path)
    return res
