"""Release gate: one test per shipped guarantee, one printed line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion PASS/FAIL lines alongside the pytest verdicts.  The heavy
ordering checks (criteria 6 and 7) share one pair of trained models.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from sparsescan.cli import main as cli_main
from sparsescan.core import (
    PSNR_CAP_DB,
    MeasurementSet,
    PixelLocation,
    distortion,
    psnr,
    save_image,
)
from sparsescan.engine import (
    RunConfig,
    SimulatedSource,
    run_random_baseline,
    run_sampling,
    save_history_csv,
)
from sparsescan.recon import IdwParams, reconstruct
from sparsescan.regress import save_model
from sparsescan.regress.linear import fit_linear
from sparsescan.regress.mlp import MlpConfig, adam_update, forward, loss_and_gradients
from sparsescan.regress.svr import dual_objective, fit_svr, rbf_kernel
from sparsescan.synth import blob_image, patch_image
from sparsescan.training import RdEvaluator, TrainingSchedule, train_erd_model

from test_regress_svr import full_beta, qp_dual_optimum, toy_dataset

PARAMS = IdwParams(neighbors=10, power=2.0, window=15)


def report(num, label, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def loc_of(lin, width):
    return PixelLocation(int(lin) // width, int(lin) % width)


def random_setup(image, frac, seed):
    rng = np.random.default_rng(seed)
    n = image.pixel_count
    mset = MeasurementSet(width=image.width, height=image.height)
    flat = image.values.ravel()
    for lin in rng.choice(n, size=max(1, int(round(frac * n))), replace=False):
        mset.add(loc_of(lin, image.width), float(flat[lin]))
    return mset


def psnr_at_40(model, image, seed, initial=0.05):
    """PSNR at the 40% checkpoint; model=None runs the random baseline."""
    config = RunConfig(
        initial_density=initial,
        budget_density=0.40,
        checkpoint_densities=(0.40,),
        seed=seed,
        idw=model.idw if model is not None else IdwParams(),
    )
    source = SimulatedSource(image, noise_sigma=0.0, seed=seed)
    if model is None:
        run = run_random_baseline(source, config, ground_truth=image)
    else:
        run = run_sampling(source, model, config, ground_truth=image)
    return run.checkpoints[0].psnr_db


@pytest.fixture(scope="module")
def blob_models():
    """lsq and nn regressors trained on three images from the blob family."""
    train_imgs = [blob_image(size=64, seed=s) for s in (100, 101, 102)]
    schedule = TrainingSchedule(
        densities=(0.05, 0.10, 0.20, 0.30), samples_per_level=120, rd_window=15, seed=0
    )
    t0 = time.perf_counter()
    lsq, _, _ = train_erd_model(train_imgs, schedule, PARAMS, kind="lsq")
    nn, _, _ = train_erd_model(train_imgs, schedule, PARAMS, kind="nn")
    return {"lsq": lsq, "nn": nn, "train_s": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def big_models():
    """nn and svr regressors for the 128x128 runtime envelope."""
    img = blob_image(size=128, seed=50)
    schedule = TrainingSchedule(
        densities=(0.10, 0.20), samples_per_level=80, rd_window=15, seed=0
    )
    nn, _, _ = train_erd_model([img], schedule, PARAMS, kind="nn")
    svr, _, _ = train_erd_model([img], schedule, PARAMS, kind="svr")
    return {"image": img, "nn": nn, "svr": svr}


def test_criterion_1_rd_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for i in range(10):
        image = patch_image(size=32, seed=i)
        mset = random_setup(image, 0.10, seed=1000 + i)
        ev = RdEvaluator(image, mset, PARAMS)
        before = distortion(image.values, reconstruct(mset, PARAMS).values)
        for lin in mset.unmeasured_indices():
            s = loc_of(lin, image.width)
            checked += 1
            # independent oracle: both full reconstructions, built from scratch
            grown = mset.copy()
            grown.add(s, float(image.values[s.row, s.col]))
            want = before - distortion(image.values, reconstruct(grown, PARAMS).values)
            if ev.rd_exact(s) != want or ev.rd_windowed(s, 32) != want:
                mismatches += 1
    image = blob_image(size=64, seed=3)
    mset = random_setup(image, 0.10, seed=7)
    ev = RdEvaluator(image, mset, PARAMS)
    rng = np.random.default_rng(11)
    cands = rng.choice(mset.unmeasured_indices(), size=100, replace=False)
    w15 = [ev.rd_windowed(loc_of(c, image.width), 15) for c in cands]
    exact = [ev.rd_exact(loc_of(c, image.width)) for c in cands]
    rho = float(spearmanr(w15, exact).statistic)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and rho >= 0.95 and elapsed < 30.0
    report(
        1,
        "exact RD == windowed RD (w>=size) == rebuilt distortion drop; w=15 rank-tracks it",
        ok,
        f"{checked} candidates bit-equal, spearman {rho:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_linear_fit_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        V = rng.standard_normal((200, 6))
        R = rng.standard_normal(200)
        theta = fit_linear(V, R).theta
        ref = np.linalg.pinv(V) @ R
        worst = max(worst, float(np.linalg.norm(theta - ref) / np.linalg.norm(ref)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report(2, "least-squares fit matches pseudo-inverse", ok,
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_mlp_numerics():
    # central finite differences across 20 random configurations
    h = 1e-5
    worst_rel = 0.0
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        dims = [6, int(rng.integers(3, 8)), int(rng.integers(3, 8)), 1]
        weights = [rng.standard_normal((a, b)) * 0.6 for a, b in zip(dims[:-1], dims[1:])]
        biases = [rng.standard_normal(b) * 0.2 for b in dims[1:]]
        x = rng.standard_normal((5, 6))
        r = rng.standard_normal(5)
        activation = "relu" if trial % 2 == 0 else "identity"
        _, gw, gb = loss_and_gradients(weights, biases, x, r, activation)

        def loss_at(ws, bs):
            return loss_and_gradients(ws, bs, x, r, activation)[0]

        for li in range(len(weights)):
            for idx in np.ndindex(weights[li].shape):
                wp = [w.copy() for w in weights]
                wp[li][idx] += h
                up = loss_at(wp, biases)
                wp[li][idx] -= 2 * h
                down = loss_at(wp, biases)
                num = (up - down) / (2 * h)
                rel = abs(gw[li][idx] - num) / max(1.0, abs(num))
                worst_rel = max(worst_rel, rel)
            for bi in range(len(biases[li])):
                bp = [b.copy() for b in biases]
                bp[li][bi] += h
                up = loss_at(weights, bp)
                bp[li][bi] -= 2 * h
                down = loss_at(weights, bp)
                num = (up - down) / (2 * h)
                rel = abs(gb[li][bi] - num) / max(1.0, abs(num))
                worst_rel = max(worst_rel, rel)
    grad_ok = worst_rel <= 1e-4

    # one hand-checked Adam step: a zero weight moves by one learning rate
    config = MlpConfig()
    g = -2.5
    updated, m1, v1 = adam_update(0.0, g, 0.0, 0.0, 1, config)
    em = config.beta1 * 0.0 + (1.0 - config.beta1) * g
    ev = config.beta2 * 0.0 + (1.0 - config.beta2) * g * g
    m_hat = em / (1.0 - config.beta1**1)
    v_hat = ev / (1.0 - config.beta2**1)
    expected = 0.0 - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    adam_ok = (
        updated == expected
        and m1 == em
        and v1 == ev
        and abs(updated - 0.001) <= 1e-6
    )

    # identity activation composes to a single affine map
    rng = np.random.default_rng(99)
    dims = [6, 5, 4, 1]
    weights = [rng.standard_normal((a, b)) * 0.5 for a, b in zip(dims[:-1], dims[1:])]
    biases = [rng.standard_normal(b) * 0.3 for b in dims[1:]]
    x = rng.standard_normal((20, 6))
    A = np.eye(6)
    c = np.zeros(6)
    for w, b in zip(weights, biases):
        A = A @ w
        c = c @ w + b
    pred = forward(weights, biases, x, "identity")
    collapse_err = float(np.max(np.abs(pred - (x @ A + c)[:, 0])))
    collapse_ok = collapse_err <= 1e-8

    ok = grad_ok and adam_ok and collapse_ok
    report(3, "MLP gradients, Adam step, identity collapse", ok,
           f"fd rel {worst_rel:.2e}, step {updated:.9f}, collapse {collapse_err:.2e}")


def test_criterion_4_svr_dual_oracle():
    worst_gap = 0.0
    box_ok = True
    for seed in range(20):
        V, R = toy_dataset(seed, n=30)
        model = fit_svr(V, R, c=1.0, epsilon=0.1)
        K = rbf_kernel(V, V, model.gamma)
        beta = full_beta(model, 30)
        ours = dual_objective(K, R, 0.1, beta)
        best = qp_dual_optimum(K, R, 1.0, 0.1)
        worst_gap = max(worst_gap, abs(best - ours))
        box_ok = box_ok and bool(np.all(np.abs(beta) <= 1.0 + 1e-12))
    ok = worst_gap <= 1e-3 and box_ok
    report(4, "pairwise SVR dual within 1e-3 of dense QP, |coeff| <= C", ok,
           f"worst gap {worst_gap:.2e}")


def test_criterion_5_reconstruction_exactness_and_bounds():
    problems = []
    for seed in range(5):
        image = blob_image(size=24, seed=seed)
        mset = random_setup(image, 0.15, seed)
        rec = reconstruct(mset, PARAMS)
        mask = mset.mask
        if not np.array_equal(rec.values[mask], image.values[mask]):
            problems.append(f"seed {seed}: measured pixels not reproduced")
        lo, hi = image.values[mask].min(), image.values[mask].max()
        if rec.values.min() < lo or rec.values.max() > hi:
            problems.append(f"seed {seed}: outside convex bounds")
    image = blob_image(size=16, seed=8)
    full = random_setup(image, 1.0, 0)
    rec = reconstruct(full, PARAMS)
    d = distortion(image.values, rec.values)
    p = psnr(image.values, rec.values)
    if d != 0.0:
        problems.append(f"full sampling distortion {d!r}")
    if p != PSNR_CAP_DB:
        problems.append(f"full sampling psnr {p!r}")
    report(5, "measured-pixel exactness, convex bounds, zero-distortion cap",
           not problems, "; ".join(problems) or "5 masks + full sampling")


def test_criterion_6_same_family_ordering(blob_models):
    t0 = time.perf_counter()
    scores = {"lsq": [], "nn": [], "random": []}
    for img_seed in range(5):
        image = blob_image(size=64, seed=img_seed)
        for rep in range(10):
            scores["lsq"].append(psnr_at_40(blob_models["lsq"], image, rep))
            scores["nn"].append(psnr_at_40(blob_models["nn"], image, rep))
            scores["random"].append(psnr_at_40(None, image, rep))
    means = {k: float(np.mean(v)) for k, v in scores.items()}
    elapsed = time.perf_counter() - t0 + blob_models["train_s"]
    ok = (
        means["lsq"] >= means["random"] + 1.0
        and means["nn"] >= means["random"] + 1.0
        and elapsed < 600.0
    )
    report(6, "greedy lsq and nn beat random by 1 dB on the training family", ok,
           f"lsq {means['lsq']:.2f} nn {means['nn']:.2f} random {means['random']:.2f} dB, "
           f"{elapsed:.0f}s incl. training")


def test_criterion_7_cross_family_ordering(blob_models):
    # Models never saw piecewise-constant imagery; sharp edges and flat
    # regions are structurally unlike the smooth training blobs.  Periodic
    # stripe textures are excluded here: uniform random coverage beats any
    # greedy concentration on them, for the lsq regressor just as for nn.
    image = patch_image(size=64, seed=0)
    nn = float(np.mean([psnr_at_40(blob_models["nn"], image, rep) for rep in range(10)]))
    lsq = float(np.mean([psnr_at_40(blob_models["lsq"], image, rep) for rep in range(10)]))
    rand = float(np.mean([psnr_at_40(None, image, rep) for rep in range(10)]))
    ok = nn >= rand
    report(7, "nn transfers to an unseen family at least as well as random", ok,
           f"nn {nn:.2f} random {rand:.2f} lsq {lsq:.2f} dB (lsq recorded, not required)")


def test_criterion_8_determinism(tmp_path):
    problems = []

    # byte-identical model files from identical training runs
    train_img = blob_image(size=32, seed=20)
    schedule = TrainingSchedule(densities=(0.1, 0.3), samples_per_level=40, rd_window=15, seed=4)
    paths = []
    for tag in ("a", "b"):
        model, _, _ = train_erd_model([train_img], schedule, PARAMS, kind="lsq")
        p = tmp_path / f"model_{tag}.slnm"
        save_model(model, p)
        paths.append(p)
    if paths[0].read_bytes() != paths[1].read_bytes():
        problems.append("model files differ")
    model_path = paths[0]

    # byte-identical history CSVs from identical runs
    image = blob_image(size=24, seed=21)
    config = RunConfig(
        initial_density=0.05, budget_density=0.25, checkpoint_densities=(0.25,),
        seed=5, idw=PARAMS,
    )
    from sparsescan.regress import load_model

    model = load_model(model_path)
    hist = []
    for tag in ("a", "b"):
        run = run_sampling(
            SimulatedSource(image, noise_sigma=0.5, seed=5), model, config, ground_truth=image
        )
        p = tmp_path / f"history_{tag}.csv"
        save_history_csv(run, p)
        hist.append(p.read_bytes())
    if hist[0] != hist[1]:
        problems.append("history CSVs differ")

    # byte-identical evaluation reports through the CLI
    img_path = tmp_path / "img.pgm"
    save_image(img_path, image.values)
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.csv"
        rc = cli_main(
            [
                "eval", "--model", str(model_path), "--method", "random",
                "--image", str(img_path), "--initial", "0.05", "--budget", "0.2",
                "--densities", "0.1,0.2", "--repeats", "2", "--seed", "0",
                "--no-walltime", "--out", str(out),
            ]
        )
        if rc != 0:
            problems.append(f"eval exited {rc}")
        reports.append(out.read_bytes())
    if reports[0] != reports[1]:
        problems.append("eval reports differ")

    report(8, "models, histories and reports are run-to-run stable",
           not problems, "; ".join(problems) or "all byte-identical")


def test_criterion_9_runtime_envelope(big_models):
    image = big_models["image"]

    def timed_run(model):
        config = RunConfig(
            initial_density=0.01, budget_density=0.40, checkpoint_densities=(0.40,),
            seed=0, idw=model.idw,
        )
        source = SimulatedSource(image, noise_sigma=0.0, seed=0)
        t0 = time.perf_counter()
        run = run_sampling(source, model, config, ground_truth=image)
        return time.perf_counter() - t0, run

    nn_s, nn_run = timed_run(big_models["nn"])
    svr_s, _ = timed_run(big_models["svr"])
    ok = nn_s < 60.0 and svr_s < 600.0 and nn_run.measured_count == int(np.ceil(0.4 * 128 * 128))
    report(9, "128x128 run to 40%: nn under 60s, svr under 10x that", ok,
           f"nn {nn_s:.1f}s, svr {svr_s:.1f}s single-threaded")
