"""Quick tests of the benchmark itself (seconds, not minutes).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

A tiny configuration runs the path of every workload, timed and traced, and
each check is shown to reject a planted error.
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import workloads as W  # noqa: E402
from sparsescan import IdwParams, TrainingSchedule, generate_training_db, reconstruct  # noqa: E402
from sparsescan.synth import generic_texture  # noqa: E402

TINY = {
    "greedy-nn": W.Sampling("nn.slnm", 24, 0.25, (0.15, 0.25)),
    "greedy-lsq": W.Sampling("lsq.slnm", 32, 0.2, (0.1, 0.2)),
    "greedy-svr": W.Sampling("svr.slnm", 16, 0.3, (0.2, 0.3)),
    "pretrain-nn": W.Pretrain(20, 2, W.Sampling("", 20, 0.3, (0.2, 0.3), probe=False)),
}


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(W, "OUT", str(tmp_path))
    monkeypatch.setattr(W, "SETUP_REPS", 2)


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_reports_every_end_to_end_metric(name):
    res = W.run_timed(TINY[name], seed=3, seconds=0)
    assert res.chk.ok, res.chk.problems
    assert set(res.metrics) == set(W.END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in res.metrics.values()), res.metrics
    assert res.attempted >= 3 and 0 <= res.failed <= 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    path = str(tmp_path / "trace.json")
    res = W.run_traced(TINY[name], seed=3, trace_path=path)
    assert res.chk.ok, res.chk.problems
    assert set(res.metrics) == set(W.PER_LAYER)
    assert res.metrics["regress.predict_batch.rows"] > 0
    assert os.path.getsize(path) > 0
    if name.startswith("pretrain"):
        assert res.metrics["training.rd_windowed.calls"] > 0


def test_operations_do_not_depend_on_the_seed():
    runs = [W.run_timed(TINY["greedy-lsq"], seed=seed, seconds=0) for seed in (4, 5)]
    assert len({(r.attempted, r.failed) for r in runs}) == 1


def _tiny_session():
    spec = TINY["greedy-nn"]
    return W.sample(spec, os.path.join(W.MODELS, spec.model), seed=2)


def test_check_history_rejects_a_repeated_location():
    ses = _tiny_session()
    chk = checks.Checker()
    checks.check_history(chk, ses.run, ses.image, ses.config)
    assert chk.ok, chk.problems
    hist = ses.run.history
    hist[-1] = type(hist[-1])(hist[-1].step, hist[-2].location, hist[-2].value, hist[-1].predicted_erd)
    checks.check_history(chk, ses.run, ses.image, ses.config)
    assert any("measured twice" in p for p in chk.problems)


def test_window_and_psnr_checks_reject_one_altered_pixel():
    ses = _tiny_session()
    cp = ses.run.checkpoints[-1]
    mset = checks.prefix_set(ses.run.history, cp.step, ses.run.width, ses.run.height)
    ref = reconstruct(mset, ses.model.idw)
    last = ses.run.history[cp.step - 1].location
    chk = checks.Checker()
    checks.check_window_exact(chk, last, cp, ref, ses.model.idw)
    checks.check_psnr(chk, cp, ses.image)
    assert chk.ok, chk.problems
    unmeasured = np.argwhere(~cp.mask)
    near = unmeasured[np.argmin(np.abs(unmeasured - np.array(last)).max(axis=1))]
    cp.reconstruction.values[tuple(near)] += 1.0
    checks.check_window_exact(chk, last, cp, ref, ses.model.idw)
    checks.check_psnr(chk, cp, ses.image)
    assert any("inside the last window" in p for p in chk.problems)
    assert any(p.startswith("psnr") for p in chk.problems)


def test_training_check_rejects_an_rd_row_one_grey_level_off():
    image = generic_texture(20)
    schedule = TrainingSchedule(samples_per_level=4)
    params = IdwParams()
    db = generate_training_db([image], schedule, params)
    rng = np.random.default_rng(0)
    chk = checks.Checker()
    checks.check_training_rows(chk, db, image, schedule, params, rng, rows_per_block=4)
    assert chk.ok, chk.problems
    db.rd[9] += 1.0
    checks.check_training_rows(chk, db, image, schedule, params, rng, rows_per_block=4)
    assert chk.problems and all(p.startswith("RD row 9") for p in chk.problems)


def test_brute_force_idw_matches_reconstruct():
    ses = _tiny_session()
    mset = checks.prefix_set(ses.run.history, len(ses.run.history), ses.run.width, ses.run.height)
    ref = reconstruct(mset, ses.model.idw)
    chk = checks.Checker()
    checks.check_reconstruction(chk, mset, ref, ses.model.idw, np.random.default_rng(1))
    assert chk.ok, chk.problems
    ref.values[tuple(np.argwhere(~mset.mask)[0])] += 0.5
    checks.check_reconstruction(chk, mset, ref, ses.model.idw, np.random.default_rng(1), samples=10**6)
    assert any("brute-force" in p for p in chk.problems)
