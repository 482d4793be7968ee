"""Checks of the program's outputs against independent computations.

Nothing here compares with saved copies of earlier output: each check
recomputes what the output must be from the inputs, by a route of its own
(a from-scratch reconstruction, a brute-force IDW, an MSE summed here, a
replay of the seed draw) or tests a property the method guarantees.
"""

import math

import numpy as np

from sparsescan import MeasurementSet, extract_features, reconstruct, select_next


class Checker:
    """Collects failed checks; `ok` is true while none has failed."""

    def __init__(self):
        self.problems = []

    def expect(self, cond, what):
        if not cond:
            self.problems.append(what)
        return bool(cond)

    @property
    def ok(self):
        return not self.problems


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def prefix_set(history, k, width, height):
    mset = MeasurementSet(width=width, height=height)
    for e in history[:k]:
        mset.add(e.location, e.value)
    return mset


def brute_idw(mset, params, pixels):
    """IDW at the given (row, col) pixels by scanning every measured pixel."""
    n = mset.width * mset.height
    meas = np.flatnonzero(mset.mask.ravel())
    mr, mc = np.divmod(meas, mset.width)
    vals = mset.value_grid().ravel()[meas]
    out = []
    for r, c in pixels:
        d2 = (mr - r) ** 2 + (mc - c) ** 2
        order = np.argsort(d2 * n + meas, kind="stable")[: params.neighbors]
        w = d2[order].astype(np.float64) ** (-0.5 * params.power)
        out.append(math.fsum(w * vals[order]) / math.fsum(w))
    return np.array(out)


def own_psnr(truth, recon):
    """PSNR against a 255 peak from an MSE summed here with math.fsum."""
    diff = (np.asarray(truth, dtype=np.float64) - recon).ravel()
    mse = math.fsum((diff * diff).tolist()) / diff.size
    return 10.0 * math.log10(255.0 * 255.0 / mse)


def check_history(chk, run, image, config):
    """Length, distinct locations, the seed prefix and the measured values."""
    w, h = image.width, image.height
    n = w * h
    hist = run.history
    chk.expect(len(hist) == math.ceil(config.budget_density * n), "history length != ceil(budget*N)")
    lins = [e.location.row * w + e.location.col for e in hist]
    chk.expect(len(set(lins)) == len(lins), "a location is measured twice")
    k0 = math.ceil(config.initial_density * n)
    seed = np.random.default_rng(config.seed).choice(n, size=k0, replace=False)
    chk.expect(lins[:k0] == seed.tolist(), "seed prefix differs from default_rng(seed).choice")
    chk.expect(
        all(e.value == image.values[e.location.row, e.location.col] for e in hist),
        "a measured value differs from the ground-truth pixel",
    )
    chk.expect([e.step for e in hist] == list(range(1, len(hist) + 1)), "steps are not 1..k")


def check_window_exact(chk, loc, cp, ref, params):
    """Measured pixels and the window around the last measurement are exact.

    The engine re-estimates that window from exact neighbour lists after
    every measurement, so there the checkpoint must equal reconstruct(mask)
    bit for bit at any density.
    """
    r, c = loc
    w = params.window
    win = (slice(max(r - w, 0), r + w + 1), slice(max(c - w, 0), c + w + 1))
    chk.expect(
        np.array_equal(cp.reconstruction.values[win], ref.values[win]),
        f"checkpoint {cp.density} differs from reconstruct(mask) inside the last window",
    )
    chk.expect(
        np.array_equal(cp.reconstruction.values[cp.mask], ref.values[cp.mask]),
        f"checkpoint {cp.density} changed a measured pixel",
    )


def check_reconstruction(chk, mset, ref, params, rng, samples=64):
    """reconstruct(mask) against a brute-force IDW on a sample of pixels."""
    unmeas = mset.unmeasured_indices()
    pick = rng.choice(unmeas, size=min(samples, unmeas.size), replace=False)
    pixels = [divmod(int(p), mset.width) for p in pick]
    got = np.array([ref.values[r, c] for r, c in pixels])
    chk.expect(
        np.allclose(got, brute_idw(mset, params, pixels), rtol=1e-12, atol=1e-9),
        "reconstruct(mask) disagrees with the brute-force IDW",
    )
    meas = mset.measured_indices()
    chk.expect(
        np.array_equal(ref.values.ravel()[meas], mset.value_grid().ravel()[meas]),
        "reconstruct(mask) changed a measured pixel",
    )


def check_psnr(chk, cp, image):
    """The checkpoint's PSNR against the benchmark's own MSE; returns that PSNR."""
    p = own_psnr(image.values, cp.reconstruction.values)
    chk.expect(math.isclose(p, cp.psnr_db, rel_tol=1e-9), f"psnr {cp.psnr_db} != own {p}")
    return p


def check_next_choice(chk, model, run, step, recon, mset):
    """select_next on the replayed prefix gives the history's next entry, bit for bit."""
    loc, erd = select_next(model, recon, mset)
    nxt = run.history[step]
    return chk.expect(
        tuple(loc) == tuple(nxt.location) and same_bits(erd, nxt.predicted_erd),
        f"select_next at step {step} gave {tuple(loc)}/{erd!r}, the loop took "
        f"{tuple(nxt.location)}/{nxt.predicted_erd!r}",
    )


def training_block(image, provenance_entry, samples_per_level):
    """Replays one block's seeded draws: (measurement set, candidate indices)."""
    _, density, seed = provenance_entry
    n = image.pixel_count
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=math.ceil(density * n), replace=False)
    mset = MeasurementSet(width=image.width, height=image.height)
    truth = image.values.ravel()
    for lin in chosen:
        mset.add(divmod(int(lin), image.width), float(truth[lin]))
    unmeas = mset.unmeasured_indices()
    cand = rng.choice(unmeas, size=min(samples_per_level, unmeas.size), replace=False)
    return mset, cand


def windowed_rd(image, mset, before, lin, params, halfwidth):
    """Drop in windowed absolute error between two full reconstruct calls.

    `before` is reconstruct(mset, params).values.
    """
    r, c = divmod(int(lin), image.width)
    after_set = mset.copy()
    after_set.add((r, c), float(image.values[r, c]))
    after = reconstruct(after_set, params).values
    win = (
        slice(max(r - halfwidth, 0), min(r + halfwidth, image.height - 1) + 1),
        slice(max(c - halfwidth, 0), min(c + halfwidth, image.width - 1) + 1),
    )
    truth = image.values[win]
    return math.fsum(np.abs(truth - before[win]).ravel().tolist()) - math.fsum(
        np.abs(truth - after[win]).ravel().tolist()
    )


def check_training_rows(chk, db, image, schedule, params, rng, rows_per_block=1):
    """Sampled RD and feature rows against independent recomputation."""
    start = 0
    for entry in db.provenance:
        mset, cand = training_block(image, entry, schedule.samples_per_level)
        recon = reconstruct(mset, params)
        for j in rng.choice(cand.size, size=min(rows_per_block, cand.size), replace=False):
            row = start + int(j)
            rd = windowed_rd(image, mset, recon.values, cand[j], params, schedule.rd_window)
            chk.expect(same_bits(rd, db.rd[row]), f"RD row {row}: {db.rd[row]!r} != {rd!r}")
            fv = extract_features(recon, mset, divmod(int(cand[j]), image.width), params)
            chk.expect(
                np.array_equal(fv.values, db.features[row]),
                f"feature row {row} differs from extract_features",
            )
        start += cand.size
    chk.expect(start == db.n, "training rows do not add up to the schedule")
