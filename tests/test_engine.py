"""Tests for the greedy sampling loop, baselines and run artifacts."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from sparsescan import engine, neighbors, numerics
from sparsescan.core import (
    PSNR_CAP_DB,
    DuplicateMeasurementError,
    GroundTruthImage,
    MeasurementSet,
    OutOfBoundsError,
    PixelLocation,
    Reconstruction,
    psnr,
    save_image,
)
from sparsescan.engine import (
    ReconState,
    RunConfig,
    SimulatedSource,
    SourceQueryError,
    _Greedy,
    run_random_baseline,
    run_sampling,
    save_checkpoint_artifacts,
    save_history_csv,
    select_next,
)
from sparsescan.features import FeatureStats, extract_features, neighbour_terms
from sparsescan.recon import IdwParams, reconstruct, window_bounds
from sparsescan.regress import ErdModel, LinearModel, MlpModel, fit_svr, predict_batch
from sparsescan.regress.mlp import init_params
from sparsescan.synth import blob_image
from sparsescan.training import RdEvaluator, TrainingSchedule, train_erd_model

PARAMS = IdwParams(neighbors=10, power=2.0, window=15)


def linear_model(theta, means=None, stds=None, params=PARAMS):
    """Hand-built lsq scorer; identity standardization unless overridden."""
    return ErdModel(
        kind="lsq",
        payload=LinearModel(theta=np.asarray(theta, dtype=np.float64)),
        stats=FeatureStats(
            means=np.zeros(6) if means is None else np.asarray(means, dtype=np.float64),
            stds=np.ones(6) if stds is None else np.asarray(stds, dtype=np.float64),
        ),
        idw=params,
    )


def distance_model(params=PARAMS):
    theta = np.zeros(6)
    theta[4] = 1.0  # score = distance to the nearest measurement
    return linear_model(theta, params=params)


def untrained_nn(params):
    """SLADS-Net scorer with seeded initial weights."""
    weights, biases = init_params(6, seed=4)
    return ErdModel(
        kind="nn",
        payload=MlpModel(weights=tuple(weights), biases=tuple(biases), activation="relu"),
        stats=FeatureStats(means=np.zeros(6), stds=np.full(6, 20.0)),
        idw=params,
    )


def fitted_svr(params):
    """svr scorer fitted to 300 random rows; its support vectors fill more
    than one slab of the kernel."""
    rng = np.random.default_rng(6)
    payload = fit_svr(rng.standard_normal((300, 6)), rng.standard_normal(300), epsilon=0.01)
    assert payload.support_vectors.shape[0] > numerics.ROW_TILE
    return ErdModel(
        kind="svr",
        payload=payload,
        stats=FeatureStats(means=np.zeros(6), stds=np.full(6, 20.0)),
        idw=params,
    )


def seeded_mask(image, count, seed):
    rng = np.random.default_rng(seed)
    mset = MeasurementSet(width=image.width, height=image.height)
    flat = image.values.ravel()
    for lin in rng.choice(image.pixel_count, size=count, replace=False):
        mset.add(PixelLocation(int(lin) // image.width, int(lin) % image.width), float(flat[lin]))
    return mset


@pytest.fixture(scope="module")
def trained_lsq():
    image = blob_image(size=24, seed=0)
    schedule = TrainingSchedule(densities=(0.1, 0.3), samples_per_level=40)
    model, _, _ = train_erd_model([image], schedule, PARAMS, kind="lsq")
    return model


class TestSimulatedSource:
    def test_noiseless_returns_truth_exactly(self):
        image = blob_image(size=8, seed=1)
        src = SimulatedSource(image)
        for loc in [(0, 0), (3, 5), (7, 7)]:
            assert src.value(loc) == image.values[loc]

    def test_noise_is_frozen_per_location(self):
        image = blob_image(size=8, seed=1)
        src = SimulatedSource(image, noise_sigma=4.0, seed=3)
        first = [src.value((r, c)) for r in range(8) for c in range(8)]
        second = [src.value((r, c)) for r in range(8) for c in range(8)]
        assert first == second
        assert any(v != image.values[divmod(i, 8)] for i, v in enumerate(first))

    def test_noise_seed_changes_field(self):
        image = blob_image(size=8, seed=1)
        a = SimulatedSource(image, noise_sigma=4.0, seed=0)
        b = SimulatedSource(image, noise_sigma=4.0, seed=1)
        assert a.value((2, 2)) != b.value((2, 2))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            SimulatedSource(blob_image(size=8, seed=1), noise_sigma=-1.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")], ids=("nan", "inf"))
    def test_non_finite_sigma_rejected(self, sigma):
        # NaN passes a sign test and would sample without noise; an infinite
        # sigma would fail only at the first query
        with pytest.raises(ValueError, match="finite"):
            SimulatedSource(blob_image(size=8, seed=1), noise_sigma=sigma)

    @pytest.mark.parametrize("loc", [(-1, 0), (0, -1), (-1, -1), (6, 0), (0, 8), (6, 8)])
    def test_location_outside_the_grid_rejected(self, loc):
        # 6 rows x 8 columns, so a swapped bound shows; numpy alone would
        # wrap a negative index round to the far edge
        image = GroundTruthImage.from_array(blob_image(size=8, seed=1).values[:6])
        src = SimulatedSource(image)
        with pytest.raises(ValueError, match=re.escape(f"{loc} outside 8x6 grid")):
            src.value(loc)
        with pytest.raises(SourceQueryError, match="step 3"):
            engine._query(src, loc, 3)


class TestLocationCheck:
    """Each entry point that takes an unmeasured pixel checks it through
    MeasurementSet.unmeasured_index, so all raise the same two errors."""

    @pytest.mark.parametrize("name", ["measure", "rd_windowed", "rd_exact", "extract_features"])
    def test_measured_and_outside_pixels_rejected(self, name):
        # 6 rows x 8 columns, so a swapped bound shows
        image = GroundTruthImage.from_array(blob_image(size=8, seed=1).values[:6])
        mset = seeded_mask(image, 5, seed=0)
        call = {
            "measure": lambda loc: ReconState(mset.copy(), PARAMS).measure(loc, 1.0),
            "rd_windowed": lambda loc: RdEvaluator(image, mset, PARAMS).rd_windowed(loc, 3),
            "rd_exact": lambda loc: RdEvaluator(image, mset, PARAMS).rd_exact(loc),
            "extract_features": lambda loc: extract_features(
                reconstruct(mset, PARAMS), mset, loc, PARAMS
            ),
        }[name]
        measured = divmod(int(mset.measured_indices()[0]), 8)
        with pytest.raises(DuplicateMeasurementError):
            call(measured)
        for loc in [(-1, 0), (0, -1), (6, 0), (0, 8)]:
            with pytest.raises(OutOfBoundsError):
                call(loc)
        assert mset.k == 5


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.initial_density == 0.01 and cfg.budget_density == 0.40

    def test_initial_may_equal_budget(self):
        RunConfig(initial_density=0.2, budget_density=0.2, checkpoint_densities=(0.2,))

    def test_checkpoints_come_back_sorted(self):
        cfg = RunConfig(checkpoint_densities=(0.3, 0.1, 0.2))
        assert cfg.checkpoint_densities == (0.1, 0.2, 0.3)

    def test_rejections(self):
        with pytest.raises(ValueError):
            RunConfig(initial_density=0.5, budget_density=0.4)
        with pytest.raises(ValueError):
            RunConfig(initial_density=0.0)
        with pytest.raises(ValueError):
            RunConfig(checkpoint_densities=(0.5,))  # beyond default budget
        with pytest.raises(ValueError):
            RunConfig(checkpoint_densities=(0.0, 0.4))

    def test_rejects_checkpoints_sharing_an_artifact_name(self):
        # artifacts are named by whole percent: 0.10 and 0.104 are both mask_010
        for densities in ((0.10, 0.104), (0.20, 0.20), (0.095, 0.10)):
            with pytest.raises(ValueError, match="same whole percent"):
                RunConfig(checkpoint_densities=densities)
        RunConfig(checkpoint_densities=(0.10, 0.11, 0.115))  # 10, 11, 12 percent


class TestSelectNext:
    def test_single_remaining_pixel_wins_regardless_of_model(self):
        image = blob_image(size=4, seed=2)
        mset = MeasurementSet(width=4, height=4)
        flat = image.values.ravel()
        for lin in range(15):  # leave only the last pixel
            mset.add(PixelLocation(lin // 4, lin % 4), float(flat[lin]))
        recon = reconstruct(mset, PARAMS)
        loc, _ = select_next(distance_model(), recon, mset)
        assert loc == PixelLocation(3, 3)

    def test_distance_scorer_picks_farthest_pixel(self):
        # exhaustive oracle: brute-force nearest-measurement distance per
        # unmeasured pixel, argmax with ties to the lowest linear index
        image = blob_image(size=16, seed=3)
        for seed in range(5):
            mset = seeded_mask(image, 12, seed)
            recon = reconstruct(mset, PARAMS)
            measured = np.argwhere(mset.mask)
            best_lin, best_d = None, -1.0
            for lin in mset.unmeasured_indices():
                r, c = divmod(int(lin), 16)
                d = math.sqrt(min((r - mr) ** 2 + (c - mc) ** 2 for mr, mc in measured))
                if d > best_d:
                    best_lin, best_d = lin, d
            loc, score = select_next(distance_model(), recon, mset)
            assert (loc.row * 16 + loc.col) == best_lin
            assert score == pytest.approx(best_d, rel=1e-12)

    def test_flat_scores_fall_back_to_lowest_index(self):
        image = blob_image(size=8, seed=4)
        mset = seeded_mask(image, 10, 0)
        recon = reconstruct(mset, PARAMS)
        loc, score = select_next(linear_model(np.zeros(6)), recon, mset)
        assert score == 0.0
        assert loc.row * 8 + loc.col == int(mset.unmeasured_indices()[0])

    def test_argmax_survives_increasing_transforms(self):
        # second model scores 2x+2 of the first: same winner every time
        image = blob_image(size=16, seed=5)
        plain = distance_model()
        theta = np.zeros(6)
        theta[4] = 1.0
        means = np.zeros(6)
        means[4] = -1.0
        stds = np.ones(6)
        stds[4] = 0.5
        scaled = linear_model(theta, means=means, stds=stds)
        for seed in range(5):
            mset = seeded_mask(image, 20, seed)
            recon = reconstruct(mset, PARAMS)
            assert select_next(plain, recon, mset)[0] == select_next(scaled, recon, mset)[0]

    def test_scores_the_given_reconstruction(self, trained_lsq):
        # exhaustive oracle: the single-pixel descriptor of every unmeasured
        # pixel against a reconstruction that is not reconstruct(mset),
        # scored row by row, argmax with ties to the lowest linear index
        image = blob_image(size=16, seed=11)
        params = trained_lsq.idw
        for seed, model in enumerate((trained_lsq, untrained_nn(params), trained_lsq)):
            mset = seeded_mask(image, 20 + 5 * seed, seed)
            exact = reconstruct(mset, params)
            noise = np.random.default_rng(seed).normal(0.0, 8.0, exact.values.shape)
            recon = Reconstruction(width=16, height=16, values=exact.values + noise)
            locs = [PixelLocation(*divmod(int(p), 16)) for p in mset.unmeasured_indices()]
            rows = [extract_features(recon, mset, s, params).values for s in locs]
            scores = np.concatenate([predict_batch(model, row[None, :]) for row in rows])
            best = int(np.argmax(scores))
            loc, erd = select_next(model, recon, mset)
            assert (loc, erd.hex()) == (locs[best], scores[best].hex())
            assert erd != select_next(model, exact, mset)[1]

    def test_errors(self, trained_lsq):
        image = blob_image(size=4, seed=0)
        full = MeasurementSet(width=4, height=4)
        flat = image.values.ravel()
        for lin in range(15):
            full.add(PixelLocation(lin // 4, lin % 4), float(flat[lin]))
        recon = reconstruct(full, PARAMS)
        full.add(PixelLocation(3, 3), float(flat[15]))
        with pytest.raises(ValueError):
            select_next(trained_lsq, recon, full)
        with pytest.raises(ValueError):
            select_next(trained_lsq, recon, MeasurementSet(width=4, height=4))
        other = seeded_mask(blob_image(size=8, seed=1), 5, 0)
        with pytest.raises(ValueError):
            select_next(trained_lsq, recon, other)


class TestRunSampling:
    def small_config(self, **kw):
        base = dict(
            initial_density=0.05,
            budget_density=0.30,
            checkpoint_densities=(0.10, 0.30),
            seed=0,
            idw=PARAMS,
        )
        base.update(kw)
        return RunConfig(**base)

    def test_budget_equal_to_initial_means_no_greedy_steps(self, trained_lsq):
        image = blob_image(size=16, seed=7)
        cfg = RunConfig(
            initial_density=0.1, budget_density=0.1, checkpoint_densities=(0.1,), idw=PARAMS
        )
        run = run_sampling(SimulatedSource(image), trained_lsq, cfg, ground_truth=image)
        assert run.measured_count == math.ceil(0.1 * 256)
        assert all(math.isnan(e.predicted_erd) for e in run.history)

    def test_history_shape_and_distinctness(self, trained_lsq):
        image = blob_image(size=16, seed=8)
        run = run_sampling(SimulatedSource(image), trained_lsq, self.small_config(), image)
        assert run.measured_count == math.ceil(0.30 * 256)
        locs = [e.location for e in run.history]
        assert len(set(locs)) == len(locs)
        assert [e.step for e in run.history] == list(range(1, len(locs) + 1))
        seeds = math.ceil(0.05 * 256)
        assert all(math.isnan(e.predicted_erd) for e in run.history[:seeds])
        assert all(math.isfinite(e.predicted_erd) for e in run.history[seeds:])

    def test_runs_are_byte_identical(self, trained_lsq, tmp_path):
        image = blob_image(size=16, seed=9)
        paths = []
        for name in ("a.csv", "b.csv"):
            run = run_sampling(
                SimulatedSource(image, noise_sigma=1.0, seed=4),
                trained_lsq,
                self.small_config(seed=2),
                image,
            )
            p = tmp_path / name
            save_history_csv(run, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @staticmethod
    def assert_caches_match_rebuild(state, policy):
        """The incremental neighbour lists equal a from-scratch kNN search;
        every active pixel's cached list terms equal neighbour_terms of that
        search against its estimate, and the whole reconstruction equals
        reconstruct(mset), bit for bit; every measured pixel's last
        composite slot holds the reach key -1; and the per-row reach and
        score maxima equal their recomputation."""
        h, w = state.height, state.width
        active = state.mset.unmeasured_indices()
        assert np.all(state.comp[state.mset.measured_indices(), -1] == -1)
        if active.size:
            rebuilt = neighbors.knn_measured(
                active, state.mset.measured_indices(), w, h, state.params.neighbors
            )
            np.testing.assert_array_equal(state.comp[active], rebuilt)
            values = state.mset.value_grid().ravel()
            fresh = neighbour_terms(rebuilt, state.n, values, state.recon_flat[active])
            assert state.terms[active].tobytes() == fresh.tobytes()
        ref = reconstruct(state.mset, state.params).values.ravel()
        assert state.recon_flat.tobytes() == ref.tobytes()
        unmeasured = ~state.mset.mask
        reach = np.where(unmeasured, state.comp[:, -1].reshape(h, w), -1).max(axis=1)
        np.testing.assert_array_equal(state.reach, reach)
        row_max = np.where(unmeasured, policy.scores.reshape(h, w), -np.inf).max(axis=1)
        np.testing.assert_array_equal(policy.row_max, row_max)

    @staticmethod
    def assert_each_step_matches_select_next(model, image, config):
        """Drive the engine's state as run_sampling does.  At every step the
        lazily rescored argmax of the incremental state must equal
        select_next, which searches the neighbour lists, counts the windows
        and scores every row from scratch, against the same reconstruction:
        location and predicted-ERD bits.  Every
        kept score must equal a rescoring of a rebuilt state, bit for bit,
        and the neighbour lists and per-row caches their recomputation."""
        assert config.idw == model.idw  # select_next reconstructs with the model's params
        n = image.pixel_count
        mset = seeded_mask(image, math.ceil(config.initial_density * n), config.seed)
        state = ReconState(mset, config.idw)
        policy = _Greedy(state, model)
        erds = []
        while mset.k < math.ceil(config.budget_density * n):
            TestRunSampling.assert_caches_match_rebuild(state, policy)
            loc, erd = policy.best()
            recon = state.reconstruction()
            ref_loc, ref_erd = select_next(model, recon, mset)
            assert (loc, erd.hex()) == (ref_loc, ref_erd.hex()), f"step {mset.k + 1}"
            rebuilt = ReconState(mset, config.idw)
            assert rebuilt.recon_flat.tobytes() == recon.values.tobytes()
            full = predict_batch(model, rebuilt.features(mset.unmeasured_indices()))
            np.testing.assert_array_equal(policy.scores[mset.unmeasured_indices()], full)
            policy.measured(loc, state.measure(loc, float(image.values[loc])))
            erds.append(erd)
        TestRunSampling.assert_caches_match_rebuild(state, policy)
        # the steps replayed here are the ones run_sampling takes
        run = run_sampling(SimulatedSource(image), model, config, image)
        assert [(e.location, e.value) for e in run.history] == mset.entries
        assert [e.predicted_erd for e in run.history[len(run.history) - len(erds) :]] == erds
        return len(erds)

    def test_each_step_matches_select_next(self, trained_lsq):
        image = blob_image(size=16, seed=10)
        assert self.assert_each_step_matches_select_next(trained_lsq, image, self.small_config())

    def test_each_step_matches_select_next_on_non_square_grid(self, trained_lsq):
        # 24 rows by 40 columns: reshapes and box slices must keep (h, w) apart
        image = GroundTruthImage.from_array(blob_image(size=40).values[:24])
        assert (image.height, image.width) == (24, 40)
        cfg = self.small_config(budget_density=0.15, checkpoint_densities=())
        assert self.assert_each_step_matches_select_next(trained_lsq, image, cfg)

    def test_each_step_matches_select_next_at_window_3(self):
        # a small window leaves many re-estimated pixels on and past the
        # box's edge: their 4-neighbours outside the box must be rescored,
        # because the gradients f1 and f2 read them
        params = IdwParams(neighbors=10, power=2.0, window=3)
        model = linear_model([1.0, 1.0, 0.5, 0.5, 0.2, -1.0], params=params)
        cfg = self.small_config(
            initial_density=0.01, budget_density=0.30, checkpoint_densities=(), idw=params
        )
        assert self.assert_each_step_matches_select_next(model, blob_image(size=32, seed=3), cfg)

    @pytest.mark.parametrize("count", (10, 4))
    @pytest.mark.parametrize("shape", ((32, 32), (24, 40)), ids=("32x32", "24x40"))
    def test_each_step_matches_select_next_at_window_1(self, shape, count):
        # a 3x3 box: nearly every changed list lies on or past the box's
        # border ring, whose 4-neighbours are the only ones that can fall
        # outside it, so the ring test must keep its edges.  Four neighbours
        # keep the changed regions small enough that each side of the ring
        # matters on its own.
        h, w = shape
        image = GroundTruthImage.from_array(blob_image(size=w, seed=3).values[:h])
        params = IdwParams(neighbors=count, power=2.0, window=1)
        model = linear_model([1.0, 1.0, 0.5, 0.5, 0.2, -1.0], params=params)
        cfg = self.small_config(
            initial_density=0.01, budget_density=0.15, checkpoint_densities=(), idw=params
        )
        assert self.assert_each_step_matches_select_next(model, image, cfg)

    def test_each_step_matches_select_next_with_two_neighbours(self):
        # with two neighbours a new measurement changes few neighbour lists,
        # so the rescored pixels are little more than the window
        params = IdwParams(neighbors=2, power=2.0, window=3)
        model = linear_model([1.0, 1.0, 0.5, 0.5, 0.2, -1.0], params=params)
        cfg = self.small_config(
            initial_density=0.10, budget_density=0.20, checkpoint_densities=(), idw=params
        )
        assert self.assert_each_step_matches_select_next(model, blob_image(size=32, seed=3), cfg)

    def test_each_step_matches_select_next_for_nn_at_64(self):
        # untrained weights are enough: the property is about batching.  A
        # small window keeps the lazy batches at tens of rows while
        # select_next pushes about 4,000 rows through the MLP's 256-row tiles.
        model = untrained_nn(IdwParams(neighbors=10, power=2.0, window=3))
        cfg = self.small_config(
            initial_density=0.01, budget_density=0.04, checkpoint_densities=(), idw=model.idw
        )
        steps = self.assert_each_step_matches_select_next(model, blob_image(size=64, seed=12), cfg)
        assert steps == math.ceil(0.04 * 64 * 64) - math.ceil(0.01 * 64 * 64)

    def test_each_step_matches_select_next_for_svr(self):
        # a window of 3 keeps the lazy batches at tens of rows while
        # select_next scores about 900 rows, so each query's kernel column
        # must not depend on the tile it shares or its place in it.  About
        # 500 support vectors: with 80, a (rows, 6) @ (6, 80) row tile
        # happened to be invariant here except for single rows.
        params = IdwParams(neighbors=10, power=2.0, window=3)
        schedule = TrainingSchedule(densities=(0.05, 0.2), samples_per_level=250, rd_window=3)
        image = blob_image(size=32, seed=5)
        model, _, diag = train_erd_model([image], schedule, params, kind="svr")
        assert diag["support_vectors"] >= 400
        cfg = self.small_config(
            initial_density=0.05, budget_density=0.15, checkpoint_densities=(), idw=params
        )
        assert self.assert_each_step_matches_select_next(model, image, cfg)

    @pytest.mark.filterwarnings("error")
    def test_each_step_matches_select_next_from_fewer_seeds_than_neighbours(self, trained_lsq):
        # three seeds for ten neighbours: the lists hold SENTINEL, so every
        # row's reach is 2**62 and the first insertions must look at every pixel
        cfg = self.small_config(
            initial_density=0.01, budget_density=0.10, checkpoint_densities=()
        )
        assert math.ceil(0.01 * 256) < PARAMS.neighbors
        assert self.assert_each_step_matches_select_next(trained_lsq, blob_image(16, seed=2), cfg)

    def test_insertion_work_does_not_grow_with_image_size(self, trained_lsq, monkeypatch):
        # rows handed to the neighbour insertion per greedy step, by image size
        scanned = []
        insert = neighbors.insert_measurement

        def counting(comp, query_indices, *args):
            scanned.append(len(query_indices))
            return insert(comp, query_indices, *args)

        monkeypatch.setattr(neighbors, "insert_measurement", counting)
        cfg = self.small_config(initial_density=0.01, budget_density=0.03, checkpoint_densities=())
        mean = {}
        for size in (64, 128):
            scanned.clear()
            run_sampling(SimulatedSource(blob_image(size, seed=1)), trained_lsq, cfg)
            assert len(scanned) == math.ceil(0.03 * size**2) - math.ceil(0.01 * size**2)
            mean[size] = np.mean(scanned)
        assert mean[128] < 2 * mean[64]
        assert mean[128] < 128 * 128 / 8

    def test_idw_work_is_the_changed_lists(self, trained_lsq, monkeypatch):
        # rows handed to the IDW estimate per greedy step: the pixels whose
        # neighbour lists changed, not every active pixel of the window
        passed = []
        idw = engine.idw_from_neighbors

        def counting(comp, *args):
            passed.append(len(comp))
            return idw(comp, *args)

        steps = []
        measure = ReconState.measure

        def recording(state, loc, value):
            passed.clear()
            changed = measure(state, loc, value)
            r0, r1, c0, c1 = window_bounds(loc, state.width, state.height, state.params.window)
            window = np.count_nonzero(~state.mset.mask[r0 : r1 + 1, c0 : c1 + 1])
            steps.append((sum(passed), changed.size, window))
            return changed

        monkeypatch.setattr(engine, "idw_from_neighbors", counting)
        monkeypatch.setattr(ReconState, "measure", recording)
        cfg = self.small_config(initial_density=0.01, budget_density=0.03, checkpoint_densities=())
        run_sampling(SimulatedSource(blob_image(64, seed=1)), trained_lsq, cfg)
        assert len(steps) == math.ceil(0.03 * 64**2) - math.ceil(0.01 * 64**2)
        for step, (rows, changed, _) in enumerate(steps):
            assert rows == changed, f"step {step}"
        # a step can change more lists than its window holds (17 of the 82
        # here, 16 of them with windows the border clips), but not in sum
        rows, _, window = np.sum(steps, axis=0)
        assert rows < window

    @pytest.mark.parametrize("window", (3, 15))
    @pytest.mark.parametrize("kind", ("lsq", "nn"))
    def test_reconstructions_are_exact(self, kind, window, tmp_path):
        # every checkpoint, its recon_*.pgm and the final reconstruction
        # equal reconstruct() of the history prefix, bit for bit, however
        # small the window
        params = IdwParams(neighbors=10, power=2.0, window=window)
        if kind == "lsq":
            model = linear_model([1.0, 1.0, 0.5, 0.5, 0.2, -1.0], params=params)
        else:
            model = untrained_nn(params)
        image = blob_image(size=64, seed=7)
        cfg = self.small_config(
            initial_density=0.01,
            budget_density=0.05,
            checkpoint_densities=(0.02, 0.03, 0.04, 0.05),
            idw=params,
        )
        run = run_sampling(SimulatedSource(image), model, cfg, image)
        save_checkpoint_artifacts(run, tmp_path)
        recons = [
            (cp.step, cp.reconstruction, f"recon_{round(cp.density * 100):03d}.pgm")
            for cp in run.checkpoints
        ]
        recons.append((run.measured_count, run.final_reconstruction, None))
        assert len(recons) == 5
        for step, recon, artifact in recons:
            mset = MeasurementSet(width=64, height=64)
            for e in run.history[:step]:
                mset.add(e.location, e.value)
            want = reconstruct(mset, params)
            assert recon.values.tobytes() == want.values.tobytes(), f"step {step}"
            if artifact:
                save_image(tmp_path / "want.pgm", want.values)
                got = (tmp_path / artifact).read_bytes()
                assert got == (tmp_path / "want.pgm").read_bytes(), artifact

    def test_checkpoints_fire_at_first_reaching_step(self, trained_lsq):
        image = blob_image(size=16, seed=11)
        cfg = self.small_config()
        run = run_sampling(SimulatedSource(image), trained_lsq, cfg, image)
        assert [cp.density for cp in run.checkpoints] == [0.10, 0.30]
        for cp in run.checkpoints:
            want_step = max(math.ceil(cp.density * 256), math.ceil(0.05 * 256))
            assert cp.step == want_step
            assert int(cp.mask.sum()) == cp.step

    def test_checkpoint_metrics_match_exported_reconstruction(self, trained_lsq):
        from sparsescan.core import distortion as dist_fn

        image = blob_image(size=16, seed=12)
        run = run_sampling(SimulatedSource(image), trained_lsq, self.small_config(), image)
        for cp in run.checkpoints:
            assert cp.psnr_db == psnr(image.values, cp.reconstruction.values)
            assert cp.distortion == dist_fn(image.values, cp.reconstruction.values)

    def test_without_ground_truth_metrics_are_nan(self, trained_lsq):
        image = blob_image(size=16, seed=13)
        run = run_sampling(SimulatedSource(image), trained_lsq, self.small_config())
        assert run.checkpoints
        for cp in run.checkpoints:
            assert math.isnan(cp.psnr_db) and math.isnan(cp.distortion)

    def test_source_failure_carries_step_index(self, trained_lsq):
        image = blob_image(size=16, seed=14)

        class FlakySource:
            width = 16
            height = 16

            def __init__(self):
                self.calls = 0

            def value(self, loc):
                self.calls += 1
                if self.calls == 30:
                    raise IOError("detector offline")
                return float(image.values[loc[0], loc[1]])

        with pytest.raises(SourceQueryError) as err:
            run_sampling(FlakySource(), trained_lsq, self.small_config(), image)
        assert err.value.step == 30
        assert "detector offline" in str(err.value)

    def test_non_finite_source_value_rejected(self, trained_lsq):
        image = blob_image(size=16, seed=14)

        class NanSource:
            width = 16
            height = 16

            def value(self, loc):
                return float("nan")

        with pytest.raises(SourceQueryError) as err:
            run_sampling(NanSource(), trained_lsq, self.small_config(), image)
        assert err.value.step == 1

    def test_non_finite_prediction_names_the_step(self):
        # a NaN output bias makes every prediction NaN; the first greedy step
        # comes after ceil(0.01 * 1024) = 11 seeds
        weights, biases = init_params(6, seed=4)
        biases = list(biases)
        biases[-1] = np.full_like(biases[-1], np.nan)
        model = ErdModel(
            kind="nn",
            payload=MlpModel(weights=tuple(weights), biases=tuple(biases), activation="relu"),
            stats=FeatureStats(means=np.zeros(6), stds=np.full(6, 20.0)),
            idw=PARAMS,
        )
        image = blob_image(32)
        with pytest.raises(FloatingPointError, match=r"1013 non-finite .* step 12$"):
            cfg = self.small_config(initial_density=0.01)
            run_sampling(SimulatedSource(image), model, cfg, image)
        mset = seeded_mask(image, 11, seed=0)
        with pytest.raises(FloatingPointError, match=r"1013 non-finite .* step 12$"):
            select_next(model, reconstruct(mset, PARAMS), mset)

    def test_dimension_mismatch_rejected(self, trained_lsq):
        image = blob_image(size=16, seed=15)
        other = blob_image(size=8, seed=15)
        with pytest.raises(ValueError):
            run_sampling(SimulatedSource(image), trained_lsq, self.small_config(), other)

    def test_artifact_export(self, trained_lsq, tmp_path):
        from sparsescan.pgm import parse_pgm

        image = blob_image(size=16, seed=16)
        run = run_sampling(SimulatedSource(image), trained_lsq, self.small_config(), image)
        paths = save_checkpoint_artifacts(run, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["mask_010.pgm", "mask_030.pgm", "recon_010.pgm", "recon_030.pgm"]
        mask = parse_pgm((tmp_path / "mask_030.pgm").read_bytes())
        assert set(np.unique(mask)) == {0, 255}
        assert int((mask == 255).sum()) == run.checkpoints[-1].step
        assert len(paths) == 4


class TestRandomBaseline:
    def test_history_is_permutation_prefix(self):
        image = blob_image(size=16, seed=17)
        cfg = RunConfig(
            initial_density=0.05,
            budget_density=0.25,
            checkpoint_densities=(0.25,),
            seed=5,
            idw=PARAMS,
        )
        run = run_random_baseline(SimulatedSource(image), cfg, image)
        locs = [e.location for e in run.history]
        assert len(locs) == math.ceil(0.25 * 256)
        assert len(set(locs)) == len(locs)
        assert all(math.isnan(e.predicted_erd) for e in run.history)
        # independent replay: the seed draw, then a permutation of the rest
        # (row-major order) from the same generator
        rng = np.random.default_rng(5)
        seeds = rng.choice(256, size=math.ceil(0.05 * 256), replace=False)
        rest = np.setdiff1d(np.arange(256), seeds)
        want = np.concatenate([seeds, rng.permutation(rest)])[: len(locs)]
        assert [loc.row * 16 + loc.col for loc in locs] == want.tolist()

    def test_full_budget_reproduces_ground_truth(self):
        image = blob_image(size=12, seed=18)
        cfg = RunConfig(
            initial_density=0.05,
            budget_density=1.0,
            checkpoint_densities=(1.0,),
            seed=1,
            idw=PARAMS,
        )
        run = run_random_baseline(SimulatedSource(image), cfg, image)
        np.testing.assert_array_equal(run.final_reconstruction.values, image.values)
        assert run.checkpoints[-1].distortion == 0.0
        assert run.checkpoints[-1].psnr_db == PSNR_CAP_DB

    def test_same_seed_repeats_exactly(self, tmp_path):
        image = blob_image(size=16, seed=19)
        cfg = RunConfig(
            initial_density=0.05,
            budget_density=0.25,
            checkpoint_densities=(0.25,),
            seed=7,
            idw=PARAMS,
        )
        blobs = []
        for name in ("a.csv", "b.csv"):
            run = run_random_baseline(SimulatedSource(image), cfg, image)
            p = tmp_path / name
            save_history_csv(run, p)
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]

    def test_first_draws_are_uniform_across_seeds(self):
        # inclusion of each pixel in a 16-of-64 uniform draw is p = 1/4;
        # counts over 1000 seeded runs stay within 3 sigma of 250
        image = blob_image(size=8, seed=20)
        src = SimulatedSource(image)
        counts = np.zeros(64, dtype=np.int64)
        for seed in range(1000):
            cfg = RunConfig(
                initial_density=0.01,
                budget_density=0.25,
                checkpoint_densities=(0.25,),
                seed=seed,
                idw=PARAMS,
            )
            run = run_random_baseline(src, cfg)
            for e in run.history:
                counts[e.location.row * 8 + e.location.col] += 1
        sigma = math.sqrt(1000 * 0.25 * 0.75)
        assert counts.sum() == 16 * 1000
        assert np.max(np.abs(counts - 250)) <= 3.0 * sigma


class TestEdgeGrids:
    SHAPES = ((1, 20), (20, 1), (7, 13), (2, 2))  # (height, width)

    @staticmethod
    def image(height, width):
        rng = np.random.default_rng(height * 100 + width)
        return GroundTruthImage(
            width=width, height=height, values=rng.uniform(0.0, 255.0, (height, width))
        )

    @pytest.mark.parametrize("budget", (0.5, 1.0))
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("method", ("greedy", "random"))
    def test_budget_is_met_on_thin_and_tiny_grids(self, trained_lsq, method, shape, budget):
        image = self.image(*shape)
        cfg = RunConfig(
            initial_density=0.01,
            budget_density=budget,
            checkpoint_densities=(budget,),
            seed=3,
            idw=trained_lsq.idw,
        )
        src = SimulatedSource(image)
        if method == "greedy":
            run = run_sampling(src, trained_lsq, cfg, image)
        else:
            run = run_random_baseline(src, cfg, image)
        locs = [e.location for e in run.history]
        assert len(locs) == math.ceil(budget * image.pixel_count)
        assert len(set(locs)) == len(locs)
        assert all(0 <= r < shape[0] and 0 <= c < shape[1] for r, c in locs)
        assert int(run.final_mask.sum()) == len(locs)
        if budget == 1.0:
            np.testing.assert_array_equal(run.final_reconstruction.values, image.values)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_each_step_matches_select_next_to_full_budget(self, trained_lsq, shape):
        cfg = RunConfig(
            initial_density=0.01,
            budget_density=1.0,
            checkpoint_densities=(1.0,),
            seed=3,
            idw=trained_lsq.idw,
        )
        steps = TestRunSampling.assert_each_step_matches_select_next(
            trained_lsq, self.image(*shape), cfg
        )
        assert steps == shape[0] * shape[1] - 1


class TestBlockSize:
    """Full-image builds run ROW_BLOCK pixels at a time; the block edges must
    change no bits.  The grid holds more than two default blocks, and seven
    divides neither it nor its unmeasured pixels."""

    SHAPE = (88, 96)  # height, width: 8,448 pixels

    def image(self):
        return GroundTruthImage.from_array(blob_image(96, seed=8).values[: self.SHAPE[0]])

    def outputs(self, models):
        image = self.image()
        h, w = self.SHAPE
        out = {}
        for name, count in (("85 seeds", 85), ("30 seeds", 30)):
            mset = seeded_mask(image, count, seed=5)
            comp = neighbors.knn_measured(
                mset.unmeasured_indices(), mset.measured_indices(), w, h, PARAMS.neighbors
            )
            assert comp.shape[0] > 2 * 4096  # the default ROW_BLOCK
            out[f"knn {name}"] = comp
        mset = seeded_mask(image, 85, seed=5)
        recon = reconstruct(mset, PARAMS)
        out["reconstruct"] = recon.values
        state = ReconState(mset.copy(), PARAMS)
        out["comp"] = state.comp
        out["recon_flat"] = state.recon_flat
        out["terms"] = state.terms
        for kind, model in models.items():
            out[f"{kind} initial scores"] = _Greedy(ReconState(mset.copy(), PARAMS), model).scores
            loc, erd = select_next(model, recon, mset)
            out[f"{kind} select_next"] = np.array([*loc, erd])
            cfg = RunConfig(
                initial_density=0.01, budget_density=0.02, checkpoint_densities=(0.02,), seed=2
            )
            run = run_sampling(SimulatedSource(image), model, cfg, image)
            out[f"{kind} history"] = np.array(
                [(e.step, *e.location, e.value, e.predicted_erd) for e in run.history]
            )
            out[f"{kind} checkpoint"] = run.checkpoints[0].reconstruction.values
        return out

    def test_block_edges_change_no_bits(self, trained_lsq, monkeypatch):
        models = {"lsq": trained_lsq, "nn": untrained_nn(PARAMS), "svr": fitted_svr(PARAMS)}
        default = self.outputs(models)
        monkeypatch.setattr(numerics, "ROW_BLOCK", 7)
        assert len(numerics.row_blocks(8448)) == 1207
        small = self.outputs(models)
        assert default.keys() == small.keys()
        for key, value in default.items():
            assert value.dtype == small[key].dtype, key
            assert value.tobytes() == small[key].tobytes(), key


class TestSetupMemory:
    """A full-image build keeps about 120 bytes a pixel; its temporaries
    must not grow with the image the way the kept arrays do."""

    @staticmethod
    def transient_mb(build):
        """Traced peak of build() minus what is still allocated when it returns."""
        tracemalloc.start()
        try:
            kept = build()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del kept
        return (peak - current) / 2**20

    def test_reconstruct_and_recon_state_at_256(self):
        image = blob_image(256, seed=7)
        mset = seeded_mask(image, math.ceil(0.01 * image.pixel_count), seed=1)
        assert self.transient_mb(lambda: reconstruct(mset, PARAMS)) < 16
        assert self.transient_mb(lambda: ReconState(mset, PARAMS)) < 16

    def test_recon_state_keeps_about_120_bytes_a_pixel_at_256(self):
        # neighbour keys 80, f3-f5 24, reconstruction 8 and window counts 8:
        # 7.5 MB for 65,536 pixels
        image = blob_image(256, seed=7)
        mset = seeded_mask(image, math.ceil(0.01 * image.pixel_count), seed=1)
        tracemalloc.start()
        try:
            state = ReconState(mset, PARAMS)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del state
        assert kept / 2**20 < 8

    def test_select_next_at_256(self, trained_lsq):
        # select_next scores from scratch and keeps no sampler state: one
        # neighbour search (80 bytes a pixel at k = 10) and a few per-pixel
        # arrays, about 8.6 MB here
        image = blob_image(256, seed=7)
        mset = seeded_mask(image, math.ceil(0.01 * image.pixel_count), seed=1)
        recon = reconstruct(mset, trained_lsq.idw)
        assert self.transient_mb(lambda: select_next(trained_lsq, recon, mset)) < 12

    def test_knn_measured_with_a_crowded_corner_at_256(self):
        # a far tile's candidates are a band of the corner: its rows x
        # candidates matrix is wide, and the groups must keep it bounded
        grid = np.zeros((256, 256), dtype=bool)
        grid[:80, :80] = True
        measured = np.flatnonzero(grid)
        queries = np.flatnonzero(~grid.ravel())
        build = lambda: neighbors.knn_measured(queries, measured, 256, 256, PARAMS.neighbors)
        assert self.transient_mb(build) < 16
