"""Tests for RD targets and training database generation."""

import importlib.util
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from sparsescan import training
from sparsescan.core import (
    DuplicateMeasurementError,
    GroundTruthImage,
    MeasurementSet,
    OutOfBoundsError,
    PixelLocation,
    distortion,
)
from sparsescan.recon import IdwParams, reconstruct
from sparsescan.regress import predict_batch
from sparsescan.synth import blob_image
from sparsescan.training import (
    RdEvaluator,
    TrainingDatabase,
    TrainingSchedule,
    generate_training_db,
    save_training_csv,
    train_erd_model,
)

PARAMS = IdwParams(neighbors=10, power=2.0, window=15)


def loc_of(lin, width):
    return PixelLocation(int(lin) // width, int(lin) % width)


def random_setup(image, frac, seed):
    """Measure a seeded uniform fraction of the image at its true values."""
    rng = np.random.default_rng(seed)
    n = image.pixel_count
    mset = MeasurementSet(width=image.width, height=image.height)
    flat = image.values.ravel()
    for lin in rng.choice(n, size=max(1, int(round(frac * n))), replace=False):
        mset.add(loc_of(lin, image.width), float(flat[lin]))
    return mset


def pipeline_rd(image, mset, s, params):
    """Independent oracle: rebuild reconstructions from scratch, subtract."""
    before = distortion(image.values, reconstruct(mset, params).values)
    grown = MeasurementSet(width=image.width, height=image.height)
    for loc, val in mset.entries:
        grown.add(loc, val)
    grown.add(s, float(image.values[s.row, s.col]))
    after = distortion(image.values, reconstruct(grown, params).values)
    return before - after


class TestRdHandCases:
    def tiny(self, vals, measured_cols):
        img = GroundTruthImage(width=3, height=1, values=np.array([vals]))
        mset = MeasurementSet(width=3, height=1)
        for c in measured_cols:
            mset.add(PixelLocation(0, c), float(vals[c]))
        return img, mset

    def test_midpoint_between_unequal_ends(self):
        # ends 0 and 100 sit at equal distance from the middle, so the
        # estimate there is their plain mean 50; truth is 0, so the error
        # is 50 and measuring the middle removes all of it
        img, mset = self.tiny([0.0, 0.0, 100.0], (0, 2))
        assert RdEvaluator(img, mset, PARAMS).rd_exact(PixelLocation(0, 1)) == 50.0

    def test_peak_between_equal_ends(self):
        # both ends are 0, the middle is estimated 0 while truth is 100
        ev = RdEvaluator(*self.tiny([0.0, 100.0, 0.0], (0, 2)), PARAMS)
        assert ev.rd_exact(PixelLocation(0, 1)) == 100.0
        assert ev.rd_windowed(PixelLocation(0, 1), 5) == 100.0

    def test_constant_image_rd_negligible(self):
        # weighted means of equal values round at the last few bits, so the
        # drop is bounded near zero rather than exactly zero
        img = GroundTruthImage(width=16, height=16, values=np.full((16, 16), 77.0))
        mset = random_setup(img, 0.1, seed=0)
        ev = RdEvaluator(img, mset, PARAMS)
        for lin in ev.unmeasured[:40]:
            s = loc_of(lin, 16)
            assert abs(ev.rd_exact(s)) <= 1e-9
            assert abs(ev.rd_windowed(s, 4)) <= 1e-9

    def test_measured_candidate_rejected(self):
        ev = RdEvaluator(*self.tiny([0.0, 50.0, 100.0], (0, 2)), PARAMS)
        with pytest.raises(ValueError):
            ev.rd_exact(PixelLocation(0, 0))
        with pytest.raises(ValueError):
            ev.rd_windowed(PixelLocation(0, 2), 3)

    def test_out_of_grid_candidate_rejected(self):
        ev = RdEvaluator(*self.tiny([0.0, 50.0, 100.0], (0,)), PARAMS)
        with pytest.raises(ValueError):
            ev.rd_exact(PixelLocation(1, 0))

    def test_feature_matrix_rejects_out_of_grid_and_measured(self):
        image = blob_image(size=16, seed=2)
        mset = random_setup(image, 0.1, seed=0)
        ev = RdEvaluator(image, mset, PARAMS)
        assert ev.feature_matrix(ev.unmeasured[:3]).shape == (3, 6)
        for bad in ([-1], [16 * 16], [int(ev.unmeasured[0]), -1]):
            with pytest.raises(ValueError):
                ev.feature_matrix(np.array(bad))
        with pytest.raises(ValueError):
            ev.feature_matrix(mset.measured_indices()[:1])

    def test_feature_matrix_checks_candidates_as_measurement_set_does(self):
        # MeasurementSet.unmeasured_index is the one owner of the check
        image = blob_image(size=16, seed=2)
        mset = random_setup(image, 0.1, seed=0)
        ev = RdEvaluator(image, mset, PARAMS)
        with pytest.raises(OutOfBoundsError, match="outside 16x16 grid"):
            ev.feature_matrix(np.array([int(ev.unmeasured[0]), 16 * 16]))
        measured = mset.entries[0][0]
        with pytest.raises(DuplicateMeasurementError, match=re.escape(f"{measured} already")):
            ev.feature_matrix(np.array([measured.row * 16 + measured.col]))

    def test_empty_and_saturated_sets_rejected(self):
        img = GroundTruthImage(width=2, height=2, values=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            RdEvaluator(img, MeasurementSet(width=2, height=2), PARAMS)
        full = MeasurementSet(width=2, height=2)
        for r in range(2):
            for c in range(2):
                full.add(PixelLocation(r, c), 0.0)
        with pytest.raises(ValueError):
            RdEvaluator(img, full, PARAMS)

    def test_bad_halfwidth_rejected(self):
        ev = RdEvaluator(*self.tiny([0.0, 50.0, 100.0], (0,)), PARAMS)
        with pytest.raises(ValueError):
            ev.rd_windowed(PixelLocation(0, 1), 0)


class TestRdOracle:
    def test_matches_independent_pipeline_bit_exactly(self):
        image = blob_image(size=16, seed=3)
        mset = random_setup(image, 0.1, seed=1)
        ev = RdEvaluator(image, mset, PARAMS)
        for lin in ev.unmeasured:
            s = loc_of(lin, 16)
            want = pipeline_rd(image, mset, s, PARAMS)
            assert ev.rd_exact(s) == want
            # a fresh evaluator: earlier trials left nothing behind
            assert RdEvaluator(image, mset, PARAMS).rd_exact(s) == want

    def test_windowed_equals_exact_at_full_width(self):
        for seed in (0, 1):
            image = blob_image(size=32, seed=seed)
            mset = random_setup(image, 0.1, seed=seed + 10)
            ev = RdEvaluator(image, mset, PARAMS)
            for lin in ev.unmeasured[::7]:
                s = loc_of(lin, 32)
                assert ev.rd_windowed(s, 32) == ev.rd_exact(s)

    def test_windowed_stabilizes_past_update_radius(self):
        # once the window holds every pixel the new measurement actually
        # touched, the untouched remainder cancels up to summation rounding;
        # the touched radius is read off the two full reconstructions
        image = blob_image(size=32, seed=5)
        mset = random_setup(image, 0.15, seed=2)
        before = reconstruct(mset, PARAMS).values
        ev = RdEvaluator(image, mset, PARAMS)
        for lin in ev.unmeasured[:25]:
            s = loc_of(lin, 32)
            grown = MeasurementSet(width=32, height=32)
            for loc, val in mset.entries:
                grown.add(loc, val)
            grown.add(s, float(image.values[s.row, s.col]))
            after = reconstruct(grown, PARAMS).values
            rows, cols = np.nonzero(before != after)
            radius = int(np.max(np.maximum(np.abs(rows - s.row), np.abs(cols - s.col))))
            w = max(radius, 1)
            assert abs(ev.rd_windowed(s, w) - ev.rd_exact(s)) <= 1e-9

    def test_windowed_equals_window_error_drop_bit_exactly(self):
        # at every window size, including windows smaller than the update
        # radius, the windowed RD is the drop in exactly summed absolute
        # error inside the window between the two full reconstructions
        size = 40
        image = blob_image(size=size, seed=3)
        mset = random_setup(image, 60 / size**2, seed=4)
        before = reconstruct(mset, PARAMS).values
        ev = RdEvaluator(image, mset, PARAMS)
        rng = np.random.default_rng(5)
        edges = [(0, 0), (0, size - 1), (size - 1, 0), (size - 1, size - 1)]
        edges += [(0, 17), (size - 1, 22), (9, 0), (30, size - 1), (1, 1), (size - 2, 1)]
        cands = [PixelLocation(r, c) for r, c in edges]
        cands += [loc_of(l, size) for l in rng.choice(ev.unmeasured, size=40, replace=False)]
        checked = 0
        for s in cands:
            if s in mset:
                continue
            grown = mset.copy()
            grown.add(s, float(image.values[s]))
            after = reconstruct(grown, PARAMS).values
            for w in (1, 2, 3, 7, 15):
                r0, c0 = max(s.row - w, 0), max(s.col - w, 0)
                box = (slice(r0, s.row + w + 1), slice(c0, s.col + w + 1))
                truth = image.values[box]
                want = math.fsum(np.abs(truth - before[box]).ravel()) - math.fsum(
                    np.abs(truth - after[box]).ravel()
                )
                assert ev.rd_windowed(s, w).hex() == want.hex(), (s, w)
                checked += 1
        assert checked >= 5 * 45

    def test_window_ranking_tracks_exact_ranking(self):
        image = blob_image(size=64, seed=7)
        mset = random_setup(image, 0.1, seed=3)
        ev = RdEvaluator(image, mset, PARAMS)
        rng = np.random.default_rng(4)
        cand = rng.choice(ev.unmeasured, size=100, replace=False)
        exact = np.array([ev.rd_exact(loc_of(l, 64)) for l in cand])
        windowed = np.array([ev.rd_windowed(loc_of(l, 64), 15) for l in cand])
        rho = spearmanr(exact, windowed).statistic
        assert rho >= 0.95

    def test_mean_rd_positive_on_textured_image(self):
        image = blob_image(size=32, seed=9)
        mset = random_setup(image, 0.1, seed=5)
        ev = RdEvaluator(image, mset, PARAMS)
        vals = [ev.rd_exact(loc_of(l, 32)) for l in ev.unmeasured[::5]]
        assert np.mean(vals) > 0.0


class TestRdTrials:
    """An RD trial splices the candidate with the sampler's own update, on
    the evaluator's shared state, and must leave that state as it found it."""

    STATE = ("comp", "recon_flat", "terms", "cnt", "reach")

    def test_trials_write_nothing(self):
        size = 24
        image = blob_image(size=size, seed=6)
        mset = random_setup(image, 0.1, seed=8)
        ev = RdEvaluator(image, mset, PARAMS)
        st = ev.state
        kept = {name: getattr(st, name).copy() for name in self.STATE}
        kept_set = (mset.mask.copy(), mset.value_grid().copy(), list(mset.entries))
        last = size - 1
        groups = {
            "corner": [(0, 0), (0, last), (last, 0), (last, last)],
            "edge": [(0, c) for c in range(1, last)] + [(r, last) for r in range(1, last)],
            "interior": [(r, c) for r in range(8, 16) for c in range(8, 16)],
        }
        for name, cells in groups.items():
            cands = [PixelLocation(*rc) for rc in cells if PixelLocation(*rc) not in mset][:6]
            assert cands, name
            for s in cands:
                for w in (1, 3, 15):
                    ev.rd_windowed(s, w)
                ev.rd_exact(s)
        assert st.mset is mset
        for name in self.STATE:
            now = getattr(st, name)
            assert now.dtype == kept[name].dtype, name
            assert now.shape == kept[name].shape, name
            assert now.tobytes() == kept[name].tobytes(), name
        assert mset.mask.tobytes() == kept_set[0].tobytes()
        assert mset.value_grid().tobytes() == kept_set[1].tobytes()
        assert mset.entries == kept_set[2]

    def test_trials_are_traced_under_rd_windowed(self):
        # the benchmark's tracer wraps the layers by name; every trial must
        # show its insertion and its IDW estimate as children of rd_windowed
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        schedule = TrainingSchedule(densities=(0.05, 0.3), samples_per_level=15, seed=2)
        with tracing.installed(tracing.Tracer()) as tracer:
            db = generate_training_db([blob_image(size=20, seed=4)], schedule, PARAMS)
        spans = tracer.spans
        names = Counter(rec[0] for rec in spans)
        assert names["training.rd_windowed"] == db.n == 30
        under = [rec for rec in spans if rec[3] >= 0 and spans[rec[3]][0] == "training.rd_windowed"]
        per_trial = Counter(rec[0] for rec in under)
        assert per_trial["neighbors.insert_measurement"] == db.n
        assert per_trial["recon.idw_from_neighbors"] == db.n
        changed = sum(r[4]["rows_changed"] for r in under if r[0] == "neighbors.insert_measurement")
        estimated = sum(r[4]["rows"] for r in under if r[0] == "recon.idw_from_neighbors")
        assert changed == estimated > 0


class TestGenerateDb:
    def test_row_counting_and_provenance(self):
        image = blob_image(size=16, seed=0)
        schedule = TrainingSchedule(densities=(0.1,), samples_per_level=10, seed=7)
        db = generate_training_db([image], schedule, PARAMS)
        assert db.n == 10
        assert db.features.shape == (10, 6)
        assert db.image_ids == ["img000"] * 10
        np.testing.assert_array_equal(db.densities, np.full(10, 0.1))
        assert len(db.provenance) == 1
        pid, pdens, pseed = db.provenance[0]
        assert pid == "img000" and pdens == 0.1 and isinstance(pseed, int)

    def test_blocks_multiply_across_images_and_densities(self):
        images = [blob_image(size=16, seed=s) for s in (0, 1)]
        schedule = TrainingSchedule(densities=(0.1, 0.3), samples_per_level=5)
        db = generate_training_db(images, schedule, PARAMS, image_ids=["a", "b"])
        assert db.n == 2 * 2 * 5
        assert len(db.provenance) == 4
        assert {p[0] for p in db.provenance} == {"a", "b"}

    def test_runs_are_reproducible(self, tmp_path):
        image = blob_image(size=16, seed=2)
        schedule = TrainingSchedule(densities=(0.1, 0.2), samples_per_level=8, seed=3)
        a = generate_training_db([image], schedule, PARAMS)
        b = generate_training_db([image], schedule, PARAMS)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.rd, b.rd)
        assert a.provenance == b.provenance
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_training_csv(a, pa)
        save_training_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_the_rows(self):
        image = blob_image(size=16, seed=2)
        a = generate_training_db(
            [image], TrainingSchedule(densities=(0.1,), samples_per_level=8, seed=0), PARAMS
        )
        b = generate_training_db(
            [image], TrainingSchedule(densities=(0.1,), samples_per_level=8, seed=1), PARAMS
        )
        assert not np.array_equal(a.rd, b.rd)

    def test_constant_image_gives_negligible_targets(self):
        image = GroundTruthImage(width=16, height=16, values=np.full((16, 16), 30.0))
        schedule = TrainingSchedule(densities=(0.2,), samples_per_level=20)
        db = generate_training_db([image], schedule, PARAMS)
        assert np.max(np.abs(db.rd)) <= 1e-9

    def test_candidates_capped_by_unmeasured_count(self):
        image = blob_image(size=4, seed=0)
        schedule = TrainingSchedule(densities=(0.5,), samples_per_level=500)
        db = generate_training_db([image], schedule, PARAMS)
        assert db.n == 16 - 8

    def test_degenerate_inputs_rejected(self):
        image = blob_image(size=4, seed=0)
        with pytest.raises(ValueError):
            generate_training_db([], TrainingSchedule(), PARAMS)
        with pytest.raises(ValueError):
            generate_training_db([image], TrainingSchedule(), PARAMS, image_ids=["a", "b"])
        # 16 pixels at 1% rounds below one measurement
        with pytest.raises(ValueError):
            generate_training_db(
                [image], TrainingSchedule(densities=(0.01,), samples_per_level=1), PARAMS
            )
        single = GroundTruthImage(width=1, height=1, values=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            generate_training_db(
                [single], TrainingSchedule(densities=(0.5,), samples_per_level=1), PARAMS
            )
        # ceil(0.9 * 2) = 2 measured leaves nothing to score
        two = GroundTruthImage(width=2, height=1, values=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            generate_training_db(
                [two], TrainingSchedule(densities=(0.9,), samples_per_level=1), PARAMS
            )

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TrainingSchedule(densities=())
        with pytest.raises(ValueError):
            TrainingSchedule(densities=(0.3, 0.2))
        with pytest.raises(ValueError):
            TrainingSchedule(densities=(0.0, 0.5))
        with pytest.raises(ValueError):
            TrainingSchedule(samples_per_level=0)
        with pytest.raises(ValueError):
            TrainingSchedule(rd_window=0)

    def test_database_validation(self):
        with pytest.raises(ValueError):
            TrainingDatabase(
                features=np.ones((2, 6)),
                rd=np.array([1.0, np.inf]),
                image_ids=["a", "a"],
                densities=np.full(2, 0.1),
                provenance=[],
            )
        with pytest.raises(ValueError):
            TrainingDatabase(
                features=np.ones((2, 5)),
                rd=np.ones(2),
                image_ids=["a", "a"],
                densities=np.full(2, 0.1),
                provenance=[],
            )


class TestCsv:
    def test_round_trip_text(self, tmp_path):
        image = blob_image(size=16, seed=4)
        schedule = TrainingSchedule(densities=(0.1,), samples_per_level=6)
        db = generate_training_db([image], schedule, PARAMS)
        path = tmp_path / "db.csv"
        save_training_csv(db, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "image_id,density,f1,f2,f3,f4,f5,f6,rd"
        assert len(lines) == 1 + db.n
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == db.image_ids[i]
            assert float(cells[1]) == db.densities[i]
            got = np.array([float(x) for x in cells[2:8]])
            np.testing.assert_array_equal(got, db.features[i])
            assert float(cells[8]) == db.rd[i]

    def test_write_is_atomic_and_overwrites(self, tmp_path):
        image = blob_image(size=16, seed=4)
        db = generate_training_db(
            [image], TrainingSchedule(densities=(0.1,), samples_per_level=3), PARAMS
        )
        path = tmp_path / "db.csv"
        path.write_text("stale")
        save_training_csv(db, path)
        assert path.read_text().startswith("image_id,")
        assert [p.name for p in tmp_path.iterdir()] == ["db.csv"]  # no temp droppings


class TestTrainModel:
    def test_lsq_end_to_end(self):
        images = [blob_image(size=16, seed=s) for s in (0, 1)]
        schedule = TrainingSchedule(densities=(0.1, 0.3), samples_per_level=20)
        model, db, diag = train_erd_model(images, schedule, PARAMS, kind="lsq")
        assert model.kind == "lsq"
        assert diag["rows"] == db.n == 2 * 2 * 20
        assert "residual_norm" in diag and "rank_deficient" in diag
        assert diag["db_s"] > 0 and diag["fit_s"] >= 0
        assert model.idw == PARAMS
        preds = predict_batch(model, db.features)
        assert preds.shape == (db.n,) and np.all(np.isfinite(preds))

    def test_nn_and_svr_smoke(self):
        image = blob_image(size=16, seed=2)
        schedule = TrainingSchedule(densities=(0.2,), samples_per_level=30)
        nn, _, nn_diag = train_erd_model(
            [image], schedule, PARAMS, kind="nn", epochs=3, seed=1
        )
        assert nn.payload.activation == "relu"
        assert "final_epoch_loss" in nn_diag
        svr, _, svr_diag = train_erd_model([image], schedule, PARAMS, kind="svr")
        assert svr_diag["support_vectors"] >= 1
        assert "converged" in svr_diag

    def test_unknown_kind_rejected(self, monkeypatch):
        # the kind is checked before any training row is built
        def no_database(*args, **kwargs):
            raise AssertionError("generate_training_db called")

        monkeypatch.setattr(training, "generate_training_db", no_database)
        image = blob_image(size=16, seed=2)
        with pytest.raises(ValueError, match="forest"):
            train_erd_model(
                [image],
                TrainingSchedule(densities=(0.2,), samples_per_level=5),
                PARAMS,
                kind="forest",
            )

    def test_pretrained_and_extra_reach_the_model(self):
        image = blob_image(size=16, seed=2)
        model, _, _ = train_erd_model(
            [image],
            TrainingSchedule(densities=(0.2,), samples_per_level=10),
            PARAMS,
            kind="lsq",
            pretrained=True,
            extra={"origin": "builtin"},
        )
        assert model.pretrained is True
        assert model.extra == {"origin": "builtin"}
