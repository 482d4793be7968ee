"""Descriptor extraction and standardization tests.

The crafted-case oracle below reimplements all six descriptor formulas with
plain Python loops and no shared helpers, so an error in the vectorized
path cannot cancel out.
"""

import math

import numpy as np
import pytest

from sparsescan import neighbors
from sparsescan.core import MeasurementSet, PixelLocation, Reconstruction
from sparsescan.engine import ReconState, select_next
from sparsescan.features import (
    FEATURE_COUNT,
    STD_FLOOR,
    FeatureStats,
    extract_features,
    fit_stats,
    measured_counts_grid,
    neighbour_terms,
    standardize,
)
from sparsescan.recon import IdwParams, reconstruct
from sparsescan.regress import ErdModel, LinearModel


def linear_model_for(params):
    """lsq scorer of the distance f5 alone, with identity standardization."""
    return ErdModel(
        kind="lsq",
        payload=LinearModel(theta=np.eye(FEATURE_COUNT)[4]),
        stats=FeatureStats(means=np.zeros(FEATURE_COUNT), stds=np.ones(FEATURE_COUNT)),
        idw=params,
    )


def straight_line_features(recon_vals, mset, s, params):
    """Independent loop-based evaluation of the six descriptors."""
    h, w = recon_vals.shape
    r, c = s
    # neighbor list: ascending (squared distance, linear index)
    ranked = sorted(
        ((r - loc.row) ** 2 + (c - loc.col) ** 2, loc.row * w + loc.col, val)
        for loc, val in mset.entries
    )
    near = ranked[: params.neighbors]
    vals = [v for _, _, v in near]

    if c == 0:
        f1 = abs(recon_vals[r, 1] - recon_vals[r, 0])
    elif c == w - 1:
        f1 = abs(recon_vals[r, c] - recon_vals[r, c - 1])
    else:
        f1 = abs(recon_vals[r, c + 1] - recon_vals[r, c - 1]) / 2.0
    if r == 0:
        f2 = abs(recon_vals[1, c] - recon_vals[0, c])
    elif r == h - 1:
        f2 = abs(recon_vals[r, c] - recon_vals[r - 1, c])
    else:
        f2 = abs(recon_vals[r + 1, c] - recon_vals[r - 1, c]) / 2.0

    mean = sum(vals) / len(vals)
    f3 = math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))
    f4 = sum(abs(recon_vals[r, c] - v) for v in vals) / len(vals)
    f5 = math.sqrt(near[0][0])
    inside = sum(
        1
        for loc, _ in mset.entries
        if abs(loc.row - r) <= params.window and abs(loc.col - c) <= params.window
    )
    f6 = inside / float((2 * params.window + 1) ** 2)
    return [f1, f2, f3, f4, f5, f6]


def random_case(width, height, k, seed, params):
    rng = np.random.default_rng(seed)
    chosen = rng.choice(width * height, size=k, replace=False)
    mset = MeasurementSet(width=width, height=height)
    for lin in chosen:
        mset.add((int(lin) // width, int(lin) % width), float(rng.uniform(0, 255)))
    recon = reconstruct(mset, params)
    return mset, recon


class TestDescriptorValues:
    def test_constant_image_zeroes_value_features(self):
        mset = MeasurementSet(width=8, height=8)
        for loc in [(0, 0), (3, 4), (7, 7), (5, 1)]:
            mset.add(loc, 90.0)
        params = IdwParams(neighbors=4, window=3)
        recon = reconstruct(mset, params)
        fv = extract_features(recon, mset, (2, 2), params)
        # neighbor spread is exactly zero; the gradient and f4 terms read the
        # interpolated grid, where the weighted mean of equal values carries
        # ulp-level rounding (90 * (1/d2) need not be exact)
        assert fv.values[2] == 0.0
        assert abs(fv.values[0]) < 1e-12 and abs(fv.values[1]) < 1e-12
        assert abs(fv.values[3]) < 1e-12

    def test_f5_is_one_for_adjacent_measurement(self):
        mset = MeasurementSet(width=8, height=8)
        mset.add((4, 4), 10.0)
        mset.add((0, 0), 30.0)
        params = IdwParams(neighbors=2, window=2)
        recon = reconstruct(mset, params)
        fv = extract_features(recon, mset, (4, 5), params)
        assert fv.values[4] == 1.0

    def test_f6_matches_brute_count(self):
        params = IdwParams(neighbors=5, window=4)
        for seed in range(5):
            mset, recon = random_case(16, 16, 20, seed, params)
            area = (2 * params.window + 1) ** 2
            rng = np.random.default_rng(seed + 77)
            queries = mset.unmeasured_indices()
            for lin in rng.choice(queries, size=15, replace=False):
                r, c = int(lin) // 16, int(lin) % 16
                count = sum(
                    1
                    for loc, _ in mset.entries
                    if abs(loc.row - r) <= params.window and abs(loc.col - c) <= params.window
                )
                fv = extract_features(recon, mset, (r, c), params)
                assert fv.values[5] == count / area

    def test_crafted_dyadic_case_exact(self):
        # dyadic values and <= 4 neighbors keep both implementations in
        # identical float arithmetic, so equality is exact
        mset = MeasurementSet(width=8, height=8)
        mset.add((1, 1), 32.0)
        mset.add((2, 6), 64.0)
        mset.add((5, 3), 128.0)
        mset.add((6, 6), 16.0)
        params = IdwParams(neighbors=4, window=2)
        recon = reconstruct(mset, params)
        for s in [(0, 0), (3, 3), (4, 7), (7, 0), (7, 7), (0, 4)]:
            fv = extract_features(recon, mset, s, params)
            oracle = straight_line_features(recon.values, mset, s, params)
            assert fv.values.tolist() == oracle

    def test_random_cases_match_oracle(self):
        params = IdwParams(neighbors=6, window=3)
        for seed in range(6):
            mset, recon = random_case(12, 12, 25, seed, params)
            rng = np.random.default_rng(seed)
            for lin in rng.choice(mset.unmeasured_indices(), size=10, replace=False):
                s = (int(lin) // 12, int(lin) % 12)
                fv = extract_features(recon, mset, s, params)
                oracle = straight_line_features(recon.values, mset, s, params)
                np.testing.assert_allclose(fv.values, oracle, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 5), (5, 2), (3, 3), (5, 7), (7, 5)])
    def test_every_pixel_of_small_grids_matches_oracle(self, shape):
        # the batch build takes each border from the linear index alone, so
        # check every unmeasured pixel of grids whose rows and columns differ
        h, w = shape
        params = IdwParams(neighbors=3, window=2)
        mset, recon = random_case(w, h, 3, h * 10 + w, params)
        state = ReconState(mset, params)
        pixels = mset.unmeasured_indices()
        for row, lin in zip(state.features(pixels), pixels):
            oracle = straight_line_features(recon.values, mset, divmod(int(lin), w), params)
            np.testing.assert_allclose(row, oracle, rtol=1e-12, atol=1e-12)

    def test_reconstruction_other_than_the_exact_one_matches_oracle(self):
        # in the sampler the value at s is always its list's IDW estimate;
        # here noise moves every value and +300 lifts the value at s above
        # all its neighbour values (drawn from [0, 255]), so f1, f2 and f4
        # must each read the given reconstruction, centre included
        params = IdwParams(neighbors=6, window=3)
        for seed in range(4):
            mset, exact = random_case(12, 12, 25, seed, params)
            rng = np.random.default_rng(seed + 100)
            for lin in rng.choice(mset.unmeasured_indices(), size=10, replace=False):
                s = (int(lin) // 12, int(lin) % 12)
                vals = exact.values + rng.normal(0.0, 5.0, exact.values.shape)
                vals[s] += 300.0
                recon = Reconstruction(width=12, height=12, values=vals)
                fv = extract_features(recon, mset, s, params)
                oracle = straight_line_features(vals, mset, s, params)
                np.testing.assert_allclose(fv.values, oracle, rtol=1e-12, atol=1e-12)
                moved = fv.values != extract_features(exact, mset, s, params).values
                assert moved[[0, 1, 3]].all() and not moved[[2, 4, 5]].any()

    def test_measured_location_rejected(self):
        params = IdwParams(neighbors=2, window=2)
        mset, recon = random_case(8, 8, 10, 0, params)
        loc = mset.entries[0][0]
        with pytest.raises(ValueError):
            extract_features(recon, mset, loc, params)

    def test_grid_mismatch_rejected_as_select_next_rejects_it(self):
        # MeasurementSet.check_grid is the one owner of this check
        params = IdwParams(neighbors=2, window=2)
        mset, recon = random_case(8, 8, 10, 0, params)
        model = linear_model_for(params)
        taller = Reconstruction(width=8, height=9, values=np.zeros((9, 8)))
        lin = int(mset.unmeasured_indices()[0])
        message = "reconstruction and measurement set dimensions differ"
        with pytest.raises(ValueError, match=message):
            extract_features(taller, mset, divmod(lin, 8), params)
        with pytest.raises(ValueError, match=message):
            select_next(model, taller, mset)
        assert select_next(model, recon, mset)[0] not in mset

    def test_repeated_extraction_bit_identical(self):
        params = IdwParams(neighbors=5, window=3)
        mset, recon = random_case(10, 10, 18, 3, params)
        lin = int(mset.unmeasured_indices()[7])
        s = (lin // 10, lin % 10)
        a = extract_features(recon, mset, s, params)
        b = extract_features(recon, mset, s, params)
        assert np.array_equal(a.values, b.values)


class TestBatchMatchesSinglePixel:
    """The engine's batch path (ReconState.features) and extract_features
    share every formula, so each batch row equals the single-pixel
    descriptor bit for bit."""

    @staticmethod
    def assert_rows_match(mset, recon, params, pixels=None):
        state = ReconState(mset, params)
        assert state.recon_flat.tobytes() == recon.values.tobytes()
        if pixels is None:
            pixels = mset.unmeasured_indices()
        assert pixels.size
        batch = state.features(pixels)
        for row, lin in zip(batch, pixels):
            fv = extract_features(recon, mset, divmod(int(lin), mset.width), params)
            assert row.tobytes() == fv.values.tobytes(), f"pixel {lin}"

    def test_fewer_measured_than_neighbours(self):
        # four measured pixels for ten neighbours: six invalid slots per list
        params = IdwParams(neighbors=10, window=3)
        self.assert_rows_match(*random_case(9, 9, 4, 0, params), params)

    def test_border_pixels(self):
        params = IdwParams(neighbors=6, window=3)
        for seed in range(3):
            mset, recon = random_case(12, 12, 20, seed, params)
            r, c = np.divmod(mset.unmeasured_indices(), 12)
            border = (r == 0) | (r == 11) | (c == 0) | (c == 11)
            self.assert_rows_match(mset, recon, params, mset.unmeasured_indices()[border])

    @pytest.mark.parametrize("shape", ((1, 20), (20, 1)), ids=("1x20", "20x1"))
    def test_single_row_or_column_grid(self, shape):
        params = IdwParams(neighbors=4, window=2)
        self.assert_rows_match(*random_case(shape[1], shape[0], 3, 1, params), params)

    def test_non_square_grid(self):
        params = IdwParams(neighbors=5, window=2)
        self.assert_rows_match(*random_case(13, 7, 12, 2, params), params)


class TestListTermPaths:
    """neighbour_terms skips the pad masks and divides by the list length
    when every list of a call is full; one padded list sends the whole call
    down the masked path.  Full lists must get the same bits either way,
    and a padded list the terms of its own neighbours in any call."""

    # (count, short, rows): a padded list with one measured neighbour (k = 1)
    # or nine of ten, a two-slot list with one pad, and no full lists (m = 0)
    @pytest.mark.parametrize(
        "count, short, rows",
        ((10, 1, 70), (10, 9, 70), (2, 1, 70), (10, 1, 0)),
        ids=("k=1", "k=9", "count=2", "m=0"),
    )
    def test_full_lists_alone_and_beside_a_padded_one(self, count, short, rows):
        mset, recon = random_case(12, 9, 30, count + short, IdwParams(neighbors=count))
        measured = mset.measured_indices()
        pixels = mset.unmeasured_indices()[:rows]
        last = mset.unmeasured_indices()[-1:]
        full = neighbors.knn_measured(pixels, measured, 12, 9, count)
        padded = neighbors.knn_measured(last, measured[:short], 12, 9, count)
        assert np.all(full < neighbors.SENTINEL)
        assert np.all(padded[0, short:] == neighbors.SENTINEL)
        values = mset.value_grid().ravel()
        center = recon.values.ravel()
        alone = neighbour_terms(full, values.size, values, center[pixels])
        mixed = neighbour_terms(
            np.vstack([full, padded]), values.size, values, center[np.append(pixels, last)]
        )
        assert alone.shape == (rows, 3)
        assert mixed[:rows].tobytes() == alone.tobytes()
        only = neighbour_terms(padded, values.size, values, center[last])
        assert mixed[rows:].tobytes() == only.tobytes()
        # the padded list's terms are those of its own neighbours alone
        d2, idx = np.divmod(padded[0, :short], values.size)
        vals = values[idx]
        expected = [vals.std(), np.mean(np.abs(center[last[0]] - vals)), math.sqrt(d2[0])]
        np.testing.assert_allclose(only[0], expected, rtol=1e-13)


class TestDescriptorInvariances:
    def test_f5_at_least_one_and_f6_in_unit_interval(self):
        params = IdwParams(neighbors=4, window=3)
        for seed in range(4):
            mset, recon = random_case(12, 12, 20, seed, params)
            for lin in mset.unmeasured_indices()[::7]:
                fv = extract_features(
                    recon, mset, (int(lin) // 12, int(lin) % 12), params
                )
                assert fv.values[4] >= 1.0
                assert 0.0 <= fv.values[5] <= 1.0
                assert fv.values[2] >= 0.0 and fv.values[3] >= 0.0

    def test_translation_moves_features(self):
        # geometry shifted by (2, 3) away from all borders
        params = IdwParams(neighbors=3, window=2)
        base_entries = [((3, 3), 40.0), ((4, 6), 160.0), ((6, 4), 80.0)]
        a = MeasurementSet(width=16, height=16)
        b = MeasurementSet(width=16, height=16)
        for loc, v in base_entries:
            a.add(loc, v)
            b.add((loc[0] + 2, loc[1] + 3), v)
        ra, rb = reconstruct(a, params), reconstruct(b, params)
        fa = extract_features(ra, a, (5, 5), params)
        fb = extract_features(rb, b, (7, 8), params)
        np.testing.assert_allclose(fa.values, fb.values, rtol=1e-12, atol=1e-12)

    def test_intensity_shift_leaves_features_unchanged(self):
        params = IdwParams(neighbors=3, window=2)
        entries = [((3, 3), 40.0), ((4, 6), 160.0), ((6, 4), 80.0), ((8, 8), 20.0)]
        a = MeasurementSet(width=16, height=16)
        b = MeasurementSet(width=16, height=16)
        for loc, v in entries:
            a.add(loc, v)
            b.add(loc, v + 50.0)
        ra, rb = reconstruct(a, params), reconstruct(b, params)
        fa = extract_features(ra, a, (5, 5), params)
        fb = extract_features(rb, b, (5, 5), params)
        np.testing.assert_allclose(fa.values, fb.values, rtol=1e-9, atol=1e-9)


class TestMeasuredCountsGrid:
    def test_matches_direct_counting(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            mask = rng.random((11, 13)) < 0.3
            for halfwidth in (1, 2, 5):
                grid = measured_counts_grid(mask, halfwidth)
                for r in range(11):
                    for c in range(13):
                        r0, r1 = max(r - halfwidth, 0), min(r + halfwidth, 10)
                        c0, c1 = max(c - halfwidth, 0), min(c + halfwidth, 12)
                        assert grid[r, c] == mask[r0 : r1 + 1, c0 : c1 + 1].sum()


class TestFitStats:
    def test_single_row_floors_stds(self):
        stats = fit_stats(np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]))
        assert np.array_equal(stats.means, [1, 2, 3, 4, 5, 6])
        assert np.all(stats.stds == STD_FLOOR)

    def test_two_row_hand_case(self):
        rows = np.zeros((2, FEATURE_COUNT))
        rows[1, 0] = 2.0
        stats = fit_stats(rows)
        assert stats.means[0] == 1.0 and stats.stds[0] == 1.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(8)
        rows = rng.uniform(-5, 5, size=(100, FEATURE_COUNT))
        stats = fit_stats(rows)
        for j in range(FEATURE_COUNT):
            col = rows[:, j].tolist()
            mean = sum(col) / len(col)
            var = sum((x - mean) ** 2 for x in col) / len(col)
            assert stats.means[j] == pytest.approx(mean, rel=1e-12)
            assert stats.stds[j] == pytest.approx(math.sqrt(var), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_stats(np.empty((0, FEATURE_COUNT)))


class TestStandardize:
    @pytest.fixture
    def stats(self):
        rng = np.random.default_rng(10)
        return fit_stats(rng.uniform(0, 10, size=(50, FEATURE_COUNT)))

    def test_means_map_to_zero(self, stats):
        out = standardize(stats.means.copy(), stats)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_database_standardizes_to_unit_stats(self):
        rng = np.random.default_rng(11)
        rows = rng.uniform(0, 100, size=(200, FEATURE_COUNT))
        stats = fit_stats(rows)
        out = standardize(rows, stats)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(out.std(axis=0) - 1.0) < 1e-9)

    def test_not_idempotent(self, stats):
        v = stats.means + 2.0 * stats.stds
        once = standardize(v, stats)
        twice = standardize(once, stats)
        assert not np.allclose(once, twice)

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            FeatureStats(means=np.zeros(FEATURE_COUNT), stds=np.zeros(FEATURE_COUNT))
