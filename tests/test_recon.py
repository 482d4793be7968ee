"""Nearest-neighbor search and IDW reconstruction tests.

The neighbor oracle is an exhaustive sort over all measured pixels using
integer squared distances, so it has no floating-point or tie ambiguity.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsescan import neighbors
from sparsescan.core import (
    GroundTruthImage,
    MeasurementSet,
    PixelLocation,
    Reconstruction,
    distortion,
)
from sparsescan.engine import ReconState, select_next
from sparsescan.features import FeatureStats, extract_features
from sparsescan.recon import (
    IdwParams,
    idw_from_neighbors,
    nearest_measured,
    reconstruct,
)
from sparsescan.regress import ErdModel, LinearModel
from sparsescan.training import RdEvaluator


def brute_force_knn(query_lin, measured, width, count):
    """Exhaustive (d2, index) sort; the canonical ordering by definition."""
    qr, qc = divmod(int(query_lin), width)
    ranked = sorted(
        ((qr - m // width) ** 2 + (qc - m % width) ** 2, int(m)) for m in measured
    )
    return ranked[:count]


def decode_masked(comp, n):
    """neighbors.decode_lists, with an all-true mask where it returns None (no pads)."""
    d2, idx, valid = neighbors.decode_lists(comp, n)
    return d2, idx, np.ones(comp.shape, dtype=bool) if valid is None else valid


def random_mset(width, height, k, seed, value_rng=None):
    rng = np.random.default_rng(seed)
    chosen = rng.choice(width * height, size=k, replace=False)
    mset = MeasurementSet(width=width, height=height)
    vrng = value_rng or rng
    for lin in chosen:
        mset.add((int(lin) // width, int(lin) % width), float(vrng.uniform(0, 255)))
    return mset


class TestNeighborSearch:
    def test_matches_exhaustive_sort_oracle(self):
        # 50 measurements on 32x32, L=10, against the full-sort oracle
        for seed in range(8):
            mset = random_mset(32, 32, 50, seed)
            measured = mset.measured_indices()
            queries = mset.unmeasured_indices()
            comp = neighbors.knn_measured(queries, measured, 32, 32, 10)
            d2, idx, valid = decode_masked(comp, 32 * 32)
            check_rows = np.random.default_rng(seed + 100).choice(
                queries.size, size=40, replace=False
            )
            for row in check_rows:
                expected = brute_force_knn(queries[row], measured, 32, 10)
                got = list(zip(d2[row][valid[row]].tolist(), idx[row][valid[row]].tolist()))
                assert got == expected

    @staticmethod
    def assert_every_row_canonical(queries, measured, width, height, count):
        comp = neighbors.knn_measured(queries, measured, width, height, count)
        d2, idx, valid = decode_masked(comp, width * height)
        for row, q in enumerate(queries):
            got = list(zip(d2[row][valid[row]].tolist(), idx[row][valid[row]].tolist()))
            assert got == brute_force_knn(q, measured, width, count), int(q)

    def test_tie_group_wider_than_count_is_exact(self):
        # 1105 = 4^2+33^2 = 9^2+32^2 = 12^2+31^2 = 23^2+24^2: 32 lattice points
        # share d2 = 1105 around the centre, so the tie group at the 10th
        # distance is wider than count; 20 points on the top row are farther
        # and take the set past count + 32, where a brute-force sort once
        # handed over to the tree.  (40, 40) and (43, 43) are opposite corner
        # pixels of a 4x4 tile, as far from its centre as a pixel gets, and
        # (42, 41) lies inside one.
        size, count = 80, 10
        offsets = {
            (sr * a, sc * b)
            for a, b in ((4, 33), (9, 32), (12, 31), (23, 24))
            for a, b in ((a, b), (b, a))
            for sr in (-1, 1)
            for sc in (-1, 1)
        }
        assert len(offsets) == 32 > count
        for row, col in ((40, 40), (43, 43), (42, 41)):
            ring = [(row + dr) * size + col + dc for dr, dc in offsets]
            far = list(range(0, 80, 4))
            measured = np.array(sorted(ring + far), dtype=np.int64)
            assert measured.size > count + 32
            mask = np.zeros(size * size, dtype=bool)
            mask[measured] = True
            queries = np.flatnonzero(~mask)
            self.assert_every_row_canonical(queries, measured, size, size, count)
            centre = np.array([row * size + col])
            comp = neighbors.knn_measured(centre, measured, size, size, count)
            assert np.all(comp // (size * size) == 1105)

    @pytest.mark.parametrize(
        "width, height, density, count",
        [
            (150, 161, 0.002, 10),
            (67, 70, 0.01, 10),
            (47, 41, 0.05, 10),
            (47, 41, 0.2, 10),
            (47, 41, 0.4, 10),
            (47, 41, 0.7, 10),
            (47, 41, 0.05, 1),
            (47, 41, 0.2, 3),
            (33, 47, 0.1, 10),
            (1, 200, 0.3, 10),
            (200, 1, 0.3, 10),
            (1, 200, 0.3, 1),
            (7, 3, 0.5, 3),
            (61, 37, 0.01, 10),
            (6, 130, 0.05, 10),
            (130, 5, 0.02, 7),
            (30, 21, 0.005, 10),
        ],
    )
    def test_uniform_masks(self, width, height, density, count):
        k = max(1, round(density * width * height))
        mset = random_mset(width, height, k, seed=width * height + count)
        self.assert_every_row_canonical(
            mset.unmeasured_indices(), mset.measured_indices(), width, height, count
        )

    @pytest.mark.parametrize(
        "rows, cols, rest, shuffled",
        [
            (slice(0, 20), slice(0, 20), 0.0, False),
            (slice(30, 45), slice(36, 53), 0.0, False),
            (slice(0, 3), slice(None), 0.0, False),
            (slice(2, None, 11), slice(None), 0.0, False),
            (slice(12, 30), slice(20, 39), 0.01, False),
            (slice(0, 9), slice(44, 53), 0.02, True),
            (slice(2, None, 11), slice(None), 0.0, True),
        ],
        ids=[
            "corner-block",
            "opposite-corner-block",
            "top-rows",
            "every-11th-row",
            "block-beside-sparse-rest",
            "corner-block-beside-sparse-rest-unsorted",
            "every-11th-row-unsorted",
        ],
    )
    def test_block_and_row_masks_queried_everywhere(self, rows, cols, rest, shuffled):
        # every pixel is queried, measured ones included, as nearest_measured
        # may; rest measures a random share of the other pixels, and
        # shuffled passes the measured indices out of order
        width, height = 53, 45
        rng = np.random.default_rng(7)
        grid = rng.random((height, width)) < rest
        grid[rows, cols] = True
        measured = np.flatnonzero(grid)
        assert measured.size > 10 + 32  # past the old brute-force cut-over
        if shuffled:
            measured = rng.permutation(measured)
        queries = np.arange(width * height)
        self.assert_every_row_canonical(queries, measured, width, height, 10)

    # measured sets below, at and above count, and around count + 32 = 42,
    # where a brute-force sort once handed over to the tree; extra is the
    # offset from 42
    @pytest.mark.parametrize("extra", [-41, -40, -33, -32, -31, -1, 0, 1, 2])
    def test_both_sides_of_the_brute_force_cut_over(self, extra):
        count = 10
        k = count + 32 + extra
        mset = random_mset(40, 30, k, seed=k)
        self.assert_every_row_canonical(
            mset.unmeasured_indices(), mset.measured_indices(), 40, 30, count
        )

    @pytest.mark.parametrize("step", [3, 4, 8])
    def test_lattice_mask(self, step):
        width, height = 64, 48
        grid = np.zeros((height, width), dtype=bool)
        grid[::step, ::step] = True
        measured = np.flatnonzero(grid)
        assert measured.size > 10 + 32  # past the old brute-force cut-over
        queries = np.flatnonzero(~grid.ravel())
        self.assert_every_row_canonical(queries, measured, width, height, 10)

    def test_fewer_measured_than_requested(self):
        mset = random_mset(16, 16, 3, 0)
        queries = mset.unmeasured_indices()
        comp = neighbors.knn_measured(queries, mset.measured_indices(), 16, 16, 10)
        d2, idx, valid = decode_masked(comp, 256)
        assert np.all(valid.sum(axis=1) == 3)
        assert np.all(d2[~valid] == 1) and np.all(idx[~valid] == 0)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_raises_in_both_entry_points(self, count):
        # a search asked for no neighbours could end the process rather than
        # raise, so the calls run in a child process: a regression fails
        # this test rather than killing the test run
        script = f"""
import numpy as np
from sparsescan import neighbors
from sparsescan.core import MeasurementSet
from sparsescan.recon import nearest_measured

mset = MeasurementSet(width=8, height=8)
mset.add((1, 2), 5.0)
calls = (
    lambda: neighbors.knn_measured(np.arange(64), mset.measured_indices(), 8, 8, {count}),
    lambda: nearest_measured(mset, (3, 3), {count}),
)
for call in calls:
    try:
        call()
    except ValueError as exc:
        print("ValueError:", exc)
"""
        src = str(Path(neighbors.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"ValueError: count must be at least 1, got {count}"] * 2

    def test_insertion_preserves_canonical_lists(self):
        # inserting one measurement must leave every row equal to a rebuild,
        # but for the rows closed with -1 in their last slot: the new pixel's
        # own and a few more, which stay byte-equal
        width = height = 24
        for seed in range(6):
            mset = random_mset(width, height, 40, seed)
            queries = mset.unmeasured_indices()
            comp = neighbors.knn_measured(queries, mset.measured_indices(), width, height, 8)
            rng = np.random.default_rng(seed + 50)
            new_lin = int(rng.choice(queries))
            closed = (queries == new_lin) | (rng.random(queries.size) < 0.1)
            comp[closed, -1] = -1
            kept = comp[closed].copy()
            changed = neighbors.insert_measurement(comp, queries, new_lin, width, height)
            assert not closed[changed].any()
            assert comp[closed].tobytes() == kept.tobytes()
            measured2 = np.sort(np.append(mset.measured_indices(), new_lin))
            rebuilt = neighbors.knn_measured(queries, measured2, width, height, 8)
            assert np.array_equal(comp[~closed], rebuilt[~closed])


# every caller of a from-scratch neighbour build, run against mset with pixel
# (0, 1) unmeasured
_BUILDERS = {
    "reconstruct": lambda mset, recon, model: reconstruct(mset, model.idw),
    "ReconState": lambda mset, recon, model: ReconState(mset, model.idw),
    "select_next": lambda mset, recon, model: select_next(model, recon, mset),
    "extract_features": lambda mset, recon, model: extract_features(
        recon, mset, (0, 1), model.idw
    ),
    "nearest_measured": lambda mset, recon, model: nearest_measured(mset, (0, 1), 10),
    "RdEvaluator": lambda mset, recon, model: RdEvaluator(
        GroundTruthImage.from_array(recon.values), mset, model.idw
    ),
}


@pytest.mark.parametrize("builder", sorted(_BUILDERS))
@pytest.mark.parametrize(
    "width, measured, message",
    [
        (16, (), "at least one measured pixel"),
        # composites overflow: a 1xN grid fails from N = 1,321,124
        (1_400_000, ((0, 0),), "too large for composite keys"),
    ],
    ids=["empty", "grid-too-large"],
)
def test_every_neighbour_build_checks_its_preconditions(builder, width, measured, message):
    mset = MeasurementSet(width=width, height=1, entries=[(loc, 7.0) for loc in measured])
    recon = Reconstruction(width=width, height=1, values=np.zeros((1, width)))
    model = ErdModel(
        kind="lsq",
        payload=LinearModel(theta=np.zeros(6)),
        stats=FeatureStats(means=np.zeros(6), stds=np.ones(6)),
        idw=IdwParams(),
    )
    with pytest.raises(ValueError, match=message):
        _BUILDERS[builder](mset, recon, model)


class TestNearestMeasured:
    def test_three_four_five_triangle(self):
        mset = MeasurementSet(width=8, height=8)
        mset.add((0, 0), 42.0)
        got = nearest_measured(mset, PixelLocation(3, 4), 1)
        assert got == [(PixelLocation(0, 0), 42.0, 5.0)]

    def test_measured_query_returns_itself_first(self):
        mset = MeasurementSet(width=8, height=8)
        mset.add((2, 2), 7.0)
        mset.add((5, 5), 9.0)
        got = nearest_measured(mset, (2, 2), 2)
        assert got[0] == (PixelLocation(2, 2), 7.0, 0.0)

    def test_ties_break_by_linear_index(self):
        mset = MeasurementSet(width=8, height=8)
        mset.add((3, 5), 1.0)  # distance 1 from (3,4), index 29
        mset.add((3, 3), 2.0)  # distance 1, index 27 -> first
        got = nearest_measured(mset, (3, 4), 2)
        assert [g[0] for g in got] == [PixelLocation(3, 3), PixelLocation(3, 5)]

    def test_empty_set_errors(self):
        mset = MeasurementSet(width=4, height=4)
        with pytest.raises(ValueError):
            nearest_measured(mset, (0, 0), 1)


class TestReconstruct:
    def test_single_measurement_gives_constant_image(self):
        mset = MeasurementSet(width=6, height=5)
        mset.add((2, 3), 123.0)
        rec = reconstruct(mset, IdwParams())
        assert np.all(rec.values == 123.0)

    def test_hand_weight_case(self):
        # value 0 at distance 1, value 100 at distance 2, p=2:
        # (0*1 + 100*0.25) / 1.25 = 20
        mset = MeasurementSet(width=9, height=1)
        mset.add((0, 4), 0.0)
        mset.add((0, 1), 100.0)  # distance 2 from column 3
        rec = reconstruct(mset, IdwParams(neighbors=2, power=2.0))
        assert rec.values[0, 3] == pytest.approx(20.0, abs=1e-12)

    def test_measured_pixels_exact(self):
        for seed in range(5):
            mset = random_mset(16, 16, 30, seed)
            rec = reconstruct(mset, IdwParams(neighbors=5))
            for loc, val in mset.entries:
                assert rec.values[loc.row, loc.col] == val

    def test_convex_combination_bounds(self):
        for seed in range(5):
            mset = random_mset(16, 16, 20, seed)
            vals = [v for _, v in mset.entries]
            rec = reconstruct(mset, IdwParams(neighbors=6))
            assert rec.values.min() >= min(vals) - 1e-9
            assert rec.values.max() <= max(vals) + 1e-9
            assert rec.values.min() >= 0.0 and rec.values.max() <= 255.0

    def test_permutation_invariance(self):
        entries = [((1, 1), 10.0), ((4, 7), 200.0), ((6, 2), 90.0), ((0, 5), 55.0)]
        a = MeasurementSet(width=8, height=8)
        b = MeasurementSet(width=8, height=8)
        for loc, v in entries:
            a.add(loc, v)
        for loc, v in reversed(entries):
            b.add(loc, v)
        ra = reconstruct(a, IdwParams(neighbors=3))
        rb = reconstruct(b, IdwParams(neighbors=3))
        assert np.array_equal(ra.values, rb.values)

    def test_full_sampling_zero_distortion(self):
        rng = np.random.default_rng(4)
        truth = rng.uniform(0, 255, (6, 6))
        mset = MeasurementSet(width=6, height=6)
        for r in range(6):
            for c in range(6):
                mset.add((r, c), float(truth[r, c]))
        rec = reconstruct(mset, IdwParams())
        assert distortion(truth, rec.values) == 0.0

    def test_empty_set_errors(self):
        with pytest.raises(ValueError):
            reconstruct(MeasurementSet(width=4, height=4), IdwParams())


class TestIdwFromNeighbors:
    def test_matches_direct_formula(self):
        # one row, neighbors at integer squared distances 1, 4, 9
        n = 100
        comp = np.array([[1 * n + 10, 4 * n + 20, 9 * n + 30]], dtype=np.int64)
        values = np.zeros(n)
        values[10], values[20], values[30] = 30.0, 60.0, 90.0
        got = idw_from_neighbors(comp, n, values, power=2.0)
        w = np.array([1.0, 1.0 / 4.0, 1.0 / 9.0])
        v = np.array([30.0, 60.0, 90.0])
        assert got[0] == pytest.approx(float(np.sum(w * v) / np.sum(w)), rel=1e-15)


class TestIdwListPaths:
    """A call whose lists are all full skips the pad masks; one padded list
    sends the whole call down the masked path.  Full lists must get the
    same bits either way, and a padded list its own neighbours' estimate
    in any call."""

    # (count, short, rows): a padded list with one measured neighbour (k = 1)
    # or nine of ten, a two-slot list with one pad, and no full lists (m = 0)
    @pytest.mark.parametrize(
        "count, short, rows",
        ((10, 1, 70), (10, 9, 70), (2, 1, 70), (10, 1, 0)),
        ids=("k=1", "k=9", "count=2", "m=0"),
    )
    @pytest.mark.parametrize("power", (2.0, 1.0))
    def test_full_lists_alone_and_beside_a_padded_one(self, count, short, rows, power):
        mset = random_mset(12, 9, 30, seed=count + short)
        measured = mset.measured_indices()
        pixels = mset.unmeasured_indices()[:rows]
        last = mset.unmeasured_indices()[-1:]
        full = neighbors.knn_measured(pixels, measured, 12, 9, count)
        padded = neighbors.knn_measured(last, measured[:short], 12, 9, count)
        assert np.all(full < neighbors.SENTINEL)
        assert np.all(padded[0, short:] == neighbors.SENTINEL)
        values = mset.value_grid().ravel()
        alone = idw_from_neighbors(full, values.size, values, power)
        mixed = idw_from_neighbors(np.vstack([full, padded]), values.size, values, power)
        assert alone.shape == (rows,)
        assert mixed[:rows].tobytes() == alone.tobytes()
        only = idw_from_neighbors(padded, values.size, values, power)
        assert mixed[rows:].tobytes() == only.tobytes()
        # a pad read as a composite would be a far pixel: at power 1 its
        # weight moves the estimate by about 1e-7
        d2, idx = np.divmod(padded[0, :short], values.size)
        weights = d2.astype(np.float64) ** (-0.5 * power)
        assert only[0] == pytest.approx(np.sum(weights * values[idx]) / np.sum(weights), rel=1e-13)
