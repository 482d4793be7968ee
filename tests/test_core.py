"""Core types and the distortion / PSNR metrics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sparsescan.core import (
    INTENSITY_MAX,
    PSNR_CAP_DB,
    DimensionMismatchError,
    DuplicateMeasurementError,
    GroundTruthImage,
    MeasurementSet,
    OutOfBoundsError,
    PixelLocation,
    distortion,
    linear_index,
    load_image,
    location_of,
    psnr,
    save_image,
)


class TestGroundTruthImage:
    def test_from_array_shape_and_dims(self):
        img = GroundTruthImage.from_array(np.zeros((3, 5)))
        assert (img.width, img.height) == (5, 3)
        assert img.pixel_count == 15

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GroundTruthImage.from_array(np.full((2, 2), 256.0))
        with pytest.raises(ValueError):
            GroundTruthImage.from_array(np.full((2, 2), -1.0))

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            GroundTruthImage.from_array(bad)

    def test_file_round_trip(self, tmp_path):
        values = np.arange(24, dtype=np.float64).reshape(4, 6) * 10
        path = tmp_path / "x.pgm"
        save_image(path, values)
        back = load_image(path)
        assert np.array_equal(back.values, values)


class TestLinearIndexing:
    def test_row_major_order(self):
        assert linear_index(PixelLocation(0, 0), 8) == 0
        assert linear_index(PixelLocation(1, 0), 8) == 8
        assert linear_index(PixelLocation(2, 5), 8) == 21

    def test_location_of_inverts(self):
        for idx in range(40):
            loc = location_of(idx, 8)
            assert linear_index(loc, 8) == idx


class TestMeasurementSet:
    @pytest.fixture
    def mset(self):
        return MeasurementSet(width=4, height=3)

    def test_add_updates_everything(self, mset):
        mset.add(PixelLocation(1, 2), 50.0)
        assert mset.k == 1
        assert (1, 2) in mset
        assert mset.mask[1, 2]
        assert mset.value_grid()[1, 2] == 50.0
        assert mset.measured_indices().tolist() == [6]

    def test_duplicate_rejected(self, mset):
        mset.add((0, 0), 1.0)
        with pytest.raises(DuplicateMeasurementError):
            mset.add((0, 0), 2.0)

    def test_out_of_bounds_rejected(self, mset):
        with pytest.raises(OutOfBoundsError):
            mset.add((3, 0), 1.0)
        with pytest.raises(OutOfBoundsError):
            mset.add((0, 4), 1.0)

    def test_unmeasured_index_checks_a_location_once_for_every_caller(self, mset):
        assert mset.unmeasured_index((2, 3)) == 2 * 4 + 3
        assert mset.unmeasured_index(PixelLocation(1, 0)) == 4
        assert mset.add((1, 2), 5.0) == 1 * 4 + 2  # add returns the index it checked
        with pytest.raises(DuplicateMeasurementError):
            mset.unmeasured_index((1, 2))
        for loc in [(-1, 0), (3, 0), (0, -1), (0, 4)]:
            with pytest.raises(OutOfBoundsError):
                mset.unmeasured_index(loc)
        assert mset.k == 1 and mset.mask.sum() == 1  # a check measures nothing

    def test_out_of_grid_location_is_not_measured(self, mset):
        mset.add((2, 0), 1.0)
        assert (2, 0) in mset
        for loc in [(-1, 0), (3, 0), (0, -1), (0, 4), (-1, -1)]:
            assert loc not in mset

    def test_entries_given_at_construction_go_through_add(self):
        given = [((1, 2), 50.0), (PixelLocation(0, 3), 7.0)]
        mset = MeasurementSet(width=4, height=3, entries=given)
        assert mset.k == 2 and mset.mask.sum() == 2
        assert (1, 2) in mset and (0, 3) in mset
        assert mset.entries == [(PixelLocation(1, 2), 50.0), (PixelLocation(0, 3), 7.0)]
        assert mset.value_grid()[1, 2] == 50.0
        assert mset.measured_indices().tolist() == [3, 6]
        mset.add((2, 2), 1.0)
        assert len(given) == 2  # the caller's list is not the set's
        with pytest.raises(DuplicateMeasurementError):
            MeasurementSet(width=4, height=3, entries=[((1, 2), 1.0), ((1, 2), 2.0)])
        with pytest.raises(OutOfBoundsError):
            MeasurementSet(width=4, height=3, entries=[((3, 0), 1.0)])

    def test_from_linear_equals_adding_in_order(self):
        rng = np.random.default_rng(3)
        lin = rng.choice(35, size=20, replace=False)
        values = rng.uniform(0.0, 255.0, size=20)
        values[0] = -0.0
        bulk = MeasurementSet.from_linear(7, 5, lin, values)
        added = MeasurementSet(width=7, height=5)
        for i, value in zip(lin, values):
            added.add(divmod(int(i), 7), value)
        assert bulk.entries == added.entries
        assert all(type(x) is int for loc, _ in bulk.entries for x in loc)
        assert all(type(v) is float for _, v in bulk.entries)
        assert bulk.mask.tobytes() == added.mask.tobytes()
        assert bulk.value_grid().tobytes() == added.value_grid().tobytes()
        free = int(np.setdiff1d(np.arange(35), lin)[0])
        bulk.add(divmod(free, 7), 1.0)  # a bulk-built set grows like any other
        assert bulk.k == 21 and bulk.mask.ravel()[free]
        empty = MeasurementSet.from_linear(7, 5, [], [])
        assert empty.k == 0 and not empty.mask.any()

    def test_from_linear_rejects_what_add_rejects(self):
        with pytest.raises(DuplicateMeasurementError, match=r"row=1, col=2\)"):
            MeasurementSet.from_linear(4, 3, [0, 6, 5, 6], [1.0, 2.0, 3.0, 4.0])
        for bad in (-1, 12):
            with pytest.raises(OutOfBoundsError, match=f"index {bad} outside 4x3"):
                MeasurementSet.from_linear(4, 3, [0, bad], [1.0, 2.0])
        with pytest.raises(ValueError, match="equally long"):
            MeasurementSet.from_linear(4, 3, [0, 1], [1.0])

    def test_exhaustion(self, mset):
        for r in range(3):
            for c in range(4):
                mset.add((r, c), float(r + c))
        assert mset.k == 12
        assert mset.mask.all()
        assert mset.unmeasured_indices().size == 0

    def test_append_only_history(self, mset):
        mset.add((0, 1), 5.0)
        first = mset.entries[0]
        mset.add((2, 2), 9.0)
        assert mset.entries[0] == first
        assert [loc for loc, _ in mset.entries] == [(0, 1), (2, 2)]

    def test_copy_is_independent(self, mset):
        mset.add((0, 0), 1.0)
        dup = mset.copy()
        dup.add((1, 1), 2.0)
        assert mset.k == 1 and dup.k == 2
        assert not mset.mask[1, 1]
        assert mset.value_grid()[1, 1] == 0.0 and dup.value_grid()[1, 1] == 2.0
        assert dup.value_grid()[0, 0] == 1.0


class TestDistortion:
    def test_identity_is_zero(self):
        a = np.random.default_rng(0).uniform(0, 255, (8, 8))
        assert distortion(a, a) == 0.0

    def test_spec_hand_case(self):
        a = np.array([[10.0, 20.0, 30.0, 40.0]])
        b = np.array([[10.0, 20.0, 30.0, 44.0]])
        assert distortion(a, b) == 4.0

    def test_matches_exact_elementwise_oracle(self):
        # independent oracle: rational arithmetic, no rounding until the end
        rng = np.random.default_rng(17)
        for trial in range(10):
            a = rng.uniform(0, 255, (8, 8))
            b = rng.uniform(0, 255, (8, 8))
            expected = float(
                sum(abs(Fraction(x) - Fraction(y)) for x, y in zip(a.ravel(), b.ravel()))
            )
            assert distortion(a, b) == expected

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            a = rng.uniform(0, 255, (6, 7))
            b = rng.uniform(0, 255, (6, 7))
            d = distortion(a, b)
            assert d >= 0.0
            assert d == distortion(b, a)
            assert (d == 0.0) == bool(np.array_equal(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            distortion(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_accepts_wrapper_objects(self):
        img = GroundTruthImage.from_array(np.full((2, 2), 9.0))
        assert distortion(img, np.full((2, 2), 9.0)) == 0.0


class TestPsnr:
    def test_zero_mse_hits_cap(self):
        a = np.full((4, 4), 100.0)
        assert psnr(a, a) == PSNR_CAP_DB == 99.0

    def test_spec_case_mse_4(self):
        a = np.zeros((2, 2))
        b = np.array([[0.0, 0.0], [0.0, 4.0]])
        expected = 10.0 * math.log10(255.0**2 / 4.0)
        assert psnr(a, b) == pytest.approx(expected, abs=1e-12)
        assert round(psnr(a, b), 2) == 42.11

    def test_spec_case_constant_offset(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(10, 240, (5, 5))
        b = a + 1.0
        expected = 10.0 * math.log10(255.0**2 / 1.0)
        assert psnr(a, b) == pytest.approx(expected, abs=1e-9)
        assert round(psnr(a, b), 2) == 48.13

    def test_strictly_decreasing_in_mse(self):
        base = np.zeros((4, 4))
        values = []
        for err in (0.5, 1.0, 2.0, 4.0, 16.0):
            values.append(psnr(base, np.full((4, 4), err)))
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_max_constant(self):
        assert INTENSITY_MAX == 255.0
