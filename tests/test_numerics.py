"""Guards for the deterministic numeric kernels.

The whole package leans on two properties: the products behind prediction
(fixed-shape BLAS row or column tiles, or einsum) give each output row the same bits no
matter which other rows are in the batch, and fsum-based absolute sums are
exactly rounded (hence order-free).  These
tests pin both down so a regression is caught here and not as a mysterious
determinism failure three layers up.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from sparsescan import numerics
from sparsescan.numerics import (
    MATMUL_TILE,
    ROW_TILE,
    exact_abs_sum,
    matmul_path,
    quantize_u8,
    row_tiles,
    stable_cross_sq_dists,
    stable_matvec,
    tile_product,
)
from sparsescan.regress import svr


def stable_matmul(a, b):
    """(m, k) @ (k, n) through row_tiles and tile_product, the product mlp.forward runs."""
    h = row_tiles(np.asarray(a, dtype=np.float64))
    out = np.empty((h.shape[0], MATMUL_TILE, b.shape[1]))
    return tile_product(h, b, out).reshape(-1, b.shape[1])[: len(a)]


class TestRowStability:
    """Row i of a product must not depend on the rest of the batch."""

    def test_matmul_rows_match_single_row_products(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            a = rng.standard_normal((37, 50))
            b = rng.standard_normal((50, 50))
            full = stable_matmul(a, b)
            for i in (0, 5, 36):
                row = stable_matmul(a[i : i + 1], b)
                assert np.array_equal(full[i], row[0])

    def test_matmul_rows_survive_batch_permutation(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((64, 23))
        b = rng.standard_normal((23, 11))
        perm = rng.permutation(64)
        full = stable_matmul(a, b)
        shuffled = stable_matmul(a[perm], b)
        assert np.array_equal(full[perm], shuffled)

    def test_matvec_entries_match_scalar_dots(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 17))
        v = rng.standard_normal(17)
        full = stable_matvec(a, v)
        for i in range(0, 40, 7):
            single = stable_matvec(a[i : i + 1], v)
            assert full[i] == single[0]

    def test_cross_sq_dists_rows_are_batch_independent(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((30, 6))
        b = rng.standard_normal((12, 6))
        full = stable_cross_sq_dists(a, b)
        for i in (0, 13, 29):
            row = stable_cross_sq_dists(a[i : i + 1], b)
            assert np.array_equal(full[i], row[0])

    def test_cross_sq_dists_into_given_arrays_keeps_bits(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((30, 6))
        b = rng.standard_normal((12, 6))
        out, scratch = np.empty((2, 30, 12))
        got = stable_cross_sq_dists(a, b, out=out, scratch=scratch)
        assert got is out
        want = np.maximum(
            np.einsum("ij,ij->i", a, a)[:, None]
            + np.einsum("ij,ij->i", b, b)[None, :]
            - 2.0 * np.einsum("ij,kj->ik", a, b),
            0.0,
        )
        assert np.array_equal(got, want)
        assert np.array_equal(stable_cross_sq_dists(a, b), want)

    def test_cross_sq_dists_nonnegative_and_zero_diagonal(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((25, 6))
        d = stable_cross_sq_dists(a, a)
        assert np.all(d >= 0.0)
        assert np.allclose(np.diag(d), 0.0, atol=1e-12)


@pytest.fixture
def fresh_self_test():
    """Forget memoised self-test results before and after the test."""
    numerics._tiles_row_invariant.cache_clear()
    svr.slab_path.cache_clear()
    yield
    numerics._tiles_row_invariant.cache_clear()
    svr.slab_path.cache_clear()


def _einsum_matmul(a, b):
    return np.einsum("ij,jk->ik", a, b)


def _einsum_tiles(h, w, out):
    return np.einsum("tij,jk->tik", h, w, out=out)


def _position_dependent(h, w, out):
    """A stacked tile product whose rows depend on where they sit in a tile."""
    np.matmul(h, w, out=out)
    out += np.arange(h.shape[1])[:, None] * 1e-9
    return out


class TestTiledMatmul:
    """tile_product runs stacked fixed-shape BLAS tiles behind a self-test."""

    @pytest.mark.parametrize("k, n", [(6, 50), (50, 50), (50, 1)])
    def test_mlp_weight_shapes_take_the_tiled_path(self, k, n):
        # fails on a BLAS build whose tiles are not row-position invariant:
        # prediction there is correct but runs the slower einsum fallback
        assert matmul_path(k, n) == f"blas-tile{MATMUL_TILE}"

    @pytest.mark.parametrize("m", [1, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 1000])
    def test_rows_independent_of_batch_across_tile_edges(self, m):
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, 50))
        b = rng.standard_normal((50, 50))
        full = stable_matmul(a, b)
        perm = rng.permutation(m)
        assert np.array_equal(stable_matmul(a[perm], b), full[perm])
        for i in {0, m // 2, m - 1}:
            assert np.array_equal(stable_matmul(a[i : i + 1], b)[0], full[i])

    def test_agrees_with_einsum_reference(self):
        rng = np.random.default_rng(21)
        for k, n in ((6, 50), (50, 50), (50, 1)):
            a = rng.standard_normal((1000, k))
            b = rng.standard_normal((k, n))
            np.testing.assert_allclose(
                stable_matmul(a, b), _einsum_matmul(a, b), rtol=1e-9, atol=1e-12
            )

    def test_accepts_non_contiguous_inputs(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((300, 100))[:, ::2]
        b = rng.standard_normal((100, 50))[::2]
        assert np.array_equal(stable_matmul(a, b), stable_matmul(a.copy(), b.copy()))

    def test_self_test_runs_once_per_weight_shape(self, fresh_self_test):
        rng = np.random.default_rng(23)
        for m in (3, 300, 700):
            stable_matmul(rng.standard_normal((m, 50)), rng.standard_normal((50, 50)))
            stable_matmul(rng.standard_normal((m, 50)), rng.standard_normal((50, 1)))
        info = numerics._tiles_row_invariant.cache_info()
        assert (info.misses, info.hits) == (2, 4)

    def test_self_test_accepts_an_invariant_product(self, fresh_self_test, monkeypatch):
        monkeypatch.setattr(numerics, "_tile_matmul", _einsum_tiles)
        assert matmul_path(50, 50) == f"blas-tile{MATMUL_TILE}"

    def test_failed_self_test_falls_back_to_einsum(self, fresh_self_test, monkeypatch):
        monkeypatch.setattr(numerics, "_tile_matmul", _position_dependent)
        assert matmul_path(50, 50) == "einsum"
        rng = np.random.default_rng(24)
        a = rng.standard_normal((ROW_TILE + 7, 50))
        b = rng.standard_normal((50, 50))
        full = stable_matmul(a, b)
        assert np.array_equal(full, _einsum_matmul(a, b))
        perm = rng.permutation(a.shape[0])
        assert np.array_equal(stable_matmul(a[perm], b), full[perm])


class TestColumnTiles:
    """SVR's kernel runs as (ROW_TILE, k) @ (k, ROW_TILE) column tiles, and
    the same self-test, turned round, runs that slab loop itself."""

    def test_self_test_product_spans_a_full_and_a_padded_tile(self):
        rng = np.random.default_rng(25)
        sv = rng.standard_normal((40, 6))
        coefficients = rng.uniform(-1.0, 1.0, 40)
        model = svr.SvrModel(sv, coefficients, bias=0.0, gamma=1.0 / 6.0, c=1.0, epsilon=0.1)
        q = rng.standard_normal((ROW_TILE + 7, 6))
        got = svr._predict_slabs(model, q)
        assert got.shape == (ROW_TILE + 7,)
        want = np.exp(-stable_cross_sq_dists(q, sv) / 6.0) @ coefficients
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_self_test_accepts_an_invariant_product(self, fresh_self_test, monkeypatch):
        monkeypatch.setattr(svr, "_predict_slabs", svr._predict_einsum_blocks)
        assert svr.slab_path(8) == f"blas-coltile{ROW_TILE}"

    def test_failed_self_test_reports_einsum(self, fresh_self_test, monkeypatch):
        def position_dependent(model, v):
            return v.sum(axis=1) + np.arange(v.shape[0]) * 1e-9

        monkeypatch.setattr(svr, "_predict_slabs", position_dependent)
        assert svr.slab_path(8) == "einsum"

    @pytest.mark.parametrize("width", [64, 128, 192])
    def test_self_test_checks_every_narrowed_width(self, fresh_self_test, monkeypatch, width):
        # a slab loop that goes wrong only when a call's last tile is cut to
        # `width` columns must fail the self-test, and only that width
        assert list(range(svr.TAIL_STEP, ROW_TILE, svr.TAIL_STEP)) == [64, 128, 192]
        slabs = svr._predict_slabs

        def wrong_at_width(model, v):
            got = slabs(model, v)
            tail = v.shape[0] % ROW_TILE
            if -(-tail // svr.TAIL_STEP) * svr.TAIL_STEP == width:
                got[-tail:] += np.arange(tail) * 1e-9
            return got

        monkeypatch.setattr(svr, "_predict_slabs", wrong_at_width)
        assert svr.slab_path(8) == "einsum"


class TestExactAbsSum:
    def test_matches_fraction_arithmetic(self):
        # Fractions add without rounding, so this is the true value; fsum
        # promises the nearest double to it.
        rng = np.random.default_rng(0)
        for trial in range(30):
            a = rng.uniform(0, 255, size=257)
            b = rng.uniform(0, 255, size=257)
            diffs = [abs(Fraction(x) - Fraction(y)) for x, y in zip(a, b)]
            expected = float(sum(diffs))
            assert exact_abs_sum(a, b) == expected

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 255, size=1000)
        b = rng.uniform(0, 255, size=1000)
        base = exact_abs_sum(a, b)
        for trial in range(5):
            perm = rng.permutation(1000)
            assert exact_abs_sum(a[perm], b[perm]) == base

    def test_zero_for_identical_inputs(self):
        a = np.linspace(0, 255, 100)
        assert exact_abs_sum(a, a) == 0.0

    def test_blocks_sum_as_one_list(self):
        # several ROW_BLOCKs and a ragged tail: differences that cancel to
        # nothing or to an ulp, beside magnitudes a running sum would lose
        rng = np.random.default_rng(2)
        size = 3 * numerics.ROW_BLOCK + 123
        a = rng.uniform(0.0, 255.0, size)
        b = a + rng.choice([0.0, 1e16, 0.1, 1e-13], size=size) * rng.uniform(0.5, 2.0, size)
        b[::7] = np.nextafter(a[::7], np.inf)
        expected = math.fsum(np.abs(a - b).tolist())
        assert expected != sum(np.abs(a - b).tolist())
        assert exact_abs_sum(a, b) == expected
        assert exact_abs_sum(a.reshape(-1, 3), b.reshape(-1, 3)) == expected
        # 2^53 in the first block and 0.5 in each later one: the exact sum
        # rounds to 2^53 + 2, a sum of exact per-block sums to 2^53
        spread = np.zeros(size)
        spread[0] = 2.0**53
        spread[numerics.ROW_BLOCK :: numerics.ROW_BLOCK] = 0.5
        assert exact_abs_sum(spread, np.zeros(size)) == 2.0**53 + 2

    def test_accepts_2d_grids(self):
        a = np.arange(12.0).reshape(3, 4)
        b = np.zeros((3, 4))
        assert exact_abs_sum(a, b) == float(np.arange(12).sum())


class TestQuantizeU8:
    def test_half_values_round_away_from_zero(self):
        vals = np.array([0.5, 1.5, 2.5, 254.5])
        assert quantize_u8(vals).tolist() == [1, 2, 3, 255]

    def test_clips_out_of_range(self):
        vals = np.array([-3.0, -0.4, 255.4, 300.0])
        assert quantize_u8(vals).tolist() == [0, 0, 255, 255]

    def test_integers_pass_through(self):
        vals = np.arange(256, dtype=np.float64)
        assert np.array_equal(quantize_u8(vals), np.arange(256, dtype=np.uint8))

    def test_dtype_and_shape(self):
        grid = np.full((4, 5), 7.3)
        out = quantize_u8(grid)
        assert out.dtype == np.uint8 and out.shape == (4, 5)
        assert np.all(out == 7)

    def test_round_trip_error_bounded_by_half(self):
        rng = np.random.default_rng(5)
        vals = rng.uniform(0, 255, size=500)
        out = quantize_u8(vals).astype(np.float64)
        assert np.max(np.abs(out - vals)) <= 0.5


class TestNumpySumAssumption:
    def test_axis1_sum_equals_1d_sums(self):
        # idw relies on sum(axis=1) of a (rows, k) block matching the sum of
        # each row taken alone
        rng = np.random.default_rng(9)
        w = rng.uniform(0.001, 10.0, size=(200, 10))
        batched = np.sum(w, axis=1)
        for i in range(0, 200, 17):
            assert batched[i] == np.sum(w[i])

    def test_fsum_matches_math_literal_case(self):
        vals = [0.1] * 10
        assert math.fsum(vals) == 1.0
