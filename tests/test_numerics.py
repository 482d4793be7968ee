"""Guards for the deterministic numeric kernels.

The whole package leans on two properties: the products behind prediction
(fixed-shape BLAS tiles, or einsum) give each output row the same bits no
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
    ROW_TILE,
    exact_abs_sum,
    matmul_path,
    quantize_u8,
    stable_cross_sq_dists,
    stable_matmul,
    stable_matvec,
)


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
    yield
    numerics._tiles_row_invariant.cache_clear()


def _einsum_matmul(a, b):
    return np.einsum("ij,jk->ik", a, b)


def _position_dependent(a, b):
    """A product whose rows depend on where they sit in the batch."""
    return a @ b + np.arange(a.shape[0])[:, None] * 1e-9


class TestTiledMatmul:
    """stable_matmul runs fixed-shape BLAS tiles behind a self-test."""

    @pytest.mark.parametrize("k, n", [(6, 50), (50, 50), (50, 1)])
    def test_mlp_weight_shapes_take_the_tiled_path(self, k, n):
        # fails on a BLAS build whose tiles are not row-position invariant:
        # prediction there is correct but runs the slower einsum fallback
        assert matmul_path(k, n) == f"blas-tile{ROW_TILE}"

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
        monkeypatch.setattr(numerics, "_blas_tiles", _einsum_matmul)
        assert matmul_path(50, 50) == f"blas-tile{ROW_TILE}"

    def test_failed_self_test_falls_back_to_einsum(self, fresh_self_test, monkeypatch):
        monkeypatch.setattr(numerics, "_blas_tiles", _position_dependent)
        assert matmul_path(50, 50) == "einsum"
        rng = np.random.default_rng(24)
        a = rng.standard_normal((ROW_TILE + 7, 50))
        b = rng.standard_normal((50, 50))
        full = stable_matmul(a, b)
        assert np.array_equal(full, _einsum_matmul(a, b))
        perm = rng.permutation(a.shape[0])
        assert np.array_equal(stable_matmul(a[perm], b), full[perm])


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
