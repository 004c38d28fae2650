"""Discrete operators: dense oracles, adjointness, fast Toeplitz products."""

import numpy as np
import pytest

from fracbvp.grids import Grid, GridFunction
from fracbvp.operators import toeplitz_matvec
from fracbvp.weights import weight_table
from oracles import (
    apply_fcd,
    apply_left_wsgd,
    apply_right_wsgd,
    fcd_matrix,
    left_wsgd_matrix,
    right_wsgd_matrix,
    toeplitz_matvec_naive,
)


def _inner(grid, u, v):
    return grid.h * float(np.dot(u.values, v.values))


def _quadratic(grid):
    x = grid.nodes()
    return GridFunction(grid, x * (1 - x))


class TestClassicalLimit:
    def test_left_wsgd_beta2_on_quadratic(self):
        grid = Grid(64)
        out = apply_left_wsgd(_quadratic(grid), 2.0)
        np.testing.assert_allclose(out.values[1:-1], -2.0, rtol=1e-10)
        assert out.values[0] == 0.0 and out.values[-1] == 0.0

    def test_right_wsgd_beta2_matches_left(self):
        grid = Grid(64)
        v = _quadratic(grid)
        np.testing.assert_allclose(apply_right_wsgd(v, 2.0).values,
                                   apply_left_wsgd(v, 2.0).values, rtol=1e-9)

    def test_fcd_beta2_on_quadratic(self):
        grid = Grid(64)
        out = apply_fcd(_quadratic(grid), 2.0)
        np.testing.assert_allclose(out.values[1:-1], -2.0, rtol=1e-10)


class TestAgainstDenseOracle:
    def test_zero_in_zero_out(self):
        grid = Grid(32)
        z = GridFunction(grid, np.zeros(grid.M + 1))
        for apply_op in (apply_left_wsgd, apply_right_wsgd, apply_fcd):
            np.testing.assert_array_equal(apply_op(z, 1.5).values, 0.0)

    def test_left_matches_dense(self):
        grid = Grid(8)
        x = grid.nodes()
        v = GridFunction(grid, x ** 1.5 * (1 - x))
        got = apply_left_wsgd(v, 1.5).values[1:-1]
        oracle = left_wsgd_matrix(grid, 1.5) @ v.values[1:-1]
        np.testing.assert_allclose(got, oracle, atol=1e-13)

    def test_right_matches_transpose_oracle(self):
        grid = Grid(8)
        rng = np.random.default_rng(3)
        v = GridFunction.from_interior(grid, rng.uniform(-1, 1, grid.M - 1))
        got = apply_right_wsgd(v, 1.3).values[1:-1]
        oracle = left_wsgd_matrix(grid, 1.3).T @ v.values[1:-1]
        np.testing.assert_allclose(got, oracle, atol=1e-13)
        np.testing.assert_array_equal(
            right_wsgd_matrix(grid, 1.3), left_wsgd_matrix(grid, 1.3).T)

    def test_fcd_matches_dense(self):
        grid = Grid(8)
        rng = np.random.default_rng(4)
        v = GridFunction.from_interior(grid, rng.uniform(-1, 1, grid.M - 1))
        got = apply_fcd(v, 1.7).values[1:-1]
        oracle = fcd_matrix(grid, 1.7) @ v.values[1:-1]
        np.testing.assert_allclose(got, oracle, atol=1e-13)
        np.testing.assert_array_equal(fcd_matrix(grid, 1.7), fcd_matrix(grid, 1.7).T)

    def test_reversal_identity(self):
        # R v at node j equals L (reversed v) at node M - j
        grid = Grid(16)
        rng = np.random.default_rng(5)
        v = GridFunction.from_interior(grid, rng.uniform(-1, 1, grid.M - 1))
        rev = GridFunction(grid, v.values[::-1].copy())
        right = apply_right_wsgd(v, 1.5).values
        left_rev = apply_left_wsgd(rev, 1.5).values
        np.testing.assert_allclose(right, left_rev[::-1], atol=1e-12)

    def test_boundary_contributions_respected(self):
        # nonzero boundary data must enter through the stencil ends
        grid = Grid(8)
        vals = np.zeros(grid.M + 1)
        vals[-1] = 2.0
        v = GridFunction(grid, vals)
        t = weight_table(1.5, grid.M)
        scale = grid.h ** -1.5
        out = apply_left_wsgd(v, 1.5)
        assert out.values[-2] == pytest.approx(2.0 * t.w[0] * scale, rel=1e-14)
        out = apply_fcd(v, 1.5)
        np.testing.assert_allclose(
            out.values[1:-1],
            2.0 * scale * t.wc[grid.M - np.arange(1, grid.M)], rtol=1e-13)


class TestAdjointness:
    @pytest.mark.parametrize("M", (16, 64, 256))
    @pytest.mark.parametrize("beta", (1.1, 1.5, 1.9))
    def test_left_right_adjoint(self, M, beta):
        grid = Grid(M)
        rng = np.random.default_rng(M * 7 + int(beta * 10))
        u = GridFunction.from_interior(grid, rng.uniform(-1, 1, M - 1))
        v = GridFunction.from_interior(grid, rng.uniform(-1, 1, M - 1))
        lhs = _inner(grid, apply_right_wsgd(u, beta), v)
        rhs = _inner(grid, u, apply_left_wsgd(v, beta))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    @pytest.mark.parametrize("beta", (1.1, 1.9))
    def test_fcd_self_adjoint(self, beta):
        grid = Grid(128)
        rng = np.random.default_rng(11)
        u = GridFunction.from_interior(grid, rng.uniform(-1, 1, grid.M - 1))
        v = GridFunction.from_interior(grid, rng.uniform(-1, 1, grid.M - 1))
        lhs = _inner(grid, apply_fcd(u, beta), v)
        rhs = _inner(grid, u, apply_fcd(v, beta))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


class TestToeplitzMatvec:
    def test_identity(self):
        col = np.zeros(9)
        col[0] = 1.0
        x = np.arange(9.0)
        np.testing.assert_allclose(toeplitz_matvec(col, col, x), x, atol=1e-14)

    def test_all_ones_on_basis_vector(self):
        col = np.ones(7)
        e1 = np.zeros(7)
        e1[0] = 1.0
        np.testing.assert_allclose(toeplitz_matvec(col, col, e1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("m", (64, 1024))
    def test_random_against_naive_oracle(self, m):
        rng = np.random.default_rng(m)
        col = rng.standard_normal(m)
        row = rng.standard_normal(m)
        row[0] = col[0]
        x = rng.standard_normal(m)
        fast = toeplitz_matvec(col, row, x)
        slow = toeplitz_matvec_naive(col, row, x)
        scale = float(np.max(np.abs(slow))) or 1.0
        assert np.max(np.abs(fast - slow)) <= 1e-12 * scale

    def test_errors(self):
        with pytest.raises(ValueError):
            toeplitz_matvec(np.ones(4), np.ones(3), np.ones(4))
        row = np.ones(4)
        row[0] = 2.0
        with pytest.raises(ValueError):
            toeplitz_matvec(np.ones(4), row, np.ones(4))


class TestTruncationOrder:
    def test_second_order_on_smooth_compact_function(self):
        # exp(-1/(x(1-x))) vanishes with all derivatives at both endpoints
        def bump(x):
            out = np.zeros_like(x)
            inside = (x > 0.0) & (x < 1.0)
            xi = x[inside]
            out[inside] = np.exp(-1.0 / (xi * (1.0 - xi)))
            return out

        for beta in (1.3, 1.7):
            ref_grid = Grid(2 ** 13)
            ref = apply_left_wsgd(GridFunction(ref_grid, bump(ref_grid.nodes())), beta)
            Ms = [64, 128, 256, 512]
            errs = []
            for M in Ms:
                grid = Grid(M)
                out = apply_left_wsgd(GridFunction(grid, bump(grid.nodes())), beta)
                stride = ref_grid.M // M
                errs.append(np.max(np.abs(out.values - ref.values[::stride])))
            slope = -np.polyfit(np.log2(Ms), np.log2(errs), 1)[0]
            assert abs(slope - 2.0) < 0.2
