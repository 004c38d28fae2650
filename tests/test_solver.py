"""Scheme assembly and the direct/Krylov solve paths."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbvp.catalog import catalog, manufactured
from fracbvp.grids import Grid
from fracbvp.analytic import PowerSum, PowerTerm
from fracbvp.operators import toeplitz_matvec
from fracbvp.solver import (
    BACKWARD_ERROR_BOUND,
    DENSE_LIMIT,
    FracParams,
    KrylovError,
    SchemeKind,
    SolverError,
    ToeplitzSolver,
    make_solver,
    scheme_toeplitz,
    solve_bvp,
)
from fracbvp.weights import grunwald_coeffs, wsgd_lambdas
from oracles import assemble


class TestFracParams:
    def test_validation(self):
        FracParams(0.0, 1.5, 0.5)
        with pytest.raises(ValueError):
            FracParams(-1.0, 1.5, 0.5)
        with pytest.raises(ValueError):
            FracParams(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            FracParams(1.0, 2.1, 0.5)
        with pytest.raises(ValueError):
            FracParams(1.0, 1.5, 1.5)


class TestAssemble:
    def test_beta2_classical_tridiagonal(self):
        # at beta=2 both schemes produce the standard -u'' matrix
        grid = Grid(0.0, 1.0, 8)
        h2 = grid.h ** -2
        target = scipy.linalg.toeplitz(
            np.array([2.0, -1.0, 0, 0, 0, 0, 0]) * h2)
        for scheme in (SchemeKind.WSGD, SchemeKind.FCD):
            A = assemble(FracParams(0.0, 2.0, 0.5), grid, scheme)
            np.testing.assert_array_equal(A, target)

    def test_per_entry_oracle_small(self):
        # M=4, beta=1.5, theta=1, alpha=1: I - h^-b * lower Hessenberg of w_k
        grid = Grid(0.0, 1.0, 4)
        A = assemble(FracParams(1.0, 1.5, 1.0), grid, SchemeKind.WSGD)
        lam1, lam0, lam_neg1 = wsgd_lambdas(1.5)
        g = grunwald_coeffs(1.5, 4)
        w = [lam1 * g[0], lam1 * g[1] + lam0 * g[0]]
        w += [lam1 * g[k] + lam0 * g[k - 1] + lam_neg1 * g[k - 2] for k in (2, 3, 4)]
        scale = grid.h ** -1.5
        oracle = np.zeros((3, 3))
        for j in range(3):
            for i in range(3):
                if j - i + 1 >= 0:
                    oracle[j, i] = -scale * w[j - i + 1]
            oracle[j, j] += 1.0
        np.testing.assert_allclose(A, oracle, rtol=1e-14, atol=1e-14)

    def test_theta_zero_is_transpose_of_theta_one(self):
        grid = Grid(0.0, 1.0, 16)
        A1 = assemble(FracParams(1.0, 1.4, 1.0), grid, SchemeKind.WSGD)
        A0 = assemble(FracParams(1.0, 1.4, 0.0), grid, SchemeKind.WSGD)
        I = np.eye(grid.M - 1)
        np.testing.assert_array_equal(A0 - I, (A1 - I).T)

    def test_fcd_requires_symmetric_theta(self):
        grid = Grid(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            assemble(FracParams(1.0, 1.5, 1.0), grid, SchemeKind.FCD)

    def test_frac_scale(self):
        grid = Grid(0.0, 1.0, 8)
        p = FracParams(1.0, 1.5, 1.0)
        A = assemble(p, grid, SchemeKind.WSGD)
        B = assemble(p, grid, SchemeKind.WSGD, frac_scale=0.5)
        I = np.eye(grid.M - 1)
        np.testing.assert_allclose(B - I, 0.5 * (A - I), rtol=1e-14, atol=1e-14)


class TestSolve:
    def test_zero_rhs_zero_solution(self):
        spec = catalog("ex1-case1", 1.5)
        zero = PowerSum.zero()
        from dataclasses import replace
        u = solve_bvp(replace(spec, rhs=zero), 64, SchemeKind.WSGD)
        np.testing.assert_array_equal(u.values, 0.0)

    def test_table_cell_wsgd(self):
        # frozen reference: beta=1.5, M=512 one-sided problem
        spec = catalog("ex1-case1", 1.5)
        u = solve_bvp(spec, 512, SchemeKind.WSGD)
        err = np.max(np.abs(u.values - spec.exact(u.grid.nodes())))
        assert err == pytest.approx(9.52e-3, rel=0.02)

    def test_table_cell_fcd_amplitude_two(self):
        # with the catalog's amplitude-2 singular part the computed value
        # is exactly twice the amplitude-1 figure of 2.94e-5
        spec = catalog("ex2-case1", 1.9)
        u = solve_bvp(spec, 1024, SchemeKind.FCD)
        err = np.max(np.abs(u.values - spec.exact(u.grid.nodes())))
        assert err == pytest.approx(5.869e-5, rel=0.02)

    @pytest.mark.parametrize("name,scheme,beta", [
        ("ex1-case1", SchemeKind.WSGD, 1.3),
        ("ex2-case1", SchemeKind.FCD, 1.7),
    ])
    def test_dense_krylov_agreement(self, name, scheme, beta):
        spec = catalog(name, beta)
        grid = Grid(*spec.domain, 256)
        col, row = scheme_toeplitz(spec.params, grid, scheme)
        f = spec.rhs(grid.interior_nodes())
        ud = ToeplitzSolver(col, row, method="dense").solve(f)
        uk = ToeplitzSolver(col, row, method="krylov").solve(f)
        assert np.max(np.abs(ud - uk)) < 1e-10

    def test_alpha_zero_pure_fractional(self):
        spec = catalog("ex1-case1", 1.5)
        from dataclasses import replace
        from fracbvp.analytic import elliptic_rhs
        p = FracParams(0.0, 1.5, 1.0)
        prob = replace(spec, params=p, rhs=elliptic_rhs(spec.exact, 0.0, 1.5, 1.0))
        u = solve_bvp(prob, 128, SchemeKind.WSGD)
        err = np.max(np.abs(u.values - spec.exact(u.grid.nodes())))
        assert err < 0.2  # singular solution, coarse grid: just solvable + sane

    def test_dense_residual_verified(self):
        # the solver itself enforces its residual bound; exercise worst case
        grid = Grid(0.0, 1.0, 2048)
        spec = catalog("ex1-case1", 1.9)
        f = spec.rhs(grid.interior_nodes())
        col, row = scheme_toeplitz(spec.params, grid, SchemeKind.WSGD)
        solver = ToeplitzSolver(col, row, method="dense")
        u = solver.solve(f)
        res = np.max(np.abs(toeplitz_matvec(col, row, u) - f))
        assert res < 1e-8 * np.max(np.abs(f))

    def test_small_grid_rejected(self):
        spec = catalog("ex1-case1", 1.5)
        with pytest.raises(ValueError):
            solve_bvp(spec, 2, SchemeKind.WSGD)

    def test_krylov_nonconvergence_raises(self):
        spec = catalog("ex1-case1", 1.5)
        grid = Grid(0.0, 1.0, 512)
        f = spec.rhs(grid.interior_nodes())
        col, row = scheme_toeplitz(spec.params, grid, SchemeKind.WSGD)
        solver = ToeplitzSolver(col, row, method="krylov", maxiter=2)
        with pytest.raises(KrylovError) as exc:
            solver.solve(f)
        assert exc.value.residual > 0.0
        assert exc.value.iterations > 0

    # beta stops short of 2: at beta=2, alpha=0 the Strang circulant has
    # the eigenvalue 0, so the Krylov path cannot be set up there
    @settings(max_examples=25, deadline=None)
    @given(beta=st.floats(1.001, 1.99),
           alpha=st.sampled_from([0.0, 1.0]),
           scheme_theta=st.sampled_from([(SchemeKind.WSGD, 0.0),
                                         (SchemeKind.WSGD, 0.5),
                                         (SchemeKind.WSGD, 1.0),
                                         (SchemeKind.FCD, 0.5)]),
           M=st.integers(16, 1024),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(beta=1.99, alpha=0.0, scheme_theta=(SchemeKind.WSGD, 1.0),
             M=4096, seed=0)
    # the Gohberg-Semencul product alone misses the bound here (about
    # 1e6 eps); the direct solve must refine
    @example(beta=1.001, alpha=0.0, scheme_theta=(SchemeKind.WSGD, 1.0),
             M=33, seed=0)
    def test_dense_and_krylov_meet_one_bound(self, beta, alpha, scheme_theta,
                                             M, seed):
        scheme, theta = scheme_theta
        col, row = scheme_toeplitz(FracParams(alpha, beta, theta),
                                   Grid(0.0, 1.0, M), scheme)
        f = np.random.default_rng(seed).standard_normal(M - 1)
        solutions = []
        for method in ("dense", "krylov"):
            solver = ToeplitzSolver(col, row, method=method)
            u = solver.solve(f)
            eta = solver.backward_error(u, f)
            assert eta <= BACKWARD_ERROR_BOUND, (method, eta)
            solutions.append(u)
        dense, krylov = solutions
        assert np.max(np.abs(dense - krylov)) <= 1e-8 * np.max(np.abs(dense))

    @pytest.mark.parametrize("M", [5, 1024, 4096])
    @pytest.mark.parametrize("beta", [1.001, 1.99])
    @pytest.mark.parametrize("scheme,theta", [(SchemeKind.WSGD, 0.0),
                                              (SchemeKind.WSGD, 0.5),
                                              (SchemeKind.WSGD, 1.0),
                                              (SchemeKind.FCD, 0.5)])
    def test_direct_against_lu_oracle(self, scheme, theta, beta, M):
        params = FracParams(0.0, beta, theta)
        grid = Grid(0.0, 1.0, M)
        f = np.random.default_rng(M).standard_normal(M - 1)
        oracle = scipy.linalg.lu_solve(
            scipy.linalg.lu_factor(assemble(params, grid, scheme)), f)
        u = ToeplitzSolver(*scheme_toeplitz(params, grid, scheme)).solve(f)
        assert np.max(np.abs(u - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("scheme,theta,columns", [(SchemeKind.WSGD, 0.5, 1),
                                                      (SchemeKind.FCD, 0.5, 1),
                                                      (SchemeKind.WSGD, 1.0, 2)])
    def test_symmetric_setup_solves_one_column(self, monkeypatch, scheme, theta,
                                               columns):
        shapes = []
        levinson = scipy.linalg.solve_toeplitz

        def spy(c_or_cr, b, *args, **kwargs):
            shapes.append(np.shape(b))
            return levinson(c_or_cr, b, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve_toeplitz", spy)
        params, grid = FracParams(1.0, 1.5, theta), Grid(0.0, 1.0, 64)
        f = np.random.default_rng(0).standard_normal(63)
        u = ToeplitzSolver(*scheme_toeplitz(params, grid, scheme)).solve(f)
        assert shapes == [(63, columns)]
        np.testing.assert_allclose(assemble(params, grid, scheme) @ u, f,
                                   atol=1e-12 * np.max(np.abs(f)))

    def test_direct_rejects_nonfinite_rhs(self):
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, 1.0), Grid(0.0, 1.0, 32),
                                   SchemeKind.WSGD)
        f = np.ones(31)
        f[7] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            ToeplitzSolver(col, row).solve(f)

    def test_direct_refuses_singular_leading_minor(self):
        # nonsingular, but its 1x1 leading minor is 0, so Levinson cannot run
        col, row = np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 4.0, 5.0, 6.0])
        assert abs(np.linalg.det(scipy.linalg.toeplitz(col, row))) > 1.0
        with pytest.raises(SolverError, match="principal minor"):
            ToeplitzSolver(col, row)

    def test_auto_solves_directly_where_strang_is_singular(self):
        # beta=2, alpha=0: the Strang circulant has the eigenvalue 0 at
        # M=16384, so GMRES cannot be preconditioned; make_solver solves
        # directly
        u = PowerSum(0.0, 1.0, (PowerTerm(1.0, 2.0, 2.0),))
        params = FracParams(0.0, 2.0, 1.0)
        prob = manufactured("smooth", params, u)
        grid = Grid(0.0, 1.0, 16384)
        with pytest.raises(SolverError, match="Strang preconditioner is singular"):
            ToeplitzSolver(*scheme_toeplitz(params, grid, SchemeKind.WSGD),
                           method="krylov")
        solver = make_solver(params, grid, SchemeKind.WSGD)
        assert solver.method == "dense"
        got = solver.solve(prob.rhs(grid.interior_nodes()))
        assert np.max(np.abs(got - u(grid.interior_nodes()))) < 1e-8

    def test_unknown_method(self):
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, 1.0), Grid(0.0, 1.0, 64),
                                   SchemeKind.WSGD)
        with pytest.raises(ValueError):
            ToeplitzSolver(col, row, method="cg")

    @pytest.mark.parametrize("M,method", [(DENSE_LIMIT, "dense"),
                                          (DENSE_LIMIT + 2, "krylov")])
    def test_make_solver_switches_path_above_dense_limit(self, M, method):
        solver = make_solver(FracParams(1.0, 1.5, 1.0), Grid(0.0, 1.0, M),
                             SchemeKind.WSGD)
        assert solver.method == method


class TestSmoothRate:
    # second-order convergence on a manufactured smooth solution is part
    # of the acceptance suite; here a single cheap configuration
    def test_wsgd_smooth_manufactured(self):
        u = PowerSum(0.0, 1.0, (PowerTerm(1.0, 2.0, 2.0),))
        prob = manufactured("smooth", FracParams(1.0, 1.5, 1.0), u)
        errs = []
        for M in (128, 256, 512):
            sol = solve_bvp(prob, M, SchemeKind.WSGD)
            errs.append(np.max(np.abs(sol.values - u(sol.grid.nodes()))))
        rate = np.log2(errs[-2] / errs[-1])
        assert abs(rate - 2.0) < 0.1
