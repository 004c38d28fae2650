"""Scheme assembly and the direct/Krylov solve paths."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbvp.catalog import catalog, manufactured
from fracbvp.grids import Grid
from fracbvp.analytic import PowerSum, PowerTerm
from fracbvp import solver as solver_module
from fracbvp.operators import toeplitz_matvec
from fracbvp.solver import (
    BACKWARD_ERROR_BOUND,
    EXPLICIT_LIMIT,
    PATHS,
    FracParams,
    KrylovError,
    SchemeKind,
    SolverError,
    ToeplitzSolver,
    make_solver,
    scheme_toeplitz,
    solve_bvp,
    strang_circulant_eigenvalues,
    strang_order,
)
from fracbvp.weights import grunwald_coeffs, wsgd_lambdas
from oracles import assemble, strang_preconditioner

# a path's part of a test id: the ``method`` that names its tracer spans,
# and whether it holds the explicit inverse
PATH_IDS = {"gmres": "krylov-False", "explicit": "dense-True",
            "gohberg-semencul": "dense-False"}


def _path_id(value):
    return PATH_IDS.get(value) if isinstance(value, str) else None


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
        grid = Grid(8)
        h2 = grid.h ** -2
        target = scipy.linalg.toeplitz(
            np.array([2.0, -1.0, 0, 0, 0, 0, 0]) * h2)
        for scheme in (SchemeKind.WSGD, SchemeKind.FCD):
            A = assemble(FracParams(0.0, 2.0, 0.5), grid, scheme)
            np.testing.assert_array_equal(A, target)

    def test_per_entry_oracle_small(self):
        # M=4, beta=1.5, theta=1, alpha=1: I - h^-b * lower Hessenberg of w_k
        grid = Grid(4)
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
        grid = Grid(16)
        A1 = assemble(FracParams(1.0, 1.4, 1.0), grid, SchemeKind.WSGD)
        A0 = assemble(FracParams(1.0, 1.4, 0.0), grid, SchemeKind.WSGD)
        I = np.eye(grid.M - 1)
        np.testing.assert_array_equal(A0 - I, (A1 - I).T)

    def test_fcd_requires_symmetric_theta(self):
        grid = Grid(8)
        with pytest.raises(ValueError):
            assemble(FracParams(1.0, 1.5, 1.0), grid, SchemeKind.FCD)

    def test_frac_scale(self):
        grid = Grid(8)
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
        grid = Grid(256)
        col, row = scheme_toeplitz(spec.params, grid, scheme)
        f = spec.rhs(grid.interior_nodes())
        ud = ToeplitzSolver(col, row, path="gohberg-semencul").solve(f)
        uk = ToeplitzSolver(col, row).solve(f)
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

    def test_rescaled_interval_matches_the_interval_solve(self):
        # frozen from the WSGD solve at M = 64 of the problem posed on (0, 2)
        # with alpha = 1, beta = 1.5, theta = 1 and exact solution
        # x**2 (2-x) + x**(beta-1) (2-x), when grids still took endpoints;
        # in s = x/2 it is the (0, 1) problem with alpha and f scaled by
        # 2**beta, and node j of either grid is the same point
        beta = 1.5
        exact = PowerSum((PowerTerm(8.0, 2.0, 1.0),
                          PowerTerm(2.0 ** beta, beta - 1.0, 1.0)))
        prob = manufactured("rescaled", FracParams(2.0 ** beta, beta, 1.0), exact)
        u = solve_bvp(prob, 64, SchemeKind.WSGD)
        want = (0.4253575039384321, 1.9997291096368772, 2.0352518815582727)
        got = (u.values[1], u.values[32], u.max_norm())
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_dense_residual_verified(self):
        # the solver itself enforces its residual bound; exercise worst case
        grid = Grid(2048)
        spec = catalog("ex1-case1", 1.9)
        f = spec.rhs(grid.interior_nodes())
        col, row = scheme_toeplitz(spec.params, grid, SchemeKind.WSGD)
        solver = ToeplitzSolver(col, row, path="gohberg-semencul")
        u = solver.solve(f)
        res = np.max(np.abs(toeplitz_matvec(col, row, u) - f))
        assert res < 1e-8 * np.max(np.abs(f))

    def test_small_grid_rejected(self):
        spec = catalog("ex1-case1", 1.5)
        with pytest.raises(ValueError):
            solve_bvp(spec, 2, SchemeKind.WSGD)

    def test_krylov_nonconvergence_raises(self, monkeypatch):
        spec = catalog("ex1-case1", 1.5)
        grid = Grid(512)
        f = spec.rhs(grid.interior_nodes())
        col, row = scheme_toeplitz(spec.params, grid, SchemeKind.WSGD)
        solver = ToeplitzSolver(col, row)
        monkeypatch.setattr(solver_module, "MAXITER", 2)
        with pytest.raises(KrylovError) as exc:
            solver.solve(f)
        assert exc.value.backward_error > BACKWARD_ERROR_BOUND
        assert exc.value.iterations == 2

    def test_krylov_error_does_not_scale_with_the_rhs(self, monkeypatch):
        # the solve runs on the right-hand side scaled by a power of two:
        # the error reports the caller's backward error, the same for f
        # and 2**40 f, not a residual of the scaled system
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, 1.0), Grid(64),
                                   SchemeKind.WSGD)
        f = np.random.default_rng(0).standard_normal(63)
        solver = ToeplitzSolver(col, row)
        monkeypatch.setattr(solver_module, "MAXITER", 1)
        etas = []
        for rhs in (f, 2.0 ** 40 * f):
            with pytest.raises(KrylovError) as exc:
                solver.solve(rhs)
            etas.append(exc.value.backward_error)
        assert etas[0] == etas[1] > BACKWARD_ERROR_BOUND

    def test_an_iterate_that_is_not_finite_raises(self, monkeypatch):
        # a preconditioner that gives NaN: the backward error is NaN,
        # which no GMRES cycle would ever reduce
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, 1.0), Grid(64),
                                   SchemeKind.WSGD)
        solver = ToeplitzSolver(col, row)
        monkeypatch.setattr(solver, "_precondition",
                            lambda x: np.full_like(x, np.nan))
        with pytest.raises(SolverError, match="not finite"):
            solver.solve(np.ones(63))

    @settings(max_examples=25, deadline=None)
    @given(beta=st.floats(1.001, 2.0),
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
    # 1e4 eps); the direct solve must iterate
    @example(beta=1.001, alpha=0.0, scheme_theta=(SchemeKind.WSGD, 1.0),
             M=33, seed=0)
    def test_dense_and_krylov_meet_one_bound(self, beta, alpha, scheme_theta,
                                             M, seed):
        scheme, theta = scheme_theta
        col, row = scheme_toeplitz(FracParams(alpha, beta, theta),
                                   Grid(M), scheme)
        f = np.random.default_rng(seed).standard_normal(M - 1)
        solutions = []
        for path in ("gohberg-semencul", "gmres"):
            solver = ToeplitzSolver(col, row, path=path)
            u = solver.solve(f)
            eta = solver.backward_error(u, f)
            assert eta <= BACKWARD_ERROR_BOUND, (path, eta)
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
        grid = Grid(M)
        f = np.random.default_rng(M).standard_normal(M - 1)
        oracle = scipy.linalg.lu_solve(
            scipy.linalg.lu_factor(assemble(params, grid, scheme)), f)
        u = ToeplitzSolver(*scheme_toeplitz(params, grid, scheme),
                           path="gohberg-semencul").solve(f)
        assert np.max(np.abs(u - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("scheme,theta,columns", [(SchemeKind.WSGD, 0.5, 1),
                                                      (SchemeKind.FCD, 0.5, 1),
                                                      (SchemeKind.WSGD, 1.0, 2)])
    def test_symmetric_setup_solves_one_column(self, monkeypatch, scheme, theta,
                                               columns):
        ends = []
        gmres = ToeplitzSolver._gmres

        def spy(solver, b):
            ends.append(int(np.flatnonzero(b)[0]))
            return gmres(solver, b)

        monkeypatch.setattr(ToeplitzSolver, "_gmres", spy)
        params, grid = FracParams(1.0, 1.5, theta), Grid(64)
        f = np.random.default_rng(0).standard_normal(63)
        solver = ToeplitzSolver(*scheme_toeplitz(params, grid, scheme),
                                path="gohberg-semencul")
        # the set-up solves for A^-1 e_1, and for A^-1 e_m unless symmetric
        assert ends == [0, 62][:columns]
        u = solver.solve(f)
        # and the solve is one more GMRES loop, preconditioned by A^-1
        assert len(ends) == columns + 1
        np.testing.assert_allclose(assemble(params, grid, scheme) @ u, f,
                                   atol=1e-12 * np.max(np.abs(f)))

    def test_direct_rejects_nonfinite_rhs(self):
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, 1.0), Grid(32),
                                   SchemeKind.WSGD)
        f = np.ones(31)
        f[7] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            ToeplitzSolver(col, row, path="gohberg-semencul").solve(f)

    @pytest.mark.parametrize("path", ["gohberg-semencul", "gmres"],
                             ids=["dense", "krylov"])
    def test_solves_with_singular_leading_minor(self, path):
        # nonsingular, but its 1x1 leading minor is 0: no recursion through
        # the leading minors could solve it
        col, row = np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 4.0, 5.0, 6.0])
        A = scipy.linalg.toeplitz(col, row)
        assert abs(np.linalg.det(A)) > 1.0
        f = np.array([1.0, -2.0, 0.5, 3.0])
        solver = ToeplitzSolver(col, row, path=path)
        u = solver.solve(f)
        assert solver.backward_error(u, f) <= BACKWARD_ERROR_BOUND
        np.testing.assert_allclose(u, np.linalg.solve(A, f), rtol=1e-12)

    @pytest.mark.parametrize("path", PATHS, ids=_path_id)
    def test_singular_matrix_is_a_solver_error(self, path):
        col = row = np.array([1.0, 1.0])
        with pytest.raises(SolverError, match="(?i)singular"):
            ToeplitzSolver(col, row, path=path).solve(np.array([1.0, 0.0]))

    def test_krylov_solves_where_strang_is_singular(self):
        # beta=2, alpha=0: the Strang circulant has the eigenvalue 0 at
        # M=16384; the preconditioner stands in the smallest nonzero one
        u = PowerSum((PowerTerm(1.0, 2.0, 2.0),))
        params = FracParams(0.0, 2.0, 1.0)
        prob = manufactured("smooth", params, u)
        grid = Grid(16384)
        lam = strang_circulant_eigenvalues(
            *scheme_toeplitz(params, grid, SchemeKind.WSGD))
        assert np.min(np.abs(lam)) == 0.0
        solver = make_solver(params, grid, SchemeKind.WSGD)
        assert solver.path == "gmres"
        got = solver.solve(prob.rhs(grid.interior_nodes()))
        assert np.max(np.abs(got - u(grid.interior_nodes()))) < 1e-8

    def test_refines_near_beta_one(self):
        # the Gohberg-Semencul product misses the bound by about 1.5e4 eps
        # here: the generators are the cause, and one GMRES iteration
        # preconditioned by the product mends it
        col, row = scheme_toeplitz(FracParams(0.0, 1.001, 1.0), Grid(33),
                                   SchemeKind.WSGD)
        f = np.random.default_rng(0).standard_normal(32)
        solver = ToeplitzSolver(col, row, path="gohberg-semencul")
        assert solver.backward_error(solver.apply_inverse(f), f) > BACKWARD_ERROR_BOUND
        u = solver.solve(f)
        assert solver.last_iterations == 1
        assert solver.backward_error(u, f) <= BACKWARD_ERROR_BOUND

    def test_refines_perturbed_generators(self):
        # generators 1e-9 off miss the bound; one GMRES iteration,
        # preconditioned by their product, meets it
        self._assert_one_iteration_mends(1.0 + 1e-9)

    def test_refines_generators_half_off(self):
        # a product 50% off is no solution at all: three steps of
        # refinement on its own residual, x <- x - P^-1 (A x - b), stall
        # at a backward error of 2.6e-3; GMRES still needs one iteration
        self._assert_one_iteration_mends(1.5)

    @staticmethod
    def _assert_one_iteration_mends(factor):
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, 1.0), Grid(64),
                                   SchemeKind.WSGD)
        f = np.random.default_rng(0).standard_normal(63)
        solver = ToeplitzSolver(col, row, path="gohberg-semencul")
        solver._lower *= factor
        assert solver.backward_error(solver.apply_inverse(f), f) > BACKWARD_ERROR_BOUND
        u = solver.solve(f)
        assert solver.last_iterations == 1
        assert solver.backward_error(u, f) <= BACKWARD_ERROR_BOUND

    def test_unknown_path(self):
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, 1.0), Grid(64),
                                   SchemeKind.WSGD)
        with pytest.raises(ValueError, match="'dense'"):
            ToeplitzSolver(col, row, path="dense")

    # GMRES unless the caller asks for a direct path, which holds the
    # explicit inverse up to EXPLICIT_LIMIT intervals
    @pytest.mark.parametrize("M,direct,path", [
        (16, False, "gmres"),
        (2048, False, "gmres"),
        (EXPLICIT_LIMIT, True, "explicit"),
        (EXPLICIT_LIMIT + 2, True, "gohberg-semencul"),
        (2048, True, "gohberg-semencul"),
    ], ids=_path_id)
    def test_make_solver_picks_path_by_role(self, M, direct, path):
        solver = make_solver(FracParams(1.0, 1.5, 1.0), Grid(M),
                             SchemeKind.WSGD, direct=direct)
        assert solver.path == path

    def test_apply_inverse_needs_the_direct_path(self):
        # the GMRES path, the constructor's default, holds no A^-1, only
        # the Strang preconditioner
        solver = ToeplitzSolver(*scheme_toeplitz(FracParams(1.0, 1.5, 1.0),
                                                 Grid(64), SchemeKind.WSGD))
        assert solver.path == "gmres"
        with pytest.raises(ValueError, match="no A\\^-1"):
            solver.apply_inverse(np.ones(63))

    # perfbench/tracing.py names its solver spans by ``method``
    @pytest.mark.parametrize("path,method", [("gmres", "krylov"),
                                             ("explicit", "dense"),
                                             ("gohberg-semencul", "dense")])
    def test_method_names_the_span_of_each_path(self, path, method):
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, 1.0), Grid(16),
                                   SchemeKind.WSGD)
        assert ToeplitzSolver(col, row, path=path).method == method


class TestStrangPreconditioner:
    # the order is m + 1 = M when that is a power of two, m otherwise
    @pytest.mark.parametrize("m,order", [(1, 1), (2, 2), (3, 4), (4, 4), (7, 8),
                                         (16, 16), (1023, 1024), (1024, 1024)])
    def test_order(self, m, order):
        assert strang_order(m) == order

    @pytest.mark.parametrize("M", [16, 1024])
    def test_eigenvalue_count(self, M):
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, 1.0), Grid(M),
                                   SchemeKind.WSGD)
        assert len(strang_circulant_eigenvalues(col, row)) == M // 2 + 1

    @pytest.mark.parametrize("M,order", [(16, 16), (1024, 1024), (17, 16)])
    @pytest.mark.parametrize("scheme,theta", [(SchemeKind.WSGD, 0.0),
                                              (SchemeKind.WSGD, 0.5),
                                              (SchemeKind.WSGD, 1.0),
                                              (SchemeKind.FCD, 0.5)])
    def test_precondition_against_dense_oracle(self, scheme, theta, M, order):
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, theta), Grid(M),
                                   scheme)
        x = np.random.default_rng(M).standard_normal(M - 1)
        want = strang_preconditioner(col, row, order) @ x
        got = ToeplitzSolver(col, row)._precondition(x)
        # the circulant at M = 1024 has condition number 3e4
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    # the level-15 reference solves the problem and its singular term on
    # M = 2**14 and 2**15 (2**13 and 2**14 for a level-14 reference)
    @pytest.mark.parametrize("M", [2 ** 13, 2 ** 14, 2 ** 15])
    @pytest.mark.parametrize("example,most", [("ex1-case2", 7), ("ex2-case2", 8)])
    def test_reference_sizes_take_few_iterations(self, example, most, M):
        spec = catalog(example, 1.5)
        grid = Grid(M)
        x = grid.interior_nodes()
        solver = make_solver(spec.params, grid, SchemeKind.WSGD)
        assert solver.path == "gmres"
        for f in (spec.rhs(x), spec.singular.fs(x)):
            f = np.asarray(f, dtype=float)
            u = solver.solve(f)
            assert solver.last_iterations <= most
            assert solver.backward_error(u, f) <= BACKWARD_ERROR_BOUND


class TestExplicitInverse:
    @pytest.mark.parametrize("M", [5, 33, EXPLICIT_LIMIT])
    @pytest.mark.parametrize("beta", [1.001, 1.99])
    @pytest.mark.parametrize("scheme,theta", [(SchemeKind.WSGD, 0.0),
                                              (SchemeKind.WSGD, 0.5),
                                              (SchemeKind.WSGD, 1.0),
                                              (SchemeKind.FCD, 0.5)])
    def test_against_lu_oracle(self, scheme, theta, beta, M):
        params = FracParams(0.0, beta, theta)
        grid = Grid(M)
        f = np.random.default_rng(M).standard_normal(M - 1)
        oracle = scipy.linalg.lu_solve(
            scipy.linalg.lu_factor(assemble(params, grid, scheme)), f)
        solver = ToeplitzSolver(*scheme_toeplitz(params, grid, scheme),
                                path="explicit")
        u = solver.solve(f)
        assert solver.backward_error(u, f) <= BACKWARD_ERROR_BOUND
        assert np.max(np.abs(u - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    def test_rejects_nonfinite_rhs(self):
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, 1.0), Grid(32),
                                   SchemeKind.WSGD)
        f = np.ones(31)
        f[7] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            ToeplitzSolver(col, row, path="explicit").solve(f)

    def test_meets_the_bound_near_beta_one(self):
        # the Gohberg-Semencul product misses the bound by about 1.5e4 eps
        # here (TestSolve.test_refines_near_beta_one); the LAPACK inverse
        # meets it with no GMRES iteration
        col, row = scheme_toeplitz(FracParams(0.0, 1.001, 1.0), Grid(33),
                                   SchemeKind.WSGD)
        f = np.random.default_rng(0).standard_normal(32)
        solver = ToeplitzSolver(col, row, path="explicit")
        assert solver.backward_error(solver.apply_inverse(f), f) <= BACKWARD_ERROR_BOUND
        solver.solve(f)
        assert solver.last_iterations == 0

    def test_setup_is_one_lapack_inversion(self, monkeypatch):
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a) or inv(a))
        monkeypatch.setattr(ToeplitzSolver, "_gmres", None)
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, 1.0), Grid(16),
                                   SchemeKind.WSGD)
        ToeplitzSolver(col, row, path="explicit")
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], scipy.linalg.toeplitz(col, row))

    @pytest.mark.parametrize("path", PATHS)
    def test_only_the_fft_paths_build_spectra(self, monkeypatch, path):
        # the explicit path multiplies by its dense A and A^-1 only
        calls = {}
        for name in ("embedding_spectrum", "strang_circulant_eigenvalues"):
            def counted(*args, name=name, original=getattr(solver_module, name)):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)
            monkeypatch.setattr(solver_module, name, counted)
        col, row = scheme_toeplitz(FracParams(1.0, 1.5, 1.0), Grid(16),
                                   SchemeKind.WSGD, frac_scale=0.5e-3)
        solver = ToeplitzSolver(col, row, path=path)
        f = np.ones(15)
        assert solver.backward_error(solver.solve(f), f) <= BACKWARD_ERROR_BOUND
        if path == "explicit":
            assert calls == {}
        else:
            assert set(calls) == {"embedding_spectrum", "strang_circulant_eigenvalues"}

    # the Crank-Nicolson matrices of a march, I - (tau/2) D: the two direct
    # paths compute A^-1 independently, by LAPACK and by GMRES generators
    @pytest.mark.parametrize("M", [16, EXPLICIT_LIMIT])
    @pytest.mark.parametrize("beta", [1.1, 1.5, 1.8])
    def test_agrees_with_gohberg_semencul_on_march_matrices(self, beta, M):
        col, row = scheme_toeplitz(FracParams(1.0, beta, 1.0), Grid(M),
                                   SchemeKind.WSGD, frac_scale=0.5e-3)
        b = np.random.default_rng(M).standard_normal(M - 1)
        explicit, gs = (ToeplitzSolver(col, row, path=path).apply_inverse(b)
                        for path in ("explicit", "gohberg-semencul"))
        assert np.max(np.abs(explicit - gs)) <= 1e-12 * np.max(np.abs(gs))


class TestSmoothRate:
    # second-order convergence on a manufactured smooth solution is part
    # of the acceptance suite; here a single cheap configuration
    def test_wsgd_smooth_manufactured(self):
        u = PowerSum((PowerTerm(1.0, 2.0, 2.0),))
        prob = manufactured("smooth", FracParams(1.0, 1.5, 1.0), u)
        errs = []
        for M in (128, 256, 512):
            sol = solve_bvp(prob, M, SchemeKind.WSGD)
            errs.append(np.max(np.abs(sol.values - u(sol.grid.nodes()))))
        rate = np.log2(errs[-2] / errs[-1])
        assert abs(rate - 2.0) < 0.1
