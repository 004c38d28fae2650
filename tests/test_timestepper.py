"""Crank-Nicolson march of the time-dependent example ex3."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from fracbvp.catalog import catalog
from fracbvp.grids import Grid
from fracbvp.operators import toeplitz_matvec
from fracbvp import timestepper
from fracbvp.solver import (BACKWARD_ERROR_BOUND, FracParams, SchemeKind,
                            SolverError, ToeplitzSolver, make_solver,
                            scheme_toeplitz)
from fracbvp.study import StudyConfig, run_time_study
from fracbvp.timestepper import BLOCK_STEPS, TimeGrid, cn_wsgd_solve
from oracles import cn_march

BETA = 1.5
EPS = 2.0 ** -52
K = BLOCK_STEPS

# Final-time errors of ``fracbvp timestudy`` at tau = 1e-3, beta = 1.5:
# rows (M, max error, l2 error) of the ex3 benchmark operations.
FROZEN = {
    (16, False): (0.05029781434555375, 0.0138414534498729),
    (64, False): (0.0267902055524242, 0.0036455732356357557),
    (64, True): (1.412796364717861e-05, 4.257804032047985e-06),
}


def _explicit_march(problem, M, time_grid):
    """Reference CN march: ``A u^n = (I + tau/2 D) u^{n-1} + tau f`` with the
    explicit operator applied as a Toeplitz product."""
    tau = time_grid.tau
    grid = Grid(*problem.domain, M)
    stepping = FracParams(alpha=1.0, beta=problem.params.beta,
                          theta=problem.params.theta)
    solver = ToeplitzSolver(*scheme_toeplitz(stepping, grid, SchemeKind.WSGD,
                                             frac_scale=0.5 * tau))
    ecol, erow = scheme_toeplitz(stepping, grid, SchemeKind.WSGD,
                                 frac_scale=-0.5 * tau)
    x = grid.interior_nodes()
    u = problem.initial(x)
    for n in range(1, time_grid.N + 1):
        f = problem.rhs(x, time_grid.half_node(n))
        u = solver.solve(toeplitz_matvec(ecol, erow, u) + tau * f)
    return u


class TestOneSolveStep:
    @pytest.mark.parametrize("M", [16, 64])
    def test_matches_explicit_product(self, M):
        problem = catalog("ex3", BETA)
        time_grid = TimeGrid(0.05, 50)
        want = _explicit_march(problem, M, time_grid)
        got = cn_wsgd_solve(problem, M, time_grid).interior
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestFrozenRows:
    @pytest.mark.parametrize("M,corrected", sorted(FROZEN))
    def test_final_time_errors(self, M, corrected):
        # the benchmark's gate: |e - e0| <= 1e-6 |e0| + eps * M**beta
        (report,) = run_time_study(StudyConfig(problem=catalog("ex3", BETA),
                                               M_list=[M], tau=1e-3,
                                               corrected=corrected))
        (row,) = report.rows
        assert row.M == M
        floor = EPS * M ** BETA
        for got, want in zip((row.err_max, row.err_l2), FROZEN[M, corrected]):
            assert abs(got - want) <= 1e-6 * abs(want) + floor


class TestSolvePath:
    @pytest.mark.parametrize("corrected,want", [(False, [True]), (True, [True, True])])
    def test_march_declares_its_solves(self, monkeypatch, corrected, want):
        # the march asks for the direct path on each grid
        seen = []

        def spy(*args, direct=False, **kwargs):
            seen.append(direct)
            return make_solver(*args, direct=direct, **kwargs)

        monkeypatch.setattr(timestepper, "make_solver", spy)
        cn_wsgd_solve(catalog("ex3", BETA), 16, TimeGrid(0.05, 50),
                      corrected=corrected)
        assert seen == want

    # the benchmark's tracer counts one march step per forcing call
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("N", [1, K - 1, K + 1])
    @pytest.mark.parametrize("M", [16, 300])
    def test_one_forcing_call_per_grid_and_step(self, M, N, corrected):
        problem = catalog("ex3", BETA)
        rhs, times = problem.rhs, []

        def forcing(x, t):
            times.append(t)
            return rhs(x, t)

        cn_wsgd_solve(replace(problem, rhs=forcing), M, TimeGrid(N * 1e-3, N),
                      corrected=corrected)
        assert len(times) == (2 * N if corrected else N)
        assert all(type(t) is float for t in times)

    def test_march_at_m32_corrected_still_diverges(self):
        # the known failure of the ex3/M32/corrected benchmark operation: the
        # per-step strength overflows and the next solve refuses the field
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="infs or NaNs"):
                cn_wsgd_solve(catalog("ex3", BETA), 32, TimeGrid(1.0, 1000),
                              corrected=True)


def _spoil_products(monkeypatch, m, first, count, factor=0.5,
                    method="apply_inverse"):
    """Scale by ``factor`` the products ``A^-1 b`` with ``len(b) == m`` of
    an explicit inverse, from the ``first``-th such call (1-based) for
    ``count`` calls (all after it when None), in place, so that a product
    written into the march's ``out`` row is spoiled there too; every other
    product stays exact.  ``method`` is the one spoiled: ``apply_inverse``, the march's
    unchecked product, or ``_precondition``, which the checked solve uses
    as well."""
    product = getattr(ToeplitzSolver, method)
    calls = 0

    def spoiled(self, b, **out):
        nonlocal calls
        x = product(self, b, **out)
        if len(b) != m or self.path != "explicit":
            return x
        calls += 1
        if calls >= first and (count is None or calls < first + count):
            x *= factor
        return x

    monkeypatch.setattr(ToeplitzSolver, method, spoiled)


def _held_arrays(value):
    """Arrays a frame local holds, directly or in lists, tuples and dicts."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _held_arrays(item)]
    return []


class TestBlockMarch:
    """Blocks of unchecked steps, checked together, equal the per-step march
    of checked solves bit for bit."""

    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("N", [1, K - 1, K, K + 1, 1000])
    # explicit inverse at 16 and 64, Gohberg-Semencul at 300
    @pytest.mark.parametrize("M", [16, 64, 300])
    def test_equals_the_per_step_march(self, M, N, corrected):
        problem, time_grid = catalog("ex3", BETA), TimeGrid(N * 1e-3, N)
        want = cn_march(problem, M, time_grid, corrected)
        got = cn_wsgd_solve(problem, M, time_grid, corrected=corrected)
        assert np.array_equal(got.interior, want)

    # even a march of one step holds A^-1: Gohberg-Semencul on these grids
    @pytest.mark.parametrize("M,corrected", [(2048, False), (1024, True)])
    def test_one_step_on_the_direct_path(self, monkeypatch, M, corrected):
        paths = []

        def spy(*args, **kwargs):
            solver = make_solver(*args, **kwargs)
            paths.append(solver.path)
            return solver

        problem, time_grid = catalog("ex3", BETA), TimeGrid(1e-3, 1)
        want = cn_march(problem, M, time_grid, corrected)
        monkeypatch.setattr(timestepper, "make_solver", spy)
        got = cn_wsgd_solve(problem, M, time_grid, corrected=corrected)
        assert paths == ["gohberg-semencul"] * (1 + corrected)
        assert np.array_equal(got.interior, want)

    # the second block's middle step misses the bound on one grid
    @pytest.mark.parametrize("corrected,m", [(False, 15), (True, 15), (True, 31)])
    def test_a_step_that_misses_is_solved_again(self, monkeypatch, corrected, m):
        problem, time_grid = catalog("ex3", BETA), TimeGrid(1.0, 1000)
        want = cn_march(problem, 16, time_grid, corrected)
        step = K + K // 2
        # when corrected, each grid's first product is the singular solve
        _spoil_products(monkeypatch, m, step + corrected, 1)
        diag = {}
        got = cn_wsgd_solve(problem, 16, time_grid, corrected=corrected,
                            diagnostics=diag)
        assert np.array_equal(got.interior, want)
        assert diag["refinements"] == 1
        assert 0.0 < diag["backward_error_max"] <= BACKWARD_ERROR_BOUND

    def test_steps_that_keep_missing_are_all_solved_again(self, monkeypatch):
        # every unchecked product from the second block's middle step on is
        # spoiled; the checked solves, which precondition with the exact
        # inverse, still march every step as the per-step march does
        problem, time_grid = catalog("ex3", BETA), TimeGrid(1.0, 1000)
        want = cn_march(problem, 16, time_grid, False)
        step = K + K // 2
        _spoil_products(monkeypatch, 15, step, None)
        diag = {}
        got = cn_wsgd_solve(problem, 16, time_grid, diagnostics=diag)
        assert np.array_equal(got.interior, want)
        assert diag["refinements"] == time_grid.N - step + 1

    def test_a_solution_that_is_not_finite_is_solved_again(self, monkeypatch):
        # a finite right-hand side gives a product that is not finite: the
        # block's check, not the next step's right-hand side, catches it,
        # and the checked solve, whose preconditioner gives such products
        # too, refuses the step
        _spoil_products(monkeypatch, 15, K + K // 2, None, factor=np.nan,
                        method="_precondition")
        with pytest.raises(SolverError, match="not finite") as info:
            cn_wsgd_solve(catalog("ex3", BETA), 16, TimeGrid(1.0, 1000))
        self._assert_no_block(info.tb)

    def test_nonfinite_forcing_raises_at_its_step(self):
        # the forcing of one step in the middle of a block is not finite:
        # the march raises there, evaluates no later forcing, warns nothing
        # and its traceback holds no block of rows
        problem = catalog("ex3", BETA)
        rhs, times = problem.rhs, []
        step = K + K // 2

        def forcing(x, t):
            times.append(t)
            return rhs(x, t) * (np.nan if len(times) == step else 1.0)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="infs or NaNs") as info:
                cn_wsgd_solve(replace(problem, rhs=forcing), 16, TimeGrid(1.0, 1000))
        assert len(times) == step
        self._assert_no_block(info.tb)

    def test_known_failure_traceback_holds_no_block(self):
        with pytest.warns(RuntimeWarning, match="overflow") as record:
            with pytest.raises(ValueError, match="infs or NaNs") as info:
                cn_wsgd_solve(catalog("ex3", BETA), 32, TimeGrid(1.0, 1000),
                              corrected=True)
        assert all("overflow" in str(w.message) for w in record)
        self._assert_no_block(info.tb)

    @staticmethod
    def _assert_no_block(tb):
        # a frame may hold the failing step's vectors, one per grid, but no
        # k x m block, no view into one (a row keeps its block alive) and no
        # list of a block's rows
        while tb is not None:
            for name, value in tb.tb_frame.f_locals.items():
                held = _held_arrays(value)
                assert len(held) <= 2, (name, len(held))
                for a in held:
                    while a.base is not None:
                        a = a.base
                    assert a.ndim <= 1, (name, a.shape)
            tb = tb.tb_next

    def test_diagnostics_and_report_record_the_checks(self, monkeypatch):
        problem = catalog("ex3", BETA)
        diag = {}
        cn_wsgd_solve(problem, 16, TimeGrid(1.0, 100), diagnostics=diag)
        assert diag["refinements"] == 0
        assert 0.0 < diag["backward_error_max"] <= BACKWARD_ERROR_BOUND
        _spoil_products(monkeypatch, 15, 50, 1)
        (report,) = run_time_study(StudyConfig(problem=problem, M_list=[16, 32],
                                               tau=0.01))
        assert report.metadata["refinements"] == 1
        assert 0.0 < report.metadata["backward_error_max"] <= BACKWARD_ERROR_BOUND


class TestRejects:
    def test_theta_other_than_one(self):
        problem = catalog("ex3", BETA)
        two_sided = replace(problem, params=FracParams(0.0, BETA, 0.5))
        with pytest.raises(ValueError, match="theta = 1"):
            cn_wsgd_solve(two_sided, 16, TimeGrid(1.0, 4))

    # the corrector's pair check, as for the stationary correction
    @pytest.mark.parametrize("M", [4, 6, 15])
    def test_interval_count_when_corrected(self, M):
        with pytest.raises(ValueError, match="even interval count >= 8"):
            cn_wsgd_solve(catalog("ex3", BETA), M, TimeGrid(1.0, 4), corrected=True)

    @pytest.mark.parametrize("N", [0, -3])
    def test_no_time_steps(self, N):
        with pytest.raises(ValueError, match="at least one time step"):
            TimeGrid(1.0, N)

    @pytest.mark.parametrize("T", [0.0, -1.0, float("nan")])
    def test_nonpositive_final_time(self, T):
        with pytest.raises(ValueError, match="final time"):
            TimeGrid(T, 10)
