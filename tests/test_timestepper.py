"""Crank-Nicolson march of the time-dependent example ex3."""

from dataclasses import replace

import numpy as np
import pytest

from fracbvp.catalog import catalog
from fracbvp.grids import Grid
from fracbvp.operators import toeplitz_matvec
from fracbvp.solver import FracParams, SchemeKind, ToeplitzSolver, scheme_toeplitz
from fracbvp.study import StudyConfig, run_time_study
from fracbvp.timestepper import TimeGrid, cn_wsgd_solve

BETA = 1.5
EPS = 2.0 ** -52

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
                                               M_list=[M], steps=1000,
                                               corrected=corrected))
        (row,) = report.rows
        assert row.M == M
        floor = EPS * M ** BETA
        for got, want in zip((row.err_max, row.err_l2), FROZEN[M, corrected]):
            assert abs(got - want) <= 1e-6 * abs(want) + floor


class TestRejects:
    def test_theta_other_than_one(self):
        problem = catalog("ex3", BETA)
        two_sided = replace(problem, params=FracParams(0.0, BETA, 0.5))
        with pytest.raises(ValueError, match="theta = 1"):
            cn_wsgd_solve(two_sided, 16, TimeGrid(1.0, 4))

    def test_odd_interval_count_when_corrected(self):
        with pytest.raises(ValueError, match="even"):
            cn_wsgd_solve(catalog("ex3", BETA), 15, TimeGrid(1.0, 4), corrected=True)

    def test_missing_singular_term_when_corrected(self):
        problem = replace(catalog("ex3", BETA), singular=None)
        with pytest.raises(ValueError, match="singular"):
            cn_wsgd_solve(problem, 16, TimeGrid(1.0, 4), corrected=True)

    @pytest.mark.parametrize("N", [0, -3])
    def test_no_time_steps(self, N):
        with pytest.raises(ValueError, match="at least one time step"):
            TimeGrid(1.0, N)

    @pytest.mark.parametrize("T", [0.0, -1.0, float("nan")])
    def test_nonpositive_final_time(self, T):
        with pytest.raises(ValueError, match="final time"):
            TimeGrid(T, 10)
