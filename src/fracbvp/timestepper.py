"""Crank-Nicolson time stepping for the one-sided diffusion problem.

Each step solves ``(I - tau/2 D) u^n = (I + tau/2 D) u^{n-1} + tau f^{n-1/2}``
with ``D`` the theta-weighted spatial operator and ``f`` sampled at the
half node.  With ``A = I - tau/2 D`` the explicit operator is ``2I - A``, so
a step is one solve, ``A v = u^{n-1} + (tau/2) f^{n-1/2}``, ``u^n = 2v - u^{n-1}``.
The implicit matrix is time-independent, so one solver set-up serves the
whole march.  The march tells :func:`~fracbvp.solver.make_solver` that it
makes ``N + 1`` solves, so on a coarse grid it gets an explicit inverse,
applied by one matrix-vector product per step, and on a finer grid, for
two steps or more, the Gohberg-Semencul generators.

The corrected variant marches the coarse and fine grids together, applies
the two-grid correction of :class:`~fracbvp.correction.TwoGridCorrector`
after every step and carries the corrected fields into the next step.
The corrector is built once from the singular solves against the per-step
operator ``I - tau/2 D``: its exact singular right-hand side is
``us - (tau/2) * D us``, available in closed form from the singular term's
stationary image.

As in the stationary correction, the per-step ratio recovers the
singular strength only in the few nodes next to the singular end x=a;
elsewhere both two-grid gaps are O(h^2) and the ratio tends to an O(1)
function of x, so the correction there acts as a two-grid extrapolation
of the h^2 error term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .correction import TwoGridCorrector
from .grids import Grid, GridFunction
from .solver import FracParams, SchemeKind, make_solver

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import TimeDependentProblem


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time mesh: N steps of size tau = T / N."""

    T: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"need at least one time step, got N={self.N}")
        if not self.T > 0.0:
            raise ValueError(f"final time must be positive, got T={self.T}")

    @property
    def tau(self) -> float:
        return self.T / self.N

    def node(self, n: int) -> float:
        return n * self.tau

    def half_node(self, n: int) -> float:
        """t_{n-1/2} for step n >= 1."""
        return (n - 0.5) * self.tau


class _CNSystem:
    """Implicit operator ``A = I - tau/2 D`` of one CN grid; a step is one solve."""

    def __init__(self, params: FracParams, grid: Grid, tau: float, solves: int):
        self.half_tau = 0.5 * tau
        stepping = FracParams(alpha=1.0, beta=params.beta, theta=params.theta)
        self.solver = make_solver(stepping, grid, SchemeKind.WSGD, self.half_tau,
                                  solves=solves)

    def step(self, u_int: np.ndarray, f_half: np.ndarray) -> np.ndarray:
        return 2.0 * self.solver.solve(u_int + self.half_tau * f_half) - u_int


def cn_wsgd_solve(problem: "TimeDependentProblem", M: int, time_grid: TimeGrid,
                  corrected: bool = False,
                  diagnostics: Optional[dict] = None) -> GridFunction:
    """March the CN scheme to the final time; returns the field on grid M.

    With ``corrected=True`` the two-grid correction runs inside every
    step and the returned coarse-grid field is the corrected one (it
    coincides with the corrected fine field at coarse nodes).  A
    ``diagnostics`` dict, when given, receives guard activation counts.
    """
    if abs(problem.params.theta - 1.0) > 1e-14:
        raise ValueError("time stepping covers the one-sided case theta = 1 only")
    if corrected and problem.singular is None:
        raise ValueError("corrected time stepping needs the problem's singular term")
    if corrected and M % 2:
        raise ValueError("corrected time stepping needs an even interval count")
    a, b = problem.domain
    tau = time_grid.tau
    grid_c = Grid(a, b, M)
    # a solve per step, and one singular solve when corrected
    solves = time_grid.N + 1
    sys_c = _CNSystem(problem.params, grid_c, tau, solves)
    xc = grid_c.interior_nodes()
    u_c = np.asarray(problem.initial(xc), dtype=float)

    if not corrected:
        for n in range(1, time_grid.N + 1):
            u_c = sys_c.step(u_c, problem.rhs(xc, time_grid.half_node(n)))
        return GridFunction.from_interior(grid_c, u_c)

    grid_f = grid_c.refined()
    sys_f = _CNSystem(problem.params, grid_f, tau, solves)
    xf = grid_f.interior_nodes()
    u_f = np.asarray(problem.initial(xf), dtype=float)

    sing = problem.singular
    # singular problem under the per-step operator I - tau/2 D:
    # rhs = us - (tau/2) D us = (1 - tau/2*alpha0)*us + (tau/2)*(fs_alpha0),
    # where fs was built as alpha*us - D us for the problem's alpha.
    alpha0 = problem.params.alpha
    fs_tau = (1.0 - 0.5 * tau * alpha0) * sing.us + (0.5 * tau) * sing.fs
    corrector = TwoGridCorrector(
        sys_c.solver.solve(np.asarray(fs_tau(xc), dtype=float)),
        sys_f.solver.solve(np.asarray(fs_tau(xf), dtype=float)),
        sing.us(xc), sing.us(xf))
    guards = 0

    for n in range(1, time_grid.N + 1):
        t_half = time_grid.half_node(n)
        u_c = sys_c.step(u_c, problem.rhs(xc, t_half))
        u_f = sys_f.step(u_f, problem.rhs(xf, t_half))
        u_c, u_f, _, g = corrector.correct(u_c, u_f)
        guards += g
    if diagnostics is not None:
        diagnostics["guard_activations"] = guards
    return GridFunction.from_interior(grid_c, u_c)

