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

The march advances in blocks of ``BLOCK_STEPS`` steps.  A step applies
``A^-1`` to its right-hand side with no check of its own and keeps the
right-hand side and the solution as rows of the block.  After the block,
:meth:`~fracbvp.solver.ToeplitzSolver.backward_error` checks every row
with one product on the bound every solve meets.  When a row misses it,
the block is marched again from its start state one
:meth:`~fracbvp.solver.ToeplitzSolver.solve` at a time, which iterates
to the bound or raises :class:`~fracbvp.solver.SolverError` at its
step.  A right-hand side that is not finite ends the block early: if
every step before it holds, the march raises ``ValueError`` there, as
:meth:`solve` would; if one does not, as when a finite right-hand side
gave a solution that is not finite, the block is marched again.

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
from .solver import BACKWARD_ERROR_BOUND, FracParams, SchemeKind, make_solver

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

    def half_node(self, n: int) -> float:
        """t_{n-1/2} for step n >= 1."""
        return (n - 0.5) * self.tau


#: Steps per checked block: one product with the block's solutions
#: checks them all.
BLOCK_STEPS = 32


def cn_wsgd_solve(problem: "TimeDependentProblem", M: int, time_grid: TimeGrid,
                  corrected: bool = False,
                  diagnostics: Optional[dict] = None) -> GridFunction:
    """March the CN scheme to the final time; returns the field on grid M.

    With ``corrected=True`` the two-grid correction runs inside every
    step and the returned coarse-grid field is the corrected one (it
    coincides with the corrected fine field at coarse nodes).  A
    ``diagnostics`` dict, when given, receives ``guard_activations``
    (guarded strength nodes, summed over the steps), ``backward_error_max``
    (the largest backward error of a step's solve) and ``refinements``
    (step solves that missed the bound and were solved again).
    """
    if abs(problem.params.theta - 1.0) > 1e-14:
        raise ValueError("time stepping covers the one-sided case theta = 1 only")
    if corrected and problem.singular is None:
        raise ValueError("corrected time stepping needs the problem's singular term")
    if corrected and M % 2:
        raise ValueError("corrected time stepping needs an even interval count")
    N = time_grid.N
    half_tau = 0.5 * time_grid.tau
    grids = [Grid(*problem.domain, M)]
    if corrected:
        grids.append(grids[0].refined())
    stepping = FracParams(alpha=1.0, beta=problem.params.beta,
                          theta=problem.params.theta)
    # a solve per step, and one singular solve when corrected
    solvers = [make_solver(stepping, grid, SchemeKind.WSGD, half_tau,
                           solves=N + 1) for grid in grids]
    nodes = [grid.interior_nodes() for grid in grids]
    state = [np.asarray(problem.initial(x), dtype=float) for x in nodes]

    corrector = None
    if corrected:
        sing = problem.singular
        # singular problem under the per-step operator I - tau/2 D:
        # rhs = us - (tau/2) D us = (1 - tau/2*alpha0)*us + (tau/2)*(fs_alpha0),
        # where fs was built as alpha*us - D us for the problem's alpha.
        alpha0 = problem.params.alpha
        fs_tau = (1.0 - half_tau * alpha0) * sing.us + half_tau * sing.fs
        corrector = TwoGridCorrector(
            *(solver.solve(np.asarray(fs_tau(x), dtype=float))
              for solver, x in zip(solvers, nodes)),
            *(sing.us(x) for x in nodes))

    apply = [solver.apply_inverse for solver in solvers]
    # per grid, two k x m blocks: the right-hand side and the unchecked
    # solution of each step of the block, as rows; allocated once, since
    # buffers freed at every block's end fault their pages in again
    blocks = [np.empty((2, BLOCK_STEPS, len(x))) for x in nodes]
    eta_max, refinements = 0.0, 0

    def advance(u, solutions):
        """States after a step from the states ``u`` and the step's solutions."""
        new = [2.0 * w - v for w, v in zip(solutions, u)]
        return list(corrector.correct(*new)[:2]) if corrected else new

    def fill(u, row, t):
        """Solve the block's step ``row`` from the states ``u``, unchecked;
        False when a right-hand side is not finite."""
        for g, block in enumerate(blocks):
            b = u[g] + half_tau * problem.rhs(nodes[g], t)
            if not np.isfinite(b).all():
                return False
            block[0, row] = b
            block[1, row] = apply[g](b)
        return True

    try:
        for n in range(0, N, BLOCK_STEPS):
            k = min(BLOCK_STEPS, N - n)
            u, done = state, 0
            while done < k and fill(u, done, time_grid.half_node(n + done + 1)):
                u = advance(u, [block[1, done] for block in blocks])
                done += 1
            etas = [solver.backward_error(block[1, :done], block[0, :done])
                    for solver, block in zip(solvers, blocks)] if done else []
            missed = sum(int(np.count_nonzero(~(eta <= BACKWARD_ERROR_BOUND)))
                         for eta in etas)
            if not missed:
                if done < k:
                    # every step before it holds: the march stops here, as
                    # the step's checked solve would
                    raise ValueError("array must not contain infs or NaNs")
                eta_max = max(eta_max, *(float(eta.max()) for eta in etas))
                state = u
                continue
            # a solve missed the bound: march the block again one checked
            # solve at a time, from the same start state
            refinements += missed
            u = state
            for row in range(k):
                t = time_grid.half_node(n + row + 1)
                solutions = []
                for solver, x, v in zip(solvers, nodes, u):
                    b = v + half_tau * problem.rhs(x, t)
                    solutions.append(solver.solve(b))
                    eta_max = max(eta_max, solver.backward_error(solutions[-1], b))
                u = advance(u, solutions)
            state = u
    finally:
        # an exception's traceback keeps this frame: hold no block in it
        blocks.clear()

    if diagnostics is not None:
        diagnostics["guard_activations"] = (
            corrector.guard_activations * N if corrected else 0)
        diagnostics["backward_error_max"] = eta_max
        diagnostics["refinements"] = refinements
    return GridFunction.from_interior(grids[0], state[0])
