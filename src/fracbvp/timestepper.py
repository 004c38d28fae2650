"""Crank-Nicolson time stepping for the one-sided diffusion problem.

A march starts from rest, u = 0 at t = 0, and takes N uniform steps of
``tau = T / N`` to the problem's own final time T.  Step n solves
``(I - tau/2 D) u^n = (I + tau/2 D) u^{n-1} + tau f^{n-1/2}`` with ``D``
the theta-weighted spatial operator and ``f`` sampled at the half node
``t_{n-1/2} = (n - 1/2) tau``.  With ``A = I - tau/2 D`` the explicit
operator is ``2I - A``, so a step is one solve,
``b = u^{n-1} + (tau/2) f^{n-1/2}``, ``q = (A/2)^-1 b``,
``u^n = q - u^{n-1}``, with ``A/2 = I/2 - tau/4 D``.  A power of two scales
exactly, so ``q`` is ``2 A^-1 b`` and its backward error under ``A/2`` is
that of ``A^-1 b`` under ``A``, bit for bit.  The implicit matrix is
time-independent, so one solver set-up serves the whole march.  The march
asks :func:`~fracbvp.solver.make_solver` for the direct path, which holds
the inverse: on a coarse grid an explicit inverse, one LAPACK inversion
at set-up applied by one matrix-vector product per step, and on a finer
grid the Gohberg-Semencul generators, found by GMRES.

The march advances in blocks of ``BLOCK_STEPS`` steps, taken by one step
routine that keeps each step's right-hand side and solution as rows of
the block.  Before its steps the routine writes the forcing, sampled
once per grid and step with a float time, straight into the
right-hand-side rows, and scales them by tau/2 with one product per
grid.  A step then writes in place: ``b`` is formed in its row, and
``q`` goes straight into its row of the solution block, through the
``out`` argument of :meth:`~fracbvp.solver.ToeplitzSolver.apply_inverse`.
The routine runs unchecked, and then
:meth:`~fracbvp.solver.ToeplitzSolver.backward_error` checks every row
with one product on the bound every solve meets; the block is clean when
each grid's largest backward error meets it.  When one misses it,
the routine runs again from the block's start state, checked: each
:meth:`~fracbvp.solver.ToeplitzSolver.solve` iterates to the bound or
raises :class:`~fracbvp.solver.SolverError` at its step.  A value that
is not finite misses the bound like any other miss, and the checked
solve refuses a right-hand side that is not finite with ``ValueError``.
An exception's traceback holds no row of a block: the frames it came
through are cleared.

The corrected variant marches the coarse and fine grids (M, 2M) together
and corrects every step with the one correction routine of the
stationary solve, :class:`~fracbvp.correction.TwoGridCorrector`,
carrying the corrected fields into the next step.
:meth:`~fracbvp.correction.TwoGridCorrector.build` makes the singular
solves once, with the march's own solvers: the singular term's image
under ``A/2`` is half of ``us - (tau/2) * D us``, available in closed
form from its stationary image.  As for the stationary solve, the pair
must be even and at least 8 intervals.

As in the stationary correction, the per-step ratio recovers the
singular strength only in the few nodes next to the singular end x = 0;
elsewhere both two-grid gaps are O(h^2) and the ratio tends to an O(1)
function of x, so the correction there acts as a two-grid extrapolation
of the h^2 error term.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .correction import TwoGridCorrector
from .grids import Grid, GridFunction
from .solver import BACKWARD_ERROR_BOUND, FracParams, SchemeKind, make_solver

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import TimeDependentProblem


#: Steps per checked block: one product with the block's solutions
#: checks them all.
BLOCK_STEPS = 32


def cn_wsgd_solve(problem: "TimeDependentProblem", M: int, steps: int,
                  corrected: bool = False,
                  diagnostics: Optional[dict] = None) -> GridFunction:
    """March the CN scheme from rest (u = 0 at t = 0) ``steps`` steps of
    ``tau = problem.final_time / steps`` to the problem's final time;
    returns the field on grid M.

    With ``corrected=True`` the two-grid correction runs inside every
    step and the returned coarse-grid field is the corrected one (it
    coincides with the corrected fine field at coarse nodes).  A
    ``diagnostics`` dict, when given, receives ``guard_activations``
    (nodes left uncorrected, summed over the steps), ``backward_error_max``
    (the largest backward error of a step's solve) and ``refinements``
    (step solves that missed the bound and were solved again).
    """
    if abs(problem.params.theta - 1.0) > 1e-14:
        raise ValueError("time stepping covers the one-sided case theta = 1 only")
    if steps < 1:
        raise ValueError(f"need at least one time step, got steps={steps}")
    tau = problem.final_time / steps
    half_tau = 0.5 * tau
    grids = [Grid(M)]
    if corrected:
        grids.append(grids[0].refined())
    # A/2 = I/2 - tau/4 D, whose inverse is exactly 2 A^-1
    stepping = FracParams(alpha=0.5, beta=problem.params.beta,
                          theta=problem.params.theta)
    solvers = [make_solver(stepping, grid, SchemeKind.WSGD, half_tau / 2, direct=True)
               for grid in grids]
    nodes = [grid.interior_nodes() for grid in grids]
    state = [np.zeros(len(x)) for x in nodes]

    corrector = None
    if corrected:
        sing = problem.singular
        # image of us under I - tau/2 D: us - (tau/2) D us, which is
        # (1 - tau/2*alpha0)*us + (tau/2)*fs, as fs = alpha0*us - D us for
        # the problem's alpha0; under A/2 it is half that
        fs_tau = ((1.0 - half_tau * problem.params.alpha) * sing.us
                  + half_tau * sing.fs)
        corrector = TwoGridCorrector.build(solvers, nodes, sing.us, 0.5 * fs_tau)

    # per grid, two k x m blocks: the right-hand side and the solution of
    # each step of the block, as rows; allocated once, since buffers freed
    # at every block's end fault their pages in again.  A step writes into
    # its pair of rows, whose views are made here, once
    blocks = [np.empty((2, BLOCK_STEPS, len(x))) for x in nodes]
    rows = [list(zip(*block)) for block in blocks]
    eta_max, refinements = 0.0, 0

    def march(u, n, k, checked):
        """States after steps ``n+1 .. n+k`` from ``u``, each written into
        the blocks' rows, the solves checked or not."""
        for x, block in zip(nodes, blocks):
            for row in range(k):
                block[0, row] = problem.rhs(x, (n + row + 0.5) * tau)
            block[0, :k] *= half_tau
        for row in range(k):
            stepped = []
            for solver, grid_rows, w in zip(solvers, rows, u):
                b, q = grid_rows[row]
                b += w
                if checked:
                    q[...] = solver.solve(b)
                else:
                    solver.apply_inverse(b, out=q)
                stepped.append(q - w)
            u = corrector.correct(*stepped)[:2] if corrected else stepped
        return u

    try:
        for n in range(0, steps, BLOCK_STEPS):
            k = min(BLOCK_STEPS, steps - n)
            # when a solve misses the bound, march the block again from the
            # same start state, checked.  A value that is not finite misses
            # it unchecked without an "invalid value" warning; the checked
            # pass, which repeats every step that missed, runs under the
            # caller's settings
            for checked in (False, True):
                with np.errstate(invalid=None if checked else "ignore"):
                    u = march(state, n, k, checked)
                    etas = [solver.backward_error(block[1, :k], block[0, :k])
                            for solver, block in zip(solvers, blocks)]
                # np.max keeps a NaN, which misses the bound
                tops = [float(eta.max()) for eta in etas]
                if checked or all(top <= BACKWARD_ERROR_BOUND for top in tops):
                    break
                refinements += sum(
                    int(np.count_nonzero(~(eta <= BACKWARD_ERROR_BOUND))) for eta in etas)
            eta_max = max(eta_max, *tops)
            state = u
    except BaseException as exc:
        # the traceback keeps the frames the exception came through, and
        # they hold rows of the blocks: clear them (the module is imported
        # here, as no successful march needs it)
        import traceback
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        # and this frame holds no block either
        blocks.clear()
        rows.clear()

    if diagnostics is not None:
        diagnostics["guard_activations"] = (
            corrector.guard_activations * steps if corrected else 0)
        diagnostics["backward_error_max"] = eta_max
        diagnostics["refinements"] = refinements
    return GridFunction.from_interior(grids[0], state[0])
