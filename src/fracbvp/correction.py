"""Two-grid extrapolation estimate of singular strength and correction.

The solver error of the plain schemes on a solution with a boundary
singular term ``xi * us`` is dominated by ``xi * (us - us_h)``.  Solving
the problem and the pure singular problem on a grid pair (h, h/2) lets
the pointwise strength be estimated as

    xi_h(x_j) = (u_{h/2}(x_j) - u_h(x_j)) / (us_{h/2}(x_j) - us_h(x_j)),

after which ``u_h + xi_h * (us - us_h)`` recovers second-order accuracy.

:class:`TwoGridCorrector` is the one correction routine, and it computes
every node's strength by one rule.  It is made from the singular solves
on a grid pair (M, 2M), and :meth:`TwoGridCorrector.correct` corrects a
pair of solves.  The stationary :func:`correct`, which serves the study
rows and the reference, solves each grid of the pair that its map of
solved grids lacks and returns the corrected fields.  The
Crank-Nicolson march of :mod:`fracbvp.timestepper` makes it with
:meth:`TwoGridCorrector.build`, which checks the grid pair and makes the
singular solves with the march's two solvers, from the image of ``us``
under its per-step operator, and corrects after every step.

A node where the singular term's two solves agree to rounding is
guarded: its strength is 0, and each grid keeps its raw solve there.

The ratio recovers xi only in the few nodes next to the singular end,
where the singular gap ``us - us_h`` has order below 2 and dominates the
numerator.  Elsewhere, for theta in {0, 1}, both two-grid gaps are
O(h^2) and the ratio tends to an O(1) function of x that is not xi (it
is about 20 next to the free end for u = x^2 (1-x)^2 at beta = 1.5);
there the correction acts as a two-grid extrapolation of the h^2 error
term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .grids import Grid, GridFunction
from .solver import SchemeKind, SolverError, ToeplitzSolver, make_solver

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import ProblemSpec


class ConfigError(ValueError):
    """Invalid configuration of a study or of a corrected grid pair."""


def check_pair(M: int) -> None:
    """Raise :class:`ConfigError` unless the grid pair (M, 2M) can be
    corrected: M must be even and at least 8."""
    if M < 8 or M % 2:
        raise ConfigError(f"correction needs an even interval count >= 8, got {M}")


@dataclass
class GridSolves:
    """One grid's interior nodes and its two solves: the problem's, ``u``,
    and the singular term's, ``us``."""

    nodes: np.ndarray
    u: np.ndarray
    us: np.ndarray


@dataclass
class CorrectedSolution:
    """The corrected fields of a grid pair (M, 2M).

    ``corrected_coarse`` lives on the coarse grid, ``corrected_fine`` on
    the fine grid (the two agree identically at coarse nodes wherever the
    guard did not fire).  ``guard_activations`` counts the coarse interior
    nodes whose denominator fell below the guard and that were left
    uncorrected: there each field is its grid's raw solve.
    """

    corrected_coarse: GridFunction
    corrected_fine: GridFunction
    guard_activations: int


class TwoGridCorrector:
    """Two-grid extrapolation of one singular term on a grid pair (h, h/2).

    Built from the singular problem's interior solves ``us_c`` (coarse,
    M-1 nodes) and ``us_f`` (fine, 2M-1 nodes) and the term's exact values
    ``exact_c``/``exact_f`` at the same nodes; :meth:`build` makes those
    solves.  A pair of solves ``u_c``, ``u_f`` of the full problem is
    corrected by ``xi * (us - us_h)`` on each grid: coarse nodes of the
    fine grid take the coarse strength, midpoints the strength of their
    right neighbour (the last midpoint the last strength).

    A denominator ``den = us_f - us_c`` at the coarse nodes is guarded when
    ``|den| <= GUARD_SCALE * max|us_c|``, as where the two singular solves
    agree to rounding next to the free end x = 1 (9 nodes of ``ex1-case1``
    at beta = 1.01, M = 4096).  A guarded node divides by infinity: its
    strength is 0, and both fields there, its midpoint included, equal the
    raw solves.  ``guard_activations`` counts the guarded nodes.  Raises
    :class:`SolverError` if every denominator is guarded (the singular
    solves are identical: the singular spec is wrong or the grid is
    uselessly coarse).
    """

    #: Relative scale of the denominator guard.
    GUARD_SCALE = 1e-13

    def __init__(self, us_c: np.ndarray, us_f: np.ndarray,
                 exact_c: np.ndarray, exact_f: np.ndarray):
        self.den = us_f[1::2] - us_c
        self.gap_c = exact_c - us_c
        self.gap_f = exact_f - us_f
        # fine node j takes the strength of coarse node j // 2: a coarse
        # node its own, a midpoint its right neighbour's, the last one the
        # last strength
        self._fine = np.minimum(np.arange(len(us_f)) // 2, len(us_c) - 1)
        bad = np.abs(self.den) <= self.GUARD_SCALE * float(np.max(np.abs(us_c)))
        if bad.all():
            raise SolverError(
                "all strength denominators fall below the guard; the singular "
                "problem's two-grid solves are indistinguishable")
        self.guard_activations = int(bad.sum())
        # a guarded node divides by infinity: strength 0, left uncorrected
        self._divisor = np.where(bad, np.inf, self.den)

    @classmethod
    def build(cls, solvers: Sequence[ToeplitzSolver], nodes: Sequence[np.ndarray],
              us: Callable, fs: Callable) -> "TwoGridCorrector":
        """Corrector of the singular term ``us`` on a grid pair (M, 2M).

        ``solvers`` and ``nodes`` are the coarse and the fine grid's solver
        and interior nodes, and ``fs`` is the image of ``us`` under the
        solvers' operator: the singular solves are those of ``fs``.  Raises
        :class:`ConfigError` unless M is even and at least 8.
        """
        check_pair(len(nodes[0]) + 1)
        return cls(*(solver.solve(np.asarray(fs(x), dtype=float))
                     for solver, x in zip(solvers, nodes)),
                   *(us(x) for x in nodes))

    def correct(self, u_c: np.ndarray, u_f: np.ndarray):
        """Corrected coarse and fine fields and the pointwise strength
        ``xi`` at the coarse interior nodes, 0 where guarded."""
        xi = (u_f[1::2] - u_c) / self._divisor
        return u_c + xi * self.gap_c, u_f + xi[self._fine] * self.gap_f, xi


def _grid_solves(problem: "ProblemSpec", grid: Grid,
                 scheme: SchemeKind) -> GridSolves:
    """The problem's solve and its singular term's solve on one grid, made
    with one solver."""
    nodes = grid.interior_nodes()
    solver = make_solver(problem.params, grid, scheme)
    return GridSolves(nodes, *(solver.solve(np.asarray(f(nodes), dtype=float))
                               for f in (problem.rhs, problem.singular.fs)))


def correct(problem: "ProblemSpec", M: int, scheme: SchemeKind,
            solved: dict[int, GridSolves] | None = None) -> CorrectedSolution:
    """Two-grid singular correction of the stationary solve on M intervals.

    Solves the problem and its singular term on grids M and 2M, builds the
    corrector from the singular solves and returns both corrected fields.
    ``solved`` maps an interval count to that grid's solves: a grid of the
    pair that it holds is not solved again, and a grid it lacks is solved
    and added to it, so the raw solves stay there for the caller.
    Raises :class:`ConfigError` unless M is even and at least 8.
    """
    check_pair(M)
    grid_c = Grid(M)
    grid_f = grid_c.refined()
    solved = {} if solved is None else solved
    for grid in (grid_c, grid_f):
        if grid.M not in solved:
            solved[grid.M] = _grid_solves(problem, grid, scheme)
    coarse, fine = solved[M], solved[2 * M]
    us = problem.singular.us
    corrector = TwoGridCorrector(coarse.us, fine.us, us(coarse.nodes),
                                 us(fine.nodes))
    field_c, field_f, _ = corrector.correct(coarse.u, fine.u)
    return CorrectedSolution(
        corrected_coarse=GridFunction.from_interior(grid_c, field_c),
        corrected_fine=GridFunction.from_interior(grid_f, field_f),
        guard_activations=corrector.guard_activations)
