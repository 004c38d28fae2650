"""Two-grid extrapolation estimate of singular strength and correction.

The solver error of the plain schemes on a solution with a boundary
singular term ``xi * us`` is dominated by ``xi * (us - us_h)``.  Solving
the problem and the pure singular problem on a grid pair (h, h/2) lets
the pointwise strength be estimated as

    xi_h(x_j) = (u_{h/2}(x_j) - u_h(x_j)) / (us_{h/2}(x_j) - us_h(x_j)),

after which ``u_h + xi_h * (us - us_h)`` recovers second-order accuracy.
:class:`TwoGridCorrector` holds this step for one singular term; the
stationary correction here and the Crank-Nicolson march of
:mod:`fracbvp.timestepper` both apply it.

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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grids import Grid, GridFunction
from .solver import SchemeKind, SolverError, make_solver

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import ProblemSpec, SingularTermSpec


@dataclass
class CorrectedSolution:
    """Bundle of the raw pair, the strength field and corrected fields.

    ``corrected_coarse`` lives on the coarse grid, ``corrected_fine`` on
    the fine grid (the two agree identically at coarse nodes wherever the
    guard did not fire).  ``xi`` is the pointwise two-grid ratio (or, with
    several singular terms, the leading term's fitted scalar); it measures
    the singular strength only next to the singular end, and for theta in
    {0, 1} tends to an O(1) function of x elsewhere.  ``guard_activations``
    counts interior nodes whose denominator fell below the guard and
    inherited a neighbour's strength.
    """

    coarse: GridFunction
    fine: GridFunction
    xi: GridFunction
    corrected_coarse: GridFunction
    corrected_fine: GridFunction
    guard_activations: int


class TwoGridCorrector:
    """Two-grid extrapolation of one singular term on a grid pair (h, h/2).

    Built from the singular problem's interior solves ``us_c`` (coarse,
    M-1 nodes) and ``us_f`` (fine, 2M-1 nodes) and the term's exact values
    ``exact_c``/``exact_f`` at the same nodes.  A pair of solves ``u_c``,
    ``u_f`` of the full problem is corrected by ``xi * (us - us_h)`` on
    each grid: coarse nodes of the fine grid take the coarse strength,
    midpoints the strength of their right neighbour (the last midpoint the
    last strength).

    The strength's denominator ``us_f - us_c`` at the coarse nodes is fixed
    by the singular solves, so its guard is resolved here, once: a
    denominator is guarded when ``|den| <= GUARD_SCALE * max|us_c|``, and a
    guarded node takes the strength of the nearest unguarded node, ties
    breaking toward the domain center.  ``guard_activations`` counts the
    guarded nodes.  Raises :class:`SolverError` if every denominator is
    guarded (the singular solves are identical, so either the singular
    spec is wrong or the grid is uselessly coarse).
    """

    #: Relative scale of the denominator guard.
    GUARD_SCALE = 1e-13

    def __init__(self, us_c: np.ndarray, us_f: np.ndarray,
                 exact_c: np.ndarray, exact_f: np.ndarray):
        self.den = us_f[1::2] - us_c
        self.gap_c = exact_c - us_c
        self.gap_f = exact_f - us_f
        bad = np.abs(self.den) <= self.GUARD_SCALE * float(np.max(np.abs(us_c)))
        if bad.all():
            raise SolverError(
                "all strength denominators fall below the guard; the singular "
                "problem's two-grid solves are indistinguishable")
        self.guard_activations = int(bad.sum())
        # node i takes the strength num[pick[i]] / den[pick[i]]
        self._pick = None
        if self.guard_activations:
            pick = np.arange(len(self.den))
            center = 0.5 * (len(pick) - 1)
            good_idx = np.nonzero(~bad)[0]
            for i in np.nonzero(bad)[0]:
                dist = np.abs(good_idx - i)
                nearest = good_idx[dist == dist.min()]
                # ties: prefer the candidate closer to the center
                pick[i] = nearest[np.argmin(np.abs(nearest - center))]
            self._pick = pick
            self._den_pick = self.den[pick]

    def strength(self, u_c: np.ndarray, u_f: np.ndarray) -> np.ndarray:
        """Guarded pointwise strength at the coarse interior nodes."""
        num = u_f[1::2] - u_c
        if self._pick is None:
            return num / self.den
        return num[self._pick] / self._den_pick

    def correction(self, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coarse and fine corrections ``xi * (us - us_h)`` for coarse-node
        strengths ``xi``."""
        gap_f = self.gap_f
        corr_f = np.empty_like(gap_f)
        corr_f[1::2] = xi * gap_f[1::2]
        corr_f[:-1:2] = xi * gap_f[:-1:2]
        corr_f[-1] = xi[-1] * gap_f[-1]
        return xi * self.gap_c, corr_f

    def correct(self, u_c: np.ndarray, u_f: np.ndarray):
        """Corrected coarse and fine fields, the strength and the guard count."""
        xi = self.strength(u_c, u_f)
        corr_c, corr_f = self.correction(xi)
        return u_c + corr_c, u_f + corr_f, xi, self.guard_activations


def correct(problem: "ProblemSpec", singular: "SingularTermSpec", M: int,
            scheme: SchemeKind) -> CorrectedSolution:
    """Two-grid singular correction of the stationary solve on M intervals.

    Solves the problem and the singular problem on grids M and 2M, forms
    the strength field and returns both corrected fields.
    """
    return _run_correction(problem, [singular], M, scheme)


def correct_iterated(problem: "ProblemSpec",
                     singular_terms: Sequence["SingularTermSpec"], M: int,
                     scheme: SchemeKind) -> CorrectedSolution:
    """Correction with a hierarchy of singular terms, applied in order.

    With several terms the scalar strengths of all terms are fitted
    simultaneously by least squares against the two-grid residual (the
    pointwise ratio of the leading term would absorb the residual
    entirely, and later terms' far smaller denominators would amplify
    what remains into noise).  A single-term list keeps the pointwise
    ratio and reproduces :func:`correct` exactly.
    """
    if not singular_terms:
        raise ValueError("need at least one singular term")
    return _run_correction(problem, list(singular_terms), M, scheme)


def _run_correction(problem, terms, M, scheme) -> CorrectedSolution:
    if M < 8 or M % 2:
        raise ValueError(f"correction needs an even interval count >= 8, got {M}")
    a, b = problem.domain
    grid_c = Grid(a, b, M)
    grid_f = grid_c.refined()
    xc, xf = grid_c.interior_nodes(), grid_f.interior_nodes()
    # one solve of the problem and one per singular term on each grid
    solves = 1 + len(terms)
    solver_c = make_solver(problem.params, grid_c, scheme, solves=solves)
    solver_f = make_solver(problem.params, grid_f, scheme, solves=solves)

    def pair(rhs_ps):
        return (solver_c.solve(np.asarray(rhs_ps(xc), dtype=float)),
                solver_f.solve(np.asarray(rhs_ps(xf), dtype=float)))

    u_c, u_f = pair(problem.rhs)
    correctors = [TwoGridCorrector(*pair(term.fs), term.us(xc), term.us(xf))
                  for term in terms]
    guards = 0
    if len(terms) == 1:
        strengths = [correctors[0].strength(u_c, u_f)]
        guards = correctors[0].guard_activations
    else:
        dens = np.column_stack([c.den for c in correctors])
        fitted, *_ = np.linalg.lstsq(dens, u_f[1::2] - u_c, rcond=None)
        strengths = [np.full(M - 1, s) for s in fitted]

    corrections = [c.correction(s) for c, s in zip(correctors, strengths)]
    corr_c = sum(c for c, _ in corrections)
    corr_f = sum(f for _, f in corrections)
    return CorrectedSolution(
        coarse=GridFunction.from_interior(grid_c, u_c),
        fine=GridFunction.from_interior(grid_f, u_f),
        xi=GridFunction.from_interior(grid_c, strengths[0]),
        corrected_coarse=GridFunction.from_interior(grid_c, u_c + corr_c),
        corrected_fine=GridFunction.from_interior(grid_f, u_f + corr_f),
        guard_activations=guards)
