"""Two-grid extrapolation estimate of singular strength and correction.

The solver error of the plain schemes on a solution with a boundary
singular term ``xi * us`` is dominated by ``xi * (us - us_h)``.  Solving
the problem and the pure singular problem on a grid pair (h, h/2) lets
the pointwise strength be estimated as

    xi_h(x_j) = (u_{h/2}(x_j) - u_h(x_j)) / (us_{h/2}(x_j) - us_h(x_j)),

after which ``u_h + xi_h * (us - us_h)`` recovers second-order accuracy.
The fine-grid field is corrected as well: at coarse nodes with the same
ratio, at midpoints with the strength of the right neighbour (clamped at
the last midpoint).

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

#: Relative scale of the denominator guard; see :func:`xi_strength`.
GUARD_SCALE = 1e-13


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


def _guarded_ratio(num: np.ndarray, den: np.ndarray,
                   guard_eps: float) -> tuple[np.ndarray, int]:
    """Pointwise num/den with tiny denominators patched from neighbours.

    Guarded entries take the value of the nearest unguarded interior
    entry, ties breaking toward the domain center.  Raises if every
    denominator is guarded (the singular solves are identical, so either
    the singular spec is wrong or the grid is uselessly coarse).
    """
    bad = np.abs(den) <= guard_eps
    if bad.all():
        raise SolverError(
            "all strength denominators fall below the guard; the singular "
            "problem's two-grid solves are indistinguishable")
    xi = np.empty_like(num)
    good = ~bad
    xi[good] = num[good] / den[good]
    if bad.any():
        n = len(num)
        center = 0.5 * (n - 1)
        good_idx = np.nonzero(good)[0]
        for i in np.nonzero(bad)[0]:
            dist = np.abs(good_idx - i)
            nearest = good_idx[dist == dist.min()]
            # ties: prefer the candidate closer to the center
            pick = nearest[np.argmin(np.abs(nearest - center))]
            xi[i] = xi[pick]
    return xi, int(bad.sum())


def xi_strength(u_h: GridFunction, u_half: GridFunction,
                us_h: GridFunction, us_half: GridFunction) -> GridFunction:
    """Pointwise strength of the singular component on the coarse grid.

    All four arguments live on the coarse grid; ``u_half`` and ``us_half``
    are the even-index restrictions of the fine-grid solves.  Boundary
    entries of the result are zero.

    Only the entries next to the singular end estimate xi.  For theta in
    {0, 1} the entries away from it tend under refinement to an O(1)
    function of x that in general differs from xi; see the module
    docstring.
    """
    xi, _ = _xi_strength_interior(u_h, u_half, us_h, us_half)
    return GridFunction.from_interior(u_h.grid, xi)


def _xi_strength_interior(u_h, u_half, us_h, us_half) -> tuple[np.ndarray, int]:
    grids = {g.grid.M for g in (u_h, u_half, us_h, us_half)}
    if len(grids) != 1:
        raise ValueError("all four grid functions must share the coarse grid")
    num = u_half.interior - u_h.interior
    den = us_half.interior - us_h.interior
    guard_eps = GUARD_SCALE * float(np.max(np.abs(us_h.values)))
    return _guarded_ratio(num, den, guard_eps)


def _midpoint_strengths(xi_int: np.ndarray) -> np.ndarray:
    """Strengths used at midpoints x_{j+1/2}: the right neighbour's value,
    with the final midpoint reusing the last interior strength."""
    return np.append(xi_int, xi_int[-1])


def correct(problem: "ProblemSpec", singular: "SingularTermSpec", M: int,
            scheme: SchemeKind, method: str = "auto") -> CorrectedSolution:
    """Two-grid singular correction of the stationary solve on M intervals.

    Solves the problem and the singular problem on grids M and 2M, forms
    the strength field and returns both corrected fields.
    """
    return _run_correction(problem, [singular], M, scheme, method)


def correct_iterated(problem: "ProblemSpec",
                     singular_terms: Sequence["SingularTermSpec"], M: int,
                     scheme: SchemeKind, method: str = "auto") -> CorrectedSolution:
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
    return _run_correction(problem, list(singular_terms), M, scheme,
                           "auto" if method is None else method)


def _run_correction(problem, terms, M, scheme, method) -> CorrectedSolution:
    if M < 8 or M % 2:
        raise ValueError(f"correction needs an even interval count >= 8, got {M}")
    a, b = problem.domain
    grid_c = Grid(a, b, M)
    grid_f = grid_c.refined()
    solver_c = make_solver(problem.params, grid_c, scheme, method)
    solver_f = make_solver(problem.params, grid_f, scheme, method)

    def pair(rhs_ps):
        u_c = solver_c.solve(np.asarray(rhs_ps(grid_c.interior_nodes()), dtype=float))
        u_f = solver_f.solve(np.asarray(rhs_ps(grid_f.interior_nodes()), dtype=float))
        return (GridFunction.from_interior(grid_c, u_c),
                GridFunction.from_interior(grid_f, u_f))

    u_h, u_hf = pair(problem.rhs)
    residual = u_hf.restricted().interior - u_h.interior

    solves = [pair(term.fs) for term in terms]
    gaps_c = [term.us(grid_c.interior_nodes()) - us_h.interior
              for term, (us_h, _) in zip(terms, solves)]
    gaps_f = [term.us(grid_f.interior_nodes()) - us_hf.interior
              for term, (_, us_hf) in zip(terms, solves)]
    dens = [us_hf.restricted().interior - us_h.interior
            for us_h, us_hf in solves]

    guards = 0
    if len(terms) == 1:
        guard_eps = GUARD_SCALE * float(np.max(np.abs(solves[0][0].values)))
        xi_int, guards = _guarded_ratio(residual, dens[0], guard_eps)
        strengths = [xi_int]
    else:
        fitted, *_ = np.linalg.lstsq(np.column_stack(dens), residual, rcond=None)
        strengths = [np.full(M - 1, s) for s in fitted]
        xi_int = strengths[0]

    corr_c = np.zeros(M - 1)
    corr_f = np.zeros(2 * M - 1)
    for xi_k, gap_c, gap_f in zip(strengths, gaps_c, gaps_f):
        corr_c += xi_k * gap_c
        corr_f[1::2] += xi_k * gap_f[1::2]                       # coarse nodes
        corr_f[::2] += _midpoint_strengths(xi_k) * gap_f[::2]    # midpoints

    corrected_c = GridFunction.from_interior(grid_c, u_h.interior + corr_c)
    corrected_f = GridFunction.from_interior(grid_f, u_hf.interior + corr_f)
    return CorrectedSolution(
        coarse=u_h, fine=u_hf,
        xi=GridFunction.from_interior(grid_c, xi_int),
        corrected_coarse=corrected_c, corrected_fine=corrected_f,
        guard_activations=guards)
