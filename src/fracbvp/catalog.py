"""Manufactured problems, their singular terms, and the named catalog.

Every problem is posed on (0, 1); README.md shows how to rescale one posed
on another interval.  Every stationary problem couples
:class:`~fracbvp.solver.FracParams` with a closed-form right-hand side (a
:class:`~fracbvp.analytic.PowerSum`) and an optional exact solution.  The
five named entries cover one-sided and symmetric two-sided derivatives,
with and without a known exact solution, plus one time-dependent problem.

Every problem's leading singular term is derived from its operator, and
never stored: one formula for every theta, the product
``x**gamma * (1-x)**(beta-gamma)`` with the exponents of
:func:`~fracbvp.analytic.singular_exponents`, whose image under the
two-sided operator is a constant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .analytic import (PowerSum, PowerTerm, elliptic_rhs, left_derivative,
                       singular_exponents)
from .solver import FracParams

CATALOG_NAMES = ("ex1-case1", "ex1-case2", "ex2-case1", "ex2-case2", "ex3")


@dataclass(frozen=True)
class SingularTermSpec:
    """Leading boundary singular term and its exact right-hand side.

    ``us`` is ``x**gamma * (1-x)**(beta-gamma)`` with the exponents of
    :func:`~fracbvp.analytic.singular_exponents`, and ``fs`` its exact image
    under the problem operator: the pair the two-grid strength estimate
    needs.  :func:`singular_term` makes it; a problem's ``singular`` derives it.
    """

    us: PowerSum
    fs: PowerSum


@dataclass(frozen=True)
class ProblemSpec:
    """A stationary fractional boundary-value problem on (0, 1).

    ``singular`` is the operator's leading singular term, derived from
    ``params`` on first use; a problem made with
    :func:`dataclasses.replace` derives its own.
    """

    name: str
    params: FracParams
    rhs: PowerSum
    exact: Optional[PowerSum] = None

    @functools.cached_property
    def singular(self) -> SingularTermSpec:
        return singular_term(self.params)


@dataclass(frozen=True)
class TimeDependentProblem:
    """A space-fractional diffusion problem ``u_t = D u + f`` on (0, 1).

    Only the one-sided case ``theta = 1`` is covered by the time stepper,
    which marches from rest (u = 0 at t = 0) to ``final_time``; a final
    time that is not positive is refused.  ``params.alpha`` plays no role
    here (there is no reaction term).  ``singular`` is the operator's
    leading singular term, derived from ``params`` on first use, as for
    :class:`ProblemSpec`.
    """

    name: str
    params: FracParams
    final_time: float
    rhs: Callable[[np.ndarray, float], np.ndarray]
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    singular = ProblemSpec.singular

    def __post_init__(self):
        if not self.final_time > 0.0:
            raise ValueError(f"final time must be positive, got {self.final_time}")


def singular_term(params: FracParams) -> SingularTermSpec:
    """Leading singular term ``x**gamma * (1-x)**(beta-gamma)`` of the
    problem's operator, with the exponents of
    :func:`~fracbvp.analytic.singular_exponents`: ``beta - 1`` and ``1``
    at theta = 1, ``beta/2`` on both sides at theta = 1/2, and ``1`` and
    ``beta - 1`` at theta = 0."""
    rl, rr = singular_exponents(params.beta, params.theta)
    us = PowerSum((PowerTerm(1.0, rl, rr),))
    fs = elliptic_rhs(us, params.alpha, params.beta, params.theta)
    return SingularTermSpec(us=us, fs=fs)


def manufactured(name: str, params: FracParams, exact: PowerSum) -> ProblemSpec:
    """Problem with a prescribed exact solution; rhs built in closed form."""
    rhs = elliptic_rhs(exact, params.alpha, params.beta, params.theta)
    return ProblemSpec(name=name, params=params, rhs=rhs, exact=exact)


def _ex1_profile(beta: float) -> PowerSum:
    """(x**2 + x**(beta+1) + x**(beta-1)) * (1 - x) as anchored powers."""
    return PowerSum((
        PowerTerm(1.0, 2.0, 1.0),
        PowerTerm(1.0, beta + 1.0, 1.0),
        PowerTerm(1.0, beta - 1.0, 1.0),
    ))


def _ex3(beta: float) -> TimeDependentProblem:
    params = FracParams(alpha=0.0, beta=beta, theta=1.0)
    profile = _ex1_profile(beta)
    d_profile = left_derivative(profile, beta)
    # the forcing 3t^2 p(x) - t^3 Dp(x) is separable and a march samples it
    # on the same nodes every step (two grids when corrected): p and Dp are
    # kept per shape of the nodes (a grid's node count), with the node bytes
    # they were evaluated at, so an array refilled in place is evaluated anew
    spatial = {}

    def rhs(x, t):
        x = np.asarray(x, dtype=float)
        nodes = x.tobytes()
        kept = spatial.get(x.shape)
        if kept is None or kept[0] != nodes:
            kept = spatial[x.shape] = nodes, profile(x), d_profile(x)
        _, p, dp = kept
        return 3.0 * t * t * p - t ** 3 * dp

    def exact(x, t):
        return t ** 3 * profile(x)

    return TimeDependentProblem(
        name="ex3", params=params, final_time=1.0, rhs=rhs, exact=exact)


def catalog(name: str, beta: float):
    """Build a named problem for the given order.

    Stationary names return a :class:`ProblemSpec`; ``'ex3'`` returns a
    :class:`TimeDependentProblem`.
    """
    if not 1.0 < beta < 2.0:
        raise ValueError(f"catalog problems require beta in (1, 2), got {beta}")
    if name == "ex1-case1":
        params = FracParams(alpha=1.0, beta=beta, theta=1.0)
        return manufactured("ex1-case1", params, _ex1_profile(beta))
    if name == "ex1-case2":
        params = FracParams(alpha=1.0, beta=beta, theta=1.0)
        rhs = PowerSum.left_anchored([(1.0, 1.0), (1.0, 0.0)])  # x + 1
        return ProblemSpec(name=name, params=params, rhs=rhs)
    if name == "ex2-case1":
        params = FracParams(alpha=1.0, beta=beta, theta=0.5)
        exact = PowerSum((
            PowerTerm(1.0, 2.0, 2.0),
            PowerTerm(2.0, 0.5 * beta, 0.5 * beta),
        ))
        return manufactured("ex2-case1", params, exact)
    if name == "ex2-case2":
        params = FracParams(alpha=1.0, beta=beta, theta=0.5)
        rhs = PowerSum.constant(1.0)
        return ProblemSpec(name=name, params=params, rhs=rhs)
    if name == "ex3":
        return _ex3(beta)
    raise KeyError(f"unknown problem name {name!r}; choose from {CATALOG_NAMES}")


def with_overrides(spec: ProblemSpec, alpha: Optional[float] = None,
                   theta: Optional[float] = None) -> ProblemSpec:
    """Rebuild a catalog problem with modified parameters.

    When the problem carries an exact solution its rhs is re-derived for
    the new parameters, so the exact solution stays valid; a ``ValueError``
    is raised when that rhs has no closed form at the new theta.  The new
    problem derives its singular term from the new parameters, at any
    theta.
    """
    params = FracParams(
        alpha=spec.params.alpha if alpha is None else alpha,
        beta=spec.params.beta,
        theta=spec.params.theta if theta is None else theta,
    )
    if params == spec.params:
        return spec
    rhs = spec.rhs
    if spec.exact is not None:
        rhs = elliptic_rhs(spec.exact, params.alpha, params.beta, params.theta)
    return replace(spec, params=params, rhs=rhs)
