"""Closed-form fractional calculus on sums of power functions.

Every problem is posed on (0, 1).  Right-hand sides and exact solutions of
the manufactured problems are all representable as finite sums of terms
``c * x**p * (1 - x)**q`` (:class:`PowerSum`).  This module evaluates such
sums and applies the left- and right-sided fractional derivative operators
to them exactly, which keeps every rhs bit-reproducible.

The key scalar identity is the derivative of a pure power,

    D_left**beta x**xi = Gamma(xi+1)/Gamma(xi+1-beta) * x**(xi-beta),

which degenerates to the zero function when ``xi + 1 - beta`` hits a pole
of the Gamma function (a non-positive integer).  The right-sided
derivative is the mirror image, under ``x -> 1 - x``
(:meth:`PowerSum.reflected`), of the left-sided one.

The two-sided operator ``theta*D_left + (1-theta)*D_right`` maps the
product ``w = x**gamma * (1-x)**(beta-gamma)`` to a constant when
``(1-theta) sin(pi gamma) = theta sin(pi (beta-gamma))`` (Ervin, Heuer &
Roop, Math. Comp. 87, 2018); :func:`singular_exponents` solves for the
exponents, and :func:`elliptic_rhs` uses the constant for every theta
strictly between 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Distance below which an exponent is treated as an exact integer when
#: testing for Gamma poles.  Orders arrive as floats (often built as
#: ``beta - 1``), so exact integer tests would be too brittle.
POLE_TOL = 1e-9


def _near_int(x: float) -> int | None:
    k = round(x)
    return k if abs(x - k) <= POLE_TOL else None


@dataclass(frozen=True)
class PowerTerm:
    """One summand ``coef * x**left * (1 - x)**right``."""

    coef: float
    left: float
    right: float


@dataclass(frozen=True)
class PowerSum:
    """Finite sum of two-sided power terms on [0, 1].

    Instances are immutable, support ``+``, ``-`` and scalar ``*``, and
    are callable on scalars or arrays.
    """

    terms: tuple[PowerTerm, ...]

    # -- construction -------------------------------------------------

    @classmethod
    def left_anchored(cls, pairs: Iterable[tuple[float, float]]) -> "PowerSum":
        """Sum of ``c * x**xi`` terms from ``(c, xi)`` pairs."""
        return cls(tuple(PowerTerm(c, xi, 0.0) for c, xi in pairs))

    @classmethod
    def constant(cls, value: float) -> "PowerSum":
        return cls((PowerTerm(value, 0.0, 0.0),))

    @classmethod
    def zero(cls) -> "PowerSum":
        return cls(())

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "PowerSum") -> "PowerSum":
        if not isinstance(other, PowerSum):
            return NotImplemented
        return PowerSum(self.terms + other.terms)

    def __sub__(self, other: "PowerSum") -> "PowerSum":
        return self + (-other)

    def __neg__(self) -> "PowerSum":
        return self * -1.0

    def __mul__(self, scalar: float) -> "PowerSum":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return PowerSum(tuple(
            PowerTerm(t.coef * scalar, t.left, t.right) for t in self.terms))

    __rmul__ = __mul__

    def drop_zeros(self) -> "PowerSum":
        return PowerSum(tuple(t for t in self.terms if t.coef != 0.0))

    def reflected(self) -> "PowerSum":
        """The mirror image ``x -> 1 - x``: each term's exponents swap."""
        return PowerSum(tuple(
            PowerTerm(t.coef, t.right, t.left) for t in self.terms))

    # -- queries -------------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for t in self.terms:
            val = t.coef
            if t.left != 0.0:
                val = val * x ** t.left
            if t.right != 0.0:
                val = val * (1.0 - x) ** t.right
            out += val
        return out


def _reanchor(ps: PowerSum, endpoint: str) -> PowerSum:
    """Rewrite every term as a pure power of ``x``.

    A term can change sides only when its ``(1 - x)`` exponent is a
    nonnegative integer (binomial expansion); otherwise a ``ValueError``
    naming ``endpoint``, the side the caller anchors to, is raised.
    """
    terms: list[PowerTerm] = []
    for t in ps.terms:
        if t.right == 0.0:
            terms.append(PowerTerm(t.coef, t.left, 0.0))
            continue
        q = _near_int(t.right)
        if q is None or q < 0:
            raise ValueError(
                f"a term whose exponent at the other endpoint is {t.right} "
                f"cannot be re-anchored to the {endpoint} endpoint")
        # (1-x)**q = sum_j C(q, j) (-x)**j
        for j in range(q + 1):
            c = t.coef * math.comb(q, j) * (-1) ** j
            terms.append(PowerTerm(c, t.left + j, 0.0))
    return PowerSum(tuple(terms)).drop_zeros()


# -- fractional derivatives of powers ----------------------------------


def left_rl_derivative_power(beta: float, xi: float) -> PowerSum:
    """Left-sided derivative of order ``beta`` of ``x**xi``.

    Returns ``Gamma(xi+1)/Gamma(xi+1-beta) * x**(xi - beta)`` as a
    :class:`PowerSum`, or the zero sum when the Gamma pole annihilates
    the term (e.g. ``xi = beta - 1``).
    """
    if xi <= -1.0:
        raise ValueError(f"exponent must exceed -1, got {xi!r}")
    d = xi + 1.0 - beta
    k = _near_int(d)
    if k is not None and k <= 0:
        return PowerSum.zero()
    fac = math.gamma(xi + 1.0) / math.gamma(d)
    return PowerSum((PowerTerm(fac, xi - beta, 0.0),))


def left_derivative(ps: PowerSum, beta: float) -> PowerSum:
    """Left-sided derivative of a power sum, term by term.

    Terms carrying a ``(1 - x)`` factor are first re-anchored to the left
    endpoint, which requires that factor's exponent to be an integer.
    """
    anchored = _reanchor(ps, "left")
    out = PowerSum.zero()
    for t in anchored.terms:
        out = out + t.coef * left_rl_derivative_power(beta, t.left)
    return out.drop_zeros()


def right_derivative(ps: PowerSum, beta: float) -> PowerSum:
    """Right-sided derivative of a power sum: the mirror image of the
    left-sided derivative of the sum's mirror image."""
    anchored = _reanchor(ps.reflected(), "right")
    return left_derivative(anchored, beta).reflected()


def singular_exponents(beta: float, theta: float) -> tuple[float, float]:
    """Exponents ``(gamma, beta - gamma)`` of the two-sided product ``w``
    whose image under ``theta*D_left + (1-theta)*D_right`` is a constant.

    ``gamma = beta/2 + atan((2 theta - 1) tan(pi beta/2))/pi``, with the
    ``1/pi`` written as ``(1 - beta/2)/atan(-tan(pi beta/2))`` and theta
    above 1/2 taken by reflection, so that theta = 1, 1/2 and 0 give
    exactly ``beta - 1``, ``beta/2`` and ``1``.
    """
    if theta > 0.5:
        right, left = singular_exponents(beta, 1.0 - theta)
        return left, right
    t = -math.tan(0.5 * math.pi * beta)
    gamma = 0.5 * beta + (1.0 - 0.5 * beta) * (math.atan((1.0 - 2.0 * theta) * t)
                                                / math.atan(t))
    return gamma, beta - gamma


def elliptic_rhs(u: PowerSum, alpha: float, beta: float, theta: float) -> PowerSum:
    """Right-hand side ``alpha*u - theta*D_left u - (1-theta)*D_right u``.

    Every closed form needed by the problem catalog is covered:

    * integer-exponent (polynomial) terms, any ``theta``;
    * one-sided fractional terms when only that side's derivative enters
      (``theta = 1`` or ``theta = 0``), or re-anchorable terms;
    * for ``0 < theta < 1``, the product ``x**gamma (1-x)**(beta-gamma)``
      with the exponents of :func:`singular_exponents`, whose image is
      the constant ``Gamma(beta+1) * hypot(cos(pi beta/2),
      (2 theta - 1) sin(pi beta/2))``.

    Raises ``ValueError`` when no closed form is available (for example a
    one-sided fractional power under ``theta`` strictly between 0 and 1).
    """
    rhs = alpha * u
    pending: list[PowerTerm] = []
    # at theta in {0, 1} the product is re-anchored instead, which keeps
    # the order of the rhs terms and so its rounding
    left = right = math.nan
    if 0.0 < theta < 1.0:
        left, right = singular_exponents(beta, theta)
    for t in u.drop_zeros().terms:
        if abs(t.left - left) <= POLE_TOL and abs(t.right - right) <= POLE_TOL:
            half = 0.5 * beta * math.pi
            const = math.gamma(beta + 1.0) * math.hypot(
                math.cos(half), (2.0 * theta - 1.0) * math.sin(half))
            rhs = rhs + PowerSum.constant(t.coef * const)
        else:
            pending.append(t)
    if pending:
        rest = PowerSum(tuple(pending))
        if theta > 0.0:
            rhs = rhs - theta * left_derivative(rest, beta)
        if theta < 1.0:
            rhs = rhs - (1.0 - theta) * right_derivative(rest, beta)
    return rhs.drop_zeros()
