"""Weight sequences for Grunwald-type fractional difference operators.

Three families are provided:

* ``grunwald_coeffs`` -- the power-series coefficients ``g_k`` of
  ``(1 - z)**beta``,
* ``wsgd_weights`` -- the second-order weighted-shifted combination
  ``w_k`` built from three shifted Grunwald stencils,
* ``centered_weights_half`` -- the coefficients ``w~_k``, ``k >= 0``, of
  the Fourier series of ``|2 sin(z/2)|**beta`` (the sequence is even).

All sequences obey simple one-term recursions, which are preferred over
per-index Gamma-function ratios for both speed and accuracy.  The cached
:func:`weight_table` holds what the grid operators read: the WSGD weights
and the nonnegative half of the centered ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _require_fractional_order(beta: float) -> None:
    if not (isinstance(beta, (int, float)) and math.isfinite(beta)):
        raise ValueError(f"order must be a finite real number, got {beta!r}")
    if not 1.0 < beta <= 2.0:
        raise ValueError(f"order must lie in (1, 2], got {beta!r}")


def grunwald_coeffs(beta: float, n: int) -> np.ndarray:
    """Coefficients ``g_0 .. g_n`` of the power series of ``(1 - z)**beta``.

    Uses the recursion ``g_{k+1} = (1 - (beta + 1)/(k + 1)) * g_k`` with
    ``g_0 = 1``.  Any finite positive ``beta`` is accepted so the routine
    can be reused outside the (1, 2] solver range.
    """
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta > 0):
        raise ValueError(f"order must be a finite positive number, got {beta!r}")
    if n < 0:
        raise ValueError("coefficient count must be nonnegative")
    g = np.empty(n + 1)
    g[0] = 1.0
    if n >= 1:
        g[1] = -beta  # the k=0 recursion step, taken exactly
    if n >= 2:
        k = np.arange(2, n + 1, dtype=float)
        g[2:] = -beta * np.cumprod(1.0 - (beta + 1.0) / k)
    return g


def wsgd_lambdas(beta: float) -> tuple[float, float, float]:
    """Blending coefficients ``(lambda_1, lambda_0, lambda_{-1})`` of the
    weighted shifted Grunwald formula.  They sum to 1 identically."""
    b2 = beta * beta
    return (
        (b2 + 3.0 * beta + 2.0) / 12.0,
        (4.0 - b2) / 6.0,
        (b2 - 3.0 * beta + 2.0) / 12.0,
    )


def wsgd_weights(beta: float, n: int) -> np.ndarray:
    """Second-order weights ``w_0 .. w_n``.

    ``w_0 = lam1*g_0``, ``w_1 = lam1*g_1 + lam0*g_0`` and
    ``w_k = lam1*g_k + lam0*g_{k-1} + lam_{-1}*g_{k-2}`` for ``k >= 2``.
    At ``beta = 2`` the sequence reduces to the classical second-difference
    stencil ``[1, -2, 1, 0, ...]``.
    """
    _require_fractional_order(beta)
    if n < 0:
        raise ValueError("weight count must be nonnegative")
    lam1, lam0, lam_neg1 = wsgd_lambdas(beta)
    g = grunwald_coeffs(beta, n)
    w = np.empty(n + 1)
    w[0] = lam1 * g[0]
    if n >= 1:
        w[1] = lam1 * g[1] + lam0 * g[0]
    if n >= 2:
        w[2:] = lam1 * g[2:] + lam0 * g[1:-1] + lam_neg1 * g[:-2]
    return w


def centered_weights_half(beta: float, n: int) -> np.ndarray:
    """Nonnegative-index half ``w~_0 .. w~_n`` of the centered weights.

    ``w~_0 = -Gamma(beta+1)/Gamma(beta/2+1)**2`` (no overflow for
    ``beta <= 2``); subsequent entries follow the recursion
    ``w~_k = (1 - (beta+1)/(beta/2+k)) * w~_{k-1}``.
    """
    _require_fractional_order(beta)
    if n < 0:
        raise ValueError("half-width must be nonnegative")
    w0 = -math.gamma(beta + 1.0) / math.gamma(0.5 * beta + 1.0) ** 2
    w = np.empty(n + 1)
    w[0] = w0
    if n >= 1:
        k = np.arange(1, n + 1, dtype=float)
        w[1:] = w0 * np.cumprod(1.0 - (beta + 1.0) / (0.5 * beta + k))
    return w


@dataclass(frozen=True)
class WeightTable:
    """The weights the grid operators read for one order.

    ``w`` holds the WSGD weights ``w_0 .. w_n`` and ``wc`` the centered
    half ``w~_0 .. w~_n`` (the sequence is even).  Arrays are read-only,
    as the cache of :func:`weight_table` hands one table to every caller.
    """

    w: np.ndarray
    wc: np.ndarray


@lru_cache(maxsize=64)
def weight_table(beta: float, n: int) -> WeightTable:
    """Build (or fetch from cache) the weight table for ``(beta, n)``."""
    w = wsgd_weights(beta, n)
    wc = centered_weights_half(beta, n)
    for arr in (w, wc):
        arr.setflags(write=False)
    return WeightTable(w=w, wc=wc)
