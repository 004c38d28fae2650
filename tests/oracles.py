"""Dense and naive reference implementations that the tests check the
fast operators and solvers against."""

import math

import numpy as np
import scipy.linalg
import scipy.special

from fracbvp.analytic import PowerSum
from fracbvp.grids import Grid, GridFunction
from fracbvp.operators import toeplitz_matvec
from fracbvp.correction import TwoGridCorrector
from fracbvp.solver import FracParams, SchemeKind, make_solver, scheme_toeplitz
from fracbvp.weights import centered_weights_half, wsgd_weights


def toeplitz_matvec_naive(first_column: np.ndarray, first_row: np.ndarray,
                          x: np.ndarray) -> np.ndarray:
    """Reference O(m**2) Toeplitz product with compensated summation.

    Each output entry is accumulated with ``math.fsum`` so the result can
    serve as an oracle for the FFT path even at large sizes.
    """
    col = np.asarray(first_column, dtype=float)
    row = np.asarray(first_row, dtype=float)
    x = np.asarray(x, dtype=float)
    m = len(col)
    if len(row) != m or len(x) != m:
        raise ValueError("first_column, first_row and x must share one length")
    if col[0] != row[0]:
        raise ValueError("first_column[0] and first_row[0] disagree")
    out = np.empty(m)
    for i in range(m):
        # entry (i, j) is col[i-j] for j <= i, row[j-i] for j > i
        parts = [col[i - j] * x[j] for j in range(i + 1)]
        parts += [row[j - i] * x[j] for j in range(i + 1, m)]
        out[i] = math.fsum(parts)
    return out


def centered_weights(beta: float, n: int) -> np.ndarray:
    """Symmetric centered weights ``w~_{-n} .. w~_n`` (length ``2n + 1``),
    the Fourier coefficients of ``|2 sin(z/2)|**beta``, mirrored from the
    nonnegative half the operators read."""
    if n < 1:
        raise ValueError("half-width must be at least 1")
    half = centered_weights_half(beta, n)
    return np.concatenate([half[:0:-1], half])


def strang_preconditioner(col: np.ndarray, row: np.ndarray, order: int) -> np.ndarray:
    """Dense ``R C^-1 E``, the leading ``m x m`` block of the inverse of the
    Strang circulant ``C`` of order ``N = order`` (``m`` or ``m + 1``) of a
    Toeplitz matrix with first column ``col`` and first row ``row``.

    ``C`` has first column ``c_k = t_k`` for ``k <= N/2`` and ``t_{k-N}``
    above, with ``t_k = col[k]`` and ``t_{-k} = row[k]``; ``E`` embeds
    ``m`` entries in ``N`` with zeros and ``R`` keeps the first ``m``.
    """
    m = len(col)
    t = {k: col[k] for k in range(m)} | {-k: row[k] for k in range(1, m)}
    c = [t[k] if k <= order // 2 else t[k - order] for k in range(order)]
    return np.linalg.inv(scipy.linalg.circulant(c))[:m, :m]


def left_wsgd_toeplitz(grid: Grid, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """First column and row of the left WSGD operator on interior unknowns,
    straight from the weights: entry ``(j, i)`` is ``h**-beta * w_{j-i+1}``
    for ``i <= j + 1`` and 0 above, so the row holds ``w_1, w_0`` only."""
    m = grid.M - 1
    w = wsgd_weights(beta, grid.M) * grid.h ** (-beta)
    row = np.zeros(m)
    row[:2] = (w[1], w[0])[:m]
    return w[1:m + 1], row


def left_wsgd_matrix(grid: Grid, beta: float) -> np.ndarray:
    """Dense left WSGD operator on interior unknowns, ``(M-1) x (M-1)``."""
    return scipy.linalg.toeplitz(*left_wsgd_toeplitz(grid, beta))


def right_wsgd_matrix(grid: Grid, beta: float) -> np.ndarray:
    """Dense right WSGD operator; the transpose of the left one."""
    return left_wsgd_matrix(grid, beta).T


def fcd_matrix(grid: Grid, beta: float) -> np.ndarray:
    """Dense centered operator on interior unknowns: entry ``(j, i)`` is
    ``h**-beta * w~_{|j-i|}`` (symmetric Toeplitz)."""
    wc = centered_weights_half(beta, grid.M) * grid.h ** (-beta)
    return scipy.linalg.toeplitz(wc[:grid.M - 1])


def assemble(params: FracParams, grid: Grid, scheme: SchemeKind,
             frac_scale: float = 1.0) -> np.ndarray:
    """Dense interior system matrix, ``(M-1) x (M-1)``."""
    return scipy.linalg.toeplitz(*scheme_toeplitz(params, grid, scheme, frac_scale))


def apply_left_wsgd(v: GridFunction, beta: float) -> GridFunction:
    """Left WSGD operator applied at interior nodes, zeros on the boundary.

    The stencil at ``j = M-1`` reaches the node ``x_M`` with weight
    ``w_0``; that contribution is included so the formula holds for any
    boundary values.
    """
    grid = v.grid
    col, row = left_wsgd_toeplitz(grid, beta)
    y = toeplitz_matvec(col, row, v.values[1:-1])
    y[-1] += wsgd_weights(beta, 0)[0] * grid.h ** (-beta) * v.values[-1]
    return GridFunction.from_interior(grid, y)


def apply_right_wsgd(v: GridFunction, beta: float) -> GridFunction:
    """Right WSGD operator; mirror image of :func:`apply_left_wsgd`."""
    grid = v.grid
    col, row = left_wsgd_toeplitz(grid, beta)
    y = toeplitz_matvec(row, col, v.values[1:-1])  # transpose product
    y[0] += wsgd_weights(beta, 0)[0] * grid.h ** (-beta) * v.values[0]
    return GridFunction.from_interior(grid, y)


def apply_fcd(v: GridFunction, beta: float) -> GridFunction:
    """Centered fractional difference operator at interior nodes."""
    grid = v.grid
    scale = grid.h ** (-beta)
    wc = centered_weights_half(beta, grid.M)
    col = wc[:grid.M - 1] * scale
    y = toeplitz_matvec(col, col, v.values[1:-1])
    j = np.arange(1, grid.M)
    # the boundary weights are w~_j and w~_{j-M}, which equals w~_{M-j}
    y += scale * (wc[j] * v.values[0] + wc[grid.M - j] * v.values[-1])
    return GridFunction.from_interior(grid, y)


def cn_march(problem, M: int, steps: int, corrected: bool = False) -> np.ndarray:
    """Crank-Nicolson march from rest one checked solve at a time, ``steps``
    steps of ``tau = problem.final_time / steps``: interior values at the
    final time on grid M (the corrected coarse field when corrected).

    Every step is ``u <- 2 A^-1 (u + (tau/2) f) - u`` through
    ``ToeplitzSolver.solve`` on the direct path ``make_solver`` gives the
    march, followed by ``TwoGridCorrector.correct`` when corrected.  It
    holds the full matrix ``A = I - (tau/2) D`` on purpose: the march
    holds ``A/2`` and takes ``u <- (A/2)^-1 b - u``, so this oracle checks
    independently that the half system gives the same march bit for bit.
    """
    tau = problem.final_time / steps
    half_tau = 0.5 * tau
    grids = [Grid(M)]
    if corrected:
        grids.append(grids[0].refined())
    stepping = FracParams(1.0, problem.params.beta, problem.params.theta)
    solvers = [make_solver(stepping, grid, SchemeKind.WSGD, half_tau, direct=True)
               for grid in grids]
    nodes = [grid.interior_nodes() for grid in grids]
    u = [np.zeros(len(x)) for x in nodes]
    if corrected:
        sing = problem.singular
        fs_tau = ((1.0 - half_tau * problem.params.alpha) * sing.us
                  + half_tau * sing.fs)
        corrector = TwoGridCorrector.build(solvers, nodes, sing.us, fs_tau)
    for n in range(1, steps + 1):
        t = (n - 0.5) * tau
        u = [2.0 * s.solve(v + half_tau * problem.rhs(x, t)) - v
             for s, x, v in zip(solvers, nodes, u)]
        if corrected:
            u = list(corrector.correct(*u)[:2])
    return u[0]


def left_derivative_series(p: float, q: float, beta: float, x: np.ndarray,
                           terms: int = 400) -> np.ndarray:
    """Left-sided derivative of order ``beta`` of ``x**p (1-x)**q`` on [0, 1]
    at ``0 < x < 1``, term by term in the binomial series
    ``(1-x)**q = sum_k C(q, k) (-x)**k``, summed with ``math.fsum``.

    Independent of :mod:`fracbvp.analytic`: no closed form, no reflection
    of power sums.  The series converges geometrically away from x = 1.
    """
    out = []
    for xv in np.asarray(x, dtype=float):
        parts, binom = [], 1.0  # binom = C(q, k) (-1)**k
        for k in range(terms):
            e = p + k
            # D**beta x**e = Gamma(e+1)/Gamma(e+1-beta) x**(e-beta)
            parts.append(binom * scipy.special.poch(e + 1.0 - beta, beta)
                         * xv ** (e - beta))
            binom *= (k - q) / (k + 1)
        out.append(math.fsum(parts))
    return np.array(out)


def two_sided_derivative_series(p: float, q: float, beta: float, theta: float,
                                x: np.ndarray) -> np.ndarray:
    """``theta D_left**beta w + (1-theta) D_right**beta w`` for
    ``w = x**p (1-x)**q`` on [0, 1]; the right-sided part is the left-sided
    derivative of the mirror image ``x**q (1-x)**p`` at ``1 - x``."""
    x = np.asarray(x, dtype=float)
    return (theta * left_derivative_series(p, q, beta, x)
            + (1.0 - theta) * left_derivative_series(q, p, beta, 1.0 - x))


def exact_series(alpha: float, beta: float, f_pairs, terms: int = 60) -> PowerSum:
    """Exact solution of ``alpha*u - D_left**beta u = f`` (theta = 1) with
    ``u(0) = u(1) = 0`` and ``f = sum c x**p`` over the ``(c, p)`` pairs,
    truncated to ``terms`` terms per series (Kilbas, Srivastava & Trujillo,
    *Theory and Applications of Fractional Differential Equations*, 2006,
    ch. 4: Mittag-Leffler solutions of Riemann-Liouville equations).

    ``v = sum_{k>=0} alpha**k x**((k+1)beta-1) / Gamma((k+1)beta)`` solves
    the homogeneous equation, ``u_p = -sum_{k>=1} alpha**(k-1) I**(k beta) f``
    with ``I**mu x**p = Gamma(p+1)/Gamma(p+1+mu) x**(p+mu)`` solves it with
    ``f``, and ``u = c v + u_p`` with ``c = -u_p(1)/v(1)`` meets ``u(1) = 0``.
    Independent of the schemes: it is a sum of one-sided powers, so
    :func:`fracbvp.analytic.elliptic_rhs` checks it exactly.
    """
    v = PowerSum.left_anchored(
        (alpha ** k / math.gamma((k + 1) * beta), (k + 1) * beta - 1.0)
        for k in range(terms))
    u_p = PowerSum.left_anchored(
        (-alpha ** (k - 1) * c * math.gamma(p + 1.0) / math.gamma(p + 1.0 + k * beta),
         p + k * beta)
        for k in range(1, terms + 1) for c, p in f_pairs)
    return ((-float(u_p(1.0)) / float(v(1.0))) * v + u_p).drop_zeros()
