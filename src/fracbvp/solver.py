"""Assembly and solution of the stationary WSGD and FCD schemes.

The interior system for ``alpha*u - theta*D_left u - (1-theta)*D_right u = f``
with zero Dirichlet data is Toeplitz:

* WSGD:  ``A = alpha*I - theta*S - (1-theta)*S.T``  with ``S`` the left
  operator matrix,
* FCD:   ``A = alpha*I + cos(beta*pi/2) * C``       with ``C`` the centered
  operator matrix (requires ``theta = 1/2``).

:func:`make_solver` picks the solve path from the grid size: directly up
to ``DENSE_LIMIT`` intervals (and wherever the Strang circulant is
singular), matrix-free by restarted GMRES with a Strang circulant
preconditioner beyond.
The direct solve never forms the matrix: one Levinson call gives the
first and last columns of ``A^-1``, and the Gohberg-Semencul formula
(Gohberg & Semencul 1972)

    A^-1 = (1/x_0) [L(x) U(J y) - L(Z y) U(Z J x)],

with ``x = A^-1 e_1``, ``y = A^-1 e_m``, ``L``/``U`` lower/upper
triangular Toeplitz, ``J`` the reversal and ``Z`` the down shift, applies
it with FFTs in O(M log M) per right-hand side.  Both paths accept a
solution on one rule, a normwise backward error (Rigal & Gaches 1967;
Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 7) in the
infinity norm:

    ||A x - b|| <= BACKWARD_ERROR_BOUND * (||A|| ||x|| + ||b||).

The bound sits above what FFT rounding reaches for every system size, so
the same rule holds at M = 16 and at M = 65536.  The Gohberg-Semencul
product alone can miss it on systems near beta = 1 (up to about 1e6 eps
at beta = 1.001, theta in {0, 1}); a direct solve that misses is refined
on its own residual, ``x <- x - A^-1 (A x - b)``; one step brought every
system measured below 2 eps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .grids import Grid, GridFunction
from .operators import (embedding_size, embedding_spectrum, fcd_toeplitz,
                        left_wsgd_toeplitz)

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import ProblemSpec

#: Largest interval count that :func:`make_solver` solves directly.
DENSE_LIMIT = 4096

#: Largest normwise backward error accepted from any solve (1024 eps).
BACKWARD_ERROR_BOUND = 2.0 ** -42

#: Default cap on the inner GMRES iterations of one solve.
DEFAULT_MAXITER = 2000
_GMRES_RESTART = 60

#: Cap on the refinement steps of one direct solve.
_MAX_REFINEMENTS = 3


class SchemeKind(enum.Enum):
    WSGD = "wsgd"
    FCD = "fcd"


@dataclass(frozen=True)
class FracParams:
    """Problem parameters: reaction alpha >= 0, order beta in (1,2],
    derivative weight theta in [0,1]."""

    alpha: float
    beta: float
    theta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha!r}")
        if not (math.isfinite(self.beta) and 1.0 < self.beta <= 2.0):
            raise ValueError(f"beta must lie in (1, 2], got {self.beta!r}")
        if not (math.isfinite(self.theta) and 0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0, 1], got {self.theta!r}")


class SolverError(RuntimeError):
    """Linear solve failed or produced an untrustworthy solution."""


class KrylovError(SolverError):
    """GMRES did not reach the backward-error bound within the iteration cap."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _check_scheme(params: FracParams, scheme: SchemeKind) -> None:
    if scheme is SchemeKind.FCD and abs(params.theta - 0.5) > 1e-14:
        raise ValueError(f"FCD scheme requires theta = 1/2, got theta={params.theta}")


def scheme_toeplitz(params: FracParams, grid: Grid, scheme: SchemeKind,
                    frac_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """First column and row of the interior system matrix.

    ``frac_scale`` multiplies the fractional part only, giving
    ``alpha*I - frac_scale * (theta*S + (1-theta)*S.T)``; time steppers use
    it to build ``I -+ (tau/2) * D`` operators from the same machinery.
    """
    _check_scheme(params, scheme)
    m = grid.M - 1
    if scheme is SchemeKind.FCD:
        ccol, _ = fcd_toeplitz(grid, params.beta)
        coeff = frac_scale * math.cos(0.5 * params.beta * math.pi)
        col = coeff * ccol
        col[0] += params.alpha
        return col, col.copy()
    scol, srow = left_wsgd_toeplitz(grid, params.beta)
    th = params.theta
    col = -frac_scale * (th * scol + (1.0 - th) * srow)
    row = -frac_scale * (th * srow + (1.0 - th) * scol)
    col[0] += params.alpha
    row[0] = col[0]
    return col, row


# -- Toeplitz linear solver ---------------------------------------------


def strang_circulant_eigenvalues(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Half spectrum (rfft; the rest are conjugates) of the Strang circulant
    built from a real Toeplitz matrix.

    The circulant copies the central diagonals: ``c_k = t_k`` for
    ``k <= m/2`` and ``c_k = t_{k-m}`` for ``k > m/2``.
    """
    m = len(col)
    s = np.zeros(m)
    half = m // 2
    s[:half + 1] = col[:half + 1]
    k = np.arange(half + 1, m)
    s[k] = row[m - k]
    return np.fft.rfft(s)


class ToeplitzSolver:
    """Repeated solves against one fixed Toeplitz system.

    ``method`` is ``'dense'`` (direct: the Gohberg-Semencul generators of
    ``A^-1`` from one Levinson call, held for reuse, with up to
    ``_MAX_REFINEMENTS`` refinement steps per solve) or ``'krylov'``
    (matrix-free preconditioned GMRES, capped at ``maxiter`` inner
    iterations).  Every solve must meet ``BACKWARD_ERROR_BOUND``; the last
    solve's GMRES iteration count is kept in ``last_iterations``.

    The direct path needs every leading principal minor of ``A`` to be
    nonsingular (Levinson's recursion runs through them) and raises
    :class:`SolverError` when one is singular.  Every scheme matrix here
    qualifies: WSGD with theta in {0, 1} gives an M-matrix, theta = 1/2
    and FCD a symmetric positive definite one.
    """

    def __init__(self, col: np.ndarray, row: np.ndarray, method: str = "dense",
                 maxiter: int = DEFAULT_MAXITER):
        self.col = np.asarray(col, dtype=float)
        self.row = np.asarray(row, dtype=float)
        self.m = len(self.col)
        self.method = method
        self.maxiter = maxiter
        self.last_iterations = 0
        # row i of a Toeplitz matrix sums col[0..i] and row[1..m-1-i]
        lower = np.cumsum(np.abs(self.col))
        upper = np.concatenate(([0.0], np.cumsum(np.abs(self.row[1:]))))
        self.norm_inf = float(np.max(lower + upper[::-1]))
        self._L = embedding_size(self.m)
        self._spectrum = embedding_spectrum(self.col, self.row)
        if method == "dense":
            self._setup_direct()
        elif method == "krylov":
            lam = strang_circulant_eigenvalues(self.col, self.row)
            if np.min(np.abs(lam)) == 0.0:
                raise SolverError("Strang preconditioner is singular")
            self._lam = lam
        else:
            raise ValueError(f"unknown method {method!r}")

    def _setup_direct(self) -> None:
        m, L = self.m, self._L
        ends = np.zeros((m, 2))
        ends[0, 0] = ends[-1, 1] = 1.0
        # symmetric A: A^-1 is persymmetric too, A^-1 e_m = J A^-1 e_1
        symmetric = np.array_equal(self.col, self.row)
        try:
            xy = scipy.linalg.solve_toeplitz((self.col, self.row),
                                             ends[:, :1] if symmetric else ends)
        except np.linalg.LinAlgError as err:
            raise SolverError(f"direct Toeplitz solve impossible: {err}") from err
        x, y = xy[:, 0], xy[::-1, 0] if symmetric else xy[:, 1]
        if x[0] == 0.0 or not np.all(np.isfinite(xy)):
            raise SolverError("direct Toeplitz solve impossible: (A^-1)_00 is 0 "
                              "or the end columns of A^-1 are not finite")
        shift_y = np.concatenate(([0.0], y[:-1]))
        shift_rev_x = np.concatenate(([0.0], x[:0:-1]))
        # (U(v) b)_i = sum_j v_j b_{i+j} is a correlation: with zero
        # padding to L >= 2m - 1 it is irfft(conj(rfft(v)) * rfft(b))[:m]
        self._upper = np.conj(np.fft.rfft(np.stack([y[::-1], shift_rev_x]), n=L))
        self._lower = np.fft.rfft(np.stack([x, shift_y]), n=L) / x[0]

    def _apply_inverse(self, b: np.ndarray) -> np.ndarray:
        """Gohberg-Semencul product ``A^-1 b`` (direct path only)."""
        m, L = self.m, self._L
        u = np.fft.irfft(self._upper * np.fft.rfft(b, n=L), n=L)
        z = np.fft.rfft(u[:, :m], n=L) * self._lower
        return np.fft.irfft(z[0] - z[1], n=L)[:m]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        L = self._L
        return np.fft.irfft(self._spectrum * np.fft.rfft(x, n=L), n=L)[:self.m]

    def _precondition(self, x: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(x) / self._lam, n=self.m)

    def backward_error(self, x: np.ndarray, rhs: np.ndarray) -> float:
        """Normwise backward error ``||Ax - b|| / (||A|| ||x|| + ||b||)``
        of ``x``, in the infinity norm."""
        return self._backward_error(self.matvec(x) - rhs, x, rhs)

    def _backward_error(self, residual: np.ndarray, x: np.ndarray,
                        rhs: np.ndarray) -> float:
        res = float(np.abs(residual).max())
        if res == 0.0:
            return 0.0
        return res / (self.norm_inf * float(np.abs(x).max())
                      + float(np.abs(rhs).max()))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.method == "krylov":
            return self._solve_krylov(np.asarray(rhs, dtype=float))
        return self._solve_direct(np.asarray_chkfinite(rhs, dtype=float))

    def _solve_direct(self, rhs: np.ndarray) -> np.ndarray:
        self.last_iterations = 0
        x = self._apply_inverse(rhs)
        residual = self.matvec(x) - rhs
        refinements = 0
        while not ((eta := self._backward_error(residual, x, rhs))
                   <= BACKWARD_ERROR_BOUND):
            if refinements == _MAX_REFINEMENTS:
                raise SolverError(
                    f"direct solve backward error {eta:.3e} exceeds the bound "
                    f"{BACKWARD_ERROR_BOUND:.3e} after {refinements} refinements")
            x = x - self._apply_inverse(residual)
            residual = self.matvec(x) - rhs
            refinements += 1
        return x

    def _solve_krylov(self, rhs: np.ndarray) -> np.ndarray:
        # One restart cycle per gmres call, so that the backward error of
        # the true residual is the stopping test.  scipy's inner test is on
        # the preconditioned residual, which can stop short of the true
        # one: a cycle that misses tightens the inner target by the miss.
        # The start, the circulant solve P b, gives the first target the
        # scale of x.
        m = self.m
        A = scipy.sparse.linalg.LinearOperator((m, m), matvec=self.matvec)
        P = scipy.sparse.linalg.LinearOperator((m, m), matvec=self._precondition)
        self.last_iterations = 0

        def _count(_):
            self.last_iterations += 1

        x = self._precondition(rhs)
        fnorm = float(np.max(np.abs(rhs)))
        eta = self.backward_error(x, rhs)
        scale = 1.0
        while not eta <= BACKWARD_ERROR_BOUND:
            if self.last_iterations >= self.maxiter:
                raise KrylovError(
                    f"GMRES stopped after {self.last_iterations} iterations at "
                    f"backward error {eta:.3e} (bound {BACKWARD_ERROR_BOUND:.3e})",
                    residual=float(np.max(np.abs(self.matvec(x) - rhs))),
                    iterations=self.last_iterations)
            target = BACKWARD_ERROR_BOUND * (
                self.norm_inf * float(np.max(np.abs(x))) + fnorm)
            x, _ = scipy.sparse.linalg.gmres(
                A, rhs, x0=x, rtol=0.0, atol=scale * target,
                restart=min(_GMRES_RESTART, self.maxiter - self.last_iterations),
                maxiter=1, M=P, callback=_count, callback_type="pr_norm")
            eta = self.backward_error(x, rhs)
            scale *= 0.5 * BACKWARD_ERROR_BOUND / eta
        return x


def make_solver(params: FracParams, grid: Grid, scheme: SchemeKind,
                frac_scale: float = 1.0) -> ToeplitzSolver:
    """Solver of the interior scheme system on ``grid``.

    The direct solve up to ``DENSE_LIMIT`` intervals and GMRES beyond,
    unless the Strang preconditioner is singular (beta = 2, alpha = 0),
    where the direct solve serves all sizes.
    """
    col, row = scheme_toeplitz(params, grid, scheme, frac_scale)
    if grid.M > DENSE_LIMIT:
        try:
            return ToeplitzSolver(col, row, method="krylov")
        except SolverError:  # the Strang preconditioner is singular
            pass
    return ToeplitzSolver(col, row, method="dense")


def solve_bvp(problem: "ProblemSpec", M: int, scheme: SchemeKind) -> GridFunction:
    """Solve a stationary boundary-value problem on M intervals.

    Returns the grid function with zero boundary entries, solved on the
    path :func:`make_solver` picks for M.
    """
    if M < 4:
        raise ValueError(f"need at least 4 intervals, got M={M}")
    a, b = problem.domain
    grid = Grid(a, b, M)
    f_int = np.asarray(problem.rhs(grid.interior_nodes()), dtype=float)
    u_int = make_solver(problem.params, grid, scheme).solve(f_int)
    return GridFunction.from_interior(grid, u_int)
