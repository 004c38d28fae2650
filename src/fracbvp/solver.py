"""Assembly and solution of the stationary WSGD and FCD schemes.

The interior system for ``alpha*u - theta*D_left u - (1-theta)*D_right u = f``
with zero Dirichlet data is Toeplitz:

* WSGD:  ``A = alpha*I - theta*S - (1-theta)*S.T``  with ``S`` the left
  operator matrix,
* FCD:   ``A = alpha*I + cos(beta*pi/2) * C``       with ``C`` the centered
  operator matrix (requires ``theta = 1/2``).

Systems are solved either by dense LU (default up to ``DENSE_LIMIT``) or
matrix-free by restarted GMRES with a Strang circulant preconditioner.
Both paths accept a solution on one rule, a normwise backward error
(Rigal & Gaches 1967; Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 7) in the infinity norm:

    ||A x - b|| <= BACKWARD_ERROR_BOUND * (||A|| ||x|| + ||b||).

The bound sits above what LU and FFT rounding reach for every system
size, so the same rule holds at M = 16 and at M = 65536.
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
from .operators import fcd_toeplitz, left_wsgd_toeplitz, toeplitz_matvec
from .weights import WeightTable, weight_table

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import ProblemSpec

#: Largest interval count solved with a dense factorization by default.
DENSE_LIMIT = 4096

#: Largest normwise backward error accepted from any solve (1024 eps).
BACKWARD_ERROR_BOUND = 2.0 ** -42

#: Default cap on the inner GMRES iterations of one solve.
DEFAULT_MAXITER = 2000
_GMRES_RESTART = 60


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
                    frac_scale: float = 1.0,
                    table: WeightTable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """First column and row of the interior system matrix.

    ``frac_scale`` multiplies the fractional part only, giving
    ``alpha*I - frac_scale * (theta*S + (1-theta)*S.T)``; time steppers use
    it to build ``I -+ (tau/2) * D`` operators from the same machinery.
    """
    _check_scheme(params, scheme)
    m = grid.M - 1
    if scheme is SchemeKind.FCD:
        ccol, _ = fcd_toeplitz(grid, params.beta, table)
        coeff = frac_scale * math.cos(0.5 * params.beta * math.pi)
        col = coeff * ccol
        col[0] += params.alpha
        return col, col.copy()
    scol, srow = left_wsgd_toeplitz(grid, params.beta, table)
    th = params.theta
    col = -frac_scale * (th * scol + (1.0 - th) * srow)
    row = -frac_scale * (th * srow + (1.0 - th) * scol)
    col[0] += params.alpha
    row[0] = col[0]
    return col, row


def assemble(params: FracParams, grid: Grid, scheme: SchemeKind,
             frac_scale: float = 1.0) -> np.ndarray:
    """Dense interior system matrix, ``(M-1) x (M-1)``."""
    col, row = scheme_toeplitz(params, grid, scheme, frac_scale)
    return scipy.linalg.toeplitz(col, row)


# -- Toeplitz linear solver ---------------------------------------------


def strang_circulant_eigenvalues(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Eigenvalues (FFT) of the Strang circulant built from a Toeplitz matrix.

    The circulant copies the central diagonals: ``c_k = t_k`` for
    ``k <= m/2`` and ``c_k = t_{k-m}`` for ``k > m/2``.
    """
    m = len(col)
    s = np.zeros(m)
    half = m // 2
    s[:half + 1] = col[:half + 1]
    k = np.arange(half + 1, m)
    s[k] = row[m - k]
    return np.fft.fft(s)


class ToeplitzSolver:
    """Repeated solves against one fixed Toeplitz system.

    ``method`` is ``'dense'`` (LU factorization, held for reuse) or
    ``'krylov'`` (matrix-free preconditioned GMRES, capped at ``maxiter``
    inner iterations).  Every solve must meet ``BACKWARD_ERROR_BOUND``;
    the last solve's iteration count is kept in ``last_iterations``.
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
        if method == "dense":
            self._lu = scipy.linalg.lu_factor(scipy.linalg.toeplitz(self.col, self.row))
        elif method == "krylov":
            lam = strang_circulant_eigenvalues(self.col, self.row)
            if np.min(np.abs(lam)) == 0.0:
                raise SolverError("Strang preconditioner is singular")
            self._lam = lam
        else:
            raise ValueError(f"unknown method {method!r}")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return toeplitz_matvec(self.col, self.row, x)

    def _precondition(self, x: np.ndarray) -> np.ndarray:
        return np.real(np.fft.ifft(np.fft.fft(x) / self._lam))

    def backward_error(self, x: np.ndarray, rhs: np.ndarray) -> float:
        """Normwise backward error ``||Ax - b|| / (||A|| ||x|| + ||b||)``
        of ``x``, in the infinity norm."""
        res = float(np.max(np.abs(self.matvec(x) - rhs)))
        if res == 0.0:
            return 0.0
        return res / (self.norm_inf * float(np.max(np.abs(x)))
                      + float(np.max(np.abs(rhs))))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if self.method == "krylov":
            return self._solve_krylov(rhs)
        x = scipy.linalg.lu_solve(self._lu, rhs)
        self.last_iterations = 0
        eta = self.backward_error(x, rhs)
        if not eta <= BACKWARD_ERROR_BOUND:
            raise SolverError(f"dense solve backward error {eta:.3e} exceeds "
                              f"the bound {BACKWARD_ERROR_BOUND:.3e}")
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


def solve_system(params: FracParams, grid: Grid, scheme: SchemeKind,
                 rhs_interior: np.ndarray, method: str = "auto",
                 frac_scale: float = 1.0) -> np.ndarray:
    """Solve the interior scheme system for one right-hand side."""
    return make_solver(params, grid, scheme, method, frac_scale).solve(rhs_interior)


def make_solver(params: FracParams, grid: Grid, scheme: SchemeKind,
                method: str = "auto", frac_scale: float = 1.0) -> ToeplitzSolver:
    method = resolve_method(method, grid.M)
    col, row = scheme_toeplitz(params, grid, scheme, frac_scale)
    return ToeplitzSolver(col, row, method=method)


def resolve_method(method: str, M: int) -> str:
    """Map a user-facing method name to 'dense' or 'krylov'."""
    if method in ("auto", None):
        return "dense" if M <= DENSE_LIMIT else "krylov"
    if method in ("dense", "dense-lu", "lu"):
        return "dense"
    if method == "krylov":
        return "krylov"
    raise ValueError(f"unknown solve method {method!r}")


def solve_bvp(problem: "ProblemSpec", M: int, scheme: SchemeKind,
              method: str = "auto") -> GridFunction:
    """Solve a stationary boundary-value problem on M intervals.

    Returns the grid function with zero boundary entries.  The dense and
    Krylov paths meet the same backward-error bound; ``method='auto'``
    picks dense LU for ``M <= DENSE_LIMIT`` and GMRES beyond.
    """
    if M < 4:
        raise ValueError(f"need at least 4 intervals, got M={M}")
    a, b = problem.domain
    grid = Grid(a, b, M)
    f_int = np.asarray(problem.rhs(grid.interior_nodes()), dtype=float)
    u_int = solve_system(problem.params, grid, scheme, f_int, method=method)
    return GridFunction.from_interior(grid, u_int)
