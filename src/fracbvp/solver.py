"""Assembly and solution of the stationary WSGD and FCD schemes.

The interior system for ``alpha*u - theta*D_left u - (1-theta)*D_right u = f``
with zero Dirichlet data is Toeplitz:

* WSGD:  ``A = alpha*I - theta*S - (1-theta)*S.T``  with ``S`` the left
  operator matrix,
* FCD:   ``A = alpha*I + cos(beta*pi/2) * C``       with ``C`` the centered
  operator matrix (requires ``theta = 1/2``).

A :class:`ToeplitzSolver` takes one of the three solve paths of
``PATHS``, named by what it holds: ``'gmres'`` holds no inverse and runs
matrix-free restarted GMRES with a Strang circulant preconditioner,
``'explicit'`` holds ``A^-1`` as a dense matrix, and
``'gohberg-semencul'`` holds the generators of ``A^-1``.
:func:`make_solver` picks the path by the caller's role.  A stationary
solve, one or two per grid, runs GMRES.  A Crank-Nicolson march, which
solves one matrix at every step, asks for a direct path: the explicit
inverse on a coarse grid, the Gohberg-Semencul generators on a finer
one.  Neither factors the matrix: two GMRES solves (one when ``A`` is
symmetric) give the first and last columns of ``A^-1``, and the
Gohberg-Semencul formula (Gohberg & Semencul 1972)

    A^-1 = (1/x_0) [L(x) U(J y) - L(Z y) U(Z J x)],

with ``x = A^-1 e_1``, ``y = A^-1 e_m``, ``L``/``U`` lower/upper
triangular Toeplitz, ``J`` the reversal and ``Z`` the down shift, applies
it with FFTs in O(M log M) per right-hand side.  The explicit inverse is
the same formula summed into a dense matrix (Trench 1964) and applied by
one matrix-vector product.  Every path accepts a solution on one rule, a
normwise backward error (Rigal & Gaches 1967; Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 7) in the infinity norm:

    ||A x - b|| <= BACKWARD_ERROR_BOUND * (||A|| ||x|| + ||b||),

computed by :meth:`ToeplitzSolver.backward_error` for one solution or
for a block of them, one per row: each GMRES restart cycle of a solve,
on every path, and each block of a Crank-Nicolson march
(:mod:`fracbvp.timestepper`) are accepted through it.

The bound sits above what FFT rounding reaches for every system size, so
the same rule holds at M = 16 and at M = 65536.  The Gohberg-Semencul
product alone, explicit or not, can miss it on systems near beta = 1 (up
to 1e5 eps at beta = 1.001, alpha = 0, theta in {0, 1}).  So every solve
is one restarted GMRES loop, right-preconditioned by the best inverse the
path holds: the Strang circulant, or on the direct path ``A^-1`` itself.
GMRES so preconditioned is an iterative refinement (Carson & Higham
2017): a product that meets the bound is returned after one residual, and
one iteration brought every system measured below it.

The Strang circulant ``C`` copies the central diagonals of ``A`` (Chan &
Ng 1996; Lei & Sun 2013).  On ``M = 2**k`` intervals, the grids of a
reference and the default study grids, its order is ``N = M``, one more
than the ``m = M - 1`` unknowns, so that its FFTs run at a power of two
rather than at ``m`` (prime for ``M = 8192``).  The preconditioner is then
``C^-1 [x; 0]`` cut to ``m`` entries: the leading ``m x m`` block of
``C^-1``.  By the Schur complement that block is the inverse of ``C``'s
own ``m x m`` section less a rank-one term, so the preconditioned
spectrum keeps its cluster.  Any other ``m`` keeps ``N = m``
(:func:`strang_order`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grids import Grid, GridFunction
from .operators import (embedding_size, embedding_spectrum, fcd_toeplitz,
                        left_wsgd_toeplitz)

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import ProblemSpec

#: The solve paths of :class:`ToeplitzSolver`, named by what each holds.
PATHS = ("gmres", "explicit", "gohberg-semencul")

#: Largest interval count at which the direct path holds the explicit
#: inverse: a solve costs 20-41 us up to M = 256 against 53-88 us for the
#: Gohberg-Semencul product, but 218-268 us against 95-153 us at M = 512
#: (BENCH_14.json, written by scripts/solver_costs.py: one BLAS thread,
#: WSGD, beta in {1.1, 1.5, 1.8}).
EXPLICIT_LIMIT = 256

#: Largest normwise backward error accepted from any solve (1024 eps).
BACKWARD_ERROR_BOUND = 2.0 ** -42

#: Cap on the inner GMRES iterations of one solve.
MAXITER = 2000
_GMRES_RESTART = 60

#: Where a GMRES cycle stops, as a share of the backward-error scale; a
#: stop at the bound moved level-15 reference rows by up to 1.3e-5.
_CYCLE_GOAL = 2.0 ** -51

#: Most values one block product transforms at once: a larger batch's
#: temporaries (2 MB for 32 rows at M = 2048) fall out of cache and are
#: handed back to the system between blocks, so that each block faults
#: their pages in again; the Crank-Nicolson march then lost at M = 2048
#: what the batch gains at M = 512.
_BATCH_VALUES = 2 ** 15


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
    """GMRES, on any solve path, did not meet the bound in ``MAXITER``
    iterations: ``backward_error`` is the last iterate's, which the scale
    of the right-hand side leaves unchanged."""

    def __init__(self, message: str, backward_error: float, iterations: int):
        super().__init__(message)
        self.backward_error = backward_error
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


def strang_order(m: int) -> int:
    """Order ``N`` of the Strang circulant of an ``m x m`` Toeplitz matrix:
    ``m + 1`` when that is a power of two of at least 4 (the interior
    system of ``M = 2**k`` intervals), so that its FFTs run at a power of
    two, and ``m`` otherwise."""
    return m + 1 if m >= 3 and m & (m + 1) == 0 else m


def strang_circulant_eigenvalues(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Half spectrum (rfft; the rest are conjugates) of the Strang circulant
    built from a real Toeplitz matrix.

    The circulant of order ``N = strang_order(m)`` copies the central
    diagonals: ``c_k = t_k`` for ``k <= N/2`` and ``c_k = t_{k-N}`` for
    ``k > N/2``, all of them diagonals of the ``m x m`` matrix.
    """
    n = strang_order(len(col))
    s = np.empty(n)
    half = n // 2
    s[:half + 1] = col[:half + 1]
    s[half + 1:] = row[n - half - 1:0:-1]
    return np.fft.rfft(s)


class ToeplitzSolver:
    """Repeated solves against one fixed Toeplitz system.

    ``path`` is one of ``PATHS``.  ``'gmres'`` (the default) is
    matrix-free and holds no inverse.  The two direct paths compute the
    Gohberg-Semencul generators of ``A^-1`` by GMRES at set-up:
    ``'gohberg-semencul'`` holds them for reuse, and ``'explicit'`` sums
    them into ``A^-1`` and also holds ``A``, both dense, so that a product
    with either is one matrix-vector product.  Every solve is one GMRES
    loop, capped at ``MAXITER`` iterations, that must meet
    ``BACKWARD_ERROR_BOUND``; the paths differ only in its preconditioner,
    ``A^-1`` on a direct path and the Strang circulant on ``'gmres'``.
    The last solve's GMRES iteration count is kept in ``last_iterations``.

    A caller that makes many solves on a direct path can take them
    apart: :meth:`apply_inverse` gives ``A^-1 b`` without a check, and
    :meth:`backward_error` checks a block of such solutions, one per
    row, with one product (a matrix-matrix product on the explicit
    representation, a row-batched FFT product otherwise).  A solution
    that misses the bound goes back through :meth:`solve`.
    """

    def __init__(self, col: np.ndarray, row: np.ndarray, path: str = "gmres"):
        if path not in PATHS:
            raise ValueError(f"unknown solve path {path!r}, not one of {PATHS}")
        self.path = path
        self.col = np.asarray(col, dtype=float)
        self.row = np.asarray(row, dtype=float)
        self.m = len(self.col)
        # row i of a Toeplitz matrix sums col[0..i] and row[1..m-1-i]
        lower = np.cumsum(np.abs(self.col))
        upper = np.concatenate(([0.0], np.cumsum(np.abs(self.row[1:]))))
        self.norm_inf = float(np.max(lower + upper[::-1]))
        self._L = embedding_size(self.m)
        self._spectrum = embedding_spectrum(self.col, self.row)
        self._matrix = self._inverse = self._lower = None
        lam = strang_circulant_eigenvalues(self.col, self.row)
        # beta = 2, alpha = 0 gives one eigenvalue 0: the smallest nonzero
        # |lambda| stands in for it
        zero = lam == 0.0
        lam[zero] = np.min(np.abs(lam[~zero]))
        self._lam = lam
        if path != "gmres":
            self._setup_direct()
        self.last_iterations = 0

    @property
    def method(self) -> str:
        """``'krylov'`` on the GMRES path, ``'dense'`` on the direct ones: kept
        only as the name of ``perfbench/tracing.py``'s solver spans, until
        the tracer names them by ``path``."""
        return "krylov" if self.path == "gmres" else "dense"

    def _setup_direct(self) -> None:
        m, L = self.m, self._L
        e = np.zeros(m)
        e[0] = 1.0
        x = self._gmres(e)
        # symmetric A: A^-1 is persymmetric too, A^-1 e_m = J A^-1 e_1
        y = x[::-1] if np.array_equal(self.col, self.row) else self._gmres(e[::-1])
        if x[0] == 0.0:
            raise SolverError("Gohberg-Semencul formula impossible: (A^-1)_00 is 0")
        shift_y = np.concatenate(([0.0], y[:-1]))
        shift_rev_x = np.concatenate(([0.0], x[:0:-1]))
        if self.path == "explicit":
            # Trench (1964): entry (i, j) of L(a) U(b) exceeds entry
            # (i-1, j-1) by a_i b_j, so A^-1 is the running sum, down each
            # diagonal, of the rank-2 kernel of the formula
            inverse = (np.outer(x, y[::-1]) - np.outer(shift_y, shift_rev_x)) / x[0]
            for i in range(1, m):
                inverse[i, 1:] += inverse[i - 1, :-1]
            self._inverse = inverse
            index = np.arange(m)
            # entry (i, j) of A is col[i - j] for i >= j and row[j - i] above
            self._matrix = np.concatenate((self.row[:0:-1], self.col))[
                m - 1 + index[:, None] - index]
            return
        # (U(v) b)_i = sum_j v_j b_{i+j} is a correlation: with zero
        # padding to L >= 2m - 1 it is irfft(conj(rfft(v)) * rfft(b))[:m]
        self._upper = np.conj(np.fft.rfft(np.stack([y[::-1], shift_rev_x]), n=L))
        self._lower = np.fft.rfft(np.stack([x, shift_y]), n=L) / x[0]

    def apply_inverse(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A^-1 b`` for a vector ``b``, written into ``out`` when given: the
        direct path's preconditioner, with no check (the explicit inverse's
        product goes straight into ``out``).  Raises ``ValueError`` on the
        GMRES path, which holds no ``A^-1``."""
        if self.path == "gmres":
            raise ValueError("the GMRES path holds no A^-1: use solve")
        x = self._precondition(b, out=out)
        if out is None or x is out:
            return x
        out[...] = x
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A x`` for a vector, or ``A`` times each row of a block."""
        if self._matrix is not None:
            return (self._matrix @ x.T).T
        L = self._L
        return np.fft.irfft(self._spectrum * np.fft.rfft(x, n=L), n=L)[..., :self.m]

    def _precondition(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``P^-1 x``: once the direct set-up has built it, ``A^-1 x``,
        explicit (written into ``out`` when given) or by the
        Gohberg-Semencul product; until then, and on the GMRES path, the
        leading block of the Strang circulant's inverse."""
        if self._inverse is not None:
            return np.dot(self._inverse, x, out=out)
        if self._lower is None:
            # the leading m x m block of C^-1: C^-1 [x; 0] cut to m entries
            n = strang_order(self.m)
            return np.fft.irfft(np.fft.rfft(x, n=n) / self._lam, n=n)[:self.m]
        m, L = self.m, self._L
        u = np.fft.irfft(self._upper * np.fft.rfft(x, n=L), n=L)
        z = np.fft.rfft(u[:, :m], n=L) * self._lower
        return np.fft.irfft(z[0] - z[1], n=L)[:m]

    def backward_error(self, x: np.ndarray, rhs: np.ndarray):
        """Normwise backward error ``||Ax - b|| / (||A|| ||x|| + ||b||)``,
        in the infinity norm, of a solution ``x`` of ``rhs`` (a float), or
        of each row of a block of them (an array)."""
        if x.ndim == 1:
            return self._backward_error(self.matvec(x) - rhs, x, rhs)
        rows = max(1, _BATCH_VALUES // self._L)
        return np.concatenate([
            self._backward_error(self.matvec(x[i:i + rows]) - rhs[i:i + rows],
                                  x[i:i + rows], rhs[i:i + rows])
            for i in range(0, len(x), rows)])

    def _backward_error(self, residual: np.ndarray, x: np.ndarray,
                         rhs: np.ndarray):
        res = np.abs(residual).max(axis=-1)
        scale = self.norm_inf * np.abs(x).max(axis=-1) + np.abs(rhs).max(axis=-1)
        # a zero residual is exact, also for x = b = 0
        eta = np.divide(res, scale, out=np.zeros_like(res), where=res != 0.0)
        return float(eta) if eta.ndim == 0 else eta

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # solved for rhs scaled below 1 by a power of two, exact but for
        # underflow, and scaled back: FFT sums of a huge rhs overflow
        rhs = np.asarray_chkfinite(rhs, dtype=float)
        e = math.frexp(float(np.max(np.abs(rhs))))[1]
        return np.ldexp(self._gmres(np.ldexp(rhs, -e)), e)

    def _gmres(self, rhs: np.ndarray) -> np.ndarray:
        """Restarted GMRES (Saad & Schultz 1986), right-preconditioned by
        ``P`` (see :meth:`_precondition`) and started at ``P^-1 b``.

        A cycle orthonormalises the Krylov basis ``V`` of ``A P^-1`` by
        classical Gram-Schmidt applied twice, reduces the Hessenberg matrix
        with Givens rotations and sets ``x += P^-1 V y``.  Its rotated
        right-hand side tracks the residual's 2-norm, a bound on the
        infinity norm: a cycle runs until that is ``_CYCLE_GOAL`` times
        ``||A|| ||x|| + ||b||``, then the computed residual is checked.
        An iterate that is not finite ends the solve.
        """
        self.last_iterations = 0
        fnorm = float(np.max(np.abs(rhs)))
        x = self._precondition(rhs)
        while True:
            r = rhs - self.matvec(x)
            eta = self._backward_error(r, x, rhs)
            if eta <= BACKWARD_ERROR_BOUND:
                return x
            if not math.isfinite(eta):
                raise SolverError(f"GMRES iterate is not finite (backward error {eta})")
            if self.last_iterations >= MAXITER:
                raise KrylovError(
                    f"GMRES stopped after {self.last_iterations} iterations at "
                    f"backward error {eta:.3e} (bound {BACKWARD_ERROR_BOUND:.3e})",
                    backward_error=eta,
                    iterations=self.last_iterations)
            goal = _CYCLE_GOAL * (self.norm_inf * float(np.max(np.abs(x))) + fnorm)
            n = min(_GMRES_RESTART, MAXITER - self.last_iterations)
            V = np.empty((n + 1, self.m))
            R = np.zeros((n, n))
            cs, sn, g = np.empty(n), np.empty(n), np.zeros(n + 1)
            g[0] = np.linalg.norm(r)
            V[0] = r / g[0]
            k = 0
            while k < n and abs(g[k]) > goal:
                w = self.matvec(self._precondition(V[k]))
                for _ in range(2):
                    h = V[:k + 1] @ w
                    w -= h @ V[:k + 1]
                    R[:k + 1, k] += h
                hn = float(np.linalg.norm(w))
                V[k + 1] = w / (hn or 1.0)
                for i in range(k):
                    R[i, k], R[i + 1, k] = (cs[i] * R[i, k] + sn[i] * R[i + 1, k],
                                            cs[i] * R[i + 1, k] - sn[i] * R[i, k])
                rho = math.hypot(R[k, k], hn)
                if rho == 0.0:
                    raise SolverError("GMRES broke down: the matrix is singular")
                cs[k], sn[k] = R[k, k] / rho, hn / rho
                R[k, k] = rho
                g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
                k += 1
                self.last_iterations += 1
            x = x + self._precondition(np.linalg.solve(R[:k, :k], g[:k]) @ V[:k])


def make_solver(params: FracParams, grid: Grid, scheme: SchemeKind,
                frac_scale: float = 1.0, direct: bool = False) -> ToeplitzSolver:
    """Solver of the interior scheme system on ``grid``.

    By default the ``'gmres'`` path, for the one or two solves of a
    stationary problem.  A caller that solves the matrix many times, as a
    Crank-Nicolson march does at every step, passes ``direct=True`` and
    gets ``A^-1``: the ``'explicit'`` path up to ``EXPLICIT_LIMIT``
    intervals and ``'gohberg-semencul'`` above.
    """
    col, row = scheme_toeplitz(params, grid, scheme, frac_scale)
    if not direct:
        return ToeplitzSolver(col, row)
    return ToeplitzSolver(col, row, path="explicit" if grid.M <= EXPLICIT_LIMIT
                          else "gohberg-semencul")


def solve_bvp(problem: "ProblemSpec", M: int, scheme: SchemeKind) -> GridFunction:
    """Solve a stationary boundary-value problem on M intervals.

    Returns the grid function with zero boundary entries, solved by
    GMRES (:func:`make_solver`).
    """
    if M < 4:
        raise ValueError(f"need at least 4 intervals, got M={M}")
    a, b = problem.domain
    grid = Grid(a, b, M)
    f_int = np.asarray(problem.rhs(grid.interior_nodes()), dtype=float)
    u_int = make_solver(problem.params, grid, scheme).solve(f_int)
    return GridFunction.from_interior(grid, u_int)
