"""Discrete fractional difference operators and fast Toeplitz products.

The three grid operators are

* left WSGD:   ``L v_j = h**-beta * sum_{k=0..j}   w_k v_{j-k+1}``
* right WSGD:  ``R v_j = h**-beta * sum_{k=0..M-j} w_k v_{j+k-1}``
* centered:    ``C v_j = h**-beta * sum_{k=j-M..j} w~_k v_{j-k}``

for interior nodes ``j = 1..M-1``.  On interior unknowns each operator is
Toeplitz, so applications run through an FFT circulant embedding in
O(M log M); dense assemblies of the same matrices are provided for direct
solvers and as test oracles.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .grids import Grid, GridFunction
from .weights import WeightTable, weight_table


# -- fast Toeplitz matvec ----------------------------------------------


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def toeplitz_matvec(first_column: np.ndarray, first_row: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """Toeplitz matrix-vector product via circulant embedding and FFT.

    The matrix is defined by its first column and first row (which must
    agree at index 0).  The embedding circulant has the next power-of-two
    size at least ``2m - 1``, so the product costs O(m log m).
    """
    col = np.asarray(first_column, dtype=float)
    row = np.asarray(first_row, dtype=float)
    x = np.asarray(x, dtype=float)
    m = len(col)
    if len(row) != m or len(x) != m:
        raise ValueError("first_column, first_row and x must share one length")
    if col[0] != row[0]:
        raise ValueError("first_column[0] and first_row[0] disagree")
    if m == 1:
        return col[0] * x
    L = _next_pow2(2 * m - 1)
    y = np.fft.irfft(embedding_spectrum(col, row) * np.fft.rfft(x, n=L), n=L)
    return y[:m]


def embedding_spectrum(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``rfft`` of the circulant of size ``_next_pow2(2m - 1)`` that embeds
    the Toeplitz matrix with first column ``col`` and first row ``row``.

    A product with the matrix is ``irfft(spectrum * rfft(x, n=L), n=L)[:m]``;
    callers that apply one matrix many times keep the spectrum.
    """
    m = len(col)
    L = _next_pow2(2 * m - 1)
    c = np.zeros(L)
    c[:m] = col
    c[L - m + 1:] = row[1:][::-1]
    return np.fft.rfft(c)


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


# -- operator matrices (interior unknowns) ------------------------------


def _table(grid: Grid, beta: float, table: WeightTable | None) -> WeightTable:
    if table is None:
        return weight_table(beta, grid.M)
    if table.beta != beta:
        raise ValueError(f"weight table order {table.beta} does not match beta={beta}")
    if table.n < grid.M:
        raise ValueError(f"weight table holds {table.n} weights, need {grid.M}")
    return table


def left_wsgd_toeplitz(grid: Grid, beta: float,
                       table: WeightTable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """First column/row of the left WSGD operator matrix.

    Entry (j, i) of the interior matrix is ``h**-beta * w_{j-i+1}`` for
    ``i <= j + 1`` (lower Hessenberg Toeplitz).
    """
    t = _table(grid, beta, table)
    scale = grid.h ** (-beta)
    m = grid.M - 1
    col = t.w[1:m + 1] * scale
    row = np.zeros(m)
    row[0] = col[0]
    if m > 1:
        row[1] = t.w[0] * scale
    return col, row


def fcd_toeplitz(grid: Grid, beta: float,
                 table: WeightTable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """First column/row of the (symmetric) centered operator matrix."""
    t = _table(grid, beta, table)
    scale = grid.h ** (-beta)
    m = grid.M - 1
    col = t.wc_at(np.arange(m)) * scale
    return col, col.copy()


def left_wsgd_matrix(grid: Grid, beta: float,
                     table: WeightTable | None = None) -> np.ndarray:
    """Dense left WSGD operator on interior unknowns, ``(M-1) x (M-1)``."""
    col, row = left_wsgd_toeplitz(grid, beta, table)
    return scipy.linalg.toeplitz(col, row)


def right_wsgd_matrix(grid: Grid, beta: float,
                      table: WeightTable | None = None) -> np.ndarray:
    """Dense right WSGD operator; the transpose of the left one."""
    return left_wsgd_matrix(grid, beta, table).T


def fcd_matrix(grid: Grid, beta: float,
               table: WeightTable | None = None) -> np.ndarray:
    """Dense centered operator on interior unknowns (symmetric Toeplitz)."""
    col, row = fcd_toeplitz(grid, beta, table)
    return scipy.linalg.toeplitz(col, row)


# -- operator applications ----------------------------------------------


def apply_left_wsgd(v: GridFunction, beta: float,
                    table: WeightTable | None = None) -> GridFunction:
    """Left WSGD operator applied at interior nodes, zeros on the boundary.

    The stencil at ``j = M-1`` reaches the node ``x_M`` with weight
    ``w_0``; that contribution is included so the formula holds for any
    boundary values, though solvers only ever pass zero-boundary data.
    """
    grid = v.grid
    t = _table(grid, beta, table)
    col, row = left_wsgd_toeplitz(grid, beta, t)
    y = toeplitz_matvec(col, row, v.interior)
    y[-1] += t.w[0] * grid.h ** (-beta) * v.values[-1]
    return GridFunction.from_interior(grid, y)


def apply_right_wsgd(v: GridFunction, beta: float,
                     table: WeightTable | None = None) -> GridFunction:
    """Right WSGD operator; mirror image of :func:`apply_left_wsgd`."""
    grid = v.grid
    t = _table(grid, beta, table)
    col, row = left_wsgd_toeplitz(grid, beta, t)
    y = toeplitz_matvec(row, col, v.interior)  # transpose product
    y[0] += t.w[0] * grid.h ** (-beta) * v.values[0]
    return GridFunction.from_interior(grid, y)


def apply_fcd(v: GridFunction, beta: float,
              table: WeightTable | None = None) -> GridFunction:
    """Centered fractional difference operator at interior nodes."""
    grid = v.grid
    t = _table(grid, beta, table)
    col, row = fcd_toeplitz(grid, beta, t)
    y = toeplitz_matvec(col, row, v.interior)
    scale = grid.h ** (-beta)
    j = np.arange(1, grid.M)
    y += scale * (t.wc_at(j) * v.values[0] + t.wc_at(grid.M - j) * v.values[-1])
    return GridFunction.from_interior(grid, y)
