"""Discrete fractional difference operators and fast Toeplitz products.

The three grid operators are

* left WSGD:   ``L v_j = h**-beta * sum_{k=0..j}   w_k v_{j-k+1}``
* right WSGD:  ``R v_j = h**-beta * sum_{k=0..M-j} w_k v_{j+k-1}``
* centered:    ``C v_j = h**-beta * sum_{k=j-M..j} w~_k v_{j-k}``

for interior nodes ``j = 1..M-1``.  On interior unknowns each operator is
Toeplitz; this module gives the first column and row of the left WSGD and
centered matrices (the right one is the transpose of the left), and
products with any such matrix run through an FFT circulant embedding in
O(M log M).
"""

from __future__ import annotations

import numpy as np

from .grids import Grid
from .weights import weight_table


# -- fast Toeplitz matvec ----------------------------------------------


def embedding_size(m: int) -> int:
    """Size of the circulant that embeds an ``m x m`` Toeplitz matrix: the
    next power of two at least ``2m - 1``."""
    return 1 << (2 * m - 2).bit_length()


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
    L = embedding_size(m)
    y = np.fft.irfft(embedding_spectrum(col, row) * np.fft.rfft(x, n=L), n=L)
    return y[:m]


def embedding_spectrum(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``rfft`` of the circulant of size ``embedding_size(m)`` that embeds
    the Toeplitz matrix with first column ``col`` and first row ``row``.

    A product with the matrix is ``irfft(spectrum * rfft(x, n=L), n=L)[:m]``;
    callers that apply one matrix many times keep the spectrum.
    """
    m = len(col)
    L = embedding_size(m)
    c = np.zeros(L)
    c[:m] = col
    c[L - m + 1:] = row[1:][::-1]
    return np.fft.rfft(c)


# -- operator matrices (interior unknowns) ------------------------------


def left_wsgd_toeplitz(grid: Grid, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """First column/row of the left WSGD operator matrix.

    Entry (j, i) of the interior matrix is ``h**-beta * w_{j-i+1}`` for
    ``i <= j + 1`` (lower Hessenberg Toeplitz).
    """
    t = weight_table(beta, grid.M)
    scale = grid.h ** (-beta)
    m = grid.M - 1
    col = t.w[1:m + 1] * scale
    row = np.zeros(m)
    row[0] = col[0]
    if m > 1:
        row[1] = t.w[0] * scale
    return col, row


def fcd_toeplitz(grid: Grid, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """First column/row of the (symmetric) centered operator matrix."""
    t = weight_table(beta, grid.M)
    scale = grid.h ** (-beta)
    m = grid.M - 1
    col = t.wc[:m] * scale
    return col, col.copy()
