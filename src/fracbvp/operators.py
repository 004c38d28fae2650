"""Fast Toeplitz products: a product with an ``m x m`` Toeplitz matrix runs
through an FFT circulant embedding in O(m log m).  The scheme matrices
themselves are laid out by :func:`fracbvp.solver.scheme_toeplitz`.
"""

from __future__ import annotations

import numpy as np


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
