"""Grids and the norms of grid functions."""

import numpy as np
import pytest

from fracbvp.grids import Grid, GridFunction


def test_l2_norm_of_a_huge_field_is_finite():
    # the squares of 1e200 overflow; the suite turns the warning into an error
    grid = Grid(8)
    field = GridFunction(grid, np.full(9, 1e200))
    assert field.l2_norm() == np.float64(1e200) * np.sqrt(grid.h * 9)
    assert field.max_norm() == 1e200


def test_l2_norm_of_a_field_that_is_not_finite():
    grid = Grid(8)
    values = np.zeros(9)
    values[3] = np.inf
    assert GridFunction(grid, values).l2_norm() == np.inf
    values[4] = np.nan
    assert np.isnan(GridFunction(grid, values).l2_norm())


@pytest.mark.parametrize("M", [2 ** 63 - 1, 2 ** 63 - 2, 2 ** 60 - 1])
def test_grid_numpy_cannot_address_is_refused(M):
    # np.linspace cannot build these nodes (at 2**63 - 1 it raised IndexError)
    with pytest.raises(ValueError, match="numpy cannot address"):
        Grid(M)


def test_largest_addressable_grid_is_accepted():
    M = np.iinfo(np.intp).max // 8 - 1  # (M + 1) float64 nodes fill the address range
    assert Grid(M).M == M
