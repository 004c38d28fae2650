"""Uniform grids on (0, 1) and nodal grid functions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform mesh of [0, 1] with M intervals; nodes ``x_j = j*h``."""

    M: int

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"grid needs at least 2 intervals, got M={self.M}")
        if (self.M + 1) * 8 > np.iinfo(np.intp).max:
            raise ValueError(f"numpy cannot address the {self.M + 1} nodes of M={self.M}")

    @property
    def h(self) -> float:
        return 1.0 / self.M

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.M + 1)

    def interior_nodes(self) -> np.ndarray:
        return self.nodes()[1:-1]

    def refined(self) -> "Grid":
        return Grid(2 * self.M)


@dataclass
class GridFunction:
    """Nodal values on a grid, boundary nodes included (M + 1 entries)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.M + 1,):
            raise ValueError(
                f"expected {self.grid.M + 1} nodal values, got {self.values.shape}")

    @classmethod
    def from_interior(cls, grid: Grid, interior: np.ndarray) -> "GridFunction":
        """Wrap interior values with zero Dirichlet boundary entries."""
        vals = np.zeros(grid.M + 1)
        vals[1:-1] = interior
        return cls(grid, vals)

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2_norm(self) -> float:
        """Discrete L2 norm ``sqrt(h * sum v_j**2)``.

        Values above about 1e154 overflow the squares: the sum is then taken
        of the values scaled by the max norm, which is scaled back.
        """
        with np.errstate(over="ignore"):
            plain = self.grid.h * np.sum(self.values ** 2)
        scale = self.max_norm()
        if math.isfinite(plain) or not math.isfinite(scale):
            return float(np.sqrt(plain))
        return scale * float(np.sqrt(self.grid.h * np.sum((self.values / scale) ** 2)))
