"""Equidistant periodic tensor-product grid and nodal fields.

The domain is the rectangle (0, Lx) x (0, Ly) with periodic boundary
conditions, partitioned into nx * ny congruent cells.  A field holds one
real value per node (i, j) at position (i*hx, j*hy); indices wrap modulo
(nx, ny).  Nodal values are stored as a 2D array of shape (ny, nx), i.e.
row-major with the y-index outermost, so ``values[j, i]`` is the value at
node (i, j) and ``values.ravel()`` yields the canonical flat layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Periodic equidistant tensor-product partition of (0,Lx) x (0,Ly)."""

    nx: int
    ny: int
    Lx: float
    Ly: float

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"grid needs nx, ny >= 3 (got {self.nx} x {self.ny})")
        if not all(math.isfinite(L) and L > 0 for L in (self.Lx, self.Ly)):
            raise ValueError(
                f"domain lengths must be finite and positive (got {self.Lx}, {self.Ly})")

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    def spacing(self, axis: int) -> float:
        """The step along a field axis: hx for -1 (x), hy for -2 (y)."""
        if axis not in (-1, -2):
            raise ValueError(f"grid axis must be -1 (x) or -2 (y), got {axis!r}")
        return self.hx if axis == -1 else self.hy

    @property
    def h(self) -> float:
        """Dimensionless mesh parameter max(hx, hy) / (1 length unit).

        The curvature-regularization weight and the noise truncation rule
        raise this h to fractional powers; lengths are assumed expressed in
        units where h < 1.
        """
        return max(self.hx, self.hy)

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    def node_coords(self):
        """Coordinate arrays (x, y) broadcastable to field shape (ny, nx)."""
        x = self.hx * np.arange(self.nx)
        y = self.hy * np.arange(self.ny)
        return x[None, :], y[:, None]


@dataclass(frozen=True)
class Field:
    """Nodal coefficient array of a periodic bilinear tensor-product FE function."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)  # own an immutable copy
        if v.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"field shape {v.shape} does not match grid ({self.grid.ny}, {self.grid.nx})"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "Field":
        return cls(grid, np.full((grid.ny, grid.nx), float(c)))

    @classmethod
    def from_function(cls, grid: Grid, f) -> "Field":
        """Nodal interpolant of a callable f(x, y)."""
        x, y = grid.node_coords()
        return cls(grid, np.broadcast_to(f(x, y), (grid.ny, grid.nx)).astype(np.float64))

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())
