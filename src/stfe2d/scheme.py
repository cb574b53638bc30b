"""Spatial right-hand sides of the nodal SDE system.

With the diagonal lumped mass matrix (entry hx*hy at every node) the weak
relations collapse to pointwise formulas:

  pressure   p = chi * [ -lap_h(u) + F'(u) + h^eps * lap_h(lap_h(u)) ]
  drift      L = chi * [ d-_x( M_x d+_x p ) + d-_y( M_y d+_y p ) ]

where d+/d- are forward/backward difference quotients, M_x, M_y are the
entropy-consistent mobility means on edges, and chi = 0 after the energy
threshold has been hit.  The drift is a divergence of edge fluxes, so its
nodal sum telescopes to zero: mass is conserved exactly.

The noise operator applies, for a coefficient field w in the FE space,

  (Z_x u; w)_ij = [ u_ij * (w_{i+1,j} - w_{i-1,j})
                    + w_ij * (u_{i+1,j} - u_{i-1,j}) ] / (2 hx)

(and the analogue in y).  This is the exact nodal reduction of the lumped
integral of the locally interpolated derivative of the product u*w against
a nodal hat: on each adjacent element the integrand is the one-sided limit
of d/dx (u w), which by the product rule on nodal data is
u_node * d+w + w_node * d+u, weighted hx/2 per element.  The operator is
linear in w, so a whole mode sum can be applied through the accumulated
noise fields w_x, w_y at once, and its nodal sum also telescopes to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .grid import Field, Grid
from .material import Material, PositivityError, d2F_mean, mobility_mean


def mesh_weight(grid: Grid, eps: float) -> float:
    """Curvature-regularization weight h^eps with h = max(hx, hy) < 1."""
    h = grid.h
    if not (0.0 < h < 1.0):
        raise ValueError(
            f"mesh parameter h = {h:g} must lie in (0, 1); express lengths in units "
            "where the cell diameter is below one")
    return h**eps


@dataclass(frozen=True)
class EdgeCoeffs:
    """Mobility means on x-edges (i+1/2, j) and y-edges (i, j+1/2)."""

    x_edges: np.ndarray
    y_edges: np.ndarray


def _check_positive(u: np.ndarray):
    if np.any(u <= 0.0):
        raise PositivityError(
            f"field must be strictly positive (min = {float(u.min()):g})")


def mobility_edges(u: Field, mat: Material | None = None) -> EdgeCoeffs:
    """Entropy-consistent mobility weights: product of edge endpoint values."""
    v = u.values
    _check_positive(v)
    return EdgeCoeffs(
        x_edges=mobility_mean(v, np.roll(v, -1, axis=1)),
        y_edges=mobility_mean(v, np.roll(v, -1, axis=0)),
    )


def d2F_edges(u: Field, mat: Material) -> EdgeCoeffs:
    """Averaged F'' on edges (divided differences of F')."""
    v = u.values
    return EdgeCoeffs(
        x_edges=d2F_mean(mat, v, np.roll(v, -1, axis=1)),
        y_edges=d2F_mean(mat, v, np.roll(v, -1, axis=0)),
    )


# ---------------------------------------------------------------------------
# pressure and drift
# ---------------------------------------------------------------------------

def pressure_values(u: np.ndarray, mat: Material, grid: Grid,
                    stopped: bool = False) -> np.ndarray:
    if stopped:
        return np.zeros_like(u)
    _check_positive(u)
    heps = mesh_weight(grid, mat.eps)
    return -fem.lap(u, grid) + mat.dF(u) + heps * fem.bilap(u, grid)


def compute_pressure(u: Field, mat: Material, stopped: bool = False) -> Field:
    return u.with_values(pressure_values(u.values, mat, u.grid, stopped))


def drift_values(u: np.ndarray, mat: Material, grid: Grid,
                 stopped: bool = False) -> np.ndarray:
    if stopped:
        return np.zeros_like(u)
    p = pressure_values(u, mat, grid)
    mob_x = mobility_mean(u, np.roll(u, -1, axis=1))
    mob_y = mobility_mean(u, np.roll(u, -1, axis=0))
    div_x = fem.dqx_minus(mob_x * fem.dqx_plus(p, grid), grid)
    div_y = fem.dqy_minus(mob_y * fem.dqy_plus(p, grid), grid)
    return div_x + div_y


def drift(u: Field, mat: Material, stopped: bool = False) -> Field:
    return u.with_values(drift_values(u.values, mat, u.grid, stopped))


# ---------------------------------------------------------------------------
# noise application
# ---------------------------------------------------------------------------

def z_apply_x(u: np.ndarray, w: np.ndarray, grid: Grid) -> np.ndarray:
    """Nodal action of the x-noise operator for coefficient field w."""
    return 0.5 * (u * (np.roll(w, -1, axis=1) - np.roll(w, 1, axis=1))
                  + w * (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1))) / grid.hx


def z_apply_y(u: np.ndarray, w: np.ndarray, grid: Grid) -> np.ndarray:
    return 0.5 * (u * (np.roll(w, -1, axis=0) - np.roll(w, 1, axis=0))
                  + w * (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0))) / grid.hy


def diffusion_values(u: np.ndarray, grid: Grid, wx: np.ndarray, wy: np.ndarray,
                     stopped: bool = False) -> np.ndarray:
    if stopped:
        return np.zeros_like(u)
    return z_apply_x(u, wx, grid) + z_apply_y(u, wy, grid)


# ---------------------------------------------------------------------------
# fluxes and dissipation
# ---------------------------------------------------------------------------

def fluxes(u: Field, mat: Material, stopped: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Edge fluxes sqrt(M) * d+ p in each direction (zero once stopped)."""
    grid = u.grid
    if stopped:
        z = np.zeros_like(u.values)
        return z, z.copy()
    p = pressure_values(u.values, mat, grid)
    mob = mobility_edges(u)
    jx = np.sqrt(mob.x_edges) * fem.dqx_plus(p, grid)
    jy = np.sqrt(mob.y_edges) * fem.dqy_plus(p, grid)
    return jx, jy


def dissipation(u: Field, mat: Material, stopped: bool = False) -> tuple[float, float]:
    """Mobility-weighted squared pressure gradients (x and y parts)."""
    jx, jy = fluxes(u, mat, stopped)
    area = u.grid.cell_area
    return area * float((jx**2).sum()), area * float((jy**2).sum())
