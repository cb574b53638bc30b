"""Spatial right-hand sides of the nodal SDE system.

With the diagonal lumped mass matrix (entry hx*hy at every node) the weak
relations collapse to pointwise formulas:

  pressure   p = -lap_h(u) + F'(u) + h^eps * lap_h(lap_h(u))
  drift      L = d-_x( M_x d+_x p ) + d-_y( M_y d+_y p )

where d+/d- are forward/backward difference quotients and M_x, M_y are
the entropy-consistent mobility means on edges.  The drift is a divergence
of edge fluxes, so its nodal sum telescopes to zero: mass is conserved
exactly.  The freeze at the energy threshold (the paper's chi = 0) lives in
``integrator.em_step``, which stops stepping a frozen state, so these
functions evaluate the running dynamics only.

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

``state_terms`` is the one-pass kernel the integrator calls once per
accepted state: drift, energy parts, entropy, dissipation and oscillation
ratio from one set of periodic neighbor arrays.  ``drift_values``,
``dissipation`` and ``diagnostics.energy_h`` share its helpers.

The kernel and the noise operator take one field of shape (ny, nx) or a
stack of replica fields of shape (R, ny, nx): shifts act on the two grid
axes and every nodal sum reduces over them alone, so a functional comes
back as a float for one field and as an array of shape (R,) for a stack,
each entry equal bit for bit to the value of its field alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import fem
from .grid import Field, Grid
from .material import Material, PositivityError


def mesh_weight(grid: Grid, eps: float) -> float:
    """Curvature-regularization weight h^eps with h = max(hx, hy) < 1."""
    h = grid.h
    if not (0.0 < h < 1.0):
        raise ValueError(
            f"mesh parameter h = {h:g} must lie in (0, 1); express lengths in units "
            "where the cell diameter is below one")
    return h**eps


def check_positive(u: np.ndarray):
    if np.any(u <= 0.0):
        raise PositivityError(
            f"field must be strictly positive (min = {float(u.min()):g})")


class EnergyParts(NamedTuple):
    dirichlet: float
    potential: float
    curvature: float
    total: float


class StateTerms(NamedTuple):
    """What the integrator and the diagnostics record need of one state
    (floats for one field, arrays over the replicas for a stack)."""

    drift: np.ndarray
    energy: EnergyParts
    entropy: float
    diss_x: float          # mobility-weighted squared pressure gradients
    diss_y: float
    osc: float             # largest u(center)/u(neighbor) over 3x3 neighborhoods
    du_x: np.ndarray       # u_east - u_west, reused by the noise operator
    du_y: np.ndarray       # u_north - u_south


def oscillation(u: np.ndarray, east: np.ndarray, west: np.ndarray) -> float:
    """Max of u(center)/u(neighbor) over the periodic 3x3 neighborhoods.

    Evaluated as max(u / min_3x3(u)) from the x-neighbors: division by a
    positive divisor rounds monotonically, so this equals the maximum over
    the nine ratio fields bit for bit.
    """
    row = np.minimum(np.minimum(west, u), east)
    low = np.minimum(np.minimum(fem.shift(row, 1, -2), row), fem.shift(row, -1, -2))
    return fem.node_max(u / low)


# ---------------------------------------------------------------------------
# pressure, drift and the one-pass state kernel
# ---------------------------------------------------------------------------

def _pressure(u: np.ndarray, lap_u: np.ndarray, mat: Material, grid: Grid) -> np.ndarray:
    """-lap_u + F'(u) + h^eps lap(lap_u) from the Laplacian lap_u of u."""
    bilap = fem.lap(lap_u, grid)
    bilap *= mesh_weight(grid, mat.eps)
    p = mat.dF(u)
    p -= lap_u
    p += bilap
    return p


def pressure_values(u: np.ndarray, mat: Material, grid: Grid) -> np.ndarray:
    return _pressure(u, fem.lap(u, grid), mat, grid)


def state_terms(u: np.ndarray, mat: Material, grid: Grid) -> StateTerms:
    """Drift, energy parts, entropy, dissipation and oscillation of one state.

    The Laplacian, the pressure and the periodic neighbors of u are each
    formed once and shared.
    """
    east, west = fem.shift(u, -1, -1), fem.shift(u, 1, -1)
    north, south = fem.shift(u, -1, -2), fem.shift(u, 1, -2)
    lap_u = fem.second_difference(east, u, west, grid.hx)
    lap_u += fem.second_difference(north, u, south, grid.hy)
    # the first material call: a nonpositive u raises before any division by u
    energy = energy_parts(u, east, north, lap_u, mat, grid)
    osc = oscillation(u, east, west)
    du_x = np.subtract(east, west, out=west)  # in place: no new field
    du_y = np.subtract(north, south, out=south)
    p = _pressure(u, lap_u, mat, grid)
    del lap_u
    drift, diss_x, diss_y = edge_fluxes(u, east, north, p, grid)
    entropy = fem.lumped_integral(mat.entropy_G(u), grid)
    return StateTerms(drift, energy, entropy, diss_x, diss_y, osc, du_x, du_y)


def energy_parts(u: np.ndarray, east: np.ndarray, north: np.ndarray,
                 lap_u: np.ndarray, mat: Material, grid: Grid) -> EnergyParts:
    """Gradient + potential + h^eps curvature energy from the east and north
    neighbors and the Laplacian of u."""
    grad = (east - u) / grid.hx
    e_dir = fem.inner_h(grad, grad, grid)
    grad = (north - u) / grid.hy
    e_dir = 0.5 * (e_dir + fem.inner_h(grad, grad, grid))
    del grad
    e_pot = fem.lumped_integral(mat.potential_F(u), grid)
    e_curv = 0.5 * mesh_weight(grid, mat.eps) * fem.inner_h(lap_u, lap_u, grid)
    return EnergyParts(e_dir, e_pot, e_curv, e_dir + e_pot + e_curv)


def edge_fluxes(u: np.ndarray, east: np.ndarray, north: np.ndarray, p: np.ndarray,
                grid: Grid) -> tuple[np.ndarray, float, float]:
    """Drift d-_x(M_x d+_x p) + d-_y(M_y d+_y p) and the dissipation parts
    |sqrt(M) d+ p|^2, with the entropy-consistent edge mobility M = u * u_neighbor.
    Overwrites ``east`` and ``north``."""
    divs, diss = [], []
    for mob, dq_plus, dq_minus in ((east, fem.dqx_plus, fem.dqx_minus),
                                   (north, fem.dqy_plus, fem.dqy_minus)):
        mob *= u
        grad = dq_plus(p, grid)
        flux = np.sqrt(mob) * grad
        diss.append(fem.inner_h(flux, flux, grid))
        mob *= grad
        del flux, grad
        divs.append(dq_minus(mob, grid))
    divs[0] += divs[1]
    return divs[0], diss[0], diss[1]


def _drift_and_dissipation(u: np.ndarray, mat: Material, grid: Grid):
    p = pressure_values(u, mat, grid)
    return edge_fluxes(u, fem.shift(u, -1, -1), fem.shift(u, -1, -2), p, grid)


def drift_values(u: np.ndarray, mat: Material, grid: Grid) -> np.ndarray:
    return _drift_and_dissipation(u, mat, grid)[0]


def dissipation(u: Field, mat: Material) -> tuple[float, float]:
    """Mobility-weighted squared pressure gradients (x and y parts)."""
    _, diss_x, diss_y = _drift_and_dissipation(u.values, mat, u.grid)
    return diss_x, diss_y


# ---------------------------------------------------------------------------
# noise application
# ---------------------------------------------------------------------------

def z_apply_x(u: np.ndarray, w: np.ndarray, grid: Grid,
              du: np.ndarray | None = None) -> np.ndarray:
    """Nodal action of the x-noise operator for coefficient field w; ``du``
    is u_east - u_west when the caller has it (``StateTerms.du_x``)."""
    if du is None:
        du = fem.shift(u, -1, -1) - fem.shift(u, 1, -1)
    return 0.5 * (u * (fem.shift(w, -1, -1) - fem.shift(w, 1, -1)) + w * du) / grid.hx


def z_apply_y(u: np.ndarray, w: np.ndarray, grid: Grid,
              du: np.ndarray | None = None) -> np.ndarray:
    if du is None:
        du = fem.shift(u, -1, -2) - fem.shift(u, 1, -2)
    return 0.5 * (u * (fem.shift(w, -1, -2) - fem.shift(w, 1, -2)) + w * du) / grid.hy


def diffusion_values(u: np.ndarray, grid: Grid, wx: np.ndarray, wy: np.ndarray,
                     du_x: np.ndarray | None = None,
                     du_y: np.ndarray | None = None) -> np.ndarray:
    """Noise increment Z_x(u; w_x) + Z_y(u; w_y); ``du_x``, ``du_y`` are the
    neighbor differences of u from its ``StateTerms``, formed here if absent."""
    return z_apply_x(u, wx, grid, du_x) + z_apply_y(u, wy, grid, du_y)
