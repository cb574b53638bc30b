"""Spatial right-hand sides of the nodal SDE system.

With the diagonal lumped mass matrix (entry hx*hy at every node) the weak
relations collapse to pointwise formulas:

  pressure   p = -lap_h(u) + F'(u) + h^eps * lap_h(lap_h(u))
  drift      L = d-_x( M_x d+_x p ) + d-_y( M_y d+_y p )

where d+/d- are forward/backward difference quotients and M_x, M_y are
the entropy-consistent mobility means on edges.  The drift is a divergence
of edge fluxes, so its nodal sum telescopes to zero: mass is conserved
exactly.  The freeze at the energy threshold (the paper's chi = 0) is
``integrator._Loop._freeze``, and ``_Loop.advance`` stops stepping a frozen
state, so these functions evaluate the running dynamics only.

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
accepted state: pressure, drift, energy parts, entropy, dissipation, oscillation
ratio, mass and minimum from one set of periodic neighbor arrays.  ``pressure_values``,
``drift_values``, ``dissipation``, ``diagnostics.energy_h`` and ``diagnostics.r_functional``
read their values from one kernel call.  The kernel writes every field
into a ``Buffers`` set, which a run allocates once, so a step allocates no
field; F and F' come from one reciprocal of u.

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
from .material import AssumptionError, Material, PositivityError


def require_fine_mesh(grid: Grid) -> float:
    """The mesh parameter h = max(hx, hy) of ``grid``; an AssumptionError
    unless it satisfies (S), 0 < h < 1."""
    h = grid.h
    if not (0.0 < h < 1.0):
        raise AssumptionError(
            f"(S) violated: mesh parameter h = {h:g} of the {grid.nx} x {grid.ny} grid "
            f"on ({grid.Lx:g}, {grid.Ly:g}) must be below 1 (express lengths in units "
            "with sub-unit cells)")
    return h


def mesh_weight(grid: Grid, eps: float) -> float:
    """Curvature-regularization weight h^eps with h = max(hx, hy) < 1."""
    return require_fine_mesh(grid)**eps


class EnergyParts(NamedTuple):
    dirichlet: float
    potential: float
    curvature: float
    total: float


class StateTerms(NamedTuple):
    """What the integrator and the diagnostics record need of one state
    (floats for one field, arrays over the replicas for a stack)."""

    drift: np.ndarray
    pressure: np.ndarray   # -lap_h u + F'(u) + h^eps lap_h^2 u, in Buffers.pressure
    energy: EnergyParts
    entropy: float
    diss_x: float          # mobility-weighted squared pressure gradients
    diss_y: float
    osc: float             # largest u(center)/u(neighbor) over 3x3 neighborhoods
    du_x: np.ndarray       # u_east - u_west, reused by the noise operator
    du_y: np.ndarray       # u_north - u_south
    mass: float            # lumped integral of u
    u_min: float

    def functional(self, alpha: float, kappa: float):
        """The combined functional R = alpha + E + kappa * S."""
        return alpha + self.energy.total + kappa * self.entropy


class Buffers:
    """The field-sized arrays a run steps through, all of one shape
    (*lead, ny, nx) and allocated once.

    ``scratch`` holds the kernel's and the noise increment's work arrays;
    ``state_terms`` writes the output fields (drift, du_x, du_y) into the
    one ``slot`` and the pressure into ``pressure`` (``scratch[6]``), so a
    state's terms stay valid until the next state is evaluated on the same
    buffers.  A step writes the noise fields into ``scratch[0:2]``, the
    increment into ``scratch[2:5]`` and the Euler-Maruyama candidate into
    ``cand`` (``scratch[5]``), which only the kernel overwrites, after the
    candidate has been accepted into the state.
    """

    SCRATCH = 7

    def __init__(self, shape: tuple):
        block = np.empty((self.SCRATCH, *shape))
        self.scratch = tuple(block)
        # the first two scratch fields in the noise fields' (*lead, 2, ny, nx) layout
        self.noise = np.moveaxis(block[:2], 0, -3)
        self.cand, self.pressure = self.scratch[5:]
        self.slot = tuple(np.empty((3, *shape)))


def _fresh(like: np.ndarray, n: int) -> tuple:
    return tuple(np.empty_like(like) for _ in range(n))


def oscillation(u: np.ndarray, east: np.ndarray, west: np.ndarray,
                tmp: tuple | None = None) -> float:
    """Max of u(center)/u(neighbor) over the periodic 3x3 neighborhoods,
    with three scratch arrays ``tmp``.

    Evaluated as max(u / min_3x3(u)) from the x-neighbors: division by a
    positive divisor rounds monotonically, so this equals the maximum over
    the nine ratio fields bit for bit.
    """
    row, low, t = tmp or _fresh(u, 3)
    np.minimum(np.minimum(west, u, out=row), east, out=row)
    np.minimum(fem.shift(row, 1, -2, out=low), row, out=low)
    np.minimum(low, fem.shift(row, -1, -2, out=t), out=low)
    return fem.node_max(np.divide(u, low, out=low))


# ---------------------------------------------------------------------------
# pressure, drift and the one-pass state kernel
# ---------------------------------------------------------------------------

def state_terms(u: np.ndarray, mat: Material, grid: Grid,
                out: Buffers | None = None) -> StateTerms:
    """Pressure, drift, energy, entropy, dissipation, oscillation, mass and min of one state.

    The Laplacian, the pressure and the periodic neighbors of u are each
    formed once and shared.  Every field is written into ``out`` (a fresh
    set when None): the returned drift and neighbor differences into its
    output slot, the pressure into ``out.pressure``, the rest into scratch.
    """
    if out is None:
        out = Buffers(u.shape)
    u_min = fem.node_min(u)  # the one scan, which NaN fails: no division by u comes before it
    if not np.all(u_min > 0.0):
        raise PositivityError(
            f"state_terms requires strictly positive values (min = {np.min(u_min):g})")
    drift, du_x, du_y = out.slot
    east, north, lap_u, t1, t2, t3, p = out.scratch
    # F is summed at once and F' kept for the pressure; the drift slot is
    # free scratch until the fluxes fill it
    mat.potential_terms(u, t1, p, (t2, t3, lap_u, drift))
    e_pot = fem.lumped_integral(t1, grid)
    entropy = fem.lumped_integral(mat.entropy_density(u, t1, t2), grid)
    west, south = fem.shift(u, 1, -1, out=du_x), fem.shift(u, 1, -2, out=du_y)
    fem.shift(u, -1, -1, out=east)
    fem.shift(u, -1, -2, out=north)
    fem.second_difference(east, u, west, grid.hx, out=lap_u)
    lap_u += fem.second_difference(north, u, south, grid.hy, out=t1)
    # the energy parts: gradient, potential (summed above) and h^eps curvature
    grad = np.subtract(east, u, out=t1)
    grad /= grid.hx
    e_dir = fem.inner_h(grad, grad, grid, out=grad)
    grad = np.subtract(north, u, out=t1)
    grad /= grid.hy
    e_dir = 0.5 * (e_dir + fem.inner_h(grad, grad, grid, out=grad))
    heps = mesh_weight(grid, mat.eps)
    e_curv = 0.5 * heps * fem.inner_h(lap_u, lap_u, grid, out=t1)
    energy = EnergyParts(e_dir, e_pot, e_curv, e_dir + e_pot + e_curv)
    osc = oscillation(u, east, west, (t1, t2, t3))
    np.subtract(east, west, out=du_x)
    np.subtract(north, south, out=du_y)
    bilap = fem.lap(lap_u, grid, t1, (t2, t3, drift))
    bilap *= heps
    p -= lap_u
    p += bilap
    diss_x, diss_y = edge_fluxes(u, east, north, p, grid, drift, (lap_u, t1))
    return StateTerms(drift, p, energy, entropy, diss_x, diss_y, osc, du_x, du_y,
                      fem.lumped_integral(u, grid), u_min)


def edge_fluxes(u: np.ndarray, east: np.ndarray, north: np.ndarray, p: np.ndarray,
                grid: Grid, out: np.ndarray, tmp: tuple) -> tuple[float, float]:
    """Drift d-_x(M_x d+_x p) + d-_y(M_y d+_y p) into ``out``, and the
    dissipation parts |sqrt(M) d+ p|^2, with the entropy-consistent edge
    mobility M = u * u_neighbor.  Overwrites ``east``, ``north`` and the
    two scratch arrays ``tmp``."""
    grad, t = tmp
    diss = []
    for mob, axis, h, div in ((east, -1, grid.hx, out), (north, -2, grid.hy, t)):
        mob *= u
        np.subtract(fem.shift(p, -1, axis, out=grad), p, out=grad)
        grad /= h
        flux = np.multiply(np.sqrt(mob, out=t), grad, out=t)
        diss.append(fem.inner_h(flux, flux, grid, out=flux))
        mob *= grad
        np.subtract(mob, fem.shift(mob, 1, axis, out=t), out=div)
        div /= h
    out += t
    return diss[0], diss[1]


def pressure_values(u: np.ndarray, mat: Material, grid: Grid) -> np.ndarray:
    return state_terms(u, mat, grid).pressure


def drift_values(u: np.ndarray, mat: Material, grid: Grid) -> np.ndarray:
    return state_terms(u, mat, grid).drift


def dissipation(u: Field, mat: Material) -> tuple[float, float]:
    """Mobility-weighted squared pressure gradients (x and y parts)."""
    terms = state_terms(u.values, mat, u.grid)
    return terms.diss_x, terms.diss_y


# ---------------------------------------------------------------------------
# noise application
# ---------------------------------------------------------------------------

def _z_apply(u: np.ndarray, w: np.ndarray, du: np.ndarray | None, axis: int,
             h: float, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Nodal action of the noise operator along ``axis`` into ``out``, with
    one scratch array ``tmp``; ``du`` is u's ahead-minus-behind neighbor
    difference, formed here if absent."""
    if du is None:
        du = fem.shift(u, -1, axis) - fem.shift(u, 1, axis)
    np.subtract(fem.shift(w, -1, axis, out=out), fem.shift(w, 1, axis, out=tmp), out=out)
    out *= u
    out += np.multiply(w, du, out=tmp)
    out *= 0.5
    out /= h
    return out


def z_apply(u: np.ndarray, w: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Nodal action of the noise operator along ``axis`` (-1: x, -2: y) for
    coefficient field w."""
    return _z_apply(u, w, None, axis, grid.spacing(axis), *_fresh(u, 2))


def diffusion_values(u: np.ndarray, grid: Grid, wx: np.ndarray, wy: np.ndarray,
                     du_x: np.ndarray | None = None,
                     du_y: np.ndarray | None = None,
                     out: np.ndarray | None = None,
                     tmp: tuple | None = None) -> np.ndarray:
    """Noise increment Z_x(u; w_x) + Z_y(u; w_y); ``du_x``, ``du_y`` are the
    neighbor differences of u from its ``StateTerms``, formed here if absent.
    Written into ``out`` with the two scratch arrays ``tmp`` when given."""
    zy, t = tmp or _fresh(u, 2)
    out = _z_apply(u, wx, du_x, -1, grid.hx, np.empty_like(u) if out is None else out, t)
    out += _z_apply(u, wy, du_y, -2, grid.hy, zy, t)
    return out
