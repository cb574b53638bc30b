"""Monitored functionals: energy parts, entropy, combined functional,
oscillation ratio, mass, dissipation bookkeeping."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import fem, scheme
from .grid import Field, Grid
from .material import Material, require_positive
from .scheme import EnergyParts


def energy_h(u: Field, mat: Material) -> EnergyParts:
    """Regularized discrete energy: gradient + potential + h^eps curvature."""
    return scheme.state_terms(u.values, mat, u.grid).energy


def entropy_h(u: Field, mat: Material) -> float:
    """Lumped integral of the entropy density G(u); nonnegative."""
    return fem.lumped_integral(mat.entropy_G(u.values), u.grid)


def r_functional(u: Field, mat: Material, alpha: float = 1.0, kappa: float = 1.0) -> float:
    if alpha <= 0 or kappa <= 0:
        raise ValueError("alpha and kappa must be positive")
    return scheme.state_terms(u.values, mat, u.grid).functional(alpha, kappa)


def threshold_energy(grid: Grid, mat: Material, e_max_C: float) -> float:
    """Stopping threshold C * h^(-rho/(2+p))."""
    return e_max_C * grid.h ** (-mat.rho / (2.0 + mat.p))


def oscillation_ratio(u: Field) -> float:
    """Max of u(center)/u(neighbor) over all 3x3 periodic neighborhoods."""
    v = u.values
    require_positive(v, "oscillation_ratio")
    return scheme.oscillation(v, fem.shift(v, -1, -1), fem.shift(v, 1, -1))


def mass(u: Field) -> float:
    return fem.lumped_integral(u.values, u.grid)


class DiagRecord(NamedTuple):
    """One diagnostics row; the field names are the CSV header."""

    t: float
    mass: float
    u_min: float
    u_max: float
    E_dir: float
    E_pot: float
    E_curv: float
    E_total: float
    S: float
    R: float
    osc: float
    diss_x: float
    diss_y: float
    stopped: bool


def make_record(u: np.ndarray, grid: Grid, mat: Material, t: float, stopped: bool,
                alpha: float = 1.0, kappa: float = 1.0,
                terms: scheme.StateTerms | None = None) -> DiagRecord:
    """The record of the state with nodal values ``u`` on ``grid``;
    ``terms`` are its ``scheme.state_terms`` when the caller has them
    already."""
    if terms is None:
        terms = scheme.state_terms(u, mat, grid)
    parts = terms.energy
    return DiagRecord(
        t=t,
        mass=terms.mass,
        u_min=terms.u_min,
        u_max=float(u.max()),
        E_dir=parts.dirichlet,
        E_pot=parts.potential,
        E_curv=parts.curvature,
        E_total=parts.total,
        S=terms.entropy,
        R=terms.functional(alpha, kappa),
        osc=terms.osc,
        diss_x=0.0 if stopped else terms.diss_x,
        diss_y=0.0 if stopped else terms.diss_y,
        stopped=stopped,
    )
