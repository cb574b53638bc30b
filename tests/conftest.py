import numpy as np
import pytest

from stfe2d.grid import Field, Grid
from stfe2d.material import Material, mobility_mean


@pytest.fixture
def grid44():
    return Grid(4, 4, 1.0, 1.0)


@pytest.fixture
def grid65():
    return Grid(6, 5, 1.0, 0.8)


@pytest.fixture
def mat():
    return Material()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def positive_field(rng, grid, lo=0.6, hi=1.8):
    return Field(grid, rng.uniform(lo, hi, (grid.ny, grid.nx)))


def interpolant_evaluator(field):
    """Callable evaluating the bilinear interpolant of a nodal field."""
    g = field.grid
    v = field.values

    def f(x, y):
        xs = np.asarray(x) / g.hx
        ys = np.asarray(y) / g.hy
        i0 = np.floor(xs).astype(int) % g.nx
        j0 = np.floor(ys).astype(int) % g.ny
        a = xs - np.floor(xs)
        b = ys - np.floor(ys)
        i1 = (i0 + 1) % g.nx
        j1 = (j0 + 1) % g.ny
        return (v[j0, i0] * (1 - a) * (1 - b) + v[j0, i1] * a * (1 - b)
                + v[j1, i0] * (1 - a) * b + v[j1, i1] * a * b)

    return f


def _roll_lap(a, grid):
    return ((np.roll(a, -1, axis=-1) - 2.0 * a + np.roll(a, 1, axis=-1)) / grid.hx**2
            + (np.roll(a, -1, axis=-2) - 2.0 * a + np.roll(a, 1, axis=-2)) / grid.hy**2)


def roll_reference_pressure(v, mat, grid):
    """The pressure -lap_h v + F'(v) + h^eps lap_h^2 v of a field or a stack
    of fields, from np.roll stencils."""
    lap_u = _roll_lap(v, grid)
    return -lap_u + mat.dF(v) + grid.h ** mat.eps * _roll_lap(lap_u, grid)


def roll_reference_terms(v, mat, grid):
    """Drift, energy parts, entropy, dissipation and oscillation ratio of a
    field, from np.roll stencils and the material building blocks."""
    hx, hy, area = grid.hx, grid.hy, grid.cell_area
    heps = grid.h ** mat.eps
    lap_u = _roll_lap(v, grid)
    p = roll_reference_pressure(v, mat, grid)
    gx = (np.roll(v, -1, axis=1) - v) / hx
    gy = (np.roll(v, -1, axis=0) - v) / hy
    e_dir = 0.5 * (area * float((gx * gx).sum()) + area * float((gy * gy).sum()))
    e_pot = area * float(mat.potential_F(v).sum())
    e_curv = 0.5 * heps * (area * float((lap_u * lap_u).sum()))
    entropy = area * float(mat.entropy_G(v).sum())
    mob_x = mobility_mean(v, np.roll(v, -1, axis=1))
    mob_y = mobility_mean(v, np.roll(v, -1, axis=0))
    px = (np.roll(p, -1, axis=1) - p) / hx
    py = (np.roll(p, -1, axis=0) - p) / hy
    fx, fy = mob_x * px, mob_y * py
    drift = (fx - np.roll(fx, 1, axis=1)) / hx + (fy - np.roll(fy, 1, axis=0)) / hy
    jx, jy = np.sqrt(mob_x) * px, np.sqrt(mob_y) * py
    diss = (area * float((jx**2).sum()), area * float((jy**2).sum()))
    osc = 1.0
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            shifted = np.roll(np.roll(v, dj, axis=0), di, axis=1)
            osc = max(osc, float((v / shifted).max()))
    energy = (e_dir, e_pot, e_curv, e_dir + e_pot + e_curv)
    return drift, energy, entropy, diss, osc
