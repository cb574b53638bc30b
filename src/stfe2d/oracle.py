"""Brute-force reference assemblies on tiny grids.

Every dense form is one walk over the cells, row by row, with exact per-cell
integration of products of bilinear hats and their lumped interpolants -- no
stencil shortcuts -- so the fast operators can be checked against an
independent computational path.  Axes are -1 (x) and -2 (y), as in ``fem``.
Dense routines are restricted to grids with at most 64 nodes.

Also hosts the one-dimensional discrete integration-by-parts identities
(shift/telescope identities of the lumped forms, exact for periodic
piecewise-linear data) and the discrete chain-rule residual; both double as
the library's self-check suite for the ``check`` subcommand.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import fem, scheme
from .grid import Field, Grid
from .material import Material, mobility_mean
from .noise import basis_eval

MAX_DENSE_NODES = 64


class SizeError(ValueError):
    pass


def _check_size(grid: Grid):
    if grid.n_nodes > MAX_DENSE_NODES:
        raise SizeError(f"dense oracle limited to {MAX_DENSE_NODES} nodes "
                        f"(grid has {grid.n_nodes})")


# ---------------------------------------------------------------------------
# the cell walk and the dense lumped forms
# ---------------------------------------------------------------------------

def _cells(grid: Grid) -> list:
    """Every cell, row by row, as (jc, ic, jp, ip): its lower-left node and
    the next row and column (periodic)."""
    _check_size(grid)
    nx, ny = grid.nx, grid.ny
    return [(jc, ic, (jc + 1) % ny, (ic + 1) % nx) for jc in range(ny) for ic in range(nx)]


def _corners(cell) -> tuple:
    """The cell's four nodes (j, i), x fastest."""
    jc, ic, jp, ip = cell
    return (jc, ic), (jc, ip), (jp, ic), (jp, ip)


def _edges(cell, axis: int) -> tuple:
    """The cell's two edges along ``axis`` as (behind, ahead) node pairs:
    the x-edges of rows jc then jp, or the y-edges of columns ic then ip."""
    jc, ic, jp, ip = cell
    if axis == -1:
        return ((jc, ic), (jc, ip)), ((jp, ic), (jp, ip))
    return ((jc, ic), (jp, ic)), ((jc, ip), (jp, ip))


def dense_lumped_integral(v: np.ndarray, grid: Grid) -> float:
    """Cell-by-cell corner quadrature of the nodal interpolant."""
    total = 0.0
    for cell in _cells(grid):
        for node in _corners(cell):
            total += 0.25 * grid.cell_area * v[node]
    return total


def dense_dirichlet(f: np.ndarray, g: np.ndarray, grid: Grid, axis: int,
                    edge_weight: np.ndarray | None = None) -> float:
    """Per-cell integral of the transverse-lumped form a * dq(f) * dq(g)
    along ``axis``; the weight of an edge sits at its behind node."""
    h = grid.spacing(axis)
    total = 0.0
    for cell in _cells(grid):
        for behind, ahead in _edges(cell, axis):
            dqf = (f[ahead] - f[behind]) / h
            dqg = (g[ahead] - g[behind]) / h
            w = 1.0 if edge_weight is None else edge_weight[behind]
            total += 0.5 * grid.cell_area * w * dqf * dqg
    return total


def _fsum_grid(contribs: dict, grid: Grid) -> np.ndarray:
    out = np.zeros((grid.ny, grid.nx))
    for (j, i), parts in contribs.items():
        out[j, i] = math.fsum(parts)
    return out


def _dense_stiffness(v: np.ndarray, grid: Grid, weights=(None, None)) -> np.ndarray:
    """Both lumped Dirichlet forms of v against every nodal hat, the edges
    along x and y weighted by ``weights`` (None: 1), in compensated sums."""
    acc: dict = defaultdict(list)
    for cell in _cells(grid):
        for axis, weight in zip((-1, -2), weights):
            h = grid.spacing(axis)
            for behind, ahead in _edges(cell, axis):
                dqv = (v[ahead] - v[behind]) / h
                w = 1.0 if weight is None else weight[behind]
                acc[behind].append(0.5 * grid.cell_area * w * dqv * (-1.0 / h))
                acc[ahead].append(0.5 * grid.cell_area * w * dqv * (1.0 / h))
    return _fsum_grid(acc, grid)


def dense_neg_lap(v: np.ndarray, grid: Grid) -> np.ndarray:
    """-lap_h from its weak definition: the two lumped Dirichlet forms
    against every nodal hat, divided by the mass."""
    return _dense_stiffness(v, grid) / grid.cell_area


@functools.cache
def dense_lap_matrix(grid: Grid) -> np.ndarray:
    """Dense matrix of lap_h acting on flattened nodal vectors; built once
    per grid and read-only."""
    _check_size(grid)
    n = grid.n_nodes
    mat = np.empty((n, n))
    for col in range(n):
        e = np.zeros(n)
        e[col] = 1.0
        mat[:, col] = -dense_neg_lap(e.reshape(grid.ny, grid.nx), grid).ravel()
    mat.flags.writeable = False
    return mat


# ---------------------------------------------------------------------------
# weak-form residuals
# ---------------------------------------------------------------------------

def dense_pressure_rhs(u: np.ndarray, mat: Material, grid: Grid) -> np.ndarray:
    """RHS of the pressure relation tested against every hat (dense paths)."""
    nx, ny = grid.nx, grid.ny
    heps = scheme.mesh_weight(grid, mat.eps)
    lapm = dense_lap_matrix(grid)
    lap_u = (lapm @ u.ravel()).reshape(ny, nx)

    acc: dict = defaultdict(list)
    # gradient terms: the two lumped Dirichlet forms per hat
    grad_part = dense_neg_lap(u, grid) * grid.cell_area
    for node in np.ndindex(ny, nx):
        acc[node].append(grad_part[node])
    # potential term: per-cell corner quadrature of F'(u) psi
    fp = mat.dF(u)
    for cell in _cells(grid):
        for node in _corners(cell):
            acc[node].append(0.25 * grid.cell_area * fp[node])
    # curvature term: h^eps * lumped product of lap_h u with lap_h of each hat
    for col in range(grid.n_nodes):
        e = np.zeros(grid.n_nodes)
        e[col] = 1.0
        lap_psi = (lapm @ e).reshape(ny, nx)
        parts = [0.25 * grid.cell_area * lap_u[node] * lap_psi[node]
                 for cell in _cells(grid) for node in _corners(cell)]
        acc[divmod(col, nx)].append(heps * math.fsum(parts))
    return _fsum_grid(acc, grid)


def dense_weak_residual(u: Field, p: Field, mat: Material) -> float:
    """Max over nodal hats of |lumped(p psi) - pressure RHS(psi)|."""
    grid = u.grid
    rhs = dense_pressure_rhs(u.values, mat, grid)
    lhs = grid.cell_area * p.values
    return float(np.abs(lhs - rhs).max())


def dense_drift_rhs(u: np.ndarray, p: np.ndarray, grid: Grid) -> np.ndarray:
    """-(mobility-weighted Dirichlet forms of the pressure p) per hat.  The
    pressure under test isolates the drift assembly: the pressure has its own
    dense check, and its roundoff would grow by 1/h^2 through the forms."""
    mob_x = mobility_mean(u, np.roll(u, -1, axis=1))
    mob_y = mobility_mean(u, np.roll(u, -1, axis=0))
    return -_dense_stiffness(p, grid, (mob_x, mob_y))


def dense_drift_residual(u: Field, mat: Material) -> float:
    """Max over hats of |lumped(L psi) - drift weak form| for the fast drift."""
    grid = u.grid
    terms = scheme.state_terms(u.values, mat, grid)
    rhs = dense_drift_rhs(u.values, terms.pressure, grid)
    return float(np.abs(grid.cell_area * terms.drift - rhs).max())


# ---------------------------------------------------------------------------
# dense noise-operator tables
# ---------------------------------------------------------------------------

def _z_cell_corners(u: np.ndarray, w: np.ndarray, grid: Grid, cell, axis: int) -> dict:
    """Corner values on ``cell`` of the doubly interpolated integrand
    d(u w)/d``axis`` (one-sided limits) -- before multiplication by the
    test hat."""
    h = grid.spacing(axis)
    out = {}
    for behind, ahead in _edges(cell, axis):
        dqu = (u[ahead] - u[behind]) / h
        dqw = (w[ahead] - w[behind]) / h
        for node in (behind, ahead):
            out[node] = u[node] * dqw + w[node] * dqu
    return out


def dense_z_apply(u: np.ndarray, w: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Nodal noise-operator action along ``axis`` assembled per cell
    against every hat."""
    acc = np.zeros((grid.ny, grid.nx))
    for cell in _cells(grid):
        vals = _z_cell_corners(u, w, grid, cell, axis)
        for node in _corners(cell):
            # the test hat at this corner is one here, zero at the others
            acc[node] += 0.25 * grid.cell_area * vals[node]
    return acc / grid.cell_area


def dense_z_gauss(u: np.ndarray, w: np.ndarray, grid: Grid, axis: int,
                  i: int, j: int) -> float:
    """Gauss-quadrature cross-check of one weak-form entry: integrates the
    bilinear interpolant of the integrand times the hat at (i, j)."""
    t, wt = fem.gauss_rule(4)
    total = 0.0
    for cell in _cells(grid):
        vals = _z_cell_corners(u, w, grid, cell, axis)
        # integrand corners multiplied by the hat at (i, j)
        c00, c10, c01, c11 = (vals[node] * (1.0 if node == (j, i) else 0.0)
                              for node in _corners(cell))
        for a, wa in zip(t, wt):
            for b, wb in zip(t, wt):
                interp = (c00 * (1 - a) * (1 - b) + c10 * a * (1 - b)
                          + c01 * (1 - a) * b + c11 * a * b)
                total += grid.cell_area * wa * wb * interp
    return total / grid.cell_area


def dense_Z_table(grid: Grid, k: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact matrices mapping nodal u to nodal (Zx, Zy) for one basis mode."""
    _check_size(grid)
    w = basis_eval(k, l, grid).values
    n = grid.n_nodes
    tx, ty = np.empty((2, n, n))
    for col in range(n):
        e = np.zeros(n)
        e[col] = 1.0
        for table, axis in ((tx, -1), (ty, -2)):
            table[:, col] = dense_z_apply(e.reshape(grid.ny, grid.nx), w, grid, axis).ravel()
    return tx, ty


# ---------------------------------------------------------------------------
# one-dimensional lumped integrals and integration-by-parts identities
# ---------------------------------------------------------------------------

def int_lin_lin(h: float, a: np.ndarray, b: np.ndarray) -> float:
    """Exact integral of two periodic piecewise-linear nodal functions."""
    ar, br = np.roll(a, -1), np.roll(b, -1)
    return h / 6.0 * float((2 * a * b + a * br + ar * b + 2 * ar * br).sum())


def int_elem_lin(h: float, a_elem: np.ndarray, b: np.ndarray) -> float:
    """Exact integral of (piecewise-constant per element) * (piecewise linear)."""
    return h / 2.0 * float((a_elem * (b + np.roll(b, -1))).sum())


def ibp_residuals_1d(h: float, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                     a_elementwise: bool = False) -> tuple[float, float]:
    """Relative residuals of the two 1D integration-by-parts identities.

    ``a`` is nodal (piecewise linear) by default, or per-element constant
    with ``a_elementwise``; b and c are nodal.  Returns the first-order and
    second-order identity residuals, normalized by the largest term.
    """
    integ = int_elem_lin if a_elementwise else int_lin_lin

    def shift_m(v):  # v(x - h): nodal value at i becomes v_{i-1}
        return np.roll(v, 1)

    def shift_p(v):  # v(x + h)
        return np.roll(v, -1)

    def rel(lhs, rhs):
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)

    dqm = lambda v: (v - np.roll(v, 1)) / h
    dqp = lambda v: (np.roll(v, -1) - v) / h
    lap1 = lambda v: (np.roll(v, -1) - 2 * v + np.roll(v, 1)) / h**2

    # first order: -int a I{b dqm(c)} = int a I{dqm(b) c(.-h)} + int dqp(a) I{b c}
    res1 = rel(-integ(h, a, b * dqm(c)),
               integ(h, a, dqm(b) * shift_m(c)) + integ(h, dqp(a), b * c))

    # second order: int a I{b lap(c)} = int lap(a) I{b(.-h) c}
    #               + int a(.+h) I{lap(b) c} + 2 int dqp(a) I{dqm(b) c}
    res2 = rel(integ(h, a, b * lap1(c)),
               integ(h, lap1(a), shift_m(b) * c)
               + integ(h, shift_p(a), lap1(b) * c)
               + 2.0 * integ(h, dqp(a), dqm(b) * c))

    return res1, res2


def chain_rule_residual(u: np.ndarray, grid: Grid) -> float:
    """Per-edge relative residual of the discrete chain rule for f(s) = s^2:
    along each axis the difference quotient of u^2 must equal (a + b) times
    that of u."""
    gaps, scales = [], []
    for axis in (-1, -2):
        dq_sq = fem.dq_plus(u**2, grid, axis)
        mean_fp = u + np.roll(u, -1, axis=axis)  # average of f'(s) = 2s over [a, b]
        gaps.append(float(np.abs(dq_sq - mean_fp * fem.dq_plus(u, grid, axis)).max()))
        scales.append(float(np.abs(dq_sq).max()))
    return max(gaps) / max(*scales, 1e-30)


# ---------------------------------------------------------------------------
# self-check suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _positive_field(rng: np.random.Generator, grid: Grid) -> Field:
    return Field(grid, rng.uniform(0.5, 2.0, size=(grid.ny, grid.nx)))


def _near_unity_field(rng: np.random.Generator, grid: Grid) -> Field:
    # the absolute 1e-12 dense-equivalence tolerance presumes O(1) weak-form
    # magnitudes; 5% amplitude keeps the h^eps/h^4 terms within that scale
    return Field(grid, 1.0 + rng.uniform(-0.05, 0.05, size=(grid.ny, grid.nx)))


def run_checks(seed: int = 0, n_fields: int = 100) -> list[CheckResult]:
    """Identity and dense-equivalence suites; all must pass on a sound build."""
    rng = np.random.default_rng(seed)
    results = []
    mat = Material()

    # discrete integration by parts, nodal and element-wise leading factor
    worst = 0.0
    for n, h in ((8, 1.0 / 8), (8, 0.7 / 8)):
        for _ in range(n_fields):
            a, b, c = (rng.standard_normal(n) for _ in range(3))
            worst = max(worst, *ibp_residuals_1d(h, a, b, c))
            a_e = rng.standard_normal(n)
            worst = max(worst, *ibp_residuals_1d(h, a_e, b, c, a_elementwise=True))
    results.append(CheckResult("ibp_identities", worst <= 1e-12, f"max rel residual {worst:.3e}"))

    # discrete chain rule for the quadratic nonlinearity
    grid16 = Grid(16, 16, 1.0, 1.0)
    worst = max(chain_rule_residual(_positive_field(rng, grid16).values, grid16)
                for _ in range(n_fields))
    results.append(CheckResult("chain_rule", worst <= 1e-12, f"max rel residual {worst:.3e}"))

    # dense-oracle equivalence on tiny grids (absolute, near-unity fields)
    worst_p = worst_d = worst_z = worst_rel = 0.0
    for nx, ny in ((4, 4), (6, 6), (8, 8)):
        grid = Grid(nx, ny, 1.0, 1.0)
        tables = {m: dense_Z_table(grid, *m) for m in ((0, 0), (1, 0), (-1, 2))}
        for _ in range(n_fields):
            u = _near_unity_field(rng, grid)
            p = u.with_values(scheme.pressure_values(u.values, mat, grid))
            worst_p = max(worst_p, dense_weak_residual(u, p, mat))
            worst_d = max(worst_d, dense_drift_residual(u, mat))
            for (k, l), (tx, ty) in tables.items():
                w = basis_eval(k, l, grid).values
                fx = scheme.z_apply(u.values, w, grid, -1).ravel()
                fy = scheme.z_apply(u.values, w, grid, -2).ravel()
                worst_z = max(worst_z,
                              float(np.abs(fx - tx @ u.values.ravel()).max()),
                              float(np.abs(fy - ty @ u.values.ravel()).max()))
            # relative drift agreement with wilder data
            uw = _positive_field(rng, grid)
            terms = scheme.state_terms(uw.values, mat, grid)
            fast = grid.cell_area * terms.drift
            rhs = dense_drift_rhs(uw.values, terms.pressure, grid)
            scale = max(float(np.abs(fast).max()), float(np.abs(rhs).max()), 1e-30)
            worst_rel = max(worst_rel, float(np.abs(fast - rhs).max()) / scale)
    results.append(CheckResult("pressure_weak_form", worst_p <= 1e-12, f"max residual {worst_p:.3e}"))
    results.append(CheckResult("drift_weak_form", worst_d <= 1e-12, f"max residual {worst_d:.3e}"))
    results.append(CheckResult("drift_weak_form_rel", worst_rel <= 1e-14,
                               f"max rel residual {worst_rel:.3e}"))
    results.append(CheckResult("noise_operator_tables", worst_z <= 1e-12, f"max diff {worst_z:.3e}"))

    return results
