"""Brute-force reference assemblies on tiny grids.

Everything here is assembled cell by cell with explicit per-cell exact
integration of products of bilinear hats and their lumped interpolants --
no stencil shortcuts -- so the fast operators can be checked against an
independent computational path.  Dense routines are restricted to grids
with at most 64 nodes.

Also hosts the one-dimensional discrete integration-by-parts identities
(shift/telescope identities of the lumped forms, exact for periodic
piecewise-linear data) and the discrete chain-rule residual; both double as
the library's self-check suite for the ``check`` subcommand.
"""

from __future__ import annotations

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
# dense lumped forms
# ---------------------------------------------------------------------------

def dense_lumped_integral(v: np.ndarray, grid: Grid) -> float:
    """Cell-by-cell corner quadrature of the nodal interpolant."""
    _check_size(grid)
    nx, ny = grid.nx, grid.ny
    total = 0.0
    for jc in range(ny):
        for ic in range(nx):
            for dj in (0, 1):
                for di in (0, 1):
                    total += 0.25 * grid.cell_area * v[(jc + dj) % ny, (ic + di) % nx]
    return total


def dense_dirichlet_x(v_f: np.ndarray, v_g: np.ndarray, grid: Grid,
                      edge_weight: np.ndarray | None = None) -> float:
    """Per-cell integral of the y-lumped form a * dx(f) * dx(g)."""
    _check_size(grid)
    nx, ny, hx = grid.nx, grid.ny, grid.hx
    total = 0.0
    for jc in range(ny):
        for ic in range(nx):
            for dj in (0, 1):
                jr = (jc + dj) % ny
                dqf = (v_f[jr, (ic + 1) % nx] - v_f[jr, ic]) / hx
                dqg = (v_g[jr, (ic + 1) % nx] - v_g[jr, ic]) / hx
                w = 1.0 if edge_weight is None else edge_weight[jr, ic]
                total += 0.5 * grid.cell_area * w * dqf * dqg
    return total


def dense_dirichlet_y(v_f: np.ndarray, v_g: np.ndarray, grid: Grid,
                      edge_weight: np.ndarray | None = None) -> float:
    _check_size(grid)
    nx, ny, hy = grid.nx, grid.ny, grid.hy
    total = 0.0
    for jc in range(ny):
        for ic in range(nx):
            for di in (0, 1):
                ir = (ic + di) % nx
                dqf = (v_f[(jc + 1) % ny, ir] - v_f[jc, ir]) / hy
                dqg = (v_g[(jc + 1) % ny, ir] - v_g[jc, ir]) / hy
                w = 1.0 if edge_weight is None else edge_weight[jc, ir]
                total += 0.5 * grid.cell_area * w * dqf * dqg
    return total


def _fsum_grid(contribs: dict, grid: Grid) -> np.ndarray:
    out = np.zeros((grid.ny, grid.nx))
    for (j, i), parts in contribs.items():
        out[j, i] = math.fsum(parts)
    return out


def dense_neg_lap(v: np.ndarray, grid: Grid) -> np.ndarray:
    """-lap_h from its weak definition: assemble both lumped Dirichlet forms
    against every nodal hat (compensated sums), then divide by the mass."""
    _check_size(grid)
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    acc: dict = defaultdict(list)
    for jc in range(ny):
        for ic in range(nx):
            ip = (ic + 1) % nx
            jp = (jc + 1) % ny
            for jr in (jc, jp):
                dqv = (v[jr, ip] - v[jr, ic]) / hx
                acc[(jr, ic)].append(0.5 * grid.cell_area * dqv * (-1.0 / hx))
                acc[(jr, ip)].append(0.5 * grid.cell_area * dqv * (1.0 / hx))
            for ir in (ic, ip):
                dqv = (v[jp, ir] - v[jc, ir]) / hy
                acc[(jc, ir)].append(0.5 * grid.cell_area * dqv * (-1.0 / hy))
                acc[(jp, ir)].append(0.5 * grid.cell_area * dqv * (1.0 / hy))
    return _fsum_grid(acc, grid) / grid.cell_area


def dense_lap_matrix(grid: Grid) -> np.ndarray:
    """Dense matrix of lap_h acting on flattened nodal vectors."""
    _check_size(grid)
    n = grid.n_nodes
    mat = np.empty((n, n))
    for col in range(n):
        e = np.zeros(n)
        e[col] = 1.0
        mat[:, col] = -dense_neg_lap(e.reshape(grid.ny, grid.nx), grid).ravel()
    return mat


# ---------------------------------------------------------------------------
# weak-form residuals
# ---------------------------------------------------------------------------

def dense_pressure_rhs(u: np.ndarray, mat: Material, grid: Grid) -> np.ndarray:
    """RHS of the pressure relation tested against every hat (dense paths)."""
    _check_size(grid)
    nx, ny = grid.nx, grid.ny
    heps = scheme.mesh_weight(grid, mat.eps)
    lapm = dense_lap_matrix(grid)
    lap_u = (lapm @ u.ravel()).reshape(ny, nx)

    acc: dict = defaultdict(list)
    # gradient terms: the two lumped Dirichlet forms per hat
    grad_part = dense_neg_lap(u, grid) * grid.cell_area
    for j in range(ny):
        for i in range(nx):
            acc[(j, i)].append(grad_part[j, i])
    # potential term: per-cell corner quadrature of F'(u) psi
    fp = mat.dF(u)
    for jc in range(ny):
        for ic in range(nx):
            for dj in (0, 1):
                for di in (0, 1):
                    j, i = (jc + dj) % ny, (ic + di) % nx
                    acc[(j, i)].append(0.25 * grid.cell_area * fp[j, i])
    # curvature term: h^eps * lumped product of lap_h u with lap_h of each hat
    for col in range(grid.n_nodes):
        e = np.zeros(grid.n_nodes)
        e[col] = 1.0
        lap_psi = (lapm @ e).reshape(ny, nx)
        parts = []
        for jc in range(ny):
            for ic in range(nx):
                for dj in (0, 1):
                    for di in (0, 1):
                        j, i = (jc + dj) % ny, (ic + di) % nx
                        parts.append(0.25 * grid.cell_area * lap_u[j, i] * lap_psi[j, i])
        acc[divmod(col, nx)].append(heps * math.fsum(parts))
    return _fsum_grid(acc, grid)


def dense_weak_residual(u: Field, p: Field, mat: Material) -> float:
    """Max over nodal hats of |lumped(p psi) - pressure RHS(psi)|."""
    grid = u.grid
    rhs = dense_pressure_rhs(u.values, mat, grid)
    lhs = grid.cell_area * p.values
    return float(np.abs(lhs - rhs).max())


def dense_drift_rhs(u: np.ndarray, mat: Material, grid: Grid,
                    p: np.ndarray | None = None) -> np.ndarray:
    """-(mobility-weighted Dirichlet forms of the pressure) per hat.

    ``p`` defaults to the dense-path pressure; passing the pressure under
    test instead isolates the drift assembly (the pressure path has its own
    dense comparison, and reusing it avoids compounding its roundoff through
    the 1/h^2 amplification of the forms).
    """
    _check_size(grid)
    nx, ny = grid.nx, grid.ny
    if p is None:
        p = dense_pressure_rhs(u, mat, grid) / grid.cell_area
    mob_x = mobility_mean(u, np.roll(u, -1, axis=1))
    mob_y = mobility_mean(u, np.roll(u, -1, axis=0))

    acc: dict = defaultdict(list)
    hx, hy = grid.hx, grid.hy
    for jc in range(ny):
        for ic in range(nx):
            ip = (ic + 1) % nx
            jp = (jc + 1) % ny
            for jr in (jc, jp):
                dqp = (p[jr, ip] - p[jr, ic]) / hx
                w = mob_x[jr, ic]
                acc[(jr, ic)].append(-0.5 * grid.cell_area * w * dqp * (-1.0 / hx))
                acc[(jr, ip)].append(-0.5 * grid.cell_area * w * dqp * (1.0 / hx))
            for ir in (ic, ip):
                dqp = (p[jp, ir] - p[jc, ir]) / hy
                w = mob_y[jc, ir]
                acc[(jc, ir)].append(-0.5 * grid.cell_area * w * dqp * (-1.0 / hy))
                acc[(jp, ir)].append(-0.5 * grid.cell_area * w * dqp * (1.0 / hy))
    return _fsum_grid(acc, grid)


def dense_drift_residual(u: Field, mat: Material) -> float:
    """Max over hats of |lumped(L psi) - drift weak form| for the fast drift."""
    grid = u.grid
    p = scheme.pressure_values(u.values, mat, grid)
    fast = scheme.drift_values(u.values, mat, grid)
    rhs = dense_drift_rhs(u.values, mat, grid, p=p)
    return float(np.abs(grid.cell_area * fast - rhs).max())


# ---------------------------------------------------------------------------
# dense noise-operator tables
# ---------------------------------------------------------------------------

def _zx_cell_corners(u: np.ndarray, w: np.ndarray, grid: Grid, ic: int, jc: int):
    """Corner values on cell (ic, jc) of the doubly interpolated integrand
    d/dx(u w) (one-sided limits) -- before multiplication by the test hat."""
    nx, ny, hx = grid.nx, grid.ny, grid.hx
    ip, jp = (ic + 1) % nx, (jc + 1) % ny
    out = {}
    for jr in (jc, jp):
        dqu = (u[jr, ip] - u[jr, ic]) / hx
        dqw = (w[jr, ip] - w[jr, ic]) / hx
        for col in (ic, ip):
            out[(col, jr)] = u[jr, col] * dqw + w[jr, col] * dqu
    return out


def _zy_cell_corners(u: np.ndarray, w: np.ndarray, grid: Grid, ic: int, jc: int):
    nx, ny, hy = grid.nx, grid.ny, grid.hy
    ip, jp = (ic + 1) % nx, (jc + 1) % ny
    out = {}
    for col in (ic, ip):
        dqu = (u[jp, col] - u[jc, col]) / hy
        dqw = (w[jp, col] - w[jc, col]) / hy
        for jr in (jc, jp):
            out[(col, jr)] = u[jr, col] * dqw + w[jr, col] * dqu
    return out


def dense_z_apply(u: np.ndarray, w: np.ndarray, grid: Grid, direction: str) -> np.ndarray:
    """Nodal noise-operator action assembled per cell against every hat."""
    _check_size(grid)
    corners = _zx_cell_corners if direction == "x" else _zy_cell_corners
    acc = np.zeros((grid.ny, grid.nx))
    for jc in range(grid.ny):
        for ic in range(grid.nx):
            for (col, jr), val in corners(u, w, grid, ic, jc).items():
                # test hat at (col, jr) equals one at this corner, zero at others
                acc[jr, col] += 0.25 * grid.cell_area * val
    return acc / grid.cell_area


def dense_z_gauss(u: np.ndarray, w: np.ndarray, grid: Grid, direction: str,
                  i: int, j: int, n_gauss: int = 4) -> float:
    """Gauss-quadrature cross-check of one weak-form entry: integrates the
    bilinear interpolant of the integrand times the hat at (i, j)."""
    _check_size(grid)
    t, wt = np.polynomial.legendre.leggauss(n_gauss)
    t = 0.5 * (t + 1.0)   # map to [0, 1]
    wt = 0.5 * wt
    corners = _zx_cell_corners if direction == "x" else _zy_cell_corners
    nx, ny = grid.nx, grid.ny
    total = 0.0
    for jc in range(ny):
        for ic in range(nx):
            ip, jp = (ic + 1) % nx, (jc + 1) % ny
            vals = corners(u, w, grid, ic, jc)
            # integrand corners multiplied by the hat at (i, j)
            c00 = vals[(ic, jc)] * (1.0 if (i, j) == (ic, jc) else 0.0)
            c10 = vals[(ip, jc)] * (1.0 if (i, j) == (ip, jc) else 0.0)
            c01 = vals[(ic, jp)] * (1.0 if (i, j) == (ic, jp) else 0.0)
            c11 = vals[(ip, jp)] * (1.0 if (i, j) == (ip, jp) else 0.0)
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
    tx = np.empty((n, n))
    ty = np.empty((n, n))
    for col in range(n):
        e = np.zeros(n)
        e[col] = 1.0
        eu = e.reshape(grid.ny, grid.nx)
        tx[:, col] = dense_z_apply(eu, w, grid, "x").ravel()
        ty[:, col] = dense_z_apply(eu, w, grid, "y").ravel()
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


def _lump(*nodal_factors) -> np.ndarray:
    out = nodal_factors[0].copy()
    for f in nodal_factors[1:]:
        out = out * f
    return out


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

    dqm = lambda v: (v - np.roll(v, 1)) / h
    dqp = lambda v: (np.roll(v, -1) - v) / h
    lap1 = lambda v: (np.roll(v, -1) - 2 * v + np.roll(v, 1)) / h**2

    # first order: -int a I{b dqm(c)} = int a I{dqm(b) c(.-h)} + int dqp(a) I{b c}
    lhs1 = -integ(h, a, _lump(b, dqm(c)))
    rhs1 = integ(h, a, _lump(dqm(b), shift_m(c))) + integ(h, dqp(a), _lump(b, c))
    scale1 = max(abs(lhs1), abs(rhs1), 1e-30)
    res1 = abs(lhs1 - rhs1) / scale1

    # second order: int a I{b lap(c)} = int lap(a) I{b(.-h) c}
    #               + int a(.+h) I{lap(b) c} + 2 int dqp(a) I{dqm(b) c}
    lhs2 = integ(h, a, _lump(b, lap1(c)))
    rhs2 = (integ(h, lap1(a), _lump(shift_m(b), c))
            + integ(h, shift_p(a), _lump(lap1(b), c))
            + 2.0 * integ(h, dqp(a), _lump(dqm(b), c)))
    scale2 = max(abs(lhs2), abs(rhs2), 1e-30)
    res2 = abs(lhs2 - rhs2) / scale2

    return res1, res2


def chain_rule_residual(u: np.ndarray, grid: Grid) -> float:
    """Per-edge relative residual of the discrete chain rule for f(s) = s^2:
    the x-difference quotient of u^2 must equal (a + b) times that of u."""
    dq_sq = fem.dqx_plus(u**2, grid)
    mean_fp = u + np.roll(u, -1, axis=1)  # average of f'(s) = 2s over [a, b]
    rhs = mean_fp * fem.dqx_plus(u, grid)
    dq_sq_y = fem.dqy_plus(u**2, grid)
    rhs_y = (u + np.roll(u, -1, axis=0)) * fem.dqy_plus(u, grid)
    scale = max(float(np.abs(dq_sq).max()), float(np.abs(dq_sq_y).max()), 1e-30)
    rx = float(np.abs(dq_sq - rhs).max())
    ry = float(np.abs(dq_sq_y - rhs_y).max())
    return max(rx, ry) / scale


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
                fx = scheme.z_apply_x(u.values, w, grid).ravel()
                fy = scheme.z_apply_y(u.values, w, grid).ravel()
                worst_z = max(worst_z,
                              float(np.abs(fx - tx @ u.values.ravel()).max()),
                              float(np.abs(fy - ty @ u.values.ravel()).max()))
            # relative drift agreement with wilder data
            uw = _positive_field(rng, grid)
            pv = scheme.pressure_values(uw.values, mat, grid)
            fast = grid.cell_area * scheme.drift_values(uw.values, mat, grid)
            rhs = dense_drift_rhs(uw.values, mat, grid, p=pv)
            scale = max(float(np.abs(fast).max()), float(np.abs(rhs).max()), 1e-30)
            worst_rel = max(worst_rel, float(np.abs(fast - rhs).max()) / scale)
    results.append(CheckResult("pressure_weak_form", worst_p <= 1e-12, f"max residual {worst_p:.3e}"))
    results.append(CheckResult("drift_weak_form", worst_d <= 1e-12, f"max residual {worst_d:.3e}"))
    results.append(CheckResult("drift_weak_form_rel", worst_rel <= 1e-14,
                               f"max rel residual {worst_rel:.3e}"))
    results.append(CheckResult("noise_operator_tables", worst_z <= 1e-12, f"max diff {worst_z:.3e}"))

    return results
