"""Mass-lumped finite-element operations on the periodic tensor-product grid.

All integrals of nodally interpolated quantities reduce to weighted nodal
sums with weight hx*hy, which is exact on equidistant periodic grids (the
lumped mass matrix is diagonal with entries hx*hy).  Directional Dirichlet
forms lump in the transverse direction and integrate exactly along the
derivative direction, which collapses them to sums over grid edges: the
x-derivative of a bilinear function is constant in x on each element and
linear in y, so lumping in y leaves one term per x-edge (i+1/2, j).

The discrete Laplacian defined weakly through these lumped forms coincides
with the periodic 3-point stencil in each direction, and factors as forward
applied to backward difference quotients.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .grid import Field, Grid


class SolverError(RuntimeError):
    """Internal linear-solver failure (should not happen on gauged systems)."""


# ---------------------------------------------------------------------------
# periodic shifts and difference quotients
# ---------------------------------------------------------------------------

def shift(values: np.ndarray, offset: int, axis: int) -> np.ndarray:
    """``np.roll(values, offset, axis)`` along a grid axis by two slices,
    without np.roll's per-call overhead: shift(v, -1, -1)[..., j, i] =
    v[..., j, i+1] (periodic).  ``axis`` is -1 (x) or -2 (y); leading
    (replica) axes ride along."""
    if axis not in (-1, -2):
        raise ValueError(f"shift axis must be -1 (x) or -2 (y), got {axis!r}")
    k = -offset % values.shape[axis]
    if axis == -1:
        return np.concatenate((values[..., k:], values[..., :k]), axis=-1)
    return np.concatenate((values[..., k:, :], values[..., :k, :]), axis=-2)


def second_difference(ahead: np.ndarray, centre: np.ndarray, behind: np.ndarray,
                      h: float) -> np.ndarray:
    """3-point stencil (ahead - 2 centre + behind) / h^2 from given neighbors,
    evaluated in that order in one output array."""
    out = np.multiply(centre, 2.0)
    np.subtract(ahead, out, out=out)
    out += behind
    out /= h**2
    return out


def dqx_plus(values: np.ndarray, grid: Grid) -> np.ndarray:
    """(f[i+1,j] - f[i,j]) / hx with periodic wrap; lives on x-edge (i+1/2, j)."""
    return (shift(values, -1, -1) - values) / grid.hx


def dqx_minus(values: np.ndarray, grid: Grid) -> np.ndarray:
    return (values - shift(values, 1, -1)) / grid.hx


def dqy_plus(values: np.ndarray, grid: Grid) -> np.ndarray:
    return (shift(values, -1, -2) - values) / grid.hy


def dqy_minus(values: np.ndarray, grid: Grid) -> np.ndarray:
    return (values - shift(values, 1, -2)) / grid.hy


# ---------------------------------------------------------------------------
# discrete Laplacian
# ---------------------------------------------------------------------------

def lap_x(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Periodic 3-point stencil in x; equals dqx_plus(dqx_minus(.))."""
    return second_difference(shift(values, -1, -1), values, shift(values, 1, -1), grid.hx)


def lap_y(values: np.ndarray, grid: Grid) -> np.ndarray:
    return second_difference(shift(values, -1, -2), values, shift(values, 1, -2), grid.hy)


def lap(values: np.ndarray, grid: Grid) -> np.ndarray:
    out = lap_x(values, grid)
    out += lap_y(values, grid)
    return out


# ---------------------------------------------------------------------------
# lumped integrals and inner products
# ---------------------------------------------------------------------------

def _per_field(totals: np.ndarray):
    return float(totals) if totals.ndim == 0 else totals


def node_sum(values: np.ndarray):
    """Sum over the two grid axes: a float for one field, an array over the
    leading (replica) axes for a stack of fields.  Each field is summed as
    one contiguous run, so a stacked field's sum equals its own ``.sum()``
    bit for bit."""
    return _per_field(values.reshape(*values.shape[:-2], -1).sum(-1))


def node_max(values: np.ndarray):
    """Maximum over the two grid axes, shaped like ``node_sum``."""
    return _per_field(values.reshape(*values.shape[:-2], -1).max(-1))


def lumped_integral(values: np.ndarray, grid: Grid):
    """hx*hy * sum of nodal values; exact integral of the nodal interpolant."""
    return grid.cell_area * node_sum(values)


def inner_h(a: np.ndarray, b: np.ndarray, grid: Grid):
    return grid.cell_area * node_sum(a * b)


# ---------------------------------------------------------------------------
# directional Dirichlet forms
# ---------------------------------------------------------------------------

def dirichlet_x(f: np.ndarray, g: np.ndarray, grid: Grid,
                edge_weight: np.ndarray | None = None) -> float:
    """Lumped-in-y exact-in-x form: hx*hy * sum_edges w * dqx+(f) * dqx+(g).

    ``edge_weight`` holds edge-centered coefficients (entry [j, i] attached
    to the x-edge between nodes i and i+1 at row j); None means w = 1.
    """
    prod = dqx_plus(f, grid) * dqx_plus(g, grid)
    if edge_weight is not None:
        prod = edge_weight * prod
    return grid.cell_area * float(prod.sum())


def dirichlet_y(f: np.ndarray, g: np.ndarray, grid: Grid,
                edge_weight: np.ndarray | None = None) -> float:
    prod = dqy_plus(f, grid) * dqy_plus(g, grid)
    if edge_weight is not None:
        prod = edge_weight * prod
    return grid.cell_area * float(prod.sum())


# ---------------------------------------------------------------------------
# Ritz projection
# ---------------------------------------------------------------------------

_GAUSS_N = 8


def _gauss_rule(a: float, b: float, n: int = _GAUSS_N):
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (a + b) + 0.5 * (b - a) * t, 0.5 * (b - a) * w


def stiffness_apply(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Action of the consistent bilinear stiffness matrix (true grad-grad form).

    Tensor structure K = Kx (x) My + Mx (x) Ky with 1D P1 stiffness
    (1/h)[-1, 2, -1] and consistent mass (h/6)[1, 4, 1], both periodic.
    """
    hx, hy = grid.hx, grid.hy

    def kx(v):
        return (2.0 * v - shift(v, -1, -1) - shift(v, 1, -1)) / hx

    def ky(v):
        return (2.0 * v - shift(v, -1, -2) - shift(v, 1, -2)) / hy

    def mx(v):
        return hx / 6.0 * (shift(v, -1, -1) + 4.0 * v + shift(v, 1, -1))

    def my(v):
        return hy / 6.0 * (shift(v, -1, -2) + 4.0 * v + shift(v, 1, -2))

    return my(kx(values)) + mx(ky(values))


def _ritz_rhs(grid: Grid, f) -> np.ndarray:
    """b[j,i] = integral grad f . grad (hat_i hat_j), assembled from f alone.

    The x-derivative of the hat at node i is +-1/hx on the two adjacent
    columns, so the x-integral of df/dx against it telescopes exactly to
    values of f on the vertical grid lines:

        b_x[i,j] = (1/hx) * int e_j(y) (2 f(x_i,y) - f(x_{i-1},y) - f(x_{i+1},y)) dy.

    Only the transverse hat integral needs quadrature (Gauss per y-element,
    exact once f restricted to a grid line is piecewise polynomial of
    moderate degree).  The y-part mirrors this along horizontal lines.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    b = np.zeros((ny, nx))

    # x-part: loop vertical lines x = x_i; scatter +2/hx to node column i
    # and -1/hx to columns i-1, i+1 (telescoped df/dx integral).
    ty, wy = _gauss_rule(0.0, hy)
    for jseg in range(ny):  # y-element (jseg, jseg+1)
        ys = jseg * hy + ty
        phi0 = 1.0 - ty / hy  # hat at node jseg along this element
        phi1 = ty / hy        # hat at node jseg+1
        for iline in range(nx):
            xv = iline * hx
            fv = f(xv, ys)
            s0 = float(np.dot(wy, fv * phi0))
            s1 = float(np.dot(wy, fv * phi1))
            b[jseg, iline] += (s0 / hx) * 2.0
            b[(jseg + 1) % ny, iline] += (s1 / hx) * 2.0
            b[jseg, (iline - 1) % nx] -= s0 / hx
            b[(jseg + 1) % ny, (iline - 1) % nx] -= s1 / hx
            b[jseg, (iline + 1) % nx] -= s0 / hx
            b[(jseg + 1) % ny, (iline + 1) % nx] -= s1 / hx

    # y-part, mirrored
    tx, wx = _gauss_rule(0.0, hx)
    for iseg in range(nx):
        xs = iseg * hx + tx
        phi0 = 1.0 - tx / hx
        phi1 = tx / hx
        for jline in range(ny):
            yv = jline * hy
            fv = f(xs, yv)
            s0 = float(np.dot(wx, fv * phi0))
            s1 = float(np.dot(wx, fv * phi1))
            b[jline, iseg] += (s0 / hy) * 2.0
            b[jline, (iseg + 1) % nx] += (s1 / hy) * 2.0
            b[(jline - 1) % ny, iseg] -= s0 / hy
            b[(jline - 1) % ny, (iseg + 1) % nx] -= s1 / hy
            b[(jline + 1) % ny, iseg] -= s0 / hy
            b[(jline + 1) % ny, (iseg + 1) % nx] -= s1 / hy

    return b


def integrate_function(grid: Grid, f, n_gauss: int = _GAUSS_N) -> float:
    """Tensor Gauss quadrature of a callable over the whole domain."""
    tx, wx = _gauss_rule(0.0, grid.hx, n_gauss)
    ty, wy = _gauss_rule(0.0, grid.hy, n_gauss)
    total = 0.0
    for jc in range(grid.ny):
        ys = jc * grid.hy + ty
        for ic in range(grid.nx):
            xs = ic * grid.hx + tx
            vals = np.broadcast_to(np.asarray(f(xs[None, :], ys[:, None]), dtype=float),
                                   (len(ty), len(tx)))
            total += float(wy @ vals @ wx)
    return total


def ritz_projection(grid: Grid, f, tol: float = 1e-13) -> Field:
    """H1-projection onto the FE space with matching mean.

    Solves the periodic consistent-stiffness system for the gradient match
    against all test functions, gauged by zero mean, then shifts so the
    integral equals the integral of f.  CG on the zero-mean subspace with
    relative residual ``tol`` (kept a decade below the 1e-12 the projection
    itself is expected to honor), at most 10*nx*ny iterations.
    """
    b = _ritz_rhs(grid, f)
    b -= b.mean()  # gauge (analytically zero-sum; remove quadrature roundoff)
    n = grid.n_nodes

    def matvec(v):
        z = stiffness_apply(v.reshape(grid.ny, grid.nx), grid)
        return (z - z.mean()).ravel()

    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    sol, info = cg(op, b.ravel(), rtol=tol, atol=0.0, maxiter=10 * n)
    if info != 0:
        raise SolverError(f"CG on the gauged stiffness system failed (info={info})")
    z = sol.reshape(grid.ny, grid.nx)
    z -= z.mean()
    mean_f = integrate_function(grid, f) / (grid.Lx * grid.Ly)
    return Field(grid, z + mean_f)
