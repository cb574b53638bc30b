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

from .grid import Field, Grid


# ---------------------------------------------------------------------------
# periodic shifts and difference quotients
# ---------------------------------------------------------------------------

def shift(values: np.ndarray, offset: int, axis: int,
          out: np.ndarray | None = None) -> np.ndarray:
    """``np.roll(values, offset, axis)`` along a grid axis by two slices,
    without np.roll's per-call overhead: shift(v, -1, -1)[..., j, i] =
    v[..., j, i+1] (periodic).  ``axis`` is -1 (x) or -2 (y); leading
    (replica) axes ride along.  Written into ``out`` when given (which must
    not overlap ``values``)."""
    if axis not in (-1, -2):
        raise ValueError(f"shift axis must be -1 (x) or -2 (y), got {axis!r}")
    k = -offset % values.shape[axis]
    if axis == -1:
        return np.concatenate((values[..., k:], values[..., :k]), axis=-1, out=out)
    return np.concatenate((values[..., k:, :], values[..., :k, :]), axis=-2, out=out)


def second_difference(ahead: np.ndarray, centre: np.ndarray, behind: np.ndarray,
                      h: float, out: np.ndarray | None = None) -> np.ndarray:
    """3-point stencil (ahead - 2 centre + behind) / h^2 from given neighbors,
    evaluated in that order in one output array (``out`` when given)."""
    out = np.multiply(centre, 2.0, out=out)
    np.subtract(ahead, out, out=out)
    out += behind
    out /= h**2
    return out


def dq_plus(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """(f[i+1] - f[i]) / h along ``axis`` (-1: x, -2: y) with periodic wrap;
    lives on the edge (i+1/2) in that direction."""
    return (shift(values, -1, axis) - values) / (grid.hx if axis == -1 else grid.hy)


def dq_minus(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    return (values - shift(values, 1, axis)) / (grid.hx if axis == -1 else grid.hy)


# ---------------------------------------------------------------------------
# discrete Laplacian
# ---------------------------------------------------------------------------

def lap(values: np.ndarray, grid: Grid, out: np.ndarray | None = None,
        tmp: tuple | None = None) -> np.ndarray:
    """The discrete Laplacian, the x stencil plus the y stencil; into
    ``out`` with the three scratch arrays ``tmp`` when given."""
    a, b, c = (None, None, None) if tmp is None else tmp
    out = second_difference(shift(values, -1, -1, a), values, shift(values, 1, -1, b),
                            grid.hx, out)
    out += second_difference(shift(values, -1, -2, a), values, shift(values, 1, -2, b),
                             grid.hy, c)
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


def node_min(values: np.ndarray):
    """Minimum over the two grid axes, shaped like ``node_sum`` (NaN propagates)."""
    return _per_field(values.reshape(*values.shape[:-2], -1).min(-1))


def lumped_integral(values: np.ndarray, grid: Grid):
    """hx*hy * sum of nodal values; exact integral of the nodal interpolant."""
    return grid.cell_area * node_sum(values)


def inner_h(a: np.ndarray, b: np.ndarray, grid: Grid, out: np.ndarray | None = None):
    """Lumped inner product; the product a*b goes into ``out`` when given."""
    return grid.cell_area * node_sum(np.multiply(a, b, out=out))


# ---------------------------------------------------------------------------
# directional Dirichlet forms
# ---------------------------------------------------------------------------

def dirichlet(f: np.ndarray, g: np.ndarray, grid: Grid, axis: int,
              edge_weight: np.ndarray | None = None) -> float:
    """Lumped-transverse, exact-along-``axis`` form:
    hx*hy * sum_edges w * dq+(f) * dq+(g).

    ``edge_weight`` holds edge-centered coefficients (for axis -1, entry
    [j, i] is attached to the x-edge between nodes i and i+1 at row j);
    None means w = 1.
    """
    prod = dq_plus(f, grid, axis) * dq_plus(g, grid, axis)
    if edge_weight is not None:
        prod = edge_weight * prod
    return grid.cell_area * float(prod.sum())


# ---------------------------------------------------------------------------
# Ritz projection
# ---------------------------------------------------------------------------

def gauss_rule(n: int = 8, h: float = 1.0):
    """The n-point Gauss-Legendre points and weights on (0, h)."""
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * h * (t + 1.0), 0.5 * h * w


def _ritz_rhs(grid: Grid, f) -> np.ndarray:
    """b[j,i] = integral grad f . grad (hat_i hat_j), assembled from f alone.

    The x-derivative of the hat at node i is +-1/hx on the two adjacent
    columns, so the x-integral of df/dx against it telescopes exactly to
    values of f on the vertical grid lines:

        b_x[i,j] = (1/hx) * int e_j(y) (2 f(x_i,y) - f(x_{i-1},y) - f(x_{i+1},y)) dy.

    Only the transverse hat integral needs quadrature (Gauss per y-element,
    exact once f restricted to a grid line is piecewise polynomial of
    moderate degree).  The y-part mirrors this along horizontal lines.
    Each part evaluates f once, on all lines and elements together.
    """
    x, y = grid.node_coords()
    hx, hy = grid.hx, grid.hy
    tx, wx = gauss_rule(h=hx)
    ty, wy = gauss_rule(h=hy)

    def line_loads(vals, t, w, h, axis):
        # hat integrals of f along each element (last axis: Gauss points),
        # summed onto the element's two end nodes along ``axis``
        s0 = vals @ (w * (1.0 - t / h))
        s1 = vals @ (w * (t / h))
        return s0 + shift(s1, 1, axis)

    def telescope(e, h, axis):
        return (2.0 * e - shift(e, -1, axis) - shift(e, 1, axis)) / h

    # x-part: f on the vertical lines x = x_i at the Gauss points of each
    # y-element; y-part mirrored on the horizontal lines y = y_j
    fx = np.broadcast_to(f(x[..., None], y[..., None] + ty), (grid.ny, grid.nx, len(ty)))
    fy = np.broadcast_to(f(x[..., None] + tx, y[..., None]), (grid.ny, grid.nx, len(tx)))
    b = telescope(line_loads(fx, ty, wy, hy, -2), hx, -1)
    b += telescope(line_loads(fy, tx, wx, hx, -1), hy, -2)
    return b


def integrate_function(grid: Grid, f) -> float:
    """Tensor Gauss quadrature of a callable over the whole domain.

    ``f(x, y)`` is called once on broadcastable coordinate arrays holding
    the Gauss points of every cell, so it must act elementwise on arrays.
    """
    tx, wx = gauss_rule(h=grid.hx)
    ty, wy = gauss_rule(h=grid.hy)
    x, y = grid.node_coords()
    # axes (cell row, y point, cell column, x point)
    vals = np.broadcast_to(f((x[..., None] + tx)[:, None], (y + ty)[..., None, None]),
                           (grid.ny, len(ty), grid.nx, len(tx)))
    return float(np.einsum("jqir,q,r->", vals, wy, wx))


def ritz_projection(grid: Grid, f) -> Field:
    """H1-projection onto the FE space with matching mean.

    Solves the periodic consistent-stiffness system for the gradient match
    against all test functions, gauged by zero mean, then shifts so the
    integral equals the integral of f.  The stiffness K = Kx (x) My +
    Mx (x) Ky, with 1D P1 stiffness (1/h)[-1, 2, -1] and consistent mass
    (h/6)[1, 4, 1], is circulant, so the 2D DFT diagonalizes it; its symbol
    vanishes only on the constant mode, which the gauge sets to zero.
    ``f(x, y)`` must act elementwise on broadcastable arrays.
    """
    hx, hy = grid.hx, grid.hy
    cx = np.cos(2.0 * np.pi * np.fft.rfftfreq(grid.nx))
    cy = np.cos(2.0 * np.pi * np.fft.fftfreq(grid.ny))[:, None]
    symbol = ((2.0 - 2.0 * cx) / hx * hy * (4.0 + 2.0 * cy) / 6.0
              + hx * (4.0 + 2.0 * cx) / 6.0 * (2.0 - 2.0 * cy) / hy)
    symbol[0, 0] = 1.0
    z_hat = np.fft.rfft2(_ritz_rhs(grid, f)) / symbol
    z_hat[0, 0] = 0.0
    z = np.fft.irfft2(z_hat, s=(grid.ny, grid.nx))
    mean_f = integrate_function(grid, f) / (grid.Lx * grid.Ly)
    return Field(grid, z + mean_f)
