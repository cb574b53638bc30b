import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interpolant_evaluator
from stfe2d import fem, oracle
from stfe2d.grid import Field, Grid


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("axis", ["Lx", "Ly"])
def test_grid_rejects_non_finite_lengths(axis, bad):
    lengths = {"Lx": 1.0, "Ly": 1.0, axis: bad}
    with pytest.raises(ValueError, match="domain lengths"):
        Grid(4, 4, **lengths)


# ---------------------------------------------------------------------------
# periodic shifts and difference quotients
# ---------------------------------------------------------------------------

def test_shift_matches_np_roll(rng):
    a = rng.standard_normal((5, 7))
    for axis in (-2, -1):
        for offset in (-8, -1, 0, 1, 3, 7):
            out = fem.shift(a, offset, axis)
            assert out.flags.c_contiguous
            assert np.array_equal(out, np.roll(a, offset, axis=axis))
    stack = rng.standard_normal((3, 5, 7))
    for axis in (-2, -1):
        for offset in (-1, 1, 6):
            assert np.array_equal(fem.shift(stack, offset, axis),
                                  np.roll(stack, offset, axis=axis))
    # only the two grid axes: a leading (replica) axis is never shifted
    for bad in (0, 1, 2, -3):
        with pytest.raises(ValueError, match="axis"):
            fem.shift(stack, 1, bad)


def test_dq_constant_field_is_zero(grid44):
    v = Field.constant(grid44, 5.0).values
    for dq in (fem.dq_plus, fem.dq_minus):
        for axis in (-1, -2):
            assert np.all(dq(v, grid44, axis) == 0.0)


def test_dq_linear_ramp_interior(grid44):
    g = grid44
    vals = np.tile(np.arange(4) * g.hx, (4, 1))
    for axis, ramp in ((-1, vals), (-2, vals.T)):
        dq = fem.dq_plus(ramp, g, axis)
        interior = dq[:, :3] if axis == -1 else dq[:3, :]  # wrap column (row) excluded
        assert np.abs(interior - 1.0).max() <= 1e-14


def test_dq_matches_bruteforce_shift_table(grid44, rng):
    # oracle: dense index arithmetic, no vectorized shifts
    v, hx, hy = rng.standard_normal((4, 4)), grid44.hx, grid44.hy
    xp, xm = fem.dq_plus(v, grid44, -1), fem.dq_minus(v, grid44, -1)
    yp, ym = fem.dq_plus(v, grid44, -2), fem.dq_minus(v, grid44, -2)
    for j in range(4):
        for i in range(4):
            assert xp[j, i] == (v[j, (i + 1) % 4] - v[j, i]) / hx
            assert xm[j, i] == (v[j, i] - v[j, (i - 1) % 4]) / hx
            assert yp[j, i] == (v[(j + 1) % 4, i] - v[j, i]) / hy
            assert ym[j, i] == (v[j, i] - v[(j - 1) % 4, i]) / hy


def test_dq_composition_gives_directional_laplacian(grid65, rng):
    v = rng.standard_normal((5, 6))
    g = grid65
    stencils = []
    for axis, h in ((-1, g.hx), (-2, g.hy)):
        a = fem.dq_plus(fem.dq_minus(v, g, axis), g, axis)
        b = fem.dq_minus(fem.dq_plus(v, g, axis), g, axis)
        stencil = fem.second_difference(fem.shift(v, -1, axis), v, fem.shift(v, 1, axis), h)
        scale = np.abs(stencil).max()
        assert np.abs(a - stencil).max() <= 1e-15 * scale
        assert np.abs(b - stencil).max() <= 1e-15 * scale
        stencils.append(stencil)
    assert np.array_equal(stencils[0] + stencils[1], fem.lap(v, g))


# ---------------------------------------------------------------------------
# discrete Laplacian / bi-Laplacian
# ---------------------------------------------------------------------------

def test_lap_annihilates_constants(grid65):
    v = Field.constant(grid65, 3.3).values
    assert np.all(fem.lap(v, grid65) == 0.0)
    assert np.all(fem.lap(fem.lap(v, grid65), grid65) == 0.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lap_cosine_eigenfield(k):
    grid = Grid(16, 16, 2.0, 2.0)
    x, _ = grid.node_coords()
    f = Field(grid, np.tile(np.cos(2 * np.pi * k * x / grid.Lx), (grid.ny, 1)))
    mu = -(4.0 / grid.hx**2) * np.sin(np.pi * k * grid.hx / grid.Lx) ** 2
    out = fem.lap(f.values, grid)
    assert np.abs(out - mu * f.values).max() <= 1e-12 * abs(mu)


def test_lap_weak_form_against_dense_oracle(rng):
    grid = Grid(5, 5, 1.0, 1.0)
    f = rng.standard_normal((5, 5))
    g = rng.standard_normal((5, 5))
    lhs = fem.inner_h(-fem.lap(f, grid), g, grid)
    rhs = oracle.dense_dirichlet(f, g, grid, -1) + oracle.dense_dirichlet(f, g, grid, -2)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_bilap_eigenvalue_and_symmetry(rng):
    grid = Grid(12, 12, 1.0, 1.0)
    x, _ = grid.node_coords()
    k = 2
    f = Field(grid, np.tile(np.cos(2 * np.pi * k * x / grid.Lx), (grid.ny, 1)))
    mu = -(4.0 / grid.hx**2) * np.sin(np.pi * k * grid.hx / grid.Lx) ** 2
    out = fem.lap(fem.lap(f.values, grid), grid)
    assert np.abs(out - mu**2 * f.values).max() <= 1e-10 * mu**2

    a = rng.standard_normal((12, 12))
    b = rng.standard_normal((12, 12))
    lhs = fem.inner_h(fem.lap(fem.lap(a, grid), grid), b, grid)
    mid = fem.inner_h(fem.lap(a, grid), fem.lap(b, grid), grid)
    assert abs(lhs - mid) <= 1e-12 * max(abs(lhs), abs(mid))


def test_lap_has_zero_lumped_mean(rng, grid65):
    v = rng.standard_normal((5, 6))
    total = fem.lumped_integral(fem.lap(v, grid65), grid65)
    assert abs(total) <= 1e-12 * np.abs(fem.lap(v, grid65)).max()


# ---------------------------------------------------------------------------
# lumped integrals
# ---------------------------------------------------------------------------

def test_lumped_integral_constant(grid65):
    v = Field.constant(grid65, 1.0).values
    assert fem.lumped_integral(v, grid65) == pytest.approx(grid65.Lx * grid65.Ly, rel=1e-14)


def test_lumped_integral_single_spike(grid44):
    v = np.zeros((4, 4))
    v[2, 1] = 1.0
    assert fem.lumped_integral(v, grid44) == pytest.approx(
        grid44.cell_area, rel=1e-14)


def test_lumped_integral_matches_gauss_quadrature(grid44, rng):
    # oracle: 2x2 Gauss quadrature of the bilinear interpolant per cell
    f = Field(grid44, rng.standard_normal((4, 4)))
    t, w = np.polynomial.legendre.leggauss(2)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    ev = interpolant_evaluator(f)
    total = 0.0
    for jc in range(4):
        for ic in range(4):
            for a, wa in zip(t, w):
                for b, wb in zip(t, w):
                    total += (grid44.cell_area * wa * wb
                              * ev((ic + a) * grid44.hx, (jc + b) * grid44.hy))
    assert fem.lumped_integral(f.values, grid44) == pytest.approx(total, abs=1e-13)


# ---------------------------------------------------------------------------
# Dirichlet forms
# ---------------------------------------------------------------------------

def test_dirichlet_zero_for_constant_direction(grid65, rng):
    c = Field.constant(grid65, 2.0)
    g = Field(grid65, rng.standard_normal((5, 6)))
    a = Field(grid65, rng.uniform(0.5, 1.5, (5, 6)))
    for axis in (-1, -2):
        assert fem.dirichlet(c.values, g.values, grid65, axis, a.values) == 0.0
        assert fem.dirichlet(c.values, g.values, grid65, axis) == 0.0


def test_dirichlet_single_hat_hand_value():
    grid = Grid(4, 4, 1.0, 1.0)
    v = np.zeros((4, 4))
    v[1, 1] = 1.0  # one nodal hat
    # d+x of the hat: +1/hx on edge (0,1) row 1, -1/hx on edge (1,2) row 1;
    # d+y mirrors it on the square grid
    expected = grid.cell_area * 2.0 / grid.hx**2
    for axis in (-1, -2):
        assert fem.dirichlet(v, v, grid, axis) == pytest.approx(expected, rel=1e-14)


def test_dirichlet_weighted_matches_dense(rng, grid44):
    f = rng.standard_normal((4, 4))
    g = rng.standard_normal((4, 4))
    a = rng.uniform(0.5, 2.0, (4, 4))  # edge-centered weights
    for axis in (-1, -2):
        fast = fem.dirichlet(f, g, grid44, axis, a)
        dense = oracle.dense_dirichlet(f, g, grid44, axis, a)
        assert abs(fast - dense) <= 1e-12 * max(abs(fast), abs(dense), 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_summation_by_parts_property(seed):
    rng = np.random.default_rng(seed)
    grid = Grid(5, 4, 1.3, 0.9)
    f = rng.standard_normal((4, 5))
    g = rng.standard_normal((4, 5))
    lhs = fem.inner_h(-fem.lap(f, grid), g, grid)
    rhs = fem.dirichlet(f, g, grid, -1) + fem.dirichlet(f, g, grid, -2)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


# ---------------------------------------------------------------------------
# Ritz projection
# ---------------------------------------------------------------------------

def test_ritz_constant_is_reproduced():
    grid = Grid(12, 10, 1.0, 0.7)
    out = fem.ritz_projection(grid, lambda x, y: 4.2 + 0.0 * x + 0.0 * y)
    assert np.abs(out.values - 4.2).max() <= 1e-12


def test_ritz_is_identity_on_fe_space(rng):
    grid = Grid(12, 12, 1.0, 1.0)
    uh = Field(grid, rng.standard_normal((12, 12)))
    out = fem.ritz_projection(grid, interpolant_evaluator(uh))
    assert np.abs(out.values - uh.values).max() <= 1e-12


def test_ritz_convergence_rates():
    from stfe2d.harness import refinement_study
    table = refinement_study("ritz", [8, 16, 32, 64])
    assert table.slopes["l2"] == pytest.approx(2.0, abs=0.2)
    assert table.slopes["h1"] == pytest.approx(1.0, abs=0.2)


# ---------------------------------------------------------------------------
# norm equivalence, embedding monitors, interpolation of compositions
# ---------------------------------------------------------------------------

def _true_lp_norm(field, p, n_gauss=4):
    ev = interpolant_evaluator(field)
    g = field.grid
    t, w = np.polynomial.legendre.leggauss(n_gauss)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    total = 0.0
    for jc in range(g.ny):
        ys = (jc + t) * g.hy
        for ic in range(g.nx):
            xs = (ic + t) * g.hx
            vals = np.abs(ev(xs[None, :], ys[:, None])) ** p
            total += g.cell_area * float(w @ vals @ w)
    return total ** (1.0 / p)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_norm_equivalence_ratio_stable_under_refinement(p):
    def smooth(x, y):
        return 1.5 + np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)

    ratios = []
    for n in (8, 16, 32):
        grid = Grid(n, n, 1.0, 1.0)
        f = Field.from_function(grid, smooth)
        lumped = fem.lumped_integral(np.abs(f.values) ** p, grid) ** (1.0 / p)
        ratios.append(lumped / _true_lp_norm(f, p))
    spread = max(ratios) / min(ratios) - 1.0
    assert spread < 0.05


def test_discrete_gagliardo_nirenberg_monitor():
    # the embedding ratio should stay bounded along refinement for a fixed
    # smooth family; no sharp constant is asserted
    def smooth(x, y):
        return np.sin(2 * np.pi * x) * np.sin(4 * np.pi * y)

    ratios = []
    for n in (8, 16, 32, 64):
        grid = Grid(n, n, 1.0, 1.0)
        f = Field.from_function(grid, smooth)
        sup = np.abs(f.values).max()
        h1 = np.sqrt(fem.inner_h(f.values, f.values, grid)
                     + fem.dirichlet(f.values, f.values, grid, -1)
                     + fem.dirichlet(f.values, f.values, grid, -2))
        lap_f = fem.lap(f.values, grid)
        lap_norm = np.sqrt(fem.inner_h(lap_f, lap_f, grid))
        ratios.append(sup / (lap_norm**0.25 * h1**0.75 + h1))
    assert max(ratios) <= 2.0 * ratios[0]
    assert max(ratios) <= 1.0  # generous frozen cap for this family


def test_interpolation_error_of_lipschitz_composition_is_first_order():
    # || I_h^xy{ G(u_h) } - G(u_h) ||_L2 = O(h) for Lipschitz G on the range
    def smooth(x, y):
        return 1.5 + 0.4 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)

    def G(s):
        return (s - 1.0) - np.log(s)

    errs, hs = [], []
    t, w = np.polynomial.legendre.leggauss(4)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    for n in (8, 16, 32):
        grid = Grid(n, n, 1.0, 1.0)
        u = Field.from_function(grid, smooth)
        gu = Field(grid, G(u.values))  # nodal interpolant of the composition
        ev_u = interpolant_evaluator(u)
        ev_gu = interpolant_evaluator(gu)
        total = 0.0
        for jc in range(n):
            ys = (jc + t) * grid.hy
            for ic in range(n):
                xs = (ic + t) * grid.hx
                diff = ev_gu(xs[None, :], ys[:, None]) - G(ev_u(xs[None, :], ys[:, None]))
                total += grid.cell_area * float(w @ diff**2 @ w)
        errs.append(np.sqrt(total))
        hs.append(grid.hx)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 0.8
