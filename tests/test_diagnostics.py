import numpy as np
import pytest

from conftest import positive_field
from stfe2d import diagnostics, fem, oracle, scheme
from stfe2d.grid import Field, Grid
from stfe2d.material import PositivityError



def test_energy_constant_film(mat):
    grid = Grid(8, 8, 1.0, 1.0)
    parts = diagnostics.energy_h(Field.constant(grid, 1.0), mat)
    assert parts.dirichlet == 0.0
    assert parts.curvature == 0.0
    assert parts.potential == pytest.approx(grid.Lx * grid.Ly, rel=1e-14)
    assert parts.total == pytest.approx(grid.Lx * grid.Ly, rel=1e-14)


def test_energy_rejects_a_nan_node(mat):
    values = np.ones((8, 8))
    values[3, 5] = np.nan
    with pytest.raises(PositivityError):
        diagnostics.energy_h(Field(Grid(8, 8, 1.0, 1.0), values), mat)


def test_energy_parts_against_dense_quadrature(mat, rng):
    grid = Grid(5, 5, 1.0, 1.0)
    u = positive_field(rng, grid)
    parts = diagnostics.energy_h(u, mat)
    v = u.values
    e_dir = 0.5 * (oracle.dense_dirichlet(v, v, grid, -1)
                   + oracle.dense_dirichlet(v, v, grid, -2))
    e_pot = oracle.dense_lumped_integral(mat.potential_F(v), grid)
    lap = fem.lap(v, grid)
    e_curv = 0.5 * scheme.mesh_weight(grid, mat.eps) \
        * oracle.dense_lumped_integral(lap**2, grid)
    assert parts.dirichlet == pytest.approx(e_dir, rel=1e-12)
    assert parts.potential == pytest.approx(e_pot, rel=1e-12)
    assert parts.curvature == pytest.approx(e_curv, rel=1e-12)
    assert parts.total == pytest.approx(e_dir + e_pot + e_curv, rel=1e-12)


def test_entropy_values(mat):
    grid = Grid(6, 6, 1.0, 1.0)
    assert diagnostics.entropy_h(Field.constant(grid, 1.0), mat) == 0.0
    s2 = diagnostics.entropy_h(Field.constant(grid, 2.0), mat)
    assert s2 == pytest.approx(grid.Lx * grid.Ly * (1.0 - np.log(2.0)), rel=1e-14)


def test_entropy_nonnegative(mat, rng, grid65):
    for _ in range(20):
        assert diagnostics.entropy_h(positive_field(rng, grid65), mat) >= 0.0


def test_r_functional(mat):
    grid = Grid(6, 6, 1.0, 1.0)
    u = Field.constant(grid, 1.0)
    assert diagnostics.r_functional(u, mat, 1.0, 1.0) == pytest.approx(
        1.0 + grid.Lx * grid.Ly, rel=1e-14)
    with pytest.raises(ValueError):
        diagnostics.r_functional(u, mat, alpha=0.0)


def test_r_functional_lower_bound_and_kappa_monotonicity(mat, rng, grid65):
    u = positive_field(rng, grid65)
    alpha = 1.3
    r1 = diagnostics.r_functional(u, mat, alpha, 1.0)
    r2 = diagnostics.r_functional(u, mat, alpha, 2.0)
    assert r1 >= alpha
    assert r2 >= r1  # entropy positive for non-constant positive fields


def test_oscillation_constant_and_checkerboard():
    grid = Grid(4, 4, 1.0, 1.0)
    assert diagnostics.oscillation_ratio(Field.constant(grid, 0.7)) == 1.0
    i, j = np.meshgrid(np.arange(4), np.arange(4))
    board = np.where((i + j) % 2 == 0, 1.0, 2.0)
    assert diagnostics.oscillation_ratio(Field(grid, board)) == pytest.approx(2.0)


def test_oscillation_matches_exhaustive_scan(rng, grid44):
    u = positive_field(rng, grid44)
    v = u.values
    worst = 0.0
    for j in range(4):
        for i in range(4):
            for dj in (-1, 0, 1):
                for di in (-1, 0, 1):
                    worst = max(worst, v[j, i] / v[(j + dj) % 4, (i + di) % 4])
    assert diagnostics.oscillation_ratio(u) == pytest.approx(worst, rel=1e-15)


def test_oscillation_needs_positive(grid44):
    with pytest.raises(ValueError):
        diagnostics.oscillation_ratio(Field(grid44, np.zeros((4, 4))))


def test_threshold_energy_formula(mat):
    grid = Grid(32, 32, 1.0, 1.0)
    expected = 2.5 * grid.h ** (-mat.rho / (2.0 + mat.p))
    assert diagnostics.threshold_energy(grid, mat, 2.5) == pytest.approx(expected)


def test_record_invariants(mat, rng, grid65):
    u = positive_field(rng, grid65)
    rec = diagnostics.make_record(u.values, u.grid, mat, t=0.25, stopped=False, alpha=2.0, kappa=3.0)
    assert rec.E_total == pytest.approx(rec.E_dir + rec.E_pot + rec.E_curv, rel=1e-14)
    assert rec.R == pytest.approx(2.0 + rec.E_total + 3.0 * rec.S, rel=1e-14)
    assert rec.u_min == u.min() and rec.u_max == u.max()
    assert rec.mass == pytest.approx(fem.lumped_integral(u.values, grid65), rel=1e-15)
    assert not rec.stopped
