import numpy as np
import pytest

from conftest import positive_field
from stfe2d import fem, oracle, scheme
from stfe2d.grid import Field, Grid
from stfe2d.noise import basis_eval


def test_check_suite_is_green():
    for res in oracle.run_checks(n_fields=20):
        assert res.passed, f"{res.name}: {res.detail}"


def test_dense_size_guard():
    grid = Grid(10, 10, 1.0, 1.0)
    with pytest.raises(oracle.SizeError):
        oracle.dense_lumped_integral(np.ones((10, 10)), grid)


def test_dense_lumped_integral_matches_fast(rng, grid65):
    v = rng.standard_normal((5, 6))
    dense = oracle.dense_lumped_integral(v, grid65)
    fast = fem.lumped_integral(v, grid65)
    assert dense == pytest.approx(fast, abs=1e-13)


def test_pressure_residual_constant_case(mat, grid65):
    u = Field.constant(grid65, 1.2)
    p = u.with_values(scheme.pressure_values(u.values, mat, grid65))
    assert oracle.dense_weak_residual(u, p, mat) <= 1e-13


def test_pressure_residual_detects_perturbation(mat, rng):
    grid = Grid(6, 6, 1.0, 1.0)
    u = Field(grid, 1.0 + rng.uniform(-0.05, 0.05, (6, 6)))
    p = scheme.pressure_values(u.values, mat, grid)
    p[3, 2] += 1e-3
    res = oracle.dense_weak_residual(u, Field(grid, p), mat)
    assert res >= 1e-4 * grid.cell_area


def test_z_table_constant_mode_is_scaled_central_difference():
    grid = Grid(5, 5, 1.0, 1.0)
    tx, _ = oracle.dense_Z_table(grid, 0, 0)
    g00 = 1.0 / np.sqrt(grid.Lx * grid.Ly)
    n = grid.n_nodes
    expected = np.zeros((n, n))
    for j in range(5):
        for i in range(5):
            row = j * 5 + i
            expected[row, j * 5 + (i + 1) % 5] += g00 / (2 * grid.hx)
            expected[row, j * 5 + (i - 1) % 5] -= g00 / (2 * grid.hx)
    assert np.abs(tx - expected).max() <= 1e-13


def test_z_table_linearity_and_conservation(rng):
    grid = Grid(5, 4, 1.0, 1.0)
    tx, ty = oracle.dense_Z_table(grid, 2, -1)
    assert np.abs(tx @ np.zeros(grid.n_nodes)).max() == 0.0
    # column sums vanish: the lumped sum of the operator output is zero
    assert np.abs(tx.sum(axis=0)).max() <= 1e-13
    assert np.abs(ty.sum(axis=0)).max() <= 1e-13


def test_z_weak_entries_match_gauss_quadrature(rng):
    grid = Grid(4, 4, 1.0, 1.0)
    u = positive_field(rng, grid)
    w = basis_eval(1, -1, grid).values
    dense = oracle.dense_z_apply(u.values, w, grid, "x")
    for (i, j) in ((0, 0), (2, 1), (3, 3)):
        gauss = oracle.dense_z_gauss(u.values, w, grid, "x", i, j)
        assert gauss == pytest.approx(dense[j, i], abs=1e-13)
    dense_y = oracle.dense_z_apply(u.values, w, grid, "y")
    gauss_y = oracle.dense_z_gauss(u.values, w, grid, "y", 1, 2)
    assert gauss_y == pytest.approx(dense_y[2, 1], abs=1e-13)


def test_fast_ops_match_dense_on_all_small_grids(mat, rng):
    # spot version of the blanket dense-equivalence property
    for nx, ny in ((4, 4), (5, 6), (8, 8)):
        grid = Grid(nx, ny, 1.0, 1.0)
        for _ in range(10):
            u = Field(grid, 1.0 + rng.uniform(-0.05, 0.05, (ny, nx)))
            p = u.with_values(scheme.pressure_values(u.values, mat, grid))
            assert oracle.dense_weak_residual(u, p, mat) <= 1e-12
            assert oracle.dense_drift_residual(u, mat) <= 1e-12
