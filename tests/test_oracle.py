import numpy as np
import pytest

from conftest import positive_field
from stfe2d import fem, oracle, scheme
from stfe2d.grid import Field, Grid
from stfe2d.noise import basis_eval


def test_check_suite_is_green():
    for res in oracle.run_checks(n_fields=20):
        assert res.passed, f"{res.name}: {res.detail}"


def test_dense_laplacian_is_built_once_per_grid_and_read_only():
    lap = oracle.dense_lap_matrix(Grid(4, 3, 1.0, 0.75))
    assert oracle.dense_lap_matrix(Grid(4, 3, 1.0, 0.75)) is lap
    assert oracle.dense_lap_matrix(Grid(4, 3, 1.0, 1.0)) is not lap
    with pytest.raises(ValueError):
        lap[0, 0] = 1.0


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
    dense = oracle.dense_z_apply(u.values, w, grid, -1)
    for (i, j) in ((0, 0), (2, 1), (3, 3)):
        gauss = oracle.dense_z_gauss(u.values, w, grid, -1, i, j)
        assert gauss == pytest.approx(dense[j, i], abs=1e-13)
    dense_y = oracle.dense_z_apply(u.values, w, grid, -2)
    gauss_y = oracle.dense_z_gauss(u.values, w, grid, -2, 1, 2)
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


def _rel_gap(fast, dense):
    fast, dense = np.asarray(fast), np.asarray(dense)
    scale = max(float(np.abs(fast).max()), float(np.abs(dense).max()), 1.0)
    return float(np.abs(fast - dense).max()) / scale


@pytest.mark.parametrize("grid", [Grid(7, 5, 1.0, 0.6), Grid(5, 8, 0.5, 0.9)],
                         ids=["7x5", "5x8"])
def test_fast_ops_match_dense_on_non_square_grids(grid, mat, rng):
    # hx != hy, so a step taken along the wrong axis shows in every form
    u = positive_field(rng, grid).values
    g = rng.standard_normal((grid.ny, grid.nx))
    a = rng.uniform(0.5, 2.0, (grid.ny, grid.nx))  # edge-centered weights
    w = basis_eval(1, -1, grid).values
    for axis in (-1, -2):
        assert _rel_gap(scheme.z_apply(u, w, grid, axis),
                        oracle.dense_z_apply(u, w, grid, axis)) <= 1e-12
        assert _rel_gap(fem.dirichlet(u, g, grid, axis, a),
                        oracle.dense_dirichlet(u, g, grid, axis, a)) <= 1e-12
    assert _rel_gap(-fem.lap(g, grid), oracle.dense_neg_lap(g, grid)) <= 1e-12
    # the relative drift residual of the check suite, with its bound
    terms = scheme.state_terms(u, mat, grid)
    fast = grid.cell_area * terms.drift
    rhs = oracle.dense_drift_rhs(u, terms.pressure, grid)
    scale = max(float(np.abs(fast).max()), float(np.abs(rhs).max()), 1e-30)
    assert float(np.abs(fast - rhs).max()) / scale <= 1e-14
