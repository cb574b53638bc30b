"""The periodic grid's symmetries act on deterministic runs.

With the noise off (lambda0 = 0) a run commutes with the shifts, the
reflections i -> -i and j -> -j (mod n) and the transposition of the grid.
Every stencil reads its neighbours in a fixed order, so the shifts and the
transposition hold bit for bit and are compared with ``np.array_equal``.
The reflections hold to rounding only: the 3-point stencil evaluates
(ahead - 2 centre) + behind, which a reflection turns into
(behind - 2 centre) + ahead.  Nodal sums (mass, energy) run in memory
order, so a mapped run's records agree with the original's to rounding.
"""

import numpy as np
import pytest

from conftest import positive_field
from stfe2d.grid import Field, Grid
from stfe2d.integrator import RunConfig, run, run_replicas, stable_dt
from stfe2d.noise import NoiseModel, PowerLawSchedule

NOISE_OFF = NoiseModel(PowerLawSchedule(lambda0=0.0), seed=0)

EXACT_MAPS = {
    "shift_x3": lambda v: np.roll(v, 3, axis=-1),
    "shift_y5": lambda v: np.roll(v, 5, axis=-2),
    "transpose": lambda v: np.swapaxes(v, -1, -2),
}
REFLECTIONS = {
    "reflect_x": lambda v: np.roll(v[..., ::-1], 1, axis=-1),  # i -> -i (mod nx)
    "reflect_y": lambda v: np.roll(v[..., ::-1, :], 1, axis=-2),  # j -> -j (mod ny)
}


def _run(values, grid, cfg, mat):
    res = run(Field(grid, np.ascontiguousarray(values)), cfg, mat, NOISE_OFF)
    assert not res.final.stopped
    return res


def _square_run(mat, rng, n, steps=200):
    # a rough field (0.6 to 1.8) is far above the default threshold energy,
    # so the threshold is raised to keep it running
    grid = Grid(n, n, 1.0, 1.0)
    dt = stable_dt(grid, mat)
    cfg = RunConfig(t_max=steps * dt, dt=dt, e_max_C=1e6, diag_interval=steps)
    u0 = positive_field(rng, grid).values
    base = _run(u0, grid, cfg, mat)
    assert base.final.step == steps
    return grid, cfg, u0, base.final.u.values


@pytest.mark.parametrize("n", [16, 32])
def test_deterministic_run_commutes_with_shifts_and_transposition(mat, rng, n):
    grid, cfg, u0, final = _square_run(mat, rng, n)
    for name, g in EXACT_MAPS.items():
        assert np.array_equal(_run(g(u0), grid, cfg, mat).final.u.values, g(final)), name


@pytest.mark.parametrize("n", [16, 32])
def test_deterministic_run_commutes_with_reflections_to_rounding(mat, rng, n):
    grid, cfg, u0, final = _square_run(mat, rng, n)
    for name, g in REFLECTIONS.items():
        mapped = _run(g(u0), grid, cfg, mat).final.u.values
        assert np.abs(mapped - g(final)).max() <= 16 * np.finfo(float).eps * final.max(), name


def test_stacked_run_of_a_mapped_field_equals_the_mapped_lone_run(mat, rng):
    grid, cfg, u0, final = _square_run(mat, rng, 16)
    for name, g in EXACT_MAPS.items():
        stack = run_replicas(Field(grid, np.ascontiguousarray(g(u0))), cfg, mat, NOISE_OFF,
                             [1, 2, 3])
        for res in stack:
            assert np.array_equal(res.final.u.values, g(final)), name


def test_transposed_rectangle_runs_the_transposed_film(mat, rng):
    # 24 x 16 nodes on (1.5, 0.9) against 16 x 24 on (0.9, 1.5) at one dt:
    # hx and hy trade places
    grid, grid_t = Grid(24, 16, 1.5, 0.9), Grid(16, 24, 0.9, 1.5)
    dt = stable_dt(grid, mat)
    cfg = RunConfig(t_max=300 * dt, dt=dt, e_max_C=1e6, diag_interval=50)
    u0 = positive_field(rng, grid).values
    res, res_t = _run(u0, grid, cfg, mat), _run(u0.T, grid_t, cfg, mat)
    assert res.final.step == res_t.final.step == 300
    assert np.array_equal(res_t.final.u.values, res.final.u.values.T)
    assert len(res.records) == len(res_t.records) == 7
    for rec, rec_t in zip(res.records, res_t.records):
        assert (rec_t.t, rec_t.u_min, rec_t.u_max, rec_t.osc) == \
            (rec.t, rec.u_min, rec.u_max, rec.osc)
        assert rec_t.E_total == pytest.approx(rec.E_total, rel=64 * np.finfo(float).eps)
