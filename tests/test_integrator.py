from dataclasses import replace

import numpy as np
import pytest

from conftest import roll_reference_terms
from stfe2d import diagnostics, scheme
from stfe2d.grid import Field, Grid
from stfe2d.integrator import (NoiseWorkspace, OverflowAbort, PositivityAbort,
                               RunConfig, SimState, run, run_replicas, stable_dt, step_em,
                               time_slack)
from stfe2d.config import Config, assemble
from stfe2d.material import Material
from stfe2d.noise import NoiseModel, PowerLawSchedule, TableSchedule, truncation_set


def silent_model():
    return NoiseModel(PowerLawSchedule(lambda0=0.0))


def cosine_film(grid, amp=0.1):
    return Field.from_function(
        grid, lambda x, y: 1.0 + amp * np.cos(2 * np.pi * x / grid.Lx)
        * np.cos(2 * np.pi * y / grid.Ly))


@pytest.mark.parametrize("field, value", [
    ("t_max", float("nan")), ("t_max", float("inf")), ("dt", float("inf")),
    ("e_max_C", float("nan")), ("u_floor", float("nan")),
    ("snapshot_times", (0.5, float("nan"))), ("alpha", -1.0), ("alpha", 0.0),
    ("kappa", 0.0), ("kappa", float("nan")), ("snapshot_times", (0.5, 2.0)),
])
def test_run_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field.replace("_times", " times")):
        RunConfig(**{"t_max": 1.0, field: value})


def test_stable_dt_formula(mat):
    grid = Grid(32, 32, 1.0, 1.0)
    lam = 4.0 / grid.hx**2 + 4.0 / grid.hy**2
    heps = grid.h**mat.eps
    expected = 0.1 * 2.0 / (lam**2 + heps * lam**3)
    assert stable_dt(grid, mat) == pytest.approx(expected, rel=1e-14)


def test_constant_film_is_steady(mat):
    grid = Grid(8, 8, 1.0, 1.0)
    state = SimState.initial(Field.constant(grid, 1.4))
    cfg = RunConfig(t_max=1.0, dt=1e-9)
    ws = NoiseWorkspace.build(silent_model(), grid, mat.eps)
    for _ in range(5):
        state = step_em(state, cfg, mat, ws)
    assert np.array_equal(state.u.values, np.full((8, 8), 1.4))
    assert state.step == 5 and not state.stopped


def test_mass_conserved_per_step(mat):
    grid = Grid(16, 16, 1.0, 1.0)
    model = NoiseModel(PowerLawSchedule(lambda0=0.2), seed=3)
    cfg = RunConfig(t_max=1.0, dt=stable_dt(grid, mat))
    ws = NoiseWorkspace.build(model, grid, mat.eps)
    state = SimState.initial(cosine_film(grid))
    m0 = state.initial_mass
    for _ in range(20):
        state = step_em(state, cfg, mat, ws)
        assert abs(diagnostics.mass(state.u) - m0) <= 1e-12 * abs(m0)


def test_over_threshold_initial_data_freezes_immediately(mat):
    grid = Grid(16, 16, 1.0, 1.0)
    vals = np.ones((16, 16))
    vals[7, 7] = 60.0  # steep spike: Dirichlet energy far above the threshold
    u0 = Field(grid, vals)
    cfg = RunConfig(t_max=20 * stable_dt(grid, mat), e_max_C=1.0)
    e_max = diagnostics.threshold_energy(grid, mat, cfg.e_max_C)
    assert diagnostics.energy_h(u0, mat).total >= e_max
    res = run(u0, cfg, mat, NoiseModel(PowerLawSchedule(lambda0=0.1), seed=5))
    assert res.final.stopped and res.final.stop_time == 0.0
    assert np.array_equal(res.final.u.values, vals)
    assert all(r.stopped for r in res.records)
    assert all(r.diss_x == 0.0 and r.diss_y == 0.0 for r in res.records[1:])


def test_stop_flag_freezes_field_forever(mat):
    grid = Grid(16, 16, 1.0, 1.0)
    vals = np.ones((16, 16))
    vals[3, 4] = 60.0
    cfg = RunConfig(t_max=1.0, dt=1e-9, e_max_C=1.0)
    ws = NoiseWorkspace.build(NoiseModel(PowerLawSchedule(lambda0=0.1), seed=1),
                              grid, mat.eps)
    state = SimState.initial(Field(grid, vals))
    state = step_em(state, cfg, mat, ws)  # first step detects the threshold
    assert state.stopped and state.stop_time == 0.0
    frozen = state.u.values.copy()
    for _ in range(4):
        state = step_em(state, cfg, mat, ws)
        assert np.array_equal(state.u.values, frozen)
    assert state.step == 5


def test_positivity_halving_accepts_a_shorter_step(mat):
    # constant film: drift vanishes, so the update is pure noise; a floor just
    # below the film height forces rejections until dt is small enough
    grid = Grid(8, 8, 1.0, 1.0)
    model = NoiseModel(PowerLawSchedule(lambda0=50.0), seed=12)
    ws = NoiseWorkspace.build(model, grid, mat.eps)
    base_dt = 1e-4
    cfg = RunConfig(t_max=1.0, dt=base_dt, u_floor=0.95, max_halvings=40)
    state = SimState.initial(Field.constant(grid, 1.0))
    new = step_em(state, cfg, mat, ws)
    assert new.t < base_dt * (1 - 1e-12)  # a halved step was accepted
    assert new.u.min() > cfg.u_floor


def test_positivity_abort_reports_node(mat):
    grid = Grid(8, 8, 1.0, 1.0)
    model = NoiseModel(PowerLawSchedule(lambda0=50.0), seed=12)
    ws = NoiseWorkspace.build(model, grid, mat.eps)
    cfg = RunConfig(t_max=1.0, dt=1e-4, u_floor=0.999999, max_halvings=1)
    state = SimState.initial(Field.constant(grid, 1.0))
    with pytest.raises(PositivityAbort) as info:
        step_em(state, cfg, mat, ws)
    assert info.value.step == 0
    assert "positivity failure" in str(info.value)


def test_overflow_abort(mat):
    grid = Grid(8, 8, 1.0, 1.0)
    vals = np.ones((8, 8))
    vals[2, 2] = 1e-200  # the potential derivative overflows float64
    cfg = RunConfig(t_max=1.0, dt=1e-12, e_max_C=1e12)
    ws = NoiseWorkspace.build(silent_model(), grid, mat.eps)
    state = SimState.initial(Field(grid, vals))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowAbort):
            step_em(state, cfg, mat, ws)


def test_run_with_zero_horizon(mat):
    grid = Grid(8, 8, 1.0, 1.0)
    res = run(Field.constant(grid, 1.0), RunConfig(t_max=0.0), mat, silent_model())
    assert res.final.step == 0
    assert len(res.records) == 1 and res.records[0].t == 0.0


def test_run_determinism(mat):
    grid = Grid(16, 16, 1.0, 1.0)
    model = NoiseModel(PowerLawSchedule(lambda0=0.1), seed=21)
    cfg = RunConfig(t_max=50 * stable_dt(grid, mat))
    r1 = run(cosine_film(grid), cfg, mat, model)
    r2 = run(cosine_film(grid), cfg, mat, model)
    assert r1.records == r2.records
    assert np.array_equal(r1.final.u.values, r2.final.u.values)


def test_diag_interval_thins_the_records_only(monkeypatch):
    # a noisy run that stops mid-way: with diag_interval=7 the records are
    # those of steps 0, 7, 14, ... and of the last step, each == its twin in
    # the diag_interval=1 run; the monitors still see every state, and no
    # record is built that is not emitted
    grid = Grid(24, 16, 1.5, 0.8)
    mat = Material(strat_shift=0.3)
    model = NoiseModel(PowerLawSchedule(lambda0=1.0), seed=19)
    u0 = cosine_film(grid, amp=0.05)
    t_max = 40 * stable_dt(grid, mat)
    free = run(u0, RunConfig(t_max=t_max, e_max_C=1e6), mat, model)
    energies = [r.E_total for r in free.records]
    k = next(k for k in range(10, 36) if energies[k] > max(energies[:k]))
    e_max_C = 0.5 * (max(energies[:k]) + energies[k]) / grid.h ** (-mat.rho / (2.0 + mat.p))
    every = run(u0, RunConfig(t_max=t_max, e_max_C=e_max_C), mat, model)
    assert every.final.step == 40 and every.final.stop_time == every.records[k].t

    built = []
    make_record = diagnostics.make_record

    def counting_make_record(*args, **kwargs):
        built.append(args)
        return make_record(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "make_record", counting_make_record)
    thin = run(u0, RunConfig(t_max=t_max, e_max_C=e_max_C, diag_interval=7), mat, model)
    steps = [0, 7, 14, 21, 28, 35, 40]
    assert thin.records == [every.records[s] for s in steps]
    assert len(built) == len(steps)
    assert (thin.sup_R, thin.sup_osc, thin.diss_integral, thin.max_mass_drift) == \
        (every.sup_R, every.sup_osc, every.diss_integral, every.max_mass_drift)
    assert np.array_equal(thin.final.u.values, every.final.u.values)


def test_step_em_chain_is_the_run_loop_step_by_step():
    # step_em is the run loop for one step: chained from the initial state
    # it passes through run's states, including the freeze at the step
    # whose energy first reaches the threshold mid-run
    grid = Grid(24, 16, 1.5, 0.8)
    mat = Material(strat_shift=0.3)
    model = NoiseModel(PowerLawSchedule(lambda0=1.0), seed=19)
    u0 = cosine_film(grid, amp=0.05)
    t_max = 40 * stable_dt(grid, mat)
    free = run(u0, RunConfig(t_max=t_max, e_max_C=1e6), mat, model)
    energies = [r.E_total for r in free.records]
    k = next(k for k in range(10, 36) if energies[k] > max(energies[:k]))
    e_max_C = 0.5 * (max(energies[:k]) + energies[k]) / grid.h ** (-mat.rho / (2.0 + mat.p))
    cfg = RunConfig(t_max=t_max, e_max_C=e_max_C)
    ws = NoiseWorkspace.build(model, grid, mat.eps)
    chain = [SimState.initial(u0)]
    for _ in range(40):
        chain.append(step_em(chain[-1], cfg, mat, ws))
    # a snapshot between two chained clocks is taken after the later step
    mids = [0.5 * (a.t + b.t) for a, b in zip(chain, chain[1:])]
    seen = []
    res = run(u0, replace(cfg, snapshot_times=tuple(mids)), mat, model, snapshot_cb=seen.append)
    assert [s.step for s in seen] == list(range(1, 41))
    for got, want in zip(seen + [res.final], chain[1:] + [chain[-1]]):
        assert np.array_equal(got.u.values, want.u.values)
        assert (got.t, got.step, got.stopped, got.stop_time) == \
            (want.t, want.step, want.stopped, want.stop_time)
    assert [s.stopped for s in chain].index(True) == k
    assert chain[-1].stop_time == chain[k].t and chain[-1].t == res.final.t


def test_step_em_returns_a_state_at_the_horizon_unchanged(mat):
    grid = Grid(8, 8, 1.0, 1.0)
    model = NoiseModel(PowerLawSchedule(lambda0=0.1), seed=2)
    cfg = RunConfig(t_max=5 * stable_dt(grid, mat))
    final = run(cosine_film(grid), cfg, mat, model).final
    new = step_em(final, cfg, mat, NoiseWorkspace.build(model, grid, mat.eps))
    assert np.array_equal(new.u.values, final.u.values)
    assert (new.t, new.step, new.stopped, new.stop_time, new.initial_mass) == \
        (final.t, final.step, final.stopped, final.stop_time, final.initial_mass)


def test_noise_off_energy_decreases(mat):
    grid = Grid(16, 16, 1.0, 1.0)
    cfg = RunConfig(t_max=300 * stable_dt(grid, mat))
    res = run(cosine_film(grid), cfg, mat, silent_model())
    E = np.array([r.E_total for r in res.records])
    assert np.all(np.diff(E) <= 1e-8)
    assert res.max_mass_drift <= 1e-12


def test_last_step_lands_on_horizon(mat):
    grid = Grid(8, 8, 1.0, 1.0)
    dt = 1e-9
    cfg = RunConfig(t_max=2.5 * dt, dt=dt)
    res = run(Field.constant(grid, 1.0), cfg, mat, silent_model())
    assert res.final.t == pytest.approx(cfg.t_max, rel=1e-12)
    assert res.final.step == 3  # two full steps plus the half-length remainder


def test_snapshot_times_are_honored(mat):
    grid = Grid(8, 8, 1.0, 1.0)
    dt = 1e-9
    cfg = RunConfig(t_max=10 * dt, dt=dt, snapshot_times=(0.0, 3.5e-9, 1e-8))
    res = run(Field.constant(grid, 1.0), cfg, mat, silent_model())
    times = [t for t, _ in res.snapshots]
    assert times[0] == 0.0
    assert times[1] == pytest.approx(4e-9, rel=1e-12)  # first step crossing 3.5e-9
    assert times[2] == pytest.approx(1e-8, rel=1e-12)


def test_snapshot_is_not_taken_early_on_tiny_steps(mat):
    # the step is far below any absolute time tolerance: with dt = 1e-16 the
    # first step crossing 2.5e-16 ends at 3e-16, not at the initial state
    grid = Grid(16, 16, 1.0, 1.0)
    dt = 1e-16
    cfg = RunConfig(t_max=5 * dt, dt=dt, snapshot_times=(2.5e-16,))
    res = run(Field.constant(grid, 1.0), cfg, mat, silent_model())
    assert [t for t, _ in res.snapshots] == [pytest.approx(3e-16, rel=1e-12, abs=0.0)]


def test_one_step_noise_law_at_node(mat):
    # constant film, single active mode: the one-step nodal increment is a
    # centered Gaussian whose variance follows from the dense operator tables
    from stfe2d import oracle
    grid = Grid(8, 8, 1.0, 1.0)
    c, lam0, dt = 1.3, 0.5, 1e-6
    table = {(1, 0): lam0, (-1, 0): lam0, (0, 1): lam0, (0, -1): lam0}
    # restrict to one tracked mode by zeroing the others via the table
    keep = {(1, 0): lam0}
    model = NoiseModel(TableSchedule.from_dict(keep), trunc_C=5.0, mode_cap=2)
    cfg = RunConfig(t_max=dt, dt=dt, e_max_C=100.0)
    u0 = Field.constant(grid, c)

    tx, ty = oracle.dense_Z_table(grid, 1, 0)
    zx = (tx @ u0.values.ravel()).reshape(8, 8)
    zy = (ty @ u0.values.ravel()).reshape(8, 8)
    node = (2, 5)  # (i, j)
    var_exact = dt * lam0**2 * (zx[node[1], node[0]]**2 + zy[node[1], node[0]]**2)

    n_rep = 4000
    seeds = [1000 + r for r in range(n_rep)]
    finals = [res.final.u.values for res in run_replicas(u0, cfg, mat, model, seeds)]
    incs = np.array([u[node[1], node[0]] for u in finals]) - c
    for r in (0, 1, n_rep - 1):  # the stack steps each seed as step_em does
        ws = NoiseWorkspace.build(model.with_seed(seeds[r]), grid, mat.eps)
        assert np.array_equal(step_em(SimState.initial(u0), cfg, mat, ws).u.values, finals[r])
    sample_var = incs.var(ddof=1)
    se = var_exact * np.sqrt(2.0 / (n_rep - 1))
    assert abs(sample_var - var_exact) <= 4.0 * se
    assert abs(incs.mean()) <= 4.0 * np.sqrt(var_exact / n_rep)


def test_threshold_flip_is_consistent_with_energy(mat):
    # the stop flag must flip exactly on the first record whose total energy
    # reaches the threshold; a flat film minimizes the energy, so any noise
    # kick raises it across a threshold set a hair above the initial value
    grid = Grid(16, 16, 1.0, 1.0)
    u0 = Field.constant(grid, 1.0)
    e0 = diagnostics.energy_h(u0, mat).total
    h_pow = grid.h ** (-mat.rho / (2.0 + mat.p))
    e_max_C = (e0 + 1e-9) / h_pow
    cfg = RunConfig(t_max=80 * stable_dt(grid, mat), e_max_C=e_max_C)
    model = NoiseModel(PowerLawSchedule(lambda0=0.5), seed=1)
    res = run(u0, cfg, mat, model)
    assert res.final.stopped, "expected the noise to push the energy across"
    threshold = diagnostics.threshold_energy(grid, mat, e_max_C)
    flips = [idx for idx, r in enumerate(res.records) if r.stopped]
    first = flips[0]
    assert flips == list(range(first, len(res.records)))
    assert res.records[first].E_total >= threshold
    assert all(r.E_total < threshold for r in res.records[:first])
    # frozen afterwards: every later record carries the same field data
    assert all(r.E_total == res.records[first].E_total for r in res.records[first:])
    assert res.final.stop_time is not None and res.final.stop_time > 0.0


def test_diffusion_apply_unit_increment_matches_dense_table(mat, rng):
    from stfe2d import oracle, scheme
    from stfe2d.noise import standard_normals, step_counter
    grid = Grid(6, 6, 1.0, 1.0)
    u = Field(grid, rng.uniform(0.6, 1.8, (6, 6)))
    lam = 0.8
    model = NoiseModel(TableSchedule.from_dict({(1, 0): (lam, 0.0)}),
                       trunc_C=5.0, mode_cap=1)
    ws = NoiseWorkspace.build(model, grid, mat.eps)
    modes = truncation_set(model, grid.h, mat.eps)
    # pick dt so that the x increment of mode (1, 0) is exactly one
    z = standard_normals(ws.keys[0, modes.index((1, 0))], step_counter(0, 0))
    wx, wy = ws.coefficient_fields(0, 0, dt=1.0 / z**2)
    out = scheme.diffusion_values(u.values, grid, np.sign(z) * wx, wy)
    tx, _ = oracle.dense_Z_table(grid, 1, 0)
    expected = lam * (tx @ u.values.ravel()).reshape(6, 6)
    assert np.abs(out - expected).max() <= 1e-12


def test_coefficient_fields_match_dense_mode_sum(mat):
    # non-square grid and domain, and a schedule with lambda_x != lambda_y
    # and (k, l) != (l, k): a transposed reshape or swapped table would show
    from stfe2d.noise import basis_eval, standard_normals, step_counter
    grid = Grid(24, 16, 1.5, 1.0)
    table = {(1, 0): (0.3, 0.1), (0, 1): (0.05, 0.2), (-2, 1): (0.4, 0.0),
             (1, -2): (0.0, 0.25), (3, -1): (0.15, 0.35), (-1, 3): (0.02, 0.07),
             (0, 0): (0.5, 0.6), (2, 2): (0.11, 0.09)}
    model = NoiseModel(TableSchedule.from_dict(table), trunc_C=5.0, mode_cap=3,
                       seed=8)
    ws = NoiseWorkspace.build(model, grid, mat.eps)
    modes = truncation_set(model, grid.h, mat.eps)
    assert max(k for k, _ in modes) == 3
    step, attempt, dt = 11, 2, 3e-3
    wx, wy = ws.coefficient_fields(step, attempt, dt)
    ctr = step_counter(step, attempt)
    ref_x = np.zeros((grid.ny, grid.nx))
    ref_y = np.zeros((grid.ny, grid.nx))
    for m, (k, l) in enumerate(modes):
        g = basis_eval(k, l, grid).values
        lx, ly = table.get((k, l), (0.0, 0.0))
        ref_x += lx * np.sqrt(dt) * standard_normals(ws.keys[0, m], ctr) * g
        ref_y += ly * np.sqrt(dt) * standard_normals(ws.keys[1, m], ctr) * g
    assert wx.shape == wy.shape == (grid.ny, grid.nx)
    assert np.abs(wx - ref_x).max() <= 1e-13 * np.abs(ref_x).max()
    assert np.abs(wy - ref_y).max() <= 1e-13 * np.abs(ref_y).max()


def test_noise_workspace_memory_is_linear_in_n(mat):
    # a dense (n_modes, ny, nx) basis here would hold 4225 modes, about 2.2 GB
    grid = Grid(256, 256, 1.0, 1.0)
    model = NoiseModel(PowerLawSchedule(), trunc_C=2.0)
    ws = NoiseWorkspace.build(model, grid, mat.eps)
    assert len(truncation_set(model, grid.h, mat.eps)) == ws.keys.shape[-1] == 4225
    nbytes = sum(v.nbytes for v in vars(ws).values() if isinstance(v, np.ndarray))
    assert nbytes < 2**20


def test_rectangular_domain_end_to_end(mat):
    # anisotropic cells: conservation, energy decay, and determinism must
    # survive the hx != hy bookkeeping through the whole step path
    grid = Grid(24, 16, 1.2, 0.6)
    assert grid.hx != grid.hy
    u0 = Field.from_function(
        grid, lambda x, y: 1.0 + 0.08 * np.cos(2 * np.pi * x / grid.Lx)
        * np.cos(2 * np.pi * y / grid.Ly))
    dt = stable_dt(grid, mat)
    model = NoiseModel(PowerLawSchedule(lambda0=0.1), seed=33)
    res = run(u0, RunConfig(t_max=60 * dt), mat, model)
    assert res.final.step == 60 and not res.final.stopped
    assert res.max_mass_drift <= 1e-12
    res2 = run(u0, RunConfig(t_max=60 * dt), mat, model)
    assert np.array_equal(res.final.u.values, res2.final.u.values)

    quiet = run(u0, RunConfig(t_max=60 * dt), mat,
                NoiseModel(PowerLawSchedule(lambda0=0.0)))
    E = np.array([r.E_total for r in quiet.records])
    assert np.all(np.diff(E) <= 1e-8)


def test_horizon_slack_stays_below_a_step_on_long_runs():
    # t_max / dt = 1e10: an absolute slack of 1e-9 * t_max would span ten
    # steps and end the run early; the slack must stay below one step
    dt = 1e-9
    t_max = 1e10 * dt
    steps = 10**10 - 1
    t = steps * dt  # one step before the horizon
    slack = time_slack(steps, t, dt)
    assert 1e-9 * t_max > dt
    assert 0.0 < slack < dt
    assert t < t_max - slack  # the last step is still taken
    # a clock that falls short of the horizon only by summation rounding
    # has reached it
    t = 0.0
    for _ in range(1000):
        t += 0.1
    assert t < 100.0 and t >= 100.0 - time_slack(1000, t, 0.1)


def roll_reference_noise(u, wx, wy, grid):
    zx = 0.5 * (u * (np.roll(wx, -1, axis=1) - np.roll(wx, 1, axis=1))
                + wx * (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1))) / grid.hx
    zy = 0.5 * (u * (np.roll(wy, -1, axis=0) - np.roll(wy, 1, axis=0))
                + wy * (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0))) / grid.hy
    return zx + zy


def test_run_records_match_roll_stencils_bit_for_bit():
    # cells with hx != hy, a Stratonovich-shifted potential, noise, and an
    # energy threshold crossed mid-run; the trajectory is replayed with the
    # np.roll reference and every record column must agree exactly
    grid = Grid(24, 16, 1.5, 0.8)
    assert grid.hx != grid.hy
    mat = Material(strat_shift=0.3)
    model = NoiseModel(PowerLawSchedule(lambda0=1.0), seed=19)
    u0 = cosine_film(grid, amp=0.05)
    n_steps = 40
    base_dt = stable_dt(grid, mat)
    free = run(u0, RunConfig(t_max=n_steps * base_dt, e_max_C=1e6), mat, model)
    energies = [r.E_total for r in free.records]
    k = next(k for k in range(n_steps // 4, n_steps + 1)
             if energies[k] > max(energies[:k]))
    assert k <= n_steps - 5, "the threshold must be crossed mid-run"
    threshold = 0.5 * (max(energies[:k]) + energies[k])
    cfg = RunConfig(t_max=n_steps * base_dt,
                    e_max_C=threshold / grid.h ** (-mat.rho / (2.0 + mat.p)))
    threshold = diagnostics.threshold_energy(grid, mat, cfg.e_max_C)
    res = run(u0, cfg, mat, model)

    ws = NoiseWorkspace.build(model, grid, mat.eps)
    area = grid.cell_area

    def reference(v, t, stopped):
        drift, energy, entropy, diss, osc = roll_reference_terms(v, mat, grid)
        if stopped:
            diss = (0.0, 0.0)
        row = (t, area * float(v.sum()), float(v.min()), float(v.max()), *energy,
               entropy, cfg.alpha + energy[3] + cfg.kappa * entropy, osc, *diss, stopped)
        assert np.array_equal(scheme.state_terms(v, mat, grid).drift, drift)
        return row, drift

    v, t = u0.values, 0.0
    row, drift = reference(v, t, False)
    assert row[7] < threshold
    rows = [row]
    stopped = False
    for step in range(n_steps):
        dt = min(base_dt, max(cfg.t_max - t, 0.0))
        if not stopped:
            for attempt in range(cfg.max_halvings + 1):
                wx, wy = ws.coefficient_fields(step, attempt, dt)
                new = v + dt * drift + roll_reference_noise(v, wx, wy, grid)
                if np.all(new > cfg.u_floor):
                    break
                dt *= 0.5
            v = new
        t += dt
        row, drift = reference(v, t, stopped)
        if not stopped and row[7] >= threshold:
            stopped = True
            row, drift = reference(v, t, stopped)
        rows.append(row)

    assert res.records == rows
    assert np.array_equal(res.final.u.values, v)
    stop = next(i for i, r in enumerate(rows) if r[-1])
    assert stop == k and res.final.stop_time == rows[k][0]
    assert all(r[11] == 0.0 and r[12] == 0.0 for r in rows[k:])
    diss_integral = 0.0
    for prev, now in zip(rows, rows[1:]):
        diss_integral += 0.5 * ((prev[11] + prev[12]) + (now[11] + now[12])) * (now[0] - prev[0])
    assert res.diss_integral == diss_integral
    assert res.sup_R == max(r[9] for r in rows)
    assert res.sup_osc == max(r[10] for r in rows[:k])  # frozen states do not count


def test_run_evaluates_the_state_kernel_once_per_accepted_state(mat, monkeypatch):
    calls = []
    kernel = scheme.state_terms

    def counting_kernel(u, *args):
        calls.append(u.copy())
        return kernel(u, *args)

    def forbidden(*args, **kwargs):
        raise AssertionError("evaluated outside the state kernel inside run")

    monkeypatch.setattr(scheme, "state_terms", counting_kernel)
    for name in ("pressure_values", "drift_values", "dissipation"):
        monkeypatch.setattr(scheme, name, forbidden)
    for name in ("energy_h", "entropy_h", "oscillation_ratio"):
        monkeypatch.setattr(diagnostics, name, forbidden)

    grid = Grid(16, 16, 1.0, 1.0)
    model = NoiseModel(PowerLawSchedule(lambda0=0.1), seed=4)
    res = run(cosine_film(grid), RunConfig(t_max=25 * stable_dt(grid, mat)), mat, model)
    assert res.final.step == 25 and not res.final.stopped
    assert len(calls) == 26  # the initial state and each accepted step
    assert np.array_equal(calls[-1], res.final.u.values)

    # a frozen state is evaluated once; the clock advances without it
    calls.clear()
    vals = np.ones((16, 16))
    vals[7, 7] = 60.0
    res = run(Field(grid, vals), RunConfig(t_max=20 * stable_dt(grid, mat), e_max_C=1.0),
              mat, model)
    assert res.final.stopped and res.final.step == 20
    assert len(calls) == 1


@pytest.mark.parametrize("seeds", [None, [4, 5, 6]], ids=["lone", "stack"])
def test_a_state_keeps_its_pressure_until_the_next_state_is_evaluated(mat, monkeypatch,
                                                                        seeds):
    # StateTerms.pressure stays valid through the step that follows its
    # state: the noise synthesis, the increments and the halvings leave it
    # intact until the kernel evaluates the next state
    kernel = scheme.state_terms
    seen, attempts = [], []

    def checking_kernel(u, *args):
        if seen:
            terms, p = seen[-1]
            assert np.array_equal(terms.pressure, p)
        terms = kernel(u, *args)
        seen.append((terms, terms.pressure.copy()))
        return terms

    coefficient_fields = NoiseWorkspace.coefficient_fields

    def counting_fields(ws, step, attempt, *args):
        attempts.append(attempt)
        return coefficient_fields(ws, step, attempt, *args)

    monkeypatch.setattr(scheme, "state_terms", checking_kernel)
    monkeypatch.setattr(NoiseWorkspace, "coefficient_fields", counting_fields)
    grid = Grid(16, 16, 1.0, 1.0)
    u0 = cosine_film(grid)
    cfg = RunConfig(t_max=20 * stable_dt(grid, mat), u_floor=u0.values.min() - 1e-5)
    model = NoiseModel(PowerLawSchedule(lambda0=10.0), seed=4)
    if seeds is None:
        final = run(u0, cfg, mat, model).final.u.values
    else:
        final = np.stack([r.final.u.values for r in run_replicas(u0, cfg, mat, model, seeds)])
    assert max(attempts) >= 1  # at least one halving
    terms, p = seen[-1]
    assert np.array_equal(terms.pressure, p)
    assert np.array_equal(p, kernel(final, mat, grid).pressure)


def test_run_constants_are_computed_once(mat, monkeypatch):
    # the base step, the threshold energy and the buffers are constants of a
    # run: the stepping loop sets them up once, not once per step, for a
    # lone run, a stack and a single step
    from stfe2d import integrator
    grid = Grid(16, 16, 1.0, 1.0)
    cfg = RunConfig(t_max=25 * stable_dt(grid, mat))
    model = NoiseModel(PowerLawSchedule(lambda0=0.1), seed=4)
    calls = {"stable_dt": 0, "threshold_energy": 0, "Buffers": 0}

    def counting(owner, name):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(integrator, "stable_dt")
    counting(diagnostics, "threshold_energy")
    counting(scheme, "Buffers")
    ws = NoiseWorkspace.build(model, grid, mat.eps)
    u0 = cosine_film(grid)
    for go, steps in ((lambda: run(u0, cfg, mat, model).final, 25),
                      (lambda: run_replicas(u0, cfg, mat, model, [4, 5, 6])[0].final, 25),
                      (lambda: step_em(SimState.initial(u0), cfg, mat, ws), 1)):
        calls.update(dict.fromkeys(calls, 0))
        assert go().step == steps
        assert calls == {"stable_dt": 1, "threshold_energy": 1, "Buffers": 1}


def test_run_sums_the_mass_of_each_accepted_state_once(mat, monkeypatch):
    # the kernel's sum of the stepped field is the mass that the drift
    # monitor and the record read: between two records (diag_interval 1)
    # the field is summed once
    from stfe2d import fem
    grid = Grid(8, 8, 1.0, 1.0)
    sums, marks = [], []
    lumped = fem.lumped_integral

    def counting(values, g):
        total = lumped(values, g)
        sums.append((float(values.min()), float(values.max()), total))
        return total

    monkeypatch.setattr(fem, "lumped_integral", counting)
    cfg = RunConfig(t_max=10 * stable_dt(grid, mat), diag_interval=1)
    result = run(cosine_film(grid), cfg, mat, NoiseModel(PowerLawSchedule(lambda0=5.0), seed=3),
                 diag_cb=lambda rec: marks.append(len(sums)))
    assert len(result.records) == len(marks) == 11
    for rec, start, end in zip(result.records[1:], marks, marks[1:]):
        assert sums[start:end].count((rec.u_min, rec.u_max, rec.mass)) == 1


@pytest.mark.parametrize("live, lambda0, floor_gap", [
    (np.True_, 0.1, None), (np.array([True, False, True]), 0.1, None),
    # strong noise and a floor just below min u0: the replicas accept at
    # different halving attempts, so a step both accepts and redraws
    (np.array([True, True, True]), 10.0, 1e-5)],
    ids=["live0", "live1", "partial_acceptance"])
def test_em_step_allocates_no_field_after_warm_up(mat, live, lambda0, floor_gap):
    # the loop's step writes every field into the run's buffers: the loop
    # holds 11 state-sized arrays after set-up (u, the 7 scratch fields, of
    # which the candidate and the pressure take one each, and the 3 output
    # slots), and ten noisy steps on 64x64 fields trace a peak below the
    # bytes of the stepped fields and keep u one array, also for a stack
    # with a replica that no longer steps, and for a stack's partial
    # acceptance
    import tracemalloc
    from stfe2d.integrator import _Loop
    grid = Grid(64, 64, 1.0, 1.0)
    u0 = cosine_film(grid)
    cfg = RunConfig(t_max=1.0) if floor_gap is None else \
        RunConfig(t_max=1.0, u_floor=u0.values.min() - floor_gap)
    ws = NoiseWorkspace.build(NoiseModel(PowerLawSchedule(lambda0=lambda0), seed=8), grid,
                              mat.eps, seeds=[8, 9, 10] if live.shape else None)
    assert ws.active
    tracemalloc.start()
    try:
        loop = _Loop(SimState.initial(u0), cfg, mat, ws)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 12 * loop.u.nbytes
    loop.live &= live
    loop.advance()
    u, aborts, dts = loop.u, {}, []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            t0 = loop.t
            aborts.update(loop.advance())
            dts.append(loop.t - t0)
            assert loop.u is u
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert not aborts and loop.step == 11
    if floor_gap is None:
        assert np.array_equal(loop.t, np.where(live, 11 * loop.base_dt, 0.0))
    else:  # a replica took a longer step than another: it accepted, the other redrew
        assert any(np.ptp(dt) > 0 for dt in dts)
    assert peak < loop.u.nbytes


def test_run_replicas_equal_lone_runs_bit_for_bit(mat):
    # one stack mixing plain runs, threshold stops, halved steps and a
    # positivity abort; every replica must be its lone run exactly
    from stfe2d.integrator import SimulationAbort
    grid = Grid(8, 8, 1.0, 1.0)
    dt = stable_dt(grid, mat)
    cfg = RunConfig(t_max=20 * dt, dt=dt, u_floor=0.85, e_max_C=2.6, max_halvings=2)
    model = NoiseModel(PowerLawSchedule(lambda0=30.0), seed=0)
    seeds = list(range(100, 112))
    u0 = cosine_film(grid)
    batch = run_replicas(u0, cfg, mat, model, seeds)
    kinds = set()
    for seed, got in zip(seeds, batch):
        try:
            want = run(u0, cfg, mat, model.with_seed(seed))
        except SimulationAbort as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            kinds.add("abort")
            continue
        a, b = got.final, want.final
        assert np.array_equal(a.u.values, b.u.values)
        assert (a.t, a.step, a.stopped, a.stop_time, a.initial_mass) == \
            (b.t, b.step, b.stopped, b.stop_time, b.initial_mass)
        assert (got.sup_R, got.sup_osc, got.diss_integral, got.max_mass_drift) == \
            (want.sup_R, want.sup_osc, want.diss_integral, want.max_mass_drift)
        kinds.add("stopped" if b.stopped else "ran")
    assert kinds == {"abort", "stopped", "ran"}


def test_a_stratonovich_bundle_from_the_config_runs_with_its_shift():
    bundle = assemble(Config(grid={"nx": 8, "ny": 8}, run={"t_max": 1e-7},
                             noise={"interpretation": "stratonovich", "seed": 3},
                             initial={"kind": "cosine-perturbed", "amplitude": 0.1}))
    args = bundle.initial, bundle.run, bundle.material
    strat = run(*args, bundle.noise)
    assert strat.final.step > 1
    [stacked] = run_replicas(*args, bundle.noise, [3])
    assert np.array_equal(stacked.final.u.values, strat.final.u.values)
    ito = run(bundle.initial, bundle.run, replace(bundle.material, strat_shift=0.0),
              bundle.noise)
    assert not np.array_equal(ito.final.u.values, strat.final.u.values)
