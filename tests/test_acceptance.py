"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure next to its pinned tolerance."""

import time

import numpy as np

from conftest import positive_field
from stfe2d import cli, diagnostics, oracle, scheme
from stfe2d import io as sio
from stfe2d.grid import Field, Grid
from stfe2d.integrator import (NoiseWorkspace, RunConfig, SimState, run, run_replicas,
                               stable_dt, step_em)
from stfe2d.material import Material
from stfe2d.noise import (NoiseConfigError, NoiseModel, PowerLawSchedule,
                          TableSchedule, basis_eval, strat_constant)


def _line(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _cosine_film(grid, amp=0.1):
    return Field.from_function(
        grid, lambda x, y: 1.0 + amp * np.cos(2 * np.pi * x / grid.Lx)
        * np.cos(2 * np.pi * y / grid.Ly))


def test_criterion_01_mass_conservation_stochastic_run():
    grid = Grid(32, 32, 1.0, 1.0)
    mat = Material()
    model = NoiseModel(PowerLawSchedule(lambda0=0.1), seed=2024)
    dt = stable_dt(grid, mat)
    cfg = RunConfig(t_max=1000 * dt)
    t0 = time.perf_counter()
    res = run(_cosine_film(grid), cfg, mat, model)
    elapsed = time.perf_counter() - t0
    ok = res.final.step == 1000 and res.max_mass_drift <= 1e-10 and elapsed < 10.0
    _line(1, "mass conservation", ok,
          f"rel drift {res.max_mass_drift:.3e} <= 1e-10 over 1000 steps, "
          f"{elapsed:.1f}s < 10s")


def test_criterion_02_discrete_integration_by_parts():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        a, b, c = (rng.standard_normal(8) for _ in range(3))
        for h in (1.0 / 8, 0.9 / 8):  # x and y spacings of an 8x8 grid
            worst = max(worst, *oracle.ibp_residuals_1d(h, a, b, c))
            worst = max(worst, *oracle.ibp_residuals_1d(h, a, b, c,
                                                        a_elementwise=True))
    _line(2, "discrete integration by parts", worst <= 1e-12,
          f"max rel residual {worst:.3e} <= 1e-12")


def test_criterion_03_discrete_chain_rule():
    rng = np.random.default_rng(42)
    grid = Grid(16, 16, 1.0, 1.0)
    worst = max(oracle.chain_rule_residual(positive_field(rng, grid).values, grid)
                for _ in range(100))
    _line(3, "discrete chain rule", worst <= 1e-12,
          f"max per-edge rel residual {worst:.3e} <= 1e-12")


def test_criterion_04_dense_oracle_equivalence():
    rng = np.random.default_rng(43)
    mat = Material()
    worst = 0.0
    for n in (4, 6, 8):
        grid = Grid(n, n, 1.0, 1.0)
        tables = {m: oracle.dense_Z_table(grid, *m)
                  for m in ((0, 0), (1, 0), (-1, 2))}
        for _ in range(100):
            u = Field(grid, 1.0 + rng.uniform(-0.05, 0.05, (n, n)))
            p = u.with_values(scheme.pressure_values(u.values, mat, grid))
            worst = max(worst, oracle.dense_weak_residual(u, p, mat))
            worst = max(worst, oracle.dense_drift_residual(u, mat))
            for (k, l), (tx, ty) in tables.items():
                w = basis_eval(k, l, grid).values
                for axis, table in ((-1, tx), (-2, ty)):
                    z = scheme.z_apply(u.values, w, grid, axis).ravel()
                    worst = max(worst, float(np.abs(z - table @ u.values.ravel()).max()))
    _line(4, "dense-oracle equivalence", worst <= 1e-12,
          f"max abs difference {worst:.3e} <= 1e-12 on 4x4/6x6/8x8 x 100 fields")


def test_criterion_05_deterministic_dissipation():
    grid = Grid(32, 32, 1.0, 1.0)
    mat = Material()
    cfg = RunConfig(t_max=3000 * stable_dt(grid, mat))
    t0 = time.perf_counter()
    res = run(_cosine_film(grid), cfg, mat, NoiseModel(PowerLawSchedule(lambda0=0.0)))
    elapsed = time.perf_counter() - t0
    E = np.array([r.E_total for r in res.records])
    max_inc = float(np.diff(E).max())
    drop = E[0] - E[-1]
    mismatch = abs(res.diss_integral - drop) / drop
    ok = max_inc <= 1e-8 and mismatch <= 0.02 and elapsed < 30.0
    _line(5, "deterministic dissipation", ok,
          f"max per-step E increase {max_inc:.3e} <= 1e-8, "
          f"integral mismatch {mismatch:.3%} <= 2%, {elapsed:.1f}s < 30s")


def test_criterion_06_interpolation_error_rates():
    from stfe2d.harness import refinement_study
    table = refinement_study("interp", [8, 16, 32, 64, 128])
    s0, s1 = table.slopes["l2"], table.slopes["dx_l2"]
    ok = 1.85 <= s0 <= 2.15 and 0.85 <= s1 <= 1.15
    _line(6, "interpolation error rates", ok,
          f"L2 slope {s0:.3f} in [1.85, 2.15], derivative slope {s1:.3f} in [0.85, 1.15]")


def test_criterion_07_laplacian_spectrum():
    from stfe2d.harness import refinement_study
    table = refinement_study("laplacian_eig", [8, 16, 32, 64])
    dev = max(table.errors["stencil_dev"])
    slope = table.slopes["eig_err"]
    ok = dev <= 1e-12 and 1.95 <= slope <= 2.05
    _line(7, "discrete Laplacian spectrum", ok,
          f"eigenfield deviation {dev:.3e} <= 1e-12 at every level, "
          f"eigenvalue slope {slope:.3f} in [1.95, 2.05]")


def test_criterion_08_stopping_and_freeze(tmp_path):
    grid = Grid(16, 16, 1.0, 1.0)
    mat = Material()
    vals = np.ones((16, 16))
    vals[5, 9] = 60.0
    u0 = Field(grid, vals)
    cfg = RunConfig(t_max=30 * stable_dt(grid, mat), e_max_C=1.0,
                    snapshot_times=(0.0, 10 * stable_dt(grid, mat)))
    e_max = diagnostics.threshold_energy(grid, mat, cfg.e_max_C)
    assert diagnostics.energy_h(u0, mat).total >= e_max
    res = run(u0, cfg, mat, NoiseModel(PowerLawSchedule(lambda0=0.1), seed=8))
    frozen = all(np.array_equal(f.values, vals) for _, f in res.snapshots)
    frozen = frozen and np.array_equal(res.final.u.values, vals)
    payloads = set()
    for idx, (t, f) in enumerate(res.snapshots + [(res.final.t, res.final.u)]):
        path = tmp_path / f"s{idx}.bin"
        sio.write_snapshot(path, f, t)
        payloads.add(path.read_bytes().split(b"\n", 1)[1])
    ok = (res.final.stopped and res.final.stop_time == 0.0
          and res.records[0].stopped and frozen and len(payloads) == 1)
    _line(8, "stopping and freeze semantics", ok,
          f"stopped at t = {res.final.stop_time}, field bit-identical across "
          f"{len(res.snapshots) + 1} outputs")


def test_criterion_09_stratonovich_constant():
    rng = np.random.default_rng(44)

    def trig_sq(k, x, L):
        if k >= 1:
            return (2.0 / L) * np.cos(2 * np.pi * k * x / L) ** 2
        if k == 0:
            return 1.0 / L
        return (2.0 / L) * np.sin(2 * np.pi * k * x / L) ** 2

    worst = 0.0
    for _ in range(5):
        cap = 3
        table = {}
        for k in range(0, cap + 1):
            for l in range(0, cap + 1):
                lam = float(rng.uniform(0.0, 1.0))
                for kk in {k, -k}:
                    for ll in {l, -l}:
                        table[(kk, ll)] = lam
        Lx, Ly = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        model = NoiseModel(TableSchedule.from_dict(table), mode_cap=cap)
        closed = strat_constant(model, Lx, Ly)
        x, y = float(rng.uniform(0, Lx)), float(rng.uniform(0, Ly))
        brute = sum(table[(k, l)] ** 2 * trig_sq(k, x, Lx) * trig_sq(l, y, Ly)
                    for k in range(-cap, cap + 1) for l in range(-cap, cap + 1))
        worst = max(worst, abs(closed - brute) / max(1.0, abs(closed)))
    rejected = False
    try:
        strat_constant(NoiseModel(TableSchedule.from_dict({(1, 0): 1.0})), 1.0, 1.0)
    except NoiseConfigError as exc:
        rejected = "symmetric" in str(exc)
    ok = worst <= 1e-14 and rejected
    _line(9, "Stratonovich constant", ok,
          f"closed form vs mode sum {worst:.3e} <= 1e-14 on 5 schedules; "
          f"asymmetric schedule rejected: {rejected}")


def test_criterion_10_noise_law_at_a_node():
    grid = Grid(8, 8, 1.0, 1.0)
    mat = Material()
    c, lam0, dt = 1.3, 0.5, 1e-6
    model = NoiseModel(TableSchedule.from_dict({(1, 0): lam0}),
                       trunc_C=5.0, mode_cap=2)
    cfg = RunConfig(t_max=dt, dt=dt, e_max_C=100.0)
    u0 = Field.constant(grid, c)
    tx, ty = oracle.dense_Z_table(grid, 1, 0)
    zx = (tx @ u0.values.ravel()).reshape(8, 8)
    zy = (ty @ u0.values.ravel()).reshape(8, 8)
    node = (2, 5)
    var_exact = dt * lam0**2 * (zx[node[1], node[0]] ** 2 + zy[node[1], node[0]] ** 2)

    t0 = time.perf_counter()
    n_rep = 10000
    seeds = [50000 + r for r in range(n_rep)]
    finals = [res.final.u.values for res in run_replicas(u0, cfg, mat, model, seeds)]
    incs = np.array([u[node[1], node[0]] for u in finals]) - c
    elapsed = time.perf_counter() - t0
    for r in (0, 1, n_rep - 1):  # the stack steps each seed as step_em does
        ws = NoiseWorkspace.build(model.with_seed(seeds[r]), grid, mat.eps)
        assert np.array_equal(step_em(SimState.initial(u0), cfg, mat, ws).u.values, finals[r])
    sample_var = incs.var(ddof=1)
    se = var_exact * np.sqrt(2.0 / (n_rep - 1))
    dev = abs(sample_var - var_exact)
    ok = dev <= 3.0 * se and elapsed < 60.0
    _line(10, "noise law at a node", ok,
          f"empirical variance {sample_var:.6e} vs analytic {var_exact:.6e} "
          f"({dev / se:.2f} standard errors <= 3), {elapsed:.1f}s < 60s")


def test_criterion_11_byte_determinism(tmp_path):
    import json
    data = {
        "grid": {"nx": 16, "ny": 16},
        "noise": {"lambda0": 0.2, "seed": 77},
        "run": {"t_max": 40 * stable_dt(Grid(16, 16, 1.0, 1.0), Material()),
                "snapshot_times": [0.0]},
        "initial": {"kind": "cosine-perturbed", "base": 1.0, "amplitude": 0.1},
        "output": {"prefix": "det"},
    }
    digests = []
    for tag in ("a", "b"):
        data["output"]["dir"] = str(tmp_path / tag)
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(data))
        assert cli.main(["run", str(cfg_path)]) == cli.EXIT_OK
        blob = b"".join((tmp_path / tag / name).read_bytes()
                        for name in ("det_diag.csv", "det_snap0000.bin",
                                     "det_final.bin"))
        digests.append(blob)
    ok = digests[0] == digests[1]
    _line(11, "byte determinism", ok,
          f"diagnostics CSV and snapshots byte-identical across runs: {ok}")
