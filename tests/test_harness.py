import dataclasses

import numpy as np
import pytest

from stfe2d.config import Config, assemble
from stfe2d.harness import EnsembleSummary, mc_ensemble, refinement_study
from stfe2d.integrator import stable_dt
from stfe2d.grid import Grid
from stfe2d.material import Material


def ensemble_config(tmp_path, n=16, lambda0=0.1, steps=60, **run_overrides):
    grid = Grid(n, n, 1.0, 1.0)
    dt = stable_dt(grid, Material())
    run = {"t_max": steps * dt, "dt": dt}
    run.update(run_overrides)
    return Config(
        grid={"nx": n, "ny": n, "Lx": 1.0, "Ly": 1.0},
        material={},
        noise={"lambda0": lambda0, "seed": 100},
        run=run,
        initial={"kind": "cosine-perturbed", "base": 1.0, "amplitude": 0.1},
        output={"dir": str(tmp_path), "prefix": "mc"},
    )


@pytest.mark.parametrize("max_workers", [0, -1])
def test_bad_worker_count_is_rejected(tmp_path, max_workers):
    with pytest.raises(ValueError, match="max_workers"):
        mc_ensemble(ensemble_config(tmp_path, steps=5), 4, max_workers=max_workers)


def test_single_replica_reduces_to_run(tmp_path):
    from stfe2d.config import assemble
    from stfe2d.integrator import run
    cfg = ensemble_config(tmp_path, steps=20)
    summary = mc_ensemble(cfg, 1, max_workers=1)
    bundle = assemble(cfg)
    res = run(bundle.initial, bundle.run, bundle.material,
              bundle.noise.with_seed(bundle.noise.seed))
    assert summary.n_replicas == 1 and summary.n_aborted == 0
    assert summary.sup_R_mean == res.sup_R
    assert summary.diss_mean == res.diss_integral


def test_silent_noise_gives_degenerate_ensemble(tmp_path):
    cfg = ensemble_config(tmp_path, lambda0=0.0, steps=10)
    summary = mc_ensemble(cfg, 3, max_workers=1)
    sups = [o.sup_R for o in summary.outcomes]
    assert max(sups) == min(sups)
    assert summary.stopped_fraction == 0.0


def test_desk_scale_smoke_baseline(tmp_path):
    # frozen baseline: small stochastic ensemble finishes, no stops, tiny
    # mass drift, finite running supremum of the combined functional
    cfg = ensemble_config(tmp_path, n=16, lambda0=0.1, steps=60)
    summary = mc_ensemble(cfg, 8, max_workers=1)
    assert summary.n_aborted == 0
    assert summary.stopped_fraction == 0.0
    assert summary.mass_drift_max <= 1e-10
    assert np.isfinite(summary.sup_R_max)
    assert summary.sup_R_max < 10.0


def test_ensemble_summary_deterministic(tmp_path):
    cfg = ensemble_config(tmp_path, steps=15)
    s1 = mc_ensemble(cfg, 4, max_workers=1)
    s2 = mc_ensemble(cfg, 4, max_workers=1)
    assert s1.summary_row() == s2.summary_row()


def test_aborted_replicas_are_recorded_not_fatal(tmp_path):
    cfg = ensemble_config(tmp_path, lambda0=50.0, steps=5,
                          dt=1e-4, u_floor=0.999999, max_halvings=1)
    summary = mc_ensemble(cfg, 3, max_workers=1)
    assert summary.n_aborted == 3
    assert all(o.error is not None for o in summary.outcomes)


def failing_batch(*args):
    raise RuntimeError("batched runner failed")


def test_unexpected_replica_errors_are_recorded_not_fatal(tmp_path, monkeypatch):
    from stfe2d import harness
    from stfe2d.material import PositivityError
    real_run = harness.run
    failures = {101: PositivityError("field must be strictly positive"),
                102: ValueError("bad value")}

    def flaky_run(u0, cfg, mat, model):
        if model.seed in failures:
            raise failures[model.seed]
        return real_run(u0, cfg, mat, model)

    # the chunk's batched run fails as a whole, so each replica is rerun
    # alone and its own error is recorded
    monkeypatch.setattr(harness, "run", flaky_run)
    monkeypatch.setattr(harness, "run_replicas", failing_batch)
    summary = mc_ensemble(ensemble_config(tmp_path, steps=5), 4, max_workers=1)
    assert summary.n_aborted == 2
    errors = [o.error for o in summary.outcomes]
    assert errors[0] is None and errors[3] is None
    assert errors[1] == "PositivityError: field must be strictly positive"
    assert errors[2] == "ValueError: bad value"
    assert np.isfinite(summary.sup_R_mean)


@pytest.mark.parametrize("batch_fails", [False, True])
def test_an_ensemble_assembles_its_config_once(tmp_path, monkeypatch, batch_fails):
    # in-process and on the replica-by-replica rerun of a failed chunk
    from stfe2d import harness
    calls = []
    real_assemble = harness.assemble

    def counting_assemble(cfg):
        calls.append(cfg)
        return real_assemble(cfg)

    monkeypatch.setattr(harness, "assemble", counting_assemble)
    if batch_fails:
        monkeypatch.setattr(harness, "run_replicas", failing_batch)
    summary = mc_ensemble(ensemble_config(tmp_path, steps=5), 4, max_workers=1)
    assert summary.n_aborted == 0
    assert len(calls) == 1


def mixed_config(tmp_path):
    # strong noise, a floor of 0.85, two halvings and a low threshold: the
    # seeds 100..111 mix plain runs, threshold stops, halved steps and a
    # replica that exhausts its halvings
    return ensemble_config(tmp_path, n=8, lambda0=30.0, steps=20, u_floor=0.85,
                           e_max_C=2.6, max_halvings=2)


def outcome_key(o):
    # NaN marks an aborted replica's monitors; compare it as a value
    return tuple("nan" if v != v else v for v in dataclasses.astuple(o))


def test_batched_chunks_equal_lone_replicas_bit_for_bit(tmp_path):
    from stfe2d import harness
    from stfe2d.config import assemble
    from stfe2d.integrator import run
    cfg = mixed_config(tmp_path)
    bundle = assemble(cfg)
    lone = [harness._run_replica(bundle, r) for r in range(12)]

    def halves(replica):
        res = run(bundle.initial, bundle.run, bundle.material,
                  bundle.noise.with_seed(100 + replica))
        return any(b.t - a.t < bundle.run.dt * (1 - 1e-9)
                   for a, b in zip(res.records, res.records[1:]) if not a.stopped)

    ran = [r for r, o in enumerate(lone) if o.error is None]
    assert any(lone[r].stopped for r in ran)
    assert any(not lone[r].stopped and not halves(r) for r in ran)
    assert any(halves(r) for r in ran)
    assert any(o.error is not None and o.error.startswith("positivity failure")
               for o in lone)

    one_chunk = mc_ensemble(cfg, 12, max_workers=1)
    assert [outcome_key(o) for o in one_chunk.outcomes] == [outcome_key(o) for o in lone]

    # 11 replicas over 2 workers: chunks of 6 and 5
    assert harness.chunk_size(11, 2, 8 * 8) == 6
    serial = mc_ensemble(cfg, 11, max_workers=1)
    pooled = mc_ensemble(cfg, 11, max_workers=2)
    expected = [outcome_key(o) for o in lone[:11]]
    assert [outcome_key(o) for o in serial.outcomes] == expected
    assert [outcome_key(o) for o in pooled.outcomes] == expected
    assert serial.summary_row() == pooled.summary_row()


def test_chunk_size_caps_the_stacked_field():
    from stfe2d.harness import chunk_size
    assert chunk_size(32, 2, 16 * 16) == 16
    assert chunk_size(32, 2, 256 * 256) == 4       # 2**18 values per field
    assert chunk_size(5, 2, 1024 * 1024) == 1
    assert chunk_size(3, 1, 8 * 8) == 3


def test_parallel_matches_serial(tmp_path):
    cfg = ensemble_config(tmp_path, steps=10)
    serial = mc_ensemble(cfg, 4, max_workers=1)
    parallel = mc_ensemble(cfg, 4, max_workers=2)
    assert serial.summary_row() == parallel.summary_row()


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------

def test_refinement_needs_three_levels():
    with pytest.raises(ValueError, match="at least 3"):
        refinement_study("interp", [8, 16])
    with pytest.raises(ValueError, match="unknown refinement"):
        refinement_study("nope", [8, 16, 32])


def test_refinement_study_checks_every_level_before_evaluating_any(monkeypatch):
    from stfe2d import harness
    from stfe2d.material import AssumptionError
    bundle = assemble(Config(grid={"nx": 32, "ny": 32, "Lx": 10.0, "Ly": 10.0}))
    evaluated = []
    study = harness.STUDIES["laplacian_eig"]
    monkeypatch.setitem(harness.STUDIES, "laplacian_eig",
                        study._replace(level=lambda grid, b: evaluated.append(grid)))
    # n = 16 and 32 satisfy (S) on this domain, the last level (h = 1.25) does not
    with pytest.raises(AssumptionError, match=r"\(S\) violated: mesh parameter h = 1.25"):
        refinement_study("laplacian_eig", [16, 32, 8], bundle)
    assert evaluated == []


def test_refinement_study_defaults_to_the_default_config():
    # the unit square, the default power-law noise and eps = 1
    from stfe2d.noise import NoiseModel, PowerLawSchedule, b3star_monitor
    table = refinement_study("noise_b3star", [8, 16, 32])
    assert table.hs == (0.125, 0.0625, 0.03125)
    assert table.errors["monitor"] == tuple(
        b3star_monitor(NoiseModel(PowerLawSchedule()), h, 1.0) for h in table.hs)


def test_interp_rates():
    table = refinement_study("interp", [8, 16, 32, 64, 128])
    assert 1.85 <= table.slopes["l2"] <= 2.15
    assert 0.85 <= table.slopes["dx_l2"] <= 1.15


def test_laplacian_eig_rates():
    table = refinement_study("laplacian_eig", [8, 16, 32, 64])
    assert 1.95 <= table.slopes["eig_err"] <= 2.05
    assert max(table.errors["stencil_dev"]) <= 1e-12


def test_b3star_monitor_table():
    table = refinement_study("noise_b3star", [8, 16, 32, 64, 128])
    vals = table.errors["monitor"]
    assert max(vals) <= 2.0 * vals[0]


def test_ritz_refinement_table_slopes():
    table = refinement_study("ritz", [8, 16, 32])
    assert table.slopes["l2"] == pytest.approx(2.0, abs=0.25)
    assert table.slopes["h1"] == pytest.approx(1.0, abs=0.25)


def test_summary_csv_round_trip(tmp_path):
    from stfe2d.harness import write_summary_csv
    cfg = ensemble_config(tmp_path, steps=5)
    summary = mc_ensemble(cfg, 2, max_workers=1)
    path = tmp_path / "summary.csv"
    write_summary_csv(summary, path)
    header, row = path.read_text().splitlines()
    assert header == ",".join(EnsembleSummary.SUMMARY_COLUMNS)
    cells = row.split(",")
    assert int(cells[0]) == 2 and float(cells[2]) == summary.sup_R_mean
