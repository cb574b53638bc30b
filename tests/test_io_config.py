import json

import numpy as np
import pytest

from stfe2d import cli
from stfe2d import io as sio
from stfe2d.config import ConfigError, assemble, load_config
from stfe2d.diagnostics import DiagRecord
from stfe2d.grid import Field, Grid
from stfe2d.noise import strat_constant


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_round_trip_is_bit_exact(tmp_path, rng):
    grid = Grid(7, 5, 1.25, 0.75)
    field = Field(grid, rng.standard_normal((5, 7)))
    path = tmp_path / "f.bin"
    sio.write_snapshot(path, field, t=0.1234)
    back, t = sio.read_snapshot(path)
    assert t == 0.1234
    assert back.grid == grid
    assert np.array_equal(back.values, field.values)


def test_snapshot_header_parsing():
    nx, ny, Lx, Ly, t = sio.parse_snapshot_header("STFE2D 1 4 4 1.0 1.0 0.0")
    assert (nx, ny) == (4, 4)
    assert (Lx, Ly, t) == (1.0, 1.0, 0.0)
    with pytest.raises(sio.SnapshotError):
        sio.parse_snapshot_header("NOPE 1 4 4 1 1 0")


def test_truncated_snapshot_reports_byte_counts(tmp_path, rng):
    grid = Grid(4, 4, 1.0, 1.0)
    path = tmp_path / "f.bin"
    sio.write_snapshot(path, Field(grid, rng.standard_normal((4, 4))), t=0.0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(sio.SnapshotError, match="expected 128 payload bytes, got 120"):
        sio.read_snapshot(path)


# ---------------------------------------------------------------------------
# diagnostics CSV
# ---------------------------------------------------------------------------

def _record(stopped=False):
    return DiagRecord(t=0.1, mass=1.0, u_min=0.9, u_max=1.1, E_dir=0.01,
                      E_pot=1.0, E_curv=0.001, E_total=1.011, S=0.005,
                      R=2.016, osc=1.2, diss_x=3.0, diss_y=4.0, stopped=stopped)


def test_diag_writer_emits_header_once(tmp_path):
    path = tmp_path / "d.csv"
    with sio.DiagWriter(path) as w:
        w.append(_record())
        w.append(_record(stopped=True))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,mass,u_min,u_max,E_dir,E_pot,E_curv,E_total,S,R,osc,")
    assert lines[0].endswith("diss_x,diss_y,stopped")
    assert len(lines) == 3
    assert lines[1].endswith(",0")
    assert lines[2].endswith(",1")


def test_diag_row_round_trip_exact(rng):
    vals = rng.standard_normal(13) * 10.0**rng.integers(-8, 8, 13)
    rec = DiagRecord(*vals, stopped=True)
    cells = sio.format_diag_row(rec).split(",")
    back = DiagRecord(*map(float, cells[:-1]), stopped=bool(int(cells[-1])))
    assert back == rec


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def write_config(tmp_path, name="config.json", **overrides):
    data = {
        "grid": {"nx": 8, "ny": 8, "Lx": 1.0, "Ly": 1.0},
        "material": {"p": 8, "eps": 1.0, "rho": 1.0},
        "noise": {"schedule": "power-law", "lambda0": 0.1, "s": 4.0, "seed": 7},
        "run": {"t_max": 0.0},
        "initial": {"kind": "constant", "base": 1.0},
        "output": {"dir": str(tmp_path / "out"), "prefix": "t"},
    }
    for key, sub in overrides.items():
        data.setdefault(key, {}).update(sub)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_default_config_is_accepted(tmp_path):
    cfg = load_config(write_config(tmp_path))
    bundle = assemble(cfg)
    assert bundle.grid.nx == 8
    assert bundle.material.p == 8.0
    assert bundle.noise.seed == 7


def test_margin_violation_is_cited(tmp_path):
    path = write_config(tmp_path, material={"p": 2.1, "eps": 1.9, "rho": 0.01,
                                            "potential": {"exp_high": 2.1, "exp_low": 1.0}})
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert any("(R) violated" in v for v in info.value.violations)


def test_stratonovich_asymmetric_table_is_rejected(tmp_path):
    path = write_config(tmp_path, noise={"schedule": "table",
                                         "table": {"1,0": [1.0, 1.0]},
                                         "interpretation": "stratonovich"})
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert any("symmetric" in v for v in info.value.violations)


def test_stratonovich_auto_shift_matches_constant(tmp_path):
    path = write_config(tmp_path, noise={"interpretation": "stratonovich"})
    bundle = assemble(load_config(path))
    expected = strat_constant(bundle.noise, 1.0, 1.0)
    assert bundle.material.strat_shift == pytest.approx(expected, rel=1e-14)


def test_unknown_keys_are_rejected(tmp_path):
    path = write_config(tmp_path, run={"tmax": 1.0})
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert any("unknown key run.tmax" in v for v in info.value.violations)


def test_parse_error_is_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)


def test_nonpositive_initial_is_rejected(tmp_path):
    path = write_config(tmp_path, initial={"kind": "cosine-perturbed",
                                           "base": 1.0, "amplitude": 1.5})
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert any("(I) violated" in v for v in info.value.violations)


def test_initial_from_file(tmp_path, rng):
    grid = Grid(8, 8, 1.0, 1.0)
    field = Field(grid, rng.uniform(0.5, 1.5, (8, 8)))
    snap = tmp_path / "u0.bin"
    sio.write_snapshot(snap, field, t=0.0)
    path = write_config(tmp_path, initial={"kind": "file", "path": str(snap)})
    bundle = assemble(load_config(path))
    assert np.array_equal(bundle.initial.values, field.values)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_zero_horizon(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    out_dir = tmp_path / "out"
    diag = (out_dir / "t_diag.csv").read_text().splitlines()
    assert len(diag) == 2  # header + the t = 0 row
    final, t = sio.read_snapshot(out_dir / "t_final.bin")
    assert t == 0.0
    assert np.allclose(final.values, 1.0)


def test_cli_rejects_bad_config(tmp_path):
    path = write_config(tmp_path, material={"eps": 3.0})
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION


def test_cli_runtime_abort_exit_code(tmp_path):
    path = write_config(
        tmp_path,
        noise={"lambda0": 50.0},
        run={"t_max": 1e-9, "dt": 1e-4, "u_floor": 0.999999, "max_halvings": 1},
    )
    assert cli.main(["run", str(path)]) == cli.EXIT_RUNTIME


def test_cli_run_is_byte_deterministic(tmp_path):
    cfg_a = write_config(tmp_path, name="a.json",
                         run={"t_max": 2e-10, "snapshot_times": [1e-10]},
                         noise={"lambda0": 0.2, "seed": 11},
                         output={"dir": str(tmp_path / "a"), "prefix": "r"})
    cfg_b = write_config(tmp_path, name="b.json",
                         run={"t_max": 2e-10, "snapshot_times": [1e-10]},
                         noise={"lambda0": 0.2, "seed": 11},
                         output={"dir": str(tmp_path / "b"), "prefix": "r"})
    assert cli.main(["run", str(cfg_a)]) == cli.EXIT_OK
    assert cli.main(["run", str(cfg_b)]) == cli.EXIT_OK
    for name in ("r_diag.csv", "r_final.bin", "r_snap0000.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_check_passes(capsys):
    code = cli.main(["check"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "PASS ibp_identities" in out
    assert "FAIL" not in out


def test_cli_converge_emits_rate_table(tmp_path, capsys):
    path = write_config(tmp_path, name="conv.json",
                        output={"dir": str(tmp_path / "conv"), "prefix": "c"})
    assert cli.main(["converge", str(path)]) == cli.EXIT_OK
    rates = (tmp_path / "conv" / "c_rates.csv").read_text().splitlines()
    assert rates[0] == "study,metric,h,value"
    slopes = {}
    for line in rates[1:]:
        study, metric, h, value = line.split(",")
        if metric.endswith("_slope"):
            slopes[(study, metric)] = float(value)
    assert abs(slopes[("laplacian_eig", "eig_err_slope")] - 2.0) <= 0.05
    assert 1.85 <= slopes[("interp", "l2_slope")] <= 2.15
    assert 0.85 <= slopes[("ritz", "h1_slope")] <= 1.25


def test_cli_check_failure_exit_code(monkeypatch, capsys):
    from stfe2d.oracle import CheckResult

    def fake_checks():
        return [CheckResult("ibp_identities", True, "ok"),
                CheckResult("drift_weak_form", False, "residual 1e-3")]

    monkeypatch.setattr(cli, "run_checks", fake_checks)
    assert cli.main(["check"]) == cli.EXIT_CHECK
    out = capsys.readouterr().out
    assert "FAIL drift_weak_form" in out
