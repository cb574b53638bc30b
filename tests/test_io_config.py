import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stfe2d
from stfe2d import cli
from stfe2d import io as sio
from stfe2d.config import Config, ConfigError, assemble, load_config
from stfe2d.diagnostics import DiagRecord
from stfe2d.grid import Field, Grid
from stfe2d.integrator import RunConfig
from stfe2d.material import Material
from stfe2d.noise import NoiseModel, PowerLawSchedule, strat_constant


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


@pytest.mark.parametrize("header", [b"STFE2D 1 x 4 1 1 0", b"STFE2D 1 4 4 1 1 zz",
                                    b"STFE2D 1 4 4 1 1 0\xff", b"STFE2D 1 -4 -4 1 1 0",
                                    b"STFE2D 1 4 4 1 1 nan", b"STFE2D 1 4 4 inf 1 0"])
def test_bad_snapshot_header_field_is_typed(tmp_path, header):
    path = tmp_path / "f.bin"
    path.write_bytes(header + b"\n" + bytes(4 * 4 * 8))
    with pytest.raises(sio.SnapshotError):
        sio.read_snapshot(path)


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
    cells = sio.format_row(rec).split(",")
    back = DiagRecord(*map(float, cells[:-1]), stopped=bool(int(cells[-1])))
    assert back == rec


def test_format_row_prints_ints_and_bools_as_integers():
    assert sio.format_row((3, 0.1, True, False, -2.5e-300)) == \
        "3,0.10000000000000001,1,0,-2.5e-300"


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


def test_omitted_keys_take_the_defaults_of_the_objects_built():
    bundle = assemble(Config())
    assert bundle.grid == Grid(32, 32, 1.0, 1.0)
    assert bundle.run == RunConfig(t_max=0.0)
    assert bundle.noise == NoiseModel(PowerLawSchedule())
    assert bundle.material == Material()


def test_stratonovich_shift_is_not_a_config_key(tmp_path):
    # the shift is the correction constant of the noise, never set by hand
    path = write_config(tmp_path, material={"strat": 0.5})
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.violations == ["unknown key material.strat"]


def test_section_that_is_not_an_object_is_reported(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": 5, "run": {"t_max": 0.0}}))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.violations == ["section 'grid' must be an object"]


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


@pytest.mark.parametrize("section, key, value", [
    ("run", "t_max", float("nan")),
    ("run", "t_max", float("inf")),
    ("noise", "trunc_C", float("nan")),
    ("initial", "base", float("nan")),
    ("initial", "base", float("-inf")),
])
def test_cli_rejects_non_finite_config_numbers(tmp_path, capsys, section, key, value):
    # json.dumps writes these as the non-standard literals NaN/Infinity/-Infinity
    path = write_config(tmp_path, **{section: {key: value}})
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert "non-finite number" in capsys.readouterr().out


@pytest.mark.parametrize("section, key, literal, message", [
    ("noise", "trunc_C", "1e999", "non-finite number 1e999"),
    ("initial", "base", "1e999", "non-finite number 1e999"),
    ("noise", "trunc_C", "1" + "0" * 400, "out of range"),
])
def test_cli_rejects_config_numbers_that_overflow(tmp_path, capsys, section, key,
                                                  literal, message):
    # valid JSON numbers that a double cannot hold
    path = write_config(tmp_path, **{section: {key: 1.0}})
    path.write_text(path.read_text().replace(f'"{key}": 1.0', f'"{key}": {literal}'))
    assert literal in path.read_text()
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().out


@pytest.mark.parametrize("section, key, value", [
    ("grid", "nx", 16.7),
    ("grid", "nx", "16"),
    ("grid", "ny", 8.5),
    ("noise", "mode_cap", "8"),
    ("noise", "seed", 3.5),
    ("run", "max_halvings", 2.9),
    ("run", "diag_interval", True),
])
def test_cli_rejects_config_integers_that_are_not_integral(tmp_path, capsys, section, key,
                                                           value):
    # int() would truncate a fraction and accept a boolean or a numeric string
    path = write_config(tmp_path, **{section: {key: value}})
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert f"{section}.{key} must be an integer" in capsys.readouterr().out


@pytest.mark.parametrize("section, key, value, message", [
    ("noise", "lambda0", None, "noise.lambda0 float() argument"),
    ("run", "snapshot_times", 0.5, "run.snapshot_times must be a list (got 0.5)"),
    ("initial", "base", "thick", "could not convert string to float: 'thick'"),
])
def test_config_values_of_the_wrong_type_are_violations(tmp_path, section, key, value,
                                                         message):
    # a TypeError from a converter, or a bad initial value, is reported like
    # any other violation rather than escaping as a traceback
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path, **{section: {key: value}}))
    assert any(message in v for v in info.value.violations)


@pytest.mark.parametrize("value", ["12", 3.0, {"1.0": 2.0}])
def test_snapshot_times_must_be_a_list(value):
    # a string or a mapping would otherwise be iterated into times
    with pytest.raises(ConfigError) as info:
        assemble(Config(run={"snapshot_times": value, "t_max": 3.0}))
    assert info.value.violations == [f"run.snapshot_times must be a list (got {value!r})"]


def test_integral_floats_are_accepted_for_integer_keys(tmp_path):
    bundle = assemble(load_config(write_config(tmp_path, grid={"nx": 16.0},
                                               noise={"seed": 3.0})))
    assert (bundle.grid.nx, bundle.noise.seed) == (16, 3)
    assert type(bundle.grid.nx) is int


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


def test_package_import_does_not_load_scipy():
    src = Path(stfe2d.__file__).resolve().parents[1]
    code = ("import sys, stfe2d, stfe2d.cli, stfe2d.harness; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"
