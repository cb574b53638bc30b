import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stfe2d
from stfe2d import cli, config
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


_VALID_SNAPSHOT = b"STFE2D 1 4 3 1.5 0.75 0.25\n" + bytes(4 * 3 * 8)


@settings(derandomize=True, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=200) | st.builds(
    # a valid snapshot with bytes spliced in, in the header or the payload
    lambda at, cut, junk: _VALID_SNAPSHOT[:at] + junk + _VALID_SNAPSHOT[at + cut:],
    st.integers(0, len(_VALID_SNAPSHOT)), st.integers(0, 8), st.binary(max_size=8)))
def test_any_bytes_read_as_a_field_or_a_snapshot_error(tmp_path, raw):
    path = tmp_path / "f.bin"
    path.write_bytes(raw)
    try:
        field, t = sio.read_snapshot(path)
    except sio.SnapshotError:
        return
    assert isinstance(field, Field) and isinstance(t, float)
    assert field.values.shape == (field.grid.ny, field.grid.nx)


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


def test_diag_writer_writes_the_header_when_it_opens(tmp_path):
    path = tmp_path / "d.csv"
    with sio.DiagWriter(path):
        pass
    assert path.read_text() == ",".join(DiagRecord._fields) + "\n"


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
        assemble(load_config(path))
    assert any("(R) violated" in v for v in info.value.violations)


def test_stratonovich_asymmetric_table_is_rejected(tmp_path):
    path = write_config(tmp_path, noise={"schedule": "table",
                                         "table": {"1,0": [1.0, 1.0]},
                                         "interpretation": "stratonovich"})
    with pytest.raises(ConfigError) as info:
        assemble(load_config(path))
    assert any("symmetric" in v for v in info.value.violations)


@pytest.mark.parametrize("eps, violation", [
    (2.5, "regularization exponent eps = 2.5 must lie in (0, 2)"),
    ("x", "material.eps must be a number (got 'x')"),
])
def test_an_asymmetric_stratonovich_table_is_reported_with_the_material(eps, violation):
    with pytest.raises(ConfigError) as info:
        assemble(Config(material={"eps": eps}, noise={
            "schedule": "table", "table": {"1,0": 1.0}, "interpretation": "stratonovich"}))
    assert sorted(info.value.violations) == sorted(
        [violation, "Stratonovich mode requires symmetric lambda"])


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
        assemble(load_config(path))
    assert info.value.violations == ["unknown key material.strat"]


def test_section_that_is_not_an_object_is_reported(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": 5, "run": {"t_max": 0.0}}))
    with pytest.raises(ConfigError) as info:
        assemble(load_config(path))
    assert info.value.violations == ["section 'grid' must be an object"]


def test_unknown_keys_are_rejected(tmp_path):
    path = write_config(tmp_path, run={"tmax": 1.0})
    with pytest.raises(ConfigError) as info:
        assemble(load_config(path))
    assert any("unknown key run.tmax" in v for v in info.value.violations)


def test_unknown_section_is_reported_with_the_violations_of_the_others(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gird": {}, "run": {"tmax": 1}}))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.violations == ["unknown section 'gird'", "unknown key run.tmax"]


@pytest.mark.parametrize("interpretation, table", [
    ("ito", {"99999999999999999999,0": 0.1}),
    ("stratonovich", {"99999999999999999999,0": 0.1, "-99999999999999999999,0": 0.1}),
])
def test_table_modes_beyond_int64_are_dropped_like_any_mode_outside_the_square(
        tmp_path, interpretation, table):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"nx": 8, "ny": 8},
        "noise": {"schedule": "table", "table": table, "interpretation": interpretation},
        "run": {"t_max": 1e-12}, "output": {"dir": str(tmp_path / "out")}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(path)]) == cli.EXIT_OK


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
    ("noise", "lambda0", None, "noise.lambda0 must be a number (got None)"),
    ("run", "snapshot_times", 0.5, "run.snapshot_times must be a list (got 0.5)"),
    ("initial", "base", "thick", "initial.base must be a number (got 'thick')"),
])
def test_config_values_of_the_wrong_type_are_violations(tmp_path, section, key, value,
                                                         message):
    # a value of the wrong type is reported like any other violation, named
    # by its key, rather than escaping as a traceback
    with pytest.raises(ConfigError) as info:
        assemble(load_config(write_config(tmp_path, **{section: {key: value}})))
    assert any(message in v for v in info.value.violations)


@pytest.mark.parametrize("value", ["12", 3.0, {"1.0": 2.0}])
def test_snapshot_times_must_be_a_list(value):
    # a string or a mapping would otherwise be iterated into times
    with pytest.raises(ConfigError) as info:
        assemble(Config(run={"snapshot_times": value, "t_max": 3.0}))
    assert info.value.violations == [f"run.snapshot_times must be a list (got {value!r})"]


def test_snapshot_times_after_t_max_are_violations():
    # run would never reach them, so they would be dropped without a word
    with pytest.raises(ConfigError) as info:
        assemble(Config(run={"snapshot_times": [0.0, 3.0, 4.0], "t_max": 3.0}))
    assert info.value.violations == ["snapshot times must not exceed t_max = 3"]
    assert assemble(Config(run={"snapshot_times": [3.0], "t_max": 3.0})).run.snapshot_times \
        == (3.0,)


def test_integral_floats_are_accepted_for_integer_keys(tmp_path):
    bundle = assemble(load_config(write_config(tmp_path, grid={"nx": 16.0},
                                               noise={"seed": 3.0})))
    assert (bundle.grid.nx, bundle.noise.seed) == (16, 3)
    assert type(bundle.grid.nx) is int


def test_nonpositive_initial_is_rejected(tmp_path):
    path = write_config(tmp_path, initial={"kind": "cosine-perturbed",
                                           "base": 1.0, "amplitude": 1.5})
    with pytest.raises(ConfigError) as info:
        assemble(load_config(path))
    assert any("(I) violated" in v for v in info.value.violations)


def test_initial_from_file(tmp_path, rng):
    grid = Grid(8, 8, 1.0, 1.0)
    field = Field(grid, rng.uniform(0.5, 1.5, (8, 8)))
    snap = tmp_path / "u0.bin"
    sio.write_snapshot(snap, field, t=0.0)
    path = write_config(tmp_path, initial={"kind": "file", "path": str(snap)})
    bundle = assemble(load_config(path))
    assert np.array_equal(bundle.initial.values, field.values)


def test_assemble_rejects_unknown_keys():
    # the keys are checked where they are converted: assemble is the validator
    with pytest.raises(ConfigError) as info:
        assemble(Config(run={"tmax": 1.0}))
    assert info.value.violations == ["unknown key run.tmax"]


def _nan_snapshot(path):
    values = np.ones((8, 8))
    values[2, 3] = np.nan
    sio.write_snapshot(path, Field(Grid(8, 8, 1.0, 1.0), values), t=0.0)
    return str(path)


def _write_snapshots(folder):
    """Snapshots for the 8x8 unit-square grid: one good, one with a NaN node,
    one on another grid and one cut short."""
    sio.write_snapshot(folder / "good.bin", Field.constant(Grid(8, 8, 1.0, 1.0), 1.0), t=0.0)
    sio.write_snapshot(folder / "coarse.bin", Field.constant(Grid(4, 4, 1.0, 1.0), 1.0), t=0.0)
    _nan_snapshot(folder / "nan.bin")
    (folder / "junk.bin").write_bytes(b"STFE2D 1 8 8 1 1 0\n" + bytes(5))


@pytest.mark.parametrize("data, key", [
    ({"noise": {"schedule": "table", "table": [1, 2]}}, "noise.table"),
    ({"initial": {"kind": "file", "path": 5}}, "initial.path"),
    ({"output": {"dir": 3}}, "output.dir"),
    ({"output": {"dir": ""}}, "output.dir"),
    ({"initial": {"base": None}}, "initial.base"),
    ({"output": {"prefix": {"a": 1}}}, "output.prefix"),
    ({"noise": {"schedule": "table", "table": {"1,0": [1, 2, 3]}}}, "noise.table"),
    ({"noise": {"schedule": "table", "table": {"1,0,2": 0.1}}}, "noise.table"),
    ({"run": {"dt": True}}, "run.dt"),
    ({"grid": {"Lx": True}}, "grid.Lx"),
    ({"run": {"snapshot_times": [0.0, "1"]}}, "run.snapshot_times"),
    ({"noise": {"interpretation": 1}}, "noise.interpretation"),
    ({"noise": {"schedule": "white"}}, "noise.schedule"),
    ({"material": {"potential": 3}}, "material.potential"),
    ({"material": {"potential": {"kind": "lj"}}}, "material.potential.kind"),
    ({"material": {"potential": {"exp_low": "2"}}}, "material.potential.exp_low"),
    ({"initial": {"kind": "file", "path": "missing.bin"}}, "initial.path"),
    ({"initial": {"kind": "file", "path": "nan.bin"}}, "initial.path"),
    ({"initial": {"kind": "file", "path": "coarse.bin"}}, "initial.path"),
    ({"initial": {"kind": "file", "path": "junk.bin"}}, "initial.path"),
    ({"initial": {"kind": "file", "path": "."}}, "initial.path"),
    ({"initial": {"kind": "file"}}, "initial.path"),
    ({"initial": {"kind": "sine"}}, "initial.kind"),
    ({"noise": {"schedule": "table", "table": {"a,b": 0.1}}}, "noise.table"),
    ({"noise": {"schedule": "table", "table": {"1,0": "0.1"}}}, "noise.table"),
    ({"noise": {"interpretation": "strat"}}, "noise.interpretation"),
])
def test_bad_values_are_violations_that_name_their_key(tmp_path, monkeypatch, data, key):
    monkeypatch.chdir(tmp_path)
    _write_snapshots(tmp_path)
    path = write_config(tmp_path, **data)
    with pytest.raises(ConfigError) as info:
        assemble(load_config(path))
    assert any(key in v for v in info.value.violations), info.value.violations
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert key in out.getvalue()


@pytest.mark.parametrize("nx, ny", [(10**300, 8), (10**5, 10**5), (4097, 4096)])
def test_a_grid_beyond_the_node_bound_is_rejected_before_any_field_exists(tmp_path, nx, ny):
    # a 10^5 x 10^5 field alone would take 80 GB
    with pytest.raises(ConfigError) as info:
        assemble(Config(grid={"nx": nx, "ny": ny}))
    [violation] = info.value.violations
    assert "grid.nx" in violation and "grid.ny" in violation
    path = write_config(tmp_path, grid={"nx": nx, "ny": ny})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert "grid.nx" in out.getvalue()


def test_the_largest_grid_within_the_node_bound_is_accepted():
    assert config._build_grid({"nx": 4096, "ny": 4096}).n_nodes == config.MAX_GRID_NODES


def test_initial_data_must_be_finite():
    # rule (I) also rejects NaN and infinity, which "u > 0" alone would not
    with pytest.raises(ConfigError) as info:
        assemble(Config(grid={"nx": 8, "ny": 8}, initial={"base": float("inf")}))
    assert info.value.violations == [
        "(I) violated: the initial data of initial.base and initial.amplitude must be "
        "finite and strictly positive"]


def test_cli_rejects_a_nan_snapshot_without_a_traceback(tmp_path):
    snap = _nan_snapshot(tmp_path / "nan.bin")
    path = write_config(tmp_path, initial={"kind": "file", "path": snap})
    src = Path(stfe2d.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "stfe2d", "run", str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_VALIDATION
    assert "initial.path" in proc.stdout
    assert "Traceback" not in proc.stderr


# Any JSON value at any key: assemble(load_config(...)) returns or raises a ConfigError, a
# value of the wrong type is a violation that names its key, and the CLI
# rejects the file with exit code 1.  Grid sizes and the mode cap stay at
# most 64, so that no example allocates a large field or mode table.
_NAMES = st.sampled_from(["power-law", "table", "ito", "stratonovich", "constant",
                          "cosine-perturbed", "file", "power-pair", "prototype", "auto"])
_SNAPSHOTS = ["good.bin", "nan.bin", "coarse.bin", "junk.bin", "missing.bin", "."]


def _json(numbers):
    """Numbers, names and lists of numbers as often as any other JSON value."""
    leaves = st.none() | st.booleans() | numbers | st.text(max_size=6) | _NAMES
    nested = st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                          max_leaves=6)
    return numbers | _NAMES | st.lists(numbers, max_size=3) | nested


_ANY = _json(st.integers(-2**70, 2**70) | st.floats(allow_nan=False, allow_infinity=False))
_SMALL = _json(st.integers(-2**70, 64) | st.floats(max_value=64.0, allow_nan=False,
                                                   allow_infinity=False))
_KEYS = [(section, key) for section, keys in config._SECTIONS.items() for key in sorted(keys)]
_KEYS += [("material.potential", key) for key in sorted(config._POTENTIAL.keys())]
_VALUES = {
    ("grid", "nx"): _SMALL, ("grid", "ny"): _SMALL, ("noise", "mode_cap"): _SMALL,
    ("noise", "table"): st.dictionaries(
        st.from_regex(r"\A-?[0-9]{1,3},-?[0-9]{1,3}\Z") | st.text(max_size=6), _ANY,
        max_size=3) | _ANY,
    ("initial", "path"): st.sampled_from(_SNAPSHOTS)
    | st.text(max_size=8).filter(lambda s: "/" not in s) | _ANY,
    ("material", "potential"): st.dictionaries(
        st.sampled_from(sorted(config._POTENTIAL.keys())) | st.text(max_size=4), _ANY,
        max_size=3) | _ANY,
}
# the schedule and the initial kind that read the key under test
_CONTEXT = {("noise", "table"): {"noise": {"schedule": "table"}},
            ("initial", "path"): {"initial": {"kind": "file"}}}


@pytest.mark.parametrize("section, key", _KEYS)
@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_value_at_any_key_is_accepted_or_a_typed_violation(
        tmp_path, monkeypatch, section, key, data):
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / "good.bin").exists():
        _write_snapshots(tmp_path)
    value = data.draw(_VALUES.get((section, key), _ANY))
    cfg = {"grid": {"nx": 8, "ny": 8}, "run": {"t_max": 0.0}, "output": {"dir": "out"}}
    for name, entries in _CONTEXT.get((section, key), {}).items():
        cfg.setdefault(name, {}).update(entries)
    if section == "material.potential":
        cfg["material"] = {"p": 8.0, "potential": {key: value}}
    else:
        cfg.setdefault(section, {})[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    try:
        assemble(load_config(path))
    except ConfigError as exc:
        violations = exc.violations
    else:
        return
    assert violations and all(isinstance(v, str) for v in violations)
    if not any(f"{section}.{key}" in v for v in violations):
        # a violation that does not name the key comes from the object
        # built, which checks a value of the right type
        table = config._POTENTIAL if section == "material.potential" else \
            config._TABLES[section]
        table[key](value)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert "configuration rejected" in out.getvalue()


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


def test_cli_converge_uses_the_config_domain_noise_and_eps(tmp_path, capsys):
    from stfe2d.harness import STUDIES
    from stfe2d.noise import b3star_monitor
    path = write_config(tmp_path, name="conv.json",
                        grid={"nx": 16, "ny": 16, "Lx": 0.8, "Ly": 1.0},
                        noise={"lambda0": 0.2, "s": 4.5}, material={"eps": 0.8},
                        output={"dir": str(tmp_path / "conv"), "prefix": "c"})
    bundle = assemble(load_config(path))
    assert cli.main(["converge", str(path)]) == cli.EXIT_OK
    hs, b3star = {}, []
    for line in (tmp_path / "conv" / "c_rates.csv").read_text().splitlines()[1:]:
        study, metric, h, value = line.split(",")
        if metric.endswith("_slope"):
            continue
        hs.setdefault(study, []).append(float(h))
        if study == "noise_b3star":
            b3star.append((float(h), float(value)))
    for kind, study in STUDIES.items():
        expected = [getattr(Grid(n, n, 0.8, 1.0), study.mesh) for n in study.levels]
        n_metrics = len(hs[kind]) // len(study.levels)
        assert hs[kind] == [h for h in expected for _ in range(n_metrics)]
    # hx = 0.8 / n and h = 1 / n differ on this domain
    assert hs["interp"][0] == 0.1 and hs["noise_b3star"][0] == 0.125
    assert b3star == [(h, b3star_monitor(bundle.noise, h, bundle.material.eps))
                      for h, _ in b3star]
    assert b3star != [(h, b3star_monitor(NoiseModel(PowerLawSchedule()), h, 1.0))
                      for h, _ in b3star]


def test_cli_converge_rejects_a_level_outside_assumption_s(tmp_path, capsys):
    # h = 0.3125 satisfies (S), but the n = 8 level of every study has h = 1.25
    path = write_config(tmp_path, name="conv.json",
                        grid={"nx": 32, "ny": 32, "Lx": 10.0, "Ly": 10.0},
                        output={"dir": str(tmp_path / "conv"), "prefix": "c"})
    assemble(load_config(path))
    assert cli.main(["converge", str(path)]) == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert out.startswith("configuration rejected:")
    assert "(S) violated: mesh parameter h = 1.25 of the 8 x 8 grid" in out
    assert not (tmp_path / "conv").exists()


def test_config_rejects_a_grid_outside_assumption_s():
    with pytest.raises(ConfigError) as info:
        assemble(Config(grid={"nx": 4, "ny": 4, "Lx": 2.0, "Ly": 8.0}))
    assert info.value.violations == [
        "(S) violated: mesh parameter h = 2 of the 4 x 4 grid on (2, 8) must be below 1 "
        "(express lengths in units with sub-unit cells)"]


def test_cli_check_failure_exit_code(monkeypatch, capsys):
    from stfe2d.oracle import CheckResult

    def fake_checks():
        return [CheckResult("ibp_identities", True, "ok"),
                CheckResult("drift_weak_form", False, "residual 1e-3")]

    monkeypatch.setattr(cli, "run_checks", fake_checks)
    assert cli.main(["check"]) == cli.EXIT_CHECK
    out = capsys.readouterr().out
    assert "FAIL drift_weak_form" in out


@pytest.mark.parametrize("argv", [[], ["bogus"], ["run"]], ids=["none", "bogus", "run"])
def test_cli_usage_error_exits_as_a_rejection(argv, capsys):
    # exit 2 is kept for a runtime abort; argparse's own usage exit is 2
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "usage: stfe2d" in capsys.readouterr().err


def test_cli_help_exits_ok(capsys):
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert "usage: stfe2d" in capsys.readouterr().out


def test_python_m_stfe2d_without_a_command_exits_1():
    src = Path(stfe2d.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "stfe2d"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == cli.EXIT_VALIDATION
    assert "Traceback" not in proc.stderr


def test_package_import_does_not_load_scipy():
    src = Path(stfe2d.__file__).resolve().parents[1]
    code = ("import sys, stfe2d, stfe2d.cli, stfe2d.harness; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"
