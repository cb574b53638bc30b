"""JSON run configuration: parsing, strict validation, and object assembly.

Every key has one converter, in its section's table; an unknown key or a
value of the wrong JSON type is a violation that names ``section.key``.  An
omitted key takes the default of the object its section builds, except for
the configuration's own: a 32x32 unit-square grid, t_max = 0, p from the
potential, and the initial and output sections.  The Stratonovich shift is
no key: ``noise.interpretation`` sets it to the noise's correction constant
here, and below this module every run is Ito.  The objects built check their
own assumptions, and each violation names the one it breaks, e.g.
"(R) violated: 2/p + eps/2 + rho/(2p) = 1.03 >= 1".
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as sio
from .grid import Field, Grid
from .integrator import RunConfig
from .material import PROTOTYPE, Material, PowerPairPotential
from .noise import NoiseModel, PowerLawSchedule, TableSchedule, strat_constant
from .scheme import require_fine_mesh


#: 128 MiB per field; a run holds about 13 field-sized arrays
MAX_GRID_NODES = 2**24


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


@dataclass
class Config:
    grid: dict = field(default_factory=dict)
    material: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


def _number(value) -> float:
    """A JSON number; not a boolean, a string, null or a container."""
    if isinstance(value, (int, float)) and type(value) is not bool:
        return float(value)
    raise ValueError(f"must be a number (got {value!r})")


def _integer(value) -> int:
    """An integral number such as 16 or 16.0; not a fraction, a boolean or a string."""
    if isinstance(value, (int, float)) and type(value) is not bool and not value % 1:
        return int(value)
    raise ValueError(f"must be an integer (got {value!r})")


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string (got {value!r})")
    return value


def _path(value) -> str:
    if not (isinstance(value, str) and value):
        raise ValueError(f"must be a non-empty string (got {value!r})")
    return value


def _choice(*names):
    def convert(value):
        if value not in names:
            raise ValueError(f"must be one of {', '.join(map(repr, names))} (got {value!r})")
        return value
    return convert


def _times(value) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"must be a list (got {value!r})")
    return tuple(map(_number, value))


def _dt(value) -> float | None:
    return None if value in (None, "auto") else _number(value)


def _table(value) -> dict:
    """{"k,l": lambda or [lambda_x, lambda_y]} as {(k, l): (lambda_x, lambda_y)}."""
    if not isinstance(value, dict):
        raise ValueError(f"must be an object (got {value!r})")
    table = {}
    for key, lam in value.items():
        try:
            k, l = map(int, str(key).split(","))
            lx, ly = map(_number, lam if isinstance(lam, list) else [lam] * 2)
        except ValueError:
            raise ValueError(f"entry {key!r}: {lam!r} must map \"k,l\" (integers) to a number "
                             "or a list of two numbers") from None
        table[(k, l)] = (lx, ly)
    return table


def _potential(value) -> PowerPairPotential:
    """"prototype" or null, or an object of ``PowerPairPotential`` arguments
    with the optional kind "power-pair"."""
    if value in ("prototype", None):
        return PROTOTYPE
    kwargs = _section("material.potential", value, _POTENTIAL)
    return PowerPairPotential(**{k: v for k, v in kwargs.items() if k != "kind"})


# Each table maps a key, named after the constructor argument it fills where
# there is one, to its converter; every key of the configuration is in one.
_GRID = {"nx": _integer, "ny": _integer, "Lx": _number, "Ly": _number}
_POTENTIAL = {"kind": _choice("power-pair"),
              **dict.fromkeys(("coef_high", "exp_high", "coef_low", "exp_low", "const"), _number)}
_MATERIAL = {"p": _number, "eps": _number, "rho": _number, "potential": _potential}
_SCHEDULE = {"lambda0": _number, "s": _number}
_NOISE = {"trunc_C": _number, "mode_cap": _integer, "seed": _integer}
_RUN = {"t_max": _number, "dt": _dt, "e_max_C": _number, "u_floor": _number,
        "max_halvings": _integer, "snapshot_times": _times,
        "diag_interval": _integer, "alpha": _number, "kappa": _number}
_TABLES = {
    "grid": _GRID,
    "material": _MATERIAL,
    "noise": {**_SCHEDULE, **_NOISE, "schedule": _choice("power-law", "table"), "table": _table,
              "interpretation": _choice("ito", "stratonovich")},
    "run": _RUN,
    "initial": {"kind": _choice("constant", "cosine-perturbed", "file"),
                "base": _number, "amplitude": _number, "path": _path},
    "output": {"dir": _path, "prefix": _string},
}
_SECTIONS = {name: table.keys() for name, table in _TABLES.items()}


def _section(name: str, values, table: dict) -> dict:
    """``values`` through ``table``'s converters; a ConfigError names each
    unknown key, and each key whose value is rejected, as ``name.key``."""
    if not isinstance(values, dict):
        raise ConfigError([f"section {name!r} must be an object"])
    out, violations = {}, []
    for key, value in values.items():
        if key not in table:
            violations.append(f"unknown key {name}.{key}")
            continue
        try:
            out[key] = table[key](value)
        except (ValueError, OverflowError) as exc:
            violations.extend(getattr(exc, "violations", [f"{name}.{key} {exc}"]))
    if violations:
        raise ConfigError(violations)
    return out


def _finite_float(literal: str) -> float:
    """NaN, Infinity and a literal that overflows a double (1e999) are rejected."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {literal} is not allowed")
    return value


def _bounded_int(literal: str) -> int:
    """An integer literal beyond the range of a double is rejected."""
    value = int(literal)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer {literal[:12]}... is out of range")
    return value


def load_config(path) -> Config:
    """The sections of the JSON file, unconverted: ``assemble`` validates them.
    An unknown section is a ConfigError that reports the others' violations too."""
    try:
        data = json.loads(Path(path).read_text(), parse_constant=_finite_float,
                          parse_float=_finite_float, parse_int=_bounded_int)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"cannot parse {path}: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["top-level configuration must be an object"])
    violations = [f"unknown section {name!r}" for name in data if name not in _SECTIONS]
    cfg = Config(**{name: data[name] for name in _SECTIONS if name in data})
    if violations:  # reported together with those of the known sections
        try:
            assemble(cfg)
        except ConfigError as exc:
            violations.extend(exc.violations)
        raise ConfigError(violations)
    return cfg


@dataclass
class Bundle:
    """Validated, ready-to-run objects assembled from a Config."""

    grid: Grid
    material: Material
    noise: NoiseModel
    run: RunConfig
    initial: Field
    out_dir: Path
    prefix: str


def _build_grid(values: dict) -> Grid:
    grid = Grid(**{"nx": 32, "ny": 32, "Lx": 1.0, "Ly": 1.0, **values})
    if grid.n_nodes > MAX_GRID_NODES:  # checked before any field is allocated
        raise ValueError(f"grid.nx * grid.ny must not exceed {MAX_GRID_NODES} nodes "
                         f"(4096 x 4096; got {grid.nx} x {grid.ny})")
    require_fine_mesh(grid)
    return grid


def _build_noise(values: dict) -> NoiseModel:
    if values.get("schedule") == "table":
        sched = TableSchedule.from_dict(values.get("table", {}))
    else:
        sched = PowerLawSchedule(**{k: v for k, v in values.items() if k in _SCHEDULE})
    return NoiseModel(sched, **{k: v for k, v in values.items() if k in _NOISE})


def _strat_shift(noise: dict, model: NoiseModel | None, grid: Grid | None) -> float:
    """The potential shift of the noise section: the correction constant of a
    Stratonovich model, and 0 for Ito noise or where the model or the grid
    failed (a violation already)."""
    if model is None or grid is None or noise.get("interpretation") != "stratonovich":
        return 0.0
    return strat_constant(model, grid.Lx, grid.Ly)


def _build_material(values: dict, shift: float) -> Material:
    """The material; p defaults to the potential's leading exponent."""
    p = values.get("potential", PROTOTYPE).exp_high
    return Material(**{"p": p, **values}, strat_shift=shift)


def _build_initial(values: dict, grid: Grid | None) -> Field | None:
    if grid is None:
        return None
    kind, base = values.get("kind", "constant"), values.get("base", 1.0)
    amp = values.get("amplitude", 0.0)
    if kind == "constant":
        u0 = Field.constant(grid, base)
    elif kind == "cosine-perturbed":
        def f(x, y):
            return base + amp * np.cos(2 * np.pi * x / grid.Lx) * np.cos(2 * np.pi * y / grid.Ly)
        u0 = Field.from_function(grid, f)
    else:
        if "path" not in values:
            raise ValueError("initial.kind = 'file' needs initial.path")
        try:
            u0, _ = sio.read_snapshot(values["path"])
        except (OSError, ValueError) as exc:
            raise ValueError(f"initial.path {exc}") from None
        if u0.grid != grid:
            raise ValueError(f"initial.path grid {u0.grid.nx}x{u0.grid.ny} on ({u0.grid.Lx:g}, "
                             f"{u0.grid.Ly:g}) does not match the configured grid "
                             f"{grid.nx}x{grid.ny} on ({grid.Lx:g}, {grid.Ly:g})")
    if not (u0.values.min() > 0.0 and u0.values.max() < np.inf):  # NaN fails both
        source = "initial.path" if kind == "file" else "initial.base and initial.amplitude"
        raise ValueError(f"(I) violated: the initial data of {source} must be finite and "
                         "strictly positive")
    return u0


def assemble(cfg: Config) -> Bundle:
    violations: list[str] = []

    def build(make, *args):
        """``make(*args)``, or None if it fails or a section did not convert."""
        if args[0] is None:
            return None
        try:
            return make(*args)
        except ValueError as exc:
            violations.extend(getattr(exc, "violations", [str(exc)]))
            return None

    sec = {name: build(_section, name, getattr(cfg, name), table)
           for name, table in _TABLES.items()}
    grid = build(_build_grid, sec["grid"])
    model = build(_build_noise, sec["noise"])
    shift = build(_strat_shift, sec["noise"], model, grid)
    mat = build(_build_material, sec["material"], shift or 0.0)
    initial = build(_build_initial, sec["initial"], grid)
    run_cfg = build(lambda values: RunConfig(**{"t_max": 0.0, **values}), sec["run"])
    if violations:
        raise ConfigError(violations)

    out = sec["output"]
    return Bundle(grid=grid, material=mat, noise=model, run=run_cfg, initial=initial,
                  out_dir=Path(out.get("dir", "out")), prefix=out.get("prefix", "stfe2d"))
