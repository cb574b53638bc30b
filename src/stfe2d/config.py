"""JSON run configuration: parsing, strict validation, and object assembly.

Unknown keys are errors (no silent typos).  A key a section omits takes the
default of the object it builds (``Grid``, ``PowerPairPotential``,
``Material``, ``PowerLawSchedule``, ``NoiseModel``, ``RunConfig``), except
for the configuration's own defaults: a 32x32 unit-square grid, t_max = 0,
p taken from the potential, and the initial and output sections.  The
Stratonovich shift is no key: it is the noise's correction constant, or 0
for Ito noise.  Validation gathers every violation and reports each with
the name of the assumption it breaks, e.g.
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
from .material import PROTOTYPE, AssumptionError, Material, PowerPairPotential
from .noise import NoiseConfigError, NoiseModel, PowerLawSchedule, TableSchedule, strat_constant


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


def _integer(value) -> int:
    """An integral number such as 16 or 16.0; not a fraction, a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"must be an integer (got {value!r})")
    return int(value)


def _times(value) -> tuple:
    """A list of times; a string or a number is not one."""
    if not isinstance(value, list):
        raise ValueError(f"must be a list (got {value!r})")
    return tuple(map(float, value))


def _dt(value) -> float | None:
    """null or "auto" selects the stability default."""
    return None if value in (None, "auto") else float(value)


# Each table maps a key, named after the constructor argument it fills, to
# its converter; a key the section omits takes that object's default.
_GRID = {"nx": _integer, "ny": _integer, "Lx": float, "Ly": float}
_POTENTIAL = dict.fromkeys(("coef_high", "exp_high", "coef_low", "exp_low", "const"), float)
_MATERIAL = {"p": float, "eps": float, "rho": float}
_SCHEDULE = {"lambda0": float, "s": float}
_NOISE = {"trunc_C": float, "mode_cap": _integer, "seed": _integer, "interpretation": str}
_RUN = {"t_max": float, "dt": _dt, "e_max_C": float, "u_floor": float,
        "max_halvings": _integer, "snapshot_times": _times,
        "diag_interval": _integer, "alpha": float, "kappa": float}

_SECTIONS = {
    "grid": {*_GRID},
    "material": {*_MATERIAL, "potential"},
    "noise": {*_SCHEDULE, *_NOISE, "schedule", "table"},
    "run": {*_RUN},
    "initial": {"kind", "base", "amplitude", "path"},
    "output": {"dir", "prefix"},
}
_POTENTIAL_KEYS = {*_POTENTIAL, "kind"}


def _fields(name: str, section: dict, table: dict) -> dict:
    """The constructor arguments that ``section`` gives, through ``table``'s
    converters; a converter's error names the key as ``name.key``."""
    kwargs = {}
    for key, convert in table.items():
        if key in section:
            try:
                kwargs[key] = convert(section[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}.{key} {exc}") from None
    return kwargs


def _check_unknown(data: dict, violations: list):
    for section, content in data.items():
        if section not in _SECTIONS:
            violations.append(f"unknown section {section!r}")
            continue
        if not isinstance(content, dict):
            violations.append(f"section {section!r} must be an object")
            continue
        for key in content:
            if key not in _SECTIONS[section]:
                violations.append(f"unknown key {section}.{key}")
        pot = content.get("potential")
        if section == "material" and isinstance(pot, dict):
            for key in pot:
                if key not in _POTENTIAL_KEYS:
                    violations.append(f"unknown key material.potential.{key}")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _finite_float(literal: str) -> float:
    """A JSON number literal that overflows a double (1e999) is rejected."""
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
    try:
        data = json.loads(Path(path).read_text(), parse_constant=_reject_constant,
                          parse_float=_finite_float, parse_int=_bounded_int)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"cannot parse {path}: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["top-level configuration must be an object"])
    violations: list[str] = []
    _check_unknown(data, violations)
    cfg = Config(**{k: data[k] for k in _SECTIONS if isinstance(data.get(k), dict)})
    # assembly performs the semantic validation
    try:
        assemble(cfg)
    except ConfigError as exc:
        violations.extend(exc.violations)
    if violations:
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


def _build_noise(nz: dict, violations: list) -> NoiseModel | None:
    kind = nz.get("schedule", "power-law")
    try:
        if kind == "power-law":
            sched = PowerLawSchedule(**_fields("noise", nz, _SCHEDULE))
        elif kind == "table":
            table = {}
            for key, lam in dict(nz.get("table", {})).items():
                k_str, l_str = str(key).split(",")
                table[(int(k_str), int(l_str))] = lam
            sched = TableSchedule.from_dict(table)
        else:
            violations.append(f"unknown noise schedule {kind!r}")
            return None
        return NoiseModel(sched, **_fields("noise", nz, _NOISE))
    except (AssumptionError, NoiseConfigError, ValueError) as exc:
        violations.append(str(exc))
        return None


def _build_material(mt: dict, model: NoiseModel | None, grid: Grid | None,
                    violations: list) -> Material | None:
    """The material; p defaults to the potential's leading exponent, and the
    shift is the Stratonovich correction constant, or 0 for Ito noise."""
    pot_cfg = mt.get("potential", "prototype")
    try:
        if pot_cfg == "prototype" or pot_cfg is None:
            pot = PROTOTYPE
        elif isinstance(pot_cfg, dict):
            kind = pot_cfg.get("kind", "power-pair")
            if kind != "power-pair":
                raise AssumptionError(f"unknown potential kind {kind!r}")
            pot = PowerPairPotential(**_fields("material.potential", pot_cfg, _POTENTIAL))
        else:
            raise AssumptionError(f"unknown potential entry {pot_cfg!r}")

        shift = 0.0
        if model is not None and model.interpretation == "stratonovich":
            if grid is None:
                raise AssumptionError("Stratonovich shift needs the domain size")
            shift = strat_constant(model, grid.Lx, grid.Ly)
        return Material(**{"p": pot.exp_high, **_fields("material", mt, _MATERIAL)},
                        strat_shift=shift, potential=pot)
    except (AssumptionError, NoiseConfigError, ValueError) as exc:
        violations.append(str(exc))
        return None


def _build_initial(init: dict, grid: Grid | None, violations: list) -> Field | None:
    if grid is None:
        return None
    kind = init.get("kind", "constant")
    try:
        base = float(init.get("base", 1.0))
        amp = float(init.get("amplitude", 0.0))
        if kind == "constant":
            u0 = Field.constant(grid, base)
        elif kind == "cosine-perturbed":
            def f(x, y):
                return base + amp * np.cos(2 * np.pi * x / grid.Lx) * np.cos(2 * np.pi * y / grid.Ly)
            u0 = Field.from_function(grid, f)
        elif kind == "file":
            path = init.get("path")
            if not path:
                raise ValueError("initial.kind = 'file' needs initial.path")
            u0, _ = sio.read_snapshot(path)
            if u0.grid != grid:
                raise ValueError(
                    f"initial file grid {u0.grid.nx}x{u0.grid.ny} on "
                    f"({u0.grid.Lx:g}, {u0.grid.Ly:g}) does not match the "
                    f"configured grid {grid.nx}x{grid.ny} on ({grid.Lx:g}, {grid.Ly:g})")
        else:
            raise ValueError(f"unknown initial kind {kind!r}")
        if np.any(u0.values <= 0.0):
            raise ValueError("(I) violated: initial data must be strictly positive")
        return u0
    except (ValueError, OSError, sio.SnapshotError) as exc:
        violations.append(str(exc))
        return None


def assemble(cfg: Config) -> Bundle:
    violations: list[str] = []

    grid = None
    try:
        grid = Grid(**{"nx": 32, "ny": 32, "Lx": 1.0, "Ly": 1.0,
                       **_fields("grid", cfg.grid, _GRID)})
        if not (grid.h < 1.0):
            violations.append(
                f"(S) violated: mesh parameter h = {grid.h:g} must be below 1 "
                "(express lengths in units with sub-unit cells)")
    except ValueError as exc:
        violations.append(str(exc))

    model = _build_noise(cfg.noise, violations)
    mat = _build_material(cfg.material, model, grid, violations)
    initial = _build_initial(cfg.initial, grid, violations)

    run_cfg = None
    try:
        run_cfg = RunConfig(**{"t_max": 0.0, **_fields("run", cfg.run, _RUN)})
    except ValueError as exc:
        violations.append(str(exc))

    if violations:
        raise ConfigError(violations)

    return Bundle(
        grid=grid,
        material=mat,
        noise=model,
        run=run_cfg,
        initial=initial,
        out_dir=Path(cfg.output.get("dir", "out")),
        prefix=str(cfg.output.get("prefix", "stfe2d")),
    )
