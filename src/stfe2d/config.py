"""JSON run configuration: parsing, strict validation, and object assembly.

Unknown keys are errors (no silent typos).  Validation gathers every
violation and reports each with the name of the assumption it breaks, e.g.
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
from .material import AssumptionError, Material, PowerPairPotential
from .noise import NoiseConfigError, NoiseModel, PowerLawSchedule, TableSchedule, strat_constant


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


_SECTIONS = {
    "grid": {"nx", "ny", "Lx", "Ly"},
    "material": {"p", "eps", "rho", "potential", "strat"},
    "noise": {"schedule", "lambda0", "s", "table", "trunc_C", "mode_cap", "seed",
              "interpretation"},
    "run": {"dt", "t_max", "e_max_C", "u_floor", "max_halvings", "snapshot_times",
            "diag_interval", "alpha", "kappa"},
    "initial": {"kind", "base", "amplitude", "path"},
    "output": {"dir", "prefix"},
}

_POTENTIAL_KEYS = {"kind", "coef_high", "exp_high", "coef_low", "exp_low", "const"}


@dataclass
class Config:
    grid: dict = field(default_factory=dict)
    material: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


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


def _integer(section: dict, name: str, key: str, default: int) -> int:
    """An integral number such as 16 or 16.0; not a fraction, a boolean or a string."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"{name}.{key} must be an integer (got {value!r})")
    return int(value)


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
    cfg = Config(**{k: data.get(k, {}) for k in _SECTIONS})
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
            sched = PowerLawSchedule(lambda0=float(nz.get("lambda0", 0.1)),
                                     s=float(nz.get("s", 4.0)))
        elif kind == "table":
            table = {}
            for key, lam in dict(nz.get("table", {})).items():
                k_str, l_str = str(key).split(",")
                table[(int(k_str), int(l_str))] = lam
            sched = TableSchedule.from_dict(table)
        else:
            violations.append(f"unknown noise schedule {kind!r}")
            return None
        return NoiseModel(
            schedule=sched,
            trunc_C=float(nz.get("trunc_C", 1.0)),
            mode_cap=_integer(nz, "noise", "mode_cap", 64),
            seed=_integer(nz, "noise", "seed", 0),
            interpretation=str(nz.get("interpretation", "ito")),
        )
    except (AssumptionError, NoiseConfigError, ValueError) as exc:
        violations.append(str(exc))
        return None


def _build_material(mt: dict, model: NoiseModel | None, grid: Grid | None,
                    violations: list) -> Material | None:
    pot_cfg = mt.get("potential", "prototype")
    try:
        if pot_cfg == "prototype" or pot_cfg is None:
            pot = PowerPairPotential()
        elif isinstance(pot_cfg, dict):
            kind = pot_cfg.get("kind", "power-pair")
            if kind != "power-pair":
                raise AssumptionError(f"unknown potential kind {kind!r}")
            pot = PowerPairPotential(
                coef_high=float(pot_cfg.get("coef_high", 1.0)),
                exp_high=float(pot_cfg.get("exp_high", 8.0)),
                coef_low=float(pot_cfg.get("coef_low", 1.0)),
                exp_low=float(pot_cfg.get("exp_low", 2.0)),
                const=float(pot_cfg.get("const", 1.0)),
            )
        else:
            raise AssumptionError(f"unknown potential entry {pot_cfg!r}")

        shift = mt.get("strat", "auto")
        if shift == "auto":
            shift = 0.0
            if model is not None and model.interpretation == "stratonovich":
                if grid is None:
                    raise AssumptionError("Stratonovich shift needs the domain size")
                shift = strat_constant(model, grid.Lx, grid.Ly)
        return Material(
            p=float(mt.get("p", pot.exp_high)),
            eps=float(mt.get("eps", 1.0)),
            rho=float(mt.get("rho", 1.0)),
            strat_shift=float(shift),
            potential=pot,
        )
    except (AssumptionError, NoiseConfigError, ValueError) as exc:
        violations.append(str(exc))
        return None


def _build_initial(init: dict, grid: Grid | None, violations: list) -> Field | None:
    if grid is None:
        return None
    kind = init.get("kind", "constant")
    base = float(init.get("base", 1.0))
    amp = float(init.get("amplitude", 0.0))
    try:
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
        grid = Grid(nx=_integer(cfg.grid, "grid", "nx", 32),
                    ny=_integer(cfg.grid, "grid", "ny", 32),
                    Lx=float(cfg.grid.get("Lx", 1.0)), Ly=float(cfg.grid.get("Ly", 1.0)))
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
        rn = cfg.run
        run_cfg = RunConfig(
            t_max=float(rn.get("t_max", 0.0)),
            dt=None if rn.get("dt") in (None, "auto") else float(rn["dt"]),
            e_max_C=float(rn.get("e_max_C", 10.0)),
            u_floor=float(rn.get("u_floor", 1e-10)),
            max_halvings=_integer(rn, "run", "max_halvings", 20),
            snapshot_times=tuple(float(t) for t in rn.get("snapshot_times", ())),
            diag_interval=_integer(rn, "run", "diag_interval", 1),
            alpha=float(rn.get("alpha", 1.0)),
            kappa=float(rn.get("kappa", 1.0)),
        )
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
