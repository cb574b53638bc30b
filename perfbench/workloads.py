"""Benchmark workloads: generated inputs, timed units, output checks, and the
reduction of a run to its end-to-end and per-layer metrics.

The package is driven from outside through the calls ``stfe2d run`` and
``mc_ensemble`` make: ``config.load_config`` and ``config.assemble``,
``integrator.run`` with ``io.DiagWriter.append`` and ``io.write_snapshot``
as callbacks, and ``harness.mc_ensemble``.  The package sees only the
generated config files; the benchmark seed never reaches it directly.

Call ``bootstrap.prepare()`` before importing this module.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stfe2d import config as sconfig
from stfe2d import diagnostics, harness, integrator, noise, scheme
from stfe2d import io as sio

from spans import SpanRecorder, self_times
from stats import MIN_BEYOND, Tally, TooFewSamples, tail_percentile

#: criterion 1 of the acceptance suite
MASS_DRIFT_TOL = 1e-10
#: reference outputs may differ by this much per step, relative: rounding
#: scale, loose enough for reordered floating-point work
RTOL_PER_STEP = 4096 * np.finfo(float).eps
#: noise seeds with recorded reference outputs; unit r of a run with
#: benchmark seed s uses REF_SEED_BASE + (s + r) % N_REF_SEEDS
REF_SEED_BASE = 1000
N_REF_SEEDS = 12
#: set-up-only probes before each timed unit of an untraced run, enough
#: that three units of a trajectory give MIN_SETUP_SAMPLES
SETUP_PROBES = 13
#: replicas of each ensemble that also run in-process, timed
PROBE_REPLICAS = 3
#: step samples needed so that p95 has MIN_BEYOND samples beyond it
MIN_STEP_SAMPLES = 20 * MIN_BEYOND + 10
#: set-up samples needed so that p75 has MIN_BEYOND samples beyond it
MIN_SETUP_SAMPLES = 4 * MIN_BEYOND
#: a run stops starting units after this long, to end well within 180 s
HARD_STOP_S = 120.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s.max": "s",
    "step_ms.p95": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "diagnostics.record.ms": "ms",
    "diagnostics.record.self_ms": "ms",
    "diagnostics.energy.ms": "ms",
    "diagnostics.energy.calls_per_step": "count",
    "scheme.drift.ms": "ms",
    "scheme.diffusion.ms": "ms",
    "scheme.dissipation.ms": "ms",
    "scheme.pressure.calls_per_step": "count",
    "fem.roll_calls_per_step": "count",
    "noise.synth.ms": "ms",
    "noise.normals.ms": "ms",
    "noise.synth.calls": "count",
    "noise.modes": "count",
    "noise.basis_bytes": "bytes",
    "noise.synth.bytes_per_call": "bytes",
    "noise.workspace_build_s": "s",
    "config.assemble.ms": "ms",
    "integrator.step.self_ms": "ms",
    "integrator.attempts_per_step": "count",
    "integrator.halvings": "count",
    "io.diag_row.ms": "ms",
    "io.snapshot.ms": "ms",
    "io.bytes_written": "bytes",
    "harness.replica_s": "s",
    "harness.pool_efficiency": "ratio",
    "harness.aborted": "count",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "trajectory" or "ensemble"
    n: int               # nodes per side of the unit square
    trunc_C: float       # noise truncation constant
    steps: int           # base steps to the horizon
    snapshots: int = 0   # snapshot times, evenly spaced over [0, horizon]
    replicas: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("traj-n32-diag", "trajectory", n=32, trunc_C=1.0, steps=2000, snapshots=5),
    Workload("traj-n128-noise", "trajectory", n=128, trunc_C=2.0, steps=200, snapshots=2),
    Workload("ensemble-n16", "ensemble", n=16, trunc_C=1.0, steps=200, replicas=32),
)}


def default_dt(n: int) -> float:
    """The solver's documented default step on the unit square with eps = 1:
    a tenth of the explicit bound (lam^2 + h lam^3) dt <= 2, lam = 8/h^2.
    Computed here so that the inputs do not depend on the code under test."""
    h = 1.0 / n
    lam = 4.0 / h**2 + 4.0 / h**2
    return 0.1 * 2.0 / (lam**2 + h * lam**3)


def unit_seed(seed: int, rep: int) -> int:
    return REF_SEED_BASE + (seed + rep) % N_REF_SEEDS


def make_config(wl: Workload, noise_seed: int, out_dir: Path) -> dict:
    t_max = wl.steps * default_dt(wl.n)
    snaps = [t_max * k / (wl.snapshots - 1) for k in range(wl.snapshots)] \
        if wl.snapshots > 1 else [0.0] * wl.snapshots
    return {
        "grid": {"nx": wl.n, "ny": wl.n, "Lx": 1.0, "Ly": 1.0},
        "material": {"p": 8, "eps": 1.0, "rho": 1.0, "potential": "prototype"},
        "noise": {"schedule": "power-law", "lambda0": 0.1, "s": 4.0,
                  "trunc_C": wl.trunc_C, "mode_cap": 64, "seed": noise_seed,
                  "interpretation": "ito"},
        "run": {"dt": None, "t_max": t_max, "e_max_C": 10.0, "u_floor": 1e-10,
                "max_halvings": 20, "snapshot_times": snaps, "diag_interval": 1},
        "initial": {"kind": "cosine-perturbed", "base": 1.0, "amplitude": 0.1},
        "output": {"dir": str(out_dir), "prefix": wl.name},
    }


def write_config(wl: Workload, noise_seed: int, workdir: Path) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{wl.name}-{noise_seed}.json"
    path.write_text(json.dumps(make_config(wl, noise_seed, workdir / "out"), indent=1))
    return path


def reference_seeds(wl: Workload) -> list[int]:
    """Noise seeds whose outputs a run can check: replica r of an ensemble
    with base seed b runs with seed b + r."""
    return list(range(REF_SEED_BASE, REF_SEED_BASE + N_REF_SEEDS + wl.replicas - 1))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def reference_values(result) -> dict:
    """The outputs of one trajectory that are compared with the references."""
    return {"sup_R": result.sup_R, "diss_integral": result.diss_integral,
            "E_total": result.records[-1].E_total}


def check_reference(wl: Workload, noise_seed: int, values: dict, refs: dict) -> list[str]:
    ref = refs.get(str(noise_seed))
    if ref is None:
        return [f"{wl.name} seed {noise_seed}: no reference output recorded"]
    rtol = RTOL_PER_STEP * wl.steps
    return [f"{wl.name} seed {noise_seed}: {key} = {val!r}, reference {ref[key]!r} "
            f"(rtol {rtol:.1e})"
            for key, val in values.items()
            if not math.isclose(val, ref[key], rel_tol=rtol, abs_tol=0.0)]


def check_run(wl: Workload, noise_seed: int, result, u_floor: float, refs: dict) -> list[str]:
    """Checks on one in-process trajectory; every record is kept (diag_interval 1)."""
    tag = f"{wl.name} seed {noise_seed}"
    problems = []
    if result.final.step != wl.steps:
        problems.append(f"{tag}: {result.final.step} steps, expected {wl.steps}")
    if not result.max_mass_drift <= MASS_DRIFT_TOL:
        problems.append(f"{tag}: mass drift {result.max_mass_drift:.3e} > {MASS_DRIFT_TOL:g}")
    u_min = min(rec.u_min for rec in result.records)
    if not u_min > u_floor:
        problems.append(f"{tag}: u_min {u_min:g} not above u_floor {u_floor:g}")
    return problems + check_reference(wl, noise_seed, reference_values(result), refs)


def check_outcome(wl: Workload, outcome, refs: dict) -> list[str]:
    """Checks on one replica returned by the ensemble pool."""
    tag = f"{wl.name} replica {outcome.replica} (seed {outcome.seed})"
    if outcome.error is not None:
        return [f"{tag}: aborted: {outcome.error}"]
    problems = []
    if outcome.steps != wl.steps:
        problems.append(f"{tag}: {outcome.steps} steps, expected {wl.steps}")
    if not outcome.mass_drift <= MASS_DRIFT_TOL:
        problems.append(f"{tag}: mass drift {outcome.mass_drift:.3e} > {MASS_DRIFT_TOL:g}")
    return problems + check_reference(
        wl, outcome.seed,
        {"sup_R": outcome.sup_R, "diss_integral": outcome.diss_integral}, refs)


def derived_halvings(records, base_dt: float, t_max: float) -> list[int]:
    """Halvings of each accepted step, from its dt against the full step."""
    out = []
    for prev, rec in zip(records, records[1:]):
        full = min(base_dt, max(t_max - prev.t, 0.0))
        out.append(max(0, round(math.log2(full / (rec.t - prev.t)))))
    return out


# ---------------------------------------------------------------------------
# timed units
# ---------------------------------------------------------------------------

@dataclass
class Unit:
    """One trajectory, or one ensemble with its in-process replicas."""

    wall_s: float
    setup_s: list              # config load to first record, per in-process run
    step_ms: list
    sim_time: float
    replicas: int
    replica_s: list            # wall time per in-process run
    steps: int                 # accepted steps of the traced in-process run
    halvings: list
    bytes_written: int = 0
    aborted: int = 0
    # trace window: the stepping phase of the in-process trajectory
    window: tuple = (0.0, 0.0)
    counts: dict = field(default_factory=dict)


class _SetupDone(Exception):
    pass


class _Trajectory:
    """Runs one trajectory the way ``stfe2d run`` does and times it from the
    callbacks: set-up ends when the first record is emitted."""

    def __init__(self, rec: SpanRecorder | None):
        self.rec = rec
        self.stamps: list[float] = []
        self.counts_first: dict = {}

    def on_record(self, writer):
        def diag_cb(record):
            if writer is not None:
                writer.append(record)
            self.stamps.append(time.perf_counter())
            if len(self.stamps) == 1 and self.rec is not None:
                self.counts_first = dict(self.rec.counts)
        return diag_cb

    def counts_since_first(self) -> dict:
        if self.rec is None:
            return {}
        return {k: v - self.counts_first.get(k, 0) for k, v in self.rec.counts.items()}


def setup_probe(wl: Workload, cfg_path: Path) -> float:
    """Config load until the first record: the set-up every run pays."""
    def stop(record):
        raise _SetupDone

    t0 = time.perf_counter()
    bundle = sconfig.assemble(sconfig.load_config(cfg_path))
    try:
        integrator.run(bundle.initial, bundle.run, bundle.material, bundle.noise,
                       diag_cb=stop)
    except _SetupDone:
        return time.perf_counter() - t0
    raise RuntimeError("run returned without emitting a record")


def run_trajectory_unit(wl, noise_seed, workdir, refs, tally, rec=None) -> Unit | None:
    cfg_path = write_config(wl, noise_seed, workdir)
    traj = _Trajectory(rec)
    t0 = time.perf_counter()
    bundle = sconfig.assemble(sconfig.load_config(cfg_path))
    out = bundle.out_dir
    out.mkdir(parents=True, exist_ok=True)
    snap_index = [0]

    def snapshot_cb(state):
        sio.write_snapshot(out / f"{bundle.prefix}_snap{snap_index[0]:04d}.bin",
                           state.u, state.t)
        snap_index[0] += 1

    try:
        with sio.DiagWriter(out / f"{bundle.prefix}_diag.csv") as writer:
            result = integrator.run(bundle.initial, bundle.run, bundle.material,
                                    bundle.noise, diag_cb=traj.on_record(writer),
                                    snapshot_cb=snapshot_cb)
        sio.write_snapshot(out / f"{bundle.prefix}_final.bin", result.final.u, result.final.t)
    except integrator.SimulationAbort as exc:
        tally.add([f"{wl.name} seed {noise_seed}: runtime abort: {exc}"])
        shutil.rmtree(out, ignore_errors=True)
        return None
    t_end = time.perf_counter()
    counts = traj.counts_since_first()

    problems = check_run(wl, noise_seed, result, bundle.run.u_floor, refs)
    if snap_index[0] != wl.snapshots:
        problems.append(f"{wl.name} seed {noise_seed}: {snap_index[0]} snapshots, "
                        f"expected {wl.snapshots}")
    written = sum(p.stat().st_size for p in out.iterdir())
    shutil.rmtree(out)
    tally.add(problems)
    base_dt = bundle.run.base_dt(bundle.grid, bundle.material)
    return Unit(
        wall_s=t_end - t0, setup_s=[traj.stamps[0] - t0],
        step_ms=list(np.diff(traj.stamps) * 1e3), sim_time=result.final.t,
        replicas=1, replica_s=[t_end - t0], steps=result.final.step,
        halvings=derived_halvings(result.records, base_dt, bundle.run.t_max),
        bytes_written=written, window=(traj.stamps[0], t_end), counts=counts)


def run_ensemble_unit(wl, base_seed, workdir, refs, tally, workers, rec=None) -> Unit | None:
    cfg_path = write_config(wl, base_seed, workdir)
    # The first replicas also run in-process, through the calls the pool
    # worker makes, so that their set-up, steps and layers can be timed;
    # their results must equal the pool's bit for bit.  Several short
    # windows spread over the run sample the machine's state more evenly.
    setups, steps, walls, results = [], [], [], []
    for r in range(min(PROBE_REPLICAS, wl.replicas)):
        traj = _Trajectory(rec if r == 0 else None)
        t0 = time.perf_counter()
        bundle = sconfig.assemble(sconfig.load_config(cfg_path))
        try:
            result = integrator.run(bundle.initial, bundle.run, bundle.material,
                                    bundle.noise.with_seed(base_seed + r),
                                    diag_cb=traj.on_record(None))
        except integrator.SimulationAbort as exc:
            tally.add([f"{wl.name} seed {base_seed + r}: in-process replica aborted: {exc}"])
            return None
        t1 = time.perf_counter()
        if r == 0:
            window, counts = (traj.stamps[0], t1), traj.counts_since_first()
        setups.append(traj.stamps[0] - t0)
        steps.extend(np.diff(traj.stamps) * 1e3)
        walls.append(t1 - t0)
        results.append(result)

    t2 = time.perf_counter()
    summary = harness.mc_ensemble(sconfig.load_config(cfg_path), wl.replicas,
                                  max_workers=workers)
    t3 = time.perf_counter()

    for result, outcome in zip(results, summary.outcomes):
        problems = check_run(wl, outcome.seed, result, bundle.run.u_floor, refs)
        if (outcome.sup_R, outcome.diss_integral) != (result.sup_R, result.diss_integral):
            problems.append(f"{wl.name} seed {outcome.seed}: pool replica "
                            f"{outcome.replica} differs from the in-process run")
        tally.add(problems)
    if len(summary.outcomes) != wl.replicas:
        tally.add([f"{wl.name}: {len(summary.outcomes)} outcomes for {wl.replicas} replicas"])
    for outcome in summary.outcomes:
        tally.add(check_outcome(wl, outcome, refs))
    base_dt = bundle.run.base_dt(bundle.grid, bundle.material)
    return Unit(
        wall_s=t3 - t2, setup_s=setups, step_ms=steps,
        sim_time=bundle.run.t_max * (wl.replicas - summary.n_aborted),
        replicas=wl.replicas, replica_s=walls, steps=results[0].final.step,
        halvings=derived_halvings(results[0].records, base_dt, bundle.run.t_max),
        aborted=summary.n_aborted, window=window, counts=counts)


# ---------------------------------------------------------------------------
# tracing by rebinding public entry points
# ---------------------------------------------------------------------------

def _targets():
    """(owner, attribute, span name, counted only) for each traced call."""
    return [
        (integrator, "step_em", "integrator.step", False),
        (integrator.NoiseWorkspace, "build", "noise.workspace_build", False),
        (integrator.NoiseWorkspace, "coefficient_fields", "noise.synth", False),
        (noise, "standard_normals", "noise.normals", False),
        (scheme, "drift_values", "scheme.drift", False),
        (scheme, "diffusion_values", "scheme.diffusion", False),
        (scheme, "dissipation", "scheme.dissipation", False),
        (scheme, "pressure_values", "scheme.pressure", True),
        (diagnostics, "make_record", "diagnostics.record", False),
        (diagnostics, "energy_h", "diagnostics.energy", False),
        (sconfig, "assemble", "config.assemble", False),
        (sio, "write_snapshot", "io.snapshot", False),
        (sio.DiagWriter, "append", "io.diag_row", False),
        (np, "roll", "fem.roll", True),
    ]


@contextlib.contextmanager
def instrumented(rec: SpanRecorder | None):
    """Rebind the traced entry points to recording wrappers, then restore them."""
    if rec is None:
        yield
        return
    saved = []
    try:
        for owner, attr, name, count_only in _targets():
            orig = owner.__dict__[attr]
            wrap = rec.counted if count_only else rec.timed
            if isinstance(orig, classmethod):
                new = classmethod(wrap(name, orig.__func__))
            else:
                new = wrap(name, orig)
            saved.append((owner, attr, orig))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def noise_modes(wl: Workload, workdir: Path) -> int:
    """Active noise modes of the workload's configuration."""
    bundle = sconfig.assemble(sconfig.load_config(write_config(wl, REF_SEED_BASE, workdir)))
    return len(noise.truncation_set(bundle.noise, bundle.grid.h, bundle.material.eps))


@dataclass
class Report:
    correct: bool
    tally: Tally
    metrics: dict          # name -> value; units in E2E_UNITS / LAYER_UNITS
    info: dict             # name -> (value, unit) printed but not bounded
    breakdown: list        # (layer, ms per step) of the traced stepping phase
    modes: int             # active noise modes of the workload


def _median(xs, scale=1.0) -> float:
    return statistics.median(xs) * scale if xs else 0.0


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus the largest child's peak once per pool
    worker: an upper bound.  The workers are forked, so each child's peak
    already holds the pages it shares with this process, and the peaks
    summed here need not have coincided in time."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def end_to_end_metrics(units: list, setups: list, workers: int) -> tuple[dict, dict]:
    """The bounded metrics, and the informational ones.

    On a shared 2-core host the per-core speed switches between two levels
    about 1.6x apart, in episodes of seconds to minutes, so the share of
    slow time differs from run to run.  Totals, rates and medians follow
    that share; their run-to-run spread (IQR/median over 10 runs) reached
    0.29-0.48, above the largest bound a metric may have, so they are
    printed but not bounded.  The bounded timings are each taken at the
    slow level, which almost every run visits: the p95 step time, the p75
    set-up time and the slowest unit's wall time (one trajectory, or one
    ``mc_ensemble`` pool run)."""
    steps = [x for u in units for x in u.step_ms]
    total_s = sum(u.wall_s for u in units)
    metrics = {
        "setup_s": tail_percentile(setups, 75),
        "wall_s.max": max(u.wall_s for u in units),
        "step_ms.p95": tail_percentile(steps, 95),
        "peak_rss_mb": peak_rss_mb(workers),
    }
    info = {
        "wall_s": (total_s / len(units), "s"),
        "sim_time_per_s": (sum(u.sim_time for u in units) / total_s, "sim_s/s"),
        "replicas_per_s": (sum(u.replicas for u in units) / total_s, "1/s"),
        "step_ms.p50": (statistics.median(steps), "ms"),
        "step_ms.samples": (len(steps), "count"),
        "setup_s.p50": (statistics.median(setups), "s"),
        "setup_s.samples": (len(setups), "count"),
    }
    return metrics, info


def layer_metrics(wl: Workload, traced: list, plain: list, workers: int,
                  modes: int) -> tuple[dict, list]:
    """Per-layer metrics from the traced units (each a (Unit, recorder) pair)."""
    dur: dict[str, list] = {}
    own: dict[str, list] = {}
    per_step: dict[str, list] = {}
    step_total: dict[str, float] = {}
    steps_total = 0
    for unit, rec in traced:
        lo, hi = unit.window
        in_window = [lo <= s.start < hi for s in rec.spans]
        step_spans = {i for i, s in enumerate(rec.spans) if s.name == "integrator.step"}
        calls: dict[str, int] = {}
        for i, (span, self_s) in enumerate(zip(rec.spans, self_times(rec.spans))):
            dur.setdefault(span.name, []).append(span.end - span.start)
            own.setdefault(span.name, []).append(self_s)
            if in_window[i]:
                calls[span.name] = calls.get(span.name, 0) + 1
                # children of one loop iteration: what step_em calls, and
                # what the run loop calls around it
                if span.parent == -1 or span.parent in step_spans:
                    key = span.name if span.name != "integrator.step" else "integrator.step(self)"
                    value = self_s if span.name == "integrator.step" else span.end - span.start
                    step_total[key] = step_total.get(key, 0.0) + value
        steps_total += unit.steps
        per_step.setdefault("diagnostics.energy", []).append(
            calls.get("diagnostics.energy", 0) / unit.steps)
        per_step.setdefault("noise.synth.calls", []).append(calls.get("noise.synth", 0))
        for name in ("scheme.pressure", "fem.roll"):
            per_step.setdefault(name, []).append(unit.counts.get(name, 0) / unit.steps)

    plain_wall = _median([u.wall_s for u in plain])
    replica_s = _median([x for u in plain for x in u.replica_s])
    bytes_per_mode = wl.n * wl.n * 8
    metrics = {
        "diagnostics.record.ms": _median(dur.get("diagnostics.record"), 1e3),
        "diagnostics.record.self_ms": _median(own.get("diagnostics.record"), 1e3),
        "diagnostics.energy.ms": _median(dur.get("diagnostics.energy"), 1e3),
        "diagnostics.energy.calls_per_step": _median(per_step["diagnostics.energy"]),
        "scheme.drift.ms": _median(dur.get("scheme.drift"), 1e3),
        "scheme.diffusion.ms": _median(dur.get("scheme.diffusion"), 1e3),
        "scheme.dissipation.ms": _median(dur.get("scheme.dissipation"), 1e3),
        "scheme.pressure.calls_per_step": _median(per_step["scheme.pressure"]),
        "fem.roll_calls_per_step": _median(per_step["fem.roll"]),
        "noise.synth.ms": _median(dur.get("noise.synth"), 1e3),
        "noise.normals.ms": _median(dur.get("noise.normals"), 1e3),
        "noise.synth.calls": _median(per_step["noise.synth.calls"]),
        "noise.modes": modes,
        "noise.basis_bytes": modes * bytes_per_mode,
        "noise.synth.bytes_per_call": 2 * modes * bytes_per_mode,
        "noise.workspace_build_s": _median(dur.get("noise.workspace_build")),
        "config.assemble.ms": _median(dur.get("config.assemble"), 1e3),
        "integrator.step.self_ms": _median(own.get("integrator.step"), 1e3),
        "integrator.attempts_per_step": _median(
            [statistics.fmean(h + 1 for h in u.halvings) for u, _ in traced]),
        "integrator.halvings": sum(sum(u.halvings) for u, _ in traced),
        "io.diag_row.ms": _median(dur.get("io.diag_row"), 1e3),
        "io.snapshot.ms": _median(dur.get("io.snapshot"), 1e3),
        "io.bytes_written": _median([u.bytes_written for u, _ in traced]),
        "harness.replica_s": replica_s,
        "harness.pool_efficiency": (
            _median([u.replicas for u in plain]) * replica_s
            / ((workers if wl.kind == "ensemble" else 1) * plain_wall)),
        "harness.aborted": sum(u.aborted for u in plain) + sum(u.aborted for u, _ in traced),
        "trace.overhead_s": _median([u.wall_s for u, _ in traced]) - plain_wall,
    }
    breakdown = sorted(((k, v / steps_total * 1e3) for k, v in step_total.items()),
                       key=lambda kv: -kv[1])
    return metrics, breakdown


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, refs: dict,
                 workdir: Path, workers: int) -> Report:
    """Closed loop of units until ``seconds`` have been measured.

    An untraced run reports the end-to-end metrics.  A traced run alternates
    untraced and traced units and reports the per-layer metrics; the
    difference of their wall times is the tracing overhead."""
    tally = Tally()
    start = time.perf_counter()
    setups = []
    plain, traced = [], []
    lengths = []           # loop iterations, probes included, to plan the next
    rep = 0
    while True:
        t_rep = time.perf_counter()
        if not trace:
            cfg_path = write_config(wl, unit_seed(seed, rep), workdir)
            setups += [setup_probe(wl, cfg_path) for _ in range(SETUP_PROBES)]
        rec = SpanRecorder() if trace and rep % 2 == 1 else None
        with instrumented(rec):
            if wl.kind == "ensemble":
                unit = run_ensemble_unit(wl, unit_seed(seed, rep), workdir, refs, tally,
                                         workers, rec)
            else:
                unit = run_trajectory_unit(wl, unit_seed(seed, rep), workdir, refs, tally, rec)
        rep += 1
        if unit is None:
            break
        if rec is None:
            plain.append(unit)
        else:
            traced.append((unit, rec))
        lengths.append(time.perf_counter() - t_rep)
        elapsed = time.perf_counter() - start
        if trace:
            enough = plain and traced
        else:
            enough = (sum(len(u.step_ms) for u in plain) >= MIN_STEP_SAMPLES
                      and len(setups) + sum(len(u.setup_s) for u in plain)
                      >= MIN_SETUP_SAMPLES)
        if (enough and elapsed + statistics.median(lengths) > seconds) or elapsed > HARD_STOP_S:
            break

    correct = tally.failed == 0 and bool(plain) and (bool(traced) or not trace)
    metrics, info, breakdown = {}, {}, []
    modes = noise_modes(wl, workdir)
    if correct and trace:
        metrics, breakdown = layer_metrics(wl, traced, plain, workers, modes)
    elif correct:
        try:
            metrics, info = end_to_end_metrics(
                plain, setups + [x for u in plain for x in u.setup_s], workers)
        except TooFewSamples as exc:
            tally.problems.append(f"tail percentile refused: {exc}")
            correct = False
    return Report(correct=correct, tally=tally, metrics=metrics, info=info, breakdown=breakdown,
                  modes=modes)
