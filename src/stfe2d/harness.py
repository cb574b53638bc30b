"""Monte-Carlo ensembles and mesh-refinement studies.

The ensemble driver runs replicas with seeds seed + replica_index and
reports sample statistics of the pathwise monitored quantities (running
supremum of the combined energy-entropy functional, time-integrated
dissipation, stopped fraction, worst mass drift).  Replicas run batched:
the index range is cut into contiguous chunks of ceil(n_replicas / workers)
replicas, at most 2**18 // (nx * ny) of them (2 MiB per stacked field),
and each chunk is stepped as one (R, ny, nx) array by
``integrator.run_replicas``, whose replicas equal their lone runs bit for
bit.  The config is assembled once, and its ``Bundle`` goes to every
chunk.  Chunks run in a pool of ``max_workers`` worker processes (default:
CPU count), or in-process with one worker.  Aborted replicas are recorded,
not fatal; if a chunk fails in any other way, its replicas are rerun one
at a time through ``integrator.run``, so such an exception is recorded
with the replica that raised it, prefixed by its type name.  Summaries are
reduced in replica order, so they are deterministic functions of (config,
n_replicas).

Refinement studies compute errors on the n x n grids of a config's domain,
every one of which must satisfy (S), h < 1, and fit log-log slopes:
nodal-product interpolation errors (values ~ h^2, x-derivatives ~ h), the
discrete Laplacian eigenvalue against the continuum one (~ h^2), the
gradient-matching projection (L2 ~ h^2, H1 ~ h), and the truncated
third-derivative noise load of the config's noise and eps, which must stay
bounded under refinement.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import fem
from .config import Bundle, Config, assemble
from .grid import Grid
from .integrator import SimulationAbort, run, run_replicas
from .io import format_row
from .noise import b3star_monitor
from .scheme import require_fine_mesh


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicaOutcome:
    replica: int
    seed: int
    sup_R: float
    diss_integral: float
    stopped: bool
    stop_time: float | None
    mass_drift: float
    steps: int
    error: str | None = None


@dataclass(frozen=True)
class EnsembleSummary:
    n_replicas: int
    n_aborted: int
    sup_R_mean: float
    sup_R_max: float
    sup_R_pbar_mean: float
    p_bar: float
    diss_mean: float
    diss_max: float
    stopped_fraction: float
    mass_drift_max: float
    outcomes: tuple

    def summary_row(self) -> tuple:
        """The values of ``SUMMARY_COLUMNS``: every field but ``outcomes``."""
        return tuple(getattr(self, name) for name in self.SUMMARY_COLUMNS)


EnsembleSummary.SUMMARY_COLUMNS = tuple(f.name for f in fields(EnsembleSummary)[:-1])


def _outcome(replica: int, seed: int, result) -> ReplicaOutcome:
    """The outcome of a replica's RunResult, or of the exception that ended it."""
    if isinstance(result, Exception):
        error = (str(result) if isinstance(result, SimulationAbort)
                 else f"{type(result).__name__}: {result}")
        return ReplicaOutcome(replica, seed, float("nan"), float("nan"),
                              False, None, float("nan"), -1, error=error)
    st = result.final
    return ReplicaOutcome(replica, seed, result.sup_R, result.diss_integral,
                          st.stopped, st.stop_time, result.max_mass_drift, st.step)


def _run_replica(bundle: Bundle, replica: int) -> ReplicaOutcome:
    """One replica alone through ``integrator.run``: the reference path."""
    seed = (bundle.noise.seed + replica) % 2**64
    try:
        result = run(bundle.initial, bundle.run, bundle.material,
                     bundle.noise.with_seed(seed))
    except Exception as exc:
        # one failing replica must not take the ensemble down with it
        result = exc
    return _outcome(replica, seed, result)


def _run_chunk(bundle: Bundle, first: int, stop: int) -> list[ReplicaOutcome]:
    """Replicas first..stop-1 stepped together as one stack."""
    replicas = range(first, stop)
    seeds = [(bundle.noise.seed + r) % 2**64 for r in replicas]
    try:
        results = run_replicas(bundle.initial, bundle.run, bundle.material,
                               bundle.noise, seeds)
    except Exception:
        # not one replica's abort: rerun them one by one, so that the error
        # is recorded with the replica that raised it
        return [_run_replica(bundle, r) for r in replicas]
    return [_outcome(r, seed, res) for r, seed, res in zip(replicas, seeds, results)]


def chunk_size(n_replicas: int, workers: int, n_nodes: int) -> int:
    """Replicas per chunk: an even split over the workers, with each stacked
    field array capped at 2**18 float64 values (2 MiB)."""
    return min(-(-n_replicas // workers), max(1, 2**18 // n_nodes))


def write_summary_csv(summary: EnsembleSummary, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(EnsembleSummary.SUMMARY_COLUMNS) + "\n")
        fh.write(format_row(summary.summary_row()) + "\n")


def mc_ensemble(cfg: Config, n_replicas: int, max_workers: int | None = None,
                p_bar: float = 1.0) -> EnsembleSummary:
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    workers = min(max_workers or os.cpu_count() or 1, n_replicas)
    bundle = assemble(cfg)
    size = chunk_size(n_replicas, workers, bundle.grid.n_nodes)
    firsts = range(0, n_replicas, size)
    stops = [min(first + size, n_replicas) for first in firsts]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(firsts))) as pool:
            chunks = list(pool.map(_run_chunk, [bundle] * len(firsts), firsts, stops))
    else:
        chunks = [_run_chunk(bundle, first, stop) for first, stop in zip(firsts, stops)]
    outcomes = [o for chunk in chunks for o in chunk]

    ok = [o for o in outcomes if o.error is None]
    aborted = len(outcomes) - len(ok)
    if ok:
        sup = np.array([o.sup_R for o in ok])
        diss = np.array([o.diss_integral for o in ok])
        drift = np.array([o.mass_drift for o in ok])
        stopped = np.array([o.stopped for o in ok])
        stats = (sup.mean(), sup.max(), float((sup**p_bar).mean()),
                 diss.mean(), diss.max(), stopped.mean(), drift.max())
    else:
        stats = (float("nan"),) * 7
    return EnsembleSummary(
        n_replicas=n_replicas,
        n_aborted=aborted,
        sup_R_mean=float(stats[0]),
        sup_R_max=float(stats[1]),
        sup_R_pbar_mean=float(stats[2]),
        p_bar=p_bar,
        diss_mean=float(stats[3]),
        diss_max=float(stats[4]),
        stopped_fraction=float(stats[5]),
        mass_drift_max=float(stats[6]),
        outcomes=tuple(outcomes),
    )


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateTable:
    hs: tuple
    errors: dict          # metric -> tuple of per-level values
    slopes: dict          # metric -> global log-log fitted slope (or None)


def _fit_slope(hs, errs) -> float:
    return float(np.polyfit(np.log(np.asarray(hs)), np.log(np.asarray(errs)), 1)[0])


def _bilinear(vals: np.ndarray, ga, gb):
    """The bilinear interpolant of nodal ``vals`` and its derivatives in the
    cell coordinates a and b, on every cell at the points (a, b) of
    ``ga`` x ``gb`` in (0, 1)^2: arrays that broadcast to (ny, nx, nb, na)."""
    north = fem.shift(vals, -1, -2)
    v00, v10, v01, v11 = (v[:, :, None, None] for v in
                          (vals, fem.shift(vals, -1, -1), north, fem.shift(north, -1, -1)))
    a, b = ga, gb[:, None]
    value = (v00 * (1 - a) * (1 - b) + v10 * a * (1 - b)
             + v01 * (1 - a) * b + v11 * a * b)
    da = (v10 - v00) * (1 - b) + (v11 - v01) * b
    db = (v01 - v00) * (1 - a) + (v11 - v10) * a
    return value, da, db


def _cell_l2(grid: Grid, sq, w) -> float:
    """sqrt of the tensor Gauss rule with weights ``w`` of ``sq`` over all cells."""
    return np.sqrt(grid.cell_area * float((sq * (w[:, None] * w)).sum()))


def _interp_level(grid: Grid, bundle: Bundle) -> dict:
    """L2 norms of (I - I_h^x){f_h g_h} and of its x-derivative.

    The product of two bilinear nodal interpolants is quadratic per cell in
    each variable; subtracting its x-interpolant leaves a per-cell
    polynomial integrated exactly by tensor Gauss quadrature.
    """
    x, y = grid.node_coords()
    f = np.sin(2 * np.pi * x / grid.Lx) * np.cos(2 * np.pi * y / grid.Ly) + 2.0
    g = np.cos(4 * np.pi * x / grid.Lx) * np.sin(2 * np.pi * y / grid.Ly) + 3.0
    ga, wa = fem.gauss_rule(4)
    fv, dfa, _ = _bilinear(f, ga, ga)
    gv, dga, _ = _bilinear(g, ga, ga)

    # x-interpolant: linear in a between the end-line values of the product
    fe, ge = (_bilinear(v, np.array([0.0, 1.0]), ga)[0] for v in (f, g))
    p0, p1 = fe[..., :1] * ge[..., :1], fe[..., 1:] * ge[..., 1:]
    diff = fv * gv - (p0 * (1 - ga) + p1 * ga)
    # d/dx = (1/hx) d/da of both pieces
    ddiff = (dfa * gv + fv * dga - (p1 - p0)) / grid.hx
    return {"l2": _cell_l2(grid, diff**2, wa), "dx_l2": _cell_l2(grid, ddiff**2, wa)}


def _laplacian_level(grid: Grid, bundle: Bundle) -> dict:
    """Error of the discrete eigenvalue of the cosine mode k = 1 against the
    continuum one, and the stencil's deviation from it on the nodal mode."""
    k = 1
    x, y = grid.node_coords()
    u = np.cos(2 * np.pi * k * x / grid.Lx) + 0.0 * y
    mu_h = -(4.0 / grid.hx**2) * np.sin(np.pi * k * grid.hx / grid.Lx) ** 2
    mu = -((2.0 * np.pi * k / grid.Lx) ** 2)
    dev = float(np.abs(fem.lap(u, grid) - mu_h * u).max()) / abs(mu_h)
    return {"eig_err": abs(mu_h - mu), "stencil_dev": dev}


def _ritz_level(grid: Grid, bundle: Bundle) -> dict:
    """L2 and H1-seminorm errors of the gradient-matching projection of
    f = sin(2 pi x / Lx)."""
    def f(x, y):
        return np.sin(2 * np.pi * x / grid.Lx) + 0.0 * y

    ga, wa = fem.gauss_rule(6)
    pv, dpa, dpb = _bilinear(fem.ritz_projection(grid, f).values, ga, ga)
    x = (np.arange(grid.nx)[:, None, None] + ga) * grid.hx
    y = (np.arange(grid.ny)[:, None, None, None] + ga[:, None]) * grid.hy
    dfx = (2 * np.pi / grid.Lx) * np.cos(2 * np.pi * x / grid.Lx)
    return {"l2": _cell_l2(grid, (f(x, y) - pv) ** 2, wa),
            "h1": _cell_l2(grid, (dfx - dpa / grid.hx) ** 2 + (dpb / grid.hy) ** 2, wa)}


def _b3star_level(grid: Grid, bundle: Bundle) -> dict:
    return {"monitor": b3star_monitor(bundle.noise, grid.h, bundle.material.eps)}


class Study(NamedTuple):
    """One refinement study: a row of ``STUDIES``."""

    level: Callable[[Grid, Bundle], dict]  # {metric: error} on one grid
    fitted: tuple               # metrics that get a fitted log-log slope
    mesh: str                   # Grid attribute reported as the level's h
    levels: tuple               # default sizes n of the n x n grids


STUDIES = {
    "interp": Study(_interp_level, ("l2", "dx_l2"), "hx", (8, 16, 32, 64, 128)),
    "laplacian_eig": Study(_laplacian_level, ("eig_err",), "hx", (8, 16, 32, 64)),
    "ritz": Study(_ritz_level, ("l2", "h1"), "hx", (8, 16, 32, 64)),
    "noise_b3star": Study(_b3star_level, (), "h", (8, 16, 32, 64, 128)),
}


def refinement_study(kind: str, ns, bundle: Bundle | None = None) -> RateTable:
    """Study ``kind`` on the n x n grids, n in ``ns``, of the domain of
    ``bundle`` (default ``assemble(Config())``), with its noise and eps.

    Every level must satisfy (S): an AssumptionError is raised before any
    level is evaluated if one does not."""
    ns = list(ns)
    if len(ns) < 3:
        raise ValueError("refinement study needs at least 3 levels")
    if kind not in STUDIES:
        raise ValueError(f"unknown refinement study {kind!r}")
    study = STUDIES[kind]
    if bundle is None:
        bundle = assemble(Config())
    grids = [Grid(n, n, bundle.grid.Lx, bundle.grid.Ly) for n in ns]
    for grid in grids:
        require_fine_mesh(grid)
    hs = [getattr(grid, study.mesh) for grid in grids]
    rows = [study.level(grid, bundle) for grid in grids]
    errors = {m: tuple(row[m] for row in rows) for m in rows[0]}
    return RateTable(hs=tuple(hs), errors=errors,
                     slopes={m: _fit_slope(hs, errs) if m in study.fitted else None
                             for m, errs in errors.items()})
