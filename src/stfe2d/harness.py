"""Monte-Carlo ensembles and mesh-refinement studies.

The ensemble driver runs replicas with seeds seed + replica_index and
reports sample statistics of the pathwise monitored quantities (running
supremum of the combined energy-entropy functional, time-integrated
dissipation, stopped fraction, worst mass drift).  Replicas run batched:
the index range is cut into contiguous chunks of ceil(n_replicas / workers)
replicas, at most 2**18 // (nx * ny) of them (2 MiB per stacked field),
and each chunk is stepped as one (R, ny, nx) array by
``integrator.run_replicas``, whose replicas equal their lone runs bit for
bit.  Chunks run in worker processes, capped by the STFE2D_THREADS
environment variable (default: CPU count; a non-integer value is an
error), or in-process with one worker.  Aborted replicas are recorded, not
fatal; if a chunk fails in any other way, its replicas are rerun one at a
time through ``integrator.run``, so such an exception is recorded with the
replica that raised it, prefixed by its type name.  Summaries are reduced
in replica order, so they are deterministic functions of (config,
n_replicas).

Refinement studies compute errors across a mesh sequence and fit log-log
slopes: nodal-product interpolation errors (values ~ h^2, x-derivatives
~ h), the discrete Laplacian eigenvalue against the continuum one (~ h^2),
the gradient-matching projection (L2 ~ h^2, H1 ~ h), and the truncated
third-derivative noise load, which must stay bounded under refinement.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fem
from .config import Config, assemble
from .grid import Field, Grid
from .integrator import SimulationAbort, run, run_replicas
from .noise import NoiseModel, PowerLawSchedule, b3star_monitor


def worker_cap() -> int:
    env = os.environ.get("STFE2D_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"STFE2D_THREADS must be an integer worker count, got {env!r}") from None
    return os.cpu_count() or 1


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

    SUMMARY_COLUMNS = ("n_replicas", "n_aborted", "sup_R_mean", "sup_R_max",
                       "sup_R_pbar_mean", "p_bar", "diss_mean", "diss_max",
                       "stopped_fraction", "mass_drift_max")

    def summary_row(self) -> tuple:
        return (self.n_replicas, self.n_aborted, self.sup_R_mean, self.sup_R_max,
                self.sup_R_pbar_mean, self.p_bar, self.diss_mean, self.diss_max,
                self.stopped_fraction, self.mass_drift_max)


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


def _run_replica(cfg: Config, replica: int) -> ReplicaOutcome:
    """One replica alone through ``integrator.run``: the reference path."""
    bundle = assemble(cfg)
    seed = (bundle.noise.seed + replica) % 2**64
    try:
        result = run(bundle.initial, bundle.run, bundle.material,
                     bundle.noise.with_seed(seed))
    except Exception as exc:
        # one failing replica must not take the ensemble down with it
        result = exc
    return _outcome(replica, seed, result)


def _run_chunk(cfg: Config, first: int, stop: int) -> list[ReplicaOutcome]:
    """Replicas first..stop-1 stepped together as one stack."""
    bundle = assemble(cfg)
    replicas = range(first, stop)
    seeds = [(bundle.noise.seed + r) % 2**64 for r in replicas]
    try:
        results = run_replicas(bundle.initial, bundle.run, bundle.material,
                               bundle.noise, seeds)
    except Exception:
        # not one replica's abort: rerun them one by one, so that the error
        # is recorded with the replica that raised it
        return [_run_replica(cfg, r) for r in replicas]
    return [_outcome(r, seed, res) for r, seed, res in zip(replicas, seeds, results)]


def chunk_size(n_replicas: int, workers: int, n_nodes: int) -> int:
    """Replicas per chunk: an even split over the workers, with each stacked
    field array capped at 2**18 float64 values (2 MiB)."""
    return min(-(-n_replicas // workers), max(1, 2**18 // n_nodes))


def write_summary_csv(summary: EnsembleSummary, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(EnsembleSummary.SUMMARY_COLUMNS) + "\n")
        fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                          for v in summary.summary_row()) + "\n")


def mc_ensemble(cfg: Config, n_replicas: int, max_workers: int | None = None,
                p_bar: float = 1.0) -> EnsembleSummary:
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    workers = min(worker_cap() if max_workers is None else max_workers, n_replicas)
    size = chunk_size(n_replicas, workers, assemble(cfg).grid.n_nodes)
    firsts = range(0, n_replicas, size)
    stops = [min(first + size, n_replicas) for first in firsts]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(firsts))) as pool:
            chunks = list(pool.map(_run_chunk, [cfg] * len(firsts), firsts, stops))
    else:
        chunks = [_run_chunk(cfg, first, stop) for first, stop in zip(firsts, stops)]
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
    kind: str
    metric_names: tuple
    hs: tuple
    errors: dict          # metric -> tuple of per-level values
    slopes: dict          # metric -> global log-log fitted slope (or None)

    def rows(self):
        for idx, h in enumerate(self.hs):
            for m in self.metric_names:
                yield (self.kind, m, h, self.errors[m][idx])


def _fit_slope(hs, errs) -> float:
    return float(np.polyfit(np.log(np.asarray(hs)), np.log(np.asarray(errs)), 1)[0])


def _gauss01(n):
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (t + 1.0), 0.5 * w


def _corner_stacks(vals: np.ndarray):
    v00 = vals
    v10 = fem.shift(vals, -1, -1)
    v01 = fem.shift(vals, -1, -2)
    v11 = fem.shift(v01, -1, -1)
    return v00, v10, v01, v11


def _bilinear_on_gauss(vals, ga, gb):
    """Evaluate the bilinear interpolant on every cell at tensor Gauss points.

    Returns an array of shape (ny, nx, nb, na)."""
    v00, v10, v01, v11 = (v[:, :, None, None] for v in _corner_stacks(vals))
    a = ga[None, None, None, :]
    b = gb[None, None, :, None]
    return (v00 * (1 - a) * (1 - b) + v10 * a * (1 - b)
            + v01 * (1 - a) * b + v11 * a * b)


def interp_error_x(f: Field, g: Field, n_gauss: int = 4) -> tuple[float, float]:
    """L2 norms of (I - I_h^x){f_h g_h} and of its x-derivative.

    The product of two bilinear nodal interpolants is quadratic per cell in
    each variable; subtracting its x-interpolant leaves a per-cell
    polynomial integrated exactly by tensor Gauss quadrature.
    """
    grid = f.grid
    ga, wa = _gauss01(n_gauss)
    gb, wb = _gauss01(n_gauss)
    fv = _bilinear_on_gauss(f.values, ga, gb)
    gv = _bilinear_on_gauss(g.values, ga, gb)
    prod = fv * gv

    # x-interpolant: linear in a between the end-line values of the product
    f0 = _bilinear_on_gauss(f.values, np.array([0.0]), gb)
    f1 = _bilinear_on_gauss(f.values, np.array([1.0]), gb)
    g0 = _bilinear_on_gauss(g.values, np.array([0.0]), gb)
    g1 = _bilinear_on_gauss(g.values, np.array([1.0]), gb)
    p0 = f0 * g0
    p1 = f1 * g1
    a = ga[None, None, None, :]
    interp = p0 * (1 - a) + p1 * a
    diff = prod - interp

    # d/dx = (1/hx) d/da of both pieces
    f00, f10, f01, f11 = (v[:, :, None, None] for v in _corner_stacks(f.values))
    g00, g10, g01, g11 = (v[:, :, None, None] for v in _corner_stacks(g.values))
    b = gb[None, None, :, None]
    dfa = (f10 - f00) * (1 - b) + (f11 - f01) * b
    dga = (g10 - g00) * (1 - b) + (g11 - g01) * b
    dprod = dfa * gv + fv * dga
    dinterp = (p1 - p0) * np.ones_like(a)
    ddiff = (dprod - dinterp) / grid.hx

    w2 = wb[None, None, :, None] * wa[None, None, None, :]
    cell = grid.cell_area
    err0 = np.sqrt(cell * float((diff**2 * w2).sum()))
    err1 = np.sqrt(cell * float((ddiff**2 * w2).sum()))
    return err0, err1


def _interp_study(ns, Lx, Ly):
    def f_fun(x, y):
        return np.sin(2 * np.pi * x / Lx) * np.cos(2 * np.pi * y / Ly) + 2.0

    def g_fun(x, y):
        return np.cos(4 * np.pi * x / Lx) * np.sin(2 * np.pi * y / Ly) + 3.0

    hs, e0s, e1s = [], [], []
    for n in ns:
        grid = Grid(n, n, Lx, Ly)
        e0, e1 = interp_error_x(Field.from_function(grid, f_fun),
                                Field.from_function(grid, g_fun))
        hs.append(grid.hx)
        e0s.append(e0)
        e1s.append(e1)
    return RateTable(
        kind="interp",
        metric_names=("l2", "dx_l2"),
        hs=tuple(hs),
        errors={"l2": tuple(e0s), "dx_l2": tuple(e1s)},
        slopes={"l2": _fit_slope(hs, e0s), "dx_l2": _fit_slope(hs, e1s)},
    )


def laplacian_eigenvalue(grid: Grid, k: int) -> tuple[float, float]:
    """(discrete eigenvalue of the cosine mode, continuum eigenvalue)."""
    mu_h = -(4.0 / grid.hx**2) * np.sin(np.pi * k * grid.hx / grid.Lx) ** 2
    mu = -((2.0 * np.pi * k / grid.Lx) ** 2)
    return mu_h, mu


def _laplacian_study(ns, Lx, Ly, k: int = 1):
    hs, errs, devs = [], [], []
    for n in ns:
        grid = Grid(n, n, Lx, Ly)
        u = Field.from_function(grid, lambda x, y: np.cos(2 * np.pi * k * x / Lx)
                                + 0.0 * y)
        mu_h, mu = laplacian_eigenvalue(grid, k)
        lap_u = fem.lap(u.values, grid)
        dev = float(np.abs(lap_u - mu_h * u.values).max()) / abs(mu_h)
        hs.append(grid.hx)
        errs.append(abs(mu_h - mu))
        devs.append(dev)
    return RateTable(
        kind="laplacian_eig",
        metric_names=("eig_err", "stencil_dev"),
        hs=tuple(hs),
        errors={"eig_err": tuple(errs), "stencil_dev": tuple(devs)},
        slopes={"eig_err": _fit_slope(hs, errs), "stencil_dev": None},
    )


def ritz_errors(grid: Grid, f, dfx, dfy, n_gauss: int = 6) -> tuple[float, float]:
    """L2 and H1-seminorm errors of the gradient-matching projection of f."""
    proj = fem.ritz_projection(grid, f)
    ga, wa = _gauss01(n_gauss)
    gb, wb = _gauss01(n_gauss)
    pv = _bilinear_on_gauss(proj.values, ga, gb)
    v00, v10, v01, v11 = (v[:, :, None, None] for v in _corner_stacks(proj.values))
    a = ga[None, None, None, :]
    b = gb[None, None, :, None]
    dpa = ((v10 - v00) * (1 - b) + (v11 - v01) * b) / grid.hx
    dpb = ((v01 - v00) * (1 - a) + (v11 - v10) * a) / grid.hy

    x = (np.arange(grid.nx)[None, :, None, None] + a) * grid.hx
    y = (np.arange(grid.ny)[:, None, None, None] + b) * grid.hy
    w2 = wb[None, None, :, None] * wa[None, None, None, :]
    cell = grid.cell_area
    el2 = np.sqrt(cell * float(((f(x, y) - pv) ** 2 * w2).sum()))
    eh1 = np.sqrt(cell * float((((dfx(x, y) - dpa) ** 2
                                 + (dfy(x, y) - dpb) ** 2) * w2).sum()))
    return el2, eh1


def _ritz_study(ns, Lx, Ly):
    def f(x, y):
        return np.sin(2 * np.pi * x / Lx) + 0.0 * y

    def dfx(x, y):
        return (2 * np.pi / Lx) * np.cos(2 * np.pi * x / Lx) + 0.0 * y

    def dfy(x, y):
        return 0.0 * x + 0.0 * y

    hs, l2s, h1s = [], [], []
    for n in ns:
        grid = Grid(n, n, Lx, Ly)
        el2, eh1 = ritz_errors(grid, f, dfx, dfy)
        hs.append(grid.hx)
        l2s.append(el2)
        h1s.append(eh1)
    return RateTable(
        kind="ritz",
        metric_names=("l2", "h1"),
        hs=tuple(hs),
        errors={"l2": tuple(l2s), "h1": tuple(h1s)},
        slopes={"l2": _fit_slope(hs, l2s), "h1": _fit_slope(hs, h1s)},
    )


def _b3star_study(ns, Lx, Ly, model: NoiseModel | None, eps: float):
    if model is None:
        model = NoiseModel(PowerLawSchedule())
    hs, vals = [], []
    for n in ns:
        grid = Grid(n, n, Lx, Ly)
        hs.append(grid.h)
        vals.append(b3star_monitor(model, grid.h, eps))
    return RateTable(
        kind="noise_b3star",
        metric_names=("monitor",),
        hs=tuple(hs),
        errors={"monitor": tuple(vals)},
        slopes={"monitor": None},
    )


def refinement_study(kind: str, ns, Lx: float = 1.0, Ly: float = 1.0,
                     model: NoiseModel | None = None, eps: float = 1.0,
                     k: int = 1) -> RateTable:
    ns = list(ns)
    if len(ns) < 3:
        raise ValueError("refinement study needs at least 3 levels")
    if kind == "interp":
        return _interp_study(ns, Lx, Ly)
    if kind == "laplacian_eig":
        return _laplacian_study(ns, Lx, Ly, k)
    if kind == "ritz":
        return _ritz_study(ns, Lx, Ly)
    if kind == "noise_b3star":
        return _b3star_study(ns, Lx, Ly, model, eps)
    raise ValueError(f"unknown refinement study {kind!r}")
