"""Euler-Maruyama time stepping with positivity guard and energy-threshold stop.

One step advances  u+ = u + dt' * L(u) + sum_modes Z(u; lambda g) dW,  with
the drift and mobility evaluated at the step's starting state.  dt' starts
at min(dt, remaining time) and is halved -- with fresh increments keyed by
the halving attempt -- whenever the update would push a node at or below
the positivity floor.  Clamping is never used: undershoot is a time-step
artifact, and rejection preserves the conservation and energy structure.

Once the regularized energy reaches the threshold C * h^(-rho/(2+p)) the
state freezes (pressure, drift, diffusion, and fluxes are all zeroed) and
only the clock advances; ``_freeze`` is that stopping rule, applied to the
start state and after every step.

``_Loop`` is the one stepping loop, set up once per run and advanced by
its caller; its docstring says what it holds and who drives it.

The base step defaults to a tenth of the explicit stability bound of the
linearized fourth-order terms (mobility part plus h^eps curvature part);
see ``stable_dt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import diagnostics, fem, scheme
from .grid import Field, Grid
from .material import Material
from .noise import ATTEMPT_SLOTS, NoiseModel, NoiseWorkspace


class SimulationAbort(RuntimeError):
    """Unrecoverable integration failure."""


class PositivityAbort(SimulationAbort):
    def __init__(self, step: int, node: tuple[int, int], value: float, dt_tried: float):
        self.step, self.node, self.value, self.dt_tried = step, node, value, dt_tried
        super().__init__(
            f"positivity failure at step {step}, node (i={node[0]}, j={node[1]}): "
            f"value {value:g} after exhausting halvings (last dt {dt_tried:g})")


class OverflowAbort(SimulationAbort):
    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite field values at step {step}")


def stable_dt(grid: Grid, mat: Material) -> float:
    """Default step: a tenth of the explicit stability bound of the drift.

    The pressure feeds h^eps * lap^2(u) into the mobility divergence, so the
    linearized drift around an order-one film contains a sixth-order term
    next to the fourth-order one.  Both are bounded through the largest
    Laplacian stencil eigenvalue lam = 4/hx^2 + 4/hy^2:

        (lam^2 + h^eps * lam^3) * dt <= 2,

    and the h^eps lam^3 part dominates on practical grids.  Empirically the
    energy decays monotonically below about half this bound; the safety
    factor 0.1 leaves comfortable margin for mobility and potential
    variation.
    """
    heps = scheme.mesh_weight(grid, mat.eps)
    lam = 4.0 / grid.hx**2 + 4.0 / grid.hy**2
    return 0.1 * 2.0 / (lam**2 + heps * lam**3)


@dataclass(frozen=True)
class RunConfig:
    t_max: float
    dt: float | None = None          # None: stability default
    e_max_C: float = 10.0
    u_floor: float = 1e-10
    max_halvings: int = 20
    snapshot_times: tuple = ()
    diag_interval: int = 1
    alpha: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        # a NaN passes every ordering test, so finiteness is checked first
        if not (math.isfinite(self.t_max) and self.t_max >= 0):
            raise ValueError("t_max must be finite and nonnegative")
        for name in ("dt", "e_max_C", "u_floor", "alpha", "kappa"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if not (0 <= self.max_halvings < ATTEMPT_SLOTS - 1):
            raise ValueError(f"max_halvings must lie in [0, {ATTEMPT_SLOTS - 2}]")
        if self.diag_interval < 1:
            raise ValueError("diag_interval must be >= 1")
        if not all(math.isfinite(t) and t >= 0 for t in self.snapshot_times):
            raise ValueError("snapshot times must be finite and nonnegative")

    def base_dt(self, grid: Grid, mat: Material) -> float:
        return self.dt if self.dt is not None else stable_dt(grid, mat)


@dataclass(frozen=True)
class SimState:
    u: Field
    t: float
    step: int
    stopped: bool
    stop_time: float | None
    initial_mass: float

    @classmethod
    def initial(cls, u0: Field) -> "SimState":
        if not np.all(np.isfinite(u0.values)):
            raise ValueError("initial field has non-finite values")
        if np.any(u0.values <= 0.0):
            raise ValueError("initial field must be strictly positive")
        return cls(u=u0, t=0.0, step=0, stopped=False, stop_time=None,
                   initial_mass=diagnostics.mass(u0))


def time_slack(step, t, base_dt: float):
    """Rounding slack of a clock that reached t by summing ``step`` positive
    increments: its error stays below step * eps * t, and the slack never
    reaches a step length (capped at 1e-3 of the base step).  Elementwise
    over arrays of steps and clocks."""
    return np.minimum(step * np.finfo(float).eps * t, 1e-3 * base_dt)


class Replicas(NamedTuple):
    """States of replicas of one configuration that step together.

    ``u`` holds the nodal values, shape (*lead, ny, nx); the clocks ``t``,
    the flags ``stopped`` and the ``stop_time`` (nan while running) have
    shape ``lead``; ``terms`` are the kernel's ``scheme.state_terms(u)`` for
    the stepping material.  lead = () is one trajectory.
    """

    u: np.ndarray
    t: np.ndarray
    stopped: np.ndarray
    stop_time: np.ndarray
    terms: scheme.StateTerms


def _freeze(reps: Replicas, e_max: float) -> Replicas:
    """The stopping rule: a running replica whose energy reaches ``e_max``
    freezes at its clock."""
    freeze = ~reps.stopped & (reps.terms.energy.total >= e_max)
    if not freeze.any():
        return reps
    return reps._replace(stopped=reps.stopped | freeze,
                         stop_time=np.where(freeze, reps.t, reps.stop_time))


@dataclass
class RunResult:
    final: SimState
    records: list
    snapshots: list          # (t, Field) pairs at the configured times
    diss_integral: float     # trapezoidal time integral of diss_x + diss_y
    sup_R: float
    sup_osc: float           # largest neighbor-ratio seen before stopping
    max_mass_drift: float    # max |mass(t) - mass(0)| / |mass(0)|


class _Loop:
    """The stepping loop of the replicas of ``ws`` (lead () for one seed,
    (R,) for R seeds) from ``start``: set up once, advanced by its caller.

    The constructor computes the run's constants -- the base step, the
    threshold energy and one ``scheme.Buffers`` set, which every step writes
    its noise fields, candidate and state terms into -- and evaluates and
    freezes the start state.  The other attributes hold what a step changes:
    the replicas ``reps``, the step index ``step`` and each replica's
    ``steps``, the mask ``live`` of the replicas that have neither reached
    the horizon (up to ``time_slack``) nor aborted, the ``aborts`` so far,
    and each replica's running monitors (sup R, sup of the oscillation ratio
    before stopping, the trapezoidal dissipation integral and its last
    integrand, the worst mass drift).  ``run_replicas`` advances it until no replica is
    live; ``run`` advances one seed and emits the records, the snapshots
    and the abort after each step; ``step_em`` advances it once.  Each
    replica's draws are a pure function of (seed, component, k, l, step,
    attempt), so a replica in a stack reproduces its lone run bit for bit.
    """

    def __init__(self, start: SimState, cfg: RunConfig, mat: Material, ws: NoiseWorkspace):
        self.cfg, self.mat, self.ws = cfg, mat, ws
        self.grid, self.mass0, lead = start.u.grid, start.initial_mass, ws.keys.shape[:-2]
        u = np.tile(start.u.values, (*lead, 1, 1))
        self.base_dt = cfg.base_dt(self.grid, mat)
        self.e_max = diagnostics.threshold_energy(self.grid, mat, cfg.e_max_C)
        self.bufs = scheme.Buffers(u.shape)
        stop_time = np.nan if start.stop_time is None else start.stop_time
        self.reps = _freeze(Replicas(u, np.full(lead, start.t), np.full(lead, start.stopped),
                                     np.full(lead, stop_time),
                                     scheme.state_terms(u, mat, self.grid, self.bufs)), self.e_max)
        terms = self.reps.terms
        self.step, self.steps = start.step, np.full(lead, start.step)
        self.sup_R = np.asarray(cfg.alpha + terms.energy.total + cfg.kappa * terms.entropy)
        self.sup_osc = np.asarray(terms.osc)
        self.diss_prev = np.where(self.reps.stopped, 0.0, terms.diss_x + terms.diss_y)
        self.diss_integral, self.max_drift = np.zeros(lead), np.zeros(lead)
        self.aborts = {}
        # a mask that takes item assignment, also for lead ()
        self.live = np.array(~self.reached(cfg.t_max))

    def reached(self, target):
        """Whether each clock has reached ``target`` up to its rounding."""
        return self.reps.t >= target - time_slack(self.steps, self.reps.t, self.base_dt)

    def state(self, idx: tuple) -> SimState:
        """The SimState of replica ``idx`` (idx = () for one seed)."""
        reps, stop_time = self.reps, float(self.reps.stop_time[idx])
        return SimState(u=Field(self.grid, reps.u[idx]), t=float(reps.t[idx]),
                        step=int(self.steps[idx]), stopped=bool(reps.stopped[idx]),
                        stop_time=None if math.isnan(stop_time) else stop_time,
                        initial_mass=self.mass0)

    def advance(self) -> dict:
        """One Euler-Maruyama step of the live replicas, all at step index
        ``step``, then the stopping rule and the monitors; returns the
        step's aborts, {replica index: OverflowAbort | PositivityAbort}.

        A frozen replica only advances its clock by the full step.  The
        others try the full step and, while the update is not finite and
        above the floor, halve it and redraw at attempt + 1.  Replicas that
        are not live, and those that abort, keep their state and monitors.
        The new state's field stays valid through the next step, and its
        terms until the next evaluation; a stack's partial acceptance copies
        the accepted states into ``reps.u`` in place.

        The fast paths -- every replica pending and accepting, none stopped,
        every replica live -- skip masked updates whose mask selects every
        replica: folded into unconditional masked updates, they made the
        ``traj-n32-diag`` p95 step 10-19% slower on a 2-core VM (0.48 ->
        0.54, 0.55 -> 0.60 and 0.49 -> 0.58 ms in three pairs of 10 s runs).
        """
        cfg, grid, ws, bufs, reps, live, step = (self.cfg, self.grid, self.ws, self.bufs,
                                                 self.reps, self.live, self.step)
        dt_full = np.minimum(self.base_dt, cfg.t_max - reps.t)
        # a replica at the horizon is not live: it draws with a step it does not take
        dt_full = np.where(dt_full > 0.0, dt_full, self.base_dt)

        terms, stopped = reps.terms, reps.stopped
        pending = live & ~stopped
        t = reps.t
        if stopped.any():  # a frozen live replica advances its clock
            t = np.where(live & stopped, reps.t + dt_full, t)

        u = reps.u
        cand = bufs.free_field(u)
        w_out, (base, zy, tmp) = bufs.noise, bufs.scratch[2:5]
        moved = False
        aborts = {}
        dt_try = dt_full
        for attempt in range(cfg.max_halvings + 1):
            if not pending.any():
                break
            if attempt:
                dt_try = dt_try * 0.5
            np.multiply(dt_try[..., None, None], terms.drift, out=cand)
            cand += u
            if ws.active:
                cand += scheme.diffusion_values(
                    u, grid, *ws.coefficient_fields(step, attempt, dt_try, w_out),
                    du_x=terms.du_x, du_y=terms.du_y, out=base, tmp=(zy, tmp))
            finite = np.isfinite(cand).all(axis=(-2, -1))
            if not finite.all():
                for idx in map(tuple, np.argwhere(pending & ~finite)):
                    aborts[idx] = OverflowAbort(step)
            accept = pending & finite & (cand > cfg.u_floor).all(axis=(-2, -1))
            if accept.all():  # every replica was pending and accepts
                u, t, moved = cand, reps.t + dt_try, accept
                break
            pending = pending & finite & ~accept
            if accept.any():  # a stack's partial acceptance: the accepted states leave cand
                t = np.where(accept, reps.t + dt_try, t)
                moved = moved | accept
                np.copyto(u, cand, where=accept[..., None, None])
        else:
            for idx in map(tuple, np.argwhere(pending)):  # halvings exhausted
                flat = int(np.argmin(cand[idx]))
                j, i = divmod(flat, grid.nx)
                aborts[idx] = PositivityAbort(step, (i, j), float(cand[idx].ravel()[flat]),
                                              float(dt_try[idx]))

        if np.asarray(moved).any():
            terms = scheme.state_terms(u, self.mat, grid, bufs)
        prev_t = reps.t
        self.reps = reps = _freeze(reps._replace(u=u, t=t, terms=terms), self.e_max)
        self.aborts.update(aborts)
        for idx in aborts:
            live[idx] = False
        self.step = step = step + 1
        all_live, any_stopped = live.all(), reps.stopped.any()
        diss_now = terms.diss_x + terms.diss_y
        if any_stopped:
            diss_now = np.where(reps.stopped, 0.0, diss_now)
        diss_step = self.diss_integral + 0.5 * (self.diss_prev + diss_now) * (reps.t - prev_t)
        if all_live:
            self.steps[...] = step
            self.diss_integral = diss_step
        else:
            self.steps = np.where(live, step, self.steps)
            self.diss_integral = np.where(live, diss_step, self.diss_integral)
        self.diss_prev = diss_now
        self.sup_R = np.maximum(self.sup_R, cfg.alpha + terms.energy.total
                                + cfg.kappa * terms.entropy)
        osc = np.maximum(self.sup_osc, terms.osc)
        self.sup_osc = np.where(reps.stopped, self.sup_osc, osc) if any_stopped else osc
        drift = np.abs(fem.lumped_integral(reps.u, grid) - self.mass0) / abs(self.mass0)
        self.max_drift = np.maximum(self.max_drift, drift)
        live &= ~self.reached(cfg.t_max)
        return aborts

    def results(self) -> list:
        """Per replica in ``np.ndindex(lead)`` order, its RunResult without
        records or snapshots, or the SimulationAbort that ended it."""
        def result(idx):
            if idx in self.aborts:
                return self.aborts[idx]
            return RunResult(final=self.state(idx), records=[], snapshots=[],
                             diss_integral=float(self.diss_integral[idx]),
                             sup_R=float(self.sup_R[idx]), sup_osc=float(self.sup_osc[idx]),
                             max_mass_drift=float(self.max_drift[idx]))

        return [result(idx) for idx in np.ndindex(self.live.shape)]


def step_em(state: SimState, cfg: RunConfig, mat: Material,
            ws: NoiseWorkspace) -> SimState:
    """One Euler-Maruyama step (or a frozen clock advance once stopped): the
    stepping loop of ``run`` for one step, which raises its abort.  A
    running state whose energy reaches the threshold freezes at ``state.t``;
    a state at the horizon is returned unchanged."""
    loop = _Loop(state, cfg, mat, ws)
    if loop.live.any() and loop.advance():
        raise loop.aborts[()]
    return loop.state(())


def run(u0: Field, cfg: RunConfig, mat: Material, model: NoiseModel,
        diag_cb: Callable | None = None,
        snapshot_cb: Callable | None = None) -> RunResult:
    """Integrate to t_max, emitting diagnostics and snapshots along the way:
    the one-seed case of the stepping loop, which raises its abort.

    A record is built for the initial state, every ``diag_interval`` steps
    and for the last state.  Deterministic for fixed (seed, config):
    records, snapshots and the final state are pure functions of the inputs.
    """
    grid = u0.grid
    ws = NoiseWorkspace.build(model, grid, mat.eps)
    records, snapshots = [], []
    snap_times = sorted(cfg.snapshot_times)

    def emit(loop, aborts):
        if aborts:
            raise aborts[()]
        reps = loop.reps
        if loop.step % cfg.diag_interval == 0 or not loop.live:
            rec = diagnostics.make_record(reps.u, grid, mat, float(reps.t), bool(reps.stopped),
                                          cfg.alpha, cfg.kappa, terms=reps.terms)
            records.append(rec)
            if diag_cb is not None:
                diag_cb(rec)
        s = None
        while snap_times and loop.reached(snap_times[0]):
            snap_times.pop(0)
            s = s or loop.state(())
            snapshots.append((s.t, s.u))
            if snapshot_cb is not None:
                snapshot_cb(s)

    loop = _Loop(SimState.initial(u0), cfg, mat, ws)
    emit(loop, {})
    while loop.live:
        emit(loop, loop.advance())
    [result] = loop.results()
    return replace(result, records=records, snapshots=snapshots)


def run_replicas(u0: Field, cfg: RunConfig, mat: Material, model: NoiseModel,
                 seeds) -> list:
    """Integrate one replica of ``model`` per seed from u0 to t_max, stepped
    together as one stack.

    Entry r is what ``run(u0, cfg, mat, model.with_seed(seeds[r]))`` returns,
    bit for bit, with no records or snapshots, or the SimulationAbort it
    raises.  Replicas that reach the horizon or abort drop out of the step.
    """
    loop = _Loop(SimState.initial(u0), cfg, mat,
                 NoiseWorkspace.build(model, u0.grid, mat.eps, seeds))
    while loop.live.any():
        loop.advance()
    return loop.results()
