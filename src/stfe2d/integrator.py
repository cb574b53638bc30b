"""Euler-Maruyama time stepping with positivity guard and energy-threshold stop.

One step advances  u+ = u + dt' * L(u) + sum_modes Z(u; lambda g) dW,  with
the drift and mobility evaluated at the step's starting state.  dt' starts
at min(dt, remaining time) and is halved -- with fresh increments keyed by
the halving attempt -- whenever the update would push a node at or below
the positivity floor.  Clamping is never used: undershoot is a time-step
artifact, and rejection preserves the conservation and energy structure.

After an accepted step the regularized energy is compared against the
threshold C * h^(-rho/(2+p)); once reached, the state freezes (pressure,
drift, diffusion, and fluxes are all zeroed) and only the clock advances.

``em_step`` is the one step implementation.  It advances a stack of
replicas of one configuration (fields of shape (R, ny, nx), one noise seed
each) with per-replica step sizes, halvings and stops; ``step_em`` is its
batch-of-one case.  ``_integrate`` is the one stepping loop: it computes
the base step and the threshold energy once, validates the initial field,
freezes the replicas whose initial energy reaches the threshold, steps
until each clock reaches the horizon up to its rounding (``time_slack``),
and keeps each replica's running monitors (sup R, sup of the oscillation
ratio before stopping, trapezoidal dissipation integral, worst mass
drift).  ``run_replicas`` runs it over R seeds; ``run`` runs it
over one seed (lead shape ()) and adds what a lone trajectory emits: the
records, the snapshots, and the abort raised.  Each replica's draws are a
pure function of (seed, component, k, l, step, attempt), so a replica in a
stack reproduces its lone run bit for bit.

The base step defaults to a tenth of the explicit stability bound of the
linearized fourth-order terms (mobility part plus h^eps curvature part);
see ``stable_dt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import diagnostics, fem, noise, scheme
from .grid import Field, Grid
from .material import Material
from .noise import NoiseModel


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


def stable_dt(grid: Grid, mat: Material, safety: float = 0.1,
              mobility_scale: float = 1.0) -> float:
    """Default step: a tenth of the explicit stability bound of the drift.

    The pressure feeds h^eps * lap^2(u) into the mobility divergence, so the
    linearized drift around an order-one film contains a sixth-order term
    next to the fourth-order one.  Both are bounded through the largest
    Laplacian stencil eigenvalue lam = 4/hx^2 + 4/hy^2:

        mobility_scale * (lam^2 + h^eps * lam^3) * dt <= 2,

    and the h^eps lam^3 part dominates on practical grids.  Empirically the
    energy decays monotonically below about half this bound; the default
    safety factor 0.1 leaves comfortable margin for mobility and potential
    variation.
    """
    heps = scheme.mesh_weight(grid, mat.eps)
    lam = 4.0 / grid.hx**2 + 4.0 / grid.hy**2
    amplification = mobility_scale * (lam**2 + heps * lam**3)
    return safety * 2.0 / amplification


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
        if self.t_max < 0:
            raise ValueError("t_max must be nonnegative")
        if self.dt is not None and not (self.dt > 0):
            raise ValueError("dt must be positive")
        if self.e_max_C <= 0:
            raise ValueError("e_max_C must be positive")
        if self.u_floor <= 0:
            raise ValueError("u_floor must be positive")
        if not (0 <= self.max_halvings < noise.ATTEMPT_SLOTS - 1):
            raise ValueError(f"max_halvings must lie in [0, {noise.ATTEMPT_SLOTS - 2}]")
        if self.diag_interval < 1:
            raise ValueError("diag_interval must be >= 1")
        if any(t < 0 for t in self.snapshot_times):
            raise ValueError("snapshot times must be nonnegative")

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


@dataclass(frozen=True)
class NoiseWorkspace:
    """Mode set frozen at the run's mesh size, with cached 1D tables and keys.

    The active modes form the full square {|k|, |l| <= r} in the (k outer,
    l inner) order of ``noise.truncation_set``, and each mode is the product
    g_k(x) g_l(y).  A component field sum_kl c_kl g_k(x_i) g_l(y_j) is
    therefore gy^T C^T gx with the (2r+1, 2r+1) coefficient matrix
    C[k+r, l+r] = c_kl, so only the 1D tables gx[k+r, i] = g_k(x_i) and
    gy[l+r, j] = g_l(y_j) are stored: O(r n) memory.

    ``keys[..., c, m]`` is the stream key of component c (0 = x, 1 = y) of
    mode m: shape (2, M) for one seed, (R, 2, M) for a stack of replicas
    with one seed each, whose fields then carry the replica axis first.
    """

    modes: tuple
    gx: np.ndarray
    gy: np.ndarray
    lam: np.ndarray        # (2, M): lambda_x and lambda_y of each mode
    keys: np.ndarray

    @classmethod
    def build(cls, model: NoiseModel, grid: Grid, eps: float,
              seeds=None) -> "NoiseWorkspace":
        """Workspace of ``model``, or of one replica of it per entry of
        ``seeds`` (a sequence of seeds)."""
        r = noise.truncation_radius(model, grid.h, eps)
        modes = tuple(noise.truncation_set(model, grid.h, eps))
        x = grid.hx * np.arange(grid.nx)
        y = grid.hy * np.arange(grid.ny)

        def keys(seed):
            return np.stack([noise.mode_keys(seed, c, modes) for c in (0, 1)])

        return cls(
            modes=modes,
            gx=np.array([noise.basis_1d(k, x, grid.Lx) for k in range(-r, r + 1)]),
            gy=np.array([noise.basis_1d(l, y, grid.Ly) for l in range(-r, r + 1)]),
            lam=np.stack(model.lambda_arrays(modes)),
            keys=keys(model.seed) if seeds is None else np.stack([keys(s) for s in seeds]),
        )

    @property
    def active(self) -> bool:
        return bool(np.any(self.lam > 0))

    def coefficient_fields(self, step: int, attempt: int, dt):
        """Accumulated noise fields (w_x, w_y) for one step attempt; for a
        stack, dt holds each replica's step, shape (R,), and the fields have
        shape (R, ny, nx).  One draw covers both components and all replicas."""
        dt = np.asarray(dt)
        if not (dt > 0.0).all():
            raise ValueError("dt must be positive")
        z = noise.standard_normals(self.keys, noise.step_counter(step, attempt))
        c = self.lam * (np.sqrt(dt)[..., None, None] * z)
        side = len(self.gx)
        c = c.reshape(*c.shape[:-1], side, side).swapaxes(-1, -2)
        w = self.gy.T @ (c @ self.gx)
        return w[..., 0, :, :], w[..., 1, :, :]


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
    shape ``lead``; ``terms`` are ``scheme.state_terms(u)`` for the stepping
    material (None: computed when needed).  lead = () is one trajectory.
    """

    u: np.ndarray
    t: np.ndarray
    stopped: np.ndarray
    stop_time: np.ndarray
    terms: scheme.StateTerms | None


def em_step(reps: Replicas, step: int, live, cfg: RunConfig, mat: Material,
            ws: NoiseWorkspace, grid: Grid, base_dt: float,
            e_max: float) -> tuple[Replicas, dict]:
    """One Euler-Maruyama step of the ``live`` replicas (a mask of shape
    lead), all at accepted-step index ``step``, with the run's constants:
    the base step ``cfg.base_dt(grid, mat)`` and the threshold energy
    ``e_max``.

    A frozen replica only advances its clock by the full step.  The others
    freeze if their energy already reaches the threshold; otherwise they try
    the full step and, while the update is not finite and above the floor,
    halve it and redraw at attempt + 1.  Replicas that are not live, and
    those that abort, keep their state.  Returns the new states and the
    aborts, {replica index: OverflowAbort | PositivityAbort}.
    """
    dt_full = np.minimum(base_dt, cfg.t_max - reps.t)
    dt_full = np.where(dt_full > 0.0, dt_full, base_dt)  # past the horizon: a full step

    terms, stopped, stop_time = reps.terms, reps.stopped, reps.stop_time
    pending = live & ~stopped
    if pending.any():
        if terms is None:
            terms = scheme.state_terms(reps.u, mat, grid)
        freeze = pending & (terms.energy.total >= e_max)
        if freeze.any():
            pending = pending & ~freeze
            stopped = stopped | freeze
            stop_time = np.where(freeze, reps.t, stop_time)
    t = np.where(live & stopped, reps.t + dt_full, reps.t)

    u = u_new = reps.u
    moved = False
    aborts = {}
    dt_try = dt_full
    for attempt in range(cfg.max_halvings + 1):
        if not pending.any():
            break
        if attempt:
            dt_try = dt_try * 0.5
        cand = u + dt_try[..., None, None] * terms.drift
        if ws.active:
            cand = cand + scheme.diffusion_values(
                u, grid, *ws.coefficient_fields(step, attempt, dt_try),
                du_x=terms.du_x, du_y=terms.du_y)
        finite = np.isfinite(cand).all(axis=(-2, -1))
        if not finite.all():
            for idx in map(tuple, np.argwhere(pending & ~finite)):
                aborts[idx] = OverflowAbort(step)
        accept = pending & finite & (cand > cfg.u_floor).all(axis=(-2, -1))
        if accept.all():
            u_new, t = cand, reps.t + dt_try
        else:
            u_new = np.where(accept[..., None, None], cand, u_new)
            t = np.where(accept, reps.t + dt_try, t)
        moved = moved | accept
        pending = pending & finite & ~accept
    else:
        for idx in map(tuple, np.argwhere(pending)):  # halvings exhausted
            flat = int(np.argmin(cand[idx]))
            j, i = divmod(flat, grid.nx)
            aborts[idx] = PositivityAbort(step, (i, j), float(cand[idx].ravel()[flat]),
                                          float(dt_try[idx]))

    if np.asarray(moved).any():
        terms = scheme.state_terms(u_new, mat, grid)
        freeze = moved & (terms.energy.total >= e_max)
        if freeze.any():
            stopped = stopped | freeze
            stop_time = np.where(freeze, t, stop_time)
    return Replicas(u_new, t, stopped, stop_time, terms), aborts


def step_em(state: SimState, cfg: RunConfig, mat: Material,
            ws: NoiseWorkspace) -> SimState:
    """One Euler-Maruyama step (or a frozen clock advance once stopped): the
    batch-of-one case of ``em_step``."""
    grid = state.u.grid
    stop_time = np.nan if state.stop_time is None else state.stop_time
    start = Replicas(state.u.values, np.float64(state.t), np.bool_(state.stopped),
                     np.float64(stop_time), None)
    new, aborts = em_step(start, state.step, np.True_, cfg, mat, ws, grid,
                          cfg.base_dt(grid, mat),
                          diagnostics.threshold_energy(grid, mat, cfg.e_max_C))
    if aborts:
        raise aborts[()]
    return _state_of(new, (), state.step + 1, grid, state.initial_mass)


def _state_of(reps: Replicas, idx: tuple, step, grid: Grid, initial_mass: float) -> SimState:
    """The SimState of replica ``idx`` of ``reps`` (idx = () for one field)."""
    stop_time = float(reps.stop_time[idx])
    return SimState(u=Field(grid, reps.u[idx]), t=float(reps.t[idx]), step=int(step),
                    stopped=bool(reps.stopped[idx]),
                    stop_time=None if math.isnan(stop_time) else stop_time,
                    initial_mass=initial_mass)


@dataclass
class RunResult:
    final: SimState
    records: list
    snapshots: list          # (t, Field) pairs at the configured times
    diss_integral: float     # trapezoidal time integral of diss_x + diss_y
    sup_R: float
    sup_osc: float           # largest neighbor-ratio seen before stopping
    max_mass_drift: float    # max |mass(t) - mass(0)| / |mass(0)|


def _integrate(u0: Field, cfg: RunConfig, mat: Material, ws: NoiseWorkspace,
               lead: tuple, visit: Callable | None = None) -> list:
    """The stepping loop: integrate the replicas of ``ws`` (lead = () for one
    seed, (R,) for R seeds) from u0 to t_max through ``em_step``, with the
    running monitors of each replica.

    ``visit(reps, step, live, aborts, reached, state)`` sees the initial
    states and the states after each step: ``live`` masks the replicas that
    have neither reached the horizon nor aborted, ``aborts`` holds the aborts
    of that step, ``reached(target)`` tests the clocks against a time up to
    their rounding (``time_slack``) and ``state(idx)`` builds replica idx's
    SimState.  Returns, per replica in ``np.ndindex(lead)`` order, its
    RunResult without records or snapshots, or the SimulationAbort that
    ended it.
    """
    grid = u0.grid
    mass0 = SimState.initial(u0).initial_mass
    u = np.tile(u0.values, (*lead, 1, 1))
    base_dt = cfg.base_dt(grid, mat)
    e_max = diagnostics.threshold_energy(grid, mat, cfg.e_max_C)
    terms = scheme.state_terms(u, mat, grid)
    stopped = np.asarray(terms.energy.total >= e_max)
    reps = Replicas(u, np.zeros(lead), stopped, np.where(stopped, 0.0, np.nan), terms)
    step, steps = 0, np.zeros(lead, dtype=int)

    def reached(target):
        return reps.t >= target - time_slack(steps, reps.t, base_dt)

    def state(idx):
        return _state_of(reps, idx, steps[idx], grid, mass0)

    sup_R = np.asarray(cfg.alpha + terms.energy.total + cfg.kappa * terms.entropy)
    sup_osc = np.asarray(terms.osc)
    diss_prev = np.where(stopped, 0.0, terms.diss_x + terms.diss_y)
    diss_integral = np.zeros(lead)
    max_drift = np.zeros(lead)
    aborts = {}
    live = np.array(~reached(cfg.t_max))  # a mask that takes item assignment, also for lead ()
    if visit is not None:
        visit(reps, step, live, {}, reached, state)
    while live.any():
        prev_t = reps.t
        reps, new_aborts = em_step(reps, step, live, cfg, mat, ws, grid, base_dt, e_max)
        aborts.update(new_aborts)
        for idx in new_aborts:
            live[idx] = False
        step += 1
        steps = np.where(live, step, steps)
        # a replica that is not live kept its state, so the maxima below
        # leave its monitors as they are
        terms = reps.terms
        diss_now = np.where(reps.stopped, 0.0, terms.diss_x + terms.diss_y)
        diss_integral = np.where(
            live, diss_integral + 0.5 * (diss_prev + diss_now) * (reps.t - prev_t),
            diss_integral)
        diss_prev = diss_now
        sup_R = np.maximum(sup_R, cfg.alpha + terms.energy.total + cfg.kappa * terms.entropy)
        sup_osc = np.where(reps.stopped, sup_osc, np.maximum(sup_osc, terms.osc))
        drift = np.abs(fem.lumped_integral(reps.u, grid) - mass0) / abs(mass0)
        max_drift = np.maximum(max_drift, drift)
        live &= ~reached(cfg.t_max)
        if visit is not None:
            visit(reps, step, live, new_aborts, reached, state)

    def result(idx):
        if idx in aborts:
            return aborts[idx]
        return RunResult(final=state(idx), records=[], snapshots=[],
                         diss_integral=float(diss_integral[idx]), sup_R=float(sup_R[idx]),
                         sup_osc=float(sup_osc[idx]), max_mass_drift=float(max_drift[idx]))

    return [result(idx) for idx in np.ndindex(lead)]


def run(u0: Field, cfg: RunConfig, mat: Material, model: NoiseModel,
        diag_cb: Callable | None = None,
        snapshot_cb: Callable | None = None) -> RunResult:
    """Integrate to t_max, emitting diagnostics and snapshots along the way:
    the one-seed case of the stepping loop, which raises its abort.

    A record is built for the initial state, every ``diag_interval`` steps
    and for the last state.  Deterministic for fixed (seed, config):
    records, snapshots and the final state are pure functions of the inputs.
    """
    ws = NoiseWorkspace.build(model, u0.grid, mat.eps)
    records, snapshots = [], []
    snap_times = sorted(cfg.snapshot_times)

    def emit(reps, step, live, aborts, reached, state):
        if aborts:
            raise aborts[()]
        s = None
        if step % cfg.diag_interval == 0 or not live:
            s = state(())
            rec = diagnostics.make_record(s.u, mat, s.t, s.stopped, cfg.alpha, cfg.kappa,
                                          terms=reps.terms)
            records.append(rec)
            if diag_cb is not None:
                diag_cb(rec)
        while snap_times and reached(snap_times[0]):
            snap_times.pop(0)
            s = s or state(())
            snapshots.append((s.t, s.u))
            if snapshot_cb is not None:
                snapshot_cb(s)

    [result] = _integrate(u0, cfg, mat, ws, (), emit)
    return replace(result, records=records, snapshots=snapshots)


def run_replicas(u0: Field, cfg: RunConfig, mat: Material, model: NoiseModel,
                 seeds) -> list:
    """Integrate one replica of ``model`` per seed from u0 to t_max, stepped
    together as one stack.

    Entry r is what ``run(u0, cfg, mat, model.with_seed(seeds[r]))`` returns,
    bit for bit, with no records or snapshots, or the SimulationAbort it
    raises.  Replicas that reach the horizon or abort drop out of the step.
    """
    ws = NoiseWorkspace.build(model, u0.grid, mat.eps, seeds)
    return _integrate(u0, cfg, mat, ws, (len(seeds),))
