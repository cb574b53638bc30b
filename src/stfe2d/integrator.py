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

The base step defaults to a tenth of the explicit stability bound of the
linearized fourth-order terms (mobility part plus h^eps curvature part);
see ``stable_dt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import diagnostics, noise, scheme
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
    # scheme.state_terms(u.values, mat, u.grid) for the mat the state is
    # stepped with, computed once when the state is accepted; step_em trusts
    # it whenever it is set.  A state whose u is replaced by hand (e.g. with
    # dataclasses.replace) must also set terms=None, so they are recomputed.
    terms: scheme.StateTerms | None = field(default=None, repr=False, compare=False)

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
    """

    modes: tuple
    gx: np.ndarray
    gy: np.ndarray
    lam_x: np.ndarray
    lam_y: np.ndarray
    keys_x: np.ndarray
    keys_y: np.ndarray

    @classmethod
    def build(cls, model: NoiseModel, grid: Grid, eps: float) -> "NoiseWorkspace":
        r = noise.truncation_radius(model, grid.h, eps)
        modes = tuple(noise.truncation_set(model, grid.h, eps))
        lam_x, lam_y = model.lambda_arrays(modes)
        x = grid.hx * np.arange(grid.nx)
        y = grid.hy * np.arange(grid.ny)
        return cls(
            modes=modes,
            gx=np.array([noise.basis_1d(k, x, grid.Lx) for k in range(-r, r + 1)]),
            gy=np.array([noise.basis_1d(l, y, grid.Ly) for l in range(-r, r + 1)]),
            lam_x=lam_x,
            lam_y=lam_y,
            keys_x=noise.mode_keys(model.seed, 0, modes),
            keys_y=noise.mode_keys(model.seed, 1, modes),
        )

    @property
    def active(self) -> bool:
        return bool(np.any(self.lam_x > 0) or np.any(self.lam_y > 0))

    def coefficient_fields(self, step: int, attempt: int, dt: float):
        """Accumulated noise fields (w_x, w_y) for one step attempt."""
        if not (dt > 0.0):
            raise ValueError("dt must be positive")
        ctr = noise.step_counter(step, attempt)
        sd = np.sqrt(dt)
        side = len(self.gx)
        cx = self.lam_x * (sd * noise.standard_normals(self.keys_x, ctr))
        cy = self.lam_y * (sd * noise.standard_normals(self.keys_y, ctr))
        wx = self.gy.T @ (cx.reshape(side, side).T @ self.gx)
        wy = self.gy.T @ (cy.reshape(side, side).T @ self.gx)
        return wx, wy


def time_slack(step: int, t: float, base_dt: float) -> float:
    """Rounding slack of a clock that reached t by summing ``step`` positive
    increments: its error stays below step * eps * t, and the slack never
    reaches a step length (capped at 1e-3 of the base step)."""
    return min(step * np.finfo(float).eps * t, 1e-3 * base_dt)


def step_em(state: SimState, cfg: RunConfig, mat: Material,
            ws: NoiseWorkspace) -> SimState:
    """One Euler-Maruyama step (or a frozen clock advance once stopped).

    Drift and threshold test come from ``state.terms`` (computed here if
    absent); the returned state carries the terms of its own field.
    """
    grid = state.u.grid
    dt_full = min(cfg.base_dt(grid, mat), max(cfg.t_max - state.t, 0.0))
    if dt_full <= 0.0:
        dt_full = cfg.base_dt(grid, mat)

    if state.stopped:
        return replace(state, t=state.t + dt_full, step=state.step + 1)

    terms = state.terms
    if terms is None:
        terms = scheme.state_terms(state.u.values, mat, grid)
    e_max = diagnostics.threshold_energy(grid, mat, cfg.e_max_C)
    if terms.energy.total >= e_max:
        return replace(state, t=state.t + dt_full, step=state.step + 1,
                       stopped=True, stop_time=state.t, terms=terms)

    u = state.u.values
    dt_try = dt_full
    for attempt in range(cfg.max_halvings + 1):
        u_new = u + dt_try * terms.drift
        if ws.active:
            u_new = u_new + scheme.diffusion_values(
                u, grid, *ws.coefficient_fields(state.step, attempt, dt_try))
        if not np.all(np.isfinite(u_new)):
            raise OverflowAbort(state.step)
        if np.all(u_new > cfg.u_floor):
            break
        dt_try *= 0.5
    else:
        flat = int(np.argmin(u_new))
        j, i = divmod(flat, grid.nx)
        raise PositivityAbort(state.step, (i, j), float(u_new.ravel()[flat]), dt_try * 2.0)

    new_field = Field(grid, u_new)
    del u_new
    new_t = state.t + dt_try
    new_terms = scheme.state_terms(new_field.values, mat, grid)
    stopped = new_terms.energy.total >= e_max
    return replace(state, u=new_field, t=new_t, step=state.step + 1, terms=new_terms,
                   stopped=stopped, stop_time=new_t if stopped else None)


@dataclass
class RunResult:
    final: SimState
    records: list
    snapshots: list          # (t, Field) pairs at the configured times
    diss_integral: float     # trapezoidal time integral of diss_x + diss_y
    sup_R: float
    sup_osc: float           # largest neighbor-ratio seen before stopping
    max_mass_drift: float    # max |mass(t) - mass(0)| / |mass(0)|


def run(u0: Field, cfg: RunConfig, mat: Material, model: NoiseModel,
        diag_cb: Callable | None = None,
        snapshot_cb: Callable | None = None) -> RunResult:
    """Integrate to t_max, emitting diagnostics and snapshots along the way.

    Deterministic for fixed (seed, config): records, snapshots and the final
    state are pure functions of the inputs.
    """
    grid = u0.grid
    ws = NoiseWorkspace.build(model, grid, mat.eps)
    state = replace(SimState.initial(u0), terms=scheme.state_terms(u0.values, mat, grid))

    e_max = diagnostics.threshold_energy(grid, mat, cfg.e_max_C)
    if state.terms.energy.total >= e_max:
        state = replace(state, stopped=True, stop_time=0.0)

    def record_of(s: SimState) -> diagnostics.DiagRecord:
        return diagnostics.make_record(s.u, mat, s.t, s.stopped, cfg.alpha, cfg.kappa,
                                       terms=s.terms)

    rec = record_of(state)
    records = [rec]
    if diag_cb is not None:
        diag_cb(rec)

    snap_times = sorted(cfg.snapshot_times)
    snapshots = []
    base_dt = cfg.base_dt(grid, mat)

    def reached(s: SimState, target: float) -> bool:
        return s.t >= target - time_slack(s.step, s.t, base_dt)

    def emit_snapshots(s: SimState):
        while snap_times and reached(s, snap_times[0]):
            snap_times.pop(0)
            snapshots.append((s.t, s.u))
            if snapshot_cb is not None:
                snapshot_cb(s)

    emit_snapshots(state)

    sup_R = rec.R
    sup_osc = rec.osc
    max_drift = 0.0
    diss_integral = 0.0
    diss_prev = rec.diss_x + rec.diss_y
    mass0 = state.initial_mass

    while not reached(state, cfg.t_max):
        prev_t = state.t
        state = step_em(state, cfg, mat, ws)
        rec = record_of(state)
        diss_now = rec.diss_x + rec.diss_y
        diss_integral += 0.5 * (diss_prev + diss_now) * (state.t - prev_t)
        diss_prev = diss_now
        sup_R = max(sup_R, rec.R)
        if not state.stopped:
            sup_osc = max(sup_osc, rec.osc)
        max_drift = max(max_drift, abs(rec.mass - mass0) / abs(mass0))
        done = reached(state, cfg.t_max)
        if state.step % cfg.diag_interval == 0 or done:
            records.append(rec)
            if diag_cb is not None:
                diag_cb(rec)
        emit_snapshots(state)

    return RunResult(final=state, records=records, snapshots=snapshots,
                     diss_integral=diss_integral, sup_R=sup_R, sup_osc=sup_osc,
                     max_mass_drift=max_drift)
