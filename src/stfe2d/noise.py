"""Spectral conservative noise: trigonometric modes, decay schedules, and
reproducible per-mode Gaussian increments.

The driving noise has two components (one per spatial direction), each a
mode sum  sum_{k,l} lambda_kl g_kl beta_kl  over the product trigonometric
basis

    g_k(x) = sqrt(2/L) * { cos(2 pi k x / L)   k >= 1
                           1/sqrt(2)           k == 0
                           sin(2 pi k x / L)   k <= -1 }

(eigenfunctions of the periodic 1D Laplacian), evaluated nodally on the
grid.  The mode set active at mesh size h is {|k|, |l| <= C_trunc * h^(-eps/2)},
capped per axis; the sets are nested as h decreases.

Gaussian increments are produced by a counter-based generator: a 64-bit
mix (splitmix64 finalizer) keyed by (seed, component, k, l) and evaluated
at a per-draw counter, pushed through Box-Muller.  A draw is a pure
function of its key and counter, so values are independent of evaluation
order and of the truncation-set size, and re-invocation reproduces them
bit-exactly.

``NoiseWorkspace`` freezes the keys, lambda table and basis rows at a run's
mesh size and synthesizes each step's noise fields; the integrator only steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .grid import Field, Grid
from .material import AssumptionError

U64 = np.uint64

#: attempts (step-size halvings) addressable inside one step's counter slot
ATTEMPT_SLOTS = 64

STRAT_SYMMETRY_ERROR = "Stratonovich mode requires symmetric lambda"


class NoiseConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# decay schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawSchedule:
    """lambda_kl = lambda0 * (1 + k^2 + l^2)^(-s/2), identical for both components.

    s > 3 keeps sum lambda^2 * (k^2+l^2)^2 finite (colored noise with
    second-derivative margin); symmetric in sign and component, so it is
    admissible for Stratonovich runs.
    """

    lambda0: float = 0.1
    s: float = 4.0
    symmetric = True  # a class constant, not a field

    def __post_init__(self):
        if not (math.isfinite(self.lambda0) and self.lambda0 >= 0.0):
            raise NoiseConfigError(f"lambda0 = {self.lambda0:g} must be finite and nonnegative")
        if not (math.isfinite(self.s) and self.s > 3.0):
            raise AssumptionError(
                f"(B3) violated: power-law decay exponent s = {self.s:g} must be finite "
                "and exceed 3 for colored noise with W^(2,inf)-summable modes")

    def lambda_table(self, r: int) -> np.ndarray:
        """lambda[c, k+r, l+r] of the square |k|, |l| <= r, component c.

        Python's float power runs once per distinct k^2 + l^2: the bases
        1 + k^2 + l^2 are exact, so each mode gets its scalar formula's value
        (np.power rounds differently from pow in the last bit).
        """
        axis = np.arange(-r, r + 1)
        q = axis[:, None] ** 2 + axis ** 2
        present = np.zeros(2 * r * r + 1, dtype=bool)
        present[q] = True
        radii = np.flatnonzero(present)
        lookup = np.zeros(len(present))
        lookup[radii] = [self.lambda0 * (1.0 + v) ** (-self.s / 2.0) for v in radii.tolist()]
        lam = lookup[q]
        return np.stack((lam, lam))


@dataclass(frozen=True)
class TableSchedule:
    """Explicit decay table {(k, l): (lambda_x, lambda_y)}; zero off-table."""

    table: tuple  # tuple of ((k, l), (lx, ly)) pairs, hashable form

    def __post_init__(self):
        for (k, l), lam in self.table:
            if not all(math.isfinite(v) and v >= 0 for v in lam):
                raise NoiseConfigError(
                    f"decay coefficient at mode ({k}, {l}) must be finite and nonnegative")

    @classmethod
    def from_dict(cls, d: dict) -> "TableSchedule":
        items = []
        for (k, l), lam in sorted(d.items()):
            if np.isscalar(lam):
                lam = (lam, lam)
            items.append(((int(k), int(l)), (float(lam[0]), float(lam[1]))))
        return cls(tuple(items))

    def lambda_table(self, r: int) -> np.ndarray:
        """lambda[c, k+r, l+r] of the square |k|, |l| <= r, component c;
        entries outside the square are dropped, whatever the size of their
        indices."""
        out = np.zeros((2, 2 * r + 1, 2 * r + 1))
        for (k, l), lam in self.table:
            if abs(k) <= r and abs(l) <= r:
                out[:, k + r, l + r] = lam
        return out

    @property
    def symmetric(self) -> bool:
        """Every entry is component-equal and equals its (-k, l) and (k, -l)
        mirrors, an absent mode counting as (0, 0)."""
        d, zero = dict(self.table), (0.0, 0.0)
        return all(lx == ly and d.get((-k, l), zero) == d.get((k, -l), zero) == (lx, ly)
                   for (k, l), (lx, ly) in d.items())


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    schedule: PowerLawSchedule | TableSchedule
    trunc_C: float = 1.0
    mode_cap: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.trunc_C) and self.trunc_C > 0.0):
            raise NoiseConfigError(f"trunc_C = {self.trunc_C:g} must be finite and positive")
        if self.mode_cap < 0:
            raise NoiseConfigError("mode_cap must be nonnegative")
        if not (0 <= self.seed < 2**64):
            raise NoiseConfigError("seed must fit in 64 bits")

    def with_seed(self, seed: int) -> "NoiseModel":
        return replace(self, seed=seed)


def truncation_radius(model: NoiseModel, h: float, eps: float) -> int:
    """Largest admissible |k| (= |l|): min(trunc_C * h^(-eps/2), mode_cap)."""
    if not (h > 0.0):
        raise ValueError("mesh size must be positive")
    bound = model.trunc_C * h ** (-eps / 2.0)
    # guard against 3.9999... artifacts of the fractional power
    return min(int(np.floor(bound * (1.0 + 1e-12) + 1e-12)), model.mode_cap)


def mode_indices(r: int) -> tuple[np.ndarray, np.ndarray]:
    """k and l of the square {|k|, |l| <= r}, k outer and l inner."""
    axis = np.arange(-r, r + 1)
    return np.repeat(axis, 2 * r + 1), np.tile(axis, 2 * r + 1)


def truncation_set(model: NoiseModel, h: float, eps: float) -> list[tuple[int, int]]:
    """Active modes {(k,l): |k|,|l| <= radius}, lexicographically ordered.

    The radius grows monotonically as h decreases, so the sets are nested.
    """
    ks, ls = mode_indices(truncation_radius(model, h, eps))
    return list(zip(ks.tolist(), ls.tolist()))


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def basis_table(r: int, coords: np.ndarray, L: float) -> np.ndarray:
    """Rows g_k(coords) for k = -r..r; a row does not depend on r."""
    arg = (2.0 * np.pi * np.arange(-r, r + 1))[:, None] * coords / L
    g = np.empty_like(arg)
    np.sin(arg[:r], out=g[:r])
    np.cos(arg[r + 1:], out=g[r + 1:])
    g *= np.sqrt(2.0 / L)
    g[r] = 1.0 / np.sqrt(L)
    return g


def basis_eval(k: int, l: int, grid: Grid) -> Field:
    """Nodal interpolant of the product mode g_k(x) g_l(y)."""
    gx = basis_table(abs(k), grid.hx * np.arange(grid.nx), grid.Lx)[k + abs(k)]
    gy = basis_table(abs(l), grid.hy * np.arange(grid.ny), grid.Ly)[l + abs(l)]
    return Field(grid, np.outer(gy, gx))


# ---------------------------------------------------------------------------
# counter-based Gaussian streams
# ---------------------------------------------------------------------------

_MASK64 = 2**64 - 1
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_COUNTER = 0x632BE59BD9B4E019


def _mix64(x):
    """splitmix64 finalizer of uint64 values; an array is mixed in place."""
    # modular 64-bit wraparound is the intended mixing semantics: callers
    # wrap the calls in np.errstate(over="ignore") (numpy scalars warn)
    x ^= x >> U64(30)
    x *= U64(_MIX1)
    x ^= x >> U64(27)
    x *= U64(_MIX2)
    x ^= x >> U64(31)
    return x


def _mix64_int(x: int) -> int:
    """``_mix64`` of a Python int in [0, 2^64)."""
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def mode_keys(seed, component, ks, ls) -> np.ndarray:
    """64-bit stream keys of (seed, component, k, l); component 0 = x, 1 = y.

    The four arguments broadcast against each other, so one call keys both
    components of every seed of a stack: seeds of shape (R, 1, 1) and
    components of shape (2, 1) against ks and ls of shape (M,) give (R, 2, M).
    """
    ks = np.asarray(ks, dtype=np.int64)
    ls = np.asarray(ls, dtype=np.int64)
    with np.errstate(over="ignore"):
        x = _mix64(np.asarray(seed, dtype=np.uint64) + U64(0x9E3779B97F4A7C15))
        x = _mix64(x ^ (np.asarray(component, dtype=np.uint64) + U64(0xD1B54A32D192ED03)))
        x = _mix64(x + (ks + np.int64(2**31)).astype(np.uint64) * U64(0x8CB92BA72F3D8DD7))
        x = _mix64(x + (ls + np.int64(2**31)).astype(np.uint64) * U64(0xA24BAED4963EE407))
    return x


def _uniform53(keys: np.ndarray, mixed_counter) -> np.ndarray:
    """The top 53 bits of mix(key ^ mixed counter), as floats in [0, 2^53)."""
    x = _mix64(np.asarray(keys ^ mixed_counter))  # an array wraps silently
    x >>= U64(11)
    return x.astype(np.float64)


def standard_normals(keys: np.ndarray, counters) -> np.ndarray:
    """One N(0,1) draw per (key, counter) pair via Box-Muller; broadcasts.

    The counter is mixed once per call, so one call over all the keys of a
    step attempt (both components, every replica) mixes it once; a single
    counter is mixed in Python ints."""
    keys = np.asarray(keys, dtype=np.uint64)
    if isinstance(counters, (int, np.integer)):
        base = (int(counters) * 2 + _COUNTER) & _MASK64
        m1, m2 = U64(_mix64_int(base)), U64(_mix64_int((base + 1) & _MASK64))
    else:
        with np.errstate(over="ignore"):
            base = np.asarray(counters, dtype=np.uint64) * U64(2) + U64(_COUNTER)
            m2 = _mix64(base + U64(1))
            m1 = _mix64(base)
    z = _uniform53(keys, m1)         # u1 in (0, 1] after the next two steps
    z += 1.0
    z *= 2.0**-53
    z = np.log(z, out=z)
    z *= -2.0
    z = np.sqrt(z, out=z)
    c = _uniform53(keys, m2)         # u2 in [0, 1) after the next step
    c *= 2.0**-53
    c *= 2.0 * np.pi
    z *= np.cos(c, out=c)
    return z[()]


def step_counter(step: int, attempt: int = 0) -> int:
    """Counter slot for the given accepted-step index and halving attempt."""
    if not (0 <= attempt < ATTEMPT_SLOTS):
        raise ValueError(f"attempt index {attempt} out of range")
    return step * ATTEMPT_SLOTS + attempt


# ---------------------------------------------------------------------------
# Stratonovich correction constant
# ---------------------------------------------------------------------------

def strat_constant(model: NoiseModel, Lx: float, Ly: float) -> float:
    """Ito-correction coefficient of the Stratonovich noise, closed form.

    Requires component-equal, sign-symmetric decay; then the pointwise
    noise intensity  sum lambda_kl^2 g_kl(x,y)^2  is constant in space and
    equals

        (lambda_00^2 + 4 sum_{k,l>=1} lambda_kl^2
         + 2 sum_{k>=1} (lambda_k0^2 + lambda_0k^2)) / (Lx Ly),

    summed over the representable modes (|k|, |l| <= mode_cap); the sign
    classes are folded into the coefficients 4 and 2.  A Stratonovich run is
    the Ito run of ``Material(strat_shift=strat_constant(model, Lx, Ly))``.
    """
    if not model.schedule.symmetric:
        raise NoiseConfigError(STRAT_SYMMETRY_ERROR)
    cap = model.mode_cap
    lam = model.schedule.lambda_table(cap)[0, cap:, cap:]  # k, l >= 0

    def sum_sq(a):
        # Python floats summed in (k, l) order; pow(v, 2) and v * v differ
        # in the last bit for some v, so the square is Python's too
        return sum(v ** 2 for v in a.ravel().tolist())

    total = sum_sq(lam[:1, :1])
    total += 2.0 * sum_sq(lam[1:, 0])
    total += 2.0 * sum_sq(lam[0, 1:])
    total += 4.0 * sum_sq(lam[1:, 1:])
    return total / (Lx * Ly)


def b3star_monitor(model: NoiseModel, h: float, eps: float) -> float:
    """Truncated third-derivative load: sum (lx^2+ly^2) h^eps (|k|^3+|l|^3)^2.

    Surrogate for the W^(3,inf) mass of the active modes; should stay
    bounded along mesh refinement for an admissible schedule.
    """
    r = truncation_radius(model, h, eps)
    lx, ly = model.schedule.lambda_table(r).reshape(2, -1)
    ks, ls = (np.abs(a).astype(float) for a in mode_indices(r))
    return float(h**eps * ((lx**2 + ly**2) * (ks**3 + ls**3) ** 2).sum())


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseWorkspace:
    """Mode set frozen at the run's mesh size, with cached 1D tables and keys.

    The active modes form the full square {|k|, |l| <= r} in the (k outer,
    l inner) order of ``truncation_set``, and each mode is the product
    g_k(x) g_l(y).  A component field sum_kl c_kl g_k(x_i) g_l(y_j) is
    therefore gy^T C^T gx with the (2r+1, 2r+1) coefficient matrix
    C[k+r, l+r] = c_kl, so only the 1D tables gx[k+r, i] = g_k(x_i) and
    gy[l+r, j] = g_l(y_j) are stored: O(r n) memory.

    ``keys[..., c, m]`` is the stream key of component c (0 = x, 1 = y) of
    mode m: shape (2, M) for one seed, (R, 2, M) for a stack of replicas
    with one seed each, whose fields then carry the replica axis first.
    ``half`` holds C^T gx of each field between the two products.

    ``build`` works on whole arrays: the mode indices come from
    ``mode_indices``, one ``mode_keys`` call mixes the keys of both
    components and every seed, ``lam`` is the schedule's ``lambda_table``
    and ``gx``, ``gy`` are ``basis_table`` rows.  Each equals its
    mode-by-mode value bit for bit.
    """

    gx: np.ndarray
    gy: np.ndarray
    lam: np.ndarray        # (2, M): lambda_x and lambda_y of each mode
    keys: np.ndarray
    half: np.ndarray       # (*keys.shape[:-1], 2r+1, nx) scratch

    @classmethod
    def build(cls, model: NoiseModel, grid: Grid, eps: float,
              seeds=None) -> "NoiseWorkspace":
        """Workspace of ``model``, or of one replica of it per entry of
        ``seeds`` (a sequence of seeds)."""
        r = truncation_radius(model, grid.h, eps)
        ks, ls = mode_indices(r)
        seed = model.seed if seeds is None else np.asarray(seeds, dtype=np.uint64)[:, None, None]
        keys = mode_keys(seed, np.arange(2)[:, None], ks, ls)
        return cls(
            gx=basis_table(r, grid.hx * np.arange(grid.nx), grid.Lx),
            gy=basis_table(r, grid.hy * np.arange(grid.ny), grid.Ly),
            lam=model.schedule.lambda_table(r).reshape(2, -1),
            keys=keys,
            half=np.empty((*keys.shape[:-1], 2 * r + 1, grid.nx)),
        )

    @cached_property
    def active(self) -> bool:
        return bool(np.any(self.lam > 0))

    def coefficient_fields(self, step: int, attempt: int, dt, out: np.ndarray | None = None):
        """Accumulated noise fields (w_x, w_y) for one step attempt; for a
        stack, dt holds each replica's step, shape (R,), and the fields have
        shape (R, ny, nx).  One draw covers both components and all replicas.
        The fields are views of ``out``, shape (*lead, 2, ny, nx), when given."""
        dt = np.asarray(dt)
        if not (dt > 0.0).all():
            raise ValueError("dt must be positive")
        c = standard_normals(self.keys, step_counter(step, attempt))
        c *= np.sqrt(dt)[..., None, None]
        c *= self.lam
        side = len(self.gx)
        c = c.reshape(*c.shape[:-1], side, side).swapaxes(-1, -2)
        w = np.matmul(self.gy.T, np.matmul(c, self.gx, out=self.half), out=out)
        return w[..., 0, :, :], w[..., 1, :, :]
