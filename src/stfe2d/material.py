"""Effective interface potential, entropy function, and element-mean weights.

The potential family is F(u) = A u^-pa - B u^-pb + C for u > 0 (+infinity
otherwise), with the prototype A = B = C = 1, pa = 8, pb = 2.  The growth
exponent p = pa, the curvature-regularization exponent eps in (0, 2) and the
threshold margin rho > 0 must satisfy

    2/p + eps/2 + rho/(2p) < 1,

checked at construction.  A Stratonovich run shifts the potential by
C_strat * (u - log u), which changes F' by C_strat * (1 - 1/u) and leaves
the structural growth bounds intact (the additive constant of the shifted
potential is dropped; it affects neither derivatives nor energy differences).

The mobility is fixed quadratic, m(u) = u^2, giving the entropy
G(u) = (u - 1) - log u as the second primitive of 1/m.

Element means:  for a function f and an edge with endpoint values (a, b),
the plain mean is the average of f over the value interval [a, b], i.e. the
divided difference of an antiderivative.  The mobility weight on an edge is
the *reciprocal* of the mean of G'' -- the entropy-consistent average
(b - a) / (G'(b) - G'(a)), which for quadratic mobility collapses to a*b.
This choice makes the discrete entropy-production identity exact: the
mobility mean times the divided difference of G'(u) telescopes to the
difference quotient of u itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class PositivityError(ValueError):
    """A film-height value reached the nonpositive range of the potential."""


class AssumptionError(ValueError):
    """A structural parameter assumption is violated."""


def require_positive(u, what: str):
    """u as a float array; a PositivityError unless every value is > 0, which
    NaN is not."""
    u = np.asarray(u, dtype=np.float64)
    if not np.all(u > 0.0):
        raise PositivityError(f"{what} requires strictly positive values (min = {np.min(u):g})")
    return u


def _negative_powers(u: np.ndarray, r: np.ndarray, n: float, p: np.ndarray,
                     p1: np.ndarray, sq: np.ndarray) -> None:
    """u^-n into ``p`` and u^-(n+1) into ``p1``; r = 1/u, ``sq`` is scratch.

    For an integer n, p is the product of the squares r^(2^k) of n's set
    bits, taken in increasing k, and p1 = p * r.
    """
    if not float(n).is_integer():
        np.power(u, -n, out=p)
        np.power(u, -n - 1, out=p1)
        return
    n, base, first = int(n), r, True
    while n:
        if n & 1:
            if first:
                np.copyto(p, base)
            else:
                p *= base
            first = False
        n >>= 1
        if n:
            base = np.multiply(base, base, out=sq)
    if first:
        p.fill(1.0)
    np.multiply(p, r, out=p1)


def _evaluated(evaluate, u):
    """(F, F') of ``evaluate(u, f, df, scratch)`` into fresh arrays."""
    u = np.asarray(u, dtype=np.float64)
    f, df, *scratch = (np.empty_like(u) for _ in range(6))
    evaluate(u, f, df, scratch)
    return f[()], df[()]


@dataclass(frozen=True)
class PowerPairPotential:
    """F(u) = coef_high * u^-exp_high - coef_low * u^-exp_low + const."""

    coef_high: float = 1.0
    exp_high: float = 8.0
    coef_low: float = 1.0
    exp_low: float = 2.0
    const: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.coef_high, self.exp_high, self.coef_low,
                                       self.exp_low, self.const))):
            raise AssumptionError(f"potential parameters must be finite (got {self})")
        if not (self.exp_high > 2.0):
            raise AssumptionError(
                f"(P) violated: growth exponent p = {self.exp_high:g} must exceed 2")
        if not (self.exp_high > self.exp_low >= 0.0):
            raise AssumptionError(
                f"potential exponents must satisfy exp_high > exp_low >= 0 "
                f"(got {self.exp_high:g}, {self.exp_low:g})")
        if self.coef_high <= 0.0 or self.coef_low < 0.0:
            raise AssumptionError("potential coefficients must have coef_high > 0, coef_low >= 0")

    def evaluate(self, u: np.ndarray, f: np.ndarray, df: np.ndarray, scratch) -> None:
        """F(u) into ``f`` and F'(u) into ``df`` for positive u (unchecked),
        with four scratch arrays shaped like u.

        An integer exponent n takes u^-n from the one reciprocal r = 1/u by
        repeated squaring and u^-(n+1) as u^-n * r; any other exponent takes
        both through ``pow``.
        """
        r, sq, low, low1 = scratch
        np.divide(1.0, u, out=r)
        _negative_powers(u, r, self.exp_high, f, df, sq)
        _negative_powers(u, r, self.exp_low, low, low1, sq)
        df *= -self.coef_high * self.exp_high
        low1 *= self.coef_low * self.exp_low
        df += low1
        f *= self.coef_high
        low *= self.coef_low
        f -= low
        f += self.const

    def f(self, u):
        return _evaluated(self.evaluate, u)[0]

    def df(self, u):
        return _evaluated(self.evaluate, u)[1]

    def d2f(self, u):
        return (self.coef_high * self.exp_high * (self.exp_high + 1) * u ** (-self.exp_high - 2)
                - self.coef_low * self.exp_low * (self.exp_low + 1) * u ** (-self.exp_low - 2))


PROTOTYPE = PowerPairPotential()


@dataclass(frozen=True)
class Material:
    """Potential family with regularization parameters and Stratonovich shift."""

    p: float = 8.0
    eps: float = 1.0
    rho: float = 1.0
    strat_shift: float = 0.0
    potential: PowerPairPotential = field(default=PROTOTYPE)

    def __post_init__(self):
        if not (0.0 < self.eps < 2.0):
            raise AssumptionError(f"regularization exponent eps = {self.eps:g} must lie in (0, 2)")
        if not (self.rho > 0.0):
            raise AssumptionError(f"threshold margin rho = {self.rho:g} must be positive")
        if not (math.isfinite(self.strat_shift) and self.strat_shift >= 0.0):
            raise AssumptionError(
                f"strat_shift = {self.strat_shift:g} must be finite and nonnegative")
        if self.p != self.potential.exp_high:
            raise AssumptionError(
                f"growth exponent p = {self.p:g} must equal the potential's "
                f"leading exponent {self.potential.exp_high:g}")
        margin = 2.0 / self.p + self.eps / 2.0 + self.rho / (2.0 * self.p)
        if not (margin < 1.0):
            raise AssumptionError(
                f"(R) violated: 2/p + eps/2 + rho/(2p) = {margin:.6g} >= 1")

    # -- potential ---------------------------------------------------------

    def potential_terms(self, u: np.ndarray, f: np.ndarray, df: np.ndarray,
                        scratch) -> None:
        """F(u) into ``f`` and F'(u) into ``df`` for positive u (unchecked),
        with four scratch arrays shaped like u: the state kernel's form of
        ``potential_F`` and ``dF``, which evaluate through it."""
        self.potential.evaluate(u, f, df, scratch)
        if self.strat_shift:
            t = scratch[0]
            np.divide(1.0, u, out=t)
            np.subtract(1.0, t, out=t)
            t *= self.strat_shift
            df += t
            np.log(u, out=t)
            np.subtract(u, t, out=t)
            t *= self.strat_shift
            f += t

    def potential_F(self, u):
        return _evaluated(self.potential_terms, require_positive(u, "potential_F"))[0]

    def dF(self, u):
        return _evaluated(self.potential_terms, require_positive(u, "dF"))[1]

    def d2F(self, u):
        u = require_positive(u, "d2F")
        out = self.potential.d2f(u)
        if self.strat_shift:
            out = out + self.strat_shift / u**2
        return out

    # -- quadratic mobility and its entropy --------------------------------

    @staticmethod
    def mobility(u):
        return np.asarray(u, dtype=np.float64) ** 2

    @staticmethod
    def entropy_density(u: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """G(u) = (u - 1) - log u into ``out`` for positive u (unchecked)."""
        np.subtract(u, 1.0, out=out)
        out -= np.log(u, out=tmp)
        return out

    @staticmethod
    def entropy_G(u):
        u = require_positive(u, "entropy_G")
        return Material.entropy_density(u, np.empty_like(u), np.empty_like(u))[()]

    @staticmethod
    def dG(u):
        u = require_positive(u, "dG")
        return 1.0 - 1.0 / u

    @staticmethod
    def d2G(u):
        u = require_positive(u, "d2G")
        return 1.0 / u**2


# ---------------------------------------------------------------------------
# element means
# ---------------------------------------------------------------------------

DEGENERATE_REL = 1e-8  # |b - a| below this (relative) switches to the midpoint value


def mobility_mean(a, b):
    """Entropy-consistent mobility weight (b-a)/(G'(b)-G'(a)) = a*b for m = s^2.

    Closed form, stable for all positive endpoints including a == b.
    """
    a = require_positive(a, "mobility_mean")
    b = require_positive(b, "mobility_mean")
    return a * b


def d2F_mean(mat: Material, a, b):
    """Average of F'' over the value interval: divided difference of F'."""
    a = require_positive(a, "d2F_mean")
    b = require_positive(b, "d2F_mean")
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    near = np.abs(b - a) <= DEGENERATE_REL * np.maximum(a, b)
    safe_b = np.where(near, a + 1.0, b)  # avoid 0/0 on the lanes replaced below
    dd = (mat.dF(safe_b) - mat.dF(a)) / (safe_b - a)
    out = np.where(near, mat.d2F(0.5 * (a + b)), dd)
    return out if out.shape else float(out)

