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

from dataclasses import dataclass, field

import numpy as np


class PositivityError(ValueError):
    """A film-height value reached the nonpositive range of the potential."""


class AssumptionError(ValueError):
    """A structural parameter assumption is violated."""


def _require_positive(u, what: str):
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0):
        bad = float(np.min(u))
        raise PositivityError(f"{what} requires strictly positive values (min = {bad:g})")
    return u


@dataclass(frozen=True)
class PowerPairPotential:
    """F(u) = coef_high * u^-exp_high - coef_low * u^-exp_low + const."""

    coef_high: float = 1.0
    exp_high: float = 8.0
    coef_low: float = 1.0
    exp_low: float = 2.0
    const: float = 1.0

    def __post_init__(self):
        if not (self.exp_high > 2.0):
            raise AssumptionError(
                f"(P) violated: growth exponent p = {self.exp_high:g} must exceed 2")
        if not (self.exp_high > self.exp_low >= 0.0):
            raise AssumptionError(
                f"potential exponents must satisfy exp_high > exp_low >= 0 "
                f"(got {self.exp_high:g}, {self.exp_low:g})")
        if self.coef_high <= 0.0 or self.coef_low < 0.0:
            raise AssumptionError("potential coefficients must have coef_high > 0, coef_low >= 0")

    def f(self, u):
        return (self.coef_high * u ** (-self.exp_high)
                - self.coef_low * u ** (-self.exp_low) + self.const)

    def df(self, u):
        return (-self.coef_high * self.exp_high * u ** (-self.exp_high - 1)
                + self.coef_low * self.exp_low * u ** (-self.exp_low - 1))

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
        if self.strat_shift < 0.0:
            raise AssumptionError(f"strat_shift = {self.strat_shift:g} must be nonnegative")
        if self.p != self.potential.exp_high:
            raise AssumptionError(
                f"growth exponent p = {self.p:g} must equal the potential's "
                f"leading exponent {self.potential.exp_high:g}")
        margin = 2.0 / self.p + self.eps / 2.0 + self.rho / (2.0 * self.p)
        if not (margin < 1.0):
            raise AssumptionError(
                f"(R) violated: 2/p + eps/2 + rho/(2p) = {margin:.6g} >= 1")

    # -- potential ---------------------------------------------------------

    def potential_F(self, u):
        u = _require_positive(u, "potential_F")
        out = self.potential.f(u)
        if self.strat_shift:
            out = out + self.strat_shift * (u - np.log(u))
        return out

    def dF(self, u):
        u = _require_positive(u, "dF")
        out = self.potential.df(u)
        if self.strat_shift:
            out = out + self.strat_shift * (1.0 - 1.0 / u)
        return out

    def d2F(self, u):
        u = _require_positive(u, "d2F")
        out = self.potential.d2f(u)
        if self.strat_shift:
            out = out + self.strat_shift / u**2
        return out

    # -- quadratic mobility and its entropy --------------------------------

    @staticmethod
    def mobility(u):
        return np.asarray(u, dtype=np.float64) ** 2

    @staticmethod
    def entropy_G(u):
        u = _require_positive(u, "entropy_G")
        return (u - 1.0) - np.log(u)

    @staticmethod
    def dG(u):
        u = _require_positive(u, "dG")
        return 1.0 - 1.0 / u

    @staticmethod
    def d2G(u):
        u = _require_positive(u, "d2G")
        return 1.0 / u**2


# ---------------------------------------------------------------------------
# element means
# ---------------------------------------------------------------------------

DEGENERATE_REL = 1e-8  # |b - a| below this (relative) switches to the midpoint value


def mobility_mean(a, b):
    """Entropy-consistent mobility weight (b-a)/(G'(b)-G'(a)) = a*b for m = s^2.

    Closed form, stable for all positive endpoints including a == b.
    """
    a = _require_positive(a, "mobility_mean")
    b = _require_positive(b, "mobility_mean")
    return a * b


def d2F_mean(mat: Material, a, b):
    """Average of F'' over the value interval: divided difference of F'."""
    a = _require_positive(a, "d2F_mean")
    b = _require_positive(b, "d2F_mean")
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    near = np.abs(b - a) <= DEGENERATE_REL * np.maximum(a, b)
    safe_b = np.where(near, a + 1.0, b)  # avoid 0/0 on the lanes replaced below
    dd = (mat.dF(safe_b) - mat.dF(a)) / (safe_b - a)
    out = np.where(near, mat.d2F(0.5 * (a + b)), dd)
    return out if out.shape else float(out)

