import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stfe2d.material import (AssumptionError, Material, PositivityError,
                             PowerPairPotential, d2F_mean, mobility_mean)


# ---------------------------------------------------------------------------
# potential family
# ---------------------------------------------------------------------------

def test_prototype_values_at_one(mat):
    assert mat.potential_F(1.0) == pytest.approx(1.0, abs=1e-15)
    assert mat.dF(1.0) == pytest.approx(-6.0, abs=1e-13)
    assert mat.d2F(1.0) == pytest.approx(66.0, abs=1e-12)


def test_zero_strat_shift_reduces_to_prototype(mat):
    shifted = Material(strat_shift=0.0)
    for u in (0.5, 1.0, 2.0):
        assert shifted.potential_F(u) == mat.potential_F(u)
        assert shifted.dF(u) == mat.dF(u)


def test_strat_shift_modifies_derivatives():
    c = 0.7
    shifted = Material(strat_shift=c)
    base = Material()
    for u in (0.5, 1.0, 2.0):
        assert shifted.potential_F(u) == pytest.approx(
            base.potential_F(u) + c * (u - np.log(u)), rel=1e-14)
        assert shifted.dF(u) == pytest.approx(base.dF(u) + c * (1 - 1 / u), rel=1e-13)
        assert shifted.d2F(u) == pytest.approx(base.d2F(u) + c / u**2, rel=1e-13)


@pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
def test_dF_matches_central_differences(mat, u):
    step = 1e-5
    fd = (mat.potential_F(u + step) - mat.potential_F(u - step)) / (2 * step)
    assert abs(mat.dF(u) - fd) <= 1e-6 * max(1.0, abs(fd))
    fd2 = (mat.dF(u + step) - mat.dF(u - step)) / (2 * step)
    assert abs(mat.d2F(u) - fd2) <= 1e-5 * max(1.0, abs(fd2))


def test_potential_rejects_nonpositive(mat):
    with pytest.raises(PositivityError):
        mat.potential_F(0.0)
    with pytest.raises(PositivityError):
        mat.dF(np.array([1.0, -0.5]))


def test_growth_bound_scan(mat):
    # F(u) >= 0.5 u^-8 across [1e-2, 1e2], prototype and shifted variant
    us = np.logspace(-2, 2, 2001)
    assert np.all(mat.potential_F(us) >= 0.5 * us**-8.0)
    shifted = Material(strat_shift=1.3)
    assert np.all(shifted.potential_F(us) >= 0.5 * us**-8.0)


# ---------------------------------------------------------------------------
# entropy of the quadratic mobility
# ---------------------------------------------------------------------------

def test_entropy_base_point(mat):
    assert mat.entropy_G(1.0) == 0.0
    assert mat.dG(1.0) == 0.0


def test_entropy_at_two_matches_double_quadrature(mat):
    # oracle: G(2) = int_1^2 int_1^r tau^-2 dtau dr by nested quadrature
    inner = lambda r: quad(lambda tau: tau**-2, 1.0, r)[0]
    expected, _ = quad(inner, 1.0, 2.0)
    assert mat.entropy_G(2.0) == pytest.approx(expected, abs=1e-10)
    assert mat.entropy_G(2.0) == pytest.approx(1.0 - np.log(2.0), rel=1e-14)


@pytest.mark.parametrize("u", [0.1, 1.0, 10.0])
def test_d2G_is_reciprocal_mobility(mat, u):
    assert mat.d2G(u) * mat.mobility(u) == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# element means
# ---------------------------------------------------------------------------

def test_mobility_mean_degenerate_interval():
    assert mobility_mean(3.0, 3.0) == pytest.approx(9.0, rel=1e-15)
    with pytest.raises(PositivityError):
        mobility_mean(-1.0, 2.0)


def test_mobility_mean_is_reciprocal_of_averaged_d2G():
    # oracle: the entropy-consistent weight is 1 / (average of G'' over [a, b]);
    # quadrature of G''(s) = s^-2 pins the closed form a*b
    rng = np.random.default_rng(5)
    for _ in range(25):
        a, b = sorted(rng.uniform(0.05, 5.0, 2))
        mean_g2 = quad(lambda s: s**-2, a, b)[0] / (b - a) if b > a else a**-2
        assert mobility_mean(a, b) == pytest.approx(1.0 / mean_g2, rel=1e-12)
    assert mobility_mean(1.0, 2.0) == pytest.approx(2.0, rel=1e-14)


def test_d2F_mean_degenerate_and_quadrature(mat):
    assert d2F_mean(mat, 1.0, 1.0) == pytest.approx(66.0, rel=1e-13)
    # oracle: divided difference equals the quadrature average of F''
    a, b = 1.0, 2.0
    expected = quad(lambda s: mat.d2F(s), a, b)[0] / (b - a)
    assert d2F_mean(mat, a, b) == pytest.approx(expected, rel=1e-9)
    # near-degenerate falls back to the midpoint value
    val = d2F_mean(mat, 1.0, 1.0 + 1e-12)
    assert val == pytest.approx(mat.d2F(1.0 + 5e-13), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_mean_value_property(a, b):
    mat = Material()
    lo, hi = min(a, b), max(a, b)
    ss = np.linspace(lo, hi, 400)
    m = mobility_mean(a, b)
    assert lo**2 - 1e-9 <= m <= hi**2 + 1e-9
    f2 = mat.d2F(ss)
    mean_f2 = d2F_mean(mat, a, b)
    span = f2.max() - f2.min()
    assert f2.min() - 1e-9 * (1 + span) <= mean_f2 <= f2.max() + 1e-9 * (1 + span)


# ---------------------------------------------------------------------------
# structural assumptions
# ---------------------------------------------------------------------------

def test_default_parameters_satisfy_margin_inequality():
    m = Material()  # p=8, eps=1, rho=1: 0.25 + 0.5 + 0.0625 < 1
    assert 2 / m.p + m.eps / 2 + m.rho / (2 * m.p) == pytest.approx(0.8125)


def test_margin_inequality_violation_is_rejected():
    with pytest.raises(AssumptionError, match=r"\(R\) violated"):
        Material(p=2.1, eps=1.9, rho=0.01,
                 potential=PowerPairPotential(exp_high=2.1, exp_low=2.0))


def test_eps_range_and_rho_positivity():
    with pytest.raises(AssumptionError):
        Material(eps=2.5)
    with pytest.raises(AssumptionError):
        Material(rho=-1.0)
    with pytest.raises(AssumptionError):
        Material(strat_shift=-0.1)


def test_potential_exponent_gate():
    with pytest.raises(AssumptionError, match=r"\(P\) violated"):
        PowerPairPotential(exp_high=2.0)
