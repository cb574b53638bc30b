import numpy as np
import pytest

from stfe2d import fem, noise
from stfe2d.grid import Grid
from stfe2d.integrator import NoiseWorkspace
from stfe2d.material import AssumptionError
from stfe2d.noise import (NoiseConfigError, NoiseModel, PowerLawSchedule,
                          TableSchedule, b3star_monitor, basis_eval,
                          mode_keys, standard_normals, step_counter,
                          strat_constant, truncation_set)


def _trig_mode_sq(k, x, L):
    # independent re-derivation of the squared 1D basis factor
    if k >= 1:
        return (2.0 / L) * np.cos(2 * np.pi * k * x / L) ** 2
    if k == 0:
        return np.full_like(np.asarray(x, float), 1.0 / L)
    return (2.0 / L) * np.sin(2 * np.pi * k * x / L) ** 2


def brute_force_intensity(lam2_fn, cap, Lx, Ly, x, y):
    """Pointwise mode-sum of lambda^2 g^2 over all |k|,|l| <= cap."""
    total = 0.0
    for k in range(-cap, cap + 1):
        for l in range(-cap, cap + 1):
            lam2 = lam2_fn(k, l)
            if lam2:
                total += lam2 * _trig_mode_sq(k, x, Lx) * _trig_mode_sq(l, y, Ly)
    return total


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_basis_00_is_constant():
    grid = Grid(8, 8, 2.0, 0.5)
    b = basis_eval(0, 0, grid)
    assert np.allclose(b.values, 1.0 / np.sqrt(grid.Lx * grid.Ly), atol=1e-15)
    assert np.sqrt(fem.inner_h(b.values, b.values, grid)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mode", [(1, 0), (0, 1), (2, 2), (-1, 2), (-2, -1)])
def test_basis_lumped_norms_near_one(mode):
    grid = Grid(64, 64, 1.0, 1.0)
    b = basis_eval(*mode, grid)
    assert np.sqrt(fem.inner_h(b.values, b.values, grid)) == pytest.approx(1.0, abs=1e-3)


def test_basis_sign_pair_orthogonality():
    grid = Grid(64, 64, 1.0, 1.0)
    b1 = basis_eval(1, 0, grid)
    b2 = basis_eval(-1, 0, grid)
    assert abs(fem.inner_h(b1.values, b2.values, grid)) <= 1e-10


# ---------------------------------------------------------------------------
# truncation sets
# ---------------------------------------------------------------------------

def test_truncation_example():
    model = NoiseModel(PowerLawSchedule())
    modes = truncation_set(model, h=1.0 / 16, eps=1.0)
    assert len(modes) == 81
    assert max(abs(k) for k, _ in modes) == 4


def test_truncation_collapses_to_single_mode():
    model = NoiseModel(PowerLawSchedule(), trunc_C=0.5)
    modes = truncation_set(model, h=0.5, eps=1.0)  # bound = 0.5/sqrt(0.5) < 1
    assert modes == [(0, 0)]


def test_truncation_nesting_and_cap():
    model = NoiseModel(PowerLawSchedule(), mode_cap=3)
    coarse = set(truncation_set(model, 1.0 / 8, 1.0))
    fine = set(truncation_set(model, 1.0 / 64, 1.0))
    assert coarse <= fine
    assert max(abs(k) for k, _ in fine) == 3  # capped


# ---------------------------------------------------------------------------
# increments
# ---------------------------------------------------------------------------

def _draws(model, modes, step, attempt=0):
    ctr = step_counter(step, attempt)
    return (standard_normals(mode_keys(model.seed, 0, modes), ctr),
            standard_normals(mode_keys(model.seed, 1, modes), ctr))


def test_increment_determinism():
    model = NoiseModel(PowerLawSchedule(), seed=99)
    modes = truncation_set(model, 1.0 / 8, 1.0)
    ax, ay = _draws(model, modes, step=17)
    bx, by = _draws(model, modes, step=17)
    assert np.array_equal(ax, bx) and np.array_equal(ay, by)
    cx, _ = _draws(model, modes, step=18)
    assert not np.array_equal(ax, cx)
    dx, _ = _draws(model, modes, step=17, attempt=1)
    assert not np.array_equal(ax, dx)


def test_draws_are_pinned():
    # values recorded before the two components were drawn in one call;
    # any change to the keys, the counter mix or Box-Muller shows here
    keys = mode_keys(7, 0, [(1, 0), (0, 1), (-2, 3)])
    assert standard_normals(keys, step_counter(5, 2)).tolist() == [
        -0.23053132524630834, -0.932572054387061, 0.3447147335520032]
    keys = mode_keys(2**64 - 1, 1, [(0, 0), (-64, 64)])
    assert standard_normals(keys, step_counter(123456789, 63)).tolist() == [
        -0.08410306399541692, 1.3051083756163735]


def test_stacked_keys_draw_like_separate_calls():
    model = NoiseModel(PowerLawSchedule(), seed=31)
    modes = truncation_set(model, 1.0 / 8, 1.0)
    ws = NoiseWorkspace.build(model, Grid(8, 8, 1.0, 1.0), 1.0, seeds=[31, 5, 31])
    assert ws.keys.shape == (3, 2, len(modes))
    ctr = step_counter(4, 1)
    stacked = standard_normals(ws.keys, ctr)
    for r, seed in enumerate([31, 5, 31]):
        for c in (0, 1):
            assert np.array_equal(stacked[r, c],
                                  standard_normals(mode_keys(seed, c, modes), ctr))


def test_surviving_modes_unchanged_under_truncation_shrink():
    model = NoiseModel(PowerLawSchedule(), seed=4)
    big = truncation_set(model, 1.0 / 64, 1.0)
    small = truncation_set(model, 1.0 / 8, 1.0)
    big_x, big_y = _draws(model, big, step=3)
    small_x, small_y = _draws(model, small, step=3)
    index = {m: i for i, m in enumerate(big)}
    for i, m in enumerate(small):
        assert small_x[i] == big_x[index[m]]
        assert small_y[i] == big_y[index[m]]


def test_gaussian_moments_across_steps():
    dt = 0.37
    keys = mode_keys(123, 0, [(2, -1)])
    counters = step_counter(np.arange(100000), 0)
    draws = np.sqrt(dt) * standard_normals(keys, counters)
    n = draws.size
    assert abs(draws.mean()) <= 4.0 * np.sqrt(dt / n)
    assert abs(draws.var() - dt) <= 0.05 * dt


def test_mode_streams_uncorrelated():
    ctrs = step_counter(np.arange(10000), 0)
    d1 = standard_normals(mode_keys(7, 0, [(1, 0)]), ctrs)
    d2 = standard_normals(mode_keys(7, 0, [(0, 1)]), ctrs)
    d3 = standard_normals(mode_keys(7, 1, [(1, 0)]), ctrs)
    assert abs(np.corrcoef(d1, d2)[0, 1]) <= 0.05
    assert abs(np.corrcoef(d1, d3)[0, 1]) <= 0.05


def test_attempt_slot_bounds():
    with pytest.raises(ValueError):
        step_counter(3, noise.ATTEMPT_SLOTS)
    ws = NoiseWorkspace.build(NoiseModel(PowerLawSchedule()), Grid(4, 4, 1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        ws.coefficient_fields(0, 0, dt=0.0)


# ---------------------------------------------------------------------------
# schedule admissibility
# ---------------------------------------------------------------------------

def test_power_law_decay_gate():
    with pytest.raises(AssumptionError, match=r"\(B3\)"):
        PowerLawSchedule(s=2.5)
    with pytest.raises(NoiseConfigError):
        PowerLawSchedule(lambda0=-0.1)


def test_b3star_monitor_bounded_under_refinement():
    model = NoiseModel(PowerLawSchedule())
    values = [b3star_monitor(model, 1.0 / n, 1.0) for n in (8, 16, 32, 64, 128)]
    assert max(values) <= 2.0 * values[0]


def test_stratonovich_requires_symmetric_schedule():
    asym = TableSchedule.from_dict({(1, 0): (1.0, 1.0)})  # missing (-1, 0)
    with pytest.raises(NoiseConfigError, match="symmetric"):
        NoiseModel(asym, interpretation="stratonovich")
    sym = TableSchedule.from_dict({(1, 0): 1.0, (-1, 0): 1.0})
    NoiseModel(sym, interpretation="stratonovich")  # accepted


# ---------------------------------------------------------------------------
# Stratonovich constant
# ---------------------------------------------------------------------------

def test_strat_constant_zero_schedule():
    model = NoiseModel(PowerLawSchedule(lambda0=0.0))
    assert strat_constant(model, 1.0, 1.0) == 0.0


def test_strat_constant_single_constant_mode():
    model = NoiseModel(TableSchedule.from_dict({(0, 0): 1.0}))
    got = strat_constant(model, 1.0, 1.0)
    assert got == pytest.approx(1.0, abs=1e-15)
    # cross-check: the pointwise mode-sum intensity is constant and equals it
    lam2 = lambda k, l: 1.0 if (k, l) == (0, 0) else 0.0
    for x, y in ((0.13, 0.71), (0.5, 0.25)):
        assert brute_force_intensity(lam2, 1, 1.0, 1.0, x, y) == pytest.approx(got)


def test_strat_constant_four_mode_example():
    table = {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}
    model = NoiseModel(TableSchedule.from_dict(table))
    got = strat_constant(model, 1.0, 1.0)
    lam2 = lambda k, l: 1.0 if (k, l) in table else 0.0
    expected = brute_force_intensity(lam2, 2, 1.0, 1.0, 0.3, 0.8)
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(4.0, abs=1e-13)


def test_strat_constant_random_symmetric_schedules_match_mode_sum():
    rng = np.random.default_rng(11)
    for trial in range(5):
        cap = 3
        table = {}
        for k in range(0, cap + 1):
            for l in range(0, cap + 1):
                lam = float(rng.uniform(0.0, 1.0))
                for kk in {k, -k}:
                    for ll in {l, -l}:
                        table[(kk, ll)] = lam
        Lx, Ly = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        model = NoiseModel(TableSchedule.from_dict(table), mode_cap=cap)
        got = strat_constant(model, Lx, Ly)
        lam2 = lambda k, l: table.get((k, l), 0.0) ** 2
        pts = rng.uniform(0.0, 1.0, (3, 2))
        for x, y in pts:
            bf = brute_force_intensity(lam2, cap, Lx, Ly, x * Lx, y * Ly)
            assert abs(got - bf) <= 1e-14 * max(1.0, abs(got))


def test_strat_constant_rejects_asymmetric():
    asym = TableSchedule.from_dict({(1, 0): 1.0})
    model = NoiseModel(asym, interpretation="ito")
    with pytest.raises(NoiseConfigError, match="Stratonovich mode requires symmetric lambda"):
        strat_constant(model, 1.0, 1.0)


def test_ito_correction_operator_is_discrete_laplacian_multiple():
    # conservative noise with a sign-symmetric schedule: the exact
    # second-order correction operator (1/2) sum lambda^2 (Ax^2 + Ay^2) of
    # the discretized mode system collapses onto the discrete Laplacian
    from stfe2d import fem, scheme
    from stfe2d.grid import Grid

    cap = 2
    lam = {(k, l): (1.0 + k * k + l * l) ** -2.0
           for k in range(-cap, cap + 1) for l in range(-cap, cap + 1)}
    grid = Grid(12, 12, 1.0, 1.0)
    n = grid.n_nodes
    corr = np.zeros((n, n))
    for (k, l), lv in lam.items():
        w = basis_eval(k, l, grid).values
        ax = np.empty((n, n))
        ay = np.empty((n, n))
        for col in range(n):
            e = np.zeros(n)
            e[col] = 1.0
            eu = e.reshape(grid.ny, grid.nx)
            ax[:, col] = scheme.z_apply_x(eu, w, grid).ravel()
            ay[:, col] = scheme.z_apply_y(eu, w, grid).ravel()
        corr += 0.5 * lv**2 * (ax @ ax + ay @ ay)

    x, y = grid.node_coords()
    model = NoiseModel(TableSchedule.from_dict(dict(lam)), mode_cap=cap)
    intensity = strat_constant(model, 1.0, 1.0)
    for mode in ((1, 0), (1, 1)):
        u = (np.cos(2 * np.pi * mode[0] * x / grid.Lx)
             * np.cos(2 * np.pi * mode[1] * y / grid.Ly) + 0 * x)
        mu_u = (corr @ u.ravel()).reshape(grid.ny, grid.nx)
        du = fem.lap(u, grid)
        c_hat = fem.inner_h(mu_u, du, grid) / fem.inner_h(du, du, grid)
        err = mu_u - c_hat * du
        resid = np.sqrt(fem.inner_h(err, err, grid) / fem.inner_h(mu_u, mu_u, grid))
        assert resid <= 1e-12
        assert 0.0 < c_hat < intensity
