import numpy as np
import pytest

from stfe2d import fem, noise
from stfe2d.grid import Grid
from stfe2d.material import AssumptionError
from stfe2d.noise import (NoiseConfigError, NoiseModel, NoiseWorkspace, PowerLawSchedule,
                          TableSchedule, b3star_monitor, basis_eval, basis_table, mode_keys,
                          standard_normals, step_counter, strat_constant, truncation_set)


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


def test_basis_eval_is_the_product_of_table_rows():
    grid, r = Grid(24, 16, 1.5, 0.8), 5
    gx = basis_table(r, grid.hx * np.arange(grid.nx), grid.Lx)
    gy = basis_table(r, grid.hy * np.arange(grid.ny), grid.Ly)
    for k in range(-r, r + 1):
        for l in range(-r, r + 1):
            assert np.array_equal(basis_eval(k, l, grid).values, np.outer(gy[l + r], gx[k + r]))


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
    ks, ls = np.array(modes).T
    return (standard_normals(mode_keys(model.seed, 0, ks, ls), ctr),
            standard_normals(mode_keys(model.seed, 1, ks, ls), ctr))


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
    keys = mode_keys(7, 0, [1, 0, -2], [0, 1, 3])
    assert standard_normals(keys, step_counter(5, 2)).tolist() == [
        -0.23053132524630834, -0.932572054387061, 0.3447147335520032]
    keys = mode_keys(2**64 - 1, 1, [0, -64], [0, 64])
    assert standard_normals(keys, step_counter(123456789, 63)).tolist() == [
        -0.08410306399541692, 1.3051083756163735]


def test_scalar_and_array_counters_draw_the_same_numbers():
    # a run mixes its one counter in Python ints; arrays of counters take
    # the uint64 branch, and both branches draw the same numbers
    keys = mode_keys(7, np.array([[0], [1]]), [1, 0, -2, 5], [0, 1, 3, -4]).ravel()
    counters = [0, 1, 63, step_counter(123457, 5), 2**62, 2**63 - 1]
    table = standard_normals(keys[:, None], np.array(counters, dtype=np.uint64))
    for i, c in enumerate(counters):
        scalar = standard_normals(keys, c)
        assert np.array_equal(scalar, standard_normals(keys, np.array(c, dtype=np.uint64)))
        assert np.array_equal(scalar, table[:, i])


def test_stacked_keys_draw_like_separate_calls():
    model = NoiseModel(PowerLawSchedule(), seed=31)
    modes = truncation_set(model, 1.0 / 8, 1.0)
    ws = NoiseWorkspace.build(model, Grid(8, 8, 1.0, 1.0), 1.0, seeds=[31, 5, 31])
    assert ws.keys.shape == (3, 2, len(modes))
    ctr = step_counter(4, 1)
    stacked = standard_normals(ws.keys, ctr)
    ks, ls = np.array(modes).T
    for r, seed in enumerate([31, 5, 31]):
        for c in (0, 1):
            assert np.array_equal(stacked[r, c],
                                  standard_normals(mode_keys(seed, c, ks, ls), ctr))


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
    keys = mode_keys(123, 0, [2], [-1])
    counters = step_counter(np.arange(100000), 0)
    draws = np.sqrt(dt) * standard_normals(keys, counters)
    n = draws.size
    assert abs(draws.mean()) <= 4.0 * np.sqrt(dt / n)
    assert abs(draws.var() - dt) <= 0.05 * dt


def test_mode_streams_uncorrelated():
    ctrs = step_counter(np.arange(10000), 0)
    d1 = standard_normals(mode_keys(7, 0, [1], [0]), ctrs)
    d2 = standard_normals(mode_keys(7, 0, [0], [1]), ctrs)
    d3 = standard_normals(mode_keys(7, 1, [1], [0]), ctrs)
    assert abs(np.corrcoef(d1, d2)[0, 1]) <= 0.05
    assert abs(np.corrcoef(d1, d3)[0, 1]) <= 0.05


def _trig_mode(k, x, L):
    # closed form of the 1D basis factor g_k, one mode at a time
    if k >= 1:
        return np.sqrt(2.0 / L) * np.cos(2.0 * np.pi * k * x / L)
    if k == 0:
        return np.full_like(x, 1.0 / np.sqrt(L))
    return np.sqrt(2.0 / L) * np.sin(2.0 * np.pi * k * x / L)


def _per_mode_workspace(model, grid, eps, seeds):
    """keys, lam, gx, gy of a workspace, built one mode at a time."""
    modes = truncation_set(model, grid.h, eps)
    r = max(k for k, _ in modes)
    sched = model.schedule
    if isinstance(sched, PowerLawSchedule):
        lam = [(v, v) for v in (sched.lambda0 * (1.0 + k * k + l * l) ** (-sched.s / 2.0)
                                for k, l in modes)]
    else:
        lam = [dict(sched.table).get(m, (0.0, 0.0)) for m in modes]
    keys = np.array([[[mode_keys(seed, c, k, l) for k, l in modes] for c in (0, 1)]
                     for seed in ([model.seed] if seeds is None else seeds)])
    x = grid.hx * np.arange(grid.nx)
    y = grid.hy * np.arange(grid.ny)
    return (keys[0] if seeds is None else keys, np.array(lam).T,
            np.array([_trig_mode(k, x, grid.Lx) for k in range(-r, r + 1)]),
            np.array([_trig_mode(l, y, grid.Ly) for l in range(-r, r + 1)]))


_ASYMMETRIC_TABLE = TableSchedule.from_dict({
    (1, 0): (0.5, 0.25), (-1, 0): 0.3, (0, 2): (0.1, 0.7), (2, -1): (0.0, 0.4),
    (9, 9): 1.0, (-50, 3): 2.0, (3, 40): (0.2, 0.1)})


@pytest.mark.parametrize("model, grid, seeds", [
    # radius 16: np.power differs from pow on some of these modes
    (NoiseModel(PowerLawSchedule(), trunc_C=4.0, seed=0), Grid(16, 16, 1.0, 1.0), None),
    (NoiseModel(PowerLawSchedule(), trunc_C=2.0), Grid(16, 16, 1.0, 1.0), [0, 2**64 - 1, 7]),
    (NoiseModel(PowerLawSchedule(0.3, 3.5), trunc_C=4.0, seed=2**64 - 1),
     Grid(24, 16, 1.5, 0.8), None),
    (NoiseModel(_ASYMMETRIC_TABLE, trunc_C=1.0), Grid(24, 16, 1.5, 0.8), [3, 1, 4]),
])
def test_workspace_build_equals_per_mode_reference(model, grid, seeds):
    ws = NoiseWorkspace.build(model, grid, 1.0, seeds)
    keys, lam, gx, gy = _per_mode_workspace(model, grid, 1.0, seeds)
    assert ws.keys.dtype == np.uint64 and ws.keys.shape == keys.shape
    assert (ws.keys == keys).all()
    for got, want in ((ws.lam, lam), (ws.gx, gx), (ws.gy, gy)):
        assert got.shape == want.shape and (got == want).all()


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


@pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
def test_table_schedule_checks_its_entries_when_constructed(bad):
    # not only from_dict: a table built directly is checked too
    with pytest.raises(NoiseConfigError, match=r"mode \(1, 0\)"):
        TableSchedule((((1, 0), (bad, 0.0)),))
    with pytest.raises(NoiseConfigError, match=r"mode \(0, 2\)"):
        NoiseModel(TableSchedule((((1, 0), (0.5, 0.5)), ((0, 2), (0.5, bad)))))


def test_b3star_monitor_bounded_under_refinement():
    model = NoiseModel(PowerLawSchedule())
    values = [b3star_monitor(model, 1.0 / n, 1.0) for n in (8, 16, 32, 64, 128)]
    assert max(values) <= 2.0 * values[0]


def test_stratonovich_requires_symmetric_schedule():
    asym = TableSchedule.from_dict({(1, 0): (1.0, 1.0)})  # missing (-1, 0)
    with pytest.raises(NoiseConfigError, match="symmetric"):
        strat_constant(NoiseModel(asym), 1.0, 1.0)
    sym = TableSchedule.from_dict({(1, 0): 1.0, (-1, 0): 1.0})
    assert strat_constant(NoiseModel(sym), 1.0, 1.0) == 2.0  # g_1^2 + g_-1^2 on the unit square
    # the model is Ito-only: a Stratonovich run is asked for through the
    # material's shift, so no model can carry the interpretation and lose it
    with pytest.raises(TypeError):
        NoiseModel(sym, interpretation="stratonovich")


def _symmetric_by_scan(table):
    # every entry and every mirror of one: component-equal and equal to its
    # (-k, l) and (k, -l) mirrors, an absent mode reading (0, 0)
    d = dict(table)
    modes = set(d) | {(-k, l) for k, l in d} | {(k, -l) for k, l in d}
    at = lambda k, l: d.get((k, l), (0.0, 0.0))
    return all(at(k, l)[0] == at(k, l)[1] and at(-k, l) == at(k, l) == at(k, -l)
               for k, l in modes)


def test_table_symmetry_equals_a_scan_of_every_mirror():
    rng = np.random.default_rng(17)
    seen = []
    for _ in range(3000):
        # a sign-symmetric table, then up to two entries set, dropped or split
        table = {}
        for k, l in rng.integers(0, 3, (rng.integers(0, 4), 2)).tolist():
            lam = float(rng.choice([0.0, 0.5, 1.0]))
            table.update({(sk * k, sl * l): (lam, lam) for sk in (1, -1) for sl in (1, -1)})
        for k, l in rng.integers(-2, 3, (rng.integers(0, 3), 2)).tolist():
            lx, ly = rng.choice([0.0, 0.5, 1.0], 2).tolist()
            if rng.random() < 0.3:
                table.pop((k, l), None)
            else:
                table[(k, l)] = (lx, lx if rng.random() < 0.5 else ly)
        sched = TableSchedule.from_dict(table)
        seen.append(sched.symmetric)
        assert sched.symmetric == _symmetric_by_scan(sched.table), table
    assert 0.2 < np.mean(seen) < 0.8


def test_table_entries_outside_the_square_are_dropped():
    big = 10**20  # beyond int64
    sched = TableSchedule.from_dict({(big, 0): 0.1, (-big, 0): 0.1, (1, -1): (0.2, 0.3)})
    lam = sched.lambda_table(1)
    assert lam.shape == (2, 3, 3)
    assert lam[:, 2, 0].tolist() == [0.2, 0.3] and lam.sum() == 0.5
    assert sched.symmetric is False
    assert TableSchedule.from_dict({(big, 0): 0.1, (-big, 0): 0.1}).symmetric


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


def test_strat_constant_is_pinned():
    # values of the mode-by-mode sum of Python floats, in (k, l) order
    sym = TableSchedule.from_dict({(k, l): 1.0 / (1 + abs(k) + 2 * abs(l))
                                   for k in range(-3, 4) for l in range(-3, 4)})
    for schedule, expected in ((PowerLawSchedule(), 0.010949989354842708),
                               (PowerLawSchedule(0.3, 3.5), 0.1106646414018928),
                               (sym, 2.598748635256571)):
        assert strat_constant(NoiseModel(schedule), 1.5, 0.8) == expected


def test_strat_constant_rejects_asymmetric():
    asym = TableSchedule.from_dict({(1, 0): 1.0})
    model = NoiseModel(asym)
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
            ax[:, col] = scheme.z_apply(eu, w, grid, -1).ravel()
            ay[:, col] = scheme.z_apply(eu, w, grid, -2).ravel()
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_stratonovich_shift_drift_is_the_ito_correction_of_the_noise():
    # the drift that the potential shift C (u - log u) adds must equal the
    # Ito-Stratonovich drift 1/2 sum_m sum_c Z_c(Z_c(u; lambda_c g_m); lambda_c g_m)
    # of the simulated noise, up to O(h^2); C is summed over the active modes
    from stfe2d import scheme
    from stfe2d.material import Material

    grid = Grid(64, 64, 1.0, 1.0)
    mat = Material()
    model = NoiseModel(PowerLawSchedule(0.1, 4.0), trunc_C=1.0)
    r = noise.truncation_radius(model, grid.h, mat.eps)
    active = NoiseModel(model.schedule, trunc_C=1.0, mode_cap=r)
    x, y = grid.node_coords()
    u = (1.0 + 0.3 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
         + 0.1 * np.sin(4 * np.pi * y))
    shifted = Material(strat_shift=strat_constant(active, grid.Lx, grid.Ly))
    shift_drift = scheme.drift_values(u, shifted, grid) - scheme.drift_values(u, mat, grid)

    lam = model.schedule.lambda_table(r)
    correction = np.zeros_like(u)
    for k, l in truncation_set(model, grid.h, mat.eps):
        g = basis_eval(k, l, grid).values
        for c, axis in enumerate((-1, -2)):
            w = lam[c, k + r, l + r] * g
            z = scheme.z_apply(u, w, grid, axis)
            correction += 0.5 * scheme.z_apply(z, w, grid, axis)
    assert np.abs(shift_drift - correction).max() <= 0.05 * np.abs(correction).max()
