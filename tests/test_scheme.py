import numpy as np
import pytest

from conftest import positive_field, roll_reference_pressure, roll_reference_terms
from stfe2d import diagnostics, fem, oracle, scheme
from stfe2d.grid import Field, Grid
from stfe2d.material import Material, PositivityError, d2F_mean, mobility_mean
from stfe2d.noise import NoiseModel, NoiseWorkspace, PowerLawSchedule, basis_eval


def near_unity_field(rng, grid, amp=0.05):
    return Field(grid, 1.0 + rng.uniform(-amp, amp, (grid.ny, grid.nx)))


def edge_means(mean, v):
    """A mean of the endpoint values on the x-edges and on the y-edges."""
    return mean(v, np.roll(v, -1, axis=1)), mean(v, np.roll(v, -1, axis=0))


# ---------------------------------------------------------------------------
# edge means (material.mobility_mean on the grid's edges)
# ---------------------------------------------------------------------------

def test_mobility_edges_constant(mat, grid44):
    mob_x, mob_y = edge_means(mobility_mean, Field.constant(grid44, 1.7).values)
    assert np.allclose(mob_x, 1.7**2, rtol=1e-15)
    assert np.allclose(mob_y, 1.7**2, rtol=1e-15)


def test_mobility_single_edge_value(mat, grid44):
    v = np.ones((4, 4))
    v[2, 1] = 2.0  # edge between nodes (1,2) and (2,2) spans values 1, 2
    mob_x, _ = edge_means(mobility_mean, v)
    assert mob_x[2, 1] == pytest.approx(2.0, rel=1e-15)


def test_mobility_edges_within_square_bounds(mat, rng, grid65):
    u = positive_field(rng, grid65)
    v = u.values
    mob_x, _ = edge_means(mobility_mean, v)
    lo = np.minimum(v, np.roll(v, -1, axis=1)) ** 2
    hi = np.maximum(v, np.roll(v, -1, axis=1)) ** 2
    assert np.all(mob_x >= lo - 1e-12) and np.all(mob_x <= hi + 1e-12)
    assert np.array_equal(mob_x, mobility_mean(np.roll(v, -1, axis=1), v))  # symmetric


def test_mobility_rejects_nonpositive(mat, grid44):
    v = np.ones((4, 4))
    v[0, 0] = 0.0
    with pytest.raises(PositivityError):
        edge_means(mobility_mean, v)
    with pytest.raises(PositivityError):
        scheme.state_terms(v, mat, grid44)
    # the kernel's one scan is per replica: a zero or a NaN node of one
    # replica in a stack fails it
    stack = np.ones((3, 4, 4))
    stack[1, 2, 3] = 0.0
    with pytest.raises(PositivityError, match=r"^state_terms requires strictly positive "
                                              r"values \(min = 0\)$"):
        scheme.state_terms(stack, mat, grid44)
    stack[1, 2, 3] = np.nan
    with pytest.raises(PositivityError, match=r"\(min = nan\)$"):
        scheme.state_terms(stack, mat, grid44)


# ---------------------------------------------------------------------------
# pressure
# ---------------------------------------------------------------------------

def test_pressure_constant_film(mat, grid65):
    p = scheme.pressure_values(Field.constant(grid65, 1.0).values, mat, grid65)
    assert np.allclose(p, -6.0, rtol=1e-13)


def test_pressure_weak_form_against_dense(mat, rng):
    grid = Grid(6, 6, 1.0, 1.0)
    worst = 0.0
    for _ in range(10):
        u = near_unity_field(rng, grid)
        p = u.with_values(scheme.pressure_values(u.values, mat, grid))
        worst = max(worst, oracle.dense_weak_residual(u, p, mat))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------

def test_drift_vanishes_for_constant(mat, grid65):
    L = scheme.drift_values(Field.constant(grid65, 0.9).values, mat, grid65)
    assert np.all(L == 0.0)


def test_drift_weak_form_against_dense(mat, rng):
    grid = Grid(6, 6, 1.0, 1.0)
    worst = 0.0
    for _ in range(10):
        u = near_unity_field(rng, grid)
        worst = max(worst, oracle.dense_drift_residual(u, mat))
    assert worst <= 1e-12


def test_drift_conserves_mass(mat, rng, grid65):
    for _ in range(10):
        u = positive_field(rng, grid65)
        L = scheme.drift_values(u.values, mat, grid65)
        total = abs(L.sum()) * grid65.cell_area
        assert total <= 1e-12 * np.sqrt(fem.inner_h(L, L, grid65))


# ---------------------------------------------------------------------------
# noise operator
# ---------------------------------------------------------------------------

def test_diffusion_zero_schedule(mat, rng, grid65):
    u = positive_field(rng, grid65)
    ws = NoiseWorkspace.build(NoiseModel(PowerLawSchedule(lambda0=0.0)), grid65, mat.eps)
    wx, wy = ws.coefficient_fields(0, 0, dt=1.0)
    out = scheme.diffusion_values(u.values, grid65, wx, wy)
    assert np.all(out == 0.0)


def test_diffusion_constant_mode_on_constant_film(grid65):
    u = Field.constant(grid65, 1.3)
    w = basis_eval(0, 0, grid65).values
    out = scheme.z_apply(u.values, w, grid65, -1) + scheme.z_apply(u.values, w, grid65, -2)
    assert np.abs(out).max() <= 1e-15


def test_single_mode_matches_dense_table(rng):
    grid = Grid(6, 6, 1.0, 1.0)
    tx, ty = oracle.dense_Z_table(grid, 1, 0)
    w = basis_eval(1, 0, grid).values
    for _ in range(5):
        u = positive_field(rng, grid)
        for axis, table in ((-1, tx), (-2, ty)):
            f = scheme.z_apply(u.values, w, grid, axis)
            assert np.abs(f.ravel() - table @ u.values.ravel()).max() <= 1e-12


def test_diffusion_conserves_mass(rng, grid65):
    u = positive_field(rng, grid65)
    w = basis_eval(2, -1, grid65).values
    out = scheme.z_apply(u.values, w, grid65, -1) + scheme.z_apply(u.values, w, grid65, -2)
    assert abs(out.sum()) * grid65.cell_area <= 1e-12 * np.sqrt(fem.inner_h(out, out, grid65))


def test_diffusion_is_linear_in_coefficient_field(rng, grid65):
    # whole-mode-sum application equals the sum of per-mode applications
    u = positive_field(rng, grid65)
    w1 = basis_eval(1, 0, grid65).values
    w2 = basis_eval(0, -2, grid65).values
    c1, c2 = 0.7, -1.3
    for axis in (-1, -2):
        combined = scheme.z_apply(u.values, c1 * w1 + c2 * w2, grid65, axis)
        split = c1 * scheme.z_apply(u.values, w1, grid65, axis) \
            + c2 * scheme.z_apply(u.values, w2, grid65, axis)
        assert np.abs(combined - split).max() <= 1e-12 * max(1.0, np.abs(split).max())


# ---------------------------------------------------------------------------
# fluxes and dissipation structure
# ---------------------------------------------------------------------------

def test_fluxes_vanish_for_constant(mat, grid65):
    terms = scheme.state_terms(Field.constant(grid65, 1.1).values, mat, grid65)
    assert terms.diss_x == 0.0 and terms.diss_y == 0.0
    assert np.all(terms.drift == 0.0)


def test_dissipation_nonnegative_and_consistent(mat, rng, grid65):
    u = positive_field(rng, grid65)
    dx, dy = scheme.dissipation(u, mat)
    assert dx >= 0.0 and dy >= 0.0
    # cross-module consistency: sum of squared fluxes equals the weighted form
    p = scheme.pressure_values(u.values, mat, grid65)
    mob_x, mob_y = edge_means(mobility_mean, u.values)
    form_x = fem.dirichlet(p, p, grid65, -1, mob_x)
    form_y = fem.dirichlet(p, p, grid65, -2, mob_y)
    assert dx == pytest.approx(form_x, rel=1e-12)
    assert dy == pytest.approx(form_y, rel=1e-12)


@pytest.mark.parametrize("strat_shift", [0.0, 0.3])
def test_state_kernel_equals_the_separate_views(rng, strat_shift):
    # the kernel and every view of one state equal the np.roll reference
    mat = Material(strat_shift=strat_shift)
    grid = Grid(24, 16, 1.5, 0.8)  # hx != hy
    u = positive_field(rng, grid)
    drift, energy, entropy, diss, osc = roll_reference_terms(u.values, mat, grid)
    terms = scheme.state_terms(u.values, mat, grid)
    assert np.array_equal(terms.drift, drift)
    assert (tuple(terms.energy), terms.entropy, (terms.diss_x, terms.diss_y), terms.osc) == \
        (energy, entropy, diss, osc)
    assert (terms.mass, terms.u_min) == (diagnostics.mass(u), u.values.min())
    assert np.array_equal(scheme.drift_values(u.values, mat, grid), drift)
    assert scheme.dissipation(u, mat) == diss
    assert tuple(diagnostics.energy_h(u, mat)) == energy
    assert diagnostics.entropy_h(u, mat) == entropy
    assert diagnostics.r_functional(u, mat, 1.5, 0.7) == 1.5 + energy[3] + 0.7 * entropy
    assert diagnostics.oscillation_ratio(u) == osc


@pytest.mark.parametrize("strat_shift", [0.0, 0.3])
def test_kernel_pressure_equals_the_roll_reference(rng, strat_shift):
    # the kernel returns its pressure, for one field and for each replica of
    # a stack, and pressure_values reads it
    mat = Material(strat_shift=strat_shift)
    grid = Grid(24, 16, 1.5, 0.8)
    stack = np.stack([positive_field(rng, grid).values for _ in range(3)])
    terms = scheme.state_terms(stack, mat, grid)
    for r, u in enumerate(stack):
        p = roll_reference_pressure(u, mat, grid)
        assert np.array_equal(terms.pressure[r], p)
        assert np.array_equal(scheme.state_terms(u, mat, grid).pressure, p)
        assert np.array_equal(scheme.pressure_values(u, mat, grid), p)


def test_stacked_kernel_and_noise_equal_each_field(rng):
    # a stack of replica fields gives each field's own numbers bit for bit,
    # and the kernel's neighbor differences give the noise operator's own
    mat = Material(strat_shift=0.3)
    grid = Grid(24, 16, 1.5, 0.8)
    stack = np.stack([positive_field(rng, grid).values for _ in range(3)])
    w = rng.standard_normal((2, 3, grid.ny, grid.nx))
    terms = scheme.state_terms(stack, mat, grid)
    noise = scheme.diffusion_values(stack, grid, w[0], w[1],
                                    du_x=terms.du_x, du_y=terms.du_y)
    for r, u in enumerate(stack):
        lone = scheme.state_terms(u, mat, grid)
        assert np.array_equal(terms.drift[r], lone.drift)
        assert tuple(e[r] for e in terms.energy) == lone.energy
        assert (terms.entropy[r], terms.diss_x[r], terms.diss_y[r], terms.osc[r]) == \
            (lone.entropy, lone.diss_x, lone.diss_y, lone.osc)
        assert (terms.mass[r], terms.u_min[r]) == (lone.mass, lone.u_min) == \
            (diagnostics.mass(Field(grid, u)), u.min())
        assert np.array_equal(noise[r], scheme.diffusion_values(u, grid, w[0, r], w[1, r]))


def test_kernel_on_reused_buffers_equals_fresh_calls(rng):
    # consecutive states through one buffer set: each call equals a fresh
    # call bit for bit
    mat = Material(strat_shift=0.3)
    grid = Grid(24, 16, 1.5, 0.8)
    states = [np.stack([positive_field(rng, grid).values for _ in range(2)]) for _ in range(4)]
    bufs = scheme.Buffers(states[0].shape)
    for u in states:
        terms = scheme.state_terms(u, mat, grid, bufs)
        fresh = scheme.state_terms(u.copy(), mat, grid)
        for got, want in zip(terms, fresh):
            assert np.array_equal(np.asarray(got), np.asarray(want))


def test_state_kernel_computes_the_mesh_weight_once(mat, rng, grid65, monkeypatch):
    # h^eps weights both the curvature energy and the pressure's bilaplacian
    calls = []
    weight = scheme.mesh_weight

    def counting(*args):
        calls.append(args)
        return weight(*args)

    monkeypatch.setattr(scheme, "mesh_weight", counting)
    scheme.state_terms(positive_field(rng, grid65).values, mat, grid65)
    assert len(calls) == 1


def test_stopped_zeroes_everything(mat, rng, grid65):
    u = positive_field(rng, grid65)
    rec = diagnostics.make_record(u.values, u.grid, mat, t=0.0, stopped=True)
    assert rec.diss_x == 0.0 and rec.diss_y == 0.0


# ---------------------------------------------------------------------------
# structural identities along the drift
# ---------------------------------------------------------------------------

def test_energy_dissipation_identity(mat, rng, grid65):
    # pairing the pressure with the drift must give minus the dissipation
    for _ in range(10):
        u = positive_field(rng, grid65)
        p = scheme.pressure_values(u.values, mat, grid65)
        L = scheme.drift_values(u.values, mat, grid65)
        lhs = fem.inner_h(p, L, grid65)
        dx, dy = scheme.dissipation(u, mat)
        assert abs(lhs + dx + dy) <= 1e-10 * max(abs(lhs), dx + dy)


def test_entropy_production_identity(mat, rng, grid65):
    # the entropy variation along the drift telescopes to the Laplacian,
    # averaged-F'' gradient, and weighted curvature-gradient terms exactly
    for _ in range(10):
        u = positive_field(rng, grid65)
        L = scheme.drift_values(u.values, mat, grid65)
        lhs = fem.inner_h(mat.dG(u.values), L, grid65)
        lap_u = fem.lap(u.values, grid65)
        heps = scheme.mesh_weight(grid65, mat.eps)
        d2f_x, d2f_y = edge_means(lambda a, b: d2F_mean(mat, a, b), u.values)
        rhs = (-fem.inner_h(lap_u, lap_u, grid65)
               - fem.dirichlet(u.values, u.values, grid65, -1, d2f_x)
               - fem.dirichlet(u.values, u.values, grid65, -2, d2f_y)
               - heps * (fem.dirichlet(lap_u, lap_u, grid65, -1)
                         + fem.dirichlet(lap_u, lap_u, grid65, -2)))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_mesh_weight_rejects_coarse_units(mat):
    grid = Grid(3, 3, 6.0, 6.0)  # cells of diameter 2
    with pytest.raises(ValueError, match="mesh parameter"):
        scheme.mesh_weight(grid, mat.eps)


@pytest.mark.parametrize("ubar,mode", [(1.0, (1, 0)), (2.0, (0, 2)), (1.3, (3, 2))])
def test_drift_linearization_matches_dispersion_relation(mat, ubar, mode):
    # around a flat film the linearized drift acts on a product-cosine
    # eigenfield as multiplication by
    #   sigma = -m(ubar) * mu * (mu + F''(ubar) + h^eps mu^2),
    # with mu the (-lap_h) eigenvalue of the mode; measured by central
    # finite differences of the nonlinear drift
    grid = Grid(32, 32, 1.0, 1.0)
    x, y = grid.node_coords()
    k, l = mode
    v = (np.cos(2 * np.pi * k * x / grid.Lx)
         * np.cos(2 * np.pi * l * y / grid.Ly))
    mu = ((4 / grid.hx**2) * np.sin(np.pi * k * grid.hx / grid.Lx) ** 2
          + (4 / grid.hy**2) * np.sin(np.pi * l * grid.hy / grid.Ly) ** 2)
    heps = scheme.mesh_weight(grid, mat.eps)
    sigma = -mat.mobility(ubar) * mu * (mu + mat.d2F(ubar) + heps * mu**2)
    step = 1e-6
    diff = (scheme.drift_values(ubar + step * v, mat, grid)
            - scheme.drift_values(ubar - step * v, mat, grid)) / (2 * step)
    mask = np.abs(v) > 0.3
    measured = np.median(diff[mask] / v[mask])
    assert measured == pytest.approx(sigma, rel=1e-5)
