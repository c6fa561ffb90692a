"""Time stepper: capillary force, Allen-Cahn step, momentum step, coupling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsac.certificates import AUDIT_TOL
from nsac.diagnostics import (
    check_max_principle,
    dissipation_rates,
    energy_trace,
    max_principle_bounds,
    total_energy,
)
from nsac.experiments import bubble_concentration, simulate
from nsac.grid import (
    FaceVectorField,
    ScalarField,
    _axslice,
    divergence,
    enforce_dirichlet,
    gradient,
    laplacian,
    make_grid,
)
from nsac.potential import DoubleWell
from nsac.solver import (
    CFLError,
    FluidParams,
    NumericalError,
    State,
    _basis,
    _spectral_solve,
    advect_scalar,
    advection_term,
    advective_cfl,
    allen_cahn_step,
    capillary_force,
    make_state,
    momentum_step,
    solve_neumann_poisson,
    step,
)
from standard_layout import _component_laplacian, copy_state

WELL = DoubleWell()
PARAMS = FluidParams(nu=0.01, eps=0.05)
DT = 2.5e-4


def stream_function_velocity(grid, amplitude=1.0):
    """Discretely divergence-free velocity from a node-sampled streamfunction."""
    x = grid.face_coords(0)
    y = grid.face_coords(1)
    psi = amplitude * np.sin(np.pi * x)[:, None] ** 2 * np.sin(np.pi * y)[None, :] ** 2 / np.pi
    ux = np.diff(psi, axis=1) / grid.h[1]
    uy = -np.diff(psi, axis=0) / grid.h[0]
    return enforce_dirichlet(FaceVectorField(grid, [ux, uy]))


def test_fluid_params_validation():
    with pytest.raises(ValueError):
        FluidParams(nu=0.0, eps=0.05)
    with pytest.raises(ValueError):
        FluidParams(nu=0.01, eps=-1.0)


def _capillary(c):
    return capillary_force(gradient(c), laplacian(c), PARAMS.eps)


def test_capillary_force_constant_and_linear():
    grid = make_grid(2, (16, 16), (1, 1))
    c = ScalarField(grid, np.full(grid.n, 0.7))
    f = _capillary(c)
    assert all(np.all(comp == 0.0) for comp in f.components)
    x = grid.cell_centers(0)
    c = ScalarField(grid, np.broadcast_to(x[:, None], grid.n).copy())
    f = _capillary(c)
    # linear c is harmonic: lap(c) = 0 away from the Neumann walls
    assert np.allclose(f.components[0][2:-2, :], 0.0, atol=1e-12)
    assert np.allclose(f.components[1][:, 2:-2], 0.0, atol=1e-12)


def test_capillary_force_quadratic_profile():
    grid = make_grid(2, (32, 32), (1, 1))
    x = grid.cell_centers(0)
    c = ScalarField(grid, np.broadcast_to(x[:, None] ** 2, grid.n).copy())
    f = _capillary(c)
    xf = grid.face_coords(0)
    # interior: lap = 2, grad = 2 x_face, so f_x = -eps * 4 x
    expected = -4.0 * PARAMS.eps * xf[2:-2]
    assert np.allclose(f.components[0][2:-2, :], expected[:, None], rtol=1e-11)
    assert np.allclose(f.components[1][:, 2:-2], 0.0, atol=1e-12)


def test_allen_cahn_fixed_point_at_minimizer():
    grid = make_grid(2, (16, 16), (1, 1))
    state = make_state(grid)
    state.c.values[:] = WELL.y1
    c_new, material = allen_cahn_step(state, WELL, PARAMS, DT)
    assert np.allclose(c_new.values, WELL.y1, atol=1e-13)
    assert np.allclose(material.values, 0.0, atol=1e-10)


def test_allen_cahn_uniform_matches_scalar_update():
    grid = make_grid(2, (16, 16), (1, 1))
    state = make_state(grid)
    state.c.values[:] = 0.5
    c_new, _ = allen_cahn_step(state, WELL, PARAMS, DT)
    sigma = WELL.L / (2 * PARAMS.eps)
    expected = (0.5 / DT - WELL.eval_Fprime(0.5) / PARAMS.eps + sigma * 0.5) / (
        1.0 / DT + sigma
    )
    assert np.allclose(c_new.values, expected, rtol=1e-12)
    assert np.ptp(c_new.values) == 0.0


def test_allen_cahn_step_consistency_residual():
    # the implicit solve is exact: it satisfies its own equation to roundoff
    grid = make_grid(2, (24, 24), (1, 1))
    rng = np.random.default_rng(20)
    state = make_state(grid)
    state.c.values[:] = 0.3 * np.cos(np.pi * grid.cell_centers(0))[:, None] + 0.05 * rng.standard_normal(grid.n)
    c_new, material = allen_cahn_step(state, WELL, PARAMS, DT)
    sigma = WELL.L / (2 * PARAMS.eps)
    resid = (
        PARAMS.eps * laplacian(c_new).values
        - WELL.eval_Fprime(state.c.values) / PARAMS.eps
        - sigma * (c_new.values - state.c.values)
        - material.values
    )
    assert np.max(np.abs(resid)) < 1e-12


def test_allen_cahn_first_order_in_time():
    grid = make_grid(2, (16, 16), (1, 1))
    x = grid.cell_centers(0)
    y = grid.cell_centers(1)
    c0 = 0.4 * np.cos(np.pi * x)[:, None] * np.cos(np.pi * y)[None, :]

    def advance(dt, nsteps):
        state = make_state(grid)
        state.c.values[:] = c0
        for _ in range(nsteps):
            c_new, _ = allen_cahn_step(state, WELL, PARAMS, dt)
            state.c = c_new
        return state.c.values

    T = 8e-3
    ref = advance(T / 128, 128)
    errors = [np.max(np.abs(advance(T / n, n) - ref)) for n in (8, 16, 32)]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert 0.8 <= order <= 1.3


def test_momentum_rest_state_stays_at_rest():
    grid = make_grid(2, (16, 16), (1, 1))
    state = make_state(grid)
    state.c.values[:] = 1.0
    new_state, p, _ = momentum_step(state, state.c, PARAMS, DT)
    assert all(np.all(c == 0.0) for c in new_state.u.components)
    assert np.allclose(p.values, 0.0, atol=1e-12)


def test_momentum_projection_divergence():
    grid = make_grid(2, (32, 32), (1, 1))
    rng = np.random.default_rng(21)
    comps = [0.3 * rng.standard_normal(grid.face_shape(a)) for a in range(2)]
    state = make_state(grid, u=enforce_dirichlet(FaceVectorField(grid, comps)))
    state.c.values[:] = 1.0
    new_state, _, _ = momentum_step(state, state.c, PARAMS, DT)
    umax = max(np.max(np.abs(c)) for c in new_state.u.components)
    tol = 1e-8 * (1.0 + umax / min(grid.h))
    assert np.max(np.abs(divergence(new_state.u).values)) <= tol


def test_momentum_projection_divergence_3d():
    grid = make_grid(3, (8, 10, 12), (1, 1, 1))
    rng = np.random.default_rng(23)
    comps = [0.3 * rng.standard_normal(grid.face_shape(a)) for a in range(3)]
    state = make_state(grid, u=enforce_dirichlet(FaceVectorField(grid, comps)))
    state.c.values[:] = 1.0
    new_state, _, _ = momentum_step(state, state.c, PARAMS, DT)
    umax = max(np.max(np.abs(c)) for c in new_state.u.components)
    tol = 1e-8 * (1.0 + umax / min(grid.h))
    assert np.max(np.abs(divergence(new_state.u).values)) <= tol


def test_momentum_vortex_kinetic_energy_decreases():
    from nsac.diagnostics import kinetic_energy

    grid = make_grid(2, (32, 32), (1, 1))
    state = make_state(grid, u=stream_function_velocity(grid, 0.5))
    state.c.values[:] = 1.0
    energies = [kinetic_energy(state.u)]
    for _ in range(5):
        state, _ = step(state, WELL, PARAMS, DT)
        energies.append(kinetic_energy(state.u))
    assert all(b < a for a, b in zip(energies, energies[1:]))


def _random_velocity(grid, rng, scale=1.0):
    comps = [scale * rng.standard_normal(grid.face_shape(a)) for a in range(grid.dim)]
    return enforce_dirichlet(FaceVectorField(grid, comps))


def test_advection_term_is_exactly_skew():
    # a solenoidal 2-D field, and a random 3-D one: only the pinned walls matter
    grid3 = make_grid(3, (8, 10, 12), (1.0, 1.25, 1.5))
    for u in (
        stream_function_velocity(make_grid(2, (24, 24), (1, 1)), 0.8),
        _random_velocity(grid3, np.random.default_rng(7), 0.5),
    ):
        grid = u.grid
        adv = advection_term(u)
        total = sum(
            float(np.sum(adv.components[a] * u.components[a])) for a in range(grid.dim)
        ) * grid.cell_volume
        assert abs(total) < 1e-15


def _node_grid_advection(u):
    """Reference: half divergence form plus half advective form on node grids.

    Each transverse product is formed on the a/b edge grid padded with the
    wall values (0 for averages, antisymmetric ghosts for derivatives).
    """
    grid = u.grid
    dim = grid.dim

    def avg(arr, axis):
        return 0.5 * (arr[_axslice(arr.ndim, axis, slice(None, -1))]
                      + arr[_axslice(arr.ndim, axis, slice(1, None))])

    def padded(interior, axis):
        shape = list(interior.shape)
        shape[axis] += 2
        out = np.zeros(shape)
        out[_axslice(dim, axis, slice(1, -1))] = interior
        return out

    comps = []
    for a in range(dim):
        ua = u.components[a]
        acc = np.zeros_like(ua)
        for b in range(dim):
            hb = grid.h[b]
            if b == a:
                uc = avg(ua, a)
                inner = _axslice(dim, a, slice(1, -1))
                acc[inner] += 0.5 * np.diff(uc * uc, axis=a) / hb
                acc[inner] += 0.5 * avg(uc * np.diff(ua, axis=a) / hb, a)
            else:
                ub_nodes = padded(avg(u.components[b], a), a)
                ua_nodes = padded(avg(ua, b), b)
                dua_nodes = padded(np.diff(ua, axis=b) / hb, b)
                dua_nodes[_axslice(dim, b, 0)] = 2.0 * ua[_axslice(dim, b, 0)] / hb
                dua_nodes[_axslice(dim, b, -1)] = -2.0 * ua[_axslice(dim, b, -1)] / hb
                acc += 0.5 * np.diff(ub_nodes * ua_nodes, axis=b) / hb
                acc += 0.5 * avg(ub_nodes * dua_nodes, b)
        acc[_axslice(dim, a, 0)] = 0.0
        acc[_axslice(dim, a, -1)] = 0.0
        comps.append(acc)
    return comps


@st.composite
def boxes(draw, top2=24):
    dim = draw(st.sampled_from((2, 3)))
    top = top2 if dim == 2 else 10
    n = draw(st.lists(st.integers(4, top), min_size=dim, max_size=dim))
    length = draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    return make_grid(dim, n, length)


@settings(max_examples=40, deadline=None)
@given(grid=boxes(), seed=st.integers(0, 2**32 - 1))
def test_advection_term_matches_node_grid_form(grid, seed):
    # random, non-solenoidal fields: the collapse needs only the pinned walls
    u = _random_velocity(grid, np.random.default_rng(seed))
    want = _node_grid_advection(u)
    got = advection_term(u).components
    scale = max(np.max(np.abs(w)) for w in want)
    assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) <= 1e-13 * scale


def _reference_step(state, well, params, dt, source_c=None, source_u=None):
    """One step composed the straightforward way: lap c from ``laplacian``,
    full-size viscous right-hand sides, and the projection through a
    ``gradient(p)`` field. Returns the new state, the pressure, the material
    derivative and the CFL number."""
    grid, dim, eps = state.grid, state.grid.dim, params.eps
    c = state.c
    adv = advect_scalar(state.u, gradient(c)).values
    rhs = eps * laplacian(c).values - adv - well.eval_Fprime(c.values) / eps
    if source_c is not None:
        rhs = rhs + source_c.values
    sigma = well.L / (2.0 * eps)
    delta = _spectral_solve(grid, rhs, ("neumann",) * dim, 1.0 / dt + sigma, eps)
    c_new = ScalarField(grid, c.values + delta)
    material = (c_new.values - c.values) / dt + adv

    cfl = advective_cfl(state.u, dt)
    adv_u = advection_term(state.u)
    force = capillary_force(gradient(c_new), laplacian(c_new), eps)
    star = []
    for a in range(dim):
        rhs = state.u.components[a] / dt - adv_u.components[a] + force.components[a]
        if source_u is not None:
            rhs = rhs + source_u.components[a]
        interior = _axslice(dim, a, slice(1, -1))
        kinds = tuple("wall" if b == a else "ghost" for b in range(dim))
        sol = np.zeros_like(rhs)
        sol[interior] = _spectral_solve(grid, rhs[interior], kinds, 1.0 / dt, 0.5 * params.nu)
        star.append(sol)
    rhs_p = divergence(FaceVectorField(grid, star)).values / dt
    p = solve_neumann_poisson(grid, rhs_p - rhs_p.mean())
    gp = gradient(ScalarField(grid, p))
    u_new = FaceVectorField(grid, [star[a] - dt * gp.components[a] for a in range(dim)])
    return State(state.t + dt, u_new, c_new), ScalarField(grid, p), material, cfl


def _assert_walls_zero(v):
    for a, comp in enumerate(v.components):
        assert np.all(comp[_axslice(v.grid.dim, a, 0)] == 0.0)
        assert np.all(comp[_axslice(v.grid.dim, a, -1)] == 0.0)


@settings(max_examples=30, deadline=None)
@given(
    grid=boxes(top2=32),
    seed=st.integers(0, 2**32 - 1),
    sources=st.booleans(),
    dt=st.sampled_from((1e-4, 3e-4, 1e-3)),
)
def test_step_matches_reference_composition(grid, seed, sources, dt):
    rng = np.random.default_rng(seed)
    state = make_state(grid, u=_random_velocity(grid, rng, 0.25))
    state.c.values[:] = rng.uniform(-1.0, 1.0, grid.n)
    source_c = source_u = None
    if sources:
        source_c = ScalarField(grid, rng.standard_normal(grid.n))
        source_u = FaceVectorField(grid, [rng.standard_normal(grid.face_shape(a))
                                          for a in range(grid.dim)])
    ref = copy_state(state)

    def umax(v):
        return max(np.max(np.abs(comp)) for comp in v.components)

    def close(got, want, floor=0.0):
        return np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), floor)

    for _ in range(5):
        u_before = umax(ref.u)
        ref, ref_p, ref_material, ref_cfl = _reference_step(ref, WELL, PARAMS, dt, source_c,
                                                            source_u)
        state, report = step(state, WELL, PARAMS, dt, source_c, source_u)
        assert state.t == ref.t
        assert close(state.c.values, ref.c.values)
        assert all(close(got, want) for got, want in zip(state.u.components, ref.u.components))
        # the projection subtracts dt*grad(p), so a roundoff of 1e-12*|u| in u*
        # is a roundoff of 1e-12*|u|*h/dt in p, however small p itself is
        p_floor = max(u_before, umax(ref.u)) * min(grid.h) / dt
        assert close(report.pressure.values, ref_p.values, p_floor)
        assert close(report.material_derivative.values, ref_material)
        assert abs(report.cfl - ref_cfl) <= 1e-12 * ref_cfl
        grad_c, lap_c = state.carried()
        # no constructor pins walls: each operator must build its field walled
        _assert_walls_zero(state.u)
        _assert_walls_zero(grad_c)
        _assert_walls_zero(gradient(state.c))
        _assert_walls_zero(advection_term(state.u))
        _assert_walls_zero(capillary_force(grad_c, lap_c, PARAMS.eps))
        assert np.array_equal(lap_c.values, divergence(gradient(state.c)).values)


def test_cfl_guard_rejects_fast_flow():
    grid = make_grid(2, (16, 16), (1, 1))
    comps = [np.full(grid.face_shape(a), 200.0) for a in range(2)]
    state = make_state(grid, u=enforce_dirichlet(FaceVectorField(grid, comps)))
    state.c.values[:] = 1.0
    with pytest.raises(CFLError):
        momentum_step(state, state.c, PARAMS, DT)


def test_step_equilibrium_is_stationary():
    grid = make_grid(2, (16, 16), (1, 1))
    state = make_state(grid)
    state.c.values[:] = WELL.y2
    new_state, report = step(state, WELL, PARAMS, DT)
    assert new_state.t == pytest.approx(DT)
    assert np.allclose(new_state.c.values, WELL.y2, atol=1e-13)
    assert all(np.all(c == 0.0) for c in new_state.u.components)
    assert np.allclose(report.material_derivative.values, 0.0, atol=1e-10)


def test_step_deterministic():
    grid = make_grid(2, (16, 16), (1, 1))
    rng = np.random.default_rng(22)
    c0 = rng.uniform(-0.05, 0.05, grid.n)

    def run():
        state = make_state(grid, u=stream_function_velocity(grid, 0.3))
        state.c.values[:] = c0
        for _ in range(3):
            state, report = step(state, WELL, PARAMS, DT)
        return state, report

    (a, ra), (b, rb) = run(), run()
    assert np.array_equal(a.c.values, b.c.values)
    assert np.array_equal(ra.pressure.values, rb.pressure.values)
    for ca, cb in zip(a.u.components, b.u.components):
        assert np.array_equal(ca, cb)


def test_step_energy_decreases_for_bubble():
    grid = make_grid(2, (64, 64), (1, 1))
    state = make_state(grid)
    X = grid.cell_centers(0)[:, None]
    Y = grid.cell_centers(1)[None, :]
    r = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)
    state.c.values[:] = np.tanh((0.25 - r) / (np.sqrt(2) * PARAMS.eps))
    e0 = total_energy(state, WELL, PARAMS).total
    prev = e0
    for _ in range(10):
        state, _ = step(state, WELL, PARAMS, DT)
        e = total_energy(state, WELL, PARAMS).total
        assert e <= prev + 1e-8 * e0
        prev = e


def test_reflection_symmetry_preserved():
    grid = make_grid(2, (32, 32), (1, 1))
    state = make_state(grid)
    X = grid.cell_centers(0)[:, None]
    Y = grid.cell_centers(1)[None, :]
    r = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)
    state.c.values[:] = np.tanh((0.2 - r) / (np.sqrt(2) * PARAMS.eps))
    for _ in range(20):
        state, _ = step(state, WELL, PARAMS, DT)
    assert np.max(np.abs(state.c.values - state.c.values[::-1, :])) < 1e-10
    assert np.max(np.abs(state.u.components[0] + state.u.components[0][::-1, :])) < 1e-10
    assert np.max(np.abs(state.u.components[1] - state.u.components[1][::-1, :])) < 1e-10


def test_pressure_zero_mean():
    grid = make_grid(2, (32, 32), (1, 1))
    state = make_state(grid, u=stream_function_velocity(grid, 0.5))
    state.c.values[:] = 1.0
    _, report = step(state, WELL, PARAMS, DT)
    assert abs(report.pressure.values.mean()) < 1e-12


def test_three_dimensional_step_runs():
    grid = make_grid(3, (8, 8, 8), (1, 1, 1))
    state = make_state(grid)
    state.c.values[:] = 0.4
    state, report = step(state, WELL, PARAMS, DT)
    assert np.ptp(state.c.values) == 0.0
    umax = max(np.max(np.abs(c)) for c in state.u.components)
    assert umax == 0.0


def test_three_dimensional_bubble_keeps_its_certificates():
    """A 12^3 bubble at rest, stepped through ``simulate``: the capillary force
    sets it moving, and every step keeps the maximum principle, the energy
    inequality, a discretely divergence-free velocity and no-slip walls."""
    grid = make_grid(3, (12, 12, 12), (1.0, 1.0, 1.0))
    state = make_state(grid)
    state.c.values[:] = bubble_concentration(grid, PARAMS.eps)
    bounds = max_principle_bounds(state.c, WELL)
    dt = 1e-3
    rows = [(*total_energy(state, WELL, PARAMS), 0.0, 0.0)]
    for state, report in simulate(state, WELL, PARAMS, dt, 20):
        check_max_principle(state, bounds, len(rows))
        rows.append((*total_energy(state, WELL, PARAMS), *dissipation_rates(state, report, PARAMS)))
        assert np.max(np.abs(divergence(state.u).values)) <= 1e-12
        _assert_walls_zero(state.u)
    assert len(rows) == 21
    assert energy_trace(rows, dt).audit <= AUDIT_TOL
    assert max(np.max(np.abs(c)) for c in state.u.components) > 0.0


def _stirred_bubble(n=24):
    grid = make_grid(2, (n, n), (1, 1))
    state = make_state(grid, u=stream_function_velocity(grid, 0.5))
    X = grid.cell_centers(0)[:, None]
    Y = grid.cell_centers(1)[None, :]
    r = np.sqrt((X - 0.4) ** 2 + (Y - 0.55) ** 2)
    state.c.values[:] = np.tanh((0.2 - r) / (np.sqrt(2) * PARAMS.eps))
    return state


def _assert_states_equal(a, b, pa, pb):
    assert a.t == b.t
    assert np.array_equal(a.c.values, b.c.values)
    assert np.array_equal(pa.values, pb.values)
    for ca, cb in zip(a.u.components, b.u.components):
        assert np.array_equal(ca, cb)


def test_carried_derivatives_are_bitwise_reuse():
    carried = fresh = _stirred_bubble()
    for _ in range(6):
        carried, rep = step(carried, WELL, PARAMS, DT)
        # a copy drops the carry, so this run recomputes grad c and lap c
        fresh, rep_fresh = step(copy_state(fresh), WELL, PARAMS, DT)
        assert carried.carried() is not None and copy_state(fresh).carried() is None
        _assert_states_equal(carried, fresh, rep.pressure, rep_fresh.pressure)
        assert np.array_equal(rep.material_derivative.values,
                              rep_fresh.material_derivative.values)
        assert total_energy(carried, WELL, PARAMS) == total_energy(copy_state(fresh), WELL, PARAMS)


def test_carry_is_released_by_the_next_step():
    state, _ = step(_stirred_bubble(), WELL, PARAMS, DT)
    assert state.carried() is not None
    step(state, WELL, PARAMS, DT)
    assert state.carry is None


def test_rebinding_c_makes_the_step_recompute():
    state, _ = step(_stirred_bubble(), WELL, PARAMS, DT)
    state.c = ScalarField(state.grid, 0.9 * state.c.values)
    assert state.carried() is None
    want, want_report = step(copy_state(state), WELL, PARAMS, DT)
    got, got_report = step(state, WELL, PARAMS, DT)
    _assert_states_equal(got, want, got_report.pressure, want_report.pressure)


def test_stepped_concentration_is_read_only():
    state, _ = step(_stirred_bubble(), WELL, PARAMS, DT)
    with pytest.raises(ValueError, match="read-only"):
        state.c.values[3, 4] = 0.0
    grad_c, lap_c = state.carried()
    with pytest.raises(ValueError, match="read-only"):
        lap_c.values[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        grad_c.components[0][1, 0] = 0.0
    # a copy is the caller's to write
    copy = copy_state(state)
    copy.c.values[3, 4] = 0.0


def test_stepped_buffers_refuse_writes():
    state, _ = step(_stirred_bubble(), WELL, PARAMS, DT)
    with pytest.raises(ValueError, match="read-only"):
        state.c.padded()[3, 4] = 0.0
    grad_c, lap_c = state.carried()
    with pytest.raises(ValueError, match="read-only"):
        grad_c.padded()[0, 1, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        lap_c.padded()[0, 0] = 0.0
    # so the carry is still what a fresh pass over c computes
    fresh = gradient(state.c)
    assert all(np.array_equal(got, want) for got, want in zip(grad_c.components, fresh.components))
    assert np.array_equal(lap_c.values, divergence(fresh).values)


def test_non_finite_concentration_stops_the_step():
    grid = make_grid(2, (16, 16), (1, 1))
    state = make_state(grid)
    state.c.values[:] = 0.4
    state.c.values[3, 5] = np.nan
    # the spectral solve spreads the NaN over every cell, so the first is (0, 0)
    with pytest.raises(NumericalError, match=r"non-finite c at t=0.00025, index \(0, 0\)"):
        step(state, WELL, PARAMS, DT)


def test_non_finite_velocity_stops_the_step():
    grid = make_grid(2, (16, 16), (1, 1))
    state = make_state(grid, u=stream_function_velocity(grid, 0.3))
    state.u.components[1][4, 7] = np.nan
    with pytest.raises(NumericalError):
        step(state, WELL, PARAMS, DT)


@st.composite
def grids(draw):
    dim = draw(st.sampled_from((2, 3)))
    n = draw(st.lists(st.integers(4, 48), min_size=dim, max_size=dim))
    return make_grid(dim, n, (1.0,) * dim)


@settings(max_examples=25, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2**32 - 1))
def test_spectral_solves_are_exact(grid, seed):
    # all three implicit solves, checked against the operators they invert
    rng = np.random.default_rng(seed)
    dim = grid.dim

    def rel(resid, rhs):
        return np.max(np.abs(resid)) / np.max(np.abs(rhs))

    shift = 1.0 / DT + WELL.L / (2 * PARAMS.eps)
    rhs = rng.standard_normal(grid.n)
    x = _spectral_solve(grid, rhs, ("neumann",) * dim, shift, PARAMS.eps)
    resid = shift * x - PARAMS.eps * laplacian(ScalarField(grid, x)).values - rhs
    assert rel(resid, rhs) <= 1e-13

    for a in range(dim):
        interior = _axslice(dim, a, slice(1, -1))
        kinds = tuple("wall" if b == a else "ghost" for b in range(dim))
        rhs = np.zeros(grid.face_shape(a))
        rhs[interior] = rng.standard_normal(rhs[interior].shape)
        x = np.zeros_like(rhs)
        x[interior] = _spectral_solve(grid, rhs[interior], kinds, 1.0 / DT, PARAMS.nu / 2)
        resid = x / DT - PARAMS.nu / 2 * _component_laplacian(x, grid, a) - rhs
        assert rel(resid[interior], rhs) <= 1e-13

    rhs = rng.standard_normal(grid.n)
    rhs -= rhs.mean()
    p = solve_neumann_poisson(grid, rhs)
    resid = laplacian(ScalarField(grid, p)).values - rhs
    assert rel(resid, rhs) <= 1e-13


@pytest.mark.parametrize("n", [4, 5, 7, 16, 31, 48, 127, 128, 129])
@pytest.mark.parametrize("kind, transform, kind_type", [
    ("neumann", "dct", 2), ("wall", "dst", 1), ("ghost", "dst", 2),
])
def test_bases_match_scipy_orthonormal_transforms(kind, transform, kind_type, n):
    # scipy is the oracle here only; the solver builds its bases with numpy
    import scipy.fft

    q, qt = _basis(kind, n)
    m = n - 1 if kind == "wall" else n
    eye = np.eye(m)
    ref = getattr(scipy.fft, transform)(eye, type=kind_type, axis=0, norm="ortho")
    assert np.max(np.abs(q - ref)) <= 1e-14
    assert np.max(np.abs(qt @ q - eye)) <= 1e-13
    assert np.array_equal(qt, q.T) and qt.flags.c_contiguous
    assert not q.flags.writeable and not qt.flags.writeable
