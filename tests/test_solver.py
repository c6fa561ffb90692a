"""Time stepper: capillary force, Allen-Cahn step, momentum step, coupling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsac.grid import (
    DIRICHLET_ZERO,
    NEUMANN_ZERO,
    FaceVectorField,
    ScalarField,
    _axslice,
    divergence,
    laplacian,
    make_grid,
)
from nsac.potential import quartic_well
from nsac.solver import (
    CFLError,
    FluidParams,
    NumericalError,
    _basis,
    _component_laplacian,
    _spectral_solve,
    advection_term,
    allen_cahn_step,
    capillary_force,
    make_state,
    momentum_step,
    solve_neumann_poisson,
    step,
)

WELL = quartic_well()
PARAMS = FluidParams(nu=0.01, eps=0.05)
DT = 2.5e-4


def stream_function_velocity(grid, amplitude=1.0):
    """Discretely divergence-free velocity from a node-sampled streamfunction."""
    x = grid.face_coords(0)
    y = grid.face_coords(1)
    psi = amplitude * np.sin(np.pi * x)[:, None] ** 2 * np.sin(np.pi * y)[None, :] ** 2 / np.pi
    ux = np.diff(psi, axis=1) / grid.h[1]
    uy = -np.diff(psi, axis=0) / grid.h[0]
    return FaceVectorField(grid, [ux, uy], DIRICHLET_ZERO)


def test_fluid_params_validation():
    with pytest.raises(ValueError):
        FluidParams(nu=0.0, eps=0.05)
    with pytest.raises(ValueError):
        FluidParams(nu=0.01, eps=-1.0)


def test_capillary_force_constant_and_linear():
    grid = make_grid(2, (16, 16), (1, 1))
    c = ScalarField(grid, np.full(grid.n, 0.7), NEUMANN_ZERO)
    f = capillary_force(c, PARAMS.eps)
    assert all(np.all(comp == 0.0) for comp in f.components)
    x = grid.cell_centers(0)
    c = ScalarField(grid, np.broadcast_to(x[:, None], grid.n).copy(), NEUMANN_ZERO)
    f = capillary_force(c, PARAMS.eps)
    # linear c is harmonic: lap(c) = 0 away from the Neumann walls
    assert np.allclose(f.components[0][2:-2, :], 0.0, atol=1e-12)
    assert np.allclose(f.components[1][:, 2:-2], 0.0, atol=1e-12)


def test_capillary_force_quadratic_profile():
    grid = make_grid(2, (32, 32), (1, 1))
    x = grid.cell_centers(0)
    c = ScalarField(grid, np.broadcast_to(x[:, None] ** 2, grid.n).copy(), NEUMANN_ZERO)
    f = capillary_force(c, PARAMS.eps)
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
    sigma = WELL.lipschitz_constant() / (2 * PARAMS.eps)
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
    sigma = WELL.lipschitz_constant() / (2 * PARAMS.eps)
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
    new_state, _ = momentum_step(state, state.c, PARAMS, DT)
    assert all(np.all(c == 0.0) for c in new_state.u.components)
    assert np.allclose(new_state.p.values, 0.0, atol=1e-12)


def test_momentum_projection_divergence():
    grid = make_grid(2, (32, 32), (1, 1))
    rng = np.random.default_rng(21)
    comps = [0.3 * rng.standard_normal(grid.face_shape(a)) for a in range(2)]
    state = make_state(grid, u=FaceVectorField(grid, comps, DIRICHLET_ZERO))
    state.c.values[:] = 1.0
    new_state, _ = momentum_step(state, state.c, PARAMS, DT)
    umax = max(np.max(np.abs(c)) for c in new_state.u.components)
    tol = 1e-8 * (1.0 + umax / min(grid.h))
    assert np.max(np.abs(divergence(new_state.u).values)) <= tol


def test_momentum_projection_divergence_3d():
    grid = make_grid(3, (8, 10, 12), (1, 1, 1))
    rng = np.random.default_rng(23)
    comps = [0.3 * rng.standard_normal(grid.face_shape(a)) for a in range(3)]
    state = make_state(grid, u=FaceVectorField(grid, comps, DIRICHLET_ZERO))
    state.c.values[:] = 1.0
    new_state, _ = momentum_step(state, state.c, PARAMS, DT)
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


def test_advection_term_is_exactly_skew():
    grid = make_grid(2, (24, 24), (1, 1))
    u = stream_function_velocity(grid, 0.8)
    adv = advection_term(u)
    total = sum(
        float(np.sum(adv.components[a] * u.components[a])) for a in range(2)
    ) * grid.cell_volume
    assert abs(total) < 1e-15


def test_cfl_guard_rejects_fast_flow():
    grid = make_grid(2, (16, 16), (1, 1))
    comps = [np.full(grid.face_shape(a), 200.0) for a in range(2)]
    state = make_state(grid, u=FaceVectorField(grid, comps, DIRICHLET_ZERO))
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
            state, _ = step(state, WELL, PARAMS, DT)
        return state

    a, b = run(), run()
    assert np.array_equal(a.c.values, b.c.values)
    assert np.array_equal(a.p.values, b.p.values)
    for ca, cb in zip(a.u.components, b.u.components):
        assert np.array_equal(ca, cb)


def test_step_energy_decreases_for_bubble():
    from nsac.diagnostics import total_energy

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
    state, _ = step(state, WELL, PARAMS, DT)
    assert abs(state.p.values.mean()) < 1e-12


def test_three_dimensional_step_runs():
    grid = make_grid(3, (8, 8, 8), (1, 1, 1))
    state = make_state(grid)
    state.c.values[:] = 0.4
    state, report = step(state, WELL, PARAMS, DT)
    assert np.ptp(state.c.values) == 0.0
    umax = max(np.max(np.abs(c)) for c in state.u.components)
    assert umax == 0.0


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

    shift = 1.0 / DT + WELL.lipschitz_constant() / (2 * PARAMS.eps)
    rhs = rng.standard_normal(grid.n)
    x = _spectral_solve(grid, rhs, ("neumann",) * dim, shift, PARAMS.eps)
    resid = shift * x - PARAMS.eps * laplacian(ScalarField(grid, x, NEUMANN_ZERO)).values - rhs
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
    resid = laplacian(ScalarField(grid, p, NEUMANN_ZERO)).values - rhs
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
