"""The padded storage of nsac.grid against the standard-layout reference.

The operators and the step work on whole padded buffers; ``standard_layout``
holds the same arithmetic on arrays of logical shape. They must agree bit for
bit, on every box shape, whether an input was packed by its constructor or
came out of an operator with junk in its pads.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import standard_layout as ref
from nsac.diagnostics import PairRow, pair_row
from nsac.experiments import bubble_concentration
from nsac.grid import FaceVectorField, ScalarField, divergence, enforce_dirichlet, gradient, make_grid
from nsac.potential import DoubleWell
from nsac.solver import (
    FluidParams,
    advect_scalar,
    advection_term,
    capillary_force,
    make_state,
    step,
)

WELL = DoubleWell()
PARAMS = FluidParams(nu=0.01, eps=0.05)


@st.composite
def boxes(draw):
    dim = draw(st.sampled_from((2, 3)))
    top = 32 if dim == 2 else 10
    n = draw(st.lists(st.integers(4, top), min_size=dim, max_size=dim))
    length = draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    return make_grid(dim, n, length)


def same(got, want):
    """Equal shape and equal bits, the sign of zero included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def same_faces(got, want):
    return all(same(g, w) for g, w in zip(got.components, want.components))


def _random_velocity(grid, rng, scale):
    comps = [scale * rng.standard_normal(grid.face_shape(a)) for a in range(grid.dim)]
    return enforce_dirichlet(FaceVectorField(grid, comps))


@settings(max_examples=40, deadline=None)
@given(grid=boxes(), seed=st.integers(0, 2**32 - 1))
def test_operators_match_standard_layout(grid, seed):
    rng = np.random.default_rng(seed)
    c = ScalarField(grid, rng.uniform(-1.0, 1.0, grid.n))
    u = _random_velocity(grid, rng, 1.0)
    # packed by the constructor, then the operators' own outputs, whose pads hold junk
    chained_u = advection_term(u)
    for vel in (u, chained_u):
        want = ref.advection_term(vel)
        assert same_faces(advection_term(vel), want)
    g = gradient(c)
    assert same_faces(g, ref.gradient(c))
    lap = divergence(g)
    assert same(lap.values, ref.divergence(g).values)
    for vel in (u, chained_u):
        assert same(divergence(vel).values, ref.divergence(vel).values)
        assert same(advect_scalar(vel, g).values, ref.advect_scalar(vel, g).values)
    for lap_c in (lap, ScalarField(grid, lap.values)):
        assert same_faces(capillary_force(g, lap_c, PARAMS.eps), ref.capillary_force(g, lap.values, PARAMS.eps))


@pytest.mark.parametrize("n", [(9, 7), (7, 5, 9)])
def test_advect_scalar_signed_zeros_match_standard_layout(n):
    """u = 0, as at the start of a bubble or spinodal run, against a gradient
    of mixed sign: every product is a signed zero, and the cell sums keep
    their signs (-0.0 where c falls along every axis, past the bubble's centre)."""
    grid = make_grid(len(n), n, (1.0,) * len(n))
    g = gradient(ScalarField(grid, bubble_concentration(grid, 0.05)))
    u = FaceVectorField(grid, [np.zeros(grid.face_shape(a)) for a in range(grid.dim)])
    want = ref.advect_scalar(u, g).values
    assert np.signbit(want).any() and not np.signbit(want).all()
    assert same(advect_scalar(u, g).values, want)


def test_fields_cannot_be_rebound():
    grid = make_grid(2, (9, 7), (1.0, 1.3))
    rng = np.random.default_rng(3)
    g = gradient(ScalarField(grid, rng.standard_normal(grid.n)))
    lap = divergence(g)
    with pytest.raises(AttributeError):
        lap.values = rng.standard_normal(grid.n)
    with pytest.raises(AttributeError):
        g.components = [np.array(comp) for comp in g.components]
    with pytest.raises(TypeError):
        g.components[0] = rng.standard_normal(grid.face_shape(0))
    # a write through a view lands in the buffer the operators read
    lap.values[2, 3] = 7.0
    g.components[1][4, 5] = -2.0
    assert lap.padded()[2, 3] == 7.0 and g.padded()[1, 4, 5] == -2.0


def _assert_logical_shapes(state, report, grad_c, lap_c):
    grid = state.grid
    for arr in (state.c.values, report.pressure.values, report.material_derivative.values,
                lap_c.values):
        assert arr.shape == grid.n
    for v in (state.u, grad_c):
        assert [comp.shape for comp in v.components] == [grid.face_shape(a) for a in range(grid.dim)]


@settings(max_examples=30, deadline=None)
@given(
    grid=boxes(),
    seed=st.integers(0, 2**32 - 1),
    sources=st.booleans(),
    dt=st.sampled_from((1e-4, 3e-4, 1e-3)),
)
def test_step_matches_standard_layout_bitwise(grid, seed, sources, dt):
    rng = np.random.default_rng(seed)
    state = make_state(grid, u=_random_velocity(grid, rng, 0.25))
    state.c.values[:] = rng.uniform(-1.0, 1.0, grid.n)
    source_c = source_u = None
    if sources:
        source_c = ScalarField(grid, rng.standard_normal(grid.n))
        source_u = FaceVectorField(grid, [rng.standard_normal(grid.face_shape(a))
                                          for a in range(grid.dim)])
    u, c, carried = state.u.copy(), state.c.copy(), None
    for _ in range(5):
        want = ref.step(u, c, WELL, PARAMS, dt, source_c, source_u, carried)
        state, report = step(state, WELL, PARAMS, dt, source_c, source_u)
        assert same(state.c.values, want.c.values)
        assert same_faces(state.u, want.u)
        assert same(report.pressure.values, want.p.values)
        assert same(report.material_derivative.values, want.material)
        assert report.cfl == want.cfl
        grad_c, lap_c = state.carried()
        _assert_logical_shapes(state, report, grad_c, lap_c)
        # the carry is what a fresh pass over a packed copy of c computes
        fresh = gradient(ScalarField(grid, np.array(state.c.values)))
        assert same_faces(grad_c, fresh)
        assert same(lap_c.values, divergence(fresh).values)
        assert same_faces(grad_c, want.grad_c) and same(lap_c.values, want.lap_c)
        u, c, carried = want.u, want.c, (want.grad_c, want.lap_c)


def test_long_runs_raise_no_floating_point_error():
    # every pass runs over the pads too: junk there would trip this
    with np.errstate(all="raise"):
        for n, length, steps in (((64, 64), (1.0, 1.0), 300), ((12, 10, 8), (1.2, 1.0, 0.8), 30)):
            grid = make_grid(len(n), n, length)
            state = make_state(grid)
            state.c.values[:] = bubble_concentration(grid, PARAMS.eps)
            for _ in range(steps):
                state, report = step(state, WELL, PARAMS, 2.5e-4)
            assert np.isfinite(report.cfl) and report.cfl > 0.0


@settings(max_examples=40, deadline=None)
@given(
    grid=boxes(),
    seed=st.integers(0, 2**32 - 1),
    twin=st.booleans(),
    stepped=st.booleans(),
)
# above 8192 cells a sum over a strided view has other bits than a contiguous sum
@example(grid=make_grid(2, (130, 90), (1.0, 0.7)), seed=5, twin=False, stepped=True)
@example(grid=make_grid(2, (129, 129), (1.0, 1.0)), seed=6, twin=True, stepped=True)
def test_pair_row_matches_standard_layout_bitwise(grid, seed, twin, stepped):
    """Every field of a row, the sign of a zero included; a stepped strong
    state brings its carried grad C and a material with junk in its pads."""
    rng = np.random.default_rng(seed)

    def sample(scale):
        state = make_state(grid, u=_random_velocity(grid, rng, scale))
        state.c.values[:] = rng.uniform(-scale, scale, grid.n)
        material = ScalarField(grid, rng.standard_normal(grid.n))
        if stepped:
            state, report = step(state, WELL, PARAMS, 1e-4)
            material = report.material_derivative
        return state, material

    weak, weak_m = sample(0.25)
    strong, strong_m = (weak, weak_m) if twin else sample(0.2)
    assert (strong.carried() is not None) == stepped
    got = pair_row(weak, strong, weak_m, strong_m, WELL, PARAMS)
    want = ref.pair_row(weak, strong, weak_m, strong_m, WELL, PARAMS)
    for name, g, w in zip(PairRow._fields, got, want):
        assert same(np.float64(g), np.float64(w)), (name, g, w)
