"""Discrete operator calculus on the MAC grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsac.grid import (
    FaceVectorField,
    ScalarField,
    divergence,
    enforce_dirichlet,
    face_inner,
    gradient,
    laplacian,
    make_grid,
)
from standard_layout import integrate


def random_scalar(grid, rng):
    return ScalarField(grid, rng.standard_normal(grid.n))


def random_vector(grid, rng, walled=True):
    comps = [rng.standard_normal(grid.face_shape(a)) for a in range(grid.dim)]
    v = FaceVectorField(grid, comps)
    return enforce_dirichlet(v) if walled else v


def test_make_grid_spacings():
    assert make_grid(2, (4, 4), (1, 1)).h == (0.25, 0.25)
    assert make_grid(2, (8, 4), (2, 1)).h == (0.25, 0.25)
    assert make_grid(3, (4, 4, 4), (1, 1, 1)).h == (0.25, 0.25, 0.25)
    assert make_grid(2, (8, 8), (1e150, 1e150)).h == (1.25e149, 1.25e149)


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(1, (8,), (1.0,))
    with pytest.raises(ValueError):
        make_grid(4, (8, 8, 8, 8), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        make_grid(2, (3, 8), (1, 1))
    with pytest.raises(ValueError):
        make_grid(2, (8, 8), (0.0, 1.0))
    with pytest.raises(ValueError):
        make_grid(2, (8, 8), (1.0, -2.0))


@pytest.mark.parametrize("dim, length", [
    (2, 1e300),  # h^2 overflows to inf
    (2, 1e-300),  # h^2 underflows to 0
    (3, 1e110),  # each h^2 is finite, the cell volume is not
    (3, 1e-110),  # each h^2 is positive, the cell volume is 0
])
def test_make_grid_rejects_spacings_out_of_range(dim, length):
    """Every h_a^2 and the cell volume must be positive and finite: the
    operators divide by them."""
    with pytest.raises(ValueError, match="cell volume"):
        make_grid(dim, (8,) * dim, (length,) * dim)


def test_gradient_constant_is_zero():
    grid = make_grid(2, (8, 8), (1, 1))
    c = ScalarField(grid, np.full(grid.n, 3.0))
    g = gradient(c)
    for comp in g.components:
        assert np.all(comp == 0.0)


def test_gradient_linear_exact():
    grid = make_grid(2, (8, 6), (1, 1))
    x = grid.cell_centers(0)
    c = ScalarField(grid, np.broadcast_to(x[:, None], grid.n).copy())
    g = gradient(c)
    # interior x-faces see slope 1 exactly; boundary faces are forced to 0
    assert np.allclose(g.components[0][1:-1, :], 1.0, rtol=0, atol=1e-13)
    assert np.all(g.components[0][0, :] == 0.0)
    assert np.all(g.components[0][-1, :] == 0.0)
    assert np.all(g.components[1] == 0.0)


def naive_gradient(c):
    """Index-by-index stencil, independent of the vectorized implementation."""
    grid = c.grid
    out = [np.zeros(grid.face_shape(a)) for a in range(grid.dim)]
    for a in range(grid.dim):
        for idx in np.ndindex(*grid.face_shape(a)):
            if idx[a] == 0 or idx[a] == grid.n[a]:
                continue
            left = list(idx)
            left[a] -= 1
            out[a][idx] = (c.values[idx] - c.values[tuple(left)]) / grid.h[a]
    return out


def naive_divergence(v):
    grid = v.grid
    out = np.zeros(grid.n)
    for idx in np.ndindex(*grid.n):
        acc = 0.0
        for a in range(grid.dim):
            hi = list(idx)
            hi[a] += 1
            acc += (v.components[a][tuple(hi)] - v.components[a][idx]) / grid.h[a]
        out[idx] = acc
    return out


def test_gradient_matches_naive_stencil():
    rng = np.random.default_rng(1)
    grid = make_grid(2, (6, 5), (1.0, 0.7))
    c = random_scalar(grid, rng)
    g = gradient(c)
    expected = naive_gradient(c)
    for a in range(grid.dim):
        assert np.allclose(g.components[a], expected[a], rtol=1e-14, atol=1e-14)


def test_divergence_zero_field():
    grid = make_grid(2, (8, 8), (1, 1))
    zero = FaceVectorField(grid, [np.zeros(grid.face_shape(a)) for a in range(grid.dim)])
    assert np.all(divergence(zero).values == 0.0)


def test_divergence_analytic_solenoidal():
    # v = (x, -y) has zero divergence; face sampling keeps that exact
    grid = make_grid(2, (8, 8), (1, 1))
    vx = np.broadcast_to(grid.face_coords(0)[:, None], grid.face_shape(0)).copy()
    vy = -np.broadcast_to(grid.face_coords(1)[None, :], grid.face_shape(1)).copy()
    v = FaceVectorField(grid, [vx, vy])
    assert np.allclose(divergence(v).values, 0.0, atol=1e-13)


def test_divergence_matches_naive_stencil():
    rng = np.random.default_rng(2)
    grid = make_grid(3, (4, 5, 6), (1.0, 1.1, 0.9))
    v = random_vector(grid, rng, walled=False)
    assert np.allclose(divergence(v).values, naive_divergence(v), rtol=1e-14, atol=1e-14)


def test_laplacian_constant_zero():
    grid = make_grid(2, (8, 8), (1, 1))
    c = ScalarField(grid, np.full(grid.n, 5.0))
    assert np.allclose(laplacian(c).values, 0.0, atol=1e-12)


def test_laplacian_quadratic_interior():
    grid = make_grid(2, (16, 16), (1, 1))
    x = grid.cell_centers(0)
    c = ScalarField(grid, np.broadcast_to(x[:, None] ** 2, grid.n).copy())
    lap = laplacian(c).values
    assert np.allclose(lap[1:-1, :], 2.0, rtol=1e-11)


def test_laplacian_is_div_grad():
    rng = np.random.default_rng(3)
    for dims in [(2, (9, 7), (1.0, 1.3)), (3, (4, 6, 5), (1.0, 0.8, 1.2))]:
        grid = make_grid(*dims)
        c = random_scalar(grid, rng)
        lap = laplacian(c).values
        composed = divergence(gradient(c)).values
        assert np.allclose(lap, composed, rtol=1e-13, atol=1e-13)


def test_integrate_constant_and_linear():
    grid = make_grid(2, (8, 12), (1, 1))
    f = ScalarField(grid, np.full(grid.n, 2.0))
    assert integrate(f) == pytest.approx(2.0, abs=1e-14)
    x = grid.cell_centers(0)
    fx = ScalarField(grid, np.broadcast_to(x[:, None], grid.n).copy())
    assert integrate(fx) == pytest.approx(0.5, abs=1e-14)


def test_integrate_matches_naive_sum():
    rng = np.random.default_rng(4)
    grid = make_grid(2, (7, 9), (1.4, 0.6))
    f = random_scalar(grid, rng)
    naive = 0.0
    for idx in np.ndindex(*grid.n):
        naive += f.values[idx] * grid.cell_volume
    assert integrate(f) == pytest.approx(naive, rel=1e-13)


@pytest.mark.parametrize("n", [(129, 129), (24, 20, 18)])
def test_integrate_does_not_depend_on_the_storage(n):
    # above about 8192 cells a sum over the strided cell view of a padded
    # buffer differs in the last bits from the contiguous sum, for some seeds
    grid = make_grid(len(n), n, (1.0,) * len(n))
    for seed in range(10):
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, grid.n)
        assert integrate(ScalarField(grid, values)) == float(values.sum() * grid.cell_volume)


def test_adjointness_summation_by_parts():
    rng = np.random.default_rng(5)
    for trial in range(20):
        grid = make_grid(2, (8 + trial % 5, 6 + trial % 3), (1.0, 1.2))
        q = random_scalar(grid, rng)
        v = random_vector(grid, rng)
        lhs = integrate(ScalarField(grid, q.values * divergence(v).values))
        rhs = face_inner(v, gradient(q))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs + rhs) <= 1e-12 * scale


@st.composite
def unit_box_grids(draw):
    """2-D grids, or 3-D grids whose three cell counts are not all equal."""
    dim = draw(st.sampled_from((2, 3)))
    counts = st.lists(st.integers(4, 24), min_size=dim, max_size=dim)
    if dim == 3:
        counts = counts.filter(lambda n: len(set(n)) > 1)
    return make_grid(dim, draw(counts), (1.0,) * dim)


@settings(max_examples=40, deadline=None)
@given(grid=unit_box_grids(), seed=st.integers(0, 2**32 - 1))
def test_summation_by_parts_property(grid, seed):
    """<q, div v> = -<v, grad q>, relative to the integral of |q div v|."""
    rng = np.random.default_rng(seed)
    q = random_scalar(grid, rng)
    v = random_vector(grid, rng)
    div = divergence(v).values
    lhs = integrate(ScalarField(grid, q.values * div))
    rhs = face_inner(v, gradient(q))
    scale = integrate(ScalarField(grid, np.abs(q.values * div)))
    assert abs(lhs + rhs) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(grid=unit_box_grids(), seed=st.integers(0, 2**32 - 1))
def test_div_grad_is_laplacian_property(grid, seed):
    c = random_scalar(grid, np.random.default_rng(seed))
    lap = laplacian(c).values
    diff = divergence(gradient(c)).values - lap
    assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(lap))


def test_operators_linear():
    rng = np.random.default_rng(6)
    grid = make_grid(2, (8, 8), (1, 1))
    a = random_scalar(grid, rng)
    b = random_scalar(grid, rng)
    alpha, beta = 1.7, -0.3
    combo = ScalarField(grid, alpha * a.values + beta * b.values)
    for a_comp, b_comp, c_comp in zip(
        gradient(a).components, gradient(b).components, gradient(combo).components
    ):
        assert np.allclose(alpha * a_comp + beta * b_comp, c_comp, atol=1e-12)
    assert np.allclose(
        laplacian(combo).values,
        alpha * laplacian(a).values + beta * laplacian(b).values,
        atol=1e-10,
    )


def test_enforce_dirichlet_zeroes_only_the_wall_faces():
    rng = np.random.default_rng(7)
    for grid in (make_grid(2, (6, 5), (1, 1)), make_grid(3, (4, 5, 6), (1, 1, 1))):
        v = random_vector(grid, rng, walled=False)
        before = [comp.copy() for comp in v.components]
        assert enforce_dirichlet(v) is v
        for a, (comp, old) in enumerate(zip(v.components, before)):
            walls = np.moveaxis(comp, a, 0)[[0, -1]]
            assert np.all(walls == 0.0)
            inner = (slice(None),) * a + (slice(1, -1),)
            assert np.array_equal(comp[inner], old[inner])


def test_fields_reject_wrong_shapes():
    for grid in (make_grid(2, (6, 5), (1, 1)), make_grid(3, (4, 5, 6), (1, 1, 1))):
        with pytest.raises(ValueError, match="scalar values shape"):
            ScalarField(grid, np.zeros(grid.n[::-1]))
        with pytest.raises(ValueError, match="scalar values shape"):
            ScalarField(grid, np.zeros(grid.face_shape(0)))
        faces = [np.zeros(grid.face_shape(a)) for a in range(grid.dim)]
        with pytest.raises(ValueError, match="need"):
            FaceVectorField(grid, faces[:-1])
        with pytest.raises(ValueError, match="need"):
            FaceVectorField(grid, faces + [faces[0]])
        for a in range(grid.dim):
            wrong = list(faces)
            wrong[a] = np.zeros(grid.n)
            with pytest.raises(ValueError, match=f"component {a} has shape"):
                FaceVectorField(grid, wrong)
        # well-formed input passes, converted to float
        assert ScalarField(grid, np.zeros(grid.n, dtype=int)).values.dtype == float
        v = FaceVectorField(grid, [f.astype(int) for f in faces])
        assert all(comp.dtype == float for comp in v.components)
