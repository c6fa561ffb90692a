"""Energy, maximum-principle, relative-entropy, REI, Gronwall."""

import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nsac.certificates import mms_gates
from nsac.diagnostics import (
    ConvergenceTrace,
    _edge_weights,
    _entry_view,
    dissipation_rates,
    energy_trace,
    gronwall_fit,
    kinetic_energy,
    max_principle_bounds,
    pair_row,
    pair_trace,
    relative_entropy,
    total_energy,
    velocity_gradient,
    viscous_dissipation,
)
from nsac.grid import FaceVectorField, ScalarField, enforce_dirichlet, make_grid
from nsac.potential import DoubleWell
from nsac.solver import FluidParams, StepReport, make_state
from standard_layout import _component_laplacian, copy_state

WELL = DoubleWell()
PARAMS = FluidParams(nu=0.01, eps=0.05)


def random_velocity(grid, rng, scale=1.0):
    comps = [scale * rng.standard_normal(grid.face_shape(a)) for a in range(grid.dim)]
    return enforce_dirichlet(FaceVectorField(grid, comps))


def random_state(grid, rng, scale=1.0):
    state = make_state(grid, u=random_velocity(grid, rng, scale))
    state.c.values[:] = 0.5 * scale * rng.standard_normal(grid.n)
    return state


# ---------------------------------------------------------------------------
# energy


def test_kinetic_energy_uniform_oracle():
    grid = make_grid(2, (16, 16), (1, 1))
    comps = [np.full(grid.face_shape(a), 0.0) for a in range(2)]
    comps[0][1:-1, :] = 3.0
    u = FaceVectorField(grid, comps)
    # interior cells see |u|^2 = 9; cells adjacent to x-walls see the average
    expected = 0.5 * 9.0 * (14 / 16 + 2 / 16 * 0.5) * 1.0
    assert kinetic_energy(u) == pytest.approx(expected, rel=1e-12)


def test_total_energy_interface_line_energy():
    """A flat tanh interface carries energy (2 sqrt(2) / 3) per unit length."""
    eps = 0.02
    line_energy = 2.0 * np.sqrt(2.0) / 3.0
    errors = []
    for n in (64, 128, 256):
        grid = make_grid(2, (n, n), (1, 1))
        state = make_state(grid)
        x = grid.cell_centers(0)
        state.c.values[:] = np.tanh((x[:, None] - 0.5) / (np.sqrt(2.0) * eps))
        rep = total_energy(state, WELL, FluidParams(nu=0.01, eps=eps))
        errors.append(abs(rep.interfacial + rep.potential - line_energy))
    assert errors[-1] < 5e-3 * line_energy
    assert errors[0] > errors[-1]


def test_total_energy_naive_quadrature_oracle():
    grid = make_grid(2, (12, 10), (1.0, 0.8))
    rng = np.random.default_rng(30)
    state = random_state(grid, rng)
    rep = total_energy(state, WELL, PARAMS)
    vol = grid.cell_volume
    pot = sum(
        WELL.eval_F(state.c.values[i, j]) for i in range(12) for j in range(10)
    ) * vol / PARAMS.eps
    assert rep.potential == pytest.approx(pot, rel=1e-12)
    assert rep.total == rep.kinetic + rep.interfacial + rep.potential


def _grad_norm_squared(u):
    """Integral of |grad u|^2 over all dim^2 entries, off-diagonals edge-weighted."""
    vol = u.grid.cell_volume
    total = 0.0
    grads = velocity_gradient(u)
    for a in range(u.grid.dim):
        for b in range(u.grid.dim):
            g = grads[a, b][_entry_view(u.grid, a, b)]
            w = 1.0 if a == b else _edge_weights(u.grid, (a, b))
            total += float(np.sum(w * g**2)) * vol
    return total


@pytest.mark.parametrize("n", [(129, 129), (24, 20, 18)])
def test_energy_sums_are_taken_over_contiguous_arrays(n):
    # at these sizes a sum over the strided cell view of a padded buffer
    # differs in the last bits from the contiguous sum, for some of the seeds
    grid = make_grid(len(n), n, (1.0,) * len(n))
    vol = grid.cell_volume
    for seed in range(10):
        rng = np.random.default_rng(seed)
        state = make_state(grid)
        state.c.values[:] = rng.uniform(-1.0, 1.0, grid.n)
        F = np.ascontiguousarray(WELL.eval_F(state.c.values))
        assert total_energy(state, WELL, PARAMS).potential == float(F.sum() * vol) / PARAMS.eps
        m = ScalarField(grid, rng.standard_normal(grid.n))
        report = StepReport(material_derivative=m, pressure=ScalarField(grid, np.zeros(grid.n)),
                            cfl=0.0)
        m2 = np.ascontiguousarray(m.values**2)
        assert dissipation_rates(state, report, PARAMS)[1] == float(m2.sum() * vol)

def test_grad_norm_matches_component_laplacian():
    """The edge-weighted |grad u|^2 equals -<lap u, u> exactly."""
    grid = make_grid(2, (20, 24), (1.0, 1.2))
    rng = np.random.default_rng(31)
    u = random_velocity(grid, rng)
    quad = _grad_norm_squared(u)
    bilinear = 0.0
    for a in range(2):
        lap = _component_laplacian(u.components[a], grid, a)
        bilinear -= float(np.sum(lap * u.components[a])) * grid.cell_volume
    assert quad == pytest.approx(bilinear, rel=1e-12)


def test_viscous_dissipation_interior_shear_oracle():
    """Linear shear away from the walls dissipates at nu * gamma^2 / 2."""
    grid = make_grid(2, (64, 64), (1, 1))
    gamma = 0.8
    y = grid.cell_centers(1)
    ramp = gamma * (y - 0.5)
    comps = [np.zeros(grid.face_shape(a)) for a in range(2)]
    comps[0][:] = ramp[None, :]
    u = FaceVectorField(grid, comps)
    grads = velocity_gradient(u)
    interior = grads[0, 1][_entry_view(grid, 0, 1)][8:-8, 8:-8]
    assert np.allclose(interior, gamma, rtol=1e-12)


def test_velocity_gradient_diagonal_oracle():
    grid = make_grid(2, (16, 16), (1, 1))
    rng = np.random.default_rng(32)
    u = random_velocity(grid, rng)
    grads = velocity_gradient(u)
    naive = np.empty(grid.n)
    for i in range(16):
        for j in range(16):
            naive[i, j] = (u.components[0][i + 1, j] - u.components[0][i, j]) / grid.h[0]
    assert np.allclose(grads[0, 0][grid.cell_view], naive, rtol=1e-13)


def test_viscous_dissipation_scales_quadratically():
    grid = make_grid(2, (16, 16), (1, 1))
    rng = np.random.default_rng(33)
    u = random_velocity(grid, rng)
    base = viscous_dissipation(u, PARAMS.nu)
    u3 = FaceVectorField(grid, [3.0 * c for c in u.components])
    assert viscous_dissipation(u3, PARAMS.nu) == pytest.approx(9.0 * base, rel=1e-12)


def test_energy_audit_synthetic():
    # rows (t, kinetic, interfacial, potential, visc, ac) at dt = 0.1: a
    # dissipation rate of 2 per step sums to 0.2 and then 0.4
    rows = [
        (0.0, 1.0, 0.5, 0.5, 0.0, 0.0),
        (0.1, 0.7, 0.5, 0.5, 1.5, 0.5),
        (0.2, 0.5, 0.5, 0.5, 1.5, 0.5),
    ]
    # worst row: 1.7 + 0.2 - 2.0 = -0.1 -> -0.05 relative
    assert energy_trace(rows, 0.1).audit == pytest.approx(-0.05)
    rows[2] = (0.2, 0.5, 0.5, 0.5, 9.5, 0.5)
    # the sum becomes 0.2 + 1.0 = 1.2, and the worst row 1.5 + 1.2 - 2.0 = 0.7
    # -> 0.35 relative
    assert energy_trace(rows, 0.1).audit == pytest.approx(0.35)
    with pytest.raises(ValueError):
        energy_trace([], 0.1)


def test_energy_audit_propagates_nan_from_any_row():
    rows = [
        (0.0, 1.0, 0.5, 0.5, 0.0, 0.0),
        (0.1, 0.7, 0.5, 0.5, 1.5, 0.5),
        (0.2, np.nan, 0.5, 0.5, 1.5, 0.5),
    ]
    assert np.isnan(energy_trace(rows, 0.1).audit)


_ENERGY = st.floats(-1e3, 1e3)  # finite, and no sum of a run overflows
_RATE = st.floats(0.0, 1e3)


@pytest.mark.parametrize("e0_positive", [True, False])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(first=st.tuples(*[st.floats(0.0, 1e3)] * 3),
       later=st.lists(st.tuples(_ENERGY, _ENERGY, _ENERGY, _RATE, _RATE), max_size=11),
       dt=st.floats(1e-6, 1.0), nan_at=st.integers(0, 11 * 5 - 1))
def test_energy_trace_matches_the_running_sum(e0_positive, first, later, dt, nan_at):
    """The cumulative column is the sequential sum ``cum += dt * (visc + ac)``
    and the audit column (E + cum - E(0)) / E(0) row by row (scaled by 1 if
    E(0) <= 0), both bitwise; the audit is their worst value after t = 0, a
    NaN in any later row makes it NaN, and a run of one row has none."""
    first = first if e0_positive else tuple(-e for e in first)
    e0 = first[0] + first[1] + first[2]
    assume((e0 > 0) == e0_positive)  # all-zero energies give E(0) = 0 either way
    rows = [(0.0, *first, 0.0, 0.0)] + [(k * dt, *row) for k, row in enumerate(later, 1)]
    trace = energy_trace(rows, dt)
    scale = e0 if e0 > 0 else 1.0
    cum, cums, violations = 0.0, [], []
    for _, kinetic, interfacial, potential, visc, ac in rows:
        cum += dt * (visc + ac)
        cums.append(cum)
        violations.append((kinetic + interfacial + potential + cum - e0) / scale)
    assert trace.cumulative_diss.tobytes() == np.array(cums).tobytes()
    assert trace.audit_violation.tobytes() == np.array(violations).tobytes()
    if len(rows) == 1:
        with pytest.raises(ValueError):
            trace.audit
        return
    assert trace.audit == max(violations[1:])
    row, column = 1 + nan_at // 5 % len(later), 1 + nan_at % 5
    rows[row] = rows[row][:column] + (np.nan,) + rows[row][column + 1:]
    assert np.isnan(energy_trace(rows, dt).audit)


# ---------------------------------------------------------------------------
# maximum principle


def test_max_principle_bounds_hull():
    grid = make_grid(2, (8, 8), (1, 1))
    c = ScalarField(grid, np.full(grid.n, 0.02))
    b = max_principle_bounds(c, WELL)
    assert b.m == WELL.y1 and b.M == WELL.y2
    c.values[0, 0] = 1.5
    b = max_principle_bounds(c, WELL)
    assert b.M == 1.5
    c.values[0, 0] = 5.0
    with pytest.raises(ValueError):
        max_principle_bounds(c, WELL)


def test_max_principle_bounds_reject_non_finite_range():
    grid = make_grid(2, (8, 8), (1, 1))
    c = ScalarField(grid, np.full(grid.n, 0.02))
    c.values[1, 2] = np.nan
    with pytest.raises(ValueError, match="nan"):
        max_principle_bounds(c, WELL)


# ---------------------------------------------------------------------------
# relative entropy


def test_relative_entropy_identity_and_positivity():
    grid = make_grid(2, (16, 16), (1, 1))
    rng = np.random.default_rng(34)
    for _ in range(50):
        s1 = random_state(grid, rng)
        s2 = random_state(grid, rng)
        assert relative_entropy(s1, s1, PARAMS) == 0.0
        assert relative_entropy(s1, s2, PARAMS) >= 0.0


def test_relative_entropy_quadratic_scaling():
    grid = make_grid(2, (16, 16), (1, 1))
    rng = np.random.default_rng(35)
    strong = random_state(grid, rng)
    weak = copy_state(strong)
    dv = random_velocity(grid, rng, 0.1)
    for alpha in (1.0, 2.0, 0.25):
        weak.u = FaceVectorField(
            grid,
            [strong.u.components[a] + alpha * dv.components[a] for a in range(2)],
        )
        e = relative_entropy(weak, strong, PARAMS)
        assert e == pytest.approx(alpha**2 * kinetic_energy(dv), rel=1e-12)


def test_omega_weight_uniform_oracle():
    grid = make_grid(2, (16, 16), (1, 1))
    comps = [np.zeros(grid.face_shape(a)) for a in range(2)]
    comps[0][1:-1, :] = 2.0
    state = make_state(grid, u=FaceVectorField(grid, comps))
    state.c.values[:] = 0.3
    m = ScalarField(grid, np.zeros(grid.n))
    assert pair_row(state, state, m, m, WELL, PARAMS).omega == pytest.approx(
        1.0 + 4.0, rel=1e-12)


# ---------------------------------------------------------------------------
# weak/strong rows and REI


def _make_pair(grid, rng, n_samples=5, dt=1e-3):
    """Synthetic weak and strong samples: (state, material) lists."""
    weak, strong = [], []
    for k in range(n_samples):
        for samples, scale in ((weak, 1.0), (strong, 0.9)):
            s = random_state(grid, rng, scale)
            s.t = k * dt
            m = ScalarField(grid, rng.standard_normal(grid.n))
            samples.append((s, m))
    return weak, strong


def _rows(weak, strong, well=WELL):
    return [pair_row(ws, ss, wm, sm, well, PARAMS)
            for (ws, wm), (ss, sm) in zip(weak, strong)]


def test_rel_entropy_trace_alignment_errors():
    grid = make_grid(2, (8, 8), (1, 1))
    rng = np.random.default_rng(36)
    weak, strong = _make_pair(grid, rng)
    _rows(weak, strong)
    strong[-1][0].t += 1.0
    with pytest.raises(ValueError, match="different times"):
        _rows(weak, strong)
    strong[-1][0].t = weak[-1][0].t + 2e-12
    with pytest.raises(ValueError, match="different times"):
        _rows(weak, strong)
    strong[-1][0].t = np.nan
    with pytest.raises(ValueError, match="different times"):
        _rows(weak, strong)
    other = random_state(make_grid(2, (12, 12), (1, 1)), rng)
    with pytest.raises(ValueError, match="different grids"):
        pair_row(weak[0][0], other, weak[0][1], weak[0][1], WELL, PARAMS)


def test_rei_terms_r_f_quadratic_well_oracle():
    """For a quadratic F, F'(c) - F'(C) = F'' (c - C) exactly."""
    f2pp = 0.7

    def F(c):
        return 0.5 * f2pp * np.square(c)

    def Fp(c):
        return f2pp * np.asarray(c)

    # pair_row reads only eval_Fprime, so a duck-typed well is enough
    well = types.SimpleNamespace(eval_F=F, eval_Fprime=Fp)
    grid = make_grid(2, (12, 12), (1, 1))
    rng = np.random.default_rng(37)
    weak, strong = _make_pair(grid, rng)
    trace = pair_trace(_rows(weak, strong, well))
    # independent accumulation of the same term
    times = np.array([s.t for s, _ in weak])
    rate = np.empty(len(times))
    for k, ((ws, wm), (ss, sm)) in enumerate(zip(weak, strong)):
        d = ws.c.values - ss.c.values
        mdiff = wm.values - sm.values
        rate[k] = -(f2pp / PARAMS.eps) * np.sum(d * mdiff) * grid.cell_volume
    expected = np.zeros(len(times))
    expected[1:] = np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(times))
    assert np.allclose(trace.r_f, expected, rtol=1e-10, atol=1e-14)


def test_rei_identical_pair_all_zero():
    grid = make_grid(2, (12, 12), (1, 1))
    rng = np.random.default_rng(38)
    weak, _ = _make_pair(grid, rng)
    trace = pair_trace(_rows(weak, weak))
    for name in ("lhs_entropy_gap", "lhs_visc", "lhs_ac", "r_conv", "r_eps1",
                 "r_eps2", "r_eps3", "r_eps4", "r_f", "slack"):
        assert np.all(getattr(trace, name) == 0.0)
    assert np.all(trace.E == 0.0) and np.all(trace.D == 0.0)


def test_pair_trace_columns_match_rows():
    """E and omega are copied, D = visc + ac, the REI LHS integrates the rows,
    the slack is RHS - LHS, and the fit is that of the trace's own columns."""
    grid = make_grid(2, (12, 12), (1, 1))
    rng = np.random.default_rng(39)
    weak, strong = _make_pair(grid, rng, n_samples=4)
    rows = _rows(weak, strong)
    trace = pair_trace(rows)
    assert np.array_equal(trace.t, [r.t for r in rows])
    assert np.array_equal(trace.E, [r.E for r in rows])
    assert np.array_equal(trace.omega, [r.omega for r in rows])
    assert np.array_equal(trace.D, [r.visc + r.ac for r in rows])
    assert np.array_equal(trace.lhs_entropy_gap, [r.E - rows[0].E for r in rows])
    assert rows[1].E == relative_entropy(weak[1][0], strong[1][0], PARAMS)
    visc = [r.visc for r in rows]
    assert trace.lhs_visc[1] == 0.5 * (visc[1] + visc[0]) * (rows[1].t - rows[0].t)
    rhs = (trace.r_conv + trace.r_eps1 + trace.r_eps2 + trace.r_eps3 + trace.r_eps4
           + trace.r_f)
    lhs = trace.lhs_entropy_gap + trace.lhs_visc + trace.lhs_ac
    assert np.array_equal(trace.slack, rhs - lhs)
    k, bound_curve, violated = gronwall_fit(trace.t, trace.E, trace.D, trace.omega)
    assert trace.k == k and trace.violated == violated
    assert np.array_equal(trace.bound_curve, bound_curve)


# ---------------------------------------------------------------------------
# Gronwall


def test_gronwall_synthetic_exponential_recovers_k():
    """E = E0 e^{2t}, omega = 1, D = 0 must fit k = 2 within 1%."""
    times = np.linspace(0.0, 1.0, 2001)
    k, bound_curve, violated = gronwall_fit(
        times,
        0.5 * np.exp(2.0 * times),
        np.zeros_like(times),
        np.ones_like(times),
    )
    assert k == pytest.approx(2.0, rel=0.01)
    assert not violated
    assert bound_curve[0] == pytest.approx(0.5)


def test_gronwall_zero_trace():
    times = np.linspace(0.0, 1.0, 11)
    k, _, violated = gronwall_fit(times, np.zeros_like(times),
                                  np.zeros_like(times), np.ones_like(times))
    assert k == 0.0
    assert not violated


def test_gronwall_nan_entropy_is_a_violation():
    times = np.linspace(0.0, 1.0, 11)
    E = np.full_like(times, 0.1)
    E[4] = np.nan
    _, _, violated = gronwall_fit(times, E, np.zeros_like(times), np.ones_like(times))
    assert violated


def test_gronwall_k_counts_half_the_dissipation():
    """By hand, at t = 0, 1, 2 with omega = 1, E = 1, 2, 2 and D = 0, 2, 2:
    int D = 0, 1, 3 and int omega E = 0, 1.5, 3.5, so E - E(0) + D/2 is
    0, 1.5, 2.5 and k = max(1.5 / 1.5, 2.5 / 3.5) = 1. Counting all of D on
    the left would give 4/3, and none of it 2/3."""
    times = np.array([0.0, 1.0, 2.0])
    k, _, _ = gronwall_fit(times, np.array([1.0, 2.0, 2.0]),
                           np.array([0.0, 2.0, 2.0]), np.ones_like(times))
    assert k == 1.0


_MEASURE = st.floats(1e-150, 1e150)  # positive and finite, and no ratio overflows


@st.composite
def _convergence_columns(draw):
    """Strictly increasing levels (doubling or not), an error per level and
    at least two differences."""
    levels = sorted(draw(st.sets(st.integers(4, 4096), min_size=2, max_size=6)))
    error = draw(st.lists(_MEASURE, min_size=len(levels), max_size=len(levels)))
    difference = draw(st.lists(_MEASURE, min_size=2, max_size=5))
    return levels, error, difference


@settings(max_examples=150, deadline=None, derandomize=True)
@given(columns=_convergence_columns(), nan_at=st.integers(0, 10))
@example(columns=([16, 24], [1e-3, 4e-4], [1e-2, 5e-3]), nan_at=10)
def test_convergence_orders_match_the_per_element_formulas(columns, nan_at):
    """Each order is the per-element formula on Python floats, bitwise, with
    the levels as ints; a NaN error or difference gives a NaN order, which
    fails its gate."""
    levels, error, difference = columns
    k = nan_at - len(error)  # nan_at indexes the errors, then the differences
    if k < 0:
        error[nan_at] = np.nan
    elif k < len(difference):
        difference[k] = np.nan
    trace = ConvergenceTrace(np.array(levels, dtype=float), np.array(error),
                             np.array([5e-4 / 2**i for i in range(len(difference))]),
                             np.array(difference))
    e, d = error, difference
    spatial = [float(np.log(e[i] / e[i + 1]) / np.log(levels[i + 1] / levels[i]))
               for i in range(len(e) - 1)]
    temporal = [float(np.log2(d[i] / d[i + 1])) for i in range(len(d) - 1)]
    for got, want in [(trace.spatial_orders, spatial), (trace.temporal_orders, temporal)]:
        assert all(type(o) is float for o in got)
        assert [repr(o) for o in got] == [repr(o) for o in want]
    gates = mms_gates(trace)
    assert any(np.isnan(g.value) for g in gates) == (k < len(difference))
    assert not any(np.isnan(g.value) and g.passed for g in gates)


@pytest.mark.parametrize("error, difference, spatial, temporal", [
    ([1.0, 0.0], [0.0, 0.0], np.inf, np.nan),
    ([0.0, 1.0], [1.0, 0.0], -np.inf, np.inf),
    ([0.0, 0.0], [0.0, 1.0], np.nan, -np.inf),
])
def test_convergence_orders_of_an_exact_zero(error, difference, spatial, temporal):
    """An error or difference of exactly 0 gives an infinite or NaN order,
    with no warning, and every such gate fails."""
    trace = ConvergenceTrace(np.array([8.0, 16.0]), np.array(error),
                             np.array([4e-4, 2e-4]), np.array(difference))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orders = trace.spatial_orders + trace.temporal_orders
        gates = mms_gates(trace)
    assert all(type(o) is float for o in orders)
    np.testing.assert_array_equal(orders, [spatial, temporal])
    assert not any(g.passed for g in gates)
