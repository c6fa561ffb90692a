"""Initial data library, grid transfer, drivers, convergence studies."""

import dataclasses
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsac.experiments
import nsac.grid
from nsac.diagnostics import _edge_weights, kinetic_energy, pair_row, pair_trace
from nsac.experiments import (
    ExperimentConfig,
    _block_mean,
    _state_distance,
    bubble_concentration,
    initial_state,
    perturbation_velocity,
    restrict_scalar,
    restrict_state,
    restrict_velocity,
    run_energy_audit,
    run_perturbation,
    run_wsu,
    simulate,
    splitmix64,
    step_count,
    stream_function_velocity,
)
from nsac.grid import FaceVectorField, ScalarField, divergence, make_grid
from nsac.manufactured import ManufacturedSolution
from nsac.solver import FluidParams, _basis, _plan, step
from nsac.potential import DoubleWell
from standard_layout import copy_state, integrate


def small_cfg(**kw):
    base = dict(grid_n=16, dt=1e-3, t_end=0.02, wsu_levels=(8, 16, 32),
                sample_count=10)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(init_kind="nonsense")
    with pytest.raises(ValueError):
        ExperimentConfig(wsu_levels=(64, 32, 128))
    with pytest.raises(ValueError):
        ExperimentConfig(wsu_levels=(32, 32, 64))


@pytest.mark.parametrize("kw", [dict(grid_n=3), dict(wsu_levels=(2, 8, 16))])
def test_config_checks_cell_counts_at_construction(kw):
    """A library caller gets the CLI's cell-count error at construction."""
    with pytest.raises(ValueError, match="cell counts must be >= 4"):
        ExperimentConfig(**kw)


def test_config_dt_scaling_keeps_dt_n_constant():
    cfg = ExperimentConfig(grid_n=64, dt=2.5e-4)
    for n in (32, 64, 128):
        assert cfg.dt_for(n) * n == pytest.approx(2.5e-4 * 64, rel=1e-15)


# ---------------------------------------------------------------------------
# initial data


def test_bubble_profile_range_and_symmetry():
    grid = make_grid(2, (64, 64), (1, 1))
    c = bubble_concentration(grid, eps=0.05)
    assert np.max(c) < 1.0 and np.min(c) > -1.0
    assert np.max(c) > 0.99 and np.min(c) < -0.99
    assert np.allclose(c, c[::-1, :], atol=1e-14)
    assert np.allclose(c, c.T, atol=1e-14)


def _splitmix64_reference(seed, count):
    """SplitMix64 on Python ints: advance the state by the golden gamma,
    then apply the finaliser, masking each step to 64 bits."""
    mask, state, out = (1 << 64) - 1, seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_spinodal_seeded_and_in_range():
    """The noise is a SplitMix64 draw, bitwise equal to a Python-int
    reference (seed 0's first output is the published 0xE220A8397B1DCDAF),
    one output per cell in C order, in [-0.05, 0.05), with no warning."""
    assert int(splitmix64(0, 1)[0]) == 0xE220A8397B1DCDAF
    for seed in (0, 42, 2**64 - 1):
        for grid in (make_grid(2, (16, 12), (1, 1)), make_grid(3, (4, 6, 5), (1, 1, 1))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                c = initial_state(small_cfg(init_kind="spinodal", init_seed=seed), grid).c.values
            raw = _splitmix64_reference(seed, c.size)
            assert splitmix64(seed, c.size).tolist() == raw
            want = [-0.05 + 0.1 * ((z >> 11) * 2.0**-53) for z in raw]
            assert c.shape == grid.n and c.ravel().tolist() == want
            assert np.all((-0.05 <= c) & (c < 0.05))
    cfg = small_cfg(init_kind="spinodal", init_seed=7)
    s1 = initial_state(cfg)
    s2 = initial_state(cfg)
    assert np.array_equal(s1.c.values, s2.c.values)
    assert np.max(np.abs(s1.c.values)) <= 0.05
    s3 = initial_state(small_cfg(init_kind="spinodal", init_seed=8))
    assert not np.array_equal(s1.c.values, s3.c.values)


def _assert_walls_zero(u):
    """Both wall planes of every component are exactly zero."""
    for a, comp in enumerate(u.components):
        walls = np.moveaxis(comp, a, 0)[[0, -1]]
        assert np.all(walls == 0.0)


def test_vortex_is_discretely_divergence_free():
    grid = make_grid(2, (32, 32), (1, 1))
    u = stream_function_velocity(grid, 0.25)
    assert np.max(np.abs(divergence(u).values)) < 1e-13
    _assert_walls_zero(u)


def test_perturbation_velocity_unit_energy_divfree():
    grid = make_grid(2, (24, 24), (1, 1))
    v = perturbation_velocity(grid)
    assert kinetic_energy(v) == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(divergence(v).values)) < 1e-10


# ---------------------------------------------------------------------------
# restriction


def test_restrict_scalar_block_average_oracle():
    fine = make_grid(2, (8, 8), (1, 1))
    coarse = make_grid(2, (4, 4), (1, 1))
    rng = np.random.default_rng(50)
    f = ScalarField(fine, rng.standard_normal(fine.n))
    r = restrict_scalar(f, coarse)
    for i in range(4):
        for j in range(4):
            block = f.values[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            assert r.values[i, j] == pytest.approx(block.mean(), rel=1e-14)
    assert integrate(r) == pytest.approx(integrate(f), rel=1e-13)


def test_restrict_velocity_preserves_divergence_free():
    fine = make_grid(2, (32, 32), (1, 1))
    coarse = make_grid(2, (8, 8), (1, 1))
    u = stream_function_velocity(fine, 0.5)
    r = restrict_velocity(u, coarse)
    assert np.max(np.abs(divergence(r).values)) < 1e-13


def _reshape_mean(vals, axis, r):
    """Reference block average: the reduction of a reshaped view."""
    shape = list(vals.shape)
    shape[axis] //= r
    shape.insert(axis + 1, r)
    return vals.reshape(shape).mean(axis=axis + 1)


def _signed_data(rng, shape, zeros):
    """Normal entries with a share of +0.0 and -0.0, so some blocks are all -0.0."""
    vals = rng.standard_normal(shape)
    vals[rng.random(shape) < zeros] = 0.0
    return np.copysign(vals, rng.choice([-1.0, 1.0], size=shape))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    data=st.data(),
    zeros=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_restriction_matches_reshape_mean_bits(dim, data, zeros, seed):
    ratios = data.draw(st.lists(st.sampled_from([2, 4]), min_size=dim, max_size=dim))
    coarse_n = data.draw(st.lists(st.integers(4, 5), min_size=dim, max_size=dim))
    fine = make_grid(dim, [m * r for m, r in zip(coarse_n, ratios)], [1.0] * dim)
    coarse = make_grid(dim, coarse_n, [1.0] * dim)
    rng = np.random.default_rng(seed)
    # .values and .components are strided views of the padded buffers
    c = ScalarField(fine, _signed_data(rng, fine.n, zeros))
    u = FaceVectorField(fine, [_signed_data(rng, fine.face_shape(a), zeros) for a in range(dim)])

    want = c.values
    for a, r in enumerate(ratios):
        want = _reshape_mean(want, a, r)
    assert restrict_scalar(c, coarse).values.tobytes() == want.tobytes()

    got = restrict_velocity(u, coarse)
    for a in range(dim):
        sel = [slice(None)] * dim
        sel[a] = slice(None, None, ratios[a])
        want = u.components[a][tuple(sel)]
        for b in range(dim):
            if b != a:
                want = _reshape_mean(want, b, ratios[b])
        assert got.components[a].tobytes() == want.tobytes()

    # single axes, on a contiguous array and on the strided cell view
    for vals in (np.ascontiguousarray(c.values), c.values):
        for a, r in enumerate(ratios):
            assert _block_mean(vals, a, r).tobytes() == _reshape_mean(vals, a, r).tobytes()


def test_run_wsu_packs_two_scalars_per_sample(monkeypatch):
    """Each coarse level restricts c and the material at every sample, and c
    of the fine initial state once: a state holds no pressure to restrict."""
    calls = []
    pack = nsac.grid._pack

    def counting_pack(grid, arr):
        calls.append(grid.n)
        return pack(grid, arr)

    monkeypatch.setattr(nsac.grid, "_pack", counting_pack)
    cfg = small_cfg(init_kind="bubble", t_end=0.01)
    levels = run_wsu(cfg)
    rows = len(levels[cfg.wsu_levels[0]].t)
    for n in cfg.wsu_levels[:-1]:
        assert calls.count((n, n)) == 1 + 2 * rows
    assert len(calls) == len(cfg.wsu_levels[:-1]) * (1 + 2 * rows)


def test_restrict_incompatible_grids():
    fine = make_grid(2, (12, 12), (1, 1))
    coarse = make_grid(2, (8, 8), (1, 1))
    rng = np.random.default_rng(51)
    f = ScalarField(fine, rng.standard_normal(fine.n))
    with pytest.raises(ValueError):
        restrict_scalar(f, coarse)


# ---------------------------------------------------------------------------
# simulate driver


def _audit_every_step(cfg):
    """``run_energy_audit`` of ``cfg`` with a snapshot at every step: the
    state and pressure of step 0 and of each step, and the run's trace."""
    n_steps = step_count(cfg.t_end, cfg.dt)
    cfg = dataclasses.replace(cfg, output_every=1, sample_count=n_steps)
    shots = []
    trace = run_energy_audit(cfg, lambda i, state, p: shots.append((i, state, p)))
    assert [i for i, _, _ in shots] == list(range(n_steps + 1)) == list(range(len(trace.t)))
    return [(state, p) for _, state, p in shots], trace


def test_simulate_samples_and_cumulative_dissipation(monkeypatch):
    cfg = small_cfg(init_kind="bubble")
    made = []
    monkeypatch.setattr(nsac.experiments, "initial_state",
                        lambda cfg: made.append(initial_state(cfg)) or made[-1])
    history, trace = _audit_every_step(cfg)
    assert len(history) == 21  # t=0 plus 20 steps
    assert history[0][0] is made[0] and trace.t[0] == 0.0
    assert np.all(history[0][1].values == 0.0)  # no projection has run at step 0
    assert history[-1][0].t == pytest.approx(0.02, rel=1e-12)
    assert list(trace.t) == [s.t for s, _ in history]
    cums = list(trace.cumulative_diss)
    assert cums[0] == 0.0
    assert all(b >= a for a, b in zip(cums, cums[1:]))


def test_simulate_without_energy_matches_with_energy():
    cfg = small_cfg(init_kind="bubble", t_end=0.006)
    with_e, _ = _audit_every_step(cfg)
    without = list(simulate(initial_state(cfg), cfg.well, cfg.params, cfg.dt, 6))
    assert len(with_e) == 7 and len(without) == 6
    for (a, pa), (b, rb) in zip(with_e[1:], without):
        _assert_same_state(a, b, pa, rb.pressure)


def _assert_same_state(a, b, pa, pb):
    """a and b hold bitwise the same t, u and c, and pa and pb the same p."""
    assert a.t == b.t
    assert np.array_equal(a.c.values, b.c.values)
    assert np.array_equal(pa.values, pb.values)
    for ua, ub in zip(a.u.components, b.u.components):
        assert np.array_equal(ua, ub)


def test_sourced_simulate_forces_each_step_at_its_start():
    """``sources(t)`` is sampled at the time a step starts: a sourced run is
    bitwise a hand loop of ``step`` forced by the sources at ``state.t``."""
    params, well = FluidParams(nu=0.01, eps=0.05), DoubleWell()
    ms = ManufacturedSolution(params, well)
    grid = make_grid(2, (16, 16), (1, 1))
    state = ms.state_at(grid, 0.0)
    run = simulate(state, well, params, 1e-3, 4, sources=partial(ms.sources_at, grid))
    for got, got_report in run:
        state, report = step(state, well, params, 1e-3, *ms.sources_at(grid, state.t))
        _assert_same_state(got, state, got_report.pressure, report.pressure)
    assert state.t == 4e-3


@settings(max_examples=30, deadline=None)
@given(a=st.integers(1, 4), b=st.integers(1, 4), forced=st.booleans())
def test_simulate_in_two_chunks_equals_one_run(a, b, forced):
    """A run of a steps continued for b steps is bitwise one run of a + b
    steps, with or without sources: the lockstep studies run in chunks."""
    params, well = FluidParams(nu=0.01, eps=0.05), DoubleWell()
    ms = ManufacturedSolution(params, well)
    grid = make_grid(2, (8, 8), (1, 1))
    sources = partial(ms.sources_at, grid) if forced else None
    start = ms.state_at(grid, 0.0)
    *_, (mid, _) = simulate(start, well, params, 1e-3, a, sources)
    *_, (chunked, chunked_report) = simulate(mid, well, params, 1e-3, b, sources)
    *_, (whole, whole_report) = simulate(start, well, params, 1e-3, a + b, sources)
    _assert_same_state(chunked, whole, chunked_report.pressure, whole_report.pressure)


def test_step_count_needs_a_whole_number_of_steps():
    assert step_count(0.5, 2.5e-4) == 2000
    assert step_count(0.3, 0.1) == 3  # 0.3 / 0.1 is 3 - 1 ulp
    for t_end in (1e-5, 3e-4, 0.0, np.nan):
        with pytest.raises(ValueError, match="t_end"):
            step_count(t_end, 2.5e-4)


def test_simulate_trajectory_states_are_copies():
    """simulate yields a new state per step and leaves its input alone."""
    cfg = small_cfg(init_kind="vortex")
    state = initial_state(cfg)
    before = copy_state(state)
    states = [s for s, _ in simulate(state, cfg.well, cfg.params, cfg.dt, 4)]
    assert len({id(s) for s in states + [state]}) == 5
    assert state.t == 0.0
    assert states[-1].t > states[0].t
    assert np.array_equal(state.c.values, before.c.values)
    for ua, ub in zip(state.u.components, before.u.components):
        assert np.array_equal(ua, ub)


# ---------------------------------------------------------------------------
# studies (small smoke versions; benchmark scale lives in test_acceptance)


def test_run_energy_audit_equilibrium():
    cfg = small_cfg(init_kind="vortex", init_amplitude=0.0)
    trace = run_energy_audit(cfg)
    assert trace.audit <= 1e-12
    total = trace.kinetic + trace.interfacial + trace.potential
    assert total[0] == pytest.approx(total[-1], rel=1e-12)


def test_run_energy_audit_rejects_manufactured():
    with pytest.raises(ValueError):
        run_energy_audit(small_cfg(init_kind="manufactured"))


def test_run_wsu_structure_and_twin():
    cfg = small_cfg(init_kind="bubble", t_end=0.01)
    levels = run_wsu(cfg)
    assert list(levels) == [8, 16, 32]
    maxima = [trace.max_entropy for trace in levels.values()]
    assert levels[32].max_entropy == 0.0
    assert maxima[0] > maxima[1] > maxima[2] == 0.0
    assert maxima[0] / maxima[1] > 1.0


def _reference_wsu(cfg):
    """run_wsu with stored trajectories: each level runs on its own, its
    sampled states are kept, the fine ones are restricted, and every sample
    goes through the same row function."""
    well, params, levels = cfg.well, cfg.params, cfg.wsu_levels
    base_steps = step_count(cfg.t_end, cfg.dt_for(levels[0]))
    base_stride = max(1, base_steps // cfg.sample_count)

    def run(state, n):
        ratio = n // levels[0]
        n_steps, stride = base_steps * ratio, base_stride * ratio
        samples = [[state, None]]
        for i in range(1, n_steps + 1):
            state, report = step(state, well, params, cfg.dt_for(n))
            if i % stride == 0 or i == n_steps:
                samples.append([state, report.material_derivative])
        samples[0][1] = samples[1][1]  # t = 0 takes the first sample's material
        return samples

    fine = run(initial_state(cfg, cfg.grid(levels[-1])), levels[-1])
    out = {}
    for n in levels[:-1]:
        grid = cfg.grid(n)
        strong = [(restrict_state(s, grid), restrict_scalar(m, grid)) for s, m in fine]
        weak = run(copy_state(strong[0][0]), n)
        out[n] = pair_trace([pair_row(ws, ss, wm, sm, well, params)
                             for (ws, wm), (ss, sm) in zip(weak, strong)])
    out[levels[-1]] = pair_trace([pair_row(s, s, m, m, well, params) for s, m in fine])
    return out


@pytest.mark.parametrize(
    "t_end, rows",
    [(0.042, 12), (0.01, 6), (0.04, 11)],
    ids=["remainder-chunk", "stride-1", "stride-2"],
)
def test_run_wsu_lockstep_matches_separate_runs(t_end, rows):
    """Coarse steps 21 (stride 2 plus a 1-step chunk), 5 (stride 1), 20 (stride 2)."""
    cfg = small_cfg(init_kind="bubble", t_end=t_end, sample_count=10)
    levels = run_wsu(cfg)
    reference = _reference_wsu(cfg)
    for n, got in levels.items():
        assert len(got.t) == rows
        want = reference[n]
        for f in dataclasses.fields(want):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), (n, f.name)


def test_run_wsu_memory_does_not_grow_with_samples():
    """Lockstep keeps one state per level: 4x the samples, about the same peak."""
    peaks = {}
    for samples in (10, 40):
        cfg = small_cfg(init_kind="bubble", wsu_levels=(16, 32, 64), t_end=0.04,
                        sample_count=samples)
        _plan.cache_clear()
        _basis.cache_clear()
        _edge_weights.cache_clear()
        tracemalloc.start()
        try:
            run_wsu(cfg)
            peaks[samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[40] <= 1.2 * peaks[10], peaks


@pytest.mark.parametrize("levels", [(8, 16, 32, 64), (4, 8, 16, 32, 64)])
def test_run_wsu_builds_each_spectral_table_once(levels):
    """dim + 2 = 4 solve plans, 3 bases (neumann, wall, ghost) and one
    edge-weight table per square 2-D level, all live at once in lockstep."""
    _plan.cache_clear()
    _basis.cache_clear()
    _edge_weights.cache_clear()
    run_wsu(small_cfg(init_kind="bubble", wsu_levels=levels, t_end=0.008))
    assert _plan.cache_info().misses == 4 * len(levels)
    assert _basis.cache_info().misses == 3 * len(levels)
    assert _edge_weights.cache_info().misses == len(levels)
    assert not _edge_weights(make_grid(2, (8, 8), (1, 1)), (0, 1)).flags.writeable


def test_run_wsu_needs_three_levels_and_bubble():
    with pytest.raises(ValueError):
        run_wsu(small_cfg(init_kind="bubble", wsu_levels=(8, 16)))
    with pytest.raises(ValueError):
        run_wsu(small_cfg(init_kind="spinodal"))


def test_run_perturbation_zero_delta():
    cfg = small_cfg(init_kind="bubble", t_end=0.01)
    trace = run_perturbation(dataclasses.replace(cfg, perturbation_delta=0.0))
    assert np.all(trace.E == 0.0)
    assert trace.k == 0.0
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, perturbation_delta=-1.0)


def test_run_perturbation_initial_entropy_matches_delta():
    cfg = small_cfg(init_kind="bubble", t_end=0.01)
    trace = run_perturbation(dataclasses.replace(cfg, perturbation_delta=1e-3))
    assert trace.E[0] == pytest.approx(1e-6, rel=1e-10)
    assert not trace.violated


# ---------------------------------------------------------------------------
# manufactured solution


def test_manufactured_state_satisfies_boundary_conditions():
    params = FluidParams(nu=0.01, eps=0.05)
    ms = ManufacturedSolution(params, DoubleWell())
    grid = make_grid(2, (32, 32), (1, 1))
    state = ms.state_at(grid, 0.3)
    _assert_walls_zero(state.u)
    assert np.max(np.abs(divergence(state.u).values)) < 1e-3  # sampled field


def test_manufactured_zero_forcing_equilibrium_exact():
    """With no sources and equilibrium data the forced-run error is zero."""
    params = FluidParams(nu=0.01, eps=0.05)
    well = DoubleWell()
    ms = ManufacturedSolution(params, well)
    grid = make_grid(2, (16, 16), (1, 1))
    from nsac.solver import make_state, step

    state = make_state(grid)
    state.c.values[:] = well.y2
    for _ in range(3):
        state, _ = step(state, well, params, 1e-3)
    assert np.allclose(state.c.values, well.y2, atol=1e-13)
    assert all(np.all(c == 0.0) for c in state.u.components)


def test_manufactured_error_decreases_with_resolution():
    params, well = FluidParams(nu=0.01, eps=0.05), DoubleWell()
    ms = ManufacturedSolution(params, well)
    errs = []
    for n, dt in ((16, 1.28e-3), (32, 3.2e-4)):
        grid = make_grid(2, (n, n), (1, 1))
        *_, (final, _) = simulate(ms.state_at(grid, 0.0), well, params, dt,
                                  int(round(6.4e-3 / dt)), sources=partial(ms.sources_at, grid))
        errs.append(_state_distance(final, ms.state_at(grid, final.t)))
    assert errs[1] < 0.4 * errs[0]
