"""Initial data library, grid transfer, drivers, convergence studies."""

import numpy as np
import pytest

from nsac.diagnostics import kinetic_energy
from nsac.experiments import (
    ExperimentConfig,
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
    step_count,
    stream_function_velocity,
)
from nsac.grid import NEUMANN_ZERO, ScalarField, divergence, integrate, make_grid
from nsac.manufactured import ManufacturedSolution
from nsac.solver import FluidParams
from nsac.potential import quartic_well


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


def test_spinodal_seeded_and_in_range():
    cfg = small_cfg(init_kind="spinodal", init_seed=7)
    s1 = initial_state(cfg)
    s2 = initial_state(cfg)
    assert np.array_equal(s1.c.values, s2.c.values)
    assert np.max(np.abs(s1.c.values)) <= 0.05
    s3 = initial_state(small_cfg(init_kind="spinodal", init_seed=8))
    assert not np.array_equal(s1.c.values, s3.c.values)


def test_vortex_is_discretely_divergence_free():
    grid = make_grid(2, (32, 32), (1, 1))
    u = stream_function_velocity(grid, 0.25)
    assert np.max(np.abs(divergence(u).values)) < 1e-13
    for a in (0, 1):
        assert np.all(u.components[a][tuple(
            slice(None) if b != a else 0 for b in range(2))] == 0.0)


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
    f = ScalarField(fine, rng.standard_normal(fine.n), NEUMANN_ZERO)
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


def test_restrict_incompatible_grids():
    fine = make_grid(2, (12, 12), (1, 1))
    coarse = make_grid(2, (8, 8), (1, 1))
    rng = np.random.default_rng(51)
    f = ScalarField(fine, rng.standard_normal(fine.n), NEUMANN_ZERO)
    with pytest.raises(ValueError):
        restrict_scalar(f, coarse)


# ---------------------------------------------------------------------------
# simulate driver


def test_simulate_samples_and_cumulative_dissipation():
    cfg = small_cfg(init_kind="bubble")
    state = initial_state(cfg)
    traj, reports = simulate(state, cfg.well, cfg.params, cfg.dt, 20, 5)
    assert len(traj.states) == 5  # t=0 plus 4 strides
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.02, rel=1e-12)
    cums = [r.cumulative_diss for r in reports]
    assert all(b >= a for a, b in zip(cums, cums[1:]))
    assert traj.materials[0] is not None  # backfilled at finalize


def test_simulate_without_energy_matches_with_energy():
    cfg = small_cfg(init_kind="bubble")
    with_e, reports = simulate(initial_state(cfg), cfg.well, cfg.params, cfg.dt, 6, 2)
    without, none = simulate(initial_state(cfg), cfg.well, cfg.params, cfg.dt, 6, 2,
                             energy=False)
    assert none == [] and len(reports) == 7
    assert np.array_equal(with_e.times, without.times)
    for a, b in zip(with_e.states, without.states):
        assert a.t == b.t
        assert np.array_equal(a.c.values, b.c.values)
        assert np.array_equal(a.p.values, b.p.values)
        for ua, ub in zip(a.u.components, b.u.components):
            assert np.array_equal(ua, ub)
    for a, b in zip(with_e.materials, without.materials):
        assert np.array_equal(a.values, b.values)


def test_step_count_needs_a_whole_number_of_steps():
    assert step_count(0.5, 2.5e-4) == 2000
    assert step_count(0.3, 0.1) == 3  # 0.3 / 0.1 is 3 - 1 ulp
    for t_end in (1e-5, 3e-4, 0.0, np.nan):
        with pytest.raises(ValueError, match="t_end"):
            step_count(t_end, 2.5e-4)


def test_simulate_trajectory_states_are_copies():
    cfg = small_cfg(init_kind="vortex")
    state = initial_state(cfg)
    traj, _ = simulate(state, cfg.well, cfg.params, cfg.dt, 4, 2)
    assert traj.states[0].t == 0.0
    assert traj.states[-1].t > traj.states[0].t


# ---------------------------------------------------------------------------
# studies (small smoke versions; benchmark scale lives in test_acceptance)


def test_run_energy_audit_equilibrium():
    cfg = small_cfg(init_kind="vortex", init_amplitude=0.0)
    reports, violation = run_energy_audit(cfg)
    assert violation <= 1e-12
    assert reports[0].total == pytest.approx(reports[-1].total, rel=1e-12)


def test_run_energy_audit_rejects_manufactured():
    with pytest.raises(ValueError):
        run_energy_audit(small_cfg(init_kind="manufactured"))


def test_run_wsu_structure_and_twin():
    cfg = small_cfg(init_kind="bubble", t_end=0.01)
    rep = run_wsu(cfg)
    assert [lv.n for lv in rep.levels] == [8, 16, 32]
    assert rep.twin_entropy_max == 0.0
    maxima = [lv.max_entropy for lv in rep.levels]
    assert maxima[0] > maxima[1] > maxima[2] == 0.0
    assert len(rep.refinement_ratios) == 1
    assert rep.refinement_ratios[0] > 1.0


def test_run_wsu_needs_three_levels_and_bubble():
    with pytest.raises(ValueError):
        run_wsu(small_cfg(init_kind="bubble", wsu_levels=(8, 16)))
    with pytest.raises(ValueError):
        run_wsu(small_cfg(init_kind="spinodal"))


def test_run_perturbation_zero_delta():
    cfg = small_cfg(init_kind="bubble", t_end=0.01)
    trace, fit = run_perturbation(cfg, 0.0)
    assert np.all(trace.E == 0.0)
    assert fit.k == 0.0
    with pytest.raises(ValueError):
        run_perturbation(cfg, -1.0)


def test_run_perturbation_initial_entropy_matches_delta():
    cfg = small_cfg(init_kind="bubble", t_end=0.01)
    trace, fit = run_perturbation(cfg, 1e-3)
    assert trace.E[0] == pytest.approx(1e-6, rel=1e-10)
    assert not fit.violated


# ---------------------------------------------------------------------------
# manufactured solution


def test_manufactured_state_satisfies_boundary_conditions():
    params = FluidParams(nu=0.01, eps=0.05)
    ms = ManufacturedSolution(params, quartic_well())
    grid = make_grid(2, (32, 32), (1, 1))
    state = ms.state_at(grid, 0.3)
    for a in (0, 1):
        sel = tuple(slice(None) if b != a else 0 for b in range(2))
        assert np.max(np.abs(state.u.components[a][sel])) < 1e-14
    assert np.max(np.abs(divergence(state.u).values)) < 1e-3  # sampled field


def test_manufactured_zero_forcing_equilibrium_exact():
    """With no sources and equilibrium data the forced-run error is zero."""
    params = FluidParams(nu=0.01, eps=0.05)
    well = quartic_well()
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
    params = FluidParams(nu=0.01, eps=0.05)
    ms = ManufacturedSolution(params, quartic_well())
    errs = []
    for n, dt in ((16, 1.28e-3), (32, 3.2e-4)):
        grid = make_grid(2, (n, n), (1, 1))
        errs.append(ms.run_error(grid, dt, int(round(6.4e-3 / dt))))
    assert errs[1] < 0.4 * errs[0]
