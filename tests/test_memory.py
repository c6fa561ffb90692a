"""Memory budgets: what a step, a pair row and a lockstep study keep alive.

A budget counts the tracemalloc peak of one call above what was allocated
before it, in buffers of ``grid.size`` doubles, with the solve plans and
the edge-weight tables already cached. A stepped state is 2 dim + 2 of
them (u, c, the carried grad c and lap c), and its step's report 2 more
(the material and the pressure).
"""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

import nsac.experiments
from nsac.diagnostics import pair_row
from nsac.experiments import (
    ExperimentConfig,
    bubble_concentration,
    run_energy_audit,
    run_manufactured,
    run_perturbation,
    run_wsu,
)
from nsac.grid import FaceVectorField, enforce_dirichlet, make_grid
from nsac.potential import DoubleWell
from nsac.solver import FluidParams, make_state, step

WELL = DoubleWell()
PARAMS = FluidParams(nu=0.01, eps=0.05)
DT = 1e-4


def _stepped_state(dim, n):
    """A bubble with a random velocity, stepped twice: it carries grad c and
    lap c, and every plan its next step needs is cached."""
    grid = make_grid(dim, (n,) * dim, (1.0,) * dim)
    rng = np.random.default_rng(7)
    state = make_state(grid)
    state.c.values[:] = bubble_concentration(grid, PARAMS.eps)
    comps = [0.1 * rng.standard_normal(grid.face_shape(a)) for a in range(dim)]
    state.u = enforce_dirichlet(FaceVectorField(grid, comps))
    for _ in range(2):
        state, report = step(state, WELL, PARAMS, DT)
    pair_row(state, state, report.material_derivative, report.material_derivative, WELL, PARAMS)
    return state, report


def _transient_buffers(grid, call):
    """Peak allocation of ``call()`` above the allocation before it, in buffers."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / (grid.size * 8)


# (dim, n): most buffers for one step, and for one twin pair row
BUDGETS = {(2, 64): (13, 18), (3, 16): (17, 30)}


@pytest.mark.parametrize("dim, n", BUDGETS)
def test_step_memory_budget(dim, n):
    """The new state and report (2 dim + 4 buffers) plus what the solves
    need; the old carry is freed once the Allen-Cahn right-hand side is
    formed, and the advection block, the capillary force and the viscous
    right-hand side before the solves that follow them."""
    state, _ = _stepped_state(dim, n)
    used = _transient_buffers(state.grid, lambda: step(state, WELL, PARAMS, DT))
    assert used <= BUDGETS[dim, n][0], used


@pytest.mark.parametrize("dim, n", BUDGETS)
def test_twin_pair_row_memory_budget(dim, n):
    """The dim x dim velocity gradient of u - U and the cell averages, with
    every sum over axes in one accumulator, not (dim, dim) product stacks."""
    state, report = _stepped_state(dim, n)
    m = report.material_derivative
    used = _transient_buffers(state.grid, lambda: pair_row(state, state, m, m, WELL, PARAMS))
    assert used <= BUDGETS[dim, n][1], used


@pytest.mark.parametrize("study", ["wsu", "perturb"])
def test_lockstep_pairs_hold_no_earlier_sample(monkeypatch, study):
    """At each pair row, the initial state and the weak states of earlier
    samples are gone: the study holds only the current sample."""
    initial_state = nsac.experiments.initial_state
    initial, earlier = [], []
    alive_at = []  # (t, initial state alive, earlier weak states alive)

    def tracked_initial_state(cfg, grid=None):
        state = initial_state(cfg, grid)
        initial.append(weakref.ref(state))
        return state

    def watching_pair_row(weak, *args):
        # levels reach a sample time to within roundoff
        older = [ref for t, ref in earlier if t < weak.t - 1e-9]
        alive_at.append((weak.t, initial[0]() is not None, sum(r() is not None for r in older)))
        earlier.append((weak.t, weakref.ref(weak)))
        return pair_row(weak, *args)

    monkeypatch.setattr(nsac.experiments, "initial_state", tracked_initial_state)
    monkeypatch.setattr(nsac.experiments, "pair_row", watching_pair_row)
    cfg = ExperimentConfig(grid_n=16, dt=1e-3, t_end=0.006, wsu_levels=(8, 16, 32),
                           sample_count=3, init_kind="bubble")
    if study == "wsu":
        run_wsu(cfg)
    else:
        run_perturbation(dataclasses.replace(cfg, perturbation_delta=1e-3))
    assert len(initial) == 1
    first = [alive for t, alive, _ in alive_at if t == 0.0]
    later = [alive for t, alive, _ in alive_at if t > 0.0]
    assert first and all(first)
    assert len(later) >= 3 and not any(later), alive_at
    assert all(count == 0 for _, _, count in alive_at), alive_at


def test_energy_run_holds_no_earlier_state():
    """At each snapshot from step 2 on, the initial state and every state
    before the previous one are gone: the energy run keeps no state older
    than the input of the step it is taking."""
    refs, alive_at = [], []  # alive_at: (step, states older than the previous alive)

    def snapshot(i, state, pressure):
        refs.append(weakref.ref(state))
        alive_at.append((i, sum(ref() is not None for ref in refs[:-2])))

    cfg = ExperimentConfig(grid_n=16, dt=1e-3, t_end=0.006, sample_count=6, output_every=1,
                           init_kind="bubble")
    run_energy_audit(cfg, snapshot)
    assert [i for i, _ in alive_at] == list(range(7))
    assert all(count == 0 for _, count in alive_at), alive_at


@pytest.mark.parametrize("study", ["energy-audit", "mms", "wsu"])
def test_no_run_holds_a_finished_step(monkeypatch, study):
    """When a step starts, no earlier step's report (its material derivative
    and pressure) is alive: a run keeps at most the material a sample pairs."""
    refs, alive_at = [], []  # alive_at: earlier reports alive at each step call

    def watching_step(*args):
        alive_at.append(sum(ref() is not None for ref in refs))
        state, report = step(*args)
        refs.append(weakref.ref(report))
        return state, report

    monkeypatch.setattr(nsac.experiments, "step", watching_step)
    cfg = ExperimentConfig(grid_n=16, dt=1e-3, t_end=0.006, sample_count=3, output_every=1,
                           init_kind="bubble", wsu_levels=(8, 16, 32))
    if study == "energy-audit":
        run_energy_audit(cfg, lambda i, state, pressure: None)
    elif study == "mms":
        run_manufactured(dataclasses.replace(cfg, wsu_levels=(8, 16)))
    else:
        run_wsu(cfg)
    assert len(alive_at) == {"energy-audit": 6, "mms": 800, "wsu": 21}[study]
    assert max(alive_at) == 0, alive_at
