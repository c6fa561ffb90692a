"""The names the benchmark's span tracer wraps from outside the program.

``perfbench/spans.py`` replaces functions by module attribute; a refactor
that renames one silently turns its span into "absent", and a study that
stops stepping through ``solver.step`` as ``nsac`` binds it blinds the
set-up marker. The tracer is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

import nsac.cli  # loads every module a study uses

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# functions deleted before this check existed; their spans read absent
ALREADY_ABSENT = {
    "solver.cg",
    "experiments.restrict_trajectory",
    "diagnostics.rel_entropy_trace",
    "diagnostics.rei_terms",
    "diagnostics.trajectory_append",
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    spans = _load_spans()
    patches = spans.Patches()
    absent = set()
    for span, module, attr in spans.SPANS:
        try:
            found = patches.resolve(module, attr)
        except AttributeError:
            absent.add(span)
            continue
        assert found is not None, f"{module} is not loaded"
    assert absent <= ALREADY_ABSENT


def test_every_study_stops_at_the_first_step_marker(tmp_path):
    """The benchmark's set-up probe ends each command at its first step."""
    spans = _load_spans()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n = 16\ntime.dt = 1e-3\ntime.t_end = 0.004\n"
                   "init.kind = bubble\nwsu.levels = 8,16,32\n")
    for command in ("simulate", "energy-audit", "wsu", "perturb", "mms"):
        marker = spans.FirstStepMarker(stop=True)
        marker.install()
        try:
            with pytest.raises(spans.StopAtFirstStep):
                nsac.cli.main([command, "--config", str(cfg),
                               "--out", str(tmp_path / command), "--quiet"])
        finally:
            marker._patches.restore()  # the marker has no public uninstall
        assert marker.time is not None, command


# the per-step spans of a study; one that a refactor inlines reads 0 calls
STEP_SPANS = (
    "solver.allen_cahn_step",
    "solver.momentum_step",
    "solver.advection_term",
    "solver.capillary_force",
    "solver.solve_neumann_poisson",
    "potential.Fprime",
)

# calls in the 4-step simulate run below
CARRY_SPANS = {
    "grid.gradient": 6,
    "grid.divergence": 9,
    "diagnostics.total_energy": 5,
    "diagnostics.dissipation_rates": 4,
}


def test_traced_simulate_calls_each_step_span_once_per_step(tmp_path):
    spans = _load_spans()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n = 16\ntime.dt = 1e-3\ntime.t_end = 0.004\ninit.kind = bubble\n")
    recorder = spans.Recorder()
    recorder.install()
    try:
        code = recorder.run_root(
            nsac.cli.main,
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"],
        )
    finally:
        recorder.uninstall()
    assert code == 0
    assert recorder.calls["solver.step"] == 4
    assert {span: recorder.calls.get(span, 0) for span in STEP_SPANS} == dict.fromkeys(STEP_SPANS, 4)
    # the carried grad c and lap c: the first step and the first energy make
    # them, every later step and energy reuses them, so a lost carry shows here
    assert {span: recorder.calls.get(span, 0) for span in CARRY_SPANS} == CARRY_SPANS
    # the check perfbench/run.py makes on every traced repetition
    assert min(recorder.self_s.values()) >= 0.0
    assert abs(sum(recorder.self_s.values()) / recorder.root_s - 1.0) <= 1e-6


def test_traced_wsu_reuses_the_carried_gradient(tmp_path):
    """A pair row takes grad C from a strong state that carries it: the twin
    rows after t = 0. A restricted strong state carries nothing."""
    spans = _load_spans()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n = 8\ntime.dt = 1e-3\ntime.t_end = 0.004\n"
                   "init.kind = bubble\nwsu.levels = 8,16,32\n")
    recorder = spans.Recorder()
    recorder.install()
    try:
        code = recorder.run_root(
            nsac.cli.main,
            ["wsu", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"],
        )
    finally:
        recorder.uninstall()
    # the REI tolerance fails at 16^2 on these coarse levels; every row is still paired
    assert code == 2
    steps, rows, coarse = 4 + 8 + 16, 5, 2
    assert recorder.calls["solver.step"] == steps
    # one per step, one more for the first step of each level; per row, grad(c - C)
    # and grad C on each coarse level, and on the twin grad(c - C), plus grad C at t = 0
    assert recorder.calls["grid.gradient"] == steps + 3 + rows * (2 * coarse + 1) + 1
