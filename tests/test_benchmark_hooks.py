"""The names the benchmark's span tracer wraps from outside the program.

``perfbench/spans.py`` replaces functions by module attribute; a refactor
that renames one silently turns its span into "absent", and one that stops
calling ``solver.step`` through ``experiments``/``manufactured`` blinds the
set-up marker. The tracer is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import nsac.cli  # noqa: F401  (loads every module a study uses)
import nsac.experiments
import nsac.manufactured
import nsac.solver

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


def test_studies_step_through_solver_step():
    assert nsac.experiments.step is nsac.solver.step
    assert nsac.manufactured.step is nsac.solver.step
