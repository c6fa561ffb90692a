"""Per-phase timing of the solver step: ms per step for each phase of
``solver.step``, and for the energy and dissipation computed after it, at
64², 128², 256² and 32³.

Usage (from the repository root):

    python bench/phases.py BENCH_<n>.json

At each size a bubble with a seeded small random velocity (walls pinned)
takes two warm-up steps, then 50 timed steps through
``experiments.simulate``, each followed by ``total_energy`` and
``dissipation_rates`` as in ``run_energy_audit``. That is one repeat; each
phase reports the median and quartiles of its ms per step over 7 repeats,
and its calls per step. The phases come from wrappers installed by module
attribute around the solver's functions and restored on exit:

- ``allen_cahn_rhs``: ``allen_cahn_step`` minus its solve (the right-hand
  side with F', the new c and the material derivative)
- ``allen_cahn_solve``, ``viscous_solves`` (one per axis) and
  ``projection_solve``: the calls of ``_spectral_solve``, told apart by
  their boundary kinds and shift
- ``advection`` and ``capillary_force``
- ``step_rest``: the step minus the six phases above
- ``step``: the whole step, as ``simulate`` yields it
- ``energy``: ``total_energy`` plus ``dissipation_rates``

The process runs in one thread, with the BLAS/OpenMP thread variables of
``perfbench/run.py`` pinned to 1 before numpy loads, and the allocator
policy of ``nsac.cli``. The output file holds the numbers and a record of
the machine.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    # before numpy loads, so that BLAS starts one thread; nsac from this checkout
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from nsac import cli, diagnostics, experiments, solver  # noqa: E402
from nsac.grid import FaceVectorField, enforce_dirichlet, make_grid  # noqa: E402
from nsac.potential import DoubleWell  # noqa: E402

SIZES = ((2, 64), (2, 128), (2, 256), (3, 32))
WELL = DoubleWell()
PARAMS = solver.FluidParams(nu=0.01, eps=0.05)
DT = 1e-4
SEED = 7
WARMUP_STEPS = 2
STEPS = 50  # timed steps per repeat
REPEATS = 7

PHASES = ("allen_cahn_rhs", "allen_cahn_solve", "advection", "capillary_force",
          "viscous_solves", "projection_solve", "step_rest", "step", "energy")
STEP_PARTS = PHASES[:6]

clock = time.perf_counter


def _solve_span(grid, rhs, kinds, shift, coef) -> str:
    """The phase of one ``_spectral_solve`` call, from its arguments."""
    if "wall" in kinds:
        return "viscous_solves"
    return "projection_solve" if shift == 0.0 else "allen_cahn_solve"


def _named(name):
    return lambda *args, **kwargs: name


# (module, attribute, the span name of a call from its arguments)
WRAPPED = (
    (solver, "allen_cahn_step", _named("allen_cahn_step")),
    (solver, "_spectral_solve", _solve_span),
    (solver, "advection_term", _named("advection")),
    (solver, "capillary_force", _named("capillary_force")),
    (diagnostics, "total_energy", _named("total_energy")),
    (diagnostics, "dissipation_rates", _named("dissipation_rates")),
)


class Spans:
    """Calls and seconds per span name."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)

    def wrap(self, fn, span_of):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            name = span_of(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += clock() - start
                self.calls[name] += 1
        return timed


@contextmanager
def installed(spans: Spans):
    """Wrap each function of ``WRAPPED`` at every nsac module attribute that
    holds it (callers bind names with ``from .x import f``); every name is
    put back on exit, also on error."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "nsac" or name.startswith("nsac."))]
    saved = []
    try:
        for owner, attr, span_of in WRAPPED:
            original = getattr(owner, attr)
            wrapper = spans.wrap(original, span_of)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, value))
                        setattr(module, key, wrapper)
        yield spans
    finally:
        for module, key, value in reversed(saved):
            setattr(module, key, value)


def bubble_state(dim: int, n: int) -> solver.State:
    """A bubble with a seeded small random velocity whose walls are pinned."""
    grid = make_grid(dim, (n,) * dim, (1.0,) * dim)
    rng = np.random.default_rng(SEED)
    state = solver.make_state(grid)
    state.c.values[:] = experiments.bubble_concentration(grid, PARAMS.eps)
    comps = [0.1 * rng.standard_normal(grid.face_shape(a)) for a in range(dim)]
    state.u = enforce_dirichlet(FaceVectorField(grid, comps))
    return state


def _one_repeat(spans: Spans, dim: int, n: int, steps: int) -> tuple[dict, dict]:
    """Seconds and calls per phase over ``steps`` steps after the warm-up."""
    for state, report in experiments.simulate(bubble_state(dim, n), WELL, PARAMS, DT,
                                              WARMUP_STEPS):
        del report
    spans.reset()
    stepping = experiments.simulate(state, WELL, PARAMS, DT, steps)
    del state
    step_s = 0.0
    for _ in range(steps):
        start = clock()
        state, report = next(stepping)
        step_s += clock() - start
        diagnostics.total_energy(state, WELL, PARAMS)
        diagnostics.dissipation_rates(state, report, PARAMS)
        del report

    s, c = spans.seconds, spans.calls
    seconds = {
        "allen_cahn_rhs": s["allen_cahn_step"] - s["allen_cahn_solve"],
        **{name: s[name] for name in STEP_PARTS[1:]},
        "step": step_s,
        "energy": s["total_energy"] + s["dissipation_rates"],
    }
    seconds["step_rest"] = step_s - sum(seconds[name] for name in STEP_PARTS)
    calls = {
        "allen_cahn_rhs": c["allen_cahn_step"],
        **{name: c[name] for name in STEP_PARTS[1:]},
        "step_rest": steps,
        "step": steps,
        "energy": c["total_energy"] + c["dissipation_rates"],
    }
    return seconds, calls


def measure(dim: int, n: int, repeats: int, steps: int) -> dict:
    """Each phase's ms per step (median and quartiles over the repeats) and
    calls per step at ``n`` cells per axis in ``dim`` dimensions."""
    runs = []
    with installed(Spans()) as spans:
        for _ in range(repeats):
            runs.append(_one_repeat(spans, dim, n, steps))
    phases = {}
    for name in PHASES:
        ms = [1e3 * seconds[name] / steps for seconds, _ in runs]
        q1, median, q3 = (float(v) for v in np.percentile(ms, [25, 50, 75]))
        per_step = {calls[name] / steps for _, calls in runs}
        if len(per_step) != 1:
            raise RuntimeError(f"{name}: calls per step differ between repeats: {per_step}")
        per_step = per_step.pop()
        phases[name] = {"ms_per_step": {"median": median, "q1": q1, "q3": q3},
                        "calls_per_step": int(per_step) if per_step.is_integer() else per_step}
    return {"dim": dim, "n": n, "phases": phases}


def machine() -> dict:
    """CPU, Python, numpy, BLAS and thread pins of this process."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip()
                         for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_pins": {key: os.environ.get(key) for key in THREAD_PINS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="output JSON file, e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)
    cli.set_allocator_policy()
    sizes = {}
    for dim, n in SIZES:
        key = "x".join([str(n)] * dim)
        sizes[key] = measure(dim, n, REPEATS, STEPS)
        step = sizes[key]["phases"]["step"]["ms_per_step"]["median"]
        print(f"{key}: {step:.3f} ms per step", file=sys.stderr)
    record = {
        "benchmark": "bench/phases.py",
        "unit": "ms per step",
        "settings": {"repeats": REPEATS, "steps": STEPS,
                     "warmup_steps": WARMUP_STEPS, "dt": DT, "nu": PARAMS.nu,
                     "eps": PARAMS.eps, "seed": SEED},
        "machine": machine(),
        "sizes": sizes,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
