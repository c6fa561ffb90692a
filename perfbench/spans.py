"""Span tracing for the benchmark, installed from outside the program.

Each wrapper replaces a function at every ``nsac`` module attribute that
holds it, because callers bind names with ``from .x import f`` and look them
up in their own module (``nsac.experiments.step`` and ``nsac.manufactured.step``
are the same function as ``nsac.solver.step``). Methods are replaced on their
class. Spans are kept in memory as per-name totals; a span's self time is its
duration minus the time covered by the spans it called.
"""

from __future__ import annotations

import math
import sys
import time

clock = time.perf_counter

# (span name, module, attribute). A dotted attribute is a method on a class.
SPANS = (
    ("experiments.run_wsu", "nsac.experiments", "run_wsu"),
    ("experiments.run_manufactured", "nsac.experiments", "run_manufactured"),
    ("experiments.simulate", "nsac.experiments", "simulate"),
    ("experiments.restrict_trajectory", "nsac.experiments", "restrict_trajectory"),
    ("solver.step", "nsac.solver", "step"),
    ("solver.allen_cahn_step", "nsac.solver", "allen_cahn_step"),
    ("solver.momentum_step", "nsac.solver", "momentum_step"),
    ("solver.advect_scalar", "nsac.solver", "advect_scalar"),
    ("solver.advection_term", "nsac.solver", "advection_term"),
    ("solver.capillary_force", "nsac.solver", "capillary_force"),
    ("solver.solve_neumann_poisson", "nsac.solver", "solve_neumann_poisson"),
    ("solver.cg", "nsac.solver", "conjugate_gradient"),
    ("grid.laplacian", "nsac.grid", "laplacian"),
    ("grid.gradient", "nsac.grid", "gradient"),
    ("grid.divergence", "nsac.grid", "divergence"),
    ("potential.Fprime", "nsac.potential", "DoubleWell.eval_Fprime"),
    ("diagnostics.total_energy", "nsac.diagnostics", "total_energy"),
    ("diagnostics.dissipation_rates", "nsac.diagnostics", "dissipation_rates"),
    ("diagnostics.rel_entropy_trace", "nsac.diagnostics", "rel_entropy_trace"),
    ("diagnostics.rei_terms", "nsac.diagnostics", "rei_terms"),
    ("diagnostics.gronwall_fit", "nsac.diagnostics", "gronwall_fit"),
    # its call count is the number of states a study stores
    ("diagnostics.trajectory_append", "nsac.diagnostics", "Trajectory.append"),
    ("manufactured.init", "nsac.manufactured", "ManufacturedSolution.__init__"),
    ("manufactured.sources_at", "nsac.manufactured", "ManufacturedSolution.sources_at"),
    ("manufactured.state_at", "nsac.manufactured", "ManufacturedSolution.state_at"),
    ("io.write_vtk", "nsac.io", "write_vtk"),
    ("io.write_energy_csv", "nsac.io", "write_energy_csv"),
    ("io.write_entropy_csv", "nsac.io", "write_entropy_csv"),
    ("io.write_rei_csv", "nsac.io", "write_rei_csv"),
    ("io.manifest_write", "nsac.io", "RunManifest.write"),
)

ROOT = "cli.command"

# conjugate_gradient serves two solves; its span is named after the caller.
CG_BY_PARENT = {
    "solver.allen_cahn_step": "solver.cg_ac",
    "solver.momentum_step": "solver.cg_visc",
}

# Span names as reported: the root, every wrapped function, and the CG split.
REPORTED = (ROOT,) + tuple(
    name for name, _, _ in SPANS if name != "solver.cg"
) + ("solver.cg_ac", "solver.cg_visc")


class Patches:
    """Replaced attributes, so that they can be put back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def resolve(self, module: str, attr: str):
        """Return (owner, name, function); None if the module is not loaded.

        Raises AttributeError when the function no longer exists.
        """
        owner = sys.modules.get(module)
        if owner is None:
            return None
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if name not in vars(owner):
            raise AttributeError(f"{module}.{attr}")
        return owner, name, vars(owner)[name]

    def replace(self, owner, name: str, original, wrapper):
        if isinstance(owner, type):
            self._set(owner, name, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nsac" or mod_name.startswith("nsac.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, name: str, value):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


class StopAtFirstStep(BaseException):
    """Ends a set-up probe; not an Exception, so no handler in nsac takes it."""


class FirstStepMarker:
    """Records when ``solver.step`` is first called, then uninstalls itself.

    With ``stop`` it ends the study there by raising StopAtFirstStep.
    """

    def __init__(self, stop: bool = False):
        self.time: float | None = None
        self.stop = stop
        self._patches = Patches()

    def install(self):
        found = self._patches.resolve("nsac.solver", "step")
        if found is None:
            raise AttributeError("nsac.solver is not loaded")
        owner, name, original = found

        def marker(*args, **kwargs):
            self.time = time.monotonic()
            self._patches.restore()
            if self.stop:
                raise StopAtFirstStep
            return original(*args, **kwargs)

        self._patches.replace(owner, name, original, marker)


class Recorder:
    """Per-span call counts and self time, plus the work counts of a run."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.root_s = 0.0
        self.step_ms: list[float] = []
        self.level_steps: dict[str, int] = {}
        self.cell_steps = 0
        self.cg_iters: dict[str, int] = {}
        self.status: dict[str, str] = {}
        self._patches = Patches()

    def enter(self, name: str):
        self.stack.append([name, clock(), 0.0])

    def exit(self) -> float:
        end = clock()
        name, start, covered = self.stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (duration - covered)
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def run_root(self, fn, *args):
        self.enter(ROOT)
        try:
            return fn(*args)
        finally:
            self.root_s = self.exit()

    def install(self):
        for span, module, attr in SPANS:
            try:
                found = self._patches.resolve(module, attr)
            except AttributeError:
                self.status[span] = "absent"
                continue
            if found is None:
                self.status[span] = "not loaded"
                continue
            owner, name, original = found
            if span == "solver.step":
                wrapper = self._step_wrapper(original)
            elif span == "solver.cg":
                wrapper = self._cg_wrapper(original)
            else:
                wrapper = self._wrapper(span, original)
            self._patches.replace(owner, name, original, wrapper)
            self.status[span] = "traced"

    def uninstall(self):
        self._patches.restore()

    def _wrapper(self, span: str, fn):
        def wrapper(*args, **kwargs):
            self.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def _step_wrapper(self, fn):
        def wrapper(state, *args, **kwargs):
            self.enter("solver.step")
            try:
                return fn(state, *args, **kwargs)
            finally:
                self.step_ms.append(1e3 * self.exit())
                n = tuple(state.grid.n)
                key = "x".join(str(v) for v in n)
                self.level_steps[key] = self.level_steps.get(key, 0) + 1
                self.cell_steps += math.prod(n)

        return wrapper

    def _cg_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            span = CG_BY_PARENT.get(parent, "solver.cg_other")
            self.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            self.cg_iters[span] = self.cg_iters.get(span, 0) + int(result[1])
            return result

        return wrapper

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "root_s": self.root_s,
            "step_ms": self.step_ms,
            "level_steps": self.level_steps,
            "cell_steps": self.cell_steps,
            "cg_iters": self.cg_iters,
            "status": self.status,
        }
