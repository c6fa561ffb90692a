"""The per-phase benchmark script, run at toy sizes: every phase is
measured, each solve is told apart, and every wrapper comes off again."""

import importlib.util
import math
import pathlib
import sys

import pytest

PHASES_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "phases.py"


def _load_phases():
    spec = importlib.util.spec_from_file_location("bench_phases", PHASES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("dim, n", [(2, 8), (3, 4)])
def test_phases_cover_each_step_phase_and_restore_the_wrapped_names(dim, n):
    phases = _load_phases()
    originals = [getattr(owner, attr) for owner, attr, _ in phases.WRAPPED]
    holders = [(module, key, value)
               for name, module in list(sys.modules.items()) if name.startswith("nsac")
               for key, value in vars(module).items()
               if any(value is original for original in originals)]
    assert len(holders) > len(originals)  # experiments imports total_energy, too

    result = phases.measure(dim, n, repeats=1, steps=2)

    assert list(result["phases"]) == list(phases.PHASES)
    for name, phase in result["phases"].items():
        assert all(math.isfinite(v) for v in phase["ms_per_step"].values()), name
    calls = {name: phase["calls_per_step"] for name, phase in result["phases"].items()}
    assert calls["allen_cahn_solve"] == 1
    assert calls["viscous_solves"] == dim
    assert calls["projection_solve"] == 1
    assert calls["advection"] == 1
    assert calls["capillary_force"] == 1
    for module, key, value in holders:
        assert getattr(module, key) is value, f"{module.__name__}.{key}"
