"""Config parsing and every output format (CSV, legacy VTK, manifest).

Outputs are written, never read back here. Reals are printed with 17
significant digits, so a correctly rounded parser (``numpy.loadtxt``, say)
reads each binary64 value back bitwise. The config format is line-oriented
``section.key = value`` with ``#`` comments; unknown keys are hard errors.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .certificates import Gate
from .diagnostics import ConvergenceTrace, EnergyTrace, PairTrace
from .experiments import ExperimentConfig
from .grid import ScalarField, avg_to_cells
from .solver import State

FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration entry."""


# ---------------------------------------------------------------------------
# config

_FIELDS = {f.metadata["key"]: f for f in dataclasses.fields(ExperimentConfig)}
# the one rule over two keys; a parse error on it names the later of their lines
_WELL_KEYS = ("potential.f1", "potential.f2")


def parse_config_text(text: str) -> ExperimentConfig:
    kwargs, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        f = _FIELDS[key]
        kind = type(f.default)  # a tuple holds ints
        try:
            value = tuple(int(p) for p in raw.split(",")) if kind is tuple else kind(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot parse value {raw!r} for {key}")
        try:
            f.metadata["check"](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}")
        kwargs[f.name], lines[key] = value, lineno
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"line {max(lines.get(k, 0) for k in _WELL_KEYS)}: {exc}")


def parse_config(path: str) -> ExperimentConfig:
    """Parse a config file; an empty file yields the full default config."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config_text(text)


def _format_value(f: dataclasses.Field, value) -> str:
    kind = type(f.default)
    if kind is tuple:
        return ",".join(str(v) for v in value)
    return FLOAT_FMT % value if kind is float else str(value)


def config_echo(cfg: ExperimentConfig) -> dict[str, str]:
    """Every key with its value as a config file writes it."""
    return {key: _format_value(f, getattr(cfg, f.name)) for key, f in _FIELDS.items()}


def serialize_config(cfg: ExperimentConfig) -> str:
    """Full key = value dump; parse_config_text on it reproduces cfg."""
    return "".join(f"{key} = {text}\n" for key, text in config_echo(cfg).items())


# ---------------------------------------------------------------------------
# CSV tables

ENERGY_COLUMNS = ("t", "kinetic", "interfacial", "potential", "viscous_diss",
                  "ac_diss", "cumulative_diss", "audit_violation")
ENTROPY_COLUMNS = ("t", "E", "D", "omega", "bound_curve")
REI_COLUMNS = ("t", "lhs_entropy_gap", "lhs_visc", "lhs_ac", "r_conv",
               "r_eps1", "r_eps2", "r_eps3", "r_eps4", "r_f", "slack")
MMS_SPATIAL_COLUMNS = ("n", "error")
MMS_TEMPORAL_COLUMNS = ("dt", "difference")


def _write_table(path: str, header: tuple[str, ...], trace):
    """The ``header`` columns of ``trace``, each picked by its name."""
    columns = [getattr(trace, name) for name in header]
    if len({len(col) for col in columns}) != 1:
        raise ValueError("ragged columns")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")


def write_energy_csv(trace: EnergyTrace, path: str):
    _write_table(path, ENERGY_COLUMNS, trace)


def write_entropy_csv(trace: PairTrace, path: str):
    _write_table(path, ENTROPY_COLUMNS, trace)


def write_rei_csv(trace: PairTrace, path: str):
    _write_table(path, REI_COLUMNS, trace)


def write_mms_csv(trace: ConvergenceTrace, spatial_path: str, temporal_path: str):
    _write_table(spatial_path, MMS_SPATIAL_COLUMNS, trace)
    _write_table(temporal_path, MMS_TEMPORAL_COLUMNS, trace)


# ---------------------------------------------------------------------------
# VTK snapshots


def write_vtk(state: State, pressure: ScalarField, path: str, comment: str = "nsac snapshot"):
    """Legacy ASCII STRUCTURED_POINTS file with cell data c, p, u (averaged)."""
    grid = state.grid
    n = list(grid.n) + [1] * (3 - grid.dim)
    h = list(grid.h) + [1.0] * (3 - grid.dim)
    dims = [n[0] + 1, n[1] + 1, (n[2] + 1) if grid.dim == 3 else 1]
    ncells = int(np.prod(grid.n))
    u_cells = avg_to_cells(state.u)

    def scalars(fh, name, values):
        fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        values = np.asarray(values)
        # x fastest; one write per x-line keeps the formatted text small, and
        # one % over the whole line formats it in a single call
        line_fmt = (FLOAT_FMT + "\n") * values.shape[0]
        for line in values.T.reshape(-1, values.shape[0]):
            fh.write(line_fmt % tuple(line.tolist()))

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(comment + "\n")
        fh.write("ASCII\nDATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n")
        fh.write("ORIGIN 0 0 0\n")
        fh.write(f"SPACING {FLOAT_FMT % h[0]} {FLOAT_FMT % h[1]} {FLOAT_FMT % h[2]}\n")
        fh.write(f"CELL_DATA {ncells}\n")
        scalars(fh, "c", state.c.values)
        scalars(fh, "p", pressure.values)
        for a in range(grid.dim):
            scalars(fh, f"u_{'xyz'[a]}", u_cells[a][grid.cell_view])


# ---------------------------------------------------------------------------
# run manifest


def _json_bound(bound):
    """A gate bound as strict JSON: a non-finite number (``rei.refinement``'s
    bound is 2 x a measured deficit) as its ``repr``, like every value."""
    if isinstance(bound, float) and not np.isfinite(bound):
        return repr(float(bound))
    return bound


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@dataclass
class RunManifest:
    """Record of one CLI invocation: resolved config, version, start and
    finish times, outputs, and each certificate gate (name, ``repr`` of its
    value, bound, passed)."""

    config: dict[str, str]
    version: str
    started: str = field(default_factory=_now)
    finished: str = ""
    outputs: list[str] = field(default_factory=list)
    gates: list[dict] = field(default_factory=list)

    def add(self, path: str) -> str:
        self.outputs.append(os.path.basename(path))
        return path

    def record(self, gates: list[Gate]):
        """Stamp the finish time and keep each gate, with the ``repr`` of its value."""
        self.finished = _now()
        self.gates = [dict(g._asdict(), value=repr(g.value), bound=_json_bound(g.bound))
                      for g in gates]

    def write(self, path: str):
        for name in self.outputs:
            full = os.path.join(os.path.dirname(path), name)
            if not os.path.exists(full) or os.path.getsize(full) == 0:
                raise IOError(f"manifest lists missing or empty output {name}")
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
