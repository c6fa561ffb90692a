"""Config format, CSV round trips, VTK output, CLI exit codes."""

import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsac.cli
import nsac.experiments
import nsac.solver
from nsac.certificates import (
    energy_gates,
    gronwall_gates,
    mms_gates,
    rei_gates,
    wsu_gates,
)
from nsac.diagnostics import ConvergenceTrace, EnergyTrace, PairTrace, gronwall_fit
from nsac.experiments import INIT_KINDS, ExperimentConfig
from nsac.io import (
    ENERGY_COLUMNS,
    ENTROPY_COLUMNS,
    MMS_SPATIAL_COLUMNS,
    MMS_TEMPORAL_COLUMNS,
    REI_COLUMNS,
    ConfigError,
    parse_config,
    parse_config_text,
    serialize_config,
    write_energy_csv,
    write_entropy_csv,
    write_mms_csv,
    write_rei_csv,
    write_vtk,
)
from nsac.cli import main
from nsac.grid import ScalarField, make_grid
from nsac.solver import make_state


# ---------------------------------------------------------------------------
# config


def test_empty_config_gives_defaults():
    cfg = parse_config_text("")
    assert cfg == ExperimentConfig()
    assert cfg.eps == 0.05 and cfg.nu == 0.01
    assert cfg.grid_n == 64 and cfg.dt == 2.5e-4 and cfg.t_end == 0.5
    assert cfg.potential_kind == "quartic" and cfg.init_seed == 42


def test_config_parses_values_comments_blanks():
    text = """
# a comment
grid.n = 32     # trailing comment
fluid.nu = 0.02
init.kind = bubble
wsu.levels = 16,32,64
"""
    cfg = parse_config_text(text)
    assert cfg.grid_n == 32
    assert cfg.nu == 0.02
    assert cfg.init_kind == "bubble"
    assert cfg.wsu_levels == (16, 32, 64)


@pytest.mark.parametrize("line,fragment", [
    ("fluid.nu = -1", "fluid.nu"),
    ("nonsense.key = 3", "unknown key"),
    ("fluid.nu 0.01", "expected"),
    ("grid.n = abc", "cannot parse"),
    ("time.dt = 0", "positive"),
])
def test_config_errors_carry_line_numbers(line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text("# header\n" + line + "\n")
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


def test_config_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("grid.n = 8\ngrid.n = 16\n")
    assert "duplicate" in str(err.value)


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(grid_n=48, nu=0.037, dt=1.25e-4, init_kind="vortex",
                           wsu_levels=(16, 32, 64, 128), perturbation_delta=2e-3)
    text = serialize_config(cfg)
    assert parse_config_text(text) == cfg
    p = tmp_path / "run.cfg"
    p.write_text(text)
    assert parse_config(str(p)) == cfg


_reals = st.floats(allow_nan=False, allow_infinity=False)
_positive_reals = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    cfg=st.builds(
        ExperimentConfig,
        grid_n=st.integers(4, 10**6),
        length=_positive_reals,
        nu=_positive_reals,
        eps=_positive_reals,
        dt=_positive_reals,
        t_end=_positive_reals,
        # admissible wells only: test_cli_bad_potential_kind_writes_nothing
        # covers the rejected ones
        potential_f1=st.floats(-1e150, -1.0, exclude_max=True),
        potential_f2=st.floats(1.0, 1e150, exclude_min=True),
        init_kind=st.sampled_from(INIT_KINDS),
        init_seed=st.integers(0, 2**63),
        init_amplitude=_reals,
        perturbation_delta=st.floats(min_value=0.0, allow_infinity=False),
        wsu_levels=st.sets(st.integers(4, 10**6), min_size=1, max_size=5).map(
            lambda s: tuple(sorted(s))
        ),
        sample_count=st.integers(1, 10**6),
        output_dir=st.from_regex(r"[A-Za-z0-9_./-]{1,24}", fullmatch=True),
        output_every=st.integers(1, 10**6),
    )
)
def test_config_round_trip_property(cfg):
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.cfg")


_REAL_KEYS = [
    ("grid.length", "length"), ("fluid.nu", "nu"), ("fluid.eps", "eps"), ("time.dt", "dt"),
    ("time.t_end", "t_end"), ("potential.f1", "potential_f1"), ("potential.f2", "potential_f2"),
    ("init.amplitude", "init_amplitude"), ("perturbation.delta", "perturbation_delta"),
]


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key, name", _REAL_KEYS, ids=[key for key, _ in _REAL_KEYS])
def test_config_rejects_non_finite_reals(key, name, raw):
    """Every real key must be finite; the error names the key, and the parser's
    names the line too."""
    with pytest.raises(ConfigError, match=rf"^line 2: .*{re.escape(key)}"):
        parse_config_text(f"# header\n{key} = {raw}\n")
    with pytest.raises(ValueError, match=re.escape(key)):
        ExperimentConfig(**{name: float(raw)})


_WRONG_TYPES = [
    ("grid_n", 4.5, "grid.n"),
    ("init_seed", 1.5, "init.seed"),
    ("output_every", True, "output.every"),
    ("nu", True, "fluid.nu"),
    ("wsu_levels", [32, 64, 128], "wsu.levels"),
    ("output_dir", 5, "output.dir"),
]


@pytest.mark.parametrize("name, value, key", _WRONG_TYPES,
                         ids=[f"{key}={value!r}" for _, value, key in _WRONG_TYPES])
def test_config_checks_types_at_construction(name, value, key):
    """A key takes only its default's type (a real also takes an int, and no
    number takes a bool), so every config can be written as a config file."""
    with pytest.raises(ValueError, match=rf"^{re.escape(key)}: must have the type "):
        ExperimentConfig(**{name: value})


# ---------------------------------------------------------------------------
# CSV


def _random_energy_trace(rng, n):
    """An ``EnergyTrace`` whose every column holds n standard normal samples."""
    return EnergyTrace(**{name: rng.standard_normal(n) for name in ENERGY_COLUMNS})


def _load_csv(path, header):
    """The columns of a CSV output, read with numpy's correctly rounded parser,
    after checking its header line."""
    with open(path) as fh:
        assert fh.readline() == ",".join(header) + "\n"
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


def test_energy_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(60)
    trace = _random_energy_trace(rng, 20)
    path = str(tmp_path / "energy.csv")
    write_energy_csv(trace, path)
    for name, col in zip(ENERGY_COLUMNS, _load_csv(path, ENERGY_COLUMNS)):
        assert np.array_equal(getattr(trace, name), col), name


def _random_trace(rng, n):
    """A ``PairTrace`` whose every column holds n standard normal samples."""
    columns = ENTROPY_COLUMNS + REI_COLUMNS[1:]
    return PairTrace(**{name: rng.standard_normal(n) for name in columns},
                     k=rng.standard_normal(), violated=False)


def test_entropy_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(61)
    trace = _random_trace(rng, 15)
    path = str(tmp_path / "entropy.csv")
    write_entropy_csv(trace, path)
    for name, col in zip(ENTROPY_COLUMNS, _load_csv(path, ENTROPY_COLUMNS)):
        assert np.array_equal(getattr(trace, name), col), name


def test_rei_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(62)
    trace = _random_trace(rng, 12)
    path = str(tmp_path / "rei.csv")
    write_rei_csv(trace, path)
    for name, col in zip(REI_COLUMNS, _load_csv(path, REI_COLUMNS)):
        assert np.array_equal(getattr(trace, name), col), name


def test_mms_csv_layouts(tmp_path):
    """Each file holds its columns of one ``ConvergenceTrace``, read back by
    name bitwise; the levels are written as reals."""
    trace = ConvergenceTrace(n=np.array([16.0, 32.0]), error=np.array([0.1 / 3, 5e-324]),
                             dt=np.array([5e-4, 2.5e-4]), difference=np.array([1.0 / 3, 1e300]))
    spatial, temporal = tmp_path / "mms_spatial.csv", tmp_path / "mms_temporal.csv"
    write_mms_csv(trace, str(spatial), str(temporal))
    assert spatial.read_text() == "n,error\n16,0.033333333333333333\n32,4.9406564584124654e-324\n"
    for path, header in [(spatial, MMS_SPATIAL_COLUMNS), (temporal, MMS_TEMPORAL_COLUMNS)]:
        for name, col in zip(header, _load_csv(path, header)):
            assert col.tobytes() == getattr(trace, name).tobytes(), name


def test_empty_trace_header_only(tmp_path):
    path = tmp_path / "energy.csv"
    write_energy_csv(_random_energy_trace(np.random.default_rng(63), 0), str(path))
    assert path.read_text() == ",".join(ENERGY_COLUMNS) + "\n"


# ---------------------------------------------------------------------------
# VTK


def _read_vtk_scalars(path):
    """Minimal independent reader for legacy STRUCTURED_POINTS cell data."""
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    assert lines[0].startswith("# vtk DataFile")
    assert "ASCII" in lines
    assert "DATASET STRUCTURED_POINTS" in lines
    dims = next(l for l in lines if l.startswith("DIMENSIONS")).split()[1:]
    ncells_line = next(l for l in lines if l.startswith("CELL_DATA"))
    ncells = int(ncells_line.split()[1])
    out = {}
    i = 0
    while i < len(lines):
        if lines[i].startswith("SCALARS"):
            name = lines[i].split()[1]
            assert lines[i + 1].startswith("LOOKUP_TABLE")
            vals = [float(lines[i + 2 + k]) for k in range(ncells)]
            out[name] = np.array(vals)
            i += 2 + ncells
        else:
            i += 1
    return [int(d) for d in dims], ncells, out


def test_vtk_constant_field(tmp_path):
    grid = make_grid(2, (4, 4), (1, 1))
    state = make_state(grid)
    state.c.values[:] = 0.25
    path = str(tmp_path / "snap.vtk")
    write_vtk(state, ScalarField(grid, np.zeros(grid.n)), path)
    dims, ncells, data = _read_vtk_scalars(path)
    assert dims == [5, 5, 1]
    assert ncells == 16
    assert np.all(data["c"] == 0.25)
    assert np.all(data["p"] == 0.0)
    assert set(data) == {"c", "p", "u_x", "u_y"}


@pytest.mark.parametrize("n", [(4, 5), (4, 5, 6)])
def test_vtk_bytes_match_per_value_writes(tmp_path, n):
    grid = make_grid(len(n), n, (1,) * len(n))
    state = make_state(grid)
    c = state.c.values
    c[...] = np.linspace(-1.0, 1.0, c.size).reshape(n)
    c[(slice(None),) + (0,) * (len(n) - 1)] = [-0.0, 5e-324, 1.0 / 3.0, 1e16]
    p = ScalarField(grid, np.arange(c.size).reshape(n) / 7.0)
    state.u.components[0][1:-1] = 0.1
    path = tmp_path / "snap.vtk"
    write_vtk(state, p, str(path))
    text = path.read_text()

    # reference writer: one formatted value per line, x fastest
    from nsac.grid import avg_to_cells
    from nsac.io import FLOAT_FMT

    fields = [("c", state.c.values), ("p", p.values)]
    fields += [(f"u_{'xyz'[a]}", v[grid.cell_view]) for a, v in enumerate(avg_to_cells(state.u))]
    expected = text[: text.index("SCALARS")]
    for name, values in fields:
        expected += f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
        for v in np.asarray(values).ravel(order="F"):
            expected += FLOAT_FMT % v + "\n"
    assert "\n-0\n" in text and "\n4.9406564584124654e-324\n" in text
    assert text == expected


def test_vtk_value_order_is_x_fastest(tmp_path):
    grid = make_grid(2, (5, 4), (1, 1))
    state = make_state(grid)
    state.c.values[:] = np.arange(20.0).reshape(5, 4)
    path = str(tmp_path / "snap.vtk")
    write_vtk(state, ScalarField(grid, np.zeros(grid.n)), path)
    _, _, data = _read_vtk_scalars(path)
    assert np.array_equal(data["c"], state.c.values.ravel(order="F"))


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def _run_cli(args, out, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "nsac.cli", *args, "--out", out],
        capture_output=True, text=True, env=env,
    )


def test_cli_energy_audit_success(tmp_path):
    cfg = _write_cfg(tmp_path, "grid.n = 16\ntime.t_end = 0.005\n"
                               "init.kind = vortex\ninit.amplitude = 0\n")
    r = _run_cli(["energy-audit", "--config", cfg], str(tmp_path / "out"))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "out" / "energy.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_validation_error_exit_1(tmp_path):
    cfg = _write_cfg(tmp_path, "fluid.eps = -3\n")
    r = _run_cli(["simulate", "--config", cfg], str(tmp_path / "out"))
    assert r.returncode == 1
    assert "fluid.eps" in r.stderr


@pytest.mark.parametrize("command", ["simulate", "energy-audit", "wsu", "perturb", "mms"])
def test_cli_bad_potential_kind_writes_nothing(tmp_path, capsys, command):
    """A bad well kind or interval fails at config load, before any output."""
    for entry, message in [
        ("potential.kind = logarithmic", "unknown potential kind 'logarithmic'"),
        ("potential.f1 = 0", "quartic well needs f1 < -1 < 1 < f2, got [0.0, 2.0]"),
        ("potential.f2 = inf", "quartic well on [-2.0, inf] has no finite"),
        ("potential.f1 = -1e200", "quartic well on [-1e+200, 2.0] has no finite"),
    ]:
        cfg = _write_cfg(tmp_path, f"grid.n = 16\n{entry}\n")
        out = tmp_path / "out"
        code = main([command, "--config", cfg, "--out", str(out), "--quiet"])
        assert code == 1, entry
        assert message in capsys.readouterr().err
        assert not out.exists()


_SMALL_RUN = "grid.n = 16\ntime.t_end = 0.002\ntime.dt = 1e-3\n"


def _fault(command, text, *fragments, out="out", label=None):
    """A case whose single ``error:`` line holds every one of ``fragments``;
    its id is ``label`` (else the last config line) and the command."""
    label = label or text.splitlines()[-1]
    return pytest.param(command, text, fragments, out, id=f"{label}-{command}")


_FAULTS = [
    *[_fault(command, f"init.kind = bubble\n{entry}", "cell counts must be >= 4")
      for entry in ["grid.n = 3", "wsu.levels = 2,8,16", "wsu.levels = -8,16,32"]
      for command in ["simulate", "wsu", "mms"]],
    _fault("simulate", _SMALL_RUN + "fluid.nu = inf", "fluid.nu"),
    _fault("wsu", "init.kind = spinodal", "bubble initial data"),
    _fault("wsu", "init.kind = vortex", "init.kind"),
    _fault("wsu", "init.kind = bubble\nwsu.levels = 8,16", "at least 3 refinement levels"),
    _fault("wsu", "init.kind = bubble\nwsu.levels = 12,16,32",
           "not a multiple of the coarsest level"),
    _fault("wsu", "init.kind = bubble\nwsu.levels = 8,24,32", "wsu.levels"),
    _fault("energy-audit", "init.kind = manufactured", "unforced runs only", "init.kind"),
    _fault("energy-audit", "init.kind = manufactured", "init.kind",
           label="init.kind = manufactured, key named"),
    _fault("simulate", "init.kind = manufactured", "unforced runs only"),
    _fault("mms", "init.kind = manufactured\nwsu.levels = 8,16\ngrid.length = 2", "grid.length"),
    _fault("mms", "init.kind = manufactured\nwsu.levels = 16", "wsu.levels"),
    _fault("perturb", "init.kind = manufactured\ngrid.length = 1.5", "grid.length"),
    _fault("simulate", _SMALL_RUN + "init.seed = 18446744073709551616", "init.seed"),
    _fault("simulate", "init.kind = bubble\ntime.dt = 2.5e-4\ntime.t_end = 0.0003",
           "not a whole number of steps"),
    _fault("simulate", _SMALL_RUN + "init.kind = bubble", "Not a directory",
           out="file/out", label="--out under a file"),
    _fault("wsu", _SMALL_RUN + "init.kind = bubble\nwsu.levels = 8,16,32", "Not a directory",
           out="file/out", label="--out under a file"),
    # h^2 overflows to inf, or underflows to 0
    *[_fault(command, f"{init}\ngrid.length = {length}", "cell volume")
      for command, init in [("energy-audit", "grid.n = 8"), ("wsu", "init.kind = bubble")]
      for length in ["1e300", "1e-300"]],
]


def test_fault_case_ids_are_unique():
    """pytest would silently suffix two equal ids, renaming both cases."""
    ids = [case.id for case in _FAULTS]
    assert len(set(ids)) == len(ids), ids


@pytest.mark.parametrize("command, text, fragments, out", _FAULTS)
def test_cli_bad_cell_count_writes_nothing(tmp_path, capsys, monkeypatch, command, text,
                                           fragments, out):
    """A config fault, a fault only a command checks, or an ``--out`` that
    cannot be made exits 1 before the first step, with an error line naming
    the key or rule, and leaves no output directory."""
    steps = []
    real_allen_cahn_step = nsac.solver.allen_cahn_step

    def counting_allen_cahn_step(*args, **kwargs):
        steps.append(1)
        return real_allen_cahn_step(*args, **kwargs)

    monkeypatch.setattr(nsac.solver, "allen_cahn_step", counting_allen_cahn_step)
    cfg = _write_cfg(tmp_path, text + "\n")
    (tmp_path / "file").write_text("a regular file\n")
    out = tmp_path / out
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and all(f in errors[0] for f in fragments), errors
    assert not out.exists() and not steps


def test_cli_out_without_write_permission_exit_1(tmp_path, capsys, monkeypatch):
    """An output directory whose nearest existing ancestor is not writable is
    refused before the study starts."""
    monkeypatch.setattr(nsac.cli.os, "access", lambda path, mode: False)
    cfg = _write_cfg(tmp_path, _SMALL_RUN + "init.kind = bubble\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert "Permission denied" in capsys.readouterr().err
    assert not out.exists()


def test_cli_wsu_two_levels_exit_1(tmp_path):
    cfg = _write_cfg(tmp_path, "init.kind = bubble\nwsu.levels = 8,16\n"
                               "grid.n = 16\ntime.t_end = 0.002\ntime.dt = 1e-3\n")
    r = _run_cli(["wsu", "--config", cfg], str(tmp_path / "out"))
    assert r.returncode == 1
    assert "levels" in r.stderr


def test_cli_cfl_violation_exit_2(tmp_path):
    cfg = _write_cfg(tmp_path, "grid.n = 16\ninit.kind = vortex\n"
                               "init.amplitude = 50\ntime.dt = 0.01\n"
                               "time.t_end = 0.05\n")
    r = _run_cli(["simulate", "--config", cfg], str(tmp_path / "out"))
    assert r.returncode == 2
    assert "CFL" in r.stderr


def test_cli_non_finite_state_exit_2(tmp_path, capsys, monkeypatch):
    real_allen_cahn_step = nsac.solver.allen_cahn_step

    def nan_allen_cahn_step(*args, **kwargs):
        c, material = real_allen_cahn_step(*args, **kwargs)
        c = c.copy()
        c.values[3, 5] = np.nan
        return c, material

    monkeypatch.setattr(nsac.solver, "allen_cahn_step", nan_allen_cahn_step)
    cfg = _write_cfg(tmp_path, "grid.n = 16\ntime.t_end = 0.002\ntime.dt = 1e-3\n"
                               "init.kind = bubble\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert "non-finite c" in capsys.readouterr().err


def test_cli_simulate_names_snapshots_by_step(tmp_path):
    # 10 steps sampled every 3: the last, short chunk ends at step 10, not 12
    cfg = _write_cfg(tmp_path, "grid.n = 16\ntime.dt = 1e-3\ntime.t_end = 0.01\n"
                               "output.samples = 3\noutput.every = 1\ninit.kind = bubble\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    names = sorted(p.name for p in out.glob("snapshot_*.vtk"))
    assert names == [f"snapshot_{i:06d}.vtk" for i in (0, 3, 6, 9, 10)]
    assert (out / "snapshot_000010.vtk").read_text().splitlines()[1] == "t=0.010000"


@pytest.mark.parametrize("command", ["simulate", "energy-audit", "perturb", "wsu"])
@pytest.mark.parametrize("t_end", ["1e-5", "3e-4"])
def test_cli_schedule_not_whole_steps_exit_1(tmp_path, capsys, command, t_end):
    cfg = _write_cfg(tmp_path, f"grid.n = 16\ntime.t_end = {t_end}\ntime.dt = 2.5e-4\n"
                               "init.kind = bubble\nwsu.levels = 8,16,32\n")
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert "t_end" in err and "dt" in err


@pytest.mark.parametrize(
    "levels, fragments",
    [
        ("16", ("levels",)),  # no spatial order would be checked
        ("16,20", ("t_end", "dt")),  # 31.25 steps at n = 20
    ],
)
def test_cli_mms_bad_levels_exit_1(tmp_path, capsys, levels, fragments):
    cfg = _write_cfg(tmp_path, f"init.kind = manufactured\nwsu.levels = {levels}\n")
    code = main(["mms", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert all(f in err for f in fragments)


def test_cli_mms_order_uses_level_ratio(tmp_path):
    """Levels 16 and 24 refine h by 1.5, not 2; the order is still about 2."""
    cfg = _write_cfg(tmp_path, "init.kind = manufactured\nwsu.levels = 16,24\n")
    out = tmp_path / "out"
    code = main(["mms", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    lines = (out / "mms_spatial.csv").read_text().split()
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert 1.7 <= np.log(errors[0] / errors[1]) / np.log(24 / 16) <= 2.3


def test_cli_mms_non_unit_box_exit_1(tmp_path, capsys):
    """The manufactured solution lives on the unit box; 1.5 is a config error."""
    cfg = _write_cfg(tmp_path, "init.kind = manufactured\ngrid.length = 1.5\n"
                               "wsu.levels = 8,16\n")
    code = main(["mms", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    assert "grid.length = 1.5" in capsys.readouterr().err


def _overshoot_at_step_3(monkeypatch, overshoot):
    """Make the step that reaches t = 3e-3 leave c = 1 + overshoot in one cell,
    and return a config of c = 1 everywhere at rest: the bounds are [-1, 1] and
    nothing else moves."""
    real_step = nsac.experiments.step

    def overshooting_step(state, *args, **kwargs):
        new, report = real_step(state, *args, **kwargs)
        if abs(new.t - 3e-3) < 1e-9:
            # a stepped c is read-only: rebind it to an overshooting copy
            new.c = new.c.copy()
            new.c.values[2, 5] = 1.0 + overshoot
        return new, report

    monkeypatch.setattr(nsac.experiments, "step", overshooting_step)
    return ("grid.n = 16\ntime.t_end = 0.005\ntime.dt = 1e-3\n"
            "init.kind = vortex\ninit.amplitude = 0\n")


@pytest.mark.parametrize(
    "overshoot, code",
    [(1e-3, 2), (5e-7, 0), (np.nan, 2), (np.inf, 2), (-np.inf, 2)],
)
def test_cli_energy_audit_max_principle(tmp_path, capsys, monkeypatch, overshoot, code):
    """An excursion of c beyond the bounds plus 1e-6 after step 3 fails the
    audit, and so does a non-finite c (1 + nan, 1 + inf, 1 - inf)."""
    cfg = _write_cfg(tmp_path, _overshoot_at_step_3(monkeypatch, overshoot))
    assert main(["energy-audit", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == code
    if code:
        err = capsys.readouterr().err
        assert "maximum principle" in err
        assert "step 3," in err and "t=0.003" in err and repr(1.0 + overshoot) in err


def test_cli_simulate_checks_the_max_principle(tmp_path, capsys, monkeypatch):
    """simulate runs the same per-step check as energy-audit."""
    cfg = _write_cfg(tmp_path, _overshoot_at_step_3(monkeypatch, 1e-3))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "maximum principle violated at step 3" in capsys.readouterr().err


def _trace(E, slack=0.0):
    """The ``PairTrace`` of entropy E at t = 0, 0.1, 0.2 with D = 0, omega = 1,
    its Gronwall fit, zero REI entries and the given slack at every sample."""
    t = np.array([0.0, 0.1, 0.2])
    E, zero, omega = np.array(E, dtype=float), np.zeros_like(t), np.ones_like(t)
    k, bound_curve, violated = gronwall_fit(t, E, zero, omega)
    rei = dict.fromkeys(REI_COLUMNS[1:-1], zero)
    return PairTrace(t=t, E=E, D=zero, omega=omega, bound_curve=bound_curve, **rei,
                     slack=np.full_like(t, slack), k=k, violated=violated)


def _fake_wsu_report(maxima, slack):
    """Levels 8, 16 and 32 whose max entropies are ``maxima``; level i's REI
    slack is ``slack[i]`` at every sample. Level 32 is the twin."""
    return {n: _trace([m] * 3, slack=s) for n, m, s in zip((8, 16, 32), maxima, slack)}


def _fake_run_wsu(monkeypatch, maxima, slack):
    monkeypatch.setattr(nsac.cli, "run_wsu", lambda cfg: _fake_wsu_report(maxima, slack))


@pytest.mark.parametrize(
    "command, maxima, slack",
    [
        ("wsu", [1e-3, np.nan, 0.0], [0.0, 0.0, 0.0]),
        ("wsu", [1e-3, 1e-4, 0.0], [0.0, np.nan, 0.0]),
    ],
)
def test_cli_nan_certificate_fails_exit_2(tmp_path, monkeypatch, command, maxima, slack):
    _fake_run_wsu(monkeypatch, maxima, slack)
    code = main([command, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2


@pytest.mark.parametrize(
    "command, maxima, slack, gate",
    [
        ("wsu", [1e-2, 1e-3, 1e-30], [0.0, 0.0, 0.0], "wsu.twin_zero"),
        ("wsu", [1e-3, 0.0, 0.0], [0.0, 0.0, 0.0], "wsu.monotone"),
        # maxima that decrease, but by 1.5 from the coarsest level
        ("wsu", [1.5e-3, 1e-3, 0.0], [0.0, 0.0, 0.0], "wsu.ratio"),
        # within tolerance at 16, but the raw deficit does not halve from 8
        ("wsu", [1e-2, 1e-3, 0.0], [-1e-4, -1e-4, 0.0], "rei.refinement"),
    ],
)
def test_cli_failed_gate_exit_2_names_it(tmp_path, capsys, monkeypatch, command, maxima,
                                        slack, gate):
    """One gate fails and every other passes: the command exits 2, names that
    gate in one stderr line, and the manifest records it as the failed one."""
    _fake_run_wsu(monkeypatch, maxima, slack)
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: certificate {gate} failed: ")
    recorded = json.loads((out / "manifest.json").read_text())["gates"]
    failed = [g for g in recorded if not g["passed"]]
    assert [g["name"] for g in failed] == [gate]
    assert f" failed: {failed[0]['value']} against " in err[0]


def test_cli_manifest_is_strict_json(tmp_path, monkeypatch):
    """A NaN slack at the finest pair makes rei.refinement's bound NaN; the
    manifest writes it as a string, so a strict JSON reader accepts it."""
    _fake_run_wsu(monkeypatch, [1e-3, 1e-4, 0.0], [0.0, np.nan, 0.0])
    out = tmp_path / "out"
    assert main(["wsu", "--out", str(out), "--quiet"]) == 2

    def no_constants(name):
        raise ValueError(f"not strict JSON: {name}")

    gates = json.loads((out / "manifest.json").read_text(), parse_constant=no_constants)["gates"]
    refinement = {g["name"]: g for g in gates}["rei.refinement"]
    assert refinement["bound"] == "nan" and not refinement["passed"]


def test_cli_wsu_gates_the_rei_on_coarse_levels(tmp_path, capsys):
    """wsu gates criteria 6 and 7 in one run: on levels 8/16/32 weak-strong
    uniqueness holds, but the REI tolerance at 16^2 does not."""
    config = os.path.join(os.path.dirname(__file__), "golden", "bubble-8-32.cfg")
    out = tmp_path / "out"
    assert main(["wsu", "--config", config, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: certificate rei.tolerance failed: ")
    gates = json.loads((out / "manifest.json").read_text())["gates"]
    assert {g["name"]: g["passed"] for g in gates} == {
        "wsu.twin_zero": True, "wsu.monotone": True, "wsu.ratio": True,
        "rei.tolerance": False, "rei.refinement": True}


def test_cli_simulate_gates_the_energy_audit(tmp_path, capsys, monkeypatch):
    """An energy that grows with t fails the audit, and simulate says so."""
    total_energy = nsac.experiments.total_energy

    def growing(state, *args):
        row = total_energy(state, *args)
        return row._replace(kinetic=row.kinetic + state.t)

    monkeypatch.setattr(nsac.experiments, "total_energy", growing)
    cfg = _write_cfg(tmp_path, "grid.n = 16\ntime.t_end = 0.002\ntime.dt = 1e-3\n"
                               "init.kind = bubble\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: certificate energy.audit failed: ")


@pytest.mark.parametrize("command", ["simulate", "energy-audit"])
def test_energy_gate_reads_the_audit_column(tmp_path, command):
    """The manifest's ``energy.audit`` value is the largest entry of
    ``energy.csv``'s ``audit_violation`` column after t = 0."""
    config = os.path.join(os.path.dirname(__file__), "golden", "spinodal-16.cfg")
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out), "--quiet"]) == 0
    col = _load_csv(out / "energy.csv", ENERGY_COLUMNS)[ENERGY_COLUMNS.index("audit_violation")]
    gates = json.loads((out / "manifest.json").read_text())["gates"]
    assert [g["value"] for g in gates if g["name"] == "energy.audit"] == [
        repr(float(np.max(col[1:])))]


def test_mms_gates_read_the_csv_columns(tmp_path):
    """Each manifest ``mms.*`` value is the ``repr`` of the order recomputed,
    with the same formula, from ``mms_spatial.csv`` and ``mms_temporal.csv``."""
    config = os.path.join(os.path.dirname(__file__), "golden", "mms-8-16.cfg")
    out = tmp_path / "out"
    assert main(["mms", "--config", config, "--out", str(out), "--quiet"]) == 0
    n, e = _load_csv(out / "mms_spatial.csv", MMS_SPATIAL_COLUMNS).tolist()
    d = _load_csv(out / "mms_temporal.csv", MMS_TEMPORAL_COLUMNS)[1].tolist()
    want = {f"mms.spatial.{i}": float(np.log(e[i] / e[i + 1]) / np.log(n[i + 1] / n[i]))
            for i in range(len(e) - 1)}
    want |= {f"mms.temporal.{i}": float(np.log2(d[i] / d[i + 1])) for i in range(len(d) - 1)}
    gates = json.loads((out / "manifest.json").read_text())["gates"]
    assert {g["name"]: g["value"] for g in gates} == {k: repr(v) for k, v in want.items()}


@pytest.mark.parametrize("maxima, ratio", [([1e-2, 0.0, 0.0], np.inf), ([0.0, 0.0, 0.0], np.nan)])
def test_wsu_ratio_of_a_zero_maximum(maxima, ratio):
    """A finer maximum of 0 gives the ratio inf, and 0 / 0 gives NaN, which
    fails; neither warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gate = {g.name: g for g in wsu_gates(_fake_wsu_report(maxima, [0.0] * 3))}["wsu.ratio"]
    assert type(gate.value) is float and np.array_equal(gate.value, ratio, equal_nan=True)
    assert gate.passed == (ratio == np.inf)


def _energy_trace(violation):
    """An ``EnergyTrace`` of zero energies with the given audit violations."""
    zero = np.zeros(len(violation))
    return EnergyTrace(**dict.fromkeys(ENERGY_COLUMNS[:-1], zero),
                       audit_violation=np.array(violation, dtype=float))


def _gronwall(x):
    return gronwall_gates(_trace([1.0, x, 1.0]))


def _mms(spatial, temporal):
    """The gates of a ``ConvergenceTrace`` at n = 8, 16 whose errors and
    differences halve ``spatial`` and ``temporal`` times."""
    return mms_gates(ConvergenceTrace(n=np.array([8.0, 16.0]),
                                      error=np.array([1.0, 2.0 ** -spatial]),
                                      dt=np.array([4e-4, 2e-4]),
                                      difference=np.array([1.0, 2.0 ** -temporal])))


# each gate, built from a study result that holds x in the gated place
GATE_INPUTS = {
    "energy.audit": (lambda x: energy_gates(_energy_trace([0.0, x])), 0.0),
    "wsu.twin_zero": (lambda x: wsu_gates(_fake_wsu_report([1e-2, 1e-3, x], [0.0] * 3)), 0.0),
    "wsu.monotone": (lambda x: wsu_gates(_fake_wsu_report([1e-2, x, 0.0], [0.0] * 3)), 1e-3),
    "wsu.ratio": (lambda x: wsu_gates(_fake_wsu_report([x, 1e-3, 0.0], [0.0] * 3)), 1e-2),
    "rei.tolerance": (lambda x: rei_gates(_fake_wsu_report([0.0] * 3, [0.0, x, 0.0])), 0.0),
    "rei.refinement": (lambda x: rei_gates(_fake_wsu_report([0.0] * 3, [x, 0.0, 0.0])), 0.0),
    "gronwall.violated": (_gronwall, 1.0),
    "mms.spatial.0": (lambda x: _mms(x, 1.0), 2.0),
    "mms.temporal.0": (lambda x: _mms(2.0, x), 1.0),
}


def test_gate_inputs_cover_every_gate():
    names = set()
    for build, clean in GATE_INPUTS.values():
        names |= {g.name for g in build(clean)}
    assert names == set(GATE_INPUTS)


@pytest.mark.parametrize("name", GATE_INPUTS)
def test_nan_fails_each_gate(name):
    build, clean = GATE_INPUTS[name]
    assert {g.name: g.passed for g in build(clean)}[name]
    assert not {g.name: g.passed for g in build(np.nan)}[name]


def test_cli_nan_audit_violation_exit_2(tmp_path, monkeypatch):
    import nsac.cli

    monkeypatch.setattr(nsac.cli, "run_energy_audit", lambda cfg: _energy_trace([0.0, np.nan]))
    code = main(["energy-audit", "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2


@pytest.mark.parametrize("error, difference", [([1.0, 0.0], [1.0, 0.5]),
                                               ([1.0, 0.25], [0.0, 0.0])])
def test_cli_mms_zero_error_fails_its_gate_exit_2(tmp_path, monkeypatch, error, difference):
    """An error or difference of exactly 0 gives an inf or NaN order: the
    ``mms.*`` gate fails and the command exits 2 with its manifest written."""
    trace = ConvergenceTrace(n=np.array([8.0, 16.0]), error=np.array(error),
                             dt=np.array([4e-4, 2e-4]), difference=np.array(difference))
    monkeypatch.setattr(nsac.cli, "run_manufactured", lambda cfg: trace)
    out = tmp_path / "out"
    assert main(["mms", "--out", str(out), "--quiet"]) == 2
    gates = json.loads((out / "manifest.json").read_text())["gates"]
    assert [g["passed"] for g in gates] == [error[1] != 0.0, difference[1] != 0.0]


def test_cli_unknown_subcommand_exit_1(tmp_path):
    env = dict(os.environ)
    r = subprocess.run([sys.executable, "-m", "nsac.cli", "frobnicate"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 1


def test_cli_no_subcommand_usage(tmp_path):
    r = subprocess.run([sys.executable, "-m", "nsac.cli"],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert "usage" in r.stderr.lower()


def test_cli_ignores_nsac_out(tmp_path):
    """The output directory is ``--out``, else ``output.dir``; no environment
    variable overrides it."""
    cfg = _write_cfg(tmp_path, "grid.n = 16\ntime.t_end = 0.002\ntime.dt = 1e-3\n"
                               "init.kind = vortex\n")
    r = _run_cli(["energy-audit", "--config", cfg], str(tmp_path / "flagout"),
                 {"NSAC_OUT": str(tmp_path / "envout")})
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "flagout" / "energy.csv").exists()
    assert not (tmp_path / "envout").exists()


def test_cli_in_process_main_quiet(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "grid.n = 16\ntime.t_end = 0.002\ntime.dt = 1e-3\n"
                               "init.kind = vortex\n")
    code = main(["energy-audit", "--config", cfg, "--out",
                 str(tmp_path / "out"), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_cli_determinism_bitwise(tmp_path):
    cases = [
        ("small", "grid.n = 16\ntime.t_end = 0.005\n", (None, None)),
        # the spectral solves are BLAS matmuls: the thread count must not matter
        ("threads", "grid.n = 128\ntime.t_end = 0.001\n", ("1", "2")),
    ]
    for name, text, threads in cases:
        (tmp_path / name).mkdir()
        cfg = _write_cfg(tmp_path / name, text + "init.kind = spinodal\ninit.seed = 3\n")
        outs = []
        for sub, count in zip(("a", "b"), threads):
            out = tmp_path / name / sub
            env = {} if count is None else {"OPENBLAS_NUM_THREADS": count, "OMP_NUM_THREADS": count}
            r = _run_cli(["energy-audit", "--config", cfg], str(out), env)
            assert r.returncode == 0, r.stderr
            outs.append((out / "energy.csv").read_bytes())
        assert outs[0] == outs[1], name


# two bursts of twenty 129^2 arrays, allocated, filled and freed together, in
# a fresh process: it prints the minor page faults of the second burst
_BURSTS = """
import resource
import numpy as np
from nsac.cli import set_allocator_policy

set_allocator_policy()


def burst():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.empty((129, 129)) for _ in range(20)]
    for a in arrays:
        a.fill(1.0)
    del arrays
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


burst()
print(burst())
"""


def test_allocator_policy_reuses_freed_arrays():
    """With glibc's defaults the second burst faults its pages in again
    (the first is unmapped when freed, the second trimmed off the heap)."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):
        libc = None
    if not libc:
        pytest.skip("the allocator policy is glibc's mallopt")
    r = subprocess.run([sys.executable, "-c", _BURSTS], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 50
