"""Config format, CSV round trips, VTK output, CLI exit codes."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsac.diagnostics import EnergyReport, REITrace, RelEntropyTrace, gronwall_fit
from nsac.experiments import (
    INIT_KINDS,
    ExperimentConfig,
    LevelResult,
    WSUReport,
    initial_state,
)
from nsac.io import (
    ConfigError,
    SchemaError,
    parse_config,
    parse_config_text,
    read_energy_csv,
    read_entropy_csv,
    read_rei_csv,
    serialize_config,
    write_energy_csv,
    write_entropy_csv,
    write_rei_csv,
    write_vtk,
)
from nsac.cli import main
from nsac.grid import make_grid
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
        grid_n=st.integers(1, 10**6),
        length=_positive_reals,
        nu=_positive_reals,
        eps=_positive_reals,
        dt=_positive_reals,
        t_end=_positive_reals,
        potential_f1=_reals,
        potential_f2=_reals,
        init_kind=st.sampled_from(INIT_KINDS),
        init_seed=st.integers(0, 2**63),
        init_amplitude=_reals,
        perturbation_delta=st.floats(min_value=0.0, allow_infinity=False),
        wsu_levels=st.sets(st.integers(1, 10**6), min_size=1, max_size=5).map(
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


# ---------------------------------------------------------------------------
# CSV


def _random_energy_reports(rng, n):
    reports = []
    for k in range(n):
        reports.append(EnergyReport(
            t=k * 1e-3, kinetic=abs(rng.standard_normal()),
            interfacial=abs(rng.standard_normal()),
            potential=abs(rng.standard_normal()),
            viscous_diss=abs(rng.standard_normal()),
            ac_diss=abs(rng.standard_normal()),
            cumulative_diss=abs(rng.standard_normal()),
        ))
    return reports


def test_energy_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(60)
    reports = _random_energy_reports(rng, 20)
    path = str(tmp_path / "energy.csv")
    write_energy_csv(reports, path)
    back, audit = read_energy_csv(path)
    for a, b in zip(reports, back):
        for name in ("t", "kinetic", "interfacial", "potential",
                     "viscous_diss", "ac_diss", "cumulative_diss"):
            assert getattr(a, name) == getattr(b, name)
    e0 = reports[0].total
    expect = np.array([(r.total + r.cumulative_diss - e0) / e0 for r in reports])
    assert np.array_equal(audit, expect)


def test_entropy_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(61)
    n = 15
    trace = RelEntropyTrace(
        times=rng.standard_normal(n), E=rng.standard_normal(n),
        D=rng.standard_normal(n), omega=rng.standard_normal(n),
    )
    bound = rng.standard_normal(n)
    path = str(tmp_path / "entropy.csv")
    write_entropy_csv(trace, bound, path)
    back, bound2 = read_entropy_csv(path)
    for name in ("times", "E", "D", "omega"):
        assert np.array_equal(getattr(trace, name), getattr(back, name))
    assert np.array_equal(bound, bound2)


def test_rei_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(62)
    n = 12
    fields = {name: rng.standard_normal(n) for name in (
        "times", "lhs_entropy_gap", "lhs_visc", "lhs_ac", "r_conv", "r_eps1",
        "r_eps2", "r_eps3", "r_eps4", "r_f", "slack")}
    trace = REITrace(**fields)
    path = str(tmp_path / "rei.csv")
    write_rei_csv(trace, path)
    back = read_rei_csv(path)
    for name, arr in fields.items():
        assert np.array_equal(arr, getattr(back, name))


def test_empty_trace_header_only(tmp_path):
    path = str(tmp_path / "energy.csv")
    write_energy_csv([], path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1
    back, audit = read_energy_csv(path)
    assert back == [] and len(audit) == 0


def test_csv_schema_mismatch_names_column(tmp_path):
    path = str(tmp_path / "entropy.csv")
    with open(path, "w") as fh:
        fh.write("t,E,D,omega\n")  # bound_curve missing
    with pytest.raises(SchemaError) as err:
        read_entropy_csv(path)
    assert "bound_curve" in str(err.value)


def test_csv_ragged_row_rejected(tmp_path):
    path = str(tmp_path / "entropy.csv")
    with open(path, "w") as fh:
        fh.write("t,E,D,omega,bound_curve\n1,2,3\n")
    with pytest.raises(SchemaError) as err:
        read_entropy_csv(path)
    assert "line 2" in str(err.value)


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
    write_vtk(state, path)
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
    state.p.values[...] = np.arange(c.size).reshape(n) / 7.0
    state.u.components[0][1:-1] = 0.1
    path = tmp_path / "snap.vtk"
    write_vtk(state, str(path))
    text = path.read_text()

    # reference writer: one formatted value per line, x fastest
    from nsac.grid import avg_to_cells
    from nsac.io import FLOAT_FMT

    fields = [("c", state.c.values), ("p", state.p.values)]
    fields += [(f"u_{'xyz'[a]}", v) for a, v in enumerate(avg_to_cells(state.u))]
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
    write_vtk(state, path)
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
    env.pop("NSAC_OUT", None)
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
    import nsac.cli

    def nan_state(cfg, grid):
        state = initial_state(cfg, grid)
        state.c.values[3, 5] = np.nan
        return state

    monkeypatch.delenv("NSAC_OUT", raising=False)
    monkeypatch.setattr(nsac.cli, "initial_state", nan_state)
    cfg = _write_cfg(tmp_path, "grid.n = 16\ntime.t_end = 0.002\ntime.dt = 1e-3\n"
                               "init.kind = bubble\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert "non-finite c" in capsys.readouterr().err


def test_cli_simulate_names_snapshots_by_step(tmp_path, monkeypatch):
    # 10 steps sampled every 3: the last, short chunk ends at step 10, not 12
    monkeypatch.delenv("NSAC_OUT", raising=False)
    cfg = _write_cfg(tmp_path, "grid.n = 16\ntime.dt = 1e-3\ntime.t_end = 0.01\n"
                               "output.samples = 3\noutput.every = 1\ninit.kind = bubble\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    names = sorted(p.name for p in out.glob("snapshot_*.vtk"))
    assert names == [f"snapshot_{i:06d}.vtk" for i in (0, 3, 6, 9, 10)]
    assert (out / "snapshot_000010.vtk").read_text().splitlines()[1] == "t=0.010000"


@pytest.mark.parametrize("command", ["simulate", "energy-audit", "perturb", "wsu"])
@pytest.mark.parametrize("t_end", ["1e-5", "3e-4"])
def test_cli_schedule_not_whole_steps_exit_1(tmp_path, capsys, monkeypatch, command, t_end):
    monkeypatch.delenv("NSAC_OUT", raising=False)
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
def test_cli_mms_bad_levels_exit_1(tmp_path, capsys, monkeypatch, levels, fragments):
    monkeypatch.delenv("NSAC_OUT", raising=False)
    cfg = _write_cfg(tmp_path, f"init.kind = manufactured\nwsu.levels = {levels}\n")
    code = main(["mms", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert all(f in err for f in fragments)


def test_cli_mms_order_uses_level_ratio(tmp_path, monkeypatch):
    """Levels 16 and 24 refine h by 1.5, not 2; the order is still about 2."""
    monkeypatch.delenv("NSAC_OUT", raising=False)
    cfg = _write_cfg(tmp_path, "init.kind = manufactured\nwsu.levels = 16,24\n")
    out = tmp_path / "out"
    code = main(["mms", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    lines = (out / "mms_spatial.csv").read_text().split()
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert 1.7 <= np.log(errors[0] / errors[1]) / np.log(24 / 16) <= 2.3


def test_cli_mms_non_unit_box_exit_1(tmp_path, capsys, monkeypatch):
    """The manufactured solution lives on the unit box; 1.5 is a config error."""
    monkeypatch.delenv("NSAC_OUT", raising=False)
    cfg = _write_cfg(tmp_path, "init.kind = manufactured\ngrid.length = 1.5\n"
                               "wsu.levels = 8,16\n")
    code = main(["mms", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    assert "grid.length = 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("overshoot, code", [(1e-3, 2), (5e-7, 0)])
def test_cli_energy_audit_max_principle(tmp_path, capsys, monkeypatch, overshoot, code):
    """An excursion of c beyond the bounds plus 1e-6 after step 3 fails the audit."""
    import nsac.experiments

    real_step = nsac.experiments.step

    def overshooting_step(state, *args, **kwargs):
        new, report = real_step(state, *args, **kwargs)
        if abs(new.t - 3e-3) < 1e-9:
            # a stepped c is read-only: rebind it to an overshooting copy
            new.c = new.c.copy()
            new.c.values[2, 5] = 1.0 + overshoot
        return new, report

    monkeypatch.delenv("NSAC_OUT", raising=False)
    monkeypatch.setattr(nsac.experiments, "step", overshooting_step)
    # c = 1 everywhere at rest: the bounds are [-1, 1] and nothing moves
    cfg = _write_cfg(tmp_path, "grid.n = 16\ntime.t_end = 0.005\ntime.dt = 1e-3\n"
                               "init.kind = vortex\ninit.amplitude = 0\n")
    assert main(["energy-audit", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == code
    if code:
        err = capsys.readouterr().err
        assert "maximum principle" in err
        assert "step 3," in err and "t=0.003" in err and repr(1.0 + overshoot) in err


def _fake_wsu_report(maxima, slack):
    """Three levels whose max entropies are ``maxima``; every REI slack is ``slack``."""
    times = np.array([0.0, 0.1, 0.2])
    zero = np.zeros_like(times)
    rei_cols = dict.fromkeys(["lhs_entropy_gap", "lhs_visc", "lhs_ac", "r_conv",
                              "r_eps1", "r_eps2", "r_eps3", "r_eps4", "r_f"], zero)
    levels = []
    for n, m in zip((8, 16, 32), maxima):
        trace = RelEntropyTrace(times=times, E=np.full_like(times, m), D=zero,
                                omega=np.ones_like(times))
        rei = REITrace(times=times, slack=np.array(slack), **rei_cols)
        levels.append(LevelResult(n=n, trace=trace, rei=rei, fit=gronwall_fit(trace),
                                  max_entropy=m))
    return WSUReport(levels=levels, twin_entropy_max=maxima[-1])


@pytest.mark.parametrize(
    "command, maxima, slack",
    [
        ("wsu", [1e-3, np.nan, 0.0], [0.0, 0.0, 0.0]),
        ("rei-check", [1e-3, 1e-4, 0.0], [0.0, np.nan, 0.0]),
    ],
)
def test_cli_nan_certificate_fails_exit_2(tmp_path, monkeypatch, command, maxima, slack):
    import nsac.cli

    monkeypatch.delenv("NSAC_OUT", raising=False)
    monkeypatch.setattr(nsac.cli, "run_wsu",
                        lambda cfg, twin=True: _fake_wsu_report(maxima, slack))
    code = main([command, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2


def test_rei_check_skips_the_twin_rows(tmp_path, monkeypatch):
    """rei-check writes the same rei_<n>.csv bytes as wsu, and pairs only the
    coarse levels: the finest level is never paired with itself."""
    import nsac.experiments

    monkeypatch.delenv("NSAC_OUT", raising=False)
    cfg = _write_cfg(tmp_path, "grid.n = 16\ntime.t_end = 0.01\ntime.dt = 1e-3\n"
                               "init.kind = bubble\nwsu.levels = 16,32,64\noutput.samples = 5\n")
    paired = []
    pair_row = nsac.experiments.pair_row

    def counting_pair_row(weak, *args):
        paired.append(weak.grid.n[0])
        return pair_row(weak, *args)

    monkeypatch.setattr(nsac.experiments, "pair_row", counting_pair_row)
    counts = {}
    for command in ("wsu", "rei-check"):
        paired.clear()
        assert main([command, "--config", cfg, "--out", str(tmp_path / command), "--quiet"]) == 0
        counts[command] = {n: paired.count(n) for n in sorted(set(paired))}
    assert counts["wsu"] == {16: 6, 32: 6, 64: 6}
    assert counts["rei-check"] == {16: 6, 32: 6}
    for n in (16, 32):
        name = f"rei_{n}.csv"
        assert (tmp_path / "rei-check" / name).read_bytes() == (tmp_path / "wsu" / name).read_bytes()
    assert not (tmp_path / "rei-check" / "rei_64.csv").exists()


def test_cli_nan_audit_violation_exit_2(tmp_path, monkeypatch):
    import nsac.cli

    reports = [EnergyReport(t=0.0, kinetic=1.0, interfacial=0.0, potential=0.0)]
    monkeypatch.delenv("NSAC_OUT", raising=False)
    monkeypatch.setattr(nsac.cli, "run_energy_audit", lambda cfg: (reports, np.nan))
    code = main(["energy-audit", "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2


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


def test_cli_nsac_out_env_override(tmp_path):
    cfg = _write_cfg(tmp_path, "grid.n = 16\ntime.t_end = 0.002\ntime.dt = 1e-3\n"
                               "init.kind = vortex\n")
    env = dict(os.environ)
    env["NSAC_OUT"] = str(tmp_path / "envout")
    r = subprocess.run(
        [sys.executable, "-m", "nsac.cli", "energy-audit", "--config", cfg,
         "--out", str(tmp_path / "flagout")],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "envout" / "energy.csv").exists()
    assert not (tmp_path / "flagout").exists()


def test_cli_in_process_main_quiet(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NSAC_OUT", raising=False)
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
