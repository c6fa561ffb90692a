"""Command-line entry point.

Exit codes: 0 success, 1 configuration/usage error, 2 numerical failure
(failed audit, CFL rejection, or non-finite state).
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys

import numpy as np

from . import __version__
from .experiments import (
    ExperimentConfig,
    energy_history,
    initial_state,
    run_energy_audit,
    run_manufactured,
    run_perturbation,
    run_wsu,
    step_count,
)
from .io import (
    ConfigError,
    RunManifest,
    config_echo,
    parse_config,
    write_energy_csv,
    write_entropy_csv,
    write_rei_csv,
    write_vtk,
)
from .solver import NumericalError

AUDIT_TOL = 1e-6
REI_SLACK_TOL = 1e-3


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_config(arg: str) -> ExperimentConfig:
    if arg == "default":
        return ExperimentConfig()
    return parse_config(arg)


class _Run:
    """Output directory plus manifest bookkeeping for one invocation."""

    def __init__(self, cfg: ExperimentConfig, out: str | None, quiet: bool):
        self.cfg = cfg
        self.quiet = quiet
        self.dir = os.environ.get("NSAC_OUT") or out or cfg.output_dir
        os.makedirs(self.dir, exist_ok=True)
        self.manifest = RunManifest(
            config=config_echo(cfg), version=__version__, started=_now()
        )

    def path(self, name: str) -> str:
        return self.manifest.add(os.path.join(self.dir, name))

    def say(self, message: str):
        if not self.quiet:
            print(message)

    def finish(self):
        self.manifest.finished = _now()
        path = os.path.join(self.dir, "manifest.json")
        self.manifest.write(path)
        self.say(f"wrote {path}")


def _cmd_simulate(run: _Run) -> int:
    """Energy trace plus a VTK snapshot at every sample that falls on an
    ``output.every`` multiple, and at the last one, written as it arrives."""
    cfg = run.cfg
    n_steps = step_count(cfg.t_end, cfg.dt)
    stride = max(1, n_steps // cfg.sample_count)
    state = initial_state(cfg, cfg.grid())
    reports = []
    for i, (state, report) in enumerate(
        energy_history(state, cfg.well, cfg.params, cfg.dt, n_steps)
    ):
        reports.append(report)
        # named by the step index, so a last short chunk names the step it reached
        if (i % stride == 0 and i % cfg.output_every == 0) or i == n_steps:
            write_vtk(state, run.path(f"snapshot_{i:06d}.vtk"), f"t={state.t:.6f}")
    write_energy_csv(reports, run.path("energy.csv"))
    run.say(f"simulated {n_steps} steps to t={state.t:.6f}")
    return 0


def _cmd_energy_audit(run: _Run) -> int:
    reports, violation = run_energy_audit(run.cfg)
    write_energy_csv(reports, run.path("energy.csv"))
    run.say(f"audit violation: {violation:.3e} (tolerance {AUDIT_TOL:.0e})")
    if not (violation <= AUDIT_TOL):
        print(f"error: energy audit failed ({violation:.3e} > {AUDIT_TOL:.0e})",
              file=sys.stderr)
        return 2
    return 0


def _cmd_wsu(run: _Run) -> int:
    report = run_wsu(run.cfg)
    for lv in report.levels:
        write_entropy_csv(lv.trace, lv.fit.bound_curve, run.path(f"entropy_{lv.n}.csv"))
        write_rei_csv(lv.rei, run.path(f"rei_{lv.n}.csv"))
        run.say(f"level {lv.n}: max entropy {lv.max_entropy:.6e}, fitted k {lv.fit.k:.4g}")
    run.say(f"refinement ratios: {[f'{r:.2f}' for r in report.refinement_ratios]}")
    maxima = [lv.max_entropy for lv in report.levels]
    if not all(b < a for a, b in zip(maxima, maxima[1:])):
        print("error: relative entropy did not decrease under refinement",
              file=sys.stderr)
        return 2
    return 0


def _cmd_perturb(run: _Run) -> int:
    trace, fit = run_perturbation(run.cfg, run.cfg.perturbation_delta)
    write_entropy_csv(trace, fit.bound_curve, run.path("entropy.csv"))
    run.say(f"fitted k: {fit.k:.6g}, bound violated: {fit.violated}")
    if fit.violated:
        print("error: relative entropy exceeded the fitted exponential bound",
              file=sys.stderr)
        return 2
    return 0


def _cmd_rei_check(run: _Run) -> int:
    report = run_wsu(run.cfg, twin=False)
    for lv in report.levels:
        write_rei_csv(lv.rei, run.path(f"rei_{lv.n}.csv"))
    lv = report.levels[-1]  # finest genuine weak/strong pair
    lhs = lv.rei.lhs_entropy_gap + lv.rei.lhs_visc + lv.rei.lhs_ac
    deficit = np.maximum(0.0, -lv.rei.slack - REI_SLACK_TOL * (1.0 + np.abs(lhs)))
    worst = float(np.max(deficit)) if len(deficit) else 0.0
    run.say(f"level {lv.n}: min slack {float(np.min(lv.rei.slack)):.3e}, "
            f"worst deficit beyond tolerance {worst:.3e}")
    if not (worst <= 0):
        print("error: relative entropy inequality violated beyond tolerance",
              file=sys.stderr)
        return 2
    return 0


def _cmd_mms(run: _Run) -> int:
    table = run_manufactured(run.cfg)
    from .io import _write_table

    _write_table(
        run.path("mms_spatial.csv"),
        ("n", "error"),
        [np.array(table.resolutions, dtype=float), np.array(table.spatial_errors)],
    )
    _write_table(
        run.path("mms_temporal.csv"),
        ("dt", "difference"),
        [np.array(table.dts[:-1]), np.array(table.temporal_diffs)],
    )
    run.say(f"spatial orders: {[f'{o:.3f}' for o in table.spatial_orders]}")
    run.say(f"temporal orders: {[f'{o:.3f}' for o in table.temporal_orders]}")
    ok = all(1.7 <= o <= 2.3 for o in table.spatial_orders) and all(
        0.8 <= o <= 1.2 for o in table.temporal_orders
    )
    if not ok:
        print("error: observed convergence orders outside expected ranges",
              file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "energy-audit": _cmd_energy_audit,
    "wsu": _cmd_wsu,
    "perturb": _cmd_perturb,
    "rei-check": _cmd_rei_check,
    "mms": _cmd_mms,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsac",
        description="Navier-Stokes/Allen-Cahn finite-difference studies",
    )
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default="default",
                       help="config file path, or 'default' for built-in defaults")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses code 2 for usage errors
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _load_config(args.config)
        run = _Run(cfg, args.out, args.quiet)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        code = _COMMANDS[args.command](run)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())
