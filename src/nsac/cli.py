"""Command-line entry point.

Exit codes: 0 success, 1 configuration/usage error, 2 numerical failure
(a failed certificate, a CFL rejection, or a non-finite state).
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import os
import sys

from . import __version__
from .certificates import Gate, energy_gates, gronwall_gates, mms_gates, wsu_gates
from .experiments import (
    ExperimentConfig,
    run_energy_audit,
    run_manufactured,
    run_perturbation,
    run_wsu,
)
from .io import (
    RunManifest,
    config_echo,
    parse_config,
    write_energy_csv,
    write_entropy_csv,
    write_mms_csv,
    write_rei_csv,
    write_vtk,
)
from .solver import NumericalError

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def set_allocator_policy() -> None:
    """Keep freed grid-sized arrays in the heap for the life of the process.

    Every step and every pair row frees a burst of grid-sized temporaries.
    With glibc's defaults each burst is handed back to the kernel (unmapped,
    or trimmed off the top of the heap) and the next burst faults its pages
    in again: a ``wsu`` process on ``perfbench/configs/wsu-bubble-dense.cfg``
    makes about 122k minor page faults, against 8k with this policy. Arrays
    up to 32 MiB come from the heap, and the heap is trimmed only above
    64 MiB of free memory at its top. A no-op where the C library has no
    ``mallopt``.
    """
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


class _Run:
    """Output directory plus manifest bookkeeping for one invocation."""

    def __init__(self, cfg: ExperimentConfig, out: str, quiet: bool):
        """Raises ``ValueError`` for an empty ``out``, and ``OSError`` unless
        the nearest existing one of the output directory and its ancestors
        is a writable directory; makes nothing."""
        if not out:
            raise ValueError("--out: must name a directory, got ''")
        self.cfg = cfg
        self.quiet = quiet
        self.dir = out
        base = os.path.abspath(self.dir)
        while not os.path.exists(base):
            base = os.path.dirname(base)
        if not os.path.isdir(base):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), base)
        if not os.access(base, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), base)
        self.manifest = RunManifest(config=config_echo(cfg), version=__version__)

    def path(self, name: str) -> str:
        """An output's path. The directory is made here, at a command's first
        write (before its manifest), so a command that fails before it leaves
        nothing on disk."""
        os.makedirs(self.dir, exist_ok=True)
        return self.manifest.add(os.path.join(self.dir, name))

    def say(self, message: str):
        if not self.quiet:
            print(message)

    def finish(self, gates: list[Gate]):
        self.manifest.record(gates)
        path = os.path.join(self.dir, "manifest.json")
        self.manifest.write(path)
        self.say(f"wrote {path}")


def _cmd_simulate(run: _Run) -> list[Gate]:
    """The energy audit's run, plus its VTK snapshots, each written as it arrives."""
    def snapshot(i, state, pressure):
        # named by the step index, so a last short chunk names the step it reached
        write_vtk(state, pressure, run.path(f"snapshot_{i:06d}.vtk"), f"t={state.t:.6f}")
    trace = run_energy_audit(run.cfg, snapshot)
    write_energy_csv(trace, run.path("energy.csv"))
    run.say(f"simulated {len(trace.t) - 1} steps to t={trace.t[-1]:.6f}")
    return energy_gates(trace)


def _cmd_energy_audit(run: _Run) -> list[Gate]:
    trace = run_energy_audit(run.cfg)
    write_energy_csv(trace, run.path("energy.csv"))
    return energy_gates(trace)


def _cmd_wsu(run: _Run) -> list[Gate]:
    levels = run_wsu(run.cfg)
    for n, trace in levels.items():
        write_entropy_csv(trace, run.path(f"entropy_{n}.csv"))
        write_rei_csv(trace, run.path(f"rei_{n}.csv"))
        run.say(f"level {n}: max entropy {trace.max_entropy:.6e}, fitted k {trace.k:.4g}")
    return wsu_gates(levels)


def _cmd_perturb(run: _Run) -> list[Gate]:
    trace = run_perturbation(run.cfg)
    write_entropy_csv(trace, run.path("entropy.csv"))
    run.say(f"fitted k: {trace.k:.6g}")
    return gronwall_gates(trace)


def _cmd_mms(run: _Run) -> list[Gate]:
    trace = run_manufactured(run.cfg)
    write_mms_csv(trace, run.path("mms_spatial.csv"), run.path("mms_temporal.csv"))
    return mms_gates(trace)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "energy-audit": _cmd_energy_audit,
    "wsu": _cmd_wsu,
    "perturb": _cmd_perturb,
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
        p.add_argument("--config", help="config file path (default: built-in configuration)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
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
    # one policy for the whole process, before any command allocates
    set_allocator_policy()
    try:
        cfg = ExperimentConfig() if args.config is None else parse_config(args.config)
        run = _Run(cfg, args.out, args.quiet)
        gates = _COMMANDS[args.command](run)
    except (ValueError, OSError) as exc:  # bad input or an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run.finish(gates)
    for g in gates:
        run.say(f"certificate {g.name}: {g.value!r} against {g.bound}")
        if not g.passed:
            print(f"error: certificate {g.name} failed: {g.value!r} against {g.bound}",
                  file=sys.stderr)
    return 0 if all(g.passed for g in gates) else 2


if __name__ == "__main__":
    sys.exit(main())
