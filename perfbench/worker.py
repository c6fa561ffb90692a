"""Run one nsac CLI study in this process and record how it went.

Usage: python3 perfbench/worker.py RESULT_JSON MODE MODULES -- NSAC_ARGS...

MODE is ``run`` (untraced: only a one-shot marker on the first
``solver.step``), ``trace`` (span wrappers from spans.py) or ``setup`` (stop
the study at its first ``solver.step``, to time set-up alone). MODULES is a comma-separated list of
nsac modules to import before the study starts (the modules whose spans the
workload reaches). Times are CLOCK_MONOTONIC readings, which the parent
process compares with the time it started this one. Exit code 3 means nsac
could not be imported or instrumented; any other failure of the study is
recorded in RESULT_JSON.
"""

import importlib
import json
import os
import resource
import sys
import time
import traceback

NO_PROGRAM = 3


def main(argv: list[str]) -> int:
    result_path, mode, modules = argv[0], argv[1], argv[2]
    trace = mode == "trace"
    nsac_args = argv[argv.index("--") + 1:]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(repo, "src"))
    try:
        for name in ["nsac.cli"] + [m for m in modules.split(",") if m]:
            importlib.import_module(name)
    except ImportError as exc:
        print(f"worker: cannot import nsac from {repo}/src: {exc}", file=sys.stderr)
        return NO_PROGRAM

    import spans
    from nsac import cli

    try:
        if trace:
            recorder = spans.Recorder()
            recorder.install()
        else:
            marker = spans.FirstStepMarker(stop=mode == "setup")
            marker.install()
    except AttributeError as exc:
        print(f"worker: cannot instrument nsac: {exc}", file=sys.stderr)
        return NO_PROGRAM

    result = {"code": None, "error": None}
    try:
        if trace:
            result["code"] = recorder.run_root(cli.main, nsac_args)
        else:
            result["code"] = cli.main(nsac_args)
    except spans.StopAtFirstStep:
        pass
    except Exception:  # the study crashed: record it, the gates fail
        result["error"] = traceback.format_exc()
    result["t_return"] = time.monotonic()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        recorder.uninstall()
        result["trace"] = recorder.summary()
    else:
        result["t_first_step"] = marker.time
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
