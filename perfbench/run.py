"""nsac benchmark: certificate-producing CLI studies, timed end to end and
per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition starts one fresh ``python3 perfbench/worker.py`` process that
runs one ``nsac`` command in-process through ``nsac.cli.main`` on a config
written from ``perfbench/configs``. Repetitions run one at a time, with
BLAS/OpenMP threads pinned to 1; a new one starts while fewer than S seconds
have passed, and there are at least two. With ``--trace 1``, untraced and
traced repetitions alternate.
Every repetition's outputs are checked against the certificate gates, hashed
and counted; hashes and counts must repeat exactly within a run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (certificate gates) and ``metrics``:
the end-to-end metrics (medians over untraced repetitions) with
``--trace 0``, the per-layer metrics of the traced repetitions with
``--trace 1``. The program is imported from ``src/`` of the checkout; the
benchmark exits with code 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

import gates
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")
NO_PROGRAM = 3  # worker exit code: nsac missing or not instrumentable
HARD_LIMIT_S = 165.0  # a run must end within 180 s
PROBE_SHARE = 0.15  # share of --seconds that set-up probes may add
MAX_SETUPS = 11

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}


# ---------------------------------------------------------------------------
# workloads: exact step schedules, mirroring the studies in nsac.experiments


def _key(n: int) -> str:
    return f"{n}x{n}"


def _levels(cfg: dict) -> list[int]:
    return [int(v) for v in cfg["wsu.levels"].split(",")]


def simulate_schedule(cfg: dict) -> dict[str, int]:
    n = int(cfg["grid.n"])
    return {_key(n): round(float(cfg["time.t_end"]) / float(cfg["time.dt"]))}


def wsu_schedule(cfg: dict) -> dict[str, int]:
    """dt scales as dt * grid.n / n; every level shares the coarsest sample times."""
    levels = _levels(cfg)
    dt, grid_n, t_end = float(cfg["time.dt"]), int(cfg["grid.n"]), float(cfg["time.t_end"])
    base_steps = round(t_end / (dt * grid_n / levels[0]))
    return {_key(n): base_steps * (n // levels[0]) for n in levels}


def mms_schedule(cfg: dict) -> dict[str, int]:
    """Spatial runs to t = 6.4e-3 with dt = 3.2e-4 (n0/n)^2, then three
    temporal runs to t = 0.05 on the finest grid."""
    levels = _levels(cfg)
    steps = {_key(n): round(6.4e-3 / (3.2e-4 * (levels[0] / n) ** 2)) for n in levels}
    steps[_key(levels[-1])] += sum(round(0.05 / dt) for dt in (5e-4, 2.5e-4, 1.25e-4))
    return steps


@dataclass(frozen=True)
class Workload:
    command: str
    gates: object
    schedule: object
    modules: tuple[str, ...] = ()  # imported before the study starts


WORKLOADS = {
    # solver-bound: 128^2 working set larger than L2, 11 ASCII VTK snapshots
    "simulate-spinodal-128": Workload("simulate", gates.simulate_gates, simulate_schedule),
    # paired post-processing (REI, relative entropy, restriction), 603 stored states
    "wsu-bubble-dense": Workload("wsu", gates.wsu_gates, wsu_schedule),
    # set-up-bound: symbolic ManufacturedSolution, grids that fit in L2
    "mms-16-64": Workload("mms", gates.mms_gates, mms_schedule, ("nsac.manufactured",)),
}


def render_config(name: str, seed: int) -> tuple[str, bool]:
    """Config text for a workload; the seed reaches only an ``{seed}`` slot."""
    with open(os.path.join(HERE, "configs", f"{name}.cfg")) as fh:
        template = fh.read()
    return template.replace("{seed}", str(seed)), "{seed}" in template


def parse_config(text: str) -> dict[str, str]:
    cfg = {}
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            key, value = (part.strip() for part in body.split("=", 1))
            cfg[key] = value
    return cfg


# ---------------------------------------------------------------------------
# repetitions


class NoProgram(RuntimeError):
    """nsac cannot be imported or instrumented: there is nothing to measure."""


@dataclass
class Rep:
    traced: bool
    wall_s: float
    setup_s: float | None = None
    rss_mb: float | None = None
    gates: list = field(default_factory=list)
    digest: str | None = None
    counts: dict = field(default_factory=dict)
    trace: dict | None = None
    problem: str | None = None


def spawn_worker(mode: str, wl: Workload, cfg_path: str, rep_dir: str,
                 deadline: float) -> tuple[float, dict]:
    """Run one worker process to its end; return its start time and record."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    os.makedirs(rep_dir)
    result_path = os.path.join(rep_dir, "result.json")
    cmd = [sys.executable, WORKER, result_path, mode, ",".join(wl.modules), "--",
           wl.command, "--config", cfg_path, "--out", os.path.join(rep_dir, "out"), "--quiet"]
    env = dict(os.environ, **THREAD_PINS)
    env.pop("NSAC_OUT", None)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        proc.wait(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        print(f"worker ran past the {HARD_LIMIT_S:.0f} s limit of a run", file=sys.stderr)
    finally:  # on a timeout or a signal, leave no worker behind
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode == NO_PROGRAM:
        raise NoProgram(f"the worker could not import or instrument nsac under {ROOT}/src")
    try:
        with open(result_path) as fh:
            return t0, json.load(fh)
    except (OSError, ValueError):
        return t0, {"error": f"worker exited with {proc.returncode} and no result"}


def run_rep(wl: Workload, cfg: dict, cfg_path: str, rep_dir: str,
            traced: bool, deadline: float) -> Rep:
    t0, result = spawn_worker("trace" if traced else "run", wl, cfg_path, rep_dir, deadline)
    rep = Rep(traced=traced, wall_s=result.get("t_return", time.monotonic()) - t0)
    if result.get("maxrss_kb") is not None:
        rep.rss_mb = result["maxrss_kb"] / 1024.0
    first = result.get("t_first_step")
    rep.setup_s = (first - t0) if first is not None else rep.wall_s
    rep.trace = result.get("trace")

    out = os.path.join(rep_dir, "out")
    try:
        rep.gates, finite = wl.gates(out, cfg)
        rep.digest = gates.fingerprint(out)
        rep.counts = gates.output_counts(out)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        rep.gates, finite = [("outputs.readable", False, repr(exc))], False
    if result.get("error") or result.get("code") != 0 or not finite:
        rep.problem = (result.get("error") or
                       (f"exit code {result.get('code')}" if result.get("code") != 0
                        else "non-finite output"))
        rep.gates = [(name, False, detail) for name, _, detail in rep.gates]
    if rep.trace:
        t = rep.trace
        rep.counts.update({f"steps.{k}": v for k, v in sorted(t["level_steps"].items())})
        rep.counts["work.cell_steps"] = t["cell_steps"]
        rep.counts.update({f"{k}.iters": v for k, v in sorted(t["cg_iters"].items())})
        rep.counts.update({f"{k}.calls": v for k, v in sorted(t["calls"].items())})
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def setup_probe(wl: Workload, cfg_path: str, probe_dir: str, deadline: float) -> float | None:
    """Seconds from process start to the first ``solver.step`` of one more study."""
    t0, result = spawn_worker("setup", wl, cfg_path, probe_dir, deadline)
    shutil.rmtree(probe_dir, ignore_errors=True)
    first = result.get("t_first_step")
    return None if first is None else first - t0


def run_reps(wl: Workload, cfg: dict, cfg_path: str, seconds: float,
             trace: bool) -> tuple[list[Rep], list[float]]:
    """Full repetitions, then set-up probes while they cost little."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    reps: list[Rep] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        longest = max((r.wall_s for r in reps), default=0.0)
        now = time.monotonic()
        if len(reps) >= 2 and (now - start >= seconds or now + longest > deadline):
            break
        rep = run_rep(wl, cfg, cfg_path, os.path.join(OUT, f"rep{len(reps)}"), traced, deadline)
        reps.append(rep)
        print(f"rep {len(reps)}: " + (f"traced wall {rep.wall_s:.3f} s, " if traced else
                                       f"wall {rep.wall_s:.3f} s, setup {rep.setup_s:.3f} s, ")
              + f"peak RSS {rep.rss_mb} MB, "
              f"gates {sum(ok for _, ok, _ in rep.gates)}/{len(rep.gates)}"
              + (f", FAILED: {rep.problem.strip().splitlines()[-1]}" if rep.problem else ""),
              flush=True)
        if rep.problem or time.monotonic() > deadline:
            break
    setups = [r.setup_s for r in reps if not r.traced]
    if trace or any(r.problem for r in reps):
        return reps, setups
    budget = time.monotonic() + PROBE_SHARE * seconds
    while len(setups) < MAX_SETUPS and time.monotonic() + median(setups) < min(budget, deadline):
        probe = setup_probe(wl, cfg_path, os.path.join(OUT, "probe"), deadline)
        if probe is None:
            break
        setups.append(probe)
    print(f"set-up times (s): {', '.join(f'{v:.3f}' for v in setups)}")
    return reps, setups


# ---------------------------------------------------------------------------
# metrics


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else median(values)


def end_to_end(reps: list[Rep], setups: list[float], cell_steps: int,
               attempted: int, failed: int) -> dict:
    untraced = [r for r in reps if not r.traced]
    rates = [cell_steps / (r.wall_s - r.setup_s) for r in untraced if r.wall_s > r.setup_s]
    return {
        "wall_s": (median([r.wall_s for r in untraced]), "s"),
        "setup_s": (median(setups), "s"),
        "cell_steps_per_s": (median(rates), "1/s"),
        "peak_rss_mb": (median([r.rss_mb for r in untraced if r.rss_mb]), "MB"),
        "cert_pass_frac": (1.0 - failed / attempted, "frac"),
    }


def per_layer(reps: list[Rep]) -> tuple[dict, list[str]]:
    """Per-span calls and self time (medians over traced repetitions)."""
    traced = [r for r in reps if r.traced and r.trace]
    problems = []
    if not traced:
        return {}, ["no traced repetition finished"]
    first = traced[0].trace
    metrics = {}
    for span in spans.REPORTED:
        metrics[f"{span}.calls"] = (first["calls"].get(span, 0), "count")
        metrics[f"{span}.self_s"] = (median([r.trace["self_s"].get(span, 0.0) for r in traced]), "s")
    metrics["solver.step.ms_p50"] = (median([median(r.trace["step_ms"]) for r in traced]), "ms")
    metrics["solver.step.ms_p90"] = (median([p90(r.trace["step_ms"]) for r in traced]), "ms")
    for cg in ("solver.cg_ac", "solver.cg_visc"):
        metrics[f"{cg}.iters"] = (first["cg_iters"].get(cg, 0), "count")
    metrics["io.bytes_written"] = (traced[0].counts.get("io.bytes_written", 0), "B")
    metrics["work.cell_steps"] = (first["cell_steps"], "count")
    metrics["work.steps"] = (sum(first["level_steps"].values()), "count")
    metrics["work.samples"] = (first["calls"].get("diagnostics.trajectory_append", 0), "count")
    untraced_wall = median([r.wall_s for r in reps if not r.traced])
    traced_wall = median([r.wall_s for r in traced])
    metrics["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    sums = [sum(r.trace["self_s"].values()) / r.trace["root_s"] for r in traced]
    metrics["trace.self_sum_frac"] = (median(sums), "frac")
    absent = [s for s, status in first["status"].items() if status == "absent"]
    metrics["trace.spans_absent"] = (len(absent), "count")
    for r in traced:
        negative = [s for s, v in r.trace["self_s"].items() if v < 0]
        share = sum(r.trace["self_s"].values()) / r.trace["root_s"]
        if negative or abs(share - 1.0) > 1e-6:
            problems.append(f"span self times do not add up to {spans.ROOT}: "
                            f"sum/root {share!r}, negative {negative}")
    for span, status in sorted(first["status"].items()):
        if status != "traced":
            print(f"span {span}: {status}")
    print(f"{'span':34s} {'calls':>8s} {'self_s':>9s} {'share':>7s}")
    root = first["root_s"]
    for span, calls in sorted(first["calls"].items(), key=lambda kv: -first["self_s"][kv[0]]):
        print(f"{span:34s} {calls:8d} {first['self_s'][span]:9.4f} "
              f"{first['self_s'][span] / root:7.1%}")
    return metrics, problems


def consistency(reps: list[Rep], schedule: dict[str, int], cell_steps: int) -> list[str]:
    """Fingerprints and exact counts must repeat; traced steps must match the config."""
    problems = []
    done = [r for r in reps if not r.problem]
    digests = {r.digest for r in done}
    if len(digests) > 1:
        problems.append(f"output fingerprints differ between repetitions: {sorted(digests)}")
    untraced = [r for r in done if not r.traced]
    traced = [r for r in done if r.traced]
    for group in (untraced, traced):
        for r in group[1:]:
            if r.counts != group[0].counts:
                problems.append(f"exact counts differ between repetitions: "
                                f"{group[0].counts} vs {r.counts}")
    if untraced and traced:
        mismatch = {k for k, v in untraced[0].counts.items() if traced[0].counts.get(k) != v}
        if mismatch:
            problems.append(f"tracing changed the output counts {sorted(mismatch)}")
    for r in done:
        if r.trace:
            steps = r.trace["level_steps"]
            if steps != schedule or r.trace["cell_steps"] != cell_steps:
                problems.append(f"traced steps {steps} (cell steps {r.trace['cell_steps']}) "
                                f"differ from the config schedule {schedule} ({cell_steps})")
    return problems


# ---------------------------------------------------------------------------
# machine record


def machine_record() -> dict:
    record = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
              "python": platform.python_version(), "thread_pins": THREAD_PINS}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            record[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            record[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        record["cpu_model"] = models[0] if models else platform.processor()
    except OSError:
        record["cpu_model"] = platform.processor()
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            def read(name):
                with open(os.path.join(cache_dir, index, name)) as fh:
                    return fh.read().strip()
            if read("type") != "Instruction":
                record[f"L{read('level')}{'d' if read('type') == 'Data' else ''}"] = read("size")
    except OSError:
        pass
    return record


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "nsac", "cli.py")):
        print(f"error: no nsac sources under {ROOT}/src", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    seed = args.seed % 2**32  # init.seed must be a nonnegative integer
    text, seeded = render_config(args.workload, seed)
    cfg = parse_config(text)
    schedule = wl.schedule(cfg)
    cell_steps = sum(math.prod(map(int, k.split("x"))) * v for k, v in schedule.items())

    print("machine " + json.dumps(machine_record(), sort_keys=True))
    print(f"workload {args.workload}: nsac {wl.command}, seed {args.seed} -> "
          + (f"init.seed = {seed}" if seeded else "not used (the inputs do not depend on it)"))
    print(f"schedule (steps per grid) {schedule}, cell steps {cell_steps}")

    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    cfg_path = os.path.join(OUT, f"{args.workload}.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    try:
        reps, setups = run_reps(wl, cfg, cfg_path, args.seconds, bool(args.trace))
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    all_gates = [g for r in reps for g in r.gates]
    attempted = len(all_gates)
    failed = sum(not ok for _, ok, _ in all_gates)
    for name, ok, detail in reps[0].gates:
        print(f"gate {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    print(f"certificate gates: {attempted - failed}/{attempted} passed over {len(reps)} "
          f"repetitions, cert_fail_frac {failed / attempted:.6g}")
    done = [r for r in reps if not r.problem]
    if done:
        print(f"output fingerprint sha256 {done[0].digest}")
        print("exact counts " + json.dumps(max(done, key=lambda r: len(r.counts)).counts, sort_keys=True))
        recorded = reference_digest(args.workload, seed if seeded else None)
        print("fingerprint recorded for this input: "
              + ("none" if recorded is None else
                 "same" if recorded == done[0].digest else f"DIFFERENT ({recorded})"))

    problems = consistency(reps, schedule, cell_steps)
    if args.trace:
        metrics, trace_problems = per_layer(reps)
        problems += trace_problems
    else:
        metrics = end_to_end(reps, setups, cell_steps, attempted, failed)
    for p in problems:
        print(f"check failed: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    correct = failed == 0 and not problems and len(done) == len(reps)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def reference_digest(workload: str, seed: int | None) -> str | None:
    """Fingerprint recorded in reference.json for this workload and input."""
    try:
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh).get(workload, {})
    except (OSError, ValueError):
        return None
    return ref.get("digest") if seed is None else ref.get("digest_by_seed", {}).get(str(seed))


if __name__ == "__main__":
    sys.exit(main())
