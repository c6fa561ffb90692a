"""Acceptance criteria, one test per criterion.

Each test prints a single summary line with the measured quantity and its
tolerance (visible with pytest -v -s or in captured output on failure).
"""

import dataclasses
import subprocess
import sys
import time

import numpy as np
import pytest

from nsac.certificates import (
    AUDIT_TOL,
    MAX_PRINCIPLE_TOL,
    REI_REFINEMENT,
    REI_SLACK_TOL,
    SPATIAL_ORDERS,
    TEMPORAL_ORDERS,
    WSU_RATIO,
)
from nsac.diagnostics import (
    dissipation_rates,
    energy_trace,
    gronwall_fit,
    kinetic_energy,
    max_principle_bounds,
    relative_entropy,
    total_energy,
)
from nsac.experiments import (
    ExperimentConfig,
    initial_state,
    run_energy_audit,
    run_manufactured,
    run_perturbation,
    run_wsu,
)
from nsac.grid import (
    FaceVectorField,
    ScalarField,
    divergence,
    enforce_dirichlet,
    face_inner,
    gradient,
    laplacian,
    make_grid,
)
from nsac.solver import FluidParams, make_state, step
from standard_layout import copy_state, integrate

BENCH = dict(grid_n=64, dt=2.5e-4, t_end=0.5)


def _report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. operator calculus


def test_criterion_1_operator_calculus():
    rng = np.random.default_rng(100)
    t0 = time.time()
    worst_adj = 0.0
    worst_lap = 0.0
    pairs = 0
    for n in (16, 24, 32, 48, 64):
        grid = make_grid(2, (n, n), (1.0, 1.0))
        for _ in range(20):
            q = ScalarField(grid, rng.standard_normal(grid.n))
            comps = [rng.standard_normal(grid.face_shape(a)) for a in range(2)]
            v = enforce_dirichlet(FaceVectorField(grid, comps))
            lhs = integrate(ScalarField(grid, q.values * divergence(v).values))
            rhs = face_inner(v, gradient(q))
            scale = abs(lhs) + abs(rhs) + 1e-30
            worst_adj = max(worst_adj, abs(lhs + rhs) / scale)
            lap1 = laplacian(q).values
            lap2 = divergence(FaceVectorField(grid, gradient(q).components)).values
            lscale = np.max(np.abs(lap1)) + 1e-30
            worst_lap = max(worst_lap, float(np.max(np.abs(lap1 - lap2))) / lscale)
            pairs += 1
    elapsed = time.time() - t0
    ok = worst_adj < 1e-12 and worst_lap < 1e-12 and elapsed < 5.0 and pairs == 100
    _report(
        "1 operator calculus",
        ok,
        f"adjointness {worst_adj:.2e}, div@grad-lap {worst_lap:.2e}, "
        f"{pairs} pairs in {elapsed:.2f}s (tol 1e-12, < 5s)",
    )


# ---------------------------------------------------------------------------
# 2. manufactured-solution convergence


def test_criterion_2_manufactured_convergence():
    t0 = time.time()
    table = run_manufactured(ExperimentConfig(init_kind="manufactured"))
    elapsed = time.time() - t0
    (sp_lo, sp_hi), (tm_lo, tm_hi) = SPATIAL_ORDERS, TEMPORAL_ORDERS
    sp_ok = all(sp_lo <= o <= sp_hi for o in table.spatial_orders)
    tm_ok = all(tm_lo <= o <= tm_hi for o in table.temporal_orders)
    ok = sp_ok and tm_ok and elapsed < 300.0
    _report(
        "2 manufactured convergence",
        ok,
        f"spatial orders {[f'{o:.2f}' for o in table.spatial_orders]} in {SPATIAL_ORDERS}, "
        f"temporal {[f'{o:.2f}' for o in table.temporal_orders]} in {TEMPORAL_ORDERS}, "
        f"{elapsed:.0f}s < 300s",
    )


# ---------------------------------------------------------------------------
# 3 + 4. energy inequality and maximum principle (spinodal run shared)


@pytest.fixture(scope="module")
def spinodal_run():
    """Full spinodal benchmark tracking energy trace and c-range per step."""
    cfg = ExperimentConfig(init_kind="spinodal", init_seed=42, **BENCH)
    state = initial_state(cfg)
    well, params = cfg.well, cfg.params
    bounds = max_principle_bounds(state.c, well)
    rows = [(*total_energy(state, well, params), 0.0, 0.0)]
    n_steps = int(round(cfg.t_end / cfg.dt))
    c_lo, c_hi = float(np.min(state.c.values)), float(np.max(state.c.values))
    outside = 0
    t0 = time.time()
    for _ in range(n_steps):
        state, srep = step(state, well, params, cfg.dt)
        rows.append((*total_energy(state, well, params), *dissipation_rates(state, srep, params)))
        lo = float(np.min(state.c.values))
        hi = float(np.max(state.c.values))
        c_lo, c_hi = min(c_lo, lo), max(c_hi, hi)
        outside += int(np.count_nonzero(state.c.values < bounds.m - MAX_PRINCIPLE_TOL))
        outside += int(np.count_nonzero(state.c.values > bounds.M + MAX_PRINCIPLE_TOL))
    return dict(audit=energy_trace(rows, cfg.dt).audit, c_lo=c_lo, c_hi=c_hi, outside=outside,
                bounds=bounds, elapsed=time.time() - t0)


def test_criterion_3_energy_inequality(spinodal_run):
    worst = {}
    times = {}
    # equilibrium and vortex benchmarks
    for name, kw in (
        ("equilibrium", dict(init_kind="vortex", init_amplitude=0.0)),
        ("vortex", dict(init_kind="vortex")),
    ):
        t0 = time.time()
        worst[name] = run_energy_audit(ExperimentConfig(**BENCH, **kw)).audit
        times[name] = time.time() - t0
    worst["spinodal"] = spinodal_run["audit"]
    times["spinodal"] = spinodal_run["elapsed"]
    ok = all(v <= AUDIT_TOL for v in worst.values()) and all(
        t < 120.0 for t in times.values()
    )
    detail = ", ".join(
        f"{k} {worst[k]:.2e} in {times[k]:.0f}s" for k in worst
    )
    _report("3 energy inequality", ok, detail + f" (tol {AUDIT_TOL:g}, < 120s per run)")


def test_criterion_4_maximum_principle(spinodal_run):
    ok = (
        spinodal_run["outside"] == 0
        and spinodal_run["c_lo"] >= -1.0 - MAX_PRINCIPLE_TOL
        and spinodal_run["c_hi"] <= 1.0 + MAX_PRINCIPLE_TOL
    )
    _report(
        "4 maximum principle",
        ok,
        f"c range [{spinodal_run['c_lo']:.6f}, {spinodal_run['c_hi']:.6f}], "
        f"{spinodal_run['outside']} cells outside [-1, 1] by more than {MAX_PRINCIPLE_TOL:g}",
    )


# ---------------------------------------------------------------------------
# 5. relative entropy identities


def test_criterion_5_relative_entropy_identities():
    grid = make_grid(2, (16, 16), (1, 1))
    params = FluidParams(nu=0.01, eps=0.05)
    rng = np.random.default_rng(105)

    def rand_state():
        comps = [rng.standard_normal(grid.face_shape(a)) for a in range(2)]
        s = make_state(grid, u=enforce_dirichlet(FaceVectorField(grid, comps)))
        s.c.values[:] = rng.standard_normal(grid.n)
        return s

    min_e = np.inf
    self_ok = True
    for _ in range(1000):
        s1, s2 = rand_state(), rand_state()
        self_ok = self_ok and relative_entropy(s1, s1, params) == 0.0
        min_e = min(min_e, relative_entropy(s1, s2, params))

    # exact quadratic scaling of the kinetic part
    strong = rand_state()
    dv = enforce_dirichlet(FaceVectorField(
        grid, [0.1 * rng.standard_normal(grid.face_shape(a)) for a in range(2)]))
    base = kinetic_energy(dv)
    quad_ok = True
    for alpha in (2.0, 0.5, 7.0):
        weak = copy_state(strong)
        weak.u = FaceVectorField(
            grid,
            [strong.u.components[a] + alpha * dv.components[a] for a in range(2)])
        e = relative_entropy(weak, strong, params)
        quad_ok = quad_ok and abs(e - alpha**2 * base) <= 1e-12 * alpha**2 * base
    ok = self_ok and min_e >= 0.0 and quad_ok
    _report(
        "5 relative entropy identities",
        ok,
        f"E(s|s)=0 {self_ok}, min E {min_e:.3e} >= 0 over 1000 pairs, "
        f"quadratic scaling {quad_ok}",
    )


# ---------------------------------------------------------------------------
# 6 + 7. REI check and weak-strong study (shared bubble refinement run)


@pytest.fixture(scope="module")
def wsu_run():
    cfg = ExperimentConfig(init_kind="bubble", grid_n=64, dt=2.5e-4, t_end=0.1,
                           wsu_levels=(32, 64, 128))
    t0 = time.time()
    report = run_wsu(cfg)
    return report, time.time() - t0


def test_criterion_6_rei_check(wsu_run):
    report, _ = wsu_run
    by_n = report

    def deficit(trace):
        lhs = trace.lhs_entropy_gap + trace.lhs_visc + trace.lhs_ac
        return np.maximum(0.0, -trace.slack - REI_SLACK_TOL * (1.0 + np.abs(lhs)))

    d64 = deficit(by_n[64])
    d32 = deficit(by_n[32])
    worst64 = float(np.max(d64))
    # raw (untoleranced) deficits for the refinement comparison
    raw32 = float(np.max(np.maximum(0.0, -by_n[32].slack)))
    raw64 = float(np.max(np.maximum(0.0, -by_n[64].slack)))
    ok = worst64 == 0.0 and raw32 >= REI_REFINEMENT * raw64
    _report(
        "6 REI check",
        ok,
        f"64^2 slack >= -{REI_SLACK_TOL:g}(1+|LHS|) everywhere (worst excess {worst64:.2e}), "
        f"raw deficit 32^2 {raw32:.3e} >= {REI_REFINEMENT:g}x 64^2 {raw64:.3e}",
    )


def test_criterion_7_weak_strong_uniqueness(wsu_run):
    report, elapsed = wsu_run
    maxima = [trace.max_entropy for trace in report.values()]
    monotone = all(b < a for a, b in zip(maxima, maxima[1:]))
    ratio = maxima[0] / maxima[1]
    twin_zero = maxima[-1] == 0.0
    ok = twin_zero and monotone and ratio >= WSU_RATIO and elapsed < 600.0
    _report(
        "7 weak-strong uniqueness",
        ok,
        f"twin E = {maxima[-1]} (bitwise 0), max E {maxima} monotone, "
        f"ratio 32/64 {ratio:.2f} >= {WSU_RATIO:g}, {elapsed:.0f}s < 600s",
    )


# ---------------------------------------------------------------------------
# 8. Gronwall bound


def test_criterion_8_gronwall_bound():
    cfg = ExperimentConfig(init_kind="bubble", grid_n=64, dt=2.5e-4, t_end=0.1)
    fits = {}
    curves = {}
    for delta in (1e-3, 1e-2):
        trace = run_perturbation(dataclasses.replace(cfg, perturbation_delta=delta))
        fits[delta] = trace
        curves[delta] = trace.E / trace.E[0]
    not_violated = not any(f.violated for f in fits.values())
    curve_dev = float(np.max(np.abs(curves[1e-3] - curves[1e-2])
                             / np.maximum(np.abs(curves[1e-2]), 1e-30)))
    k1, k2 = fits[1e-3].k, fits[1e-2].k
    k_stable = abs(k1 - k2) <= 0.3 * max(k1, k2) if max(k1, k2) > 0 else True

    # synthetic oracle: E = E0 e^{2t}, omega = 1 must recover k = 2 within 1%
    times = np.linspace(0.0, 1.0, 2001)
    k_synth, _, _ = gronwall_fit(times, 0.3 * np.exp(2 * times),
                                 np.zeros_like(times), np.ones_like(times))
    synth_ok = abs(k_synth - 2.0) <= 0.02

    ok = not_violated and curve_dev <= 0.2 and k_stable and synth_ok
    _report(
        "8 Gronwall bound",
        ok,
        f"violated {[f.violated for f in fits.values()]}, normalized-curve "
        f"deviation {curve_dev:.2e} <= 0.2, k {k1:.4g}/{k2:.4g} stable, "
        f"synthetic k {k_synth:.4f} within 1% of 2",
    )


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_9_determinism(tmp_path):
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("grid.n = 32\ntime.dt = 5e-4\ntime.t_end = 0.02\n"
                    "init.kind = spinodal\ninit.seed = 42\n")
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        r = subprocess.run(
            [sys.executable, "-m", "nsac.cli", "energy-audit",
             "--config", str(cfgp), "--out", str(out), "--quiet"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        blobs.append((out / "energy.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report("9 determinism", ok,
            f"two invocations, energy.csv bitwise equal: {ok}")
