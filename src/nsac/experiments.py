"""Scripted end-to-end studies: energy audit, weak-strong refinement study,
perturbation/Gronwall study, and manufactured-solution convergence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    EnergyReport,
    GronwallFit,
    REITrace,
    RelEntropyTrace,
    Trajectory,
    dissipation_rates,
    energy_audit,
    gronwall_fit,
    kinetic_energy,
    rei_terms,
    rel_entropy_trace,
    total_energy,
)
from .grid import (
    DIRICHLET_ZERO,
    FaceVectorField,
    Grid,
    ScalarField,
    make_grid,
)
from .potential import DoubleWell, make_well
from .solver import FluidParams, State, make_state, step

INIT_KINDS = ("bubble", "spinodal", "vortex", "manufactured")


@dataclass
class ExperimentConfig:
    """Resolved run configuration (see cli_io for the file format)."""

    grid_n: int = 64
    length: float = 1.0
    nu: float = 0.01
    eps: float = 0.05
    dt: float = 2.5e-4
    t_end: float = 0.5
    potential_kind: str = "quartic"
    potential_f1: float = -2.0
    potential_f2: float = 2.0
    init_kind: str = "spinodal"
    init_seed: int = 42
    init_amplitude: float = 0.25
    perturbation_delta: float = 1e-3
    wsu_levels: tuple[int, ...] = (32, 64, 128)
    sample_count: int = 50
    output_dir: str = "out"
    output_every: int = 200

    def __post_init__(self):
        if self.init_kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.init_kind!r}")
        if list(self.wsu_levels) != sorted(set(self.wsu_levels)):
            raise ValueError(f"levels must be strictly increasing, got {self.wsu_levels}")

    @property
    def params(self) -> FluidParams:
        return FluidParams(nu=self.nu, eps=self.eps)

    @property
    def well(self) -> DoubleWell:
        return make_well(self.potential_kind, self.potential_f1, self.potential_f2)

    def grid(self, n: int | None = None) -> Grid:
        n = self.grid_n if n is None else n
        return make_grid(2, (n, n), (self.length, self.length))

    def dt_for(self, n: int) -> float:
        """Time step at resolution n, holding dt * n fixed (first-order link)."""
        return self.dt * self.grid_n / n


# ---------------------------------------------------------------------------
# initial data


def stream_function_velocity(grid: Grid, amplitude: float, mode: int = 1) -> FaceVectorField:
    """Solenoidal velocity from a node-sampled streamfunction.

    Taking discrete differences of node values makes the discrete divergence
    vanish exactly, and the zero boundary nodes pin the normal faces to 0.
    """
    x = grid.face_coords(0) / grid.length[0]
    y = grid.face_coords(1) / grid.length[1]
    psi = (
        amplitude
        * np.sin(mode * np.pi * x)[:, None] ** 2
        * np.sin(mode * np.pi * y)[None, :] ** 2
        / np.pi
    )
    ux = np.diff(psi, axis=1) / grid.h[1]
    uy = -np.diff(psi, axis=0) / grid.h[0]
    return FaceVectorField(grid, [ux, uy], DIRICHLET_ZERO)


def perturbation_velocity(grid: Grid) -> FaceVectorField:
    """Fixed solenoidal direction, normalized to unit kinetic energy.

    Deliberately RNG-free so perturbation studies are reproducible anywhere.
    """
    v = stream_function_velocity(grid, 1.0, mode=2)
    e = kinetic_energy(v)
    scale = 1.0 / np.sqrt(e)
    return FaceVectorField(grid, [scale * c for c in v.components], DIRICHLET_ZERO)


def bubble_concentration(grid: Grid, eps: float, radius: float = 0.25) -> np.ndarray:
    center = tuple(L / 2 for L in grid.length)
    coords = np.meshgrid(*[grid.cell_centers(a) for a in range(grid.dim)], indexing="ij")
    r = np.sqrt(sum((coords[a] - center[a]) ** 2 for a in range(grid.dim)))
    return np.tanh((radius - r) / (np.sqrt(2.0) * eps))


def initial_state(cfg: ExperimentConfig, grid: Grid | None = None) -> State:
    grid = cfg.grid() if grid is None else grid
    state = make_state(grid)
    if cfg.init_kind == "bubble":
        state.c.values[:] = bubble_concentration(grid, cfg.eps)
    elif cfg.init_kind == "spinodal":
        rng = np.random.default_rng(cfg.init_seed)
        state.c.values[:] = rng.uniform(-0.05, 0.05, grid.n)
    elif cfg.init_kind == "vortex":
        state.u = stream_function_velocity(grid, cfg.init_amplitude)
        state.c.values[:] = cfg.well.y2
    elif cfg.init_kind == "manufactured":
        from .manufactured import ManufacturedSolution

        ms = ManufacturedSolution(cfg.params, cfg.well)
        state = ms.state_at(grid, 0.0)
    return state


# ---------------------------------------------------------------------------
# simulation driver


def step_count(t_end: float, dt: float) -> int:
    """Number of steps of size ``dt`` that reach ``t_end`` exactly.

    Raises ``ValueError`` unless ``t_end / dt`` is a whole number (to 1e-9
    relative) of at least 1: a rounded schedule would end at the wrong time,
    and a zero-step run would pass every audit with nothing checked.
    """
    ratio = t_end / dt
    n = round(ratio) if np.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * ratio:
        raise ValueError(
            f"t_end = {t_end!r} is not a whole number of steps dt = {dt!r} "
            f"(t_end / dt = {ratio!r}, need an integer >= 1)"
        )
    return n


def simulate(
    state: State,
    well: DoubleWell,
    params: FluidParams,
    dt: float,
    n_steps: int,
    sample_every: int = 1,
    energy: bool = True,
) -> tuple[Trajectory, list[EnergyReport]]:
    """Run ``n_steps`` steps, collecting samples and the full energy trace.

    Cumulative dissipation uses the per-step rates measured after each step
    (the quadrature consistent with the implicit character of the scheme).
    With ``energy=False`` no energy is computed and the trace is ``[]``.
    """
    traj = Trajectory()
    traj.append(state.copy(), None)
    reports = [total_energy(state, well, params)] if energy else []
    cum = 0.0
    for i in range(1, n_steps + 1):
        state, srep = step(state, well, params, dt)
        if energy:
            visc, ac = dissipation_rates(state, srep, params)
            cum += dt * (visc + ac)
            erep = total_energy(state, well, params)
            erep.viscous_diss = visc
            erep.ac_diss = ac
            erep.cumulative_diss = cum
            reports.append(erep)
        if i % sample_every == 0 or i == n_steps:
            traj.append(state.copy(), srep.material_derivative)
    return traj.finalize(), reports


# ---------------------------------------------------------------------------
# grid transfer


def restrict_scalar(fine: ScalarField, coarse_grid: Grid) -> ScalarField:
    """Conservative block average onto a coarser grid (integer ratio)."""
    ratios = _ratios(fine.grid, coarse_grid)
    vals = fine.values
    for a, r in enumerate(ratios):
        shape = list(vals.shape)
        shape[a] = shape[a] // r
        shape.insert(a + 1, r)
        vals = vals.reshape(shape).mean(axis=a + 1)
    return ScalarField(coarse_grid, vals, fine.bc)


def restrict_velocity(fine: FaceVectorField, coarse_grid: Grid) -> FaceVectorField:
    """Average coincident fine faces onto coarse faces.

    Coarse face planes are a subset of fine face planes; transverse block
    averaging preserves discrete divergence-free fields.
    """
    ratios = _ratios(fine.grid, coarse_grid)
    comps = []
    for a in range(fine.grid.dim):
        vals = fine.components[a]
        sel = [slice(None)] * fine.grid.dim
        sel[a] = slice(None, None, ratios[a])
        vals = vals[tuple(sel)]
        for b in range(fine.grid.dim):
            if b == a:
                continue
            r = ratios[b]
            shape = list(vals.shape)
            shape[b] = shape[b] // r
            shape.insert(b + 1, r)
            vals = vals.reshape(shape).mean(axis=b + 1)
        comps.append(vals.copy())
    return FaceVectorField(coarse_grid, comps, fine.bc)


def restrict_state(fine: State, coarse_grid: Grid) -> State:
    return State(
        t=fine.t,
        u=restrict_velocity(fine.u, coarse_grid),
        c=restrict_scalar(fine.c, coarse_grid),
        p=restrict_scalar(fine.p, coarse_grid),
    )


def restrict_trajectory(fine: Trajectory, coarse_grid: Grid) -> Trajectory:
    out = Trajectory()
    for state, material in zip(fine.states, fine.materials):
        m = restrict_scalar(material, coarse_grid) if material is not None else None
        out.append(restrict_state(state, coarse_grid), m)
    return out


def _ratios(fine: Grid, coarse: Grid) -> list[int]:
    if fine.dim != coarse.dim:
        raise ValueError("grid dimensions differ")
    ratios = []
    for a in range(fine.dim):
        if fine.n[a] % coarse.n[a] != 0:
            raise ValueError(f"fine count {fine.n[a]} not a multiple of {coarse.n[a]}")
        ratios.append(fine.n[a] // coarse.n[a])
    return ratios


# ---------------------------------------------------------------------------
# studies


@dataclass
class LevelResult:
    n: int
    trace: RelEntropyTrace
    rei: REITrace
    fit: GronwallFit
    max_entropy: float


@dataclass
class WSUReport:
    levels: list[LevelResult]
    twin_entropy_max: float

    @property
    def refinement_ratios(self) -> list[float]:
        """max_t E ratios between consecutive coarse levels.

        The finest level is its own strong proxy (entropy identically zero),
        so it is excluded from the ratios.
        """
        maxima = [lv.max_entropy for lv in self.levels[:-1]]
        return [maxima[i] / maxima[i + 1] for i in range(len(maxima) - 1)]


def _steps_and_stride(cfg: ExperimentConfig, n: int) -> tuple[int, int]:
    n_steps = step_count(cfg.t_end, cfg.dt_for(n))
    stride = max(1, n_steps // cfg.sample_count)
    return n_steps, stride


def _wsu_schedule(cfg: ExperimentConfig, n: int, n_base: int) -> tuple[int, int]:
    """Steps and sample stride at level n, sharing sample times across levels."""
    base_steps = step_count(cfg.t_end, cfg.dt_for(n_base))
    base_stride = max(1, base_steps // cfg.sample_count)
    if n % n_base != 0:
        raise ValueError(f"level {n} is not a multiple of the coarsest level {n_base}")
    ratio = n // n_base
    return base_steps * ratio, base_stride * ratio


def run_wsu(cfg: ExperimentConfig) -> WSUReport:
    """Weak-strong refinement study against the finest run as strong proxy."""
    levels = list(cfg.wsu_levels)
    if len(levels) < 3:
        raise ValueError(f"need at least 3 refinement levels, got {len(levels)}")
    if cfg.init_kind != "bubble":
        raise ValueError("weak-strong study expects the smooth bubble initial data")
    well, params = cfg.well, cfg.params

    n_fine = levels[-1]
    fine_grid = cfg.grid(n_fine)
    fine_steps, fine_stride = _wsu_schedule(cfg, n_fine, levels[0])
    fine_state = initial_state(cfg, fine_grid)
    fine_traj, _ = simulate(
        fine_state, well, params, cfg.dt_for(n_fine), fine_steps, fine_stride,
        energy=False,
    )

    results = []
    for n in levels[:-1]:
        grid = cfg.grid(n)
        strong = restrict_trajectory(fine_traj, grid)
        coarse_state = State(
            t=0.0,
            u=strong.states[0].u.copy(),
            c=strong.states[0].c.copy(),
            p=strong.states[0].p.copy(),
        )
        n_steps, stride = _wsu_schedule(cfg, n, levels[0])
        weak, _ = simulate(
            coarse_state, well, params, cfg.dt_for(n), n_steps, stride, energy=False
        )
        _align(weak, strong)
        trace = rel_entropy_trace(weak, strong, params)
        rei = rei_terms(weak, strong, well, params)
        fit = gronwall_fit(trace)
        results.append(
            LevelResult(
                n=n, trace=trace, rei=rei, fit=fit, max_entropy=float(np.max(trace.E))
            )
        )

    # finest level against itself: identical twins
    twin_trace = rel_entropy_trace(fine_traj, fine_traj, params)
    twin_max = float(np.max(twin_trace.E))
    results.append(
        LevelResult(
            n=n_fine,
            trace=twin_trace,
            rei=rei_terms(fine_traj, fine_traj, well, params),
            fit=gronwall_fit(twin_trace),
            max_entropy=twin_max,
        )
    )
    return WSUReport(levels=results, twin_entropy_max=twin_max)


def _align(weak: Trajectory, strong: Trajectory):
    """Trim to the common sample times (strides are chosen to match)."""
    if len(weak.times) == len(strong.times):
        return
    k = min(len(weak.times), len(strong.times))
    for traj in (weak, strong):
        traj.times[:] = traj.times[:k]
        traj.states[:] = traj.states[:k]
        traj.materials[:] = traj.materials[:k]


def run_perturbation(
    cfg: ExperimentConfig, delta: float
) -> tuple[RelEntropyTrace, GronwallFit]:
    """Twin runs differing by delta times a fixed unit-energy solenoidal field."""
    if not (delta >= 0):
        raise ValueError(f"delta must be nonnegative, got {delta}")
    well, params = cfg.well, cfg.params
    grid = cfg.grid()
    n_steps, stride = _steps_and_stride(cfg, cfg.grid_n)

    strong0 = initial_state(cfg, grid)
    strong, _ = simulate(
        strong0.copy(), well, params, cfg.dt, n_steps, stride, energy=False
    )

    v = perturbation_velocity(grid)
    weak0 = strong0.copy()
    weak0.u = FaceVectorField(
        grid,
        [weak0.u.components[a] + delta * v.components[a] for a in range(grid.dim)],
        DIRICHLET_ZERO,
    )
    weak, _ = simulate(weak0, well, params, cfg.dt, n_steps, stride, energy=False)

    trace = rel_entropy_trace(weak, strong, params)
    fit = gronwall_fit(trace)
    return trace, fit


def run_energy_audit(cfg: ExperimentConfig) -> tuple[list[EnergyReport], float]:
    """Full unforced run; returns the energy trace and the audit violation."""
    if cfg.init_kind == "manufactured":
        raise ValueError("energy audit applies to unforced runs only")
    grid = cfg.grid()
    n_steps = step_count(cfg.t_end, cfg.dt)
    state = initial_state(cfg, grid)
    _, reports = simulate(state, cfg.well, cfg.params, cfg.dt, n_steps, n_steps)
    return reports, energy_audit(reports)


@dataclass
class ConvergenceTable:
    resolutions: list[int]
    spatial_errors: list[float]
    spatial_orders: list[float]
    dts: list[float]
    temporal_diffs: list[float]
    temporal_orders: list[float]


def run_manufactured(cfg: ExperimentConfig) -> ConvergenceTable:
    """Convergence study against an analytic forced solution.

    Spatial: dt scaled with h^2 so the first-order time error refines at
    least as fast as the second-order space error. Temporal: fixed finest
    grid, successive dt halvings compared against each other so the fixed
    spatial error cancels. Needs at least two levels, so that at least one
    spatial order is measured.
    """
    from .manufactured import ManufacturedSolution

    levels = list(cfg.wsu_levels)
    if len(levels) < 2:
        raise ValueError(f"need at least 2 refinement levels, got {len(levels)}")
    well, params = cfg.well, cfg.params
    ms = ManufacturedSolution(params, well)

    t_end = 6.4e-3
    base_n = levels[0]
    base_dt = 3.2e-4
    spatial_dts = [base_dt * (base_n / n) ** 2 for n in levels]
    spatial_steps = [step_count(t_end, dt) for dt in spatial_dts]
    spatial_errors = [
        ms.run_error(cfg.grid(n), dt, n_steps)
        for n, dt, n_steps in zip(levels, spatial_dts, spatial_steps)
    ]
    spatial_orders = [
        float(np.log(spatial_errors[i] / spatial_errors[i + 1])
              / np.log(levels[i + 1] / levels[i]))
        for i in range(len(spatial_errors) - 1)
    ]

    n_fine = levels[-1]
    grid = cfg.grid(n_fine)
    t_end_t = 0.05
    dts = [5e-4, 2.5e-4, 1.25e-4]
    finals = []
    for dt in dts:
        finals.append(ms.run_final_state(grid, dt, step_count(t_end_t, dt)))
    diffs = [_state_distance(finals[i], finals[i + 1]) for i in range(len(finals) - 1)]
    temporal_orders = [
        float(np.log2(diffs[i] / diffs[i + 1])) for i in range(len(diffs) - 1)
    ]
    return ConvergenceTable(
        resolutions=levels,
        spatial_errors=spatial_errors,
        spatial_orders=spatial_orders,
        dts=dts,
        temporal_diffs=diffs,
        temporal_orders=temporal_orders,
    )


def _state_distance(a: State, b: State) -> float:
    grid = a.grid
    vol = grid.cell_volume
    total = float(np.sum((a.c.values - b.c.values) ** 2)) * vol
    for ca, cb in zip(a.u.components, b.u.components):
        total += float(np.sum((ca - cb) ** 2)) * vol
    return float(np.sqrt(total))
