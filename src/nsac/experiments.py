"""Scripted end-to-end studies: energy audit, weak-strong refinement study,
perturbation/Gronwall study, and manufactured-solution convergence."""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .diagnostics import (
    ConvergenceTrace,
    EnergyTrace,
    PairTrace,
    check_max_principle,
    dissipation_rates,
    energy_trace,
    kinetic_energy,
    max_principle_bounds,
    pair_row,
    pair_trace,
    total_energy,
)
from .grid import FaceVectorField, Grid, ScalarField, _axslice, enforce_dirichlet, make_grid
from .manufactured import ManufacturedSolution
from .potential import DoubleWell
from .solver import FluidParams, State, StepReport, make_state, step

INIT_KINDS = ("bubble", "spinodal", "vortex", "manufactured")


def _rule(ok, message: str):
    """A check that raises ``ValueError(message.format(value))`` unless ``ok(value)``."""
    def check(value):
        if not ok(value):
            raise ValueError(message.format(value))
    return check


_POSITIVE = _rule(lambda v: 0 < v < np.inf, "must be positive and finite, got {!r}")
_NONNEGATIVE = _rule(lambda v: 0 <= v < np.inf, "must be nonnegative and finite, got {!r}")
_FINITE = _rule(lambda v: -np.inf < v < np.inf, "must be finite, got {!r}")
_SEED = _rule(lambda v: 0 <= v < 1 << 64, "must lie in [0, 2**64), got {!r}")


def _cells(n):
    make_grid(2, (n, n), (1.0, 1.0))


def _levels(levels):
    for n in levels:
        _cells(n)
    if list(levels) != sorted(set(levels)):
        raise ValueError(f"levels must be strictly increasing, got {levels}")


def _typed(default, value) -> bool:
    """Whether ``value`` has the type of ``default``: a real also takes an int,
    a tuple holds ints, and no number is a bool."""
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(_typed(0, v) for v in value)
    kinds = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _key(key: str, default, rule=lambda value: None):
    """A config field: its ``section.key``, its default, and ``check(value)``,
    which raises ``ValueError`` naming the key unless the value has the
    default's type and ``rule`` admits it."""
    def check(value):
        if not _typed(default, value):
            raise ValueError(f"{key}: must have the type of its default {default!r}, "
                             f"got {value!r}")
        try:
            rule(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key}: {exc}") from None
    return field(default=default, metadata={"key": key, "check": check})


@dataclass
class ExperimentConfig:
    """Resolved run configuration: each field declares its config-file key and
    its admissible values, checked at construction for every caller (the two
    well ends together, through ``DoubleWell``)."""

    grid_n: int = _key("grid.n", 64, _cells)
    length: float = _key("grid.length", 1.0, _POSITIVE)
    nu: float = _key("fluid.nu", 0.01, _POSITIVE)
    eps: float = _key("fluid.eps", 0.05, _POSITIVE)
    dt: float = _key("time.dt", 2.5e-4, _POSITIVE)
    t_end: float = _key("time.t_end", 0.5, _POSITIVE)
    potential_kind: str = _key("potential.kind", "quartic",
                               _rule(lambda k: k == "quartic", "unknown potential kind {!r}"))
    potential_f1: float = _key("potential.f1", -2.0)
    potential_f2: float = _key("potential.f2", 2.0)
    init_kind: str = _key("init.kind", "spinodal",
                          _rule(lambda k: k in INIT_KINDS, "unknown init kind {!r}"))
    init_seed: int = _key("init.seed", 42, _SEED)
    init_amplitude: float = _key("init.amplitude", 0.25, _FINITE)
    perturbation_delta: float = _key("perturbation.delta", 1e-3, _NONNEGATIVE)
    wsu_levels: tuple[int, ...] = _key("wsu.levels", (32, 64, 128), _levels)
    output_dir: str = _key("output.dir", "out")
    output_every: int = _key("output.every", 200, _POSITIVE)
    sample_count: int = _key("output.samples", 50, _POSITIVE)

    def __post_init__(self):
        for f in fields(self):
            f.metadata["check"](getattr(self, f.name))
        try:
            DoubleWell(self.potential_f1, self.potential_f2)
        except ValueError as exc:
            raise ValueError(f"potential.f1, potential.f2: {exc}") from None

    @property
    def params(self) -> FluidParams:
        return FluidParams(nu=self.nu, eps=self.eps)

    @property
    def well(self) -> DoubleWell:
        return DoubleWell(self.potential_f1, self.potential_f2)

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
    vanish exactly. The boundary nodes are zero only up to the roundoff of
    sin(pi), so the wall faces are pinned explicitly.
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
    return enforce_dirichlet(FaceVectorField(grid, [ux, uy]))


def perturbation_velocity(grid: Grid) -> FaceVectorField:
    """Fixed solenoidal direction, normalized to unit kinetic energy.

    Deliberately RNG-free so perturbation studies are reproducible anywhere.
    """
    v = stream_function_velocity(grid, 1.0, mode=2)
    e = kinetic_energy(v)
    scale = 1.0 / np.sqrt(e)
    return FaceVectorField(grid, [scale * c for c in v.components])


def bubble_concentration(grid: Grid, eps: float) -> np.ndarray:
    """A centred bubble of radius 0.25 with a tanh interface of width ~eps."""
    center = tuple(L / 2 for L in grid.length)
    coords = np.meshgrid(*[grid.cell_centers(a) for a in range(grid.dim)], indexing="ij")
    r = np.sqrt(sum((coords[a] - center[a]) ** 2 for a in range(grid.dim)))
    return np.tanh((0.25 - r) / (np.sqrt(2.0) * eps))


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of SplitMix64 (Steele, Lea & Flood, 2014)
    seeded with ``seed`` in [0, 2**64): output k = 1, 2, ... is the finaliser
    of seed + k * 0x9E3779B97F4A7C15 mod 2**64. Drawn as a counter, it is a
    few whole-array uint64 passes, whose products wrap without a warning."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def initial_state(cfg: ExperimentConfig, grid: Grid | None = None) -> State:
    grid = cfg.grid() if grid is None else grid
    state = make_state(grid)
    if cfg.init_kind == "bubble":
        state.c.values[:] = bubble_concentration(grid, cfg.eps)
    elif cfg.init_kind == "spinodal":
        # uniform on [-0.05, 0.05): one output per cell in C order, whose top
        # 53 bits give u in [0, 1), drawn as low + (high - low) * u
        u = (splitmix64(cfg.init_seed, math.prod(grid.n)) >> np.uint64(11)) * 2.0**-53
        state.c.values[:] = (-0.05 + 0.1 * u).reshape(grid.n)
    elif cfg.init_kind == "vortex":
        state.u = stream_function_velocity(grid, cfg.init_amplitude)
        state.c.values[:] = cfg.well.y2
    elif cfg.init_kind == "manufactured":
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
    state: State, well: DoubleWell, params: FluidParams, dt: float, n_steps: int,
    sources: Callable[[float], tuple[ScalarField, FaceVectorField]] | None = None,
) -> Iterator[tuple[State, StepReport]]:
    """Take ``n_steps`` steps, yielding each new state with its step report.

    Every run steps here. ``sources(t)``, if given, returns ``(source_c,
    source_u)`` for the step that starts at t. Nothing is stored: the input
    state keeps its values, its carry is released by the first step, and no
    report is held while the next step runs.
    """
    for _ in range(n_steps):
        forcing = () if sources is None else sources(state.t)
        state, report = step(state, well, params, dt, *forcing)
        yield state, report
        del report


def _stride(cfg: ExperimentConfig, n_steps: int) -> int:
    """Steps between two samples of an ``n_steps`` run."""
    return max(1, n_steps // cfg.sample_count)


def _sample_chunks(cfg: ExperimentConfig, n: int) -> list[int]:
    """Steps at level n between consecutive samples: whole strides, then
    the remainder, if any, as one shorter last chunk."""
    n_steps = step_count(cfg.t_end, cfg.dt_for(n))
    stride = _stride(cfg, n_steps)
    full, rest = divmod(n_steps, stride)
    return [stride] * full + ([rest] if rest else [])


def _lockstep(
    states: list[State],
    steps: list[tuple[float, int]],
    chunks: list[int],
    well: DoubleWell,
    params: FluidParams,
) -> Iterator[tuple[list[State], list[ScalarField]]]:
    """Advance several runs together; yield their states and materials per sample.

    ``states`` holds the initial state of each run and ``steps`` its
    ``(dt, m)``. Between two samples a run takes ``m * chunk`` steps, so
    with dt scaled as 1/m all runs reach each sample time together. A
    material is the discrete material derivative of the step that produced
    the state; the t = 0 sample carries the first chunk's (constant
    extrapolation, consistent with first-order stepping). Only the current
    states are held: a caller that hands over its only reference to
    ``states`` lets the initial states go once the first sample is paired.
    Of a level's reports only the material of its last step outlives the
    step, for the sample to pair.
    """
    for k, chunk in enumerate(chunks):
        stepped, materials = [], []
        for state, (dt, m) in zip(states, steps):
            # rebinding ``state`` keeps no reference to an earlier sample
            left = m * chunk
            for state, report in simulate(state, well, params, dt, left):
                left -= 1
                if not left:
                    materials.append(report.material_derivative)
                del report
            stepped.append(state)
        if k == 0:
            yield states, materials
        states = stepped
        yield states, materials


# ---------------------------------------------------------------------------
# grid transfer


def _block_mean(vals: np.ndarray, axis: int, r: int) -> np.ndarray:
    """Mean of each block of r consecutive entries along ``axis``.

    Strided adds from a zero start, then one division: the bits of
    ``reshape(...).mean(axis)``, which also makes an all -0.0 block +0.0.
    """
    out = 0.0 + vals[_axslice(vals.ndim, axis, slice(0, None, r))]
    for k in range(1, r):
        out += vals[_axslice(vals.ndim, axis, slice(k, None, r))]
    out /= r
    return out


def restrict_scalar(fine: ScalarField, coarse_grid: Grid) -> ScalarField:
    """Conservative block average onto a coarser grid (integer ratio)."""
    ratios = _ratios(fine.grid, coarse_grid)
    vals = fine.values
    for a, r in enumerate(ratios):
        vals = _block_mean(vals, a, r)
    return ScalarField(coarse_grid, vals)


def restrict_velocity(fine: FaceVectorField, coarse_grid: Grid) -> FaceVectorField:
    """Average coincident fine faces onto coarse faces.

    Coarse face planes are a subset of fine face planes; transverse block
    averaging preserves discrete divergence-free fields.
    """
    ratios = _ratios(fine.grid, coarse_grid)
    comps = []
    for a in range(fine.grid.dim):
        vals = fine.components[a][_axslice(fine.grid.dim, a, slice(None, None, ratios[a]))]
        for b in range(fine.grid.dim):
            if b != a:
                vals = _block_mean(vals, b, ratios[b])
        comps.append(vals)
    return FaceVectorField(coarse_grid, comps)


def restrict_state(fine: State, coarse_grid: Grid) -> State:
    """u and c restricted onto a coarser grid."""
    return make_state(coarse_grid, t=fine.t, u=restrict_velocity(fine.u, coarse_grid),
                      c=restrict_scalar(fine.c, coarse_grid))


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


def run_wsu(cfg: ExperimentConfig) -> dict[int, PairTrace]:
    """Weak-strong refinement study against the finest run as strong proxy:
    each level n's trace, coarsest first.

    Every level starts from the restricted fine initial state, and all
    levels advance in lockstep. At each sample the fine state and material
    are restricted once per coarse level, and each coarse level appends one
    row. The finest level is also paired with itself (its twin, whose
    entropy is identically zero), as the last trace. The levels must nest:
    each is a multiple of the coarsest (for the lockstep), and the finest is
    a multiple of each (for the restriction).
    """
    levels = list(cfg.wsu_levels)
    if len(levels) < 3:
        raise ValueError(f"wsu.levels: need at least 3 refinement levels, got {cfg.wsu_levels!r}")
    if cfg.init_kind != "bubble":
        raise ValueError(f"init.kind: weak-strong study expects the smooth bubble initial "
                         f"data, got {cfg.init_kind!r}")
    well, params = cfg.well, cfg.params
    n0, n_fine = levels[0], levels[-1]
    chunks = _sample_chunks(cfg, n0)
    for n in levels:
        if n % n0 != 0:
            raise ValueError(f"wsu.levels: level {n} is not a multiple of the coarsest level {n0}")
    for n in levels:
        if n_fine % n != 0:
            raise ValueError(f"wsu.levels: the finest level {n_fine} is not a multiple of level {n}")

    grids = [cfg.grid(n) for n in levels]
    fine0 = initial_state(cfg, grids[-1])
    starts = [restrict_state(fine0, grid) for grid in grids[:-1]] + [fine0]
    samples = _lockstep(starts, [(cfg.dt_for(n), n // n0) for n in levels], chunks, well, params)
    # the generator holds the only references to the initial states now
    del fine0, starts
    rows = [[] for _ in levels]
    for states, materials in samples:
        fine, fine_m = states[-1], materials[-1]
        for i, grid in enumerate(grids[:-1]):
            rows[i].append(pair_row(states[i], restrict_state(fine, grid), materials[i],
                                    restrict_scalar(fine_m, grid), well, params))
        rows[-1].append(pair_row(fine, fine, fine_m, fine_m, well, params))
    return {n: pair_trace(level_rows) for n, level_rows in zip(levels, rows)}


def run_perturbation(cfg: ExperimentConfig) -> PairTrace:
    """Twin runs differing by ``perturbation.delta`` times a fixed unit-energy
    solenoidal field."""
    well, params, delta = cfg.well, cfg.params, cfg.perturbation_delta
    grid = cfg.grid()
    chunks = _sample_chunks(cfg, cfg.grid_n)

    strong0 = initial_state(cfg, grid)
    v = perturbation_velocity(grid).components
    weak_u = FaceVectorField(grid, [u + delta * w for u, w in zip(strong0.u.components, v)])
    weak0 = make_state(grid, u=weak_u, c=strong0.c.copy())
    samples = _lockstep([weak0, strong0], [(cfg.dt, 1)] * 2, chunks, well, params)
    # the generator holds the only references to the initial states now
    del weak0, strong0
    return pair_trace([
        pair_row(weak, strong, weak_m, strong_m, well, params)
        for (weak, strong), (weak_m, strong_m) in samples
    ])


def run_energy_audit(
    cfg: ExperimentConfig, snapshot: Callable[[int, State, ScalarField], None] | None = None
) -> EnergyTrace:
    """Full unforced run, reduced to its energy trace.

    One loop over ``simulate``. At step 0 and after each step it checks ``c``
    against the maximum-principle bounds of the initial data (an initial
    range outside the well raises ``ValueError``) and keeps one row: the
    energies and the dissipation rates measured after the step (the
    quadrature of the implicit scheme). ``snapshot(i, state, pressure)``, if
    given, sees the state and pressure after step i (p = 0 at step 0, before
    any projection) at step 0, at every sample step that is a multiple of
    ``output.every``, and at the last step.
    """
    if cfg.init_kind == "manufactured":
        raise ValueError(f"init.kind: energy audit applies to unforced runs only, "
                         f"got {cfg.init_kind!r}")
    well, params, dt = cfg.well, cfg.params, cfg.dt
    n_steps = step_count(cfg.t_end, dt)
    shots = {*range(0, n_steps, math.lcm(_stride(cfg, n_steps), cfg.output_every)), n_steps}
    state = initial_state(cfg)
    bounds = max_principle_bounds(state.c, well)
    rows = []

    def record(i: int, state: State, pressure: ScalarField, visc: float = 0.0, ac: float = 0.0):
        check_max_principle(state, bounds, i)
        rows.append((*total_energy(state, well, params), visc, ac))
        if snapshot is not None and i in shots:
            snapshot(i, state, pressure)

    record(0, state, ScalarField(state.grid, np.zeros(state.grid.n)))
    # rebinding ``state`` leaves the initial state to the loop, which drops it at step 1;
    # no enumerate, whose reused result tuple would hold (state, report) a step longer
    i = 0
    for state, report in simulate(state, well, params, dt, n_steps):
        i += 1
        record(i, state, report.pressure, *dissipation_rates(state, report, params))
        del report
    return energy_trace(rows, dt)


def run_manufactured(cfg: ExperimentConfig) -> ConvergenceTrace:
    """Convergence study against an analytic forced solution, reduced to
    its error and difference columns.

    Spatial: dt scaled with h^2 so the first-order time error refines at
    least as fast as the second-order space error. Temporal: fixed finest
    grid, successive dt halvings compared against each other so the fixed
    spatial error cancels. Needs at least two levels, so that at least one
    spatial order is measured.
    """
    levels = list(cfg.wsu_levels)
    if len(levels) < 2:
        raise ValueError(f"wsu.levels: need at least 2 refinement levels, got {cfg.wsu_levels!r}")
    well, params = cfg.well, cfg.params
    ms = ManufacturedSolution(params, well)

    def forced_final(grid: Grid, dt: float, n_steps: int) -> State:
        """The state after ``n_steps`` forced steps; only the run holds the exact start."""
        for state, report in simulate(ms.state_at(grid, 0.0), well, params, dt, n_steps,
                                      partial(ms.sources_at, grid)):
            del report
        return state

    t_end = 6.4e-3
    base_n = levels[0]
    base_dt = 3.2e-4
    spatial_dts = [base_dt * (base_n / n) ** 2 for n in levels]
    spatial_steps = [step_count(t_end, dt) for dt in spatial_dts]
    # one final state alive at a time, none after the spatial study
    spatial_finals = (forced_final(cfg.grid(n), dt, k)
                      for n, dt, k in zip(levels, spatial_dts, spatial_steps))
    spatial_errors = [_state_distance(f, ms.state_at(f.grid, f.t)) for f in spatial_finals]

    n_fine = levels[-1]
    grid = cfg.grid(n_fine)
    t_end_t = 0.05
    dts = [5e-4, 2.5e-4, 1.25e-4]
    finals = [forced_final(grid, dt, step_count(t_end_t, dt)) for dt in dts]
    diffs = [_state_distance(finals[i], finals[i + 1]) for i in range(len(finals) - 1)]
    # each difference is keyed by the larger dt of its halving
    return ConvergenceTrace(np.array(levels, dtype=float), np.array(spatial_errors),
                            np.array(dts[:-1]), np.array(diffs))


def _state_distance(a: State, b: State) -> float:
    """Combined L2 distance of (u, c) between two states on one grid."""
    grid = a.grid
    vol = grid.cell_volume
    total = float(np.sum((a.c.values - b.c.values) ** 2)) * vol
    for ca, cb in zip(a.u.components, b.u.components):
        total += float(np.sum((ca - cb) ** 2)) * vol
    return float(np.sqrt(total))
