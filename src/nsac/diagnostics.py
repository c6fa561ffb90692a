"""Post-processing of discrete trajectories: energy budget, maximum-principle
bounds, relative entropy, the itemized relative-entropy inequality, the
trajectory Poincare constant, and the Gronwall-type bound fit.

All space integrals use midpoint quadrature; velocity gradients combine
cell-centered normal derivatives with edge-grid cross derivatives (trapezoid
weights on wall planes, antisymmetric tangential ghosts), which makes the
viscous quadratic form match the solver's implicit operator. Time integrals
use the trapezoid rule on step boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    FaceVectorField,
    Grid,
    ScalarField,
    _axslice,
    avg_to_cells,
    cell_speed_squared,
    face_inner,
    gradient,
    integrate,
    laplacian,
)
from .potential import DoubleWell
from .solver import FluidParams, State, StepReport, _dcomp_dnode

# ---------------------------------------------------------------------------
# energy


@dataclass
class EnergyReport:
    t: float
    kinetic: float
    interfacial: float
    potential: float
    viscous_diss: float = 0.0
    ac_diss: float = 0.0
    cumulative_diss: float = 0.0

    @property
    def total(self) -> float:
        return self.kinetic + self.interfacial + self.potential


def kinetic_energy(u: FaceVectorField) -> float:
    return 0.5 * float(np.sum(cell_speed_squared(u))) * u.grid.cell_volume


def total_energy(state: State, well: DoubleWell, params: FluidParams) -> EnergyReport:
    """Kinetic, interfacial and bulk potential energy of a state."""
    g = gradient(state.c)
    interfacial = 0.5 * params.eps * face_inner(g, g)
    potential = integrate(
        ScalarField(state.grid, well.eval_F(state.c.values))
    ) / params.eps
    return EnergyReport(
        t=state.t,
        kinetic=kinetic_energy(state.u),
        interfacial=interfacial,
        potential=potential,
    )


def _edge_weights(grid: Grid, axes: tuple[int, ...]) -> float | np.ndarray:
    """Trapezoid quadrature weights on an edge grid (1/2 on wall planes)."""
    out = np.ones([grid.n[a] + (1 if a in axes else 0) for a in range(grid.dim)])
    for a in axes:
        line = np.ones(grid.n[a] + 1)
        line[0] = 0.5
        line[-1] = 0.5
        sl = [None] * grid.dim
        sl[a] = slice(None)
        out = out * line[tuple(sl)]
    return out


def velocity_gradient(u: FaceVectorField) -> dict[tuple[int, int], np.ndarray]:
    """Discrete (grad u)_{ab} = d u_a / d x_b.

    Diagonal entries live at cell centers, off-diagonal ones on the a/b edge
    grid with antisymmetric wall ghosts.
    """
    grid = u.grid
    dim = grid.dim
    out = {}
    for a in range(dim):
        for b in range(dim):
            if a == b:
                out[(a, b)] = np.diff(u.components[a], axis=a) / grid.h[a]
            else:
                out[(a, b)] = _dcomp_dnode(u.components[a], grid, b)
    return out


def viscous_dissipation(u: FaceVectorField, nu: float) -> float:
    """Integral of S(grad u) : grad u with S = (nu/2)(grad u + grad u^T)."""
    grid = u.grid
    vol = grid.cell_volume
    grads = velocity_gradient(u)
    total = 0.0
    for a in range(grid.dim):
        total += nu * float(np.sum(grads[(a, a)] ** 2)) * vol
    for a in range(grid.dim):
        for b in range(a + 1, grid.dim):
            w = _edge_weights(grid, (a, b))
            sym = grads[(a, b)] + grads[(b, a)]
            total += 0.5 * nu * float(np.sum(w * sym**2)) * vol
    return total


def dissipation_rates(
    state: State, report: StepReport, params: FluidParams
) -> tuple[float, float]:
    """Viscous and Allen-Cahn dissipation rates after one step."""
    visc = viscous_dissipation(state.u, params.nu)
    m = report.material_derivative
    ac = integrate(ScalarField(state.grid, m.values**2))
    return visc, ac


def energy_audit(reports: list[EnergyReport]) -> float:
    """Worst relative violation of E(t) + cumulative dissipation <= E(0).

    Negative values mean the inequality holds with margin.
    """
    if not reports:
        raise ValueError("empty report list")
    e0 = reports[0].total
    scale = e0 if e0 > 0 else 1.0
    if len(reports) == 1:
        return 0.0
    # the t = 0 row is identically zero; audit the later ones. np.max, unlike
    # the builtin, propagates a NaN from any row.
    return float(np.max([(r.total + r.cumulative_diss - e0) / scale for r in reports[1:]]))


# ---------------------------------------------------------------------------
# maximum principle


@dataclass(frozen=True)
class MaxPrincipleBounds:
    m: float
    M: float


def max_principle_bounds(c0: ScalarField, well: DoubleWell) -> MaxPrincipleBounds:
    """Convex hull of the initial range and the well minimizers."""
    lo = float(np.min(c0.values))
    hi = float(np.max(c0.values))
    if lo < well.f1 or hi > well.f2:
        raise ValueError(
            f"initial range [{lo}, {hi}] exceeds admissible [{well.f1}, {well.f2}]"
        )
    return MaxPrincipleBounds(m=min(lo, well.y1), M=max(hi, well.y2))


def check_max_principle(
    c_fields: list[ScalarField], bounds: MaxPrincipleBounds, tol: float
) -> tuple[int, float]:
    """Count cells outside [m - tol, M + tol]; report the worst excursion."""
    violations = 0
    worst = 0.0
    for c in c_fields:
        below = bounds.m - c.values
        above = c.values - bounds.M
        excursion = np.maximum(below, above)
        violations += int(np.count_nonzero(excursion > tol))
        worst = max(worst, float(np.max(excursion)))
    return violations, worst


# ---------------------------------------------------------------------------
# relative entropy


def _diff_vector(u: FaceVectorField, U: FaceVectorField) -> FaceVectorField:
    if u.grid is not U.grid and u.grid != U.grid:
        raise ValueError("states live on different grids")
    comps = [u.components[a] - U.components[a] for a in range(u.grid.dim)]
    return FaceVectorField(u.grid, comps, u.bc if u.bc == U.bc else "none")


def relative_entropy(weak: State, strong: State, params: FluidParams) -> float:
    """E(u,c | U,C) = int ( |u-U|^2 / 2 + eps |grad(c-C)|^2 / 2 )."""
    if weak.grid != strong.grid:
        raise ValueError("states live on different grids")
    w = _diff_vector(weak.u, strong.u)
    d = ScalarField(weak.grid, weak.c.values - strong.c.values, weak.c.bc)
    gd = gradient(d)
    return kinetic_energy(w) + 0.5 * params.eps * face_inner(gd, gd)


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Sampled states of one run plus the material derivative per sample.

    ``materials[k]`` is the material derivative of the step that produced
    ``states[k]``; at t = 0 it is copied from the first step (constant
    extrapolation, consistent with first-order stepping).
    """

    times: list[float] = field(default_factory=list)
    states: list[State] = field(default_factory=list)
    materials: list[ScalarField] = field(default_factory=list)

    def append(self, state: State, material: ScalarField | None):
        self.times.append(state.t)
        self.states.append(state)
        self.materials.append(material)

    def finalize(self):
        # backfill the t=0 material derivative once a step exists
        if self.materials and self.materials[0] is None and len(self.materials) > 1:
            self.materials[0] = self.materials[1]
        return self


def _cumtrapz(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    if len(t) > 1:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


@dataclass
class RelEntropyTrace:
    times: np.ndarray
    E: np.ndarray
    D: np.ndarray
    omega: np.ndarray


def omega_weight(strong: State) -> float:
    """Gronwall weight 1 + max|U|^2 + max|grad C|^2 (cell-centered maxima)."""
    u2 = cell_speed_squared(strong.u)
    gC = avg_to_cells(gradient(strong.c))
    g2 = sum(comp**2 for comp in gC)
    return 1.0 + float(np.max(u2)) + float(np.max(g2))


def rel_entropy_trace(
    weak: Trajectory, strong: Trajectory, params: FluidParams
) -> RelEntropyTrace:
    """Relative entropy, LHS dissipation-difference rate, and weight in time."""
    _check_aligned(weak, strong)
    times = np.asarray(weak.times)
    E = np.empty(len(times))
    D = np.empty(len(times))
    omega = np.empty(len(times))
    for k, (ws, ss) in enumerate(zip(weak.states, strong.states)):
        E[k] = relative_entropy(ws, ss, params)
        wdiff = _diff_vector(ws.u, ss.u)
        mdiff = weak.materials[k].values - strong.materials[k].values
        D[k] = viscous_dissipation(wdiff, params.nu) + integrate(
            ScalarField(ws.grid, mdiff**2)
        )
        omega[k] = omega_weight(ss)
    return RelEntropyTrace(times=times, E=E, D=D, omega=omega)


def _check_aligned(weak: Trajectory, strong: Trajectory):
    if len(weak.times) != len(strong.times):
        raise ValueError("trajectories have different sample counts")
    if weak.times and not np.allclose(weak.times, strong.times, rtol=0, atol=1e-12):
        raise ValueError("trajectories sampled at different times")
    if weak.states and weak.states[0].grid != strong.states[0].grid:
        raise ValueError("trajectories live on different grids")


# ---------------------------------------------------------------------------
# relative entropy inequality


@dataclass
class REITrace:
    """Cumulative LHS/RHS entries of the inequality at every sample time."""

    times: np.ndarray
    lhs_entropy_gap: np.ndarray
    lhs_visc: np.ndarray
    lhs_ac: np.ndarray
    r_conv: np.ndarray
    r_eps1: np.ndarray
    r_eps2: np.ndarray
    r_eps3: np.ndarray
    r_eps4: np.ndarray
    r_f: np.ndarray
    slack: np.ndarray


def _cell_velocity_gradient(u: FaceVectorField) -> dict[tuple[int, int], np.ndarray]:
    """All entries of grad u averaged to cell centers."""
    grid = u.grid
    grads = velocity_gradient(u)
    out = {}
    for (a, b), arr in grads.items():
        if a == b:
            out[(a, b)] = arr
        else:
            tmp = 0.5 * (
                arr[_axslice(grid.dim, a, slice(None, -1))]
                + arr[_axslice(grid.dim, a, slice(1, None))]
            )
            out[(a, b)] = 0.5 * (
                tmp[_axslice(grid.dim, b, slice(None, -1))]
                + tmp[_axslice(grid.dim, b, slice(1, None))]
            )
    return out


def rei_terms(
    weak: Trajectory, strong: Trajectory, well: DoubleWell, params: FluidParams
) -> REITrace:
    """Itemized relative-entropy inequality along a trajectory pair.

    All right-hand-side integrands are evaluated cell-centered with midpoint
    quadrature; time integration is trapezoidal on the sample times.
    """
    _check_aligned(weak, strong)
    times = np.asarray(weak.times)
    nt = len(times)
    eps = params.eps
    grid = weak.states[0].grid
    vol = grid.cell_volume

    ent = np.empty(nt)
    rate_visc = np.empty(nt)
    rate_ac = np.empty(nt)
    rate = {name: np.empty(nt) for name in ("conv", "eps1", "eps2", "eps3", "eps4", "f")}

    for k in range(nt):
        ws, ss = weak.states[k], strong.states[k]
        ent[k] = relative_entropy(ws, ss, params)

        wdiff = _diff_vector(ws.u, ss.u)
        d = ScalarField(grid, ws.c.values - ss.c.values, ws.c.bc)
        mdiff = weak.materials[k].values - strong.materials[k].values

        rate_visc[k] = viscous_dissipation(wdiff, params.nu)
        rate_ac[k] = float(np.sum(mdiff**2)) * vol

        gw = _cell_velocity_gradient(wdiff)
        w_cell = avg_to_cells(wdiff)
        U_cell = avg_to_cells(ss.u)
        gd = avg_to_cells(gradient(d))
        gC = avg_to_cells(gradient(ss.c))
        lap_d = laplacian(d).values

        conv = np.zeros(grid.n)
        eps2 = np.zeros(grid.n)
        eps3 = np.zeros(grid.n)
        for a in range(grid.dim):
            for b in range(grid.dim):
                conv += w_cell[a] * U_cell[b] * gw[(a, b)]
                eps2 += gC[a] * gd[b] * gw[(a, b)]
                eps3 += gd[a] * gC[b] * gw[(a, b)]
        rate["conv"][k] = float(np.sum(conv)) * vol
        rate["eps2"][k] = eps * float(np.sum(eps2)) * vol
        rate["eps3"][k] = eps * float(np.sum(eps3)) * vol

        u_dot_gd = sum(U_cell[a] * gd[a] for a in range(grid.dim))
        rate["eps1"][k] = eps * float(np.sum(lap_d * u_dot_gd)) * vol
        w_dot_gC = sum(w_cell[a] * gC[a] for a in range(grid.dim))
        rate["eps4"][k] = eps * float(np.sum(lap_d * w_dot_gC)) * vol

        fp_diff = well.eval_Fprime(ws.c.values) - well.eval_Fprime(ss.c.values)
        rate["f"][k] = -(1.0 / eps) * float(np.sum(fp_diff * mdiff)) * vol

    lhs_visc = _cumtrapz(times, rate_visc)
    lhs_ac = _cumtrapz(times, rate_ac)
    lhs_gap = ent - ent[0]
    cum = {name: _cumtrapz(times, r) for name, r in rate.items()}
    rhs = sum(cum.values())
    slack = rhs - (lhs_gap + lhs_visc + lhs_ac)
    return REITrace(
        times=times,
        lhs_entropy_gap=lhs_gap,
        lhs_visc=lhs_visc,
        lhs_ac=lhs_ac,
        r_conv=cum["conv"],
        r_eps1=cum["eps1"],
        r_eps2=cum["eps2"],
        r_eps3=cum["eps3"],
        r_eps4=cum["eps4"],
        r_f=cum["f"],
        slack=slack,
    )


# ---------------------------------------------------------------------------
# Poincare-type trajectory bound


@dataclass
class PoincareReport:
    K_est: float
    ratio_curve: np.ndarray
    same_initial_data: bool


def poincare_check(traj1: Trajectory, traj2: Trajectory, eta: float = 1e-14) -> PoincareReport:
    """Least K with int (c1-c2)^2(t) <= K int_0^t int (grad(c1-c2))^2 + (u1-u2)^2.

    The bound only applies when both runs start from the same concentration;
    the report flags that hypothesis but computes K either way.
    """
    _check_aligned(traj1, traj2)
    times = np.asarray(traj1.times)
    grid = traj1.states[0].grid
    nt = len(times)
    lhs = np.empty(nt)
    rhs_rate = np.empty(nt)
    for k in range(nt):
        s1, s2 = traj1.states[k], traj2.states[k]
        d = ScalarField(grid, s1.c.values - s2.c.values, s1.c.bc)
        lhs[k] = integrate(ScalarField(grid, d.values**2))
        gd = gradient(d)
        wdiff = _diff_vector(s1.u, s2.u)
        rhs_rate[k] = face_inner(gd, gd) + 2.0 * kinetic_energy(wdiff)
    rhs = _cumtrapz(times, rhs_rate)
    ratios = lhs / (rhs + eta)
    same_c0 = bool(
        np.allclose(traj1.states[0].c.values, traj2.states[0].c.values, rtol=0, atol=1e-13)
    )
    return PoincareReport(
        K_est=float(np.max(ratios)), ratio_curve=ratios, same_initial_data=same_c0
    )


# ---------------------------------------------------------------------------
# Gronwall fit


@dataclass
class GronwallFit:
    k: float
    lam: float
    bound_curve: np.ndarray
    violated: bool


def gronwall_fit(trace: RelEntropyTrace, lam: float = 0.5, rel_tol: float = 1e-6) -> GronwallFit:
    """Least k >= 0 with E(t) - E(0) + D(t) <= lam D(t) + k int_0^t omega E.

    D is the time-integrated dissipation difference. The bound curve is
    E(0) exp(k int_0^t omega); ``violated`` records whether E ever exceeds it
    by more than ``rel_tol`` relative.
    """
    times = np.asarray(trace.times)
    if len(times) == 0:
        raise ValueError("empty trace")
    E = np.asarray(trace.E)
    D = _cumtrapz(times, np.asarray(trace.D))
    omegaE = _cumtrapz(times, np.asarray(trace.omega) * E)
    numer = E - E[0] + (1.0 - lam) * D
    k = 0.0
    for j in range(1, len(times)):
        if omegaE[j] > 0 and numer[j] > 0:
            k = max(k, numer[j] / omegaE[j])
    cum_omega = _cumtrapz(times, np.asarray(trace.omega))
    bound = E[0] * np.exp(np.minimum(k * cum_omega, 700.0))
    scale = np.maximum(bound, E[0] if E[0] > 0 else 1.0)
    violated = not np.all(E <= bound + rel_tol * scale)  # a NaN E fails
    return GronwallFit(k=k, lam=lam, bound_curve=bound, violated=violated)
