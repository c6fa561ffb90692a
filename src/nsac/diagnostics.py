"""Diagnostics of discrete runs: energy budget, maximum-principle bounds and
check, relative entropy, the itemized relative-entropy inequality, and the
Gronwall-type bound fit. An unforced run or a weak/strong pair is reduced to
one row of scalars per step or sample time, so no run's states need to be
stored, and its rows to one ``EnergyTrace`` or ``PairTrace`` whose fields are
its output columns; a manufactured-solution study is reduced to one
``ConvergenceTrace``, whose fields are the columns of its two files.

All space integrals use midpoint quadrature; velocity gradients combine
cell-centered normal derivatives with edge-grid cross derivatives (trapezoid
weights on wall planes, antisymmetric tangential ghosts), which makes the
viscous quadratic form match the solver's implicit operator. Time integrals
use the trapezoid rule on step boundaries.

Like the step, the diagnostics work in flat passes over whole padded buffers
(see ``nsac.grid``): each velocity-gradient entry and each cell average is
one contiguous pass. A pair row adds each sum over axes or axis pairs term
by term into one buffer, and frees each of its buffers after the last term
that reads it. Each integral sums a new, contiguous array of the quantity's
own shape (cells, faces or an edge grid), so its bits do not depend on the
storage, and a sum over axes starts from zero, which makes a -0.0 term
+0.0. Every buffer is made per call; only the read-only edge-weight tables
are cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .certificates import GRONWALL_REL_TOL, MAX_PRINCIPLE_TOL
from .grid import (
    FaceVectorField,
    Grid,
    ScalarField,
    _axslice,
    avg_to_cells,
    cell_field,
    cell_speed_squared,
    divergence,
    face_field,
    face_inner,
    gradient,
)
from .potential import DoubleWell
from .solver import FluidParams, NumericalError, State, StepReport

# ---------------------------------------------------------------------------
# energy


class EnergyRow(NamedTuple):
    """The energies of one state; ``total`` is E = kinetic + interfacial + potential."""

    t: float
    kinetic: float
    interfacial: float
    potential: float

    @property
    def total(self) -> float:
        return self.kinetic + self.interfacial + self.potential


def kinetic_energy(u: FaceVectorField) -> float:
    return 0.5 * float(np.sum(cell_speed_squared(u))) * u.grid.cell_volume


def total_energy(state: State, well: DoubleWell, params: FluidParams) -> EnergyRow:
    """Kinetic, interfacial and bulk potential energy; grad c from the carry if any."""
    carried = state.carried()
    g = gradient(state.c) if carried is None else carried[0]
    interfacial = 0.5 * params.eps * face_inner(g, g)
    # F(c) is a new, contiguous array, so its sum does not depend on how c is stored
    potential = float(well.eval_F(state.c.values).sum() * state.grid.cell_volume) / params.eps
    return EnergyRow(state.t, kinetic_energy(state.u), interfacial, potential)


# one table per axis pair and grid; lockstep studies keep every level's live.
@lru_cache(maxsize=64)
def _edge_weights(grid: Grid, axes: tuple[int, ...]) -> np.ndarray:
    """Trapezoid quadrature weights on an edge grid (1/2 on wall planes), read-only."""
    out = np.ones([grid.n[a] + (1 if a in axes else 0) for a in range(grid.dim)])
    for a in axes:
        line = np.ones(grid.n[a] + 1)
        line[0] = 0.5
        line[-1] = 0.5
        out = out * line.reshape([-1 if b == a else 1 for b in range(grid.dim)])
    out.flags.writeable = False
    return out


def _entry_view(grid: Grid, a: int, b: int) -> tuple[slice, ...]:
    """Index of entry (a, b) of ``velocity_gradient`` in its padded buffer:
    the cells for a == b, the a/b edge grid (n + 1 along a and b) otherwise."""
    return tuple(slice(0, m + 1 if a != b and c in (a, b) else m) for c, m in enumerate(grid.n))


def velocity_gradient(u: FaceVectorField) -> np.ndarray:
    """Discrete (grad u)_{ab} = d u_a / d x_b, one padded buffer per entry.

    ``[a, b]`` holds the entry in its ``_entry_view``: diagonal entries at
    cell centers, off-diagonal ones on the a/b edge grid with antisymmetric
    wall ghosts (2 u / h on the first wall plane, -2 u / h on the last).
    Each entry is one flat pass, (u_a[k + s_b] - u_a[k]) / h_b.
    """
    grid = u.grid
    dim = grid.dim
    out = np.empty((dim,) + grid.block_shape)
    for a, ua in enumerate(u.padded()):
        flat_u = ua.ravel()
        for b, g in enumerate(out[a]):
            s = grid.offsets[b]
            flat = g.ravel()
            if a == b:
                np.subtract(flat_u[s:], flat_u[:-s], out=flat[:-s])
                flat[-s:] = 0.0
            else:
                # node k >= s_b sits between u_a[k - s_b] and u_a[k]; every
                # k < s_b lies on the first wall plane, rewritten below
                np.subtract(flat_u[s:], flat_u[:-s], out=flat[s:])
                first, last = _axslice(dim, b, 0), _axslice(dim, b, grid.n[b])
                np.multiply(ua[first], 2.0, out=g[first])
                np.multiply(ua[_axslice(dim, b, grid.n[b] - 1)], -2.0, out=g[last])
            g /= grid.h[b]
    return out


def viscous_dissipation(u: FaceVectorField, nu: float) -> float:
    """Integral of S(grad u) : grad u with S = (nu/2)(grad u + grad u^T)."""
    return _viscous_form(u.grid, velocity_gradient(u), nu)


def _viscous_form(grid: Grid, grads: np.ndarray, nu: float) -> float:
    """``viscous_dissipation`` from ``velocity_gradient``; each sum runs over
    a new, contiguous array of the entry's shape."""
    vol = grid.cell_volume
    total = 0.0
    for a in range(grid.dim):
        total += nu * float(np.sum(grads[a, a][grid.cell_view] ** 2)) * vol
    for a in range(grid.dim):
        for b in range(a + 1, grid.dim):
            w = _edge_weights(grid, (a, b))
            view = _entry_view(grid, a, b)
            sym = grads[a, b][view] + grads[b, a][view]
            total += 0.5 * nu * float(np.sum(w * sym**2)) * vol
    return total


def dissipation_rates(
    state: State, report: StepReport, params: FluidParams
) -> tuple[float, float]:
    """Viscous and Allen-Cahn dissipation rates after one step."""
    visc = viscous_dissipation(state.u, params.nu)
    m = report.material_derivative
    # summed as a new, contiguous array, like F(c) in total_energy
    ac = float((m.values**2).sum() * state.grid.cell_volume)
    return visc, ac


@dataclass
class EnergyTrace:
    """An unforced run reduced over its steps. The fields are the energy
    file's columns; ``audit_violation`` is (E(t) + cumulative dissipation -
    E(0)) / E(0) (scaled by 1 if E(0) <= 0), negative where the energy
    inequality holds with margin."""

    t: np.ndarray
    kinetic: np.ndarray
    interfacial: np.ndarray
    potential: np.ndarray
    viscous_diss: np.ndarray
    ac_diss: np.ndarray
    cumulative_diss: np.ndarray
    audit_violation: np.ndarray

    @property
    def audit(self) -> float:
        """Worst violation after t = 0 (np.max: a NaN row gives NaN; one row raises)."""
        return float(np.max(self.audit_violation[1:]))


def energy_trace(rows: list[tuple[float, ...]], dt: float) -> EnergyTrace:
    """The trace of a run's ``(t, kinetic, interfacial, potential, visc, ac)``
    rows, one per step from step 0; no rows raise ``ValueError``."""
    t, kinetic, interfacial, potential, visc, ac = np.array(rows).T.copy()
    # a sequential accumulate: the bits of ``cum += dt * (visc + ac)`` per step
    cum = np.cumsum(dt * (visc + ac))
    e0 = kinetic[0] + interfacial[0] + potential[0]
    violation = (kinetic + interfacial + potential + cum - e0) / (e0 if e0 > 0 else 1.0)
    return EnergyTrace(t, kinetic, interfacial, potential, visc, ac, cum, violation)


# ---------------------------------------------------------------------------
# maximum principle


@dataclass(frozen=True)
class MaxPrincipleBounds:
    m: float
    M: float


def max_principle_bounds(c0: ScalarField, well: DoubleWell) -> MaxPrincipleBounds:
    """Convex hull of the initial range and the well minimizers.

    Raises ``ValueError`` if the range leaves [f1, f2]; a NaN fails both tests.
    """
    lo = float(np.min(c0.values))
    hi = float(np.max(c0.values))
    if not (well.f1 <= lo and hi <= well.f2):
        raise ValueError(
            f"initial range [{lo}, {hi}] is not within admissible [{well.f1}, {well.f2}]"
        )
    return MaxPrincipleBounds(m=min(lo, well.y1), M=max(hi, well.y2))


def check_max_principle(state: State, bounds: MaxPrincipleBounds, i: int):
    """Raise ``NumericalError`` naming step ``i``, the time and the worst value
    if ``c`` strays beyond ``bounds`` by more than ``MAX_PRINCIPLE_TOL``."""
    # np.min and np.max propagate a NaN, which fails both comparisons
    lo, hi = float(np.min(state.c.values)), float(np.max(state.c.values))
    if not (bounds.m - lo <= MAX_PRINCIPLE_TOL and hi - bounds.M <= MAX_PRINCIPLE_TOL):
        worst = lo if bounds.m - lo >= hi - bounds.M else hi
        raise NumericalError(f"maximum principle violated at step {i}, t={state.t:.6g}: "
                             f"c = {worst!r} outside [{bounds.m!r}, {bounds.M!r}] "
                             f"beyond tolerance {MAX_PRINCIPLE_TOL:.0e}")


# ---------------------------------------------------------------------------
# relative entropy


def _differences(weak: State, strong: State) -> tuple[FaceVectorField, FaceVectorField]:
    """u - U and grad(c - C) of a weak/strong pair on one grid."""
    if weak.grid != strong.grid:
        raise ValueError("states live on different grids")
    grid = weak.grid
    w = face_field(grid, weak.u.padded() - strong.u.padded())
    return w, gradient(cell_field(grid, weak.c.padded() - strong.c.padded()))


def _entropy(w: FaceVectorField, gd: FaceVectorField, eps: float) -> float:
    return kinetic_energy(w) + 0.5 * eps * face_inner(gd, gd)


def relative_entropy(weak: State, strong: State, params: FluidParams) -> float:
    """E(u,c | U,C) = int ( |u-U|^2 / 2 + eps |grad(c-C)|^2 / 2 )."""
    return _entropy(*_differences(weak, strong), params.eps)


def _cumtrapz(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    if len(t) > 1:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


# ---------------------------------------------------------------------------
# relative entropy inequality


def _average_edges_to_cells(grid: Grid, grads: np.ndarray) -> None:
    """Average the off-diagonal entries of ``velocity_gradient`` from their
    edge grids to the cells, in place: along a, then along b."""
    scratch = np.empty(grid.size)
    for a in range(grid.dim):
        for b in range(grid.dim):
            if a == b:
                continue
            sa, sb = grid.offsets[a], grid.offsets[b]
            g = grads[a, b].ravel()
            np.add(g[:-sa], g[sa:], out=scratch[:-sa])
            scratch[-sa:] = 0.0
            scratch *= 0.5
            np.add(scratch[:-sb], scratch[sb:], out=g[:-sb])
            g[-sb:] = 0.0
            g *= 0.5


def _pair_sum(acc: np.ndarray, term: np.ndarray, left, right, grads: np.ndarray) -> np.ndarray:
    """Sum over (a, b) of (left[a] right[b]) grads[a, b] into ``acc``.

    The products are added in row order from +0.0, which makes a -0.0 term
    +0.0; ``term`` holds each product. Returns ``acc``.
    """
    acc.fill(0.0)
    for a, b in np.ndindex(len(left), len(right)):
        np.multiply(left[a], right[b], out=term)
        term *= grads[a, b]
        acc += term
    return acc


def _dot(acc: np.ndarray, term: np.ndarray, left, right) -> np.ndarray:
    """Sum over a of left[a] right[a] into ``acc``, as ``_pair_sum`` adds."""
    acc.fill(0.0)
    for la, ra in zip(left, right):
        acc += np.multiply(la, ra, out=term)
    return acc


class PairRow(NamedTuple):
    """One sample of a weak/strong pair.

    ``E`` is the relative entropy, ``visc`` and ``ac`` the viscous and
    Allen-Cahn dissipation rates of the difference, ``conv`` .. ``f`` the
    right-hand-side rates of the REI, and ``omega`` the Gronwall weight
    1 + max|U|^2 + max|grad C|^2 (cell-centered maxima).
    """

    t: float
    E: float
    visc: float
    ac: float
    conv: float
    eps1: float
    eps2: float
    eps3: float
    eps4: float
    f: float
    omega: float


def pair_row(
    weak: State,
    strong: State,
    weak_material: ScalarField,
    strong_material: ScalarField,
    well: DoubleWell,
    params: FluidParams,
) -> PairRow:
    """Relative entropy, dissipation differences, REI rates and weight at one time.

    The materials are the discrete material derivatives of the steps that
    produced the states. All right-hand-side integrands are evaluated
    cell-centered with midpoint quadrature. Raises ``ValueError`` if the
    states are more than 1e-12 apart in time or live on different grids.
    """
    if not (abs(weak.t - strong.t) <= 1e-12):
        raise ValueError(f"pair sampled at different times {weak.t!r} and {strong.t!r}")
    eps = params.eps
    grid = weak.grid
    vol = grid.cell_volume
    wdiff, gd_face = _differences(weak, strong)
    # first, while few of the row's own buffers are live beside its temporaries
    speed2 = float(np.max(cell_speed_squared(strong.u)))
    E = _entropy(wdiff, gd_face, eps)

    def cell_sum(buf: np.ndarray) -> float:
        # over a new, contiguous array of the cell shape, whose bits do not
        # depend on the storage
        return float(np.ascontiguousarray(buf[grid.cell_view]).sum())

    mdiff = weak_material.padded() - strong_material.padded()
    ac = cell_sum(mdiff * mdiff) * vol
    # F' acts entrywise, so it runs over whole padded buffers, once for a twin
    fp = well.eval_Fprime(strong.c.padded())
    fp_diff = (fp if weak.c is strong.c else well.eval_Fprime(weak.c.padded())) - fp
    del fp
    f = -(1.0 / eps) * cell_sum(fp_diff * mdiff) * vol
    del mdiff, fp_diff

    grads = velocity_gradient(wdiff)
    visc = _viscous_form(grid, grads, params.nu)
    _average_edges_to_cells(grid, grads)
    w_cell = avg_to_cells(wdiff)
    del wdiff
    gd = avg_to_cells(gd_face)
    lap_d = divergence(gd_face).padded()
    del gd_face

    # the one pair of buffers that every sum over axes accumulates in
    acc, term = np.empty(grid.padded_shape), np.empty(grid.padded_shape)
    U_cell = avg_to_cells(strong.u)
    conv = cell_sum(_pair_sum(acc, term, w_cell, U_cell, grads)) * vol
    eps1 = eps * cell_sum(np.multiply(lap_d, _dot(acc, term, U_cell, gd), out=acc)) * vol
    del U_cell
    carried = strong.carried()
    gC = avg_to_cells(gradient(strong.c) if carried is None else carried[0])
    eps2 = eps * cell_sum(_pair_sum(acc, term, gC, gd, grads)) * vol
    eps3 = eps * cell_sum(_pair_sum(acc, term, gd, gC, grads)) * vol
    eps4 = eps * cell_sum(np.multiply(lap_d, _dot(acc, term, w_cell, gC), out=acc)) * vol
    omega = 1.0 + speed2 + float(np.max(_dot(acc, term, gC, gC)[grid.cell_view]))
    return PairRow(weak.t, E, visc, ac, conv, eps1, eps2, eps3, eps4, f, omega)


@dataclass
class PairTrace:
    """A weak/strong pair reduced over its sample times.

    The fields are the output columns: the entropy file's (relative entropy
    E, dissipation rate difference D = visc + ac, Gronwall weight omega and
    the fitted bound), then the REI file's after t (cumulative LHS and RHS
    entries and the slack RHS - LHS), then the fitted rate k and whether E
    ever exceeds the bound.
    """

    t: np.ndarray
    E: np.ndarray
    D: np.ndarray
    omega: np.ndarray
    bound_curve: np.ndarray
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
    k: float
    violated: bool

    @property
    def max_entropy(self) -> float:
        return float(np.max(self.E))


def pair_trace(rows: list[PairRow]) -> PairTrace:
    """The trace of a pair's rows, with its Gronwall fit.

    Time integrals are trapezoidal on the sample times of the rows.
    """
    t, E, visc, ac, *rates, omega = np.array(rows).T.copy()
    D = visc + ac
    cum = [_cumtrapz(t, r) for r in rates]
    lhs_gap = E - E[0]
    lhs_visc = _cumtrapz(t, visc)
    lhs_ac = _cumtrapz(t, ac)
    slack = sum(cum) - (lhs_gap + lhs_visc + lhs_ac)
    k, bound_curve, violated = gronwall_fit(t, E, D, omega)
    return PairTrace(t, E, D, omega, bound_curve, lhs_gap, lhs_visc, lhs_ac, *cum, slack,
                     k, violated)


# ---------------------------------------------------------------------------
# Gronwall fit


GRONWALL_LAMBDA = 0.5  # the share of the dissipation the bound counts on its right


def gronwall_fit(
    t: np.ndarray, E: np.ndarray, D: np.ndarray, omega: np.ndarray
) -> tuple[float, np.ndarray, bool]:
    """Least k >= 0 with E(t) - E(0) + D(t) <= lambda D(t) + k int_0^t omega E,
    lambda = ``GRONWALL_LAMBDA``, with the bound curve and whether E violates it.

    ``D`` is the dissipation rate difference, and D(t) above its time
    integral. The bound curve is E(0) exp(k int_0^t omega); E violates it
    where it exceeds it by more than ``GRONWALL_REL_TOL`` relative.
    """
    if len(t) == 0:
        raise ValueError("empty trace")
    D = _cumtrapz(t, D)
    omegaE = _cumtrapz(t, omega * E)
    numer = E - E[0] + (1.0 - GRONWALL_LAMBDA) * D
    k = 0.0
    for j in range(1, len(t)):
        if omegaE[j] > 0 and numer[j] > 0:
            k = max(k, numer[j] / omegaE[j])
    cum_omega = _cumtrapz(t, omega)
    bound = E[0] * np.exp(np.minimum(k * cum_omega, 700.0))
    scale = np.maximum(bound, E[0] if E[0] > 0 else 1.0)
    violated = not np.all(E <= bound + GRONWALL_REL_TOL * scale)  # a NaN E fails
    return k, bound, violated


# ---------------------------------------------------------------------------
# manufactured convergence


@dataclass
class ConvergenceTrace:
    """A manufactured-solution study reduced to its output columns: the
    spatial study's error at each level ``n`` (a real), then the temporal
    study's difference at each dt halving, keyed by the larger ``dt`` of
    the two. The orders are read off these columns."""

    n: np.ndarray
    error: np.ndarray
    dt: np.ndarray
    difference: np.ndarray

    @property
    def spatial_orders(self) -> list[float]:
        """log(e_i / e_{i+1}) / log(n_{i+1} / n_i) between consecutive levels,
        so the levels need not double. An error of 0 gives an infinite or
        NaN order, which fails its gate, rather than raising."""
        n, e = self.n, self.error
        with np.errstate(all="ignore"):  # a 0 or an overflow gives inf or NaN
            return [float(np.log(e[i] / e[i + 1]) / np.log(n[i + 1] / n[i]))
                    for i in range(len(e) - 1)]

    @property
    def temporal_orders(self) -> list[float]:
        """log2(d_i / d_{i+1}) between consecutive halvings; a difference of 0
        gives an infinite or NaN order, as in ``spatial_orders``."""
        d = self.difference
        with np.errstate(all="ignore"):  # a 0 or an overflow gives inf or NaN
            return [float(np.log2(d[i] / d[i + 1])) for i in range(len(d) - 1)]
