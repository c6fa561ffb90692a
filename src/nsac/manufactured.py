"""Forced analytic solution for convergence studies.

The exact fields on the unit square are U = g(t) V and C = g(t) C0 with
g = 1 + sin(4t)/2. V is the curl of the streamfunction
sin^2(pi x) sin^2(pi y) / pi, so it is exactly divergence-free and satisfies
the no-slip walls; C0 = 0.3 cos(pi x) cos(pi y) satisfies the homogeneous
Neumann condition. Because both fields separate in time and space, every
forcing term is a fixed spatial field times g, g^2 or g' = 2 cos(4t):

    s_c = (g' + 2 eps pi^2 g) C0 + g^2 V.grad C0 + F'(C) / eps
    s_u = g' V + g^2 ((V.grad) V + eps lap(C0) grad C0) - (nu/2) g lap(V)

The spatial fields are sampled once per grid (cell centers for C, the faces
of each component for U) into padded buffers and cached, so sampling at a
time t costs a few scaled sums over whole buffers. The nonlinear potential
term is evaluated through the same well object the solver uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import FaceVectorField, Grid, ScalarField, cell_field, enforce_dirichlet, face_field
from .potential import DoubleWell
from .solver import FluidParams, State, make_state, step

PI = np.pi


def _g(t: float) -> float:
    return 1.0 + 0.5 * math.sin(4.0 * t)


def _dg(t: float) -> float:
    return 2.0 * math.cos(4.0 * t)


def _point_fields(x: np.ndarray, y: np.ndarray) -> dict:
    """V, its gradient and Laplacian, and C0 with its gradient, at (x, y).

    ``x`` varies along axis 0 and ``y`` along axis 1; every returned field
    broadcasts to their outer shape. ``dV[a][b]`` is d_b V_a.
    """
    sx, sy = np.sin(PI * x), np.sin(PI * y)
    cx, cy = np.cos(PI * x), np.cos(PI * y)
    s2x, s2y = np.sin(2 * PI * x), np.sin(2 * PI * y)
    c2x, c2y = np.cos(2 * PI * x), np.cos(2 * PI * y)
    return {
        "V": (sx**2 * s2y, -s2x * sy**2),
        "dV": (
            (PI * s2x * s2y, 2 * PI * sx**2 * c2y),
            (-2 * PI * c2x * sy**2, -PI * s2x * s2y),
        ),
        "lapV": (
            2 * PI**2 * (c2x - 2 * sx**2) * s2y,
            2 * PI**2 * s2x * (2 * sy**2 - c2y),
        ),
        "C0": 0.3 * cx * cy,
        "dC0": (-0.3 * PI * sx * cy, -0.3 * PI * cx * sy),
    }


@dataclass
class _GridTables:
    """The time-independent factors of the exact fields and sources on one
    grid, each in the padded buffer of its field (``ScalarField.padded``)."""

    C0: np.ndarray  # cells
    adv_c: np.ndarray  # cells: V.grad C0
    V: np.ndarray  # face block, [a] on the faces of component a: V_a
    nonlin: np.ndarray  # face block: (V.grad) V_a + eps lap(C0) d_a C0
    visc: np.ndarray  # face block: -(nu/2) lap(V_a)

    @classmethod
    def build(cls, grid: Grid, params: FluidParams) -> "_GridTables":
        def mesh(coords):
            return coords[0][:, None], coords[1][None, :]

        cell = _point_fields(*mesh([grid.cell_centers(b) for b in range(2)]))
        V, nonlin, visc = [], [], []
        for a in range(2):
            f = _point_fields(*mesh([
                grid.face_coords(b) if b == a else grid.cell_centers(b) for b in range(2)
            ]))
            lap_c0 = -2 * PI**2 * f["C0"]
            V.append(f["V"][a])
            nonlin.append(
                f["V"][0] * f["dV"][a][0]
                + f["V"][1] * f["dV"][a][1]
                + params.eps * lap_c0 * f["dC0"][a]
            )
            visc.append(-(params.nu / 2) * f["lapV"][a])
        adv_c = cell["V"][0] * cell["dC0"][0] + cell["V"][1] * cell["dC0"][1]
        return cls(
            C0=ScalarField(grid, cell["C0"]).padded(),
            adv_c=ScalarField(grid, adv_c).padded(),
            V=FaceVectorField(grid, V).padded(),
            nonlin=FaceVectorField(grid, nonlin).padded(),
            visc=FaceVectorField(grid, visc).padded(),
        )


class ManufacturedSolution:
    """U = g(t) curl(psi), C = g(t) C0, with matching source terms.

    The momentum source omits any gradient contribution: the projection step
    absorbs it into the discrete pressure. Only two-dimensional unit-square
    grids are supported.
    """

    def __init__(self, params: FluidParams, well: DoubleWell):
        self.params = params
        self.well = well
        self._tables: dict[Grid, _GridTables] = {}

    def _tables_for(self, grid: Grid) -> _GridTables:
        tables = self._tables.get(grid)
        if tables is None:
            tables = self._tables[grid] = _GridTables.build(grid, self.params)
        return tables

    # -- sampling -----------------------------------------------------------

    def state_at(self, grid: Grid, t: float) -> State:
        tab = self._tables_for(grid)
        g = _g(t)
        # V vanishes on the walls only up to the roundoff of sin(pi)
        u = enforce_dirichlet(face_field(grid, g * tab.V))
        return make_state(grid, t=t, u=u, c=cell_field(grid, g * tab.C0))

    def sources_at(self, grid: Grid, t: float) -> tuple[ScalarField, FaceVectorField]:
        tab = self._tables_for(grid)
        eps = self.params.eps
        g, dg = _g(t), _dg(t)
        g2 = g * g
        # whole padded buffers, summed in place
        sc = (dg + 2 * eps * PI**2 * g) * tab.C0
        sc += g2 * tab.adv_c
        fp = self.well.eval_Fprime(g * tab.C0)
        fp /= eps
        sc += fp
        su = dg * tab.V
        su += g2 * tab.nonlin
        su += g * tab.visc
        return cell_field(grid, sc), face_field(grid, su)

    # -- forced runs --------------------------------------------------------

    def run_final_state(self, grid: Grid, dt: float, n_steps: int) -> State:
        state = self.state_at(grid, 0.0)
        for _ in range(n_steps):
            sc, su = self.sources_at(grid, state.t)
            state, _ = step(state, self.well, self.params, dt, source_c=sc, source_u=su)
        return state

    def run_error(self, grid: Grid, dt: float, n_steps: int) -> float:
        """Combined L2 error of (u, c) against the exact fields at t_end."""
        state = self.run_final_state(grid, dt, n_steps)
        exact = self.state_at(grid, state.t)
        vol = grid.cell_volume
        err = float(np.sum((state.c.values - exact.c.values) ** 2)) * vol
        for a in range(grid.dim):
            d = state.u.components[a] - exact.u.components[a]
            err += float(np.sum(d**2)) * vol
        return float(np.sqrt(err))
