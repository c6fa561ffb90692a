"""Forced analytic solution for convergence studies.

The exact fields on the unit square are U = g(t) V and C = g(t) C0 with
g = 1 + sin(4t)/2. V is the curl of the streamfunction
sin^2(pi x) sin^2(pi y) / pi, so it is exactly divergence-free and satisfies
the no-slip walls; C0 = 0.3 cos(pi x) cos(pi y) satisfies the homogeneous
Neumann condition. Because both fields separate in time and space, every
forcing term is a fixed spatial field times g, g^2 or g' = 2 cos(4t):

    s_c = (g' + 2 eps pi^2 g) C0 + g^2 V.grad C0 + F'(C) / eps
    s_u = g' V + g^2 ((V.grad) V + eps lap(C0) grad C0) - (nu/2) g lap(V)

The spatial fields are sampled once per grid and parameters (cell centers
for C, the faces of each component for U) into read-only padded buffers and
cached, so sampling at a time t costs a few scaled sums over whole buffers.
The nonlinear potential term is evaluated through the same well object the
solver uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import FaceVectorField, Grid, ScalarField, cell_field, enforce_dirichlet, face_field
from .potential import DoubleWell
from .solver import FluidParams, State, make_state

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


# one table set per grid and parameters; convergence studies keep every level's live.
@lru_cache(maxsize=64)
def _tables(grid: Grid, params: FluidParams) -> _GridTables:
    """The ``_GridTables`` of ``grid``, with read-only buffers.

    Raises ``ValueError`` unless every extent of ``grid`` is 1.
    """
    off = [L for L in grid.length if L != 1.0]
    if off:
        raise ValueError("the manufactured solution is defined on the unit box, "
                         f"got grid.length = {off[0]!r}")
    centers = [grid.cell_centers(b) for b in range(2)]
    cell = _point_fields(*np.meshgrid(*centers, indexing="ij", sparse=True))
    V, nonlin, visc = [], [], []
    for a in range(2):
        coords = [grid.face_coords(b) if b == a else grid.cell_centers(b) for b in range(2)]
        f = _point_fields(*np.meshgrid(*coords, indexing="ij", sparse=True))
        lap_c0 = -2 * PI**2 * f["C0"]
        V.append(f["V"][a])
        nonlin.append(
            f["V"][0] * f["dV"][a][0]
            + f["V"][1] * f["dV"][a][1]
            + params.eps * lap_c0 * f["dC0"][a]
        )
        visc.append(-(params.nu / 2) * f["lapV"][a])
    adv_c = cell["V"][0] * cell["dC0"][0] + cell["V"][1] * cell["dC0"][1]
    tables = _GridTables(
        C0=ScalarField(grid, cell["C0"]).padded(),
        adv_c=ScalarField(grid, adv_c).padded(),
        V=FaceVectorField(grid, V).padded(),
        nonlin=FaceVectorField(grid, nonlin).padded(),
        visc=FaceVectorField(grid, visc).padded(),
    )
    for buf in vars(tables).values():
        buf.flags.writeable = False
    return tables


class ManufacturedSolution:
    """U = g(t) curl(psi), C = g(t) C0, with matching source terms.

    The momentum source omits any gradient contribution: the projection step
    absorbs it into the discrete pressure. Only two-dimensional unit-square
    grids are supported.
    """

    def __init__(self, params: FluidParams, well: DoubleWell):
        self.params = params
        self.well = well

    def state_at(self, grid: Grid, t: float) -> State:
        tab = _tables(grid, self.params)
        g = _g(t)
        # V vanishes on the walls only up to the roundoff of sin(pi)
        u = enforce_dirichlet(face_field(grid, g * tab.V))
        return make_state(grid, t=t, u=u, c=cell_field(grid, g * tab.C0))

    def sources_at(self, grid: Grid, t: float) -> tuple[ScalarField, FaceVectorField]:
        tab = _tables(grid, self.params)
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
