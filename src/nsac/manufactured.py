"""Forced analytic solution for convergence studies.

The velocity comes from a time-modulated streamfunction, so it is exactly
divergence-free and satisfies the no-slip walls; the concentration satisfies
the homogeneous Neumann condition. Forcing terms are derived symbolically and
sampled on the staggered grid, except for the nonlinear potential term which
is evaluated through the same well object the solver uses.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from .grid import DIRICHLET_ZERO, NEUMANN_ZERO, FaceVectorField, Grid, ScalarField
from .potential import DoubleWell
from .solver import FluidParams, State, make_state, step


class ManufacturedSolution:
    """U = curl(psi), C smooth Neumann field, with matching source terms.

    The momentum source omits any gradient contribution: the projection step
    absorbs it into the discrete pressure.
    """

    def __init__(self, params: FluidParams, well: DoubleWell):
        self.params = params
        self.well = well
        x, y, t = sp.symbols("x y t", real=True)
        g = 1 + sp.Rational(1, 2) * sp.sin(4 * t)
        psi = g * sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2 / sp.pi
        U = [sp.diff(psi, y), -sp.diff(psi, x)]
        C = sp.Rational(3, 10) * g * sp.cos(sp.pi * x) * sp.cos(sp.pi * y)

        lap = lambda f: sp.diff(f, x, 2) + sp.diff(f, y, 2)
        grad = lambda f: [sp.diff(f, x), sp.diff(f, y)]

        gC = grad(C)
        # concentration source, minus the F'(C)/eps part added numerically
        s_c = sp.diff(C, t) + U[0] * gC[0] + U[1] * gC[1] - params.eps * lap(C)
        # momentum source: d_t U + (U.grad)U - div S(grad U) + eps lap(C) grad C
        # with S = (nu/2)(grad U + grad U^T), i.e. (nu/2) lap U for div-free U
        s_u = []
        for a in range(2):
            gUa = grad(U[a])
            expr = (
                sp.diff(U[a], t)
                + U[0] * gUa[0]
                + U[1] * gUa[1]
                - (params.nu / 2) * lap(U[a])
                + params.eps * lap(C) * gC[a]
            )
            s_u.append(expr)

        # cse keeps the unsimplified expressions cheap to evaluate;
        # sp.simplify would cost about 15 s per construction
        def to_numpy(expr):
            return sp.lambdify((x, y, t), expr, "numpy", cse=True)

        self._U = [to_numpy(u) for u in U]
        self._C = to_numpy(C)
        self._s_c = to_numpy(s_c)
        self._s_u = [to_numpy(s) for s in s_u]

    # -- sampling -----------------------------------------------------------

    def _face_mesh(self, grid: Grid, a: int):
        coords = [
            grid.face_coords(b) if b == a else grid.cell_centers(b)
            for b in range(grid.dim)
        ]
        return np.meshgrid(*coords, indexing="ij")

    def _cell_mesh(self, grid: Grid):
        return np.meshgrid(*[grid.cell_centers(b) for b in range(grid.dim)], indexing="ij")

    def state_at(self, grid: Grid, t: float) -> State:
        comps = []
        for a in range(grid.dim):
            X, Y = self._face_mesh(grid, a)
            comps.append(np.asarray(self._U[a](X, Y, t), dtype=float))
        u = FaceVectorField(grid, comps, DIRICHLET_ZERO)
        Xc, Yc = self._cell_mesh(grid)
        c = ScalarField(grid, np.asarray(self._C(Xc, Yc, t), dtype=float), NEUMANN_ZERO)
        state = make_state(grid, u=u)
        state.c = c
        state.t = t
        return state

    def sources_at(self, grid: Grid, t: float) -> tuple[ScalarField, FaceVectorField]:
        Xc, Yc = self._cell_mesh(grid)
        c_exact = np.asarray(self._C(Xc, Yc, t), dtype=float)
        sc = np.asarray(self._s_c(Xc, Yc, t), dtype=float)
        sc = sc + self.well.eval_Fprime(c_exact) / self.params.eps
        comps = []
        for a in range(grid.dim):
            X, Y = self._face_mesh(grid, a)
            comps.append(np.asarray(self._s_u[a](X, Y, t), dtype=float))
        return ScalarField(grid, sc, "none"), FaceVectorField(grid, comps, "none")

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
