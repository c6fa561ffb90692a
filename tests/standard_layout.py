"""The step's stencils in the standard layout, as the bitwise reference.

Every array here has its logical shape (cells ``n``, face component ``a``
with ``n[a] + 1`` along ``a``), and each stencil slices it per axis. This is
the arithmetic the padded layout of ``nsac.grid`` must reproduce bit for
bit: same operations, same order, for each entry.
"""

from typing import NamedTuple

import numpy as np

from nsac.grid import FaceVectorField, ScalarField, _axslice
from nsac.solver import CFLError, CFL_LIMIT, _spectral_solve, advective_cfl, solve_neumann_poisson


class Sides(NamedTuple):
    lo: tuple
    hi: tuple
    inner: tuple
    first: tuple
    last: tuple


def sides(dim, a):
    return Sides(*(_axslice(dim, a, s) for s in (slice(None, -1), slice(1, None), slice(1, -1), 0, -1)))


def _walled(grid, a):
    side = sides(grid.dim, a)
    out = np.empty(grid.face_shape(a))
    out[side.first] = 0.0
    out[side.last] = 0.0
    return out, out[side.inner]


def gradient(c):
    grid = c.grid
    out = []
    for a in range(grid.dim):
        side = sides(grid.dim, a)
        g, inner = _walled(grid, a)
        np.subtract(c.values[side.hi], c.values[side.lo], out=inner)
        inner /= grid.h[a]
        out.append(g)
    return FaceVectorField(grid, out)


def divergence(v):
    grid = v.grid
    div = np.empty(grid.n)
    buf = np.empty(grid.n)
    for a, comp in enumerate(v.components):
        side = sides(grid.dim, a)
        diff = div if a == 0 else buf
        np.subtract(comp[side.hi], comp[side.lo], out=diff)
        diff /= grid.h[a]
        if a > 0:
            div += diff
    return ScalarField(grid, div)


def advect_scalar(u, grad_c):
    grid = grad_c.grid
    out = np.empty(grid.n)
    buf = np.empty(grid.n)
    for a in range(grid.dim):
        side = sides(grid.dim, a)
        prod = u.components[a] * grad_c.components[a]
        np.add(prod[side.lo], prod[side.hi], out=out if a == 0 else buf)
        if a > 0:
            out += buf
    out *= 0.5
    return ScalarField(grid, out)


def capillary_force(grad_c, lap_c, eps):
    grid = grad_c.grid
    comps = []
    for a in range(grid.dim):
        side = sides(grid.dim, a)
        force, inner = _walled(grid, a)
        np.add(lap_c[side.lo], lap_c[side.hi], out=inner)
        inner *= -0.5 * eps
        inner *= grad_c.components[a][side.inner]
        comps.append(force)
    return FaceVectorField(grid, comps)


def advection_term(u):
    grid = u.grid
    dim = grid.dim
    comps = []
    for a in range(dim):
        ua = u.components[a]
        side_a = sides(dim, a)
        acc = np.empty_like(ua)
        v = (ua[side_a.lo] + ua[side_a.hi]) * (0.25 / grid.h[a])
        np.multiply(v, ua[side_a.hi], out=acc[side_a.lo])
        acc[side_a.last] = 0.0
        acc[side_a.hi] -= v * ua[side_a.lo]
        acc_inner, ua_inner = acc[side_a.inner], ua[side_a.inner]
        for b in range(dim):
            if b == a:
                continue
            ub = u.components[b]
            side_b = sides(dim, b)
            ub_lo, ub_hi = ub[side_a.lo], ub[side_a.hi]
            v = (ub_lo[side_b.inner] + ub_hi[side_b.inner]) * (0.25 / grid.h[b])
            acc_inner[side_b.lo] += v * ua_inner[side_b.hi]
            acc_inner[side_b.hi] -= v * ua_inner[side_b.lo]
        acc[side_a.first] = 0.0
        acc[side_a.last] = 0.0
        comps.append(acc)
    return FaceVectorField(grid, comps)


class Step(NamedTuple):
    u: FaceVectorField
    c: ScalarField
    p: ScalarField
    material: np.ndarray
    cfl: float
    grad_c: FaceVectorField
    lap_c: np.ndarray


def step(u, c, well, params, dt, source_c=None, source_u=None, carried=None):
    """One step of ``nsac.solver.step`` on standard-layout arrays.

    ``carried`` is the previous step's ``(grad_c, lap_c)``; the result
    carries the new ones.
    """
    grid, dim, eps = c.grid, c.grid.dim, params.eps
    sigma = well.lipschitz_constant() / (2.0 * eps)
    if carried is None:
        grad_c = gradient(c)
        lap_c = divergence(grad_c).values
    else:
        grad_c, lap_c = carried
    adv = advect_scalar(u, grad_c).values
    rhs = eps * lap_c
    rhs -= adv
    rhs -= well.eval_Fprime(c.values) / eps
    if source_c is not None:
        rhs += source_c.values
    delta = _spectral_solve(grid, rhs, ("neumann",) * dim, 1.0 / dt + sigma, eps)
    c_new = ScalarField(grid, c.values + delta)
    delta /= dt
    delta += adv

    cfl = advective_cfl(u, dt)
    if not (cfl <= CFL_LIMIT):
        raise CFLError(cfl)
    adv_u = advection_term(u)
    grad_new = gradient(c_new)
    lap_new = divergence(grad_new).values
    force = capillary_force(grad_new, lap_new, eps)
    star = []
    for a in range(dim):
        inner = sides(dim, a).inner
        rhs = u.components[a][inner] / dt
        rhs -= adv_u.components[a][inner]
        rhs += force.components[a][inner]
        if source_u is not None:
            rhs += source_u.components[a][inner]
        kinds = tuple("wall" if b == a else "ghost" for b in range(dim))
        sol, sol_inner = _walled(grid, a)
        sol_inner[...] = _spectral_solve(grid, rhs, kinds, 1.0 / dt, 0.5 * params.nu)
        star.append(sol)
    u_star = FaceVectorField(grid, star)
    rhs_p = divergence(u_star).values
    rhs_p /= dt
    rhs_p -= rhs_p.sum() / rhs_p.size
    p = solve_neumann_poisson(grid, rhs_p)
    for a, comp in enumerate(u_star.components):
        side = sides(dim, a)
        gp = p[side.hi] - p[side.lo]
        gp *= dt / grid.h[a]
        comp[side.inner] -= gp
    return Step(u_star, c_new, ScalarField(grid, p), delta, cfl, grad_new, lap_new)
