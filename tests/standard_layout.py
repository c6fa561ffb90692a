"""The step's stencils and the weak/strong pair row in the standard layout,
as the bitwise reference.

Every array here has its logical shape (cells ``n``, face component ``a``
with ``n[a] + 1`` along ``a``), and each stencil slices it per axis. This is
the arithmetic the padded layout of ``nsac.grid`` must reproduce bit for
bit: same operations, same order, for each entry. The module also holds
oracles that only the tests use: the midpoint integral ``integrate`` and
the viscous operator ``_component_laplacian``, and ``copy_state``.
"""

from typing import NamedTuple

import numpy as np

from nsac.diagnostics import PairRow, _edge_weights
from nsac.grid import FaceVectorField, Grid, ScalarField, _axslice
from nsac.solver import (
    CFL_LIMIT,
    CFLError,
    _spectral_solve,
    advective_cfl,
    make_state,
    solve_neumann_poisson,
)


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
    sigma = well.L / (2.0 * eps)
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
    # a new, contiguous array, so its sum does not depend on the storage
    rhs_p = divergence(u_star).values / dt
    rhs_p -= rhs_p.sum() / rhs_p.size
    p = solve_neumann_poisson(grid, rhs_p)
    for a, comp in enumerate(u_star.components):
        side = sides(dim, a)
        gp = p[side.hi] - p[side.lo]
        gp *= dt / grid.h[a]
        comp[side.inner] -= gp
    return Step(u_star, c_new, ScalarField(grid, p), delta, cfl, grad_new, lap_new)


# ---------------------------------------------------------------------------
# the weak/strong pair row, per-axis slices on arrays of logical shape


def avg_to_cells(v):
    out = []
    for a, comp in enumerate(v.components):
        side = sides(v.grid.dim, a)
        out.append(0.5 * (comp[side.lo] + comp[side.hi]))
    return out


def cell_speed_squared(v):
    out = np.zeros(v.grid.n)
    for a, comp in enumerate(v.components):
        side = sides(v.grid.dim, a)
        sq = comp**2
        out += 0.5 * (sq[side.lo] + sq[side.hi])
    return out


def face_inner(v, w):
    total = 0.0
    for vc, wc in zip(v.components, w.components):
        total += float(np.sum(vc * wc))
    return total * v.grid.cell_volume


def entropy(w, gd, eps):
    kinetic = 0.5 * float(np.sum(cell_speed_squared(w))) * w.grid.cell_volume
    return kinetic + 0.5 * eps * face_inner(gd, gd)


def _dcomp_dnode(comp, grid, node_axis):
    side = sides(grid.dim, node_axis)
    h = grid.h[node_axis]
    shape = list(comp.shape)
    shape[node_axis] += 1
    out = np.empty(shape)
    out[side.inner] = np.diff(comp, axis=node_axis) / h
    out[side.first] = 2.0 * comp[side.first] / h
    out[side.last] = -2.0 * comp[side.last] / h
    return out


def velocity_gradient(u):
    """Entry (a, b) at the cells for a == b, on the a/b edge grid otherwise."""
    grid = u.grid
    out = {}
    for a, comp in enumerate(u.components):
        for b in range(grid.dim):
            if a == b:
                out[(a, b)] = np.diff(comp, axis=a) / grid.h[a]
            else:
                out[(a, b)] = _dcomp_dnode(comp, grid, b)
    return out


def viscous_form(grid, grads, nu):
    vol = grid.cell_volume
    total = 0.0
    for a in range(grid.dim):
        total += nu * float(np.sum(grads[(a, a)] ** 2)) * vol
    for a in range(grid.dim):
        for b in range(a + 1, grid.dim):
            w = _edge_weights(grid, (a, b))
            sym = grads[(a, b)] + grads[(b, a)]
            total += 0.5 * nu * float(np.sum(w * sym**2)) * vol
    return total


def _cell_velocity_gradient(grid, grads):
    out = {}
    for (a, b), arr in grads.items():
        if a == b:
            out[(a, b)] = arr
        else:
            side_a, side_b = sides(grid.dim, a), sides(grid.dim, b)
            tmp = 0.5 * (arr[side_a.lo] + arr[side_a.hi])
            out[(a, b)] = 0.5 * (tmp[side_b.lo] + tmp[side_b.hi])
    return out


def pair_row(weak, strong, weak_material, strong_material, well, params):
    """``nsac.diagnostics.pair_row`` on standard-layout arrays: each term a
    loop over the axis pairs, from zero starts that make a -0.0 term +0.0."""
    eps = params.eps
    grid = weak.grid
    vol = grid.cell_volume
    wdiff = FaceVectorField(grid, [wc - sc for wc, sc in zip(weak.u.components, strong.u.components)])
    gd_face = gradient(ScalarField(grid, weak.c.values - strong.c.values))
    mdiff = weak_material.values - strong_material.values

    grads = velocity_gradient(wdiff)
    visc = viscous_form(grid, grads, params.nu)
    ac = float(np.sum(mdiff**2)) * vol

    gw = _cell_velocity_gradient(grid, grads)
    w_cell = avg_to_cells(wdiff)
    U_cell = avg_to_cells(strong.u)
    gd = avg_to_cells(gd_face)
    gC = avg_to_cells(gradient(strong.c))
    lap_d = divergence(gd_face).values

    conv = np.zeros(grid.n)
    eps2 = np.zeros(grid.n)
    eps3 = np.zeros(grid.n)
    for a in range(grid.dim):
        for b in range(grid.dim):
            conv += w_cell[a] * U_cell[b] * gw[(a, b)]
            eps2 += gC[a] * gd[b] * gw[(a, b)]
            eps3 += gd[a] * gC[b] * gw[(a, b)]
    u_dot_gd = sum(U_cell[a] * gd[a] for a in range(grid.dim))
    w_dot_gC = sum(w_cell[a] * gC[a] for a in range(grid.dim))
    fp_diff = well.eval_Fprime(weak.c.values) - well.eval_Fprime(strong.c.values)
    g2 = sum(comp**2 for comp in gC)
    return PairRow(
        t=weak.t,
        E=entropy(wdiff, gd_face, eps),
        visc=visc,
        ac=ac,
        conv=float(np.sum(conv)) * vol,
        eps1=eps * float(np.sum(lap_d * u_dot_gd)) * vol,
        eps2=eps * float(np.sum(eps2)) * vol,
        eps3=eps * float(np.sum(eps3)) * vol,
        eps4=eps * float(np.sum(lap_d * w_dot_gC)) * vol,
        f=-(1.0 / eps) * float(np.sum(fp_diff * mdiff)) * vol,
        omega=1.0 + float(np.max(cell_speed_squared(strong.u))) + float(np.max(g2)),
    )


# ---------------------------------------------------------------------------
# test-only helpers: a state's copy, the midpoint integral of a cell field,
# and the Dirichlet component Laplacian that the viscous solve and the
# grad-norm identity are checked against


def copy_state(s):
    """A state with copies of ``s``'s u and c, and no carry."""
    return make_state(s.grid, s.t, s.u.copy(), s.c.copy())


def integrate(f: ScalarField) -> float:
    """Midpoint-rule integral over the box.

    Sums a contiguous copy of the cells: a sum over the strided cell view
    would depend on the storage in its last bits.
    """
    return float(np.ascontiguousarray(f.values).sum() * f.grid.cell_volume)


def _component_laplacian(comp: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Laplacian of velocity component ``axis`` with homogeneous Dirichlet.

    Along the component's own axis the boundary faces carry the (zero)
    Dirichlet value directly; along transverse axes the wall sits half a cell
    outside and ghosts are antisymmetric, giving (v[1] - 3 v[0]) / h^2 rows.
    Output is zero on the boundary faces of ``axis``.
    """
    dim = grid.dim
    out = np.zeros_like(comp)
    for b in range(dim):
        h2 = grid.h[b] ** 2
        mid = _axslice(dim, b, slice(1, -1))
        lo = _axslice(dim, b, slice(None, -2))
        hi = _axslice(dim, b, slice(2, None))
        out[mid] += (comp[hi] - 2.0 * comp[mid] + comp[lo]) / h2
        if b != axis:
            first = _axslice(dim, b, slice(0, 1))
            second = _axslice(dim, b, slice(1, 2))
            last = _axslice(dim, b, slice(-1, None))
            penult = _axslice(dim, b, slice(-2, -1))
            out[first] += (comp[second] - 3.0 * comp[first]) / h2
            out[last] += (comp[penult] - 3.0 * comp[last]) / h2
    # pin the normal boundary faces
    out[_axslice(dim, axis, 0)] = 0.0
    out[_axslice(dim, axis, -1)] = 0.0
    return out
