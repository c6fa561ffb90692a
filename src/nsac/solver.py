"""Time integration of the coupled Navier-Stokes/Allen-Cahn system.

One step = stabilized semi-implicit Allen-Cahn update with the current
velocity, then a momentum step with the fresh concentration: explicit
skew-symmetric advection, implicit viscosity, capillary forcing, and a
pressure projection that restores discrete incompressibility.

The capillary force uses the "lap(c) grad(c)" form; the gradient part of the
stress tensor identity is absorbed into the pressure, so the stored p is the
modified pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import (
    FaceVectorField,
    Grid,
    ScalarField,
    _axslice,
    cell_field,
    divergence,
    face_field,
    gradient,
    padded_cells,
)
from .potential import DoubleWell

CFL_LIMIT = 0.9


class NumericalError(RuntimeError):
    """The state stopped being finite, a step was rejected as unstable, or
    the concentration left its maximum-principle bounds."""


class CFLError(NumericalError):
    """Advective CFL guard tripped; the step was rejected."""

    def __init__(self, cfl: float):
        super().__init__(f"advective CFL {cfl:.3f} exceeds limit {CFL_LIMIT}")
        self.cfl = cfl


@dataclass(frozen=True)
class FluidParams:
    """Viscosity and interface width."""

    nu: float
    eps: float

    def __post_init__(self):
        if not (self.nu > 0):
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not (self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps}")


@dataclass
class State:
    """Discrete (u, c, p) at one instant.

    A stepped state's ``carry`` is ``(c.values, gradient(c), divergence(gradient(c)).values)``,
    all read-only, for the next step and the energy to reuse.
    """

    t: float
    u: FaceVectorField
    c: ScalarField
    p: ScalarField
    carry: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def grid(self) -> Grid:
        return self.c.grid

    def carried(self) -> tuple[FaceVectorField, np.ndarray] | None:
        """The carried gradient and Laplacian of c; None once c or c.values is rebound."""
        if self.carry is None or self.carry[0] is not self.c.values:
            return None
        return self.carry[1], self.carry[2]

    def copy(self) -> "State":
        return State(self.t, self.u.copy(), self.c.copy(), self.p.copy())


@dataclass
class StepReport:
    """Per-step bookkeeping; carries the discrete material derivative."""

    dt: float
    material_derivative: ScalarField
    cfl: float


def make_state(grid: Grid, t: float = 0.0, u=None, c=None, p=None) -> State:
    if u is None:
        u = face_field(grid, np.zeros(grid.block_shape))
    if c is None:
        c = cell_field(grid, np.zeros(grid.padded_shape))
    if p is None:
        p = cell_field(grid, np.zeros(grid.padded_shape))
    return State(t=t, u=u, c=c, p=p)


def advect_scalar(u: FaceVectorField, grad_c: FaceVectorField) -> ScalarField:
    """Centered u . grad(c) at cell centers, from the face gradient of c.

    Face-gradient values are multiplied by face velocities and averaged back
    to cells; boundary faces contribute nothing (both factors vanish there).
    """
    grid = grad_c.grid
    m = grid.size - grid.offsets[0]
    out = np.empty(grid.padded_shape)
    flat = out.ravel()
    buf = np.empty(m)
    for a, (ua, ga) in enumerate(zip(u.padded(), grad_c.padded())):
        s = grid.offsets[a]
        prod = np.multiply(ua, ga).ravel()
        np.add(prod[:m], prod[s:s + m], out=flat[:m] if a == 0 else buf)
        if a > 0:
            flat[:m] += buf
    flat[m:] = 0.0
    out *= 0.5
    return cell_field(grid, out)


# boundary kind -> (cos or sin, grid points in half cells, wavenumbers) for an
# axis of n cells. Row k of the orthonormal basis samples s_k fn(pi k x / L)
# at the points x: DCT-II at the cell centres for reflected ghosts, DST-I at
# the n-1 interior faces between pinned end values, DST-II at the cell
# centres for antisymmetric half-cell ghosts. The second difference is
# diagonal in each, with the 1-D eigenvalues (2 cos(pi k / n) - 2) / h^2.
_BASES = {
    "neumann": (np.cos, lambda n: np.arange(1, 2 * n, 2), lambda n: np.arange(0, n)),
    "wall": (np.sin, lambda n: np.arange(2, 2 * n, 2), lambda n: np.arange(1, n)),
    "ghost": (np.sin, lambda n: np.arange(1, 2 * n, 2), lambda n: np.arange(1, n + 1)),
}


# three kinds per axis length; lockstep studies keep every level's bases live.
@lru_cache(maxsize=64)
def _basis(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal ``kind`` basis Q for an axis of n cells, and Q^T.

    Both are C-contiguous and read-only. Applied as dense matrices, one BLAS
    matmul per axis, they beat an FFT up to about 128 cells per axis.
    """
    fn, points, wavenumbers = _BASES[kind]
    k = wavenumbers(n)
    # the integer phase, reduced mod 4n, keeps the argument within [0, 2 pi)
    q = fn(np.pi * (np.outer(k, points(n)) % (4 * n)) / (2 * n))
    # the DCT-II mode k = 0 and the DST-II mode k = n have constant magnitude
    q *= np.where(k % n == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))[:, None]
    qt = np.ascontiguousarray(q.T)
    q.flags.writeable = False
    qt.flags.writeable = False
    return q, qt


def _inverse_symbol(grid: Grid, kinds: tuple[str, ...], shift: float, coef: float) -> np.ndarray:
    """Reciprocal eigenvalues of (shift - coef lap) in the ``kinds`` basis.

    A zero eigenvalue (the constant mode of the pure Neumann laplacian at
    shift 0) gets reciprocal 0, so that mode is pinned to zero.
    """
    lam = np.full((1,) * grid.dim, float(shift))
    for a, kind in enumerate(kinds):
        k = _BASES[kind][2](grid.n[a])
        shape = [1] * grid.dim
        shape[a] = -1
        eig = (2.0 * np.cos(np.pi * k / grid.n[a]) - 2.0) / grid.h[a] ** 2
        lam = lam - coef * eig.reshape(shape)
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam != 0.0)
    inv.flags.writeable = False
    return inv


def _along_axes(x: np.ndarray, mats: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Apply ``m`` along axis ``a`` of x for each ``(m, m^T) = mats[a]``.

    The last axis is a right product with m^T; every other axis a left
    product on the view that folds the axes after it, so no axis is moved
    (for the last axis but one that view is x itself).
    """
    last = x.ndim - 1
    for a, (m, mt) in enumerate(mats):
        if a == last:
            x = x @ mt
        elif a == last - 1:
            x = m @ x
        else:
            shape = x.shape
            x = (m @ x.reshape(shape[: a + 1] + (-1,))).reshape(shape)
    return x


# dim + 2 plans per grid (Allen-Cahn, one viscous solve per component,
# pressure); lockstep studies keep every level's plans live at once.
@lru_cache(maxsize=64)
def _plan(grid: Grid, kinds: tuple[str, ...], shift: float, coef: float) -> tuple:
    """Forward bases, inverse bases and inverse symbol of one solve."""
    bases = [_basis(kind, n) for kind, n in zip(kinds, grid.n)]
    return bases, [(qt, q) for q, qt in bases], _inverse_symbol(grid, kinds, shift, coef)


def _spectral_solve(grid: Grid, rhs: np.ndarray, kinds: tuple[str, ...], shift: float, coef: float) -> np.ndarray:
    """Exact solve of (shift - coef lap) x = rhs, one basis change per axis.

    ``kinds[a]`` names the boundary treatment of axis ``a`` (see ``_BASES``);
    a ``"wall"`` axis carries only the interior faces.
    """
    forward, inverse, inv_symbol = _plan(grid, kinds, shift, coef)
    hat = _along_axes(rhs, forward)
    hat *= inv_symbol
    return _along_axes(hat, inverse)


def solve_neumann_poisson(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Direct solve of lap(p) = rhs with homogeneous Neumann walls.

    The rhs must have zero mean (solvability); the constant mode of p is
    pinned, so the returned p has zero mean up to roundoff.
    """
    return _spectral_solve(grid, rhs, ("neumann",) * grid.dim, 0.0, -1.0)


def capillary_force(grad_c: FaceVectorField, lap_c: np.ndarray, eps: float) -> FaceVectorField:
    """Face-centered -eps * lap(c) * grad(c), from gradient(c) and lap(c) at the cells.

    Equivalent to -eps div(grad c x grad c) with the grad(|grad c|^2 / 2)
    part absorbed into the pressure.
    """
    grid = grad_c.grid
    flat_lap = padded_cells(grid, lap_c).ravel()
    out = np.empty(grid.block_shape)
    for a, (force, ga) in enumerate(zip(out, grad_c.padded())):
        s = grid.offsets[a]
        # lap c averaged to the faces k >= s_a, then the wall planes zeroed
        inner = force.ravel()[s:]
        np.add(flat_lap[:-s], flat_lap[s:], out=inner)
        inner *= -0.5 * eps
        inner *= ga.ravel()[s:]
        force[grid.walls[a]] = 0.0
    return face_field(grid, out)


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


def advection_term(u: FaceVectorField) -> FaceVectorField:
    """Skew-symmetric (divergence/advective average) centered advection.

    Returns A(u) approximating div(u x u) at the velocity faces; boundary
    faces are zero (velocity is pinned there). At an interior face f of
    component a the average of the two forms collapses to
    A_a(f) = sum_b [V_b(f + e_b/2) u_a(f + e_b) - V_b(f - e_b/2) u_a(f - e_b)] / (2 h_b),
    with V_b = u_b averaged along a to the midpoint. On a wall edge V_b is
    the pinned normal velocity 0, so the wall ghosts of u_a drop out.
    """
    grid = u.grid
    size = grid.size
    flat_u = [buf.ravel() for buf in u.padded()]
    out = np.empty(grid.block_shape)
    # V and each product V u go through two scratch arrays
    v_buf, w_buf = np.empty(size), np.empty(size)
    for a, (ua, acc) in enumerate(zip(flat_u, out)):
        sa = grid.offsets[a]
        # b = a: V(k) sits at the cell between faces k and k + s_a, so these
        # terms reach every face and start the sum
        flat = acc.ravel()
        v, w = v_buf[:size - sa], w_buf[:size - sa]
        np.add(ua[:-sa], ua[sa:], out=v)
        v *= 0.25 / grid.h[a]
        np.multiply(v, ua[sa:], out=flat[:-sa])
        flat[-sa:] = 0.0
        flat[sa:] -= np.multiply(v, ua[:-sa], out=w)
        for b, ub in enumerate(flat_u):
            if b == a:
                continue
            sb = grid.offsets[b]
            # V(k) = u_b averaged along a to the a/b edge between faces k and
            # k + s_b, for k in [s_a, size - s_b). On a wall edge V is the
            # pinned wall value 0, so the term it adds to a face next to the
            # wall is a signed zero, whatever finite pad it multiplies.
            v, w = v_buf[:size - sa - sb], w_buf[:size - sa - sb]
            np.add(ub[sb:size - sa], ub[sa + sb:], out=v)
            v *= 0.25 / grid.h[b]
            flat[sa:size - sb] += np.multiply(v, ua[sa + sb:], out=w)
            flat[sa + sb:] -= np.multiply(v, ua[sa:size - sb], out=w)
        acc[grid.walls[a]] = 0.0
    return face_field(grid, out)


def advective_cfl(u: FaceVectorField, dt: float) -> float:
    total = 0.0
    for a in range(u.grid.dim):
        total += float(np.max(np.abs(u.components[a]))) / u.grid.h[a]
    return dt * total


def allen_cahn_step(
    state: State,
    well: DoubleWell,
    params: FluidParams,
    dt: float,
    source: ScalarField | None = None,
) -> tuple[ScalarField, ScalarField]:
    """One stabilized semi-implicit Allen-Cahn update.

    Solves (1/dt + sigma - eps lap) c_new = c/dt - u.grad c - F'(c)/eps
    + sigma c with sigma = L / (2 eps), then reports the material derivative
    delta/dt + u.grad c. ``source`` adds an explicit forcing term
    (manufactured-solution runs). The solve is for the increment delta =
    c_new - c, whose roundoff scales with the change rather than with c/dt.
    grad c and lap c = div(grad c) come from the state's carry if it has
    one, which is then released.
    """
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    c = state.c
    eps = params.eps
    sigma = well.lipschitz_constant() / (2.0 * eps)
    carried = state.carried()
    if carried is None:
        grad_c = gradient(c)
        lap_c = divergence(grad_c).values
    else:
        grad_c, lap_c = carried
    state.carry = None
    # whole padded buffers throughout; the solve reads the cell view
    adv = advect_scalar(state.u, grad_c).padded()
    c_buf = c.padded()
    rhs = eps * padded_cells(grid, lap_c)
    rhs -= adv
    rhs -= well.eval_Fprime(c_buf) / eps
    if source is not None:
        rhs += source.padded()
    delta = np.zeros(grid.padded_shape)
    cells = grid.cell_view
    delta[cells] = _spectral_solve(grid, rhs[cells], ("neumann",) * grid.dim, 1.0 / dt + sigma, eps)
    c_new = cell_field(grid, c_buf + delta)
    # delta becomes the material derivative in place
    delta /= dt
    delta += adv
    return c_new, cell_field(grid, delta)


def momentum_step(
    state: State,
    c_new: ScalarField,
    params: FluidParams,
    dt: float,
    source: FaceVectorField | None = None,
) -> tuple[State, float]:
    """Advection + implicit viscosity + capillary force, then projection.

    Returns the new state (with t unchanged; ``step`` advances it) and the
    realized advective CFL. The new state carries grad ``c_new`` and its
    divergence lap ``c_new``; ``c_new.values`` becomes read-only so that the
    carry cannot go stale. The viscous right-hand sides are formed over the
    whole block of face buffers and solved on the interior faces, and the
    projection updates u* in place.
    """
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    dim = grid.dim
    cfl = advective_cfl(state.u, dt)
    if not (cfl <= CFL_LIMIT):
        raise CFLError(cfl)

    adv = advection_term(state.u)
    grad_c = gradient(c_new)
    lap_c = divergence(grad_c).values
    for arr in (c_new.values, *grad_c.components, lap_c):
        arr.flags.writeable = False
    force = capillary_force(grad_c, lap_c, params.eps)

    # every component at once, then one solve per component into the
    # interior faces of u*, whose walls and pads stay zero
    rhs = state.u.padded() / dt
    rhs -= adv.padded()
    rhs += force.padded()
    if source is not None:
        rhs += source.padded()
    star = np.zeros(grid.block_shape)
    for a in range(dim):
        kinds = tuple("wall" if b == a else "ghost" for b in range(dim))
        inner = grid.inner_face_views[a]
        star[inner] = _spectral_solve(grid, rhs[inner], kinds, 1.0 / dt, 0.5 * params.nu)
    u_star = face_field(grid, star)

    # pressure projection: lap(p) = div(u*)/dt with Neumann, zero mean; rhs_p
    # is a contiguous array, so its sum does not depend on the storage
    rhs_p = divergence(u_star).values / dt
    rhs_p -= rhs_p.sum() / rhs_p.size
    p = np.zeros(grid.padded_shape)
    p[grid.cell_view] = solve_neumann_poisson(grid, rhs_p)
    flat_p = p.ravel()
    # u* becomes u_new: u*[k] -= dt (p[k] - p[k - s_a]) / h_a, then the walls
    # that pass ran over are zeroed again
    for a, comp in enumerate(star):
        s = grid.offsets[a]
        gp = flat_p[s:] - flat_p[:-s]
        gp *= dt / grid.h[a]
        comp.ravel()[s:] -= gp
        comp[grid.walls[a]] = 0.0
    new_state = State(t=state.t, u=u_star, c=c_new, p=cell_field(grid, p), carry=(c_new.values, grad_c, lap_c))
    return new_state, cfl


def step(
    state: State,
    well: DoubleWell,
    params: FluidParams,
    dt: float,
    source_c: ScalarField | None = None,
    source_u: FaceVectorField | None = None,
) -> tuple[State, StepReport]:
    """Advance the coupled system by one time step.

    Raises NumericalError if the new c or any velocity component is not
    finite.
    """
    c_new, material = allen_cahn_step(state, well, params, dt, source=source_c)
    new_state, cfl = momentum_step(state, c_new, params, dt, source=source_u)
    new_state.t = state.t + dt
    fields = [("c", new_state.c.values)]
    fields += [(f"u[{a}]", comp) for a, comp in enumerate(new_state.u.components)]
    for name, values in fields:
        if not np.isfinite(values).all():
            index = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
            raise NumericalError(f"non-finite {name} at t={new_state.t:.6g}, index {index}")
    report = StepReport(dt=dt, material_derivative=material, cfl=cfl)
    return new_state, report
