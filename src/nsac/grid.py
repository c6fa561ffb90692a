"""Rectangular staggered (MAC) grid with cell-centered scalars and
face-centered velocity components.

Scalars (concentration, pressure) live at cell centers, shape ``n``.
Velocity component ``a`` lives on the faces normal to axis ``a``, so its
array has ``n[a]+1`` entries along axis ``a`` and ``n[b]`` along the others.

The boundary conditions belong to the operators, not to the fields:

* scalar ghosts reflect (ghost = adjacent interior value), so ``gradient``
  is zero on the wall faces and the normal derivative vanishes there;
* velocity wall faces are zero: every operator that returns a face field
  builds it with zero wall faces, and ``enforce_dirichlet`` pins a field
  sampled from a formula. Tangential ghosts are antisymmetric
  (ghost = -interior), placing the wall value at zero.

With these ghosts the discrete gradient and (minus) divergence are exact
adjoints under midpoint quadrature, and divergence(gradient(q)) equals the
2*dim+1 point Laplacian entrywise. Every energy/entropy identity computed
downstream leans on those two facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Axis-aligned box discretized into a uniform rectangular cell grid."""

    dim: int
    n: tuple[int, ...]
    length: tuple[float, ...]
    h: tuple[float, ...]

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def face_shape(self, axis: int) -> tuple[int, ...]:
        shape = list(self.n)
        shape[axis] += 1
        return tuple(shape)

    def cell_centers(self, axis: int) -> np.ndarray:
        """Coordinates of cell centers along one axis."""
        h = self.h[axis]
        return (np.arange(self.n[axis]) + 0.5) * h

    def face_coords(self, axis: int) -> np.ndarray:
        """Coordinates of the faces normal to ``axis`` along that axis."""
        return np.arange(self.n[axis] + 1) * self.h[axis]


def make_grid(dim: int, n, length) -> Grid:
    """Build a grid, validating counts and extents."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    n = tuple(int(v) for v in n)
    length = tuple(float(v) for v in length)
    if len(n) != dim or len(length) != dim:
        raise ValueError(
            f"n and length must each have {dim} entries, got {len(n)} and {len(length)}"
        )
    for v in n:
        if v < 4:
            raise ValueError(f"cell counts must be >= 4, got {n}")
    for v in length:
        if not (v > 0):
            raise ValueError(f"extents must be positive, got {length}")
    h = tuple(length[i] / n[i] for i in range(dim))
    return Grid(dim=dim, n=n, length=length, h=h)


@dataclass
class ScalarField:
    """Cell-centered scalar field."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.n:
            raise ValueError(
                f"scalar values shape {self.values.shape} != grid cells {self.grid.n}"
            )

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class FaceVectorField:
    """Velocity-like field with one face-centered array per axis."""

    grid: Grid
    components: list[np.ndarray]

    def __post_init__(self):
        if len(self.components) != self.grid.dim:
            raise ValueError(
                f"need {self.grid.dim} components, got {len(self.components)}"
            )
        self.components = [np.asarray(c, dtype=float) for c in self.components]
        for a, comp in enumerate(self.components):
            want = self.grid.face_shape(a)
            if comp.shape != want:
                raise ValueError(
                    f"component {a} has shape {comp.shape}, expected {want}"
                )

    def copy(self) -> "FaceVectorField":
        return FaceVectorField(self.grid, [c.copy() for c in self.components])


def _axslice(dim: int, axis: int, s) -> tuple:
    sl = [slice(None)] * dim
    sl[axis] = s
    return tuple(sl)


class Sides(NamedTuple):
    """Index tuples along one axis: ``lo`` drops the last entry, ``hi`` the
    first, ``inner`` both; ``first`` and ``last`` pick the end planes."""

    lo: tuple
    hi: tuple
    inner: tuple
    first: tuple
    last: tuple


# (dim, axis) -> Sides
SIDES = {
    (dim, a): Sides(*(_axslice(dim, a, s) for s in (slice(None, -1), slice(1, None), slice(1, -1), 0, -1)))
    for dim in (2, 3)
    for a in range(dim)
}


def _walled(grid: Grid, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """A new face array for component ``axis`` with zero wall faces, and its
    interior view, which is left for the caller to fill."""
    sides = SIDES[grid.dim, axis]
    out = np.empty(grid.face_shape(axis))
    out[sides.first] = 0.0
    out[sides.last] = 0.0
    return out, out[sides.inner]


def enforce_dirichlet(v: FaceVectorField) -> FaceVectorField:
    """Zero the wall faces of ``v`` in place and return ``v``.

    The one place that pins: operators build their face fields walled, so
    only a velocity sampled from a formula or random data needs this.
    """
    for a, comp in enumerate(v.components):
        sides = SIDES[v.grid.dim, a]
        comp[sides.first] = 0.0
        comp[sides.last] = 0.0
    return v


def gradient(c: ScalarField) -> FaceVectorField:
    """Face-centered gradient of a Neumann scalar; zero on boundary faces."""
    grid = c.grid
    out = []
    for a in range(grid.dim):
        sides = SIDES[grid.dim, a]
        g, inner = _walled(grid, a)
        np.subtract(c.values[sides.hi], c.values[sides.lo], out=inner)
        inner /= grid.h[a]
        out.append(g)
    return FaceVectorField(grid, out)


def divergence(v: FaceVectorField) -> ScalarField:
    """Cell-centered divergence of a face field."""
    grid = v.grid
    div = np.empty(grid.n)
    buf = np.empty(grid.n)
    for a, comp in enumerate(v.components):
        sides = SIDES[grid.dim, a]
        diff = div if a == 0 else buf
        np.subtract(comp[sides.hi], comp[sides.lo], out=diff)
        diff /= grid.h[a]
        if a > 0:
            div += diff
    return ScalarField(grid, div)


def laplacian(c: ScalarField) -> ScalarField:
    """Neumann Laplacian; equals divergence(gradient(c)) entrywise.

    The reference stencil: the program forms the Laplacian as
    divergence(gradient(c)), and tests compare the two."""
    grid = c.grid
    out = np.zeros(grid.n)
    vals = c.values
    for a in range(grid.dim):
        h2 = grid.h[a] ** 2
        mid = _axslice(grid.dim, a, slice(1, -1))
        lo = _axslice(grid.dim, a, slice(None, -2))
        hi = _axslice(grid.dim, a, slice(2, None))
        first = _axslice(grid.dim, a, slice(0, 1))
        second = _axslice(grid.dim, a, slice(1, 2))
        last = _axslice(grid.dim, a, slice(-1, None))
        penult = _axslice(grid.dim, a, slice(-2, -1))
        out[mid] += (vals[hi] - 2.0 * vals[mid] + vals[lo]) / h2
        # reflected ghosts: one-sided second difference at the walls
        out[first] += (vals[second] - vals[first]) / h2
        out[last] += (vals[penult] - vals[last]) / h2
    return ScalarField(grid, out)


def integrate(f: ScalarField) -> float:
    """Midpoint-rule integral over the box."""
    return float(f.values.sum() * f.grid.cell_volume)


def face_inner(v: FaceVectorField, w: FaceVectorField) -> float:
    """Inner product of two face fields with cell-volume face weights.

    Pairs with ``integrate`` so that for Neumann q and Dirichlet v:
    integrate(q * divergence(v)) + face_inner(v, gradient(q)) == 0.
    """
    vol = v.grid.cell_volume
    total = 0.0
    for a in range(v.grid.dim):
        total += float(np.sum(v.components[a] * w.components[a]))
    return total * vol


def avg_to_cells(v: FaceVectorField) -> list[np.ndarray]:
    """Arithmetic average of each face component to cell centers."""
    grid = v.grid
    out = []
    for a in range(grid.dim):
        sides = SIDES[grid.dim, a]
        out.append(0.5 * (v.components[a][sides.lo] + v.components[a][sides.hi]))
    return out


def cell_speed_squared(v: FaceVectorField) -> np.ndarray:
    """|v|^2 at cell centers: per-axis average of squared face values."""
    grid = v.grid
    out = np.zeros(grid.n)
    for a in range(grid.dim):
        sides = SIDES[grid.dim, a]
        sq = v.components[a] ** 2
        out += 0.5 * (sq[sides.lo] + sq[sides.hi])
    return out
