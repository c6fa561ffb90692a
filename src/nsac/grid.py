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

Storage: every array on a grid is the leading-corner view of a C-order
buffer of shape ``n + 1`` (one extra plane per axis; the components of a
face field share one block of such buffers), so a neighbour along
axis ``a`` is the same flat offset ``grid.offsets[a]`` for cells and every
face component alike, and each stencil is one contiguous pass over whole
buffers. Entries outside the view are pads: they hold finite values (zero,
or a stencil of finite data) and are never read as data. An array that no
padded buffer backs (initial data, a test field, a restriction) is packed
into one, by one copy, when it enters an operator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
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
        return self._face_shapes[axis]

    @cached_property
    def _face_shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(v + 1 if b == a else v for b, v in enumerate(self.n)) for a in range(self.dim)
        )

    @cached_property
    def padded_shape(self) -> tuple[int, ...]:
        """Shape of the buffer behind every array on this grid."""
        return tuple(v + 1 for v in self.n)

    @cached_property
    def size(self) -> int:
        """Entries of one padded buffer."""
        return int(np.prod(self.padded_shape))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Flat distance between neighbours along each axis of a padded buffer."""
        return tuple(int(np.prod(self.padded_shape[a + 1:])) for a in range(self.dim))

    @cached_property
    def cell_view(self) -> tuple[slice, ...]:
        """Index of the cell view in a padded buffer."""
        return _corner(self.n)

    @cached_property
    def block_shape(self) -> tuple[int, ...]:
        """Shape of the buffer behind a face field: one padded buffer per component."""
        return (self.dim,) + self.padded_shape

    @cached_property
    def face_views(self) -> tuple[tuple, ...]:
        """Index of each face component's view in a block."""
        return tuple((a,) + _corner(self.face_shape(a)) for a in range(self.dim))

    @cached_property
    def inner_face_views(self) -> tuple[tuple, ...]:
        """Index of each component's interior faces (no wall plane) in a block."""
        return tuple(
            (a,) + tuple(slice(1, self.n[a]) if b == a else slice(0, self.n[b]) for b in range(self.dim))
            for a in range(self.dim)
        )

    @cached_property
    def walls(self) -> tuple[tuple[slice, ...], ...]:
        """Index of both wall planes normal to each axis (0 and n[a], one
        slice with step n[a]), in a face view or a padded buffer alike."""
        return tuple(_axslice(self.dim, a, slice(None, None, self.n[a])) for a in range(self.dim))

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


def _corner(shape: tuple[int, ...]) -> tuple[slice, ...]:
    return tuple(slice(0, m) for m in shape)


def _axslice(dim: int, axis: int, s) -> tuple:
    sl = [slice(None)] * dim
    sl[axis] = s
    return tuple(sl)


def _pack(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """A new padded buffer holding ``arr`` in its leading corner, with zero pads."""
    buf = np.zeros(grid.padded_shape)
    buf[_corner(arr.shape)] = arr
    return buf


@dataclass
class ScalarField:
    """Cell-centered scalar field.

    An operator's output is the cell view of a padded buffer ``_buf``; its
    ``padded()`` hands that buffer on for as long as ``values`` is that view.
    """

    grid: Grid
    values: np.ndarray
    _buf: np.ndarray | None = field(default=None, repr=False, compare=False)
    _view: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.n:
            raise ValueError(
                f"scalar values shape {self.values.shape} != grid cells {self.grid.n}"
            )
        self._view = None if self._buf is None else self.values

    def padded(self) -> np.ndarray:
        """The padded buffer behind ``values``; a new, packed one if there is none."""
        if self.values is self._view:
            return self._buf
        return _pack(self.grid, self.values)

    def copy(self) -> "ScalarField":
        buf = self.padded()
        return cell_field(self.grid, buf.copy() if buf is self._buf else buf)


@dataclass
class FaceVectorField:
    """Velocity-like field with one face-centered array per axis.

    An operator's output views a block ``_block`` of padded buffers, one
    per component; ``padded()`` hands the block on for as long as every
    component is its view.
    """

    grid: Grid
    components: list[np.ndarray]
    _block: np.ndarray | None = field(default=None, repr=False, compare=False)
    _views: tuple[np.ndarray, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.components) != self.grid.dim:
            raise ValueError(
                f"need {self.grid.dim} components, got {len(self.components)}"
            )
        if self._block is None:
            self.components = [np.asarray(c, dtype=float) for c in self.components]
        for a, (comp, want) in enumerate(zip(self.components, self.grid._face_shapes)):
            if comp.shape != want:
                raise ValueError(
                    f"component {a} has shape {comp.shape}, expected {want}"
                )
        self._views = None if self._block is None else tuple(self.components)

    def padded(self) -> np.ndarray:
        """The block behind the components (``[a]`` is component a's padded
        buffer); a new, packed one if any component is not its view."""
        if self._views is not None and all(map(operator.is_, self.components, self._views)):
            return self._block
        block = np.zeros(self.grid.block_shape)
        for a, comp in enumerate(self.components):
            block[(a,) + _corner(comp.shape)] = comp
        return block

    def copy(self) -> "FaceVectorField":
        block = self.padded()
        return face_field(self.grid, block.copy() if block is self._block else block)


def cell_field(grid: Grid, buf: np.ndarray) -> ScalarField:
    """The scalar field whose values are the cell view of padded ``buf``."""
    return ScalarField(grid, buf[grid.cell_view], buf)


def face_field(grid: Grid, block: np.ndarray) -> FaceVectorField:
    """The face field whose components view the block of padded buffers ``block``."""
    return FaceVectorField(grid, [block[view] for view in grid.face_views], block)


def padded_cells(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The padded buffer whose cell view is the bare array ``values``; a new,
    packed one if there is none."""
    buf = values.base
    if (
        buf is not None
        and buf.shape == grid.padded_shape
        and values.shape == grid.n
        and values.strides == buf.strides
        # the view starts where the buffer does
        and np.may_share_memory(values, buf.ravel()[:1])
    ):
        return buf
    return _pack(grid, values)


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


def enforce_dirichlet(v: FaceVectorField) -> FaceVectorField:
    """Zero the wall faces of ``v`` in place and return ``v``.

    The one place that pins a public field: operators build their face
    fields walled, so only a velocity sampled from a formula or random data
    needs this.
    """
    for a, comp in enumerate(v.components):
        comp[v.grid.walls[a]] = 0.0
    return v


def gradient(c: ScalarField) -> FaceVectorField:
    """Face-centered gradient of a Neumann scalar; zero on boundary faces.

    g[k] = (c[k] - c[k - s_a]) / h_a at every flat index k >= s_a; the
    entries below s_a lie on the first wall plane, which is zeroed with the
    last one.
    """
    grid = c.grid
    flat_c = c.padded().ravel()
    out = np.empty(grid.block_shape)
    for a, g in enumerate(out):
        s = grid.offsets[a]
        inner = g.ravel()[s:]
        np.subtract(flat_c[s:], flat_c[:-s], out=inner)
        inner /= grid.h[a]
        g[grid.walls[a]] = 0.0
    return face_field(grid, out)


def divergence(v: FaceVectorField) -> ScalarField:
    """Cell-centered divergence of a face field.

    d[k] = sum_a (v_a[k + s_a] - v_a[k]) / h_a for every k below the last
    plane along axis 0, which is all pad and is zeroed.
    """
    grid = v.grid
    m = grid.size - grid.offsets[0]
    div = np.empty(grid.padded_shape)
    flat = div.ravel()
    buf = np.empty(m)
    for a, comp in enumerate(v.padded()):
        s = grid.offsets[a]
        flat_v = comp.ravel()
        diff = flat[:m] if a == 0 else buf
        np.subtract(flat_v[s:s + m], flat_v[:m], out=diff)
        diff /= grid.h[a]
        if a > 0:
            flat[:m] += diff
    flat[m:] = 0.0
    return cell_field(grid, div)


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
