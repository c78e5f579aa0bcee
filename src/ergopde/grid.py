"""Uniform-grid discretization: stencils, seminorms, snapshots.

Grids are 1D or 2D tensor products of equally spaced nodes.  Values are
stored row-major (2D shape = (nx, ny)).  The stencils read a node's
neighbours along each axis through one set of views; only the 2D corner
stencil d_xy is written per dimension.  The centered ones are exact on
quadratics.  `prolong` carries node values to the grid with every cell
halved.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyRegion, OutOfRange
from .model import Box

_BINARY_MAGIC = b"EGF1"


@dataclass(frozen=True)
class UniformGrid:
    """Uniform tensor grid over an axis-aligned box."""

    shape: tuple  # node counts per axis
    box: Box

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if len(self.shape) != self.box.dim:
            raise DimensionMismatch("node-count tuple length != domain dimension")
        if any(n < 3 for n in self.shape):
            raise OutOfRange("need at least 3 nodes per axis")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple:
        return tuple(
            (h - l) / (n - 1) for l, h, n in zip(self.box.lo, self.box.hi, self.shape)
        )

    def axes(self) -> tuple:
        return tuple(
            np.linspace(l, h, n)
            for l, h, n in zip(self.box.lo, self.box.hi, self.shape)
        )

    def coords(self) -> tuple:
        """Coordinate arrays of shape `self.shape`, one per axis."""
        if self.dim == 1:
            return (self.axes()[0],)
        ax, ay = self.axes()
        return tuple(np.meshgrid(ax, ay, indexing="ij"))

    def is_interior(self, node) -> bool:
        idx = _as_index(node, self.dim)
        return all(0 < i < n - 1 for i, n in zip(idx, self.shape))

    def nearest_node(self, point) -> tuple:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if p.size != self.dim:
            raise DimensionMismatch("point dimension != grid dimension")
        return tuple(
            int(round((p[k] - self.box.lo[k]) / self.spacing[k]))
            for k in range(self.dim)
        )

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        if self.dim == 1:
            mask[1:-1] = True
        else:
            mask[1:-1, 1:-1] = True
        return mask

    def boundary_mask(self) -> np.ndarray:
        return ~self.interior_mask()


def _as_index(node, dim: int) -> tuple:
    if np.isscalar(node):
        if dim != 1:
            raise DimensionMismatch("scalar node index on a 2D grid")
        return (int(node),)
    idx = tuple(int(i) for i in node)
    if len(idx) != dim:
        raise DimensionMismatch("node index length != grid dimension")
    return idx


@dataclass(frozen=True)
class GridFunction:
    """Scalar field sampled on a uniform grid."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise DimensionMismatch(
                f"value shape {v.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise OutOfRange("grid function values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __call__(self, node) -> float:
        return float(self.values[_as_index(node, self.grid.dim)])


# ---------------------------------------------------------------------------
# stencils


@functools.cache
def _neighbour_slices(ndim: int) -> tuple:
    """Per axis, the index tuples of the (lower, centre, upper) interior views."""
    inner = (slice(1, -1),) * ndim
    return tuple((inner[:k] + (slice(None, -2),) + inner[k + 1:], inner,
                  inner[:k] + (slice(2, None),) + inner[k + 1:]) for k in range(ndim))


def axis_slopes(values: np.ndarray, spacing: tuple) -> list:
    """Per axis, the slopes (D-u, D+u, D0u) on the interior of a value array.

    D-u = (u - u_lo) / h and D+u = (u_hi - u) / h are the one-sided slopes
    to the lower and upper neighbour, D0u = (u_hi - u_lo) / (2h) the centered one.
    """
    v = values
    return [((v[c] - v[lo]) / h, (v[hi] - v[c]) / h, (v[hi] - v[lo]) / (2.0 * h))
            for (lo, c, hi), h in zip(_neighbour_slices(v.ndim), spacing)]


def gradient_field(values: np.ndarray, spacing: tuple) -> tuple:
    """Centered gradient components (D0u of `axis_slopes`), one per axis."""
    return tuple(d0 for _, _, d0 in axis_slopes(values, spacing))


def hessian_field(values: np.ndarray, spacing: tuple) -> tuple:
    """Second-difference Hessian components on the interior of a value array.

    1D: (dxx,); 2D: (dxx, dxy, dyy), d_xy from the four corner neighbours.
    """
    v = values
    hess = [(v[hi] - 2.0 * v[c] + v[lo]) / h**2
            for (lo, c, hi), h in zip(_neighbour_slices(v.ndim), spacing)]
    if v.ndim == 2:
        hx, hy = spacing
        corners = v[2:, 2:] + v[:-2, :-2] - v[2:, :-2] - v[:-2, 2:]
        hess.insert(1, corners / (4.0 * hx * hy))
    return tuple(hess)


def prolong(values: np.ndarray) -> np.ndarray:
    """Node values on the refinement with 2n - 1 nodes per axis.

    Injection at the shared nodes and the midpoint average between them,
    axis by axis: linear interpolation in 1D, bilinear in 2D.
    """
    out = np.asarray(values, dtype=float)
    for k in range(out.ndim):
        fine = np.empty(out.shape[:k] + (2 * out.shape[k] - 1,) + out.shape[k + 1:])
        lead = (slice(None),) * k
        fine[lead + (slice(None, None, 2),)] = out
        fine[lead + (slice(1, None, 2),)] = 0.5 * (out[lead + (slice(None, -1),)]
                                                   + out[lead + (slice(1, None),)])
        out = fine
    return out


# ---------------------------------------------------------------------------
# seminorms

_PAIR_CAP = 2000


def _region_nodes(grid: UniformGrid, subregion: Box | None):
    coords = grid.coords()
    mask = np.ones(grid.shape, dtype=bool)
    if subregion is not None:
        for ax, c in enumerate(coords):
            mask &= (c >= subregion.lo[ax]) & (c <= subregion.hi[ax])
    pts = np.stack([c[mask] for c in coords], axis=-1)
    return mask, pts


def holder_seminorm(
    field_values: np.ndarray,
    grid: UniformGrid,
    gamma: float,
    subregion: Box | None = None,
) -> float:
    """Discrete Hoelder seminorm sup |v(x)-v(y)| / |x-y|^gamma over node pairs.

    `field_values` has shape grid.shape.  Exhaustive over pairs for <= 2000
    region nodes, strided subsampling beyond.
    """
    if not (0.0 < gamma <= 1.0):
        raise OutOfRange("gamma must lie in (0, 1]")
    vals = np.asarray(field_values, dtype=float)
    if vals.shape != grid.shape:
        raise DimensionMismatch("field values do not match the grid")
    mask, pts = _region_nodes(grid, subregion)
    fv = vals[mask]
    n = pts.shape[0]
    if n < 2:
        raise EmptyRegion("subregion holds fewer than 2 nodes")
    stride = 1
    while (n - 1) // stride + 1 > _PAIR_CAP:
        stride += 1
    sel = np.arange(0, n, stride)
    p = pts[sel]
    f = fv[sel]
    diff_pos = p[:, None, :] - p[None, :, :]
    dist = np.sqrt((diff_pos**2).sum(axis=-1))
    dval = np.abs(f[:, None] - f[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dist > 0.0, dval / dist**gamma, 0.0)
    return float(ratio.max())


def lipschitz_seminorm(u: GridFunction, subregion: Box | None = None) -> float:
    """Discrete Lipschitz seminorm: the Hoelder seminorm with gamma = 1."""
    return holder_seminorm(u.values, u.grid, 1.0, subregion)


# ---------------------------------------------------------------------------
# serialization


def save_csv(u: GridFunction, path) -> None:
    """Write node coordinates and values as CSV with a header row."""
    coords = u.grid.coords()
    cols = [c.ravel() for c in coords] + [u.values.ravel()]
    header = ",".join(["x", "y"][: u.grid.dim] + ["value"])
    data = np.stack(cols, axis=-1)
    np.savetxt(path, data, delimiter=",", header=header, comments="",
               fmt="%.17g")


def save_binary(u: GridFunction, path) -> None:
    """Compact snapshot: magic, dim, counts, bounds, row-major LE float64."""
    g = u.grid
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<i", g.dim))
        fh.write(struct.pack(f"<{g.dim}i", *g.shape))
        fh.write(struct.pack(f"<{g.dim}d", *g.box.lo))
        fh.write(struct.pack(f"<{g.dim}d", *g.box.hi))
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())

