"""Uniform-grid discretization: stencils, seminorms, boundary bookkeeping.

Grids are 1D or 2D tensor products of equally spaced nodes.  Values are
stored row-major (2D shape = (nx, ny)).  Gradients use centered
differences, Hessians the standard second differences plus four-point
corner stencils; both are exact on quadratics.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryNode, DimensionMismatch, EmptyRegion, OutOfRange
from .model import Box
from .operators import SymMatrix

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

    def node_position(self, node) -> np.ndarray:
        idx = _as_index(node, self.dim)
        return np.array(
            [ax[i] for ax, i in zip(self.axes(), idx)], dtype=float
        )

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


def gradient(u: GridFunction, node) -> np.ndarray:
    """Centered-difference gradient at an interior node."""
    g = u.grid
    idx = _as_index(node, g.dim)
    if not g.is_interior(idx):
        raise BoundaryNode(f"node {idx} is not interior")
    v = u.values
    out = np.empty(g.dim)
    for ax in range(g.dim):
        up = list(idx)
        dn = list(idx)
        up[ax] += 1
        dn[ax] -= 1
        out[ax] = (v[tuple(up)] - v[tuple(dn)]) / (2.0 * g.spacing[ax])
    return out


def hessian(u: GridFunction, node) -> SymMatrix:
    """Second-difference Hessian at an interior node (corner stencil cross terms)."""
    g = u.grid
    idx = _as_index(node, g.dim)
    if not g.is_interior(idx):
        raise BoundaryNode(f"node {idx} is not interior")
    v = u.values
    h = g.spacing
    if g.dim == 1:
        i = idx[0]
        return SymMatrix(1, ((v[i + 1] - 2.0 * v[i] + v[i - 1]) / h[0] ** 2,))
    i, j = idx
    dxx = (v[i + 1, j] - 2.0 * v[i, j] + v[i - 1, j]) / h[0] ** 2
    dyy = (v[i, j + 1] - 2.0 * v[i, j] + v[i, j - 1]) / h[1] ** 2
    dxy = (
        v[i + 1, j + 1] + v[i - 1, j - 1] - v[i + 1, j - 1] - v[i - 1, j + 1]
    ) / (4.0 * h[0] * h[1])
    return SymMatrix(2, (dxx, dxy, dyy))


def gradient_field(u: GridFunction) -> tuple:
    """Centered gradient components on the interior, vectorized.

    Returns one array per axis, each of the interior shape.
    """
    v = u.values
    h = u.grid.spacing
    if u.grid.dim == 1:
        return ((v[2:] - v[:-2]) / (2.0 * h[0]),)
    gx = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * h[0])
    gy = (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * h[1])
    return (gx, gy)


def hessian_field(u: GridFunction) -> tuple:
    """Second-difference Hessian components on the interior, vectorized.

    1D: (dxx,); 2D: (dxx, dxy, dyy).
    """
    v = u.values
    h = u.grid.spacing
    if u.grid.dim == 1:
        return ((v[2:] - 2.0 * v[1:-1] + v[:-2]) / h[0] ** 2,)
    dxx = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / h[0] ** 2
    dyy = (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / h[1] ** 2
    dxy = (v[2:, 2:] + v[:-2, :-2] - v[2:, :-2] - v[:-2, 2:]) / (4.0 * h[0] * h[1])
    return (dxx, dxy, dyy)


# ---------------------------------------------------------------------------
# seminorms

_PAIR_CAP = 2000


def _region_nodes(grid: UniformGrid, subregion: Box | None):
    coords = grid.coords()
    if subregion is None:
        mask = np.ones(grid.shape, dtype=bool)
    else:
        mask = np.ones(grid.shape, dtype=bool)
        for ax in range(grid.dim):
            mask &= (coords[ax] >= subregion.lo[ax]) & (coords[ax] <= subregion.hi[ax])
    pts = np.stack([c[mask] for c in coords], axis=-1)
    return mask, pts


def holder_seminorm(
    field_values: np.ndarray,
    grid: UniformGrid,
    gamma: float,
    subregion: Box | None = None,
    return_report: bool = False,
):
    """Discrete Hoelder seminorm sup |v(x)-v(y)| / |x-y|^gamma over node pairs.

    `field_values` has shape grid.shape (scalar) or grid.shape + (m,)
    (vector field; differences in Euclidean norm).  Exhaustive over pairs
    for <= 2000 region nodes, strided subsampling beyond.
    """
    if not (0.0 < gamma <= 1.0):
        raise OutOfRange("gamma must lie in (0, 1]")
    vals = np.asarray(field_values, dtype=float)
    scalar = vals.shape == grid.shape
    if not scalar and vals.shape[:-1] != grid.shape:
        raise DimensionMismatch("field values do not match the grid")
    mask, pts = _region_nodes(grid, subregion)
    fv = vals[mask] if scalar else vals[mask, :]
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
    if scalar:
        dval = np.abs(f[:, None] - f[None, :])
    else:
        dval = np.sqrt(((f[:, None, :] - f[None, :, :]) ** 2).sum(axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dist > 0.0, dval / dist**gamma, 0.0)
    value = float(ratio.max())
    if return_report:
        return value, {"nodes": int(n), "stride": int(stride), "cap": _PAIR_CAP,
                       "gamma": float(gamma)}
    return value


def lipschitz_seminorm(
    u: GridFunction, subregion: Box | None = None, return_report: bool = False
):
    """Discrete Lipschitz seminorm: the Hoelder seminorm with gamma = 1."""
    return holder_seminorm(u.values, u.grid, 1.0, subregion, return_report)


# ---------------------------------------------------------------------------
# boundary distance and layers


def boundary_distance(grid: UniformGrid):
    """Exact distance to the box boundary and inward normal per node.

    Returns (d, normal, tie) where d has the grid shape, normal has shape
    grid.shape + (dim,) (the inward normal of the nearest face) and `tie`
    flags nodes where two faces are within one spacing of realizing the
    minimum (near the medial axis or corners).
    """
    coords = grid.coords()
    dim = grid.dim
    face_d = []
    face_n = []
    for ax in range(dim):
        n_lo = np.zeros(dim)
        n_lo[ax] = 1.0
        n_hi = -n_lo
        face_d.append(coords[ax] - grid.box.lo[ax])
        face_n.append(n_lo)
        face_d.append(grid.box.hi[ax] - coords[ax])
        face_n.append(n_hi)
    stacked = np.stack(face_d, axis=0)
    order = np.argsort(stacked, axis=0)
    d = np.take_along_axis(stacked, order[:1], axis=0)[0]
    second = np.take_along_axis(stacked, order[1:2], axis=0)[0]
    tie_tol = max(grid.spacing)
    tie = (second - d) < tie_tol
    nearest = order[0]
    normal = np.zeros(grid.shape + (dim,))
    for k, n in enumerate(face_n):
        sel = nearest == k
        normal[sel] = n
    return d, normal, tie


@dataclass(frozen=True)
class BoundaryLayer:
    """Interior nodes with boundary distance in [delta, 2*delta]."""

    delta: float
    nodes: tuple  # tuple of index tuples
    distances: np.ndarray
    normals: np.ndarray  # inward normals, shape (len(nodes), dim)


def boundary_layer(grid: UniformGrid, delta: float) -> BoundaryLayer:
    """Collect the layer nodes, excluding medial-axis ties (2D)."""
    if delta <= 0.0:
        raise OutOfRange("layer offset must be positive")
    if delta >= 0.5 * min(grid.box.sides):
        raise EmptyRegion("layer offset exceeds the domain half-width")
    d, normal, tie = boundary_distance(grid)
    sel = grid.interior_mask() & (d >= delta) & (d <= 2.0 * delta) & ~tie
    idx = np.argwhere(sel)
    if idx.shape[0] == 0:
        raise EmptyRegion("boundary layer holds no nodes at this offset")
    nodes = tuple(tuple(int(i) for i in row) for row in idx)
    return BoundaryLayer(
        delta=float(delta),
        nodes=nodes,
        distances=d[sel],
        normals=normal[sel],
    )


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


def load_binary(path) -> GridFunction:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise OutOfRange(f"bad snapshot magic {magic!r}")
        (dim,) = struct.unpack("<i", fh.read(4))
        shape = struct.unpack(f"<{dim}i", fh.read(4 * dim))
        lo = struct.unpack(f"<{dim}d", fh.read(8 * dim))
        hi = struct.unpack(f"<{dim}d", fh.read(8 * dim))
        count = int(np.prod(shape))
        values = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape)
    return GridFunction(UniformGrid(shape, Box(lo, hi)), values)
