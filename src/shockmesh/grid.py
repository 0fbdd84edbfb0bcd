"""Meshes, nodal solutions, cell geometry and test problems.

Everything downstream works on a 1-D mesh of strictly increasing nodes with
one solution value per node. Cell geometry (widths of the finite-volume cells
implied by a mesh) is derived, never stored as a second solution layout. One
piecewise-linear sampler serves both the solution transfer and the inversion
of the cumulative monitor; its interval lookup is apart from its body, so a
rebuild can hand the cells equidistribution found on to the transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Mesh",
    "GridSolution",
    "CellGeometry",
    "Problem",
    "transport_problem",
    "burgers_problem",
    "make_jump_initial",
    "total_variation",
    "detect_extremes",
    "piecewise_linear_sample",
]


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _trusted(cls, **fields):
    """Build a frozen dataclass without running ``__post_init__``.

    For objects built inside a step from fields that the step already
    guarantees; public construction keeps its full validation. Fields are
    set one by one, as the dataclass ``__init__`` does: filling
    ``__dict__`` instead gives every instance a dict of its own, which the
    retained snapshots of a long run pay for in peak memory.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _interval_index(knots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index i of the knot interval [knots[i], knots[i + 1]) holding each x,
    clamped to the first and the last interval."""
    return np.minimum(np.maximum(knots.searchsorted(x, side="right") - 1, 0), knots.size - 2)


@dataclass(frozen=True)
class Mesh:
    """Strictly increasing node coordinates spanning [a, b]."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _as_float_array(self.nodes, "nodes")
        if nodes.size < 2:
            raise ValueError("a mesh needs at least two nodes")
        if not (nodes[1:] > nodes[:-1]).all():
            raise ValueError("mesh nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    def __len__(self) -> int:
        return self.nodes.size

    @classmethod
    def uniform(cls, n: int) -> "Mesh":
        """``n`` equally spaced nodes on the unit interval [0, 1]."""
        if n < 2:
            raise ValueError("n must be at least 2")
        return cls(np.linspace(0.0, 1.0, n))


@dataclass(frozen=True)
class GridSolution:
    """One solution value per mesh node."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = _as_float_array(self.values, "values")
        if values.size != len(self.mesh):
            raise ValueError(
                f"values length {values.size} does not match mesh size {len(self.mesh)}"
            )
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class CellGeometry:
    """Finite-volume cells: interfaces and their widths.

    Built from a mesh via :meth:`from_mesh`, which places interfaces at node
    midpoints and extends one half-gap beyond each endpoint. That extension
    makes a uniform mesh produce exactly uniform cells, which the schemes
    rely on to reduce to their classical uniform-mesh stencils without
    roundoff. ``from_mesh`` skips the public checks: midpoints of a valid
    mesh increase, unless two of them round together; the step loop turns
    the zero width into a ``RemeshError``.
    """

    interfaces: np.ndarray

    def __post_init__(self):
        interfaces = _as_float_array(self.interfaces, "interfaces")
        if interfaces.size < 2:
            raise ValueError("cell geometry needs at least two interfaces")
        if not (interfaces[1:] > interfaces[:-1]).all():
            raise ValueError("cell interfaces must be strictly increasing")
        object.__setattr__(self, "interfaces", interfaces)

    @property
    def widths(self) -> np.ndarray:
        interfaces = self.interfaces
        return interfaces[1:] - interfaces[:-1]

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "CellGeometry":
        nodes = mesh.nodes
        interfaces = np.empty(nodes.size + 1)
        interfaces[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])
        interfaces[0] = nodes[0] - 0.5 * (nodes[1] - nodes[0])
        interfaces[-1] = nodes[-1] + 0.5 * (nodes[-1] - nodes[-2])
        return _trusted(cls, interfaces=interfaces)


@dataclass(frozen=True)
class Problem:
    """Scalar conservation law u_t + f(u)_x = 0.

    ``flux`` and ``dflux`` must accept and return numpy arrays. The flux is
    assumed convex and smooth on the range of the data; that is a caller
    contract the package does not check.
    """

    name: str
    flux: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    dflux: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def transport_problem() -> Problem:
    """Linear transport, f(u) = u."""
    return Problem(
        name="transport",
        flux=lambda u: np.asarray(u, dtype=np.float64),
        dflux=lambda u: np.ones_like(np.asarray(u, dtype=np.float64)),
    )


def burgers_problem() -> Problem:
    """Burgers equation, f(u) = u^2 / 2."""
    return Problem(
        name="burgers",
        flux=lambda u: 0.5 * np.square(np.asarray(u, dtype=np.float64)),
        dflux=lambda u: np.asarray(u, dtype=np.float64),
    )


def make_jump_initial(mesh: Mesh, x0: float) -> GridSolution:
    """Step profile: 1 at nodes with x <= x0, 0 beyond."""
    if not (mesh.a < x0 < mesh.b):
        raise ValueError(f"jump position {x0} outside the open domain ({mesh.a}, {mesh.b})")
    values = np.where(mesh.nodes <= x0, 1.0, 0.0)
    return GridSolution(mesh, values)


def total_variation(values: np.ndarray) -> float:
    """Sum of absolute differences of consecutive values of a 1-D array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"values must be a 1-D array, got shape {arr.shape}")
    if arr.size < 2:
        return 0.0
    return float(np.abs(arr[1:] - arr[:-1]).sum())


def detect_extremes(values: np.ndarray) -> np.ndarray:
    """Indices of strict interior extremes, in increasing order.

    A node is a strict maximum when its value exceeds both neighbors, a
    strict minimum when both neighbors exceed it. Plateau edges are not
    extremes. Endpoints are never reported. Raises ``ValueError`` unless
    ``values`` is 1-D.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"values must be a 1-D array, got shape {arr.shape}")
    if arr.size < 3:
        return np.empty(0, dtype=np.intp)
    left = arr[:-2]
    mid = arr[1:-1]
    right = arr[2:]
    strict = ((mid > left) & (mid > right)) | ((mid < left) & (mid < right))
    return strict.nonzero()[0] + 1


def piecewise_linear_sample(
    xs: np.ndarray, ys: np.ndarray, x_new: np.ndarray
) -> np.ndarray:
    """Sample the piecewise-linear interpolant of (xs, ys) at x_new.

    Query points that coincide with a knot return that knot's value
    bitwise, and every sampled value is clipped to the range of its
    segment's endpoint values, so interpolation can never overshoot the
    local data. Queries must lie inside [xs[0], xs[-1]]. Raises
    ``ValueError`` unless ``xs`` and ``ys`` are 1-D and of equal length.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or ys.shape != xs.shape:
        raise ValueError(f"xs and ys must be 1-D of equal length, got {xs.shape} and {ys.shape}")
    x_new = np.asarray(x_new, dtype=np.float64)
    idx = _interval_index(xs, x_new)
    return _sample_in_cells(ys, x_new, idx, xs[idx], xs[idx + 1])


def _sample_near(
    xs: np.ndarray, ys: np.ndarray, x_new: np.ndarray, cells: np.ndarray
) -> np.ndarray:
    """``piecewise_linear_sample(xs, ys, x_new)``, given a guess of each cell.

    ``cells[j]`` is a knot interval index in [0, xs.size - 2], taken as the
    interval of ``x_new[j]`` when x_new[j] lies in its closed interval
    [xs[c], xs[c + 1]]; only the queries outside their guess are searched.
    The values are bitwise those of the full search for any guesses: a query
    strictly inside or on the left end of its interval has that interval in
    both, and one on the right end gets that knot's value from either side.
    """
    x_left = xs[cells]
    x_right = xs[cells + 1]
    missed = ((x_new < x_left) | (x_new > x_right)).nonzero()[0]
    if missed.size:
        cells = cells.copy()
        found = _interval_index(xs, x_new[missed])
        cells[missed] = found
        x_left[missed] = xs[found]
        x_right[missed] = xs[found + 1]
    return _sample_in_cells(ys, x_new, cells, x_left, x_right)


def _sample_in_cells(
    ys: np.ndarray,
    x_new: np.ndarray,
    idx: np.ndarray,
    x_left: np.ndarray,
    x_right: np.ndarray,
) -> np.ndarray:
    """The sampler's body: each x_new in the knot interval ``idx``, whose
    ends ``x_left`` and ``x_right`` the caller has gathered. A query on a
    knot takes that knot's value (the knots are distinct, so one at most)."""
    left = ys[idx]
    right = ys[idx + 1]
    t = (x_new - x_left) / (x_right - x_left)
    out = left + t * (right - left)
    out = np.minimum(np.maximum(out, np.minimum(left, right)), np.maximum(left, right))
    np.copyto(out, left, where=x_new == x_left)
    np.copyto(out, right, where=x_new == x_right)
    return out
