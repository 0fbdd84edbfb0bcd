"""Curvature-driven monitor construction and mesh equidistribution.

The reconstruction pipeline scores every node with a discrete curvature of
the piecewise-linear solution graph, floors and flattens the scores so the
monitor stays positive and less spiky, integrates them into a cumulative
monitor, and places the new nodes so that all monitor increments between
consecutive nodes are equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    GridSolution,
    Mesh,
    _as_float_array,
    _interval_index,
    _sample_in_cells,
    _trusted,
)

__all__ = [
    "EstimatorParams",
    "MonitorTable",
    "discrete_curvature",
    "regularize_curvature",
    "build_monitor",
    "equidistribute",
]

_MASS_FLOOR = 1e-9

# Every score is floored at this fraction of the largest score, which caps
# the mesh density contrast at roughly (1 / _RELATIVE_FLOOR) ** power.
# Without the cap, near-flat regions carry almost no monitor mass, so on
# data with one sharp feature every remesh shrinks the cluster by another
# factor of the node count. The cell widths, and with them the stable time
# step, then collapse geometrically and the integration stalls at a fixed
# time.
_RELATIVE_FLOOR = 0.02
# Keeps the monitor positive on flat data; where the largest score reaches
# _ABSOLUTE_FLOOR / _RELATIVE_FLOOR (5e-14), the relative floor lifts higher.
_ABSOLUTE_FLOOR = 1e-15


@dataclass(frozen=True)
class EstimatorParams:
    """Regularization knob for the curvature scores.

    ``power`` (in (0, 1]) flattens the score distribution, trading cluster
    sharpness for coverage.
    """

    power: float = 0.9

    def __post_init__(self):
        if not (np.isfinite(self.power) and 0.0 < self.power <= 1.0):
            raise ValueError("power must lie in (0, 1]")


def discrete_curvature(solution: GridSolution) -> np.ndarray:
    """Graph curvature of the piecewise-linear interpolant at every node.

    For an interior node the score is the slope change across the node,
    normalized by the local spacing and by the secant lengths of the three
    segments involved, so steep but straight faces score near zero while
    corners score highest. Endpoints copy their nearest interior score.
    """
    x = solution.mesh.nodes
    u = solution.values
    if x.size < 3:
        raise ValueError("curvature needs at least three nodes")
    span = x[2:] - x[:-2]
    # Each segment's slope serves as the right slope of one node and the
    # left slope of the next.
    slope = (u[1:] - u[:-1]) / (x[1:] - x[:-1])
    lift = 1.0 + slope**2
    slope_chord = (u[2:] - u[:-2]) / span
    denom = np.sqrt(lift[:-1] * lift[1:] * (1.0 + slope_chord**2))
    interior = (2.0 / span) * np.abs(slope[:-1] - slope[1:]) / denom
    scores = np.empty(u.size)
    scores[1:-1] = interior
    scores[0] = interior[0]
    scores[-1] = interior[-1]
    return scores


def regularize_curvature(scores: np.ndarray, params: EstimatorParams) -> np.ndarray:
    """Apply the positivity floors, then the flattening power, in that order.

    The relative floor ``_RELATIVE_FLOOR`` (fraction of the peak score) is
    applied after the absolute one ``_ABSOLUTE_FLOOR``, before the power, so
    uniform score vectors stay uniform and the flattening acts on the
    already-capped contrast.
    """
    arr = _as_float_array(scores, "scores")
    arr = np.maximum(arr, _ABSOLUTE_FLOOR)
    arr = np.maximum(arr, _RELATIVE_FLOOR * arr.max(initial=0.0))
    return arr ** params.power


@dataclass(frozen=True)
class MonitorTable:
    """Cumulative integral of the piecewise-linear score interpolant.

    ``cumulative[0]`` is exactly zero and the table is strictly increasing,
    so it can be inverted for node placement.
    """

    nodes: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        nodes = _as_float_array(self.nodes, "nodes")
        cumulative = _as_float_array(self.cumulative, "cumulative")
        if nodes.size != cumulative.size:
            raise ValueError("nodes and cumulative must have equal length")
        if nodes.size < 2:
            raise ValueError("monitor needs at least two nodes")
        if cumulative[0] != 0.0:
            raise ValueError("cumulative must start at exactly 0")
        if not (cumulative[1:] > cumulative[:-1]).all():
            raise ValueError("cumulative must be strictly increasing")
        if not (nodes[1:] > nodes[:-1]).all():
            raise ValueError("monitor nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "cumulative", cumulative)

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])

    def value_at(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the monitor at arbitrary positions inside the domain."""
        return np.interp(np.asarray(x, dtype=np.float64), self.nodes, self.cumulative)


def build_monitor(mesh: Mesh, scores: np.ndarray) -> MonitorTable:
    """Integrate positive node scores with the trapezoid rule.

    Each segment additionally receives ``_MASS_FLOOR`` times the mean mass
    density, spread in proportion to its width. Without that extra mass, a
    hot spot (corner curvature saturates near 2 per unit jump) can make
    far-field masses smaller than one float ulp of the running total,
    stalling the cumulative table. Spreading it by width adds the same
    scalar to every score, so score-proportional masses stay proportional
    and constant data still yields an exactly uniform mesh on any input
    mesh. The table is built without the public checks, apart from the
    strict increase of ``cumulative``, which the valid mesh and positive
    scores do not guarantee and which equidistribution divides by.
    """
    arr = _as_float_array(scores, "scores")
    nodes = mesh.nodes
    if arr.size != nodes.size:
        raise ValueError("score count must match mesh size")
    if not (arr > 0.0).all():
        raise ValueError("monitor scores must be strictly positive")
    gaps = nodes[1:] - nodes[:-1]
    segment_mass = 0.5 * gaps * (arr[:-1] + arr[1:])
    density = segment_mass.sum() / (nodes[-1] - nodes[0])
    segment_mass = segment_mass + (_MASS_FLOOR * density) * gaps
    cumulative = np.empty(arr.size)
    cumulative[0] = 0.0
    segment_mass.cumsum(out=cumulative[1:])
    if not (cumulative[1:] > cumulative[:-1]).all():
        raise ValueError("cumulative must be strictly increasing")
    return _trusted(MonitorTable, nodes=nodes, cumulative=cumulative)


def equidistribute(monitor: MonitorTable, n: int) -> Mesh:
    """Place ``n`` nodes so that consecutive monitor increments are equal.

    Endpoints are pinned to the monitor's domain ends. Interior nodes are
    found by inverting the piecewise-linear cumulative table at the target
    levels k * total / (n - 1), that is by sampling the nodes as a function
    of the cumulative monitor; a level that hits a table breakpoint exactly
    yields that breakpoint's coordinate exactly. The mesh is built without
    the public checks: the extreme guard checks the corrected mesh.
    """
    return _equidistribute_cells(monitor, n)[0]


def _equidistribute_cells(monitor: MonitorTable, n: int) -> tuple[Mesh, np.ndarray]:
    """:func:`equidistribute`, with the interval of the monitor's nodes that
    holds each new node (a closed interval: a node may sit on either end)."""
    if n < 2:
        raise ValueError("need at least two nodes")
    cum = monitor.cumulative
    src = monitor.nodes
    levels = (float(cum[-1]) / (n - 1)) * np.arange(1, n - 1, dtype=np.float64)
    idx = _interval_index(cum, levels)
    nodes = np.empty(n)
    nodes[0] = src[0]
    nodes[-1] = src[-1]
    nodes[1:-1] = _sample_in_cells(src, levels, idx, cum[idx], cum[idx + 1])
    cells = np.empty(n, dtype=np.intp)
    cells[0] = 0
    cells[1:-1] = idx
    cells[-1] = src.size - 2
    return _trusted(Mesh, nodes=nodes), cells
