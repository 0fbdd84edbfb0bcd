"""Mesh reconstruction around solution extremes and solution transfer.

After equidistribution proposes a new mesh, any new node that landed in an
old interval flanked by a strict interior extreme gets a proximity score.
Scores of 1 or more mean the node sits close enough to the extreme that the
next evolution step could re-amplify the oscillation, so such nodes are
nudged toward the non-extreme end of their interval until every score drops
below 1. Where those walks would collapse two nodes onto one point, or
need more than the move cap, the proposal is instead mapped monotonically
onto the compliant slivers next to each run of extremes. The corrected mesh
then receives the old solution by linear interpolation, which clips new
values near extremes and cannot increase total variation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridSolution,
    Mesh,
    _sample_near,
    _trusted,
    detect_extremes,
    piecewise_linear_sample,
)
from .monitor import (
    EstimatorParams,
    _equidistribute_cells,
    build_monitor,
    discrete_curvature,
    regularize_curvature,
)

__all__ = [
    "RemeshError",
    "ExtremeGuardParams",
    "ExtremeGuardReport",
    "enforce_extreme_guard",
    "interpolation_smoothing_residual",
    "remesh_step",
]


# The compliant fraction of each guarded territory's end intervals that the
# collapse map sends nodes into: every mapped score is at most this.
_MAP_MARGIN = 0.5
# The relative step of one walk move, and the most moves any one walker makes.
_NUDGE = 0.2
_MAX_MOVES = 50


class RemeshError(RuntimeError):
    """Mesh reconstruction produced an unusable mesh."""


@dataclass(frozen=True)
class ExtremeGuardParams:
    """Configuration of the extreme-proximity guard.

    ``growth_constant`` is the per-step amplification constant of the
    evolution scheme in use; it sets how wide the guarded sliver around an
    extreme is, and 1 + 3C, the score of a node on an extreme, must be
    finite. The walk's step factor and move cap are the module constants
    ``_NUDGE`` and ``_MAX_MOVES``.
    """

    growth_constant: float

    def __post_init__(self):
        c = self.growth_constant
        if not (c >= 0.0 and math.isfinite(1.0 + 3.0 * float(c))):
            raise ValueError("growth_constant must be non-negative, with 1 + 3C finite")


@dataclass(frozen=True)
class ExtremeGuardReport:
    """Outcome of one guard enforcement: final scores and effort spent.

    Both scores read 0.0 when no output node sits next to an old extreme.
    """

    max_score: float
    mean_score: float
    rounds: int
    corrections: int


def _report(scores: list[float], rounds: int, corrections: int) -> ExtremeGuardReport:
    max_score = float(max(scores)) if scores else 0.0
    mean_score = float(np.add.reduce(scores) / len(scores)) if scores else 0.0  # numpy's mean
    return ExtremeGuardReport(max_score, mean_score, rounds, corrections)


def _territories(old: GridSolution, nodes: np.ndarray) -> list[tuple[int, int, int, int]]:
    """The old extremes in runs, with the proposed nodes next to each run.

    One entry (first, last, start, stop) per maximal run of consecutive
    strict interior extremes x_first..x_last of the old solution, in
    increasing order. The run's territory [x_{first-1}, x_{last+1}) is the
    union of the old intervals with an extreme of the run at one end, and
    ``nodes[start:stop]`` are the proposed interior nodes inside it.
    """
    runs = []
    for i in detect_extremes(old.values).tolist():
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    x_old = old.mesh.nodes
    edges = []
    for first, last in runs:
        edges += (first - 1, last + 1)
    bounds = nodes.searchsorted(x_old[edges]).tolist()
    territories = []
    for (first, last), start, stop in zip(runs, bounds[::2], bounds[1::2]):
        territories.append((first, last, max(start, 1), stop))
    return territories


def enforce_extreme_guard(
    old: GridSolution, proposed: Mesh, params: ExtremeGuardParams
) -> tuple[Mesh, ExtremeGuardReport]:
    """Nudge proposed nodes away from old extremes until all scores < 1.

    Only nodes next to an old extreme can score: the proposed interior
    nodes inside the territories that ``_territories`` defines. ``_walk``
    scores each such node and walks every one that scores 1 or more alone
    until it scores below 1; ``rounds`` is the longest walk and
    ``corrections`` the sum of the walk lengths. Where the walks collapse
    two nodes, or a walker reaches the move cap, the proposal is instead
    mapped onto the compliant slivers (``_mapped``) and the mapped nodes are
    scored by the same territory scan. None of them walks: they are checked
    before they are scored, and a finite mapped node scores at most
    ``_MAP_MARGIN``. ``rounds`` is then 1 and ``corrections`` the number of
    nodes the map moved.

    The report's scores are each scanned node's last score, in the order
    of the nodes. When no node offends, the proposed nodes are the output.
    Either way the output is checked: nodes that are not finite and
    strictly increasing raise ``RemeshError``. The proposal is taken to be
    in increasing order and to span the old mesh, as equidistribution
    gives it.
    """
    x_old = old.mesh.nodes
    nodes = proposed.nodes
    territories = _territories(old, nodes)
    factor = 1.0 + 3.0 * params.growth_constant
    walked = _walk(x_old, territories, nodes, factor)
    if walked is None:
        mesh = _checked_mesh(_mapped(x_old, territories, nodes, factor))
        _x, scores, _rounds, _corrections = _walk(x_old, territories, mesh.nodes, factor)
        return mesh, _report(scores, 1, int((mesh.nodes != nodes).sum()))
    x_new, scores, rounds, corrections = walked
    return _checked_mesh(x_new), _report(scores, rounds, corrections)


def _walk(
    x_old: np.ndarray,
    territories: list[tuple[int, int, int, int]],
    nodes: np.ndarray,
    factor: float,
) -> tuple[np.ndarray, list[float], int, int] | None:
    """Score the nodes of each territory and walk each offender alone.

    A node in an old interval with a strict extreme at one end scores
    ``factor`` = 1 + 3C times its relative distance from the non-extreme
    end: 1 + 3C on top of the extreme, 0 at the far end. When both ends are
    extremes the larger score wins. Each node gets its interval by
    bisection on its run's few knots; one that scores 1 or more then walks
    alone, one move at a time, until it scores below 1 or has made
    ``_MAX_MOVES`` moves. A move takes the node away from the extreme it
    scored against. In an interval with one extreme end, the step is
    ``_NUDGE`` times the node's current distance from that extreme, so
    distances grow geometrically; the distance is floored at half the
    interval width, because equidistribution parks nodes arbitrarily close
    to the extreme and an unfloored multiplicative step can then need far
    more moves than any practical cap (the floor is inactive for nodes
    beyond the midpoint, where the plain geometric growth takes over). An
    interval flanked by extremes on both ends admits no safe interior
    position once 1 + 3C reaches 2, and the geometric step merely shuttles
    nodes around the midpoint there, so such nodes instead hop past the far
    end into the neighbouring interval (entry depth a ``_NUDGE``-scale
    fraction of that interval), from where the geometric rule can proceed.

    A geometric move that would reach or cross the far interval end is
    capped at the midpoint toward that end: the compliant sliver always
    lies inside the interval, and overshooting into the neighbouring old
    interval can put the node next to a different extreme and restart the
    correction march there. A hop lands less than one interval width past
    an interior extreme of the run. So a walker never leaves its territory,
    except onto its right end when a midpoint rounds up to it (a mapped
    node can round onto it too). Any node there scores 0, and counts only
    when the next run starts at the next old node.

    The walks are independent because a node's score and move depend only
    on its own position, the fixed old mesh and the old extremes. Each end
    point is bitwise where rounds of moves with a full rescan in between
    would leave that node. Two nodes that meet stay together from then on,
    and a walker that lands on a resting node is compliant there and stops,
    so the end points show every collapse that a check after each round
    would find. One check at the end is therefore exact: the nodes are
    sorted, with their scores, and if they are then not strictly
    increasing, a walked coordinate has landed on another node. The result
    is then ``None``, as it is at once when a walker reaches the move cap.
    Only the territories a walker moved in are sorted: territories do not
    overlap and a walker stays in its own or on its right end, so this is
    bitwise the full sort, and it leaves nodes already in order as they are.

    A node's cell (its width and which of its ends are extremes) is set up
    when the node enters it, not on every move.

    Returns the nodes after the walks, the scores in node order, the
    longest walk and the sum of the walk lengths; ``nodes`` itself when no
    node walks.
    """
    pairs = []
    x_new = None
    rounds = corrections = 0
    moved_in = {}
    for k, (first, last, start, stop) in enumerate(territories):
        knots = x_old[first - 1 : last + 2].tolist()
        top = len(knots) - 2
        # A node on the territory's right end lies in the next old
        # interval, which is guarded only if the next run starts there.
        leaves = k + 1 == len(territories) or territories[k + 1][0] != last + 2
        for j, xj in enumerate(nodes[start:stop].tolist(), start):
            moves = 0
            xl = xr = math.nan
            while True:
                if not xl <= xj < xr:
                    cell = bisect_right(knots, xj) - 1
                    cell = top if cell > top else cell
                    xl = knots[cell]
                    xr = knots[cell + 1]
                    width = xr - xl
                    half = 0.5 * width
                    left_ext = cell > 0
                    right_ext = cell < top
                from_left = (xr - xj) / width * factor if left_ext else -math.inf
                from_right = (xj - xl) / width * factor if right_ext else -math.inf
                use_left = from_left >= from_right
                score = from_left if use_left else from_right
                if score < 1.0:
                    break
                if moves == _MAX_MOVES:
                    return None
                near, far, direction = (xl, xr, 1.0) if use_left else (xr, xl, -1.0)
                span = abs(xj - near)
                moved = xj + direction * (_NUDGE * (half if half > span else span))
                if direction * (moved - far) >= 0.0:
                    moved = 0.5 * (xj + far)
                if left_ext and right_ext:
                    # The far end of a dual interval is an extreme, hence an
                    # interior knot of the run, so the interval beyond it
                    # exists. Entry depth shrinks with the node's distance
                    # from the nearer extreme, keeping nodes that hop out of
                    # one interval distinct.
                    dest = knots[cell + 2] - xr if use_left else xl - knots[cell - 1]
                    moved = far + direction * (_NUDGE * dest * (1.0 - 0.5 * span / width))
                xj = moved
                moves += 1
            if moves:
                if x_new is None:
                    x_new = nodes.copy()
                x_new[j] = xj
                rounds = max(rounds, moves)
                corrections += moves
                moved_in[start] = stop
            if leaves and xj >= knots[-1]:
                continue
            pairs.append((xj, score))
    if x_new is None:
        return nodes, [score for _x, score in pairs], 0, 0
    for start, stop in moved_in.items():
        x_new[start:stop].sort()
    # Only a walked coordinate can land on another node.
    if not np.logical_and.reduce(x_new[1:] > x_new[:-1]):
        return None
    return x_new, [score for _x, score in sorted(pairs)], rounds, corrections


def _mapped(
    x_old: np.ndarray,
    territories: list[tuple[int, int, int, int]],
    nodes: np.ndarray,
    factor: float,
) -> np.ndarray:
    """The proposal mapped monotonically onto the compliant slivers.

    Each territory [L, R] = [x_{first-1}, x_{last+1}] keeps its compliant
    part at the two ends: [L, L + f * (x_first - L)] and
    [R - f * (R - x_last), R], with f = ``_MAP_MARGIN`` / ``factor``. The
    proposed nodes ``nodes[start:stop]`` inside it are mapped affinely,
    [L, s] onto the left sliver and [s, R] onto the right one, where s
    splits [L, R] in the ratio of the two slivers. Both pieces have the
    slope (sum of the slivers) / (R - L), so nothing is divided by a sliver:
    when both round to zero width, the slope is 0 and the territory's nodes
    all go to L. Every score is then at most ``_MAP_MARGIN`` up to rounding,
    and nodes outside every territory do not move. Nodes a few ulps apart
    can still round together, which the guard's output check raises as
    ``RemeshError``.
    """
    fraction = _MAP_MARGIN / factor
    mapped = nodes.copy()
    for first, last, start, stop in territories:
        left = x_old[first - 1]
        right = x_old[last + 1]
        left_sliver = fraction * (x_old[first] - left)
        slope = (left_sliver + fraction * (right - x_old[last])) / (right - left)
        inside = nodes[start:stop]
        offset = (inside - left) * slope
        mapped[start:stop] = np.where(
            offset <= left_sliver, left + offset, right - (right - inside) * slope
        )
    return mapped


def _checked_mesh(nodes: np.ndarray) -> Mesh:
    """The guard's output mesh, after the step's one check of its nodes."""
    ordered = np.logical_and.reduce(nodes[1:] > nodes[:-1])
    if not (np.logical_and.reduce(np.isfinite(nodes)) and ordered):
        raise RemeshError("reconstructed mesh is not finite and strictly increasing")
    return _trusted(Mesh, nodes=nodes)


def interpolation_smoothing_residual(
    old: GridSolution, i: int, new_left: float, new_right: float
) -> tuple[float, float, float]:
    """Two routes to the transferred profile's height above old node i.

    When the interval around old node i keeps no new node, the transferred
    piecewise-linear profile evaluated at x_i equals the old value plus a
    weighted jump of one-sided slopes; the weight is the harmonic-type
    product of the two offsets. Returns (sampled, closed_form, residual);
    the two routes are exact up to roundoff and the residual is their
    absolute difference.

    ``new_left`` and ``new_right`` are the new nodes bracketing x_i, with
    x_{i-1} <= new_left <= x_i <= new_right <= x_{i+1} and
    new_left < new_right.
    """
    x = old.mesh.nodes
    u = old.values
    if not 1 <= i <= x.size - 2:
        raise ValueError("i must be an interior node index")
    if not (x[i - 1] <= new_left <= x[i] <= new_right <= x[i + 1]):
        raise ValueError("bracketing nodes must straddle x_i within its intervals")
    if not new_left < new_right:
        raise ValueError("bracketing nodes must be distinct")
    left_val, right_val = piecewise_linear_sample(
        x, u, np.array([new_left, new_right])
    )
    t = (x[i] - new_left) / (new_right - new_left)
    sampled = float(left_val + t * (right_val - left_val))

    offset_left = x[i] - new_left
    offset_right = new_right - x[i]
    slope_left = (u[i] - u[i - 1]) / (x[i] - x[i - 1])
    slope_right = (u[i + 1] - u[i]) / (x[i + 1] - x[i])
    weight = offset_left * offset_right / (offset_left + offset_right)
    closed_form = float(u[i] + weight * (slope_right - slope_left))
    return sampled, closed_form, abs(sampled - closed_form)


def remesh_step(
    old: GridSolution,
    estimator: EstimatorParams,
    guard: ExtremeGuardParams,
) -> tuple[GridSolution, ExtremeGuardReport]:
    """One full mesh reconstruction plus the package's one solution transfer.

    Pipeline: curvature scores -> regularization -> cumulative monitor ->
    equidistribution with the same node count -> extreme-guard enforcement
    -> linear transfer of the solution onto the corrected mesh. The first
    three stages and the guard are the public functions of those names.
    Equidistribution and the transfer share one lookup instead: the old
    interval that equidistribution found for each node is the transfer's
    first guess, so only the nodes the guard moved out of theirs are
    searched again.

    The transfer keeps both end nodes and their values bitwise, and the
    value of every new node that coincides with an old one; every other
    value stays within the range of its old segment. So it never raises the
    maximum, lowers the minimum or increases the total variation.
    """
    x_old = old.mesh.nodes
    scores = regularize_curvature(discrete_curvature(old), estimator)
    monitor = build_monitor(old.mesh, scores)
    proposed, cells = _equidistribute_cells(monitor, x_old.size)
    corrected, report = enforce_extreme_guard(old, proposed, guard)
    values = _sample_near(x_old, old.values, corrected.nodes, cells)
    return _trusted(GridSolution, mesh=corrected, values=values), report
