"""Mesh reconstruction around solution extremes and solution transfer.

After equidistribution proposes a new mesh, any new node that landed in an
old interval flanked by a strict interior extreme gets a proximity score.
Scores of 1 or more mean the node sits close enough to the extreme that the
next evolution step could re-amplify the oscillation, so such nodes are
nudged toward the non-extreme end of their interval until every score drops
below 1. Where those walks would collapse two nodes onto one point, the
proposal is instead mapped monotonically onto the compliant slivers next to
each run of extremes. The corrected mesh then receives the old solution by
linear interpolation, which clips new values near extremes and cannot
increase total variation.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridSolution,
    Mesh,
    _interval_index,
    _trusted,
    detect_extremes,
    piecewise_linear_sample,
)
from .monitor import (
    EstimatorParams,
    build_monitor,
    discrete_curvature,
    equidistribute,
    regularize_curvature,
)

__all__ = [
    "RemeshError",
    "GuardConvergenceError",
    "ExtremeGuardParams",
    "ExtremeGuardReport",
    "enforce_extreme_guard",
    "interpolate_update",
    "interpolation_smoothing_residual",
    "extreme_clipping_residuals",
    "remesh_step",
]


# The compliant fraction of each guarded territory's end intervals that the
# collapse map sends nodes into: every mapped score is at most this.
_MAP_MARGIN = 0.5


class RemeshError(RuntimeError):
    """Mesh reconstruction produced an unusable mesh."""


class GuardConvergenceError(RemeshError):
    """Node corrections failed to bring all proximity scores below 1."""


@dataclass(frozen=True)
class ExtremeGuardParams:
    """Configuration of the extreme-proximity guard.

    ``growth_constant`` is the per-step amplification constant of the
    evolution scheme in use; it sets how wide the guarded sliver around an
    extreme is. ``nudge_factor`` is the relative step of a single correction
    and ``max_rounds`` bounds the moves of any one node before giving up.
    """

    growth_constant: float
    nudge_factor: float = 0.2
    max_rounds: int = 50

    def __post_init__(self):
        if not (np.isfinite(self.growth_constant) and self.growth_constant >= 0.0):
            raise ValueError("growth_constant must be non-negative and finite")
        if not (np.isfinite(self.nudge_factor) and 0.0 < self.nudge_factor < 1.0):
            raise ValueError("nudge_factor must lie in (0, 1)")
        if not (isinstance(self.max_rounds, numbers.Integral) and self.max_rounds >= 1):
            raise ValueError("max_rounds must be an integer of at least 1")


@dataclass(frozen=True)
class ExtremeGuardReport:
    """Outcome of one guard enforcement: final scores and effort spent.

    Both scores read 0.0 when no output node sits next to an old extreme.
    """

    max_score: float
    mean_score: float
    rounds: int
    corrections: int


def _report(scores: np.ndarray, rounds: int, corrections: int) -> ExtremeGuardReport:
    max_score = float(scores.max()) if scores.size else 0.0
    mean_score = float(scores.mean()) if scores.size else 0.0
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
    for i, _kind in detect_extremes(old.values):
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


def _scan_guarded(
    x_old: np.ndarray,
    extreme: np.ndarray,
    proposed_nodes: np.ndarray,
    growth_constant: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Score interior proposed nodes that landed next to an old extreme.

    ``x_old`` are the old mesh nodes and ``extreme`` flags the old
    solution's strict interior extremes on them. A node in an old interval
    with a strict extreme at one end scores (1 + 3 * growth_constant) times
    its relative distance from the non-extreme end: 1 + 3C on top of the
    extreme, 0 at the far end. When both ends are extremes the larger score
    wins. Returns the indices of the affected proposed nodes and their
    scores; a score below 1 means the node is safely inside the far sliver
    of its interval.
    """
    none = (np.empty(0, dtype=np.intp), np.empty(0))
    if not extreme.any():
        return none

    x_new = proposed_nodes[1:-1]
    cell = _interval_index(x_old, x_new)
    left_ext = extreme[cell]
    right_ext = extreme[cell + 1]
    sel = (left_ext | right_ext).nonzero()[0]
    if not sel.size:
        return none

    cell = cell[sel]
    xj = x_new[sel]
    xl = x_old[cell]
    xr = x_old[cell + 1]
    width = xr - xl
    factor = 1.0 + 3.0 * growth_constant
    # Score against each flanking extreme: distance to the interval end
    # opposite that extreme, relative to the interval width. The larger
    # score (the nearer extreme) governs.
    score_from_left = np.where(left_ext[sel], (xr - xj) / width * factor, -np.inf)
    score_from_right = np.where(right_ext[sel], (xj - xl) / width * factor, -np.inf)
    return sel + 1, np.maximum(score_from_left, score_from_right)


def enforce_extreme_guard(
    old: GridSolution, proposed: Mesh, params: ExtremeGuardParams
) -> tuple[Mesh, ExtremeGuardReport]:
    """Nudge proposed nodes away from old extremes until all scores < 1.

    Only nodes next to an old extreme can score. Each maximal run of
    consecutive old extremes x_first..x_last owns the territory
    [x_{first-1}, x_{last+1}), the old intervals with an extreme end, and
    one ``searchsorted`` finds the proposed interior nodes inside it. Each
    such node gets its interval by bisection on the run's few knots and is
    scored; one that scores 1 or more then walks alone, one move at a
    time, until it scores below 1 or has made ``max_rounds`` moves. A move
    takes the node away from the extreme it scored against. In an interval
    with one extreme end, the step is ``nudge_factor`` times the node's
    current distance from that extreme, so distances grow geometrically;
    the distance is floored at half the interval width, because
    equidistribution parks nodes arbitrarily close to the extreme and an
    unfloored multiplicative step can then need far more moves than any
    practical cap (the floor is inactive for nodes beyond the midpoint,
    where the plain geometric growth takes over). An interval flanked by
    extremes on both ends admits no safe interior position once
    1 + 3 * growth_constant reaches 2, and the geometric step merely
    shuttles nodes around the midpoint there, so such nodes instead hop
    past the far end into the neighbouring interval (entry depth a
    ``nudge_factor``-scale fraction of that interval), from where the
    geometric rule can proceed.

    A geometric move that would reach or cross the far interval end is
    capped at the midpoint toward that end: the compliant sliver always
    lies inside the interval, and overshooting into the neighbouring old
    interval can put the node next to a different extreme and restart the
    correction march there. Moves past a domain endpoint are likewise
    capped at the midpoint between the node and that endpoint. So a walker
    never leaves its territory, except onto its right end when a midpoint
    rounds up to it; it scores 0 there, and counts only when the next old
    node is an extreme.

    The walks are independent because a node's score and move depend only
    on its own position, the fixed old mesh and the old extremes (found
    once per call). Each end point is bitwise where rounds of moves with a
    full rescan in between would leave that node: ``rounds`` is the longest
    walk and ``corrections`` the sum of the walk lengths, and the report's
    scores are each scanned node's last score, in the order of the nodes.
    Two nodes that meet stay together from then on, and a walker that
    lands on a resting node is compliant there and stops, so the end
    points show every collapse that a check after each round would find.
    One check at the end is therefore exact: nodes out of order are
    sorted; if a walked coordinate then equals another node, the walk has
    collapsed two nodes, and the proposal is mapped onto the compliant
    slivers instead (``_mapped``). Only then does a walk that hit the cap
    raise ``GuardConvergenceError`` with the largest score left.

    When no node offends, the proposed nodes are the output. Either way
    the output is checked once: nodes that are not finite and strictly
    increasing raise ``RemeshError``. The proposal is taken to be in
    increasing order and to span the old mesh, as equidistribution gives it.
    """
    x_old = old.mesh.nodes
    nodes = proposed.nodes
    territories = _territories(old, nodes)
    factor = 1.0 + 3.0 * params.growth_constant
    eps = params.nudge_factor
    a = float(nodes[0])
    b = float(nodes[-1])
    xs = []
    scores = []
    walkers = []
    ends = []
    lengths = []
    capped = []
    for k, (first, last, start, stop) in enumerate(territories):
        knots = x_old[first - 1 : last + 2].tolist()
        top = len(knots) - 2
        # A node pushed onto the territory's right end lies in the next
        # old interval, which is guarded only if the next run starts there.
        leaves = k + 1 == len(territories) or territories[k + 1][0] != last + 2
        for j, xj in enumerate(nodes[start:stop].tolist(), start):
            cell = min(max(bisect_right(knots, xj) - 1, 0), top)
            xl = knots[cell]
            xr = knots[cell + 1]
            moves = 0
            while True:
                left_ext = cell > 0
                right_ext = cell < top
                width = xr - xl
                from_left = (xr - xj) / width * factor if left_ext else -math.inf
                from_right = (xj - xl) / width * factor if right_ext else -math.inf
                use_left = from_left >= from_right
                score = from_left if use_left else from_right
                if score < 1.0:
                    break
                if moves == params.max_rounds:
                    capped.append(score)
                    break
                near, far, direction = (xl, xr, 1.0) if use_left else (xr, xl, -1.0)
                span = abs(xj - near)
                moved = xj + direction * (eps * max(span, 0.5 * width))
                if direction * (moved - far) >= 0.0:
                    moved = 0.5 * (xj + far)
                if left_ext and right_ext:
                    # The far end of a dual interval is an extreme, hence an
                    # interior knot of the run, so the interval beyond it
                    # exists. Entry depth shrinks with the node's distance
                    # from the nearer extreme, keeping nodes that hop out of
                    # one interval distinct.
                    dest = knots[cell + 2] - xr if use_left else xl - knots[cell - 1]
                    moved = far + direction * (eps * dest * (1.0 - 0.5 * span / width))
                if moved >= b:
                    moved = 0.5 * (xj + b)
                if moved <= a:
                    moved = 0.5 * (xj + a)
                xj = moved
                moves += 1
                if not xl <= xj < xr:
                    cell = min(max(bisect_right(knots, xj) - 1, 0), top)
                    xl = knots[cell]
                    xr = knots[cell + 1]
            if moves:
                walkers.append(j)
                ends.append(xj)
                lengths.append(moves)
                if leaves and xj >= knots[-1]:
                    continue
            xs.append(xj)
            scores.append(score)
    if not walkers:
        return _checked_mesh(nodes), _report(np.array(scores), 0, 0)
    x_new = nodes.copy()
    x_new[walkers] = ends
    if not (x_new[1:] > x_new[:-1]).all():
        x_new.sort()
        # A walked coordinate found twice collapsed onto another node.
        if (x_new.searchsorted(ends, side="right") - x_new.searchsorted(ends) > 1).any():
            return _mapped(x_old, territories, nodes, params.growth_constant)
        scores = [score for _x, score in sorted(zip(xs, scores))]
    if capped:
        raise GuardConvergenceError(
            f"proximity scores still reach {max(capped):.6g} "
            f"after {params.max_rounds} correction rounds"
        )
    return _checked_mesh(x_new), _report(np.array(scores), max(lengths), sum(lengths))


def _mapped(
    x_old: np.ndarray,
    territories: list[tuple[int, int, int, int]],
    nodes: np.ndarray,
    growth_constant: float,
) -> tuple[Mesh, ExtremeGuardReport]:
    """The proposal mapped monotonically onto the compliant slivers.

    Each territory [L, R] = [x_{first-1}, x_{last+1}] keeps its compliant
    part at the two ends: [L, L + f * (x_first - L)] and
    [R - f * (R - x_last), R], with f = ``_MAP_MARGIN`` / (1 + 3C). The
    proposed nodes ``nodes[start:stop]`` inside it are mapped affinely,
    [L, s] onto the left sliver and [s, R] onto the right one, where s
    splits [L, R] in the ratio of the two slivers. Both pieces have the
    slope (sum of the slivers) / (R - L), so nothing is divided by a sliver:
    when both round to zero width, the slope is 0 and the territory's nodes
    all go to L. Every score is then at most ``_MAP_MARGIN`` up to rounding,
    and nodes outside every territory do not move. Nodes a few ulps apart
    can still round together, which the output check raises as
    ``RemeshError``.
    """
    fraction = _MAP_MARGIN / (1.0 + 3.0 * growth_constant)
    mapped = nodes.copy()
    extreme = np.zeros(x_old.size, dtype=bool)
    for first, last, start, stop in territories:
        extreme[first : last + 1] = True
        left = x_old[first - 1]
        right = x_old[last + 1]
        left_sliver = fraction * (x_old[first] - left)
        slope = (left_sliver + fraction * (right - x_old[last])) / (right - left)
        inside = nodes[start:stop]
        offset = (inside - left) * slope
        mapped[start:stop] = np.where(
            offset <= left_sliver, left + offset, right - (right - inside) * slope
        )
    mesh = _checked_mesh(mapped)
    _indices, scores = _scan_guarded(x_old, extreme, mapped, growth_constant)
    return mesh, _report(scores, 1, int((mapped != nodes).sum()))


def _checked_mesh(nodes: np.ndarray) -> Mesh:
    """The guard's output mesh, after the step's one check of its nodes."""
    if not (np.isfinite(nodes).all() and (nodes[1:] > nodes[:-1]).all()):
        raise RemeshError("reconstructed mesh is not finite and strictly increasing")
    return _trusted(Mesh, nodes=nodes)


def interpolate_update(old: GridSolution, new_mesh: Mesh) -> GridSolution:
    """Transfer the solution to a new mesh by linear interpolation.

    Both meshes must span the same closed interval. Values at coinciding
    nodes are preserved bitwise and each transferred value stays within the
    range of its source segment, so the transfer never raises the maximum,
    lowers the minimum, or increases total variation.
    """
    new_nodes = new_mesh.nodes
    old_nodes = old.mesh.nodes
    if new_nodes[0] != old_nodes[0] or new_nodes[-1] != old_nodes[-1]:
        raise ValueError("new mesh must span the same interval as the old mesh")
    values = piecewise_linear_sample(old_nodes, old.values, new_nodes)
    return _trusted(GridSolution, mesh=new_mesh, values=values)


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


def extreme_clipping_residuals(
    old: GridSolution, new: GridSolution
) -> list[tuple[float, float]]:
    """Observed vs allowed oscillation size at each clipped old extreme.

    For every strict interior extreme of the old solution, find the new
    node nearest to it. If that node lies in one of the two old intervals
    adjacent to the extreme, linear interpolation pins its value exactly:
    the remaining departure from the far interval end's value is the
    relative distance to that far end times the old departure. Returns
    (observed, allowed) pairs; extremes whose nearest new node escaped both
    adjacent intervals are skipped.
    """
    x_old = old.mesh.nodes
    u_old = old.values
    x_new = new.mesh.nodes
    u_new = new.values
    out: list[tuple[float, float]] = []
    for i, _kind in detect_extremes(u_old):
        j = int(np.argmin(np.abs(x_new - x_old[i])))
        xj = x_new[j]
        if xj >= x_old[i]:
            far = i + 1
            width = x_old[far] - x_old[i]
            dist = xj - x_old[i]
        else:
            far = i - 1
            width = x_old[i] - x_old[far]
            dist = x_old[i] - xj
        if dist > width:
            continue
        allowed = (1.0 - dist / width) * abs(u_old[i] - u_old[far])
        observed = abs(u_new[j] - u_old[far])
        out.append((float(observed), float(allowed)))
    return out


def remesh_step(
    old: GridSolution,
    estimator: EstimatorParams,
    guard: ExtremeGuardParams,
) -> tuple[GridSolution, ExtremeGuardReport]:
    """One full mesh reconstruction plus solution transfer.

    Pipeline: curvature scores -> regularization -> cumulative monitor ->
    equidistribution with the same node count -> extreme-guard enforcement
    -> linear transfer of the solution onto the corrected mesh.
    """
    scores = regularize_curvature(discrete_curvature(old), estimator)
    monitor = build_monitor(old.mesh, scores)
    proposed = equidistribute(monitor, old.mesh.nodes.size)
    corrected, report = enforce_extreme_guard(old, proposed, guard)
    return interpolate_update(old, corrected), report
