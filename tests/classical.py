"""Reference forms and helpers that only the tests use.

The textbook uniform-grid stencils are written independently of the
package: they are the forms the non-uniform schemes must reduce to when
every cell has the same width h (interior nodes only; boundary values stay
fixed). The scan references are plain loops that the package's front
window and extreme guard (its scores, its walk, and the map it falls back
on when the walk collapses two nodes) must match, and so must the evolution
ratio that scores only the nodes a step changed and the curvature that
computes each segment slope once. The two front
diagnostics, one pass each over the front window, are what the package's
one-pass front measurement must match bitwise. The bound references are
the step recurrence, binomial closed form and contribution sum as written
on numpy scalars, which the package's plain-float forms must match
bitwise, and the share of one increase that is still alive at a later
step. The last helpers measure how far the transfer clips each old
extreme, a state's CFL number, and spot-check a flux for convexity.
"""

import numpy as np


def lax_wendroff_two_step(u, dt, h, flux):
    u = np.asarray(u, dtype=np.float64)
    f = flux(u)
    star = 0.5 * (u[:-1] + u[1:]) - (dt / (2.0 * h)) * (f[1:] - f[:-1])
    fstar = flux(star)
    out = u.copy()
    out[1:-1] = u[1:-1] - (dt / h) * (fstar[1:] - fstar[:-1])
    return out


def maccormack(u, dt, h, flux):
    u = np.asarray(u, dtype=np.float64)
    f = flux(u)
    star = u[:-1] - (dt / h) * (f[1:] - f[:-1])
    fstar = flux(star)
    # corrector at interior node i uses star[i] and star[i-1]
    dstar = star[1:] - (dt / h) * (fstar[1:] - fstar[:-1])
    out = u.copy()
    out[1:-1] = 0.5 * (u[1:-1] + dstar)
    return out


def forward_time_centered_space(u, dt, h, flux):
    u = np.asarray(u, dtype=np.float64)
    f = flux(u)
    out = u.copy()
    out[1:-1] = u[1:-1] - (dt / (2.0 * h)) * (f[2:] - f[:-2])
    return out


def front_window_two_pointer(values, fraction=0.9):
    """Smallest node window carrying ``fraction`` of the TV, by a two-pointer scan.

    Grows the window one jump at a time on the right and drops jumps on the
    left while the rest still carries the target; among windows of minimal
    length the leftmost one wins.
    """
    jumps = np.abs(np.diff(np.asarray(values, dtype=np.float64)))
    total = float(jumps.sum())
    if total <= 0.0:
        return None
    target = fraction * total
    best = None
    acc = 0.0
    lo = 0
    for hi in range(jumps.size):
        acc += jumps[hi]
        while acc - jumps[lo] >= target and lo < hi:
            acc -= jumps[lo]
            lo += 1
        if acc >= target and (best is None or hi - lo < best[1] - best[0]):
            best = (lo, hi)
    if best is None:
        return None
    return best[0], best[1] + 1


def evolution_ratio_every_node(before, after, denom_floor=1e-14):
    """The evolution ratio with every kept interior node scored, the
    unchanged ones too (each of those scores exactly 0)."""
    before = np.asarray(before, dtype=np.float64)
    after = np.asarray(after, dtype=np.float64)
    change = np.abs(after[1:-1] - before[1:-1])
    noise = np.spacing(np.maximum(np.abs(before[1:-1]), np.abs(after[1:-1])))
    change = np.maximum(change - noise, 0.0)
    diff = np.abs(before[1:] - before[:-1])
    denom = np.maximum(diff[:-1], diff[1:])
    keep = denom >= denom_floor
    if not keep.any():
        return 0.0
    return float((change[keep] / denom[keep]).max())


def discrete_curvature_per_node(x, u):
    """Graph curvature at every node, with the left, right and chord slopes
    of each interior node computed for that node alone."""
    span = x[2:] - x[:-2]
    slope_left = (u[1:-1] - u[:-2]) / (x[1:-1] - x[:-2])
    slope_right = (u[2:] - u[1:-1]) / (x[2:] - x[1:-1])
    slope_chord = (u[2:] - u[:-2]) / span
    denom = np.sqrt(
        (1.0 + slope_left**2) * (1.0 + slope_right**2) * (1.0 + slope_chord**2)
    )
    interior = (2.0 / span) * np.abs(slope_left - slope_right) / denom
    return np.concatenate([interior[:1], interior, interior[-1:]])


def measure_overshoot(values, reference_high, window):
    """Magnitude of the leading overshoot above the initial high state."""
    if window is None:
        return 0.0
    lo, hi = window
    peak = float(values[lo : hi + 1].max())
    return max(peak - reference_high, 0.0)


def measure_shock_increase(values, window, overshoot, growth_constant):
    """Fresh oscillation size at the shock top of the front ``window``.

    Takes the jump from the shock-top node (rightmost maximum inside the
    window) to its right neighbour, removes twice the overshoot, clamps at
    zero and scales by the growth constant; zero when the profile does not
    top out there (not at least its left neighbour, not strictly above its
    right one, or on the right boundary) or has no window at all.
    """
    if overshoot < 0.0:
        raise ValueError("overshoot must be non-negative")
    if window is None:
        return 0.0
    lo, hi = window
    segment = values[lo : hi + 1]
    top_local = int((segment == segment.max()).nonzero()[0][-1])
    top = lo + top_local
    if top + 1 >= values.size:
        return 0.0
    if top > 0 and values[top] < values[top - 1]:
        return 0.0
    if not values[top] > values[top + 1]:
        return 0.0
    raw = max(abs(float(values[top] - values[top + 1])) - 2.0 * overshoot, 0.0)
    return growth_constant * raw


def proximity_scores_reference(x_old, extreme, proposed_nodes, growth_constant):
    """Indices and scores of the proposed interior nodes next to an old extreme.

    One node at a time: a node in the old interval [x_i, x_{i+1}) (the last
    interval also holds its right end) with a strict extreme at one end
    scores (1 + 3C) times its relative distance from the other end; with
    extremes at both ends the larger score counts.
    """
    factor = 1.0 + 3.0 * growth_constant
    indices = []
    scores = []
    for j in range(1, len(proposed_nodes) - 1):
        x = float(proposed_nodes[j])
        i = int(np.searchsorted(x_old, x, side="right")) - 1
        i = min(max(i, 0), len(x_old) - 2)
        left = float(x_old[i])
        right = float(x_old[i + 1])
        candidates = []
        if extreme[i]:
            candidates.append((right - x) / (right - left) * factor)
        if extreme[i + 1]:
            candidates.append((x - left) / (right - left) * factor)
        if candidates:
            indices.append(j)
            scores.append(max(candidates))
    return np.array(indices, dtype=np.intp), np.array(scores, dtype=np.float64)


def extreme_guard_full_rescan(x_old, extreme, proposed_nodes, params, paths=None):
    """The extreme guard's nudge loop with one vectorised rescan of every node per round.

    ``x_old`` are the old mesh nodes, ``extreme`` the mask of the old
    solution's strict interior extremes on them. Returns the corrected
    nodes, the final scores of the affected nodes (in node order), the
    rounds and the corrections. The step factor and the round cap are the
    package's ``remesh._NUDGE`` and ``remesh._MAX_MOVES``, read at call time.
    Raises ``RemeshError`` once that many rounds leave a score of 1 or more,
    and when sorting after a round leaves two equal coordinates. When
    ``paths`` is a set, the names of the rare branches taken ("dual" for a
    hop out of an interval flanked by two extremes, "sort" for a round that
    broke the ordering) are added to it.
    """
    from shockmesh import remesh
    from shockmesh.remesh import RemeshError

    factor = 1.0 + 3.0 * params.growth_constant
    nodes = np.array(proposed_nodes, dtype=np.float64)
    a = nodes[0]
    b = nodes[-1]
    eps = remesh._NUDGE
    max_rounds = remesh._MAX_MOVES
    corrections = 0
    for rounds in range(max_rounds + 1):
        x_new = nodes[1:-1]
        cell = np.clip(np.searchsorted(x_old, x_new, side="right") - 1, 0, x_old.size - 2)
        sel = np.flatnonzero(extreme[cell] | extreme[cell + 1])
        cell = cell[sel]
        left_ext = extreme[cell]
        right_ext = extreme[cell + 1]
        xj = x_new[sel]
        xl = x_old[cell]
        xr = x_old[cell + 1]
        width = xr - xl
        score_from_left = np.where(left_ext, (xr - xj) / width * factor, -np.inf)
        score_from_right = np.where(right_ext, (xj - xl) / width * factor, -np.inf)
        use_left = score_from_left >= score_from_right
        scores = np.where(use_left, score_from_left, score_from_right)
        if scores.size == 0 or scores.max() < 1.0:
            return nodes, scores, rounds, corrections
        if rounds == max_rounds:
            raise RemeshError(
                f"proximity scores still reach {scores.max():.6g} "
                f"after {max_rounds} correction rounds"
            )
        near = np.where(use_left, xl, xr)
        far = np.where(use_left, xr, xl)
        dest_right = x_old[np.minimum(cell + 2, x_old.size - 1)] - xr
        dest_left = xl - x_old[np.maximum(cell - 1, 0)]
        dest_width = np.where(use_left, dest_right, dest_left)
        dual = left_ext & right_ext

        bad = scores >= 1.0
        idx = sel[bad] + 1
        xj = nodes[idx]
        near = near[bad]
        far = far[bad]
        width = width[bad]
        direction = np.sign(far - near)
        span = np.abs(xj - near)
        step = eps * np.maximum(span, 0.5 * width)
        moved = xj + direction * step
        overshoot = direction * (moved - far) >= 0.0
        moved = np.where(overshoot, 0.5 * (xj + far), moved)
        dual = dual[bad]
        if np.any(dual):
            if paths is not None:
                paths.add("dual")
            depth = eps * dest_width[bad] * (1.0 - 0.5 * span / width)
            moved = np.where(dual, far + direction * depth, moved)
        moved = np.where(moved >= b, 0.5 * (xj + b), moved)
        moved = np.where(moved <= a, 0.5 * (xj + a), moved)
        nodes[idx] = moved
        corrections += int(idx.size)
        if not np.all(np.diff(nodes) > 0.0):
            if paths is not None:
                paths.add("sort")
            nodes.sort()
            if np.any(np.diff(nodes) == 0.0):
                raise RemeshError("corrections collapsed two nodes onto one point")
    raise AssertionError("unreachable")


def extreme_guard_map_reference(x_old, extreme, proposed_nodes, params, theta):
    """The extreme guard's collapse map, one proposed node at a time.

    Each maximal run of consecutive old extremes x_first..x_last owns the
    territory [L, R) = [x_{first-1}, x_{last+1}). An interior proposed node
    inside it moves to L + d when its scaled offset d = (x - L) * slope is at
    most the left sliver f * (x_first - L), and otherwise to
    R - (R - x) * slope, where f = theta / (1 + 3C) and slope is the sum of
    the two slivers over R - L. Returns what ``extreme_guard_full_rescan``
    returns, with rounds 1 and the number of moved nodes as corrections.
    Raises the package's ``RemeshError`` when the mapped nodes are not
    strictly increasing.
    """
    from shockmesh.remesh import RemeshError

    runs = []
    for i in range(1, len(x_old) - 1):
        if extreme[i]:
            if runs and runs[-1][1] == i - 1:
                runs[-1][1] = i
            else:
                runs.append([i, i])
    fraction = theta / (1.0 + 3.0 * params.growth_constant)
    nodes = np.array(proposed_nodes, dtype=np.float64)
    moved = 0
    for j in range(1, nodes.size - 1):
        x = float(nodes[j])
        for first, last in runs:
            left = float(x_old[first - 1])
            right = float(x_old[last + 1])
            if left <= x < right:
                left_sliver = fraction * (float(x_old[first]) - left)
                right_sliver = fraction * (right - float(x_old[last]))
                slope = (left_sliver + right_sliver) / (right - left)
                offset = (x - left) * slope
                if offset <= left_sliver:
                    nodes[j] = left + offset
                else:
                    nodes[j] = right - (right - x) * slope
                moved += int(nodes[j] != x)
                break
    if not np.all(np.diff(nodes) > 0.0):
        raise RemeshError("reconstructed mesh is not finite and strictly increasing")
    nodes, scores, _rounds, _corrections = extreme_guard_full_rescan(
        x_old, extreme, nodes, params
    )
    return nodes, scores, 1, moved


def increase_at(params, step):
    """a_step for step >= 1, read as zero past the end of ``params.increases``."""
    if step > params.increases.size:
        return 0.0
    return float(params.increases[step - 1])


def extreme_bound_table_reference(params, last_step):
    """The extreme-magnitude recurrence, filling a numpy table entry by entry."""
    lam = params.clip_factor
    c = params.growth_constant
    grow = 1.0 + 2.0 * c
    table = np.zeros((last_step + 1, last_step + 1))
    for k in range(1, last_step + 1):
        table[1, k] = lam * (grow * table[1, k - 1] + increase_at(params, k))
        for m in range(2, k + 1):
            table[m, k] = lam * (grow * table[m, k - 1] + c * table[m - 1, k - 1])
    return table


def _binomial_diagonal(top_offset, count):
    """binom(top_offset + j, j) for j = 0..count-1 by the float recurrence.

    Exact while top_offset + j <= 54; past that, within 2**-51 relative up
    to top_offset + j = 59.
    """
    out = np.empty(count)
    value = 1.0
    out[0] = value
    for j in range(1, count):
        value = value * (top_offset + j) / j
        out[j] = value
    return out


def extreme_bound_closed_form_reference(params, m, k):
    """The binomial closed form over a numpy binomial diagonal, for 1 <= m <= k."""
    lam = params.clip_factor
    c = params.growth_constant
    terms = k - m + 1
    binom = _binomial_diagonal(m - 1, terms)
    ratio = lam * (1.0 + 2.0 * c)
    total = 0.0
    power = 1.0
    for j in range(terms):
        total += binom[j] * power * increase_at(params, k - m + 1 - j)
        power *= ratio
    return lam**m * c ** (m - 1) * total


def increase_contribution(params, m, k):
    """Share of the step-m increase still alive at step k.

    The increase a_m enters once and is then multiplied by the coupling
    sum λ + 3λC each subsequent step: λ(λ+3λC)^(k-m) a_m. Zero before the
    increase occurs (k < m).
    """
    if k < m:
        return 0.0
    return params.clip_factor * params.coupling_sum ** (k - m) * increase_at(params, m)


def total_increase_contribution_reference(params, k):
    """Sum of the per-increase contributions alive at step k, term by term."""
    total = 0.0
    for m in range(1, k + 1):
        total += params.coupling_sum ** (k - m) * increase_at(params, m)
    return params.clip_factor * total


def extreme_clipping_residuals(old, new):
    """Observed vs allowed oscillation size at each clipped old extreme.

    For every strict interior extreme of the old solution, find the new
    node nearest to it. If that node lies in one of the two old intervals
    adjacent to the extreme, linear interpolation pins its value exactly:
    the remaining departure from the far interval end's value is the
    relative distance to that far end times the old departure. Returns
    (observed, allowed) pairs; extremes whose nearest new node escaped both
    adjacent intervals are skipped.
    """
    from shockmesh import detect_extremes

    x_old = old.mesh.nodes
    u_old = old.values
    x_new = new.mesh.nodes
    u_new = new.values
    out = []
    for i in detect_extremes(u_old).tolist():
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


def cfl_number(solution, problem, dt):
    """CFL number dt * max|f'(u)| / min cell width for the given state."""
    from shockmesh import CellGeometry

    widths = CellGeometry.from_mesh(solution.mesh).widths
    speed = float(np.max(np.abs(problem.dflux(solution.values))))
    return dt * speed / float(widths.min())


def validate_flux_convexity(problem, lo, hi, samples=33, tol=1e-12):
    """Spot-check that f' is nondecreasing on [lo, hi].

    Raises ValueError when a sampled derivative decreases by more than
    ``tol`` times the derivative scale. A constant derivative (linear flux)
    passes.
    """
    if not hi >= lo:
        raise ValueError("empty sampling range")
    probe = np.linspace(lo, hi, samples)
    slopes = np.asarray(problem.dflux(probe), dtype=np.float64)
    scale = max(float(np.max(np.abs(slopes))), 1.0)
    if np.any(np.diff(slopes) < -tol * scale):
        raise ValueError(f"flux of problem '{problem.name}' is not convex on [{lo}, {hi}]")
