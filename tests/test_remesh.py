"""Extreme-proximity guard, solution transfer and the smoothing identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classical
import shockmesh.driver as driver
import shockmesh.grid as grid
import shockmesh.remesh as remesh
from shockmesh import (
    EstimatorParams,
    ExtremeGuardParams,
    GridSolution,
    Mesh,
    RemeshError,
    build_monitor,
    discrete_curvature,
    enforce_extreme_guard,
    equidistribute,
    interpolation_smoothing_residual,
    make_jump_initial,
    piecewise_linear_sample,
    regularize_curvature,
    remesh_step,
    run_simulation,
    total_variation,
)
from shockmesh.cli import build_run_config, parse_config
from shockmesh.grid import _trusted, detect_extremes


def peaked_solution():
    """Strict interior maximum at x = 0 inside the old mesh [-1, 2]."""
    mesh = Mesh(np.array([-1.0, 0.0, 1.0, 2.0]))
    return GridSolution(mesh, np.array([0.0, 1.0, 0.0, -1.0]))


def test_sample_at_knots_is_bitwise():
    xs = np.array([0.0, 0.3, 0.77, 1.0])
    ys = np.array([0.1, -2.3, 4.5, 0.9])
    out = piecewise_linear_sample(xs, ys, xs)
    assert np.array_equal(out, ys)


def test_sample_midpoint_is_mean():
    xs = np.array([0.0, 1.0])
    ys = np.array([2.0, 6.0])
    assert piecewise_linear_sample(xs, ys, np.array([0.5]))[0] == 4.0
    assert piecewise_linear_sample([0.0, 1.0], [2.0, 6.0], [0.5])[0] == 4.0


@given(
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=12),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
)
@settings(max_examples=80, deadline=None)
def test_sample_stays_in_segment_range(ys, queries):
    xs = np.linspace(0.0, 1.0, len(ys))
    ys = np.asarray(ys)
    out = piecewise_linear_sample(xs, ys, np.asarray(queries))
    assert np.all(out >= ys.min() - 1e-15)
    assert np.all(out <= ys.max() + 1e-15)


@st.composite
def guessed_cells(draw):
    """Knots, values, queries that often sit on a knot, and a guess of each
    query's cell that is right, off by one or anything at all."""
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=15))
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    ys = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=xs.size, max_size=xs.size)))
    pick = st.tuples(st.booleans(), st.integers(0, xs.size - 1), st.floats(0.0, 1.0))
    picks = draw(st.lists(pick, min_size=1, max_size=25))
    queries = np.array([xs[i] if on_knot else t * xs[-1] for on_knot, i, t in picks])
    truth = grid._interval_index(xs, queries)

    def per_query(strategy):
        return np.array(draw(st.lists(strategy, min_size=truth.size, max_size=truth.size)))

    how = draw(st.sampled_from(["right", "off_by_one", "random"]))
    if how == "right":
        cells = truth
    elif how == "off_by_one":
        cells = np.clip(truth + per_query(st.sampled_from([-1, 1])), 0, xs.size - 2)
    else:
        cells = per_query(st.integers(0, xs.size - 2))
    return xs, ys, queries, cells.astype(np.intp)


@given(guessed_cells())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_sample_from_guessed_cells_is_bitwise_the_full_search(case):
    xs, ys, queries, cells = case
    given_cells = cells.copy()
    out = grid._sample_near(xs, ys, queries, cells)
    assert out.tobytes() == piecewise_linear_sample(xs, ys, queries).tobytes()
    assert np.array_equal(cells, given_cells)


def test_sample_from_guessed_cells_searches_only_the_misses(monkeypatch):
    # Node 2 sits on the knot shared by its guessed cell and the next one,
    # node 3 outside its guess: only node 3 is looked up.
    looked_up = []
    real = grid._interval_index

    def recording(knots, x):
        looked_up.append(x.tolist())
        return real(knots, x)

    monkeypatch.setattr(grid, "_interval_index", recording)
    xs = np.array([0.0, 0.25, 0.5, 1.0])
    queries = np.array([0.0, 0.1, 0.5, 0.75, 1.0])
    out = grid._sample_near(xs, xs**2, queries, np.array([0, 0, 1, 0, 2]))
    assert looked_up == [[0.75]]
    assert out.tobytes() == piecewise_linear_sample(xs, xs**2, queries).tobytes()


def extreme_mask(old):
    """Boolean mask of the old solution's strict interior extremes."""
    extreme = np.zeros(len(old), dtype=bool)
    extreme[detect_extremes(old.values)] = True
    return extreme


def proximity_scores(old, proposed, growth_constant):
    """Indices and scores of the guarded proposed nodes."""
    return classical.proximity_scores_reference(
        old.mesh.nodes, extreme_mask(old), proposed.nodes, growth_constant
    )


def test_proximity_scores_monotone_data_empty():
    mesh = Mesh.uniform(5)
    sol = GridSolution(mesh, np.linspace(0.0, 1.0, 5))
    idx, scores = proximity_scores(sol, Mesh.uniform(7), 1.0)
    assert idx.size == 0 and scores.size == 0


def test_proximity_score_formula():
    # node halfway across an interval flanked by one extreme, C=1:
    # score = 0.5 * (1 + 3) = 2
    old = peaked_solution()
    proposed = Mesh(np.array([-1.0, 0.5, 2.0]))
    idx, scores = proximity_scores(old, proposed, 1.0)
    assert idx.tolist() == [1]
    assert scores.tolist() == [2.0]


def test_node_on_extreme_scores_full_factor():
    old = peaked_solution()
    proposed = Mesh(np.array([-1.0, 0.0, 2.0]))
    _idx, scores = proximity_scores(old, proposed, 1.0)
    assert scores.tolist() == [4.0]  # 1 + 3C exactly


def test_enforcement_three_round_walk():
    # distances from the extreme grow 0.5 -> 0.6 -> 0.72 -> 0.864 with a
    # 0.2 nudge; the score drops below 1 once the node passes 0.75
    old = peaked_solution()
    proposed = Mesh(np.array([-1.0, 0.5, 2.0]))
    params = ExtremeGuardParams(growth_constant=1.0)
    fixed, report = enforce_extreme_guard(old, proposed, params)
    assert fixed.nodes[1] == pytest.approx(0.864, rel=1e-12)
    assert report.rounds == 3
    assert report.corrections == 3
    assert report.max_score < 1.0


def test_enforcement_detects_old_extremes_once_per_call(monkeypatch):
    calls = []
    original = remesh.detect_extremes

    def counting(values):
        calls.append(1)
        return original(values)

    monkeypatch.setattr(remesh, "detect_extremes", counting)
    old = peaked_solution()
    proposed = Mesh(np.array([-1.0, 0.5, 2.0]))
    _, report = enforce_extreme_guard(old, proposed, ExtremeGuardParams(growth_constant=1.0))
    assert report.rounds == 3
    assert len(calls) == 1


def test_enforcement_scores_only_the_nodes_next_to_an_extreme(monkeypatch):
    # One strict maximum on an N = 1600 mesh, and a proposal whose node just
    # right of it must walk: the guard scores and walks that territory's few
    # nodes without a vectorised interval lookup over the mesh.
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(grid, "_interval_index", counted(grid._interval_index))
    mesh = Mesh.uniform(1600)
    values = np.where(mesh.nodes < 0.5, 1.0, 0.0)
    values[799] = 1.5
    proposed = mesh.nodes.copy()
    proposed[799] += 0.1 * (proposed[800] - proposed[799])
    fixed, report = enforce_extreme_guard(
        GridSolution(mesh, values), Mesh(proposed), ExtremeGuardParams(growth_constant=1.0)
    )
    assert report.corrections >= 1 and report.max_score < 1.0
    assert fixed.nodes[799] > proposed[799]
    assert calls == []


def test_enforcement_no_op_when_already_safe():
    old = peaked_solution()
    proposed = Mesh(np.array([-1.0, 0.9, 2.0]))  # score 0.4 < 1
    fixed, report = enforce_extreme_guard(
        old, proposed, ExtremeGuardParams(growth_constant=1.0)
    )
    assert np.array_equal(fixed.nodes, proposed.nodes)
    assert report.rounds == 0
    assert report.corrections == 0


def test_enforcement_degenerate_threshold_is_no_op():
    # growth constant 0 makes the factor 1; interior nodes always pass
    old = peaked_solution()
    proposed = Mesh(np.array([-1.0, 0.5, 2.0]))
    fixed, report = enforce_extreme_guard(
        old, proposed, ExtremeGuardParams(growth_constant=0.0)
    )
    assert np.array_equal(fixed.nodes, proposed.nodes)
    assert report.corrections == 0


def test_enforcement_node_exactly_on_extreme_is_corrected():
    old = peaked_solution()
    proposed = Mesh(np.array([-1.0, 0.0, 2.0]))
    fixed, report = enforce_extreme_guard(
        old, proposed, ExtremeGuardParams(growth_constant=0.0)
    )
    assert fixed.nodes[1] > 0.0
    assert report.corrections >= 1


def test_enforcement_escapes_interval_flanked_by_two_extremes():
    # zig-zag: three consecutive strict extremes; both intervals between
    # them admit no safe position for C = 1, so nodes must be evacuated
    mesh = Mesh(np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
    values = np.array([0.0, 1.0, 0.1, 1.5, 0.2, 0.0])
    old = GridSolution(mesh, values)
    proposed = Mesh(np.array([0.0, 0.3, 0.45, 0.55, 1.0]))
    params = ExtremeGuardParams(growth_constant=1.0)
    fixed, report = enforce_extreme_guard(old, proposed, params)
    assert np.all(np.diff(fixed.nodes) > 0.0)
    assert report.max_score < 1.0
    assert report.rounds <= remesh._MAX_MOVES


@pytest.mark.parametrize("tail", [[1.5, 1.5], [np.nan, 1.5]])
@pytest.mark.parametrize("first", [0.9, 0.5])  # 0.5 offends and is corrected
def test_enforcement_rejects_a_bad_output_mesh(tail, first):
    # Proposals come from internal code and skip the public Mesh checks, so
    # the guard's one check of its output catches a duplicate node or one
    # that is not finite, with and without correction rounds.
    old = peaked_solution()
    proposed = _trusted(Mesh, nodes=np.array([-1.0, first, *tail, 2.0]))
    params = ExtremeGuardParams(growth_constant=1.0)
    with pytest.raises(RemeshError, match="not finite and strictly increasing"):
        enforce_extreme_guard(old, proposed, params)


def test_enforcement_round_cap_maps(monkeypatch):
    # The walk from 0.5 needs three moves; with a cap of one the proposal is
    # mapped instead: [-1, 1) onto slivers of 0.125 at each end, so 0.5 goes
    # to 1 - 0.5 * 0.125, where it scores 0.0625 * (1 + 3C).
    monkeypatch.setattr(remesh, "_MAX_MOVES", 1)
    old = peaked_solution()
    proposed = Mesh(np.array([-1.0, 0.5, 2.0]))
    params = ExtremeGuardParams(growth_constant=1.0)
    fixed, report = enforce_extreme_guard(old, proposed, params)
    assert fixed.nodes.tolist() == [-1.0, 0.9375, 2.0]
    assert (report.rounds, report.corrections) == (1, 1)
    assert report.max_score == 0.25


def guard_outcome(guard, *args):
    """What a guard call gives: its result, or the RemeshError it raised."""
    try:
        return guard(*args)
    except RemeshError as exc:
        return exc


COLLAPSE = "corrections collapsed two nodes onto one point"
CAP = "proximity scores still reach"


def assert_guard_matches_full_rescan(old, proposed, params, paths=None, walk=None):
    """Run the guard and the full-rescan reference; demand bitwise agreement.

    ``walk`` maps the walk's module constants (``_NUDGE``, ``_MAX_MOVES``)
    to the values both sides run with. Where the reference's walk collapses
    two nodes or hits the move cap, the guard must give what the plain-loop
    map reference gives for the same proposal ("map" is then added to
    ``paths``, and "cap" too for the move cap).
    """
    args = (old.mesh.nodes, extreme_mask(old), proposed.nodes, params)
    with pytest.MonkeyPatch.context() as patch:
        for name, value in (walk or {}).items():
            patch.setattr(remesh, name, value)
        expected = guard_outcome(classical.extreme_guard_full_rescan, *args, paths)
        got = guard_outcome(enforce_extreme_guard, old, proposed, params)
    if isinstance(expected, RemeshError) and str(expected).startswith((COLLAPSE, CAP)):
        if paths is not None:
            paths.add("map")
            if str(expected).startswith(CAP):
                paths.add("cap")
        expected = guard_outcome(
            classical.extreme_guard_map_reference, *args, remesh._MAP_MARGIN
        )
    if isinstance(expected, RemeshError):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        return expected
    assert not isinstance(got, RemeshError), got
    nodes, scores, rounds, corrections = expected
    mesh, report = got
    assert mesh.nodes.tobytes() == nodes.tobytes()
    max_score = float(scores.max()) if scores.size else 0.0
    mean_score = float(scores.mean()) if scores.size else 0.0
    assert report.max_score.hex() == max_score.hex()
    assert report.mean_score.hex() == mean_score.hex()
    assert report.rounds == rounds
    assert report.corrections == corrections
    return expected


@st.composite
def guard_cases(draw):
    """Old meshes with stepped data (so adjacent extremes occur) and crowded proposals."""
    n_old = draw(st.integers(3, 9))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n_old - 1, max_size=n_old - 1))
    x_old = np.concatenate(([0.0], np.cumsum(gaps)))
    levels = draw(st.lists(st.integers(0, 3), min_size=n_old, max_size=n_old))
    old = GridSolution(Mesh(x_old), np.asarray(levels, dtype=np.float64))
    picks = st.tuples(
        st.integers(0, n_old - 2),
        st.one_of(
            st.sampled_from([0.0, 0.5]),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1e-3),
            st.floats(0.999, 1.0),
        ),
        st.integers(0, 3),
    )
    interior = []
    for cell, t, ulps in draw(st.lists(picks, min_size=1, max_size=24)):
        x = x_old[cell] + t * (x_old[cell + 1] - x_old[cell])
        for _ in range(ulps):
            x = math.nextafter(x, math.inf)
        interior.append(x)
    a, b = x_old[0], x_old[-1]
    interior = np.unique([x for x in interior if a < x < b])
    proposed = Mesh(np.concatenate(([a], interior, [b])))
    params = ExtremeGuardParams(growth_constant=draw(st.floats(0.0, 3.0)))
    walk = {
        "_NUDGE": draw(st.floats(0.01, 0.9)),
        "_MAX_MOVES": draw(st.integers(1, 12)),
    }
    return old, proposed, params, walk


def test_guard_matches_full_rescan_reference():
    seen = set()

    @given(guard_cases())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def check(case):
        old, proposed, params, walk = case
        outcome = assert_guard_matches_full_rescan(old, proposed, params, seen, walk)
        seen.add(type(outcome))

    check()
    assert {"sort", "dual", "map", RemeshError, "cap"} <= seen


ULP = math.ulp(1.0)


def rare_guard_cases():
    zigzag = GridSolution(Mesh(np.arange(5.0)), np.array([0.0, 1.0, 0.0, 1.0, 0.0]))
    spike = GridSolution(Mesh(np.arange(4.0)), np.array([0.0, 0.0, 1.0, 0.0]))
    peak = GridSolution(Mesh(np.array([0.0, 1.9, 2.9])), np.array([0.0, 1.0, 0.0]))
    edge = Mesh(np.array([0.0, 1.0, 1.0 + 2.0 * ULP, 3.0, 4.0]))
    # The walk from 1.5 ends on the compliant node at 1.999999740600586 when
    # C = 1e6, so the proposal is mapped; the map sends the node one ulp
    # below 2 onto 2, the right end of the territory [0, 2) of the extreme
    # at 1.
    onto_end = Mesh(np.array([0.0, 1.5, 1.999999740600586, 2.0 - ULP, 4.0]))
    long_steps = {"_NUDGE": 0.9}
    one_move = {"_MAX_MOVES": 1}
    # Each case is (old, proposed, params, walk constants to patch).
    return {
        # midpoint of an interval between two extremes: equal scores, the
        # left end governs
        "tie": (zigzag, Mesh(np.array([0.0, 1.5, 4.0])), ExtremeGuardParams(1.0), {}),
        # a node stepping left past its compliant predecessor
        "crossing": (
            spike,
            Mesh(np.array([0.0, 1.47, 1.9, 3.0])),
            ExtremeGuardParams(1.0 / 3.0),
            long_steps,
        ),
        # two nodes one ulp apart that the walk rounds onto one point, and
        # so does the map
        "collapse": (
            peak,
            Mesh(np.array([0.0, 1.900000001, 1.9000000010000002, 2.9])),
            ExtremeGuardParams(1.0),
            {},
        ),
        "round_cap": (
            peaked_solution(),
            Mesh(np.array([-1.0, 0.5, 2.0])),
            ExtremeGuardParams(1.0),
            one_move,
        ),
        # the 0.5 walk (0.5 -> 0.6 -> 0.72 -> 0.864) lands on its compliant
        # successor on its third move; the map keeps the two apart
        "landing": (
            peaked_solution(),
            Mesh(np.array([-1.0, 0.5, 0.864, 2.0])),
            ExtremeGuardParams(1.0),
            {},
        ),
        # the one-ulp pair collapses on its first move, while the node at
        # 1.0 needs three moves: the reference raises the collapse, not the
        # round cap, and the map rounds the pair together too
        "collapse_before_cap": (
            peak,
            Mesh(np.array([0.0, 1.0, 1.900000001, 1.9000000010000002, 2.9])),
            ExtremeGuardParams(1.0),
            one_move,
        ),
        # the node between 1 and the float two ulps above it walks onto that
        # end of its run's territory, in the next interval, where it has no
        # score; 0.1 keeps its 0.4
        "exit": (
            GridSolution(edge, np.array([0.0, 1.0, 0.5, 0.25, 0.0])),
            Mesh(np.array([0.0, 0.1, 1.0 + ULP, 4.0])),
            ExtremeGuardParams(1.0),
            long_steps,
        ),
        # the same walk, but that next interval ends at an extreme, so the
        # node keeps its score 0 there
        "exit_next_run": (
            GridSolution(edge, np.array([0.0, 1.0, 0.5, 0.2, 0.3])),
            Mesh(np.array([0.0, 0.1, 1.0 + ULP, 4.0])),
            ExtremeGuardParams(1.0),
            long_steps,
        ),
        # the mapped node on 2 lies in the old interval [2, 3), where it has
        # no score
        "map_end": (
            GridSolution(Mesh(np.arange(5.0)), np.array([0.0, 1.0, 0.5, 0.25, 0.0])),
            onto_end,
            ExtremeGuardParams(1e6),
            {},
        ),
        # the same map, but the next run of extremes starts at 3, so that
        # interval is guarded and the node scores 0 there
        "map_end_next_run": (
            GridSolution(Mesh(np.arange(5.0)), np.array([0.0, 1.0, 0.5, 0.0, 1.0])),
            onto_end,
            ExtremeGuardParams(1e6),
            {},
        ),
    }


@pytest.mark.parametrize("name", sorted(rare_guard_cases()))
def test_guard_matches_full_rescan_on_rare_geometries(name):
    paths = set()
    old, proposed, params, walk = rare_guard_cases()[name]
    outcome = assert_guard_matches_full_rescan(old, proposed, params, paths, walk)
    expected = {
        "tie": {"dual"},
        "crossing": {"sort"},
        "collapse": {"sort", "map", RemeshError},
        "round_cap": {"cap", "map", tuple},
        "landing": {"sort", "map", tuple},
        "collapse_before_cap": {"sort", "map", RemeshError},
        "exit": {tuple},
        "exit_next_run": {tuple},
        "map_end": {"sort", "map", tuple},
        "map_end_next_run": {"sort", "map", tuple},
    }[name]
    assert paths | {type(outcome)} >= expected
    if name.startswith("exit"):
        _nodes, scores, rounds, _corrections = outcome
        assert rounds == 1 and scores.size == (1 if name == "exit" else 2)
    if name.startswith("map_end"):
        nodes, scores, _rounds, _corrections = outcome
        assert nodes[3] == 2.0 and scores.size == (2 if name == "map_end" else 3)


def zigzag_of_sixty():
    """Old nodes 0..61 whose values zigzag, so 1..60 are one run of extremes."""
    values = np.zeros(62)
    values[1:61:2] = 1.0
    values[61] = 0.5
    return GridSolution(Mesh(np.arange(62.0)), values)


@pytest.mark.parametrize(
    "old, proposed, growth_constant",
    [
        # the walker from 1.05 hops through one dual interval per move
        (zigzag_of_sixty(), Mesh(np.array([0.0, 1.05, 61.0])), 1.0),
        # a node on the extreme scores 1 + 3C, more than 50 moves can undo
        (
            GridSolution(Mesh(np.arange(4.0)), np.array([0.0, 1.0, 0.0, 0.0])),
            Mesh(np.array([0.0, 1.0, 2.5, 3.0])),
            1e14,
        ),
    ],
    ids=["zigzag", "large_c"],
)
def test_walk_past_the_move_cap_is_mapped(old, proposed, growth_constant):
    params = ExtremeGuardParams(growth_constant)
    mesh, report = enforce_extreme_guard(old, proposed, params)
    assert (np.diff(mesh.nodes) > 0.0).all()
    assert report.max_score <= remesh._MAP_MARGIN * (1.0 + 1e-9)
    paths = set()
    assert_guard_matches_full_rescan(old, proposed, params, paths)
    assert {"cap", "map"} <= paths


def test_guard_matches_full_rescan_on_a_collapsing_run(monkeypatch):
    # Richtmyer on Burgers at N = 1600 with the jump at this x0: the walk
    # collapses two nodes in the guard call after step 176, where the map
    # takes over and the run completes. Every guard call must agree with the
    # full-rescan reference, or with the map reference where that collapses.
    # Each call, mapping or not, checks its output mesh once.
    run_settings = parse_config(
        "problem = burgers\nscheme = richtmyer\nn = 1600\ncfl = 0.5\n"
        "t_final = 0.006\nx0 = 0.42883192254392677\n"
    )
    mapped = []
    checks = []
    real_checked_mesh = remesh._checked_mesh

    def counting(nodes):
        checks[-1] += 1
        return real_checked_mesh(nodes)

    def checked(old, proposed, params):
        paths = set()
        checks.append(0)
        assert_guard_matches_full_rescan(old, proposed, params, paths)
        mapped.append("map" in paths)
        checks[-1] = 0
        return enforce_extreme_guard(old, proposed, params)

    monkeypatch.setattr(remesh, "enforce_extreme_guard", checked)
    monkeypatch.setattr(remesh, "_checked_mesh", counting)
    result = run_simulation(build_run_config(run_settings))
    assert len(mapped) == len(result.records) > 177
    assert mapped.index(True) == 176
    assert checks == [1] * len(mapped)


@st.composite
def map_cases(draw):
    """Old meshes with stepped data and proposals that may repeat old nodes."""
    old, proposed, params, _walk = draw(guard_cases())
    if draw(st.booleans()):
        proposed = old.mesh
    return old, proposed, params.growth_constant


@given(map_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_collapse_map_keeps_order_and_the_margin(case):
    old, proposed, growth_constant = case
    x_old = old.mesh.nodes
    territories = remesh._territories(old, proposed.nodes)
    factor = 1.0 + 3.0 * growth_constant
    nodes = remesh._mapped(x_old, territories, proposed.nodes, factor)
    assert (np.diff(nodes) >= 0.0).all()
    outside = np.ones(nodes.size, dtype=bool)
    for _first, _last, start, stop in territories:
        outside[start:stop] = False
    assert nodes[outside].tobytes() == proposed.nodes[outside].tobytes()
    # The guard scores the mapped nodes with its walk, in which none moves.
    walked, scores, rounds, corrections = remesh._walk(x_old, territories, nodes, factor)
    assert walked is nodes and (rounds, corrections) == (0, 0)
    assert max(scores, default=0.0) <= remesh._MAP_MARGIN * (1.0 + 1e-9)
    if (np.diff(nodes) > 0.0).all():
        _indices, expected = classical.proximity_scores_reference(
            x_old, extreme_mask(old), nodes, growth_constant
        )
        assert np.array(scores).tobytes() == expected.tobytes()


def assert_guard_contracts(old, proposed, params):
    """Check the guard's guarantees on one call, from its outputs alone.

    Whatever the call does, it runs ``detect_extremes`` once. Unless it
    raises ``RemeshError``:
    - the output nodes are finite and strictly increasing;
    - both end nodes, and every node outside all territories, are bitwise
      the proposal's. The territories together are the old intervals with
      a strict extreme at one end, found here from ``detect_extremes``;
    - every reported score is below 1, the maximum and mean score are
      those of an independent rescoring of the output, and rounds and
      corrections read 0 exactly when the output is the proposal;
    - a second call on the output returns it bitwise, with rounds 0 and
      corrections 0.

    Returns the call's outcome: its result, or the ``RemeshError`` raised.
    """
    detects = []

    def counted(values):
        detects.append(1)
        return detect_extremes(values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(remesh, "detect_extremes", counted)
        outcome = guard_outcome(enforce_extreme_guard, old, proposed, params)
    assert len(detects) == 1
    if isinstance(outcome, RemeshError):
        return outcome
    mesh, report = outcome
    nodes = mesh.nodes
    assert np.isfinite(nodes).all() and (nodes[1:] > nodes[:-1]).all()

    x_old = old.mesh.nodes
    extreme = extreme_mask(old)
    cell = np.clip(x_old.searchsorted(proposed.nodes, "right") - 1, 0, x_old.size - 2)
    kept = ~(extreme[cell] | extreme[cell + 1])
    kept[[0, -1]] = True
    assert nodes[kept].tobytes() == proposed.nodes[kept].tobytes()

    _indices, scores = classical.proximity_scores_reference(
        x_old, extreme, nodes, params.growth_constant
    )
    max_score = float(scores.max()) if scores.size else 0.0
    mean_score = float(np.add.reduce(scores) / scores.size) if scores.size else 0.0
    assert report.max_score < 1.0
    assert report.max_score.hex() == max_score.hex()
    assert report.mean_score.hex() == mean_score.hex()
    moved = nodes.tobytes() != proposed.nodes.tobytes()
    assert (report.rounds > 0, report.corrections > 0) == (moved, moved)

    again, second = enforce_extreme_guard(old, mesh, params)
    assert again.nodes.tobytes() == nodes.tobytes()
    assert (second.rounds, second.corrections) == (0, 0)
    return outcome


def checked_against_contracts(old, proposed, params, walk):
    """``assert_guard_contracts`` with the walk constants ``walk`` patched in.

    A guard without those module constants gets them as unused attributes,
    so the same inputs keep running whatever the guard's implementation.
    """
    with pytest.MonkeyPatch.context() as patch:
        for name, value in walk.items():
            patch.setattr(remesh, name, value, raising=False)
        return assert_guard_contracts(old, proposed, params)


def test_guard_contracts_on_guard_cases():
    seen = set()

    @given(guard_cases())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def check(case):
        outcome = checked_against_contracts(*case)
        if isinstance(outcome, RemeshError):
            seen.add(RemeshError)
        else:
            seen.add("moved" if outcome[1].corrections else "kept")

    check()
    assert {"moved", "kept", RemeshError} <= seen


def contract_cases():
    """The fixed inputs of the walk-pinning tests, as (old, proposed, params, walk)."""
    cases = {
        "peak_walk": (
            peaked_solution(),
            Mesh(np.array([-1.0, 0.5, 2.0])),
            ExtremeGuardParams(1.0),
            {},
        ),
        "on_extreme": (
            peaked_solution(),
            Mesh(np.array([-1.0, 0.0, 2.0])),
            ExtremeGuardParams(0.0),
            {},
        ),
        "two_dual_intervals": (
            GridSolution(
                Mesh(np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])),
                np.array([0.0, 1.0, 0.1, 1.5, 0.2, 0.0]),
            ),
            Mesh(np.array([0.0, 0.3, 0.45, 0.55, 1.0])),
            ExtremeGuardParams(1.0),
            {},
        ),
        "zigzag_of_sixty": (
            zigzag_of_sixty(),
            Mesh(np.array([0.0, 1.05, 61.0])),
            ExtremeGuardParams(1.0),
            {},
        ),
        "large_c": (
            GridSolution(Mesh(np.arange(4.0)), np.array([0.0, 1.0, 0.0, 0.0])),
            Mesh(np.array([0.0, 1.0, 2.5, 3.0])),
            ExtremeGuardParams(1e14),
            {},
        ),
    }
    return {**cases, **rare_guard_cases()}


@pytest.mark.parametrize("name", sorted(contract_cases()))
def test_guard_contracts_on_fixed_cases(name):
    checked_against_contracts(*contract_cases()[name])


@pytest.mark.parametrize(
    "config",
    [
        # the walk collapses two nodes after step 176, and the map takes over
        "problem = burgers\nscheme = richtmyer\nn = 1600\ncfl = 0.5\n"
        "t_final = 0.006\nx0 = 0.42883192254392677\n",
        # the walk collapses two nodes after step 49
        "problem = burgers\nscheme = richtmyer\nn = 100\ncfl = 0.3\n"
        "t_final = 0.02\nx0 = 0.49345368022869700\n",
    ],
    ids=["collapsing_n1600", "collapsing_n100"],
)
def test_guard_contracts_on_replayed_runs(monkeypatch, config):
    outcomes = []

    def checked(old, proposed, params):
        outcomes.append(assert_guard_contracts(old, proposed, params))
        return enforce_extreme_guard(old, proposed, params)

    monkeypatch.setattr(remesh, "enforce_extreme_guard", checked)
    result = run_simulation(build_run_config(parse_config(config)))
    assert len(outcomes) == result.steps > 50
    assert not any(isinstance(outcome, RemeshError) for outcome in outcomes)


@pytest.mark.parametrize("growth_constant", [-1.0, np.nan, np.inf, 1e308])
def test_guard_params_validation(growth_constant):
    # 1 + 3C overflows for C = 1e308: every node next to an extreme would
    # score infinity, and no walk or map could make it compliant.
    with pytest.raises(ValueError):
        ExtremeGuardParams(growth_constant=growth_constant)


@given(
    st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=15),
    st.lists(st.floats(0.05, 0.95), min_size=1, max_size=25),
)
@settings(max_examples=80, deadline=None)
def test_sample_never_increases_tv(values, interior):
    xs = np.linspace(0.0, 1.0, len(values))
    ys = np.asarray(values)
    nodes = np.unique(np.concatenate(([0.0], interior, [1.0])))
    out = piecewise_linear_sample(xs, ys, nodes)
    assert total_variation(out) <= total_variation(ys) + 1e-12


def test_smoothing_identity_symmetric_peak():
    sol = GridSolution(Mesh(np.array([0.0, 0.5, 1.0])), np.array([0.0, 1.0, 0.0]))
    sampled, closed, residual = interpolation_smoothing_residual(sol, 1, 0.25, 0.75)
    assert sampled == 0.5
    assert closed == 0.5
    assert residual == 0.0


def test_smoothing_identity_collapsed_left_offset():
    sol = GridSolution(Mesh(np.array([0.0, 0.5, 1.0])), np.array([0.0, 1.0, 0.0]))
    sampled, closed, residual = interpolation_smoothing_residual(sol, 1, 0.5, 0.75)
    assert sampled == 1.0
    assert closed == 1.0
    assert residual == 0.0


def test_smoothing_identity_linear_data_keeps_value():
    mesh = Mesh(np.array([0.0, 0.4, 1.0]))
    sol = GridSolution(mesh, 2.0 * mesh.nodes)
    sampled, closed, residual = interpolation_smoothing_residual(sol, 1, 0.2, 0.7)
    assert closed == pytest.approx(0.8, abs=1e-15)
    assert residual <= 1e-15


def test_smoothing_identity_validates_geometry():
    sol = peaked_solution()
    with pytest.raises(ValueError):
        interpolation_smoothing_residual(sol, 0, -0.5, 0.5)
    with pytest.raises(ValueError):
        interpolation_smoothing_residual(sol, 1, -2.0, 0.5)
    with pytest.raises(ValueError):
        interpolation_smoothing_residual(sol, 1, 0.5, 0.5)
    # Both bracketing nodes on x_1 = 0 straddle it, but span nothing.
    with pytest.raises(ValueError, match="must be distinct"):
        interpolation_smoothing_residual(sol, 1, 0.0, 0.0)


def test_clipping_residuals_bounded_by_allowance():
    mesh = Mesh.uniform(41)
    values = np.where(mesh.nodes <= 0.5, 1.0, 0.0)
    values[20] = 1.3  # strict spike next to the jump
    old = GridSolution(mesh, values)
    out, _report = remesh_step(
        old, EstimatorParams(), ExtremeGuardParams(growth_constant=1.75)
    )
    pairs = classical.extreme_clipping_residuals(old, out)
    assert pairs, "expected at least one clipped extreme"
    for observed, allowed in pairs:
        assert observed <= allowed + 1e-12


def test_remesh_step_constant_data_uniform_mesh():
    mesh = Mesh(np.array([0.0, 0.11, 0.47, 0.8, 1.0]))
    old = GridSolution(mesh, np.full(5, 2.0))
    out, report = remesh_step(
        old, EstimatorParams(), ExtremeGuardParams(growth_constant=1.0)
    )
    assert np.max(np.abs(out.mesh.nodes - np.linspace(0.0, 1.0, 5))) <= 1e-12
    assert np.all(out.values == 2.0)
    assert report.corrections == 0


def test_remesh_step_clusters_nodes_at_jump():
    sol = make_jump_initial(Mesh.uniform(100), 0.5)
    out, _report = remesh_step(
        sol, EstimatorParams(), ExtremeGuardParams(growth_constant=1.75)
    )
    gaps = np.diff(out.mesh.nodes)
    centers = 0.5 * (out.mesh.nodes[:-1] + out.mesh.nodes[1:])
    near = np.abs(centers - 0.5) < 0.05
    assert near.any() and (~near).any()
    ratio = gaps[~near].mean() / gaps[near].mean()
    assert ratio >= 5.0


def test_remesh_step_monotone_ramp_preserves_tv():
    mesh = Mesh.uniform(60)
    sol = GridSolution(mesh, np.tanh(8.0 * (mesh.nodes - 0.5)))
    out, _report = remesh_step(
        sol, EstimatorParams(), ExtremeGuardParams(growth_constant=0.75)
    )
    assert total_variation(out.values) == pytest.approx(
        total_variation(sol.values), abs=1e-12
    )


@st.composite
def rebuilt_solutions(draw):
    """A random mesh with random, jump-plus-spike or coarsely rounded values."""
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=40))
    nodes = np.concatenate([[0.0], np.cumsum(gaps)])
    n = nodes.size
    kind = draw(st.sampled_from(["random", "jump_spike", "rounded"]))
    if kind == "jump_spike":
        values = np.where(np.arange(n) < draw(st.integers(1, n - 1)), 1.0, 0.0)
        values[draw(st.integers(0, n - 1))] += draw(st.floats(-2.0, 2.0))
    else:
        values = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
        if kind == "rounded":
            values = values.round(0)
    return GridSolution(Mesh(nodes), values)


@given(rebuilt_solutions(), st.sampled_from([0.0, 0.3, 1.0, 1.75, 5.0]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_remesh_step_transfer_keeps_ends_range_and_variation(old, growth_constant):
    # The guarantees the bound chain rests on, on the transfer runs take:
    # a search that missed a node's cell and extrapolated would break them.
    out, _report = remesh_step(
        old, EstimatorParams(), ExtremeGuardParams(growth_constant=growth_constant)
    )
    x_old, u_old = old.mesh.nodes, old.values
    x_new, u_new = out.mesh.nodes, out.values
    ends = [0, -1]
    assert x_new[ends].tobytes() == x_old[ends].tobytes()
    assert u_new[ends].tobytes() == u_old[ends].tobytes()
    assert u_new.max() <= u_old.max()
    assert u_new.min() >= u_old.min()
    assert total_variation(u_new) <= total_variation(u_old) + 1e-12
    coincide = np.isin(x_new, x_old)
    at = x_old.searchsorted(x_new[coincide])
    assert u_new[coincide].tobytes() == u_old[at].tobytes()


def public_rebuild(old, estimator, guard):
    """``remesh_step`` spelled out in public steps, each node searched afresh."""
    scores = regularize_curvature(discrete_curvature(old), estimator)
    proposed = equidistribute(build_monitor(old.mesh, scores), len(old))
    corrected, report = enforce_extreme_guard(old, proposed, guard)
    values = piecewise_linear_sample(old.mesh.nodes, old.values, corrected.nodes)
    return GridSolution(corrected, values), report


@given(rebuilt_solutions(), st.sampled_from([0.0, 0.3, 1.0, 1.75, 5.0]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_remesh_step_is_the_public_composition(old, growth_constant):
    # The rebuild hands equidistribution's cells on to the transfer; that
    # may change no byte and no field of the report.
    estimator = EstimatorParams()
    guard = ExtremeGuardParams(growth_constant=growth_constant)
    try:
        expected, expected_report = public_rebuild(old, estimator, guard)
    except RemeshError as exc:
        with pytest.raises(RemeshError) as raised:
            remesh_step(old, estimator, guard)
        assert str(raised.value) == str(exc)
        return
    out, report = remesh_step(old, estimator, guard)
    assert out.mesh.nodes.tobytes() == expected.mesh.nodes.tobytes()
    assert out.values.tobytes() == expected.values.tobytes()
    assert report == expected_report


def test_remesh_step_is_the_public_composition_on_a_replayed_run(monkeypatch):
    # Richtmyer on Burgers at N = 100, CFL 0.3 with the jump at this x0: the
    # walk would collapse two nodes in the guard call after step 49, so that
    # call maps the proposal. Every rebuild of the run must be bitwise the
    # public steps in turn, which search every node's cell afresh.
    run_settings = parse_config(
        "problem = burgers\nscheme = richtmyer\nn = 100\ncfl = 0.3\n"
        "t_final = 0.02\nx0 = 0.49345368022869700\n"
    )
    rebuilds = []
    maps = []
    real_mapped = remesh._mapped

    def counted_map(*args):
        maps.append(len(rebuilds))
        return real_mapped(*args)

    def compared(old, estimator, guard):
        out, report = remesh_step(old, estimator, guard)
        expected, expected_report = public_rebuild(old, estimator, guard)
        assert out.mesh.nodes.tobytes() == expected.mesh.nodes.tobytes()
        assert out.values.tobytes() == expected.values.tobytes()
        assert report == expected_report
        rebuilds.append(report)
        return out, report

    monkeypatch.setattr(remesh, "_mapped", counted_map)
    monkeypatch.setattr(driver, "remesh_step", compared)
    result = run_simulation(build_run_config(run_settings))
    assert len(rebuilds) == result.steps > 50
    # the step's rebuild and the public steps each map once
    assert maps == [49, 49]
