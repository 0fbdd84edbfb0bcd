"""Extreme-proximity guard, solution transfer and the smoothing identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classical
import shockmesh.remesh as remesh
from shockmesh import (
    EstimatorParams,
    ExtremeGuardParams,
    GridSolution,
    GuardConvergenceError,
    Mesh,
    RemeshError,
    enforce_extreme_guard,
    extreme_clipping_residuals,
    interpolate_update,
    interpolation_smoothing_residual,
    make_jump_initial,
    piecewise_linear_sample,
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


def proximity_scores(old, proposed, growth_constant):
    """Indices and scores of the guarded proposed nodes."""
    return remesh._scan_guarded(
        old.mesh.nodes, remesh._extreme_mask(old), proposed.nodes, growth_constant
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
    assert report.rounds <= params.max_rounds


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


def test_enforcement_round_cap_raises():
    old = peaked_solution()
    proposed = Mesh(np.array([-1.0, 0.5, 2.0]))
    params = ExtremeGuardParams(growth_constant=1.0, max_rounds=1)
    with pytest.raises(GuardConvergenceError):
        enforce_extreme_guard(old, proposed, params)


def guard_outcome(guard, *args):
    """What a guard call gives: its result, or the RemeshError it raised."""
    try:
        return guard(*args)
    except RemeshError as exc:
        return exc


def assert_guard_matches_full_rescan(old, proposed, params, paths=None):
    """Run the guard and the full-rescan reference; demand bitwise agreement."""
    extreme = np.zeros(len(old), dtype=bool)
    extreme[[i for i, _kind in detect_extremes(old.values)]] = True
    expected = guard_outcome(
        classical.extreme_guard_full_rescan,
        old.mesh.nodes, extreme, proposed.nodes, params, paths,
    )
    got = guard_outcome(enforce_extreme_guard, old, proposed, params)
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
    params = ExtremeGuardParams(
        growth_constant=draw(st.floats(0.0, 3.0)),
        nudge_factor=draw(st.floats(0.01, 0.9)),
        max_rounds=draw(st.integers(1, 12)),
    )
    return old, proposed, params


def test_guard_matches_full_rescan_reference():
    seen = set()

    @given(guard_cases())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def check(case):
        outcome = assert_guard_matches_full_rescan(*case, paths=seen)
        if isinstance(outcome, RemeshError):
            seen.add(type(outcome).__name__)

    check()
    assert {"sort", "dual", "RemeshError", "GuardConvergenceError"} <= seen


def rare_guard_cases():
    zigzag = GridSolution(Mesh(np.arange(5.0)), np.array([0.0, 1.0, 0.0, 1.0, 0.0]))
    spike = GridSolution(Mesh(np.arange(4.0)), np.array([0.0, 0.0, 1.0, 0.0]))
    peak = GridSolution(Mesh(np.array([0.0, 1.9, 2.9])), np.array([0.0, 1.0, 0.0]))
    return {
        # midpoint of an interval between two extremes: equal scores, the
        # left end governs
        "tie": (zigzag, Mesh(np.array([0.0, 1.5, 4.0])), ExtremeGuardParams(1.0)),
        # a node stepping left past its compliant predecessor
        "crossing": (
            spike,
            Mesh(np.array([0.0, 1.47, 1.9, 3.0])),
            ExtremeGuardParams(1.0 / 3.0, nudge_factor=0.9),
        ),
        # two nodes one ulp apart that round onto one point
        "collapse": (
            peak,
            Mesh(np.array([0.0, 1.900000001, 1.9000000010000002, 2.9])),
            ExtremeGuardParams(1.0),
        ),
        "round_cap": (
            peaked_solution(),
            Mesh(np.array([-1.0, 0.5, 2.0])),
            ExtremeGuardParams(1.0, max_rounds=1),
        ),
        # the 0.5 walk (0.5 -> 0.6 -> 0.72 -> 0.864) lands on its compliant
        # successor on its third move
        "landing": (
            peaked_solution(),
            Mesh(np.array([-1.0, 0.5, 0.864, 2.0])),
            ExtremeGuardParams(1.0),
        ),
        # the one-ulp pair collapses on its first move, while the node at
        # 1.0 needs three moves: the collapse wins over the round cap
        "collapse_before_cap": (
            peak,
            Mesh(np.array([0.0, 1.0, 1.900000001, 1.9000000010000002, 2.9])),
            ExtremeGuardParams(1.0, max_rounds=1),
        ),
    }


@pytest.mark.parametrize("name", sorted(rare_guard_cases()))
def test_guard_matches_full_rescan_on_rare_geometries(name):
    paths = set()
    outcome = assert_guard_matches_full_rescan(*rare_guard_cases()[name], paths=paths)
    expected = {
        "tie": {"dual"},
        "crossing": {"sort"},
        "collapse": {"sort", RemeshError},
        "round_cap": {GuardConvergenceError},
        "landing": {"sort", RemeshError},
        "collapse_before_cap": {"sort", RemeshError},
    }[name]
    assert paths | {type(outcome)} >= expected


def test_guard_matches_full_rescan_on_a_collapsing_run(monkeypatch):
    # Richtmyer on Burgers at N = 1600 with the jump at this x0 collapses
    # two nodes after step 176; every guard call up to and including the
    # failing one must agree with the full-rescan reference.
    run_settings = parse_config(
        "problem = burgers\nscheme = richtmyer\nn = 1600\ncfl = 0.5\n"
        "t_final = 0.006\nx0 = 0.42883192254392677\n"
    )
    calls = []

    def checked(old, proposed, params):
        calls.append(assert_guard_matches_full_rescan(old, proposed, params))
        return enforce_extreme_guard(old, proposed, params)

    monkeypatch.setattr(remesh, "enforce_extreme_guard", checked)
    with pytest.raises(RemeshError, match="collapsed two nodes"):
        run_simulation(build_run_config(run_settings))
    assert len(calls) == 177
    assert isinstance(calls[-1], RemeshError)


def test_guard_params_validation():
    with pytest.raises(ValueError):
        ExtremeGuardParams(growth_constant=-1.0)
    with pytest.raises(ValueError):
        ExtremeGuardParams(growth_constant=1.0, nudge_factor=0.0)
    with pytest.raises(ValueError):
        ExtremeGuardParams(growth_constant=1.0, nudge_factor=1.0)
    with pytest.raises(ValueError):
        ExtremeGuardParams(growth_constant=1.0, max_rounds=0)
    # A count that is not an integer would never meet the round cap.
    for max_rounds in (1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="max_rounds"):
            ExtremeGuardParams(growth_constant=1.0, max_rounds=max_rounds)


def test_interpolate_update_same_mesh_is_identity():
    old = peaked_solution()
    out = interpolate_update(old, old.mesh)
    assert np.array_equal(out.values, old.values)


def test_interpolate_update_midpoint():
    mesh = Mesh(np.array([0.0, 1.0]))
    old = GridSolution(mesh, np.array([2.0, 6.0]))
    out = interpolate_update(old, Mesh(np.array([0.0, 0.5, 1.0])))
    assert out.values.tolist() == [2.0, 4.0, 6.0]


def test_interpolate_update_requires_same_span():
    old = peaked_solution()
    with pytest.raises(ValueError):
        interpolate_update(old, Mesh(np.array([-1.0, 0.5, 1.5])))


@given(
    st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=15),
    st.lists(st.floats(0.05, 0.95), min_size=1, max_size=25),
)
@settings(max_examples=80, deadline=None)
def test_interpolate_update_never_increases_tv(values, interior):
    mesh = Mesh.uniform(len(values))
    old = GridSolution(mesh, np.asarray(values))
    nodes = np.unique(np.concatenate(([0.0], interior, [1.0])))
    new = interpolate_update(old, Mesh(nodes))
    assert total_variation(new.values) <= total_variation(old.values) + 1e-12


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


def test_clipping_residuals_bounded_by_allowance():
    mesh = Mesh.uniform(41)
    values = np.where(mesh.nodes <= 0.5, 1.0, 0.0)
    values[20] = 1.3  # strict spike next to the jump
    old = GridSolution(mesh, values)
    out, _report = remesh_step(
        old, EstimatorParams(), ExtremeGuardParams(growth_constant=1.75)
    )
    pairs = extreme_clipping_residuals(old, out)
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
