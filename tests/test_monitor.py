"""Curvature scoring, monitor integration and equidistribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classical
import shockmesh.monitor as monitor
from shockmesh import (
    EstimatorParams,
    GridSolution,
    Mesh,
    MonitorTable,
    build_monitor,
    discrete_curvature,
    equidistribute,
    regularize_curvature,
)


def test_estimator_params_validation():
    with pytest.raises(ValueError):
        EstimatorParams(power=0.0)
    with pytest.raises(ValueError):
        EstimatorParams(power=1.5)


def test_curvature_of_symmetric_peak():
    sol = GridSolution(Mesh(np.array([0.0, 0.5, 1.0])), np.array([0.0, 1.0, 0.0]))
    scores = discrete_curvature(sol)
    # slopes +-2 around the peak: 2/1 * |2-(-2)| / sqrt(5*5*1) = 1.6,
    # copied onto both endpoints
    assert scores == pytest.approx([1.6, 1.6, 1.6], rel=1e-15)


def test_curvature_matches_the_per_node_slopes():
    # Each segment slope is computed once and serves both of its nodes; the
    # scores are bitwise those of three slopes per node.
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 1.0, 300))
    u = np.repeat(rng.choice([0.0, 1.0, 0.25], 60), 5) + rng.normal(0.0, 0.01, 300)
    expected = classical.discrete_curvature_per_node(x, u)
    scores = discrete_curvature(GridSolution(Mesh(x), u))
    assert scores.tobytes() == expected.tobytes()


def test_curvature_zero_on_linear_data():
    mesh = Mesh(np.array([0.0, 0.3, 0.7, 1.0]))
    sol = GridSolution(mesh, 2.0 * mesh.nodes - 1.0)
    assert np.allclose(discrete_curvature(sol), 0.0, atol=1e-14)


def test_curvature_needs_three_nodes():
    sol = GridSolution(Mesh(np.array([0.0, 1.0])), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        discrete_curvature(sol)


def test_regularize_floor_value():
    params = EstimatorParams()
    out = regularize_curvature(np.array([0.0]), params)
    assert out[0] == 1e-15 ** 0.9


def test_regularize_uniform_scores_stay_uniform():
    params = EstimatorParams()
    out = regularize_curvature(np.full(7, 3.7), params)
    assert np.all(out == out[0])


def test_regularize_caps_density_contrast():
    params = EstimatorParams()
    scores = np.array([1e-12, 1.0, 100.0])
    out = regularize_curvature(scores, params)
    contrast = out.max() / out.min()
    assert contrast <= (1.0 / monitor._RELATIVE_FLOOR) ** params.power * (1 + 1e-12)


def test_regularize_above_the_relative_floor_is_pure_power():
    # Every score is at least _RELATIVE_FLOOR times the largest, so the
    # relative floor changes nothing and only the absolute floor and the
    # power act.
    params = EstimatorParams()
    scores = np.array([3.0, 2.5, 100.0, 7.5])
    assert scores.min() >= monitor._RELATIVE_FLOOR * scores.max()
    out = regularize_curvature(scores, params)
    assert np.array_equal(out, np.maximum(scores, monitor._ABSOLUTE_FLOOR) ** params.power)


_SCORE = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-13),
    st.floats(0.0, 10.0),
    st.floats(1e3, 1e12),
)


@given(
    st.lists(_SCORE, max_size=40),
    st.floats(monitor._ABSOLUTE_FLOOR / monitor._RELATIVE_FLOOR, 1e12),
    st.integers(0, 40),
    st.floats(0.0, 1.0, exclude_min=True),
)
@settings(max_examples=200, deadline=None)
def test_the_absolute_floor_acts_only_below_the_relative_one(rest, peak, at, power):
    # Once the largest score reaches _ABSOLUTE_FLOOR / _RELATIVE_FLOOR, the
    # relative floor lifts every score at least as far as the absolute one,
    # so the absolute floor changes no bit of the result.
    scores = np.array(rest[:at] + [peak] + rest[at:])
    out = regularize_curvature(scores, EstimatorParams(power=power))
    expected = np.maximum(scores, monitor._RELATIVE_FLOOR * scores.max()) ** power
    assert out.tobytes() == expected.tobytes()


def test_monitor_table_contracts():
    nodes = np.array([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        MonitorTable(nodes, np.array([0.1, 0.5, 1.0]))  # must start at 0
    with pytest.raises(ValueError):
        MonitorTable(nodes, np.array([0.0, 0.5, 0.5]))  # strictly increasing
    table = MonitorTable(nodes, np.array([0.0, 0.5, 2.0]))
    assert table.total == 2.0
    assert float(table.value_at(np.array([0.25]))[0]) == pytest.approx(0.25)


def test_build_monitor_trapezoid_total(monkeypatch):
    monkeypatch.setattr(monitor, "_MASS_FLOOR", 0.0)
    mesh = Mesh(np.array([0.0, 0.25, 1.0]))
    scores = np.array([2.0, 4.0, 4.0])
    table = build_monitor(mesh, scores)
    # 0.25*(2+4)/2 + 0.75*(4+4)/2 = 0.75 + 3.0
    assert table.cumulative == pytest.approx([0.0, 0.75, 3.75], rel=1e-15)


def test_build_monitor_rejects_nonpositive_scores():
    mesh = Mesh.uniform(3)
    with pytest.raises(ValueError):
        build_monitor(mesh, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        build_monitor(mesh, np.array([1.0, 1.0]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MonitorTable(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0])), "equal length"),
        (lambda: MonitorTable(np.array([0.0]), np.array([0.0])), "at least two nodes"),
        (
            lambda: MonitorTable(np.array([0.0, 1.0, 0.5]), np.array([0.0, 1.0, 2.0])),
            "monitor nodes must be strictly increasing",
        ),
        (
            lambda: equidistribute(build_monitor(Mesh.uniform(3), np.ones(3)), 1),
            "at least two nodes",
        ),
        # The far-field masses fall below one ulp of the running total, even
        # with the mass floor, so the cumulative table stalls.
        (
            lambda: build_monitor(
                Mesh(np.array([0.0, 1e10, np.nextafter(1e10, 2e10)])),
                np.array([1e5, 1e-300, 1e-300]),
            ),
            "cumulative must be strictly increasing",
        ),
    ],
    ids=[
        "table_lengths_differ",
        "table_one_node",
        "table_nodes_decrease",
        "equidistribute_one_node",
        "build_monitor_stalls",
    ],
)
def test_public_rejections(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_equidistribute_constant_scores_gives_uniform_mesh():
    mesh = Mesh(np.array([0.0, 0.13, 0.55, 0.7, 1.0]))
    table = build_monitor(mesh, np.full(5, 2.5))
    out = equidistribute(table, 9)
    expected = np.linspace(0.0, 1.0, 9)
    assert np.max(np.abs(out.nodes - expected)) <= 1e-12
    assert out.nodes[0] == 0.0 and out.nodes[-1] == 1.0


def test_equidistribute_hits_exact_breakpoints_bitwise(monkeypatch):
    # cumulative [0, 1, 2, 4]; the halfway level 2.0 lands exactly on the
    # node 0.5 with no rounding when no mass floor perturbs the masses
    monkeypatch.setattr(monitor, "_MASS_FLOOR", 0.0)
    mesh = Mesh(np.array([0.0, 0.25, 0.5, 1.0]))
    table = build_monitor(mesh, np.array([4.0, 4.0, 4.0, 4.0]))
    out = equidistribute(table, 3)
    assert out.nodes[1] == 0.5


def test_equidistribute_monitor_increments_are_equal():
    rng = np.random.default_rng(41)
    for _ in range(25):
        size = rng.integers(4, 60)
        nodes = np.unique(rng.uniform(0.0, 1.0, size=size))
        if nodes.size < 3:
            continue
        nodes[0], nodes[-1] = 0.0, 1.0
        mesh = Mesh(nodes)
        scores = rng.uniform(0.05, 10.0, size=nodes.size)
        table = build_monitor(mesh, scores)
        n = int(rng.integers(3, 80))
        out = equidistribute(table, n)
        levels = table.value_at(out.nodes)
        increments = np.diff(levels)
        target = table.total / (n - 1)
        assert np.max(np.abs(increments - target)) <= 1e-12 * table.total


@given(
    st.lists(st.floats(0.01, 50.0), min_size=3, max_size=24),
    st.integers(min_value=3, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_equidistribute_output_is_valid_mesh(scores, n):
    mesh = Mesh.uniform(len(scores))
    table = build_monitor(mesh, np.asarray(scores))
    out = equidistribute(table, n)
    assert len(out) == n
    assert out.nodes[0] == mesh.a and out.nodes[-1] == mesh.b
    assert np.all(np.diff(out.nodes) > 0.0)
