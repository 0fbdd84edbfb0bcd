"""Simulation loop diagnostics, invariants and failure handling."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classical
from shockmesh import (
    BlowUpError,
    BoundParams,
    CellGeometry,
    GridSolution,
    Mesh,
    MonitorTable,
    Problem,
    RunConfig,
    SchemeKind,
    StepContext,
    evolution_constant,
    front_window,
    make_jump_initial,
    measure_overshoot,
    measure_shock_increase,
    run_simulation,
    total_variation,
    tv_increase_bound_from_contributions,
    tv_increase_bound_from_extremes,
)

from conftest import GRID_FINAL_TIME, make_problem


def small_config(**overrides):
    base = dict(
        problem=make_problem("transport"),
        scheme=SchemeKind.RICHTMYER,
        n=40,
        cfl_target=0.5,
        final_time=0.02,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_run_config_validation():
    with pytest.raises(ValueError):
        small_config(n=9)
    with pytest.raises(ValueError):
        small_config(cfl_target=0.0)
    with pytest.raises(ValueError):
        small_config(cfl_target=1.5)
    with pytest.raises(ValueError):
        small_config(final_time=-0.1)
    with pytest.raises(ValueError):
        small_config(remesh_repetitions=0)
    with pytest.raises(ValueError, match="n must be an integer"):
        small_config(n=10.5)
    with pytest.raises(ValueError, match="remesh_repetitions"):
        small_config(remesh_repetitions=1.5)


@pytest.mark.parametrize("x0", [0.0, 1.0, -0.1, 1.5, float("nan")])
def test_run_config_rejects_jump_outside_the_domain(x0):
    with pytest.raises(ValueError, match="jump_position"):
        small_config(jump_position=x0)


def test_growth_constant_and_default_guard():
    cfg = small_config(scheme=SchemeKind.MACCORMACK, cfl_target=0.4)
    assert cfg.growth_constant == evolution_constant(SchemeKind.MACCORMACK, 0.4)
    assert cfg.effective_guard().growth_constant == cfg.growth_constant


def test_front_window_brackets_a_jump():
    values = np.array([0.0, 0.0, 1.0, 1.0])
    assert front_window(values) == (1, 2)


def test_front_window_constant_data_is_none():
    assert front_window(np.full(8, 3.25)) is None


def test_front_window_prefers_leftmost_minimal():
    values = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    assert front_window(values, fraction=0.5) == (0, 2)


# Multiples of 1/8 up to 4 in magnitude and fractions in multiples of 1/64:
# every partial sum, the total and the target are exact, so the prefix-sum
# window must match the two-pointer scan exactly.
_dyadic_profiles = st.lists(
    st.integers(-32, 32), min_size=1, max_size=60
).flatmap(
    lambda levels: st.lists(
        st.integers(1, 4), min_size=len(levels), max_size=len(levels)
    ).map(lambda repeats: np.repeat(np.array(levels) / 8.0, repeats))
)


@settings(max_examples=300, deadline=None)
@given(values=_dyadic_profiles, sixty_fourths=st.integers(0, 72))
def test_front_window_matches_two_pointer_scan(values, sixty_fourths):
    fraction = sixty_fourths / 64.0
    expected = classical.front_window_two_pointer(values, fraction)
    assert front_window(values, fraction) == expected


@pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.9, 1.0, 1.5])
def test_front_window_matches_two_pointer_scan_on_fixed_cases(fraction):
    # constant data, zero jumps around a single step, runs of equal-length
    # windows, and a profile too short to have any jump
    cases = [
        np.full(7, 0.375),
        np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
        np.array([0.0, 1.0, 1.0, 2.0, 2.0, 3.0]),
        np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0]),
        np.array([1.0, 1.0, 0.5, 0.5, 0.5, 0.0, 0.0]),
        np.array([0.0, 0.5, 0.0, 0.5, 0.0, 0.5]),
        np.array([2.0]),
    ]
    for values in cases:
        expected = classical.front_window_two_pointer(values, fraction)
        assert front_window(values, fraction) == expected


def test_measure_overshoot():
    values = np.array([0.0, 1.2, 1.0, 0.0])
    window = front_window(values)
    assert measure_overshoot(values, 1.0, window) == pytest.approx(0.2, rel=1e-15)
    assert measure_overshoot(values, 1.0, None) == 0.0


def _shock_increase(values, overshoot, growth_constant):
    vals = np.asarray(values, dtype=np.float64)
    return measure_shock_increase(vals, front_window(vals), overshoot, growth_constant)


def test_shock_increase_subtracts_twice_the_overshoot():
    assert _shock_increase([0.0, 1.0, 0.2, 0.0], 0.1, 0.5) == pytest.approx(0.3, rel=1e-14)


def test_shock_increase_vanishes_when_overshoot_covers_gap():
    assert _shock_increase([0.0, 1.0, 0.2, 0.0], 0.45, 0.5) == 0.0


def test_shock_increase_plain_gap_when_no_overshoot():
    assert _shock_increase([0.0, 1.0, 0.6, 0.0], 0.0, 0.5) == pytest.approx(0.2, rel=1e-14)


def test_shock_increase_zero_without_identifiable_top():
    # strictly falling ramp: the window maximum is just the window's left
    # edge partway down the slope, not a shock top
    assert _shock_increase([1.0, 0.95, 0.8, 0.5, 0.2, 0.05, 0.0], 0.0, 0.5) == 0.0
    assert _shock_increase(np.full(12, 0.7), 0.0, 0.5) == 0.0


def test_shock_increase_rejects_negative_overshoot():
    with pytest.raises(ValueError):
        _shock_increase([0.0, 1.0, 0.0], -0.01, 0.5)


def test_zero_final_time_returns_initial_state_exactly():
    result = run_simulation(small_config(final_time=0.0))
    assert result.steps == 0
    assert result.records == ()
    assert np.array_equal(result.final.values, result.initial.values)
    assert np.array_equal(result.final.mesh.nodes, result.initial.mesh.nodes)


def test_uniform_baseline_never_moves_the_mesh():
    cfg = small_config(adaptive=False, final_time=0.05)
    result = run_simulation(cfg)
    assert np.array_equal(result.final.mesh.nodes, np.linspace(0.0, 1.0, cfg.n))
    assert all(r.max_score == 0.0 and r.guard_rounds == 0 for r in result.records)


def test_snapshot_hook_sees_initial_state_and_every_step():
    seen = []
    result = run_simulation(
        small_config(), snapshot_hook=lambda s, t, sol: seen.append((s, t))
    )
    assert len(seen) == result.steps + 1
    assert seen[0] == (0, 0.0)
    steps, times = zip(*seen)
    assert list(steps) == list(range(result.steps + 1))
    assert all(b > a for a, b in zip(times[1:-1], times[2:]))
    assert seen[-1][1] == pytest.approx(small_config().final_time, rel=1e-12)


def test_boundary_values_stay_frozen_over_a_run():
    result = run_simulation(small_config(high=2.0, low=-1.0))
    assert result.final.values[0] == 2.0
    assert result.final.values[-1] == -1.0


def test_uniform_ftcs_on_burgers_blows_up(uniform_runs):
    outcome, _ = uniform_runs[("burgers", SchemeKind.FTCS)]
    assert isinstance(outcome, BlowUpError)
    assert outcome.step > len(outcome.records)
    assert np.all(np.isfinite(outcome.partial.values))


def test_blow_up_keeps_partial_history():
    cfg = RunConfig(
        problem=make_problem("burgers"),
        scheme=SchemeKind.FTCS,
        n=100,
        cfl_target=0.5,
        final_time=GRID_FINAL_TIME,
        adaptive=False,
    )
    with pytest.raises(BlowUpError) as info:
        run_simulation(cfg)
    err = info.value
    assert err.step == len(err.records) + 1
    assert all(r.step == i + 1 for i, r in enumerate(err.records))


def test_non_finite_scheme_output_is_a_blow_up():
    # The steppers return their values unchecked, so a flux that turns NaN
    # reaches the driver's blow-up check instead of failing a constructor.
    calls = 0

    def flux(u):
        nonlocal calls
        calls += 1
        u = np.asarray(u, dtype=np.float64)
        return u * np.nan if calls >= 7 else u

    problem = Problem("nanflux", flux, lambda u: np.ones_like(u))
    cfg = RunConfig(
        problem=problem, scheme=SchemeKind.FTCS, n=50, cfl_target=0.5, final_time=0.5
    )
    with pytest.raises(BlowUpError) as info:
        run_simulation(cfg)
    err = info.value
    assert err.step == 7
    assert len(err.records) == 6
    assert np.isfinite(err.partial.values).all()


class _Stop(Exception):
    pass


@pytest.mark.parametrize("cfl", [0.3, 0.5])
@pytest.mark.parametrize("pname", ["transport", "burgers"])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_trusted_step_objects_pass_the_public_checks(scheme, pname, cfl):
    solutions = []

    def keep(step, instant, solution):
        solutions.append(solution)
        if step == 20:
            raise _Stop

    cfg = RunConfig(
        problem=make_problem(pname), scheme=scheme, n=100, cfl_target=cfl, final_time=1.0
    )
    with pytest.raises(_Stop):
        run_simulation(cfg, keep)
    assert len(solutions) == 21
    for solution in solutions:
        mesh = Mesh(solution.mesh.nodes)
        GridSolution(mesh, solution.values)
        CellGeometry(CellGeometry.from_mesh(mesh).interfaces)


@pytest.mark.parametrize("adaptive", [True, False])
def test_step_loop_runs_no_public_validation(monkeypatch, adaptive):
    counts = Counter()
    for cls in (Mesh, GridSolution, MonitorTable, StepContext, CellGeometry):
        def counted(self, _check=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    result = run_simulation(
        small_config(adaptive=adaptive, remesh_repetitions=2, final_time=0.1)
    )
    assert result.steps > 5
    # the initial mesh and the initial data only
    assert counts == {"Mesh": 1, "GridSolution": 1}


def test_grid_runs_complete_and_report_times(grid_runs):
    for (_, _, _, _), (result, _) in grid_runs.items():
        assert result.steps > 0
        assert result.records[-1].time == pytest.approx(GRID_FINAL_TIME, rel=1e-12)
        assert np.all(np.isfinite(result.final.values))


def test_grid_runs_keep_proximity_scores_below_one(grid_runs):
    for (result, _) in grid_runs.values():
        for record in result.records:
            assert record.max_score < 1.0
            assert record.guard_rounds <= 50


def test_grid_runs_shock_increase_dies_out(grid_runs):
    for key, (result, _) in grid_runs.items():
        cutoff = int(np.ceil(0.2 * result.steps))
        late = [r.increase for r in result.records[cutoff:]]
        assert max(late) == 0.0, f"late increase in {key}"


def test_grid_runs_tv_stays_below_extreme_envelope(grid_runs):
    """Per-step TV respects the extreme-sum envelope at the observed rate."""
    for (pname, scheme, n, cfl), (result, _) in grid_runs.items():
        tv0 = total_variation(result.initial.values)
        growth = evolution_constant(scheme, cfl)
        lam_obs = max(r.max_score for r in result.records) / (1.0 + 3.0 * growth)
        assert 0.0 < lam_obs < 1.0
        p = BoundParams(lam_obs, growth, tv0, np.array([growth * tv0]))
        envelope = tv0 + tv_increase_bound_from_extremes(p)
        worst = max(r.tv for r in result.records)
        assert worst <= envelope, (pname, scheme, n, cfl)


def test_reference_run_final_tv_meets_contribution_bound(grid_runs):
    result, _ = grid_runs[("transport", SchemeKind.RICHTMYER, 200, 0.5)]
    tv0 = total_variation(result.initial.values)
    growth = evolution_constant(SchemeKind.RICHTMYER, 0.5)
    lam_obs = max(r.max_score for r in result.records) / (1.0 + 3.0 * growth)
    p = BoundParams(lam_obs, growth, tv0, np.array([growth * tv0]))
    final_tv = result.records[-1].tv
    assert final_tv <= tv0 + tv_increase_bound_from_contributions(p)


def test_records_are_internally_consistent(grid_runs):
    result, _ = grid_runs[("burgers", SchemeKind.MACCORMACK, 100, 0.3)]
    tv0 = total_variation(result.initial.values)
    for record in result.records:
        assert record.tvi == pytest.approx(record.tv - tv0, abs=1e-13)
        assert record.overshoot >= 0.0
        assert record.increase >= 0.0
        assert 0.0 <= record.mean_score <= record.max_score
