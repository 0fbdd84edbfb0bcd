"""Simulation loop diagnostics, invariants and failure handling."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classical
import shockmesh.driver as driver
import shockmesh.remesh as remesh
from shockmesh import (
    BlowUpError,
    BoundParams,
    CellGeometry,
    EstimatorParams,
    ExtremeGuardParams,
    ExtremeGuardReport,
    GridSolution,
    Mesh,
    MonitorTable,
    Problem,
    RemeshError,
    RunConfig,
    SchemeKind,
    StepContext,
    choose_dt,
    evolution_constant,
    evolution_ratio,
    front_window,
    measure_front,
    remesh_step,
    run_simulation,
    scheme_step,
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


def jumps_of(values):
    # |diff u|, computed here, apart from the step loop's own
    return np.abs(np.diff(np.asarray(values, dtype=np.float64)))


def front(values, reference_high, growth_constant):
    return measure_front(values, jumps_of(values), reference_high, growth_constant)


def test_run_config_validation():
    with pytest.raises(ValueError):
        small_config(n=9)
    with pytest.raises(ValueError):
        small_config(cfl_target=0.0)
    with pytest.raises(ValueError):
        small_config(cfl_target=1.5)
    with pytest.raises(ValueError):
        small_config(final_time=-0.1)
    with pytest.raises(ValueError, match="n must be an integer"):
        small_config(n=10.5)


@pytest.mark.parametrize("x0", [0.0, 1.0, -0.1, 1.5, float("nan")])
def test_run_config_rejects_jump_outside_the_domain(x0):
    with pytest.raises(ValueError, match="jump_position"):
        small_config(jump_position=x0)


def test_guard_takes_the_scheme_growth_constant(monkeypatch):
    guards = []
    real_remesh_step = driver.remesh_step

    def recording(old, estimator, guard):
        guards.append(guard)
        return real_remesh_step(old, estimator, guard)

    monkeypatch.setattr(driver, "remesh_step", recording)
    cfg = small_config(scheme=SchemeKind.MACCORMACK, cfl_target=0.4)
    result = run_simulation(cfg)
    growth = evolution_constant(SchemeKind.MACCORMACK, 0.4)
    assert cfg.growth_constant == growth
    assert len(guards) == result.steps > 0
    assert all(guard == ExtremeGuardParams(growth_constant=growth) for guard in guards)


def test_front_window_brackets_a_jump():
    values = np.array([0.0, 0.0, 1.0, 1.0])
    assert front_window(jumps_of(values)) == (1, 2)


def test_front_window_constant_data_is_none():
    assert front_window(jumps_of(np.full(8, 3.25))) is None


def test_front_window_prefers_leftmost_minimal():
    values = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    assert front_window(jumps_of(values), fraction=0.5) == (0, 2)


def test_front_window_takes_the_jumps_it_is_given():
    # front_window sees only the jumps; measure_front checks that they
    # have the shape of the values' jumps
    values = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    jumps = jumps_of(values)
    assert front_window([0.0, 4.0, 0.0, 0.25]) == (1, 2)
    with pytest.raises(ValueError, match="one entry per interval"):
        measure_front(values, jumps[1:], 1.0, 0.5)
    with pytest.raises(ValueError, match="one entry per interval"):
        measure_front(values, jumps[None], 1.0, 0.5)
    assert measure_front(list(values), list(jumps), 1.0, 0.5) == front(values, 1.0, 0.5)


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
    assert front_window(jumps_of(values), fraction) == expected


@settings(max_examples=300, deadline=None)
@given(
    values=_dyadic_profiles,
    plateaus=st.tuples(st.integers(0, 400), st.integers(0, 400)),
    sixty_fourths=st.integers(0, 72),
)
def test_front_window_matches_two_pointer_scan_between_long_plateaus(
    values, plateaus, sixty_fourths
):
    # A front between two exact plateaus, as on an adaptive Burgers profile:
    # the right ends on the zero-jump tail are never searched, and none of
    # them may have won.
    before, after = plateaus
    values = np.concatenate([np.full(before, values[0]), values, np.full(after, values[-1])])
    fraction = sixty_fourths / 64.0
    expected = classical.front_window_two_pointer(values, fraction)
    assert front_window(jumps_of(values), fraction) == expected


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
        assert front_window(jumps_of(values), fraction) == expected


def test_measure_front_overshoot():
    overshoot, _ = front(np.array([0.0, 1.2, 1.0, 0.0]), 1.0, 0.5)
    assert overshoot == pytest.approx(0.2, rel=1e-15)
    assert front(np.full(8, 1.5), 1.0, 0.5) == (0.0, 0.0)


def test_front_increase_subtracts_twice_the_overshoot():
    # overshoot 0.125 above the high state; 0.5 * (0.875 - 2 * 0.125)
    assert front(np.array([0.0, 1.125, 0.25, 0.0]), 1.0, 0.5) == (0.125, 0.3125)


def test_front_increase_vanishes_when_overshoot_covers_gap():
    assert front(np.array([0.0, 1.5, 0.75, 0.0]), 1.0, 0.5) == (0.5, 0.0)


def test_front_increase_plain_gap_without_overshoot():
    # a top at or below the high state overshoots by zero, never less
    assert front(np.array([0.0, 1.0, 0.625, 0.0]), 1.0, 0.5) == (0.0, 0.1875)
    assert front(np.array([0.0, 0.75, 0.375, 0.0]), 1.0, 0.5) == (0.0, 0.1875)


def test_front_increase_zero_without_identifiable_top():
    # strictly falling ramp above the high state: the window maximum is just
    # the window's left edge partway down the slope, not a shock top
    ramp = np.array([2.0, 1.9375, 1.6875, 1.1875, 0.6875, 0.4375, 0.375])
    assert front_window(jumps_of(ramp)) == (1, 5)
    assert front(ramp, 1.0, 0.5) == (0.9375, 0.0)


def test_front_increase_zero_for_a_top_on_the_right_boundary():
    assert front(np.array([0.0, 0.0, 1.25]), 1.0, 0.5) == (0.25, 0.0)


# Levels on a coarse dyadic grid (frequent ties between window maxima) or
# arbitrary floats, each held for one to four nodes (plateaus).
_front_levels = st.one_of(
    st.integers(-16, 16).map(lambda i: i / 8.0), st.floats(-2.0, 2.0)
)
_front_profiles = st.one_of(
    st.lists(
        st.tuples(_front_levels, st.integers(1, 4)), min_size=1, max_size=40
    ).map(lambda runs: np.repeat([v for v, _ in runs], [r for _, r in runs])),
    st.builds(np.full, st.integers(1, 12), _front_levels),
    st.lists(_front_levels, min_size=1, max_size=40).map(
        lambda xs: np.array(sorted(xs, reverse=True))
    ),
    st.lists(_front_levels, min_size=1, max_size=40).map(lambda xs: np.array(sorted(xs))),
)


@settings(max_examples=400, deadline=None)
@given(
    values=_front_profiles,
    reference_high=_front_levels,
    growth_constant=st.floats(0.0, 2.0),
)
def test_measure_front_matches_the_two_pass_diagnostics(
    values, reference_high, growth_constant
):
    values = np.asarray(values, dtype=np.float64)
    window = front_window(jumps_of(values))
    overshoot = classical.measure_overshoot(values, reference_high, window)
    increase = classical.measure_shock_increase(values, window, overshoot, growth_constant)
    got = front(values, reference_high, growth_constant)
    assert [x.hex() for x in got] == [overshoot.hex(), increase.hex()]


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
    assert all(
        r.max_score == 0.0 and r.mean_score == 0.0 and r.guard_rounds == 0
        for r in result.records
    )


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


def test_boundary_values_stay_frozen_over_a_run(monkeypatch):
    monkeypatch.setattr(
        driver,
        "make_jump_initial",
        lambda mesh, x0: GridSolution(mesh, np.where(mesh.nodes <= x0, 2.0, -1.0)),
    )
    result = run_simulation(small_config())
    assert result.final.values[0] == 2.0
    assert result.final.values[-1] == -1.0
    # the overshoot is read against the data's own high state, 2.0
    assert max(r.overshoot for r in result.records) < 0.5


def test_the_guard_keeps_adaptive_ftcs_transport_from_oscillating(monkeypatch):
    # Adaptive FTCS transport at CFL 1: with the guard the total variation
    # barely grows; with every proposal passed through unchanged, the
    # remeshing alone lets it grow by more than 0.05.
    cfg = small_config(scheme=SchemeKind.FTCS, n=200, cfl_target=1.0, final_time=0.45)
    guarded = run_simulation(cfg).records[-1].tvi
    monkeypatch.setattr(
        remesh,
        "enforce_extreme_guard",
        lambda old, proposed, params: (proposed, ExtremeGuardReport(0.0, 0.0, 0, 0)),
    )
    unguarded = run_simulation(cfg).records[-1].tvi
    assert unguarded > 0.05
    assert not guarded > 0.05


def test_uniform_ftcs_on_burgers_blows_up(uniform_runs):
    outcome, _ = uniform_runs[("burgers", SchemeKind.FTCS)]
    assert isinstance(outcome, BlowUpError)
    assert outcome.step > len(outcome.records)


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


@pytest.mark.usefixtures("crowded_nodes")
def test_zero_width_cell_is_a_remesh_error():
    cfg = small_config(scheme=SchemeKind.FTCS)
    with pytest.raises(RemeshError, match="cell of zero width"):
        run_simulation(cfg)


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed_mesh", "adaptive"])
def test_cell_widths_are_built_once_per_mesh(monkeypatch, adaptive):
    # A fixed mesh is one object for the whole run, so its widths and their
    # minimum are taken once; an adaptive run builds a new mesh, and so new
    # widths, every step. choose_dt gets the minimum of the step's mesh.
    meshes = []
    real_from_mesh = CellGeometry.from_mesh

    def counting(mesh):
        meshes.append(mesh)
        return real_from_mesh(mesh)

    given = []
    real_choose_dt = driver.choose_dt

    def spying(solution, problem, cfl_target, max_dt, h_min):
        given.append((solution.mesh, h_min))
        return real_choose_dt(solution, problem, cfl_target, max_dt, h_min)

    monkeypatch.setattr(CellGeometry, "from_mesh", counting)
    monkeypatch.setattr(driver, "choose_dt", spying)
    result = run_simulation(small_config(adaptive=adaptive, final_time=0.1))
    assert result.steps > 5
    assert len(meshes) == (result.steps if adaptive else 1)
    assert len({id(mesh) for mesh in meshes}) == len(meshes)
    expected = meshes if adaptive else meshes * result.steps
    assert [id(mesh) for mesh, _ in given] == [id(mesh) for mesh in expected]
    for mesh, h_min in given:
        assert type(h_min) is float
        assert h_min == min(real_from_mesh(mesh).widths)
    assert len({id(h_min) for _, h_min in given}) == (result.steps if adaptive else 1)


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed_mesh", "adaptive"])
def test_each_step_calls_its_stages_by_their_public_names(monkeypatch, adaptive):
    # The benchmark times a stage through its public name; a step that
    # reached the stage through a private copy would leave it untimed.
    counts = Counter()
    for module, name in [
        (remesh, "build_monitor"),
        (driver, "evolution_ratio"),
        (driver, "front_window"),
    ]:
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    result = run_simulation(small_config(adaptive=adaptive, final_time=0.1))
    assert result.steps > 5
    per_step = ["evolution_ratio", "front_window"] + ["build_monitor"] * adaptive
    assert counts == {name: result.steps for name in per_step}


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed_mesh", "adaptive"])
@pytest.mark.parametrize("pname", ["transport", "burgers"])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_records_read_the_public_diagnostics(monkeypatch, scheme, pname, adaptive):
    # The step loop takes |diff u| once per state and shares it between the
    # front window, the evolution ratio and the total variation (on a fixed
    # mesh, the advanced state's is also the next step's). Each record must
    # read what the public functions give on the step's input and output.
    states = []
    real_step = driver.scheme_step

    def capturing(kind, solution, ctx, problem):
        advanced = real_step(kind, solution, ctx, problem)
        states.append((solution.values, advanced.values))
        return advanced

    monkeypatch.setattr(driver, "scheme_step", capturing)
    cfg = small_config(
        scheme=scheme, problem=make_problem(pname), n=64, final_time=0.05, adaptive=adaptive
    )
    result = run_simulation(cfg)
    assert len(states) == result.steps > 5
    high = float(result.initial.values.max())
    tv0 = total_variation(result.initial.values)
    for rec, (before, after) in zip(result.records, states):
        tv = total_variation(after)
        expected = [
            tv,
            tv - tv0,
            evolution_ratio(before, after, jumps_of(before)),
            *front(before, high, cfg.growth_constant),
        ]
        got = [rec.tv, rec.tvi, rec.evolution_ratio, rec.overshoot, rec.increase]
        assert [x.hex() for x in got] == [x.hex() for x in expected]


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
        small_config(adaptive=adaptive, final_time=0.1)
    )
    assert result.steps > 5
    # the initial mesh and the initial data only
    assert counts == {"Mesh": 1, "GridSolution": 1}


@st.composite
def multi_jump_states(draw):
    """Piecewise-constant data with 1 to 5 jumps on a uniform mesh, and a
    scheme, a problem and a CFL target to run it with."""
    n = draw(st.integers(10, 64))
    count = draw(st.integers(1, 5))
    inside = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    positions = draw(st.lists(inside, min_size=count, max_size=count))
    levels = draw(st.lists(st.floats(-100.0, 100.0), min_size=count + 1, max_size=count + 1))
    mesh = Mesh.uniform(n)
    values = np.array(levels)[np.searchsorted(np.sort(positions), mesh.nodes)]
    cfl = draw(st.floats(0.0, 1.0, exclude_min=True))
    scheme = draw(st.sampled_from(list(SchemeKind)))
    pname = draw(st.sampled_from(["transport", "burgers"]))
    return GridSolution(mesh, values), scheme, make_problem(pname), cfl


@given(multi_jump_states())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_random_multi_jump_steps_raise_nothing_but_remesh_error(case):
    # Thirty steps through the public stages in the step loop's order, with
    # its zero-width, stall and blow-up exits. Any warning fails the test.
    current, scheme, problem, cfl = case
    growth = evolution_constant(scheme, cfl)
    guard = ExtremeGuardParams(growth)
    high = float(current.values.max())
    try:
        for _ in range(30):
            current, _report = remesh_step(current, EstimatorParams(), guard)
            values = current.values
            jumps = np.abs(np.diff(values))
            measure_front(values, jumps, high, growth)
            widths = CellGeometry.from_mesh(current.mesh).widths
            h_min = float(widths.min())
            if not h_min > 0.0:
                return
            dt = choose_dt(current, problem, cfl, np.inf, h_min)
            if dt == 0.0:
                return
            ctx = StepContext(dt=dt, cfl_target=cfl, cell_widths=widths)
            advanced = scheme_step(scheme, current, ctx, problem)
            if not np.abs(advanced.values).max() <= driver._MAGNITUDE_LIMIT:
                return
            evolution_ratio(values, advanced.values, jumps)
            current = advanced
    except RemeshError:
        pass


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
