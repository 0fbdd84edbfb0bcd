"""Non-uniform 3-point schemes and their stability bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classical
from shockmesh import (
    CellGeometry,
    GridSolution,
    Mesh,
    SchemeKind,
    StepContext,
    burgers_problem,
    choose_dt,
    evolution_constant,
    evolution_ratio,
    scheme_step,
    transport_problem,
)


def uniform_state(n=17, seed=3):
    """Random values on a power-of-two uniform mesh (exact cell widths)."""
    rng = np.random.default_rng(seed)
    mesh = Mesh.uniform(n)
    return GridSolution(mesh, rng.uniform(-1.0, 1.0, size=n))


def jumps_of(values):
    return np.abs(np.diff(values))


def test_evolution_constants():
    assert evolution_constant(SchemeKind.RICHTMYER, 0.5) == 0.5 * 3.5
    assert evolution_constant(SchemeKind.MACCORMACK, 0.5) == 0.5 * 1.5
    assert evolution_constant(SchemeKind.FTCS, 0.5) == 0.5
    for cfl in (0.1, 0.3, 1.0):
        assert evolution_constant(SchemeKind.RICHTMYER, cfl) == cfl * (3.0 + cfl)
        assert evolution_constant(SchemeKind.MACCORMACK, cfl) == cfl * (1.0 + cfl)


def test_step_context_validation():
    with pytest.raises(ValueError):
        StepContext(dt=0.0, cfl_target=0.5, cell_widths=np.ones(5))
    with pytest.raises(ValueError):
        StepContext(dt=0.1, cfl_target=0.0, cell_widths=np.ones(5))
    with pytest.raises(ValueError):
        StepContext(dt=0.1, cfl_target=1.5, cell_widths=np.ones(5))
    with pytest.raises(ValueError):
        StepContext(dt=0.1, cfl_target=0.5, cell_widths=np.array([1.0, -1.0, 1.0]))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: StepContext(dt=0.1, cfl_target=0.5, cell_widths=np.ones((3, 3))),
            "1-D array of length >= 3",
        ),
        (
            lambda: StepContext(dt=0.1, cfl_target=0.5, cell_widths=np.ones(2)),
            "1-D array of length >= 3",
        ),
        (lambda: evolution_constant(SchemeKind.FTCS, 0.0), "cfl must lie in"),
        (lambda: evolution_constant("ftcs", 0.5), "unknown scheme kind"),
        (
            lambda: choose_dt(
                uniform_state(), burgers_problem(), 0.0, np.inf, np.ones(17)
            ),
            "cfl_target must lie in",
        ),
        (
            lambda: scheme_step(
                SchemeKind.FTCS,
                uniform_state(),
                StepContext(dt=0.01, cfl_target=0.5, cell_widths=np.ones(16)),
                burgers_problem(),
            ),
            "cell widths must match",
        ),
        (
            lambda: evolution_ratio(np.zeros(5), np.zeros(6), np.zeros(4)),
            "matching 1-D arrays",
        ),
        (
            lambda: evolution_ratio(np.zeros(5), np.zeros(5), np.zeros(5)),
            "one entry per interval",
        ),
    ],
    ids=[
        "context_widths_2d",
        "context_two_widths",
        "constant_cfl_0",
        "constant_unknown_kind",
        "choose_dt_cfl_0",
        "step_widths_mismatch",
        "ratio_shapes_differ",
        "ratio_jumps_mismatch",
    ],
)
def test_public_rejections(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_step_context_for_solution_uses_cell_widths():
    sol = uniform_state(9)
    ctx = StepContext.for_solution(sol, 0.01, 0.5)
    widths = CellGeometry.from_mesh(sol.mesh).widths
    assert np.array_equal(ctx.cell_widths, widths)


def test_choose_dt_matches_cfl_definition():
    sol = uniform_state(9)
    prob = burgers_problem()
    widths = CellGeometry.from_mesh(sol.mesh).widths
    dt = choose_dt(sol, prob, 0.4, np.inf, widths)
    speed = np.max(np.abs(prob.dflux(sol.values)))
    assert dt == pytest.approx(0.4 * widths.min() / speed, rel=1e-15)
    assert classical.cfl_number(sol, prob, dt) == pytest.approx(0.4, rel=1e-12)


def test_choose_dt_uses_given_cell_widths():
    sol = GridSolution(Mesh(np.array([0.0, 0.1, 0.35, 0.7, 1.0])), np.linspace(1.0, 0.0, 5))
    prob = burgers_problem()
    widths = CellGeometry.from_mesh(sol.mesh).widths
    dt = choose_dt(sol, prob, 0.4, np.inf, widths)
    assert dt == 0.4 * widths.min() / np.abs(prob.dflux(sol.values)).max()
    assert choose_dt(sol, prob, 0.4, np.inf, 2.0 * widths) == 2.0 * dt


def test_choose_dt_flat_state_clipped_by_max_dt():
    mesh = Mesh.uniform(9)
    sol = GridSolution(mesh, np.zeros(9))
    widths = CellGeometry.from_mesh(mesh).widths
    dt = choose_dt(sol, burgers_problem(), 0.5, 0.125, widths)
    assert dt == 0.125  # zero wave speed, the cap decides


def test_schemes_reduce_to_classical_stencils_on_uniform_mesh():
    oracles = {
        SchemeKind.RICHTMYER: classical.lax_wendroff_two_step,
        SchemeKind.MACCORMACK: classical.maccormack,
        SchemeKind.FTCS: classical.forward_time_centered_space,
    }
    for prob in (transport_problem(), burgers_problem()):
        sol = uniform_state(17, seed=11)
        h = sol.mesh.nodes[1] - sol.mesh.nodes[0]
        dt = 0.4 * h
        ctx = StepContext.for_solution(sol, dt, 0.4)
        for kind, oracle in oracles.items():
            mine = scheme_step(kind, sol, ctx, prob).values
            ref = oracle(sol.values, dt, h, prob.flux)
            assert np.allclose(mine, ref, rtol=1e-14, atol=1e-15), kind


def random_nonuniform_state(n, seed, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))])
    nodes /= nodes[-1]
    nodes[-1] = 1.0
    return GridSolution(Mesh(nodes), rng.uniform(lo, hi, size=n))


def test_constant_states_are_fixed_points():
    # Flux differences of identical values vanish identically, so MacCormack
    # and FTCS return the constant bitwise on any mesh. Richtmyer's predictor
    # averages equal values with unequal weights, which can wobble the
    # intermediate state by one ulp on a non-uniform mesh; the output still
    # lands within one spacing of the constant.
    for c in (0.0, 1.0, 0.3, -0.7):
        for sol in (
            GridSolution(Mesh.uniform(16), np.full(16, c)),
            GridSolution(random_nonuniform_state(16, seed=21).mesh, np.full(16, c)),
        ):
            dt = 0.4 * np.diff(sol.mesh.nodes).min()
            ctx = StepContext.for_solution(sol, dt, 0.4)
            for prob in (transport_problem(), burgers_problem()):
                for kind in SchemeKind:
                    out = scheme_step(kind, sol, ctx, prob).values
                    if kind is SchemeKind.RICHTMYER:
                        assert np.max(np.abs(out - c)) <= np.spacing(max(abs(c), 1.0))
                    else:
                        assert np.array_equal(out, np.full(16, c))


def test_ftcs_direct_and_conservative_forms_agree():
    # The step differences nodal fluxes directly; averaging them into
    # interface fluxes first gives the same update over the same
    # (h_i + h_{i+1}) / 2. That is the conservative form, whose denominator
    # is h_i, only on a uniform mesh.
    for seed in (41, 43, 47):
        sol = random_nonuniform_state(25, seed=seed)
        dt = 0.3 * np.diff(sol.mesh.nodes).min()
        ctx = StepContext.for_solution(sol, dt, 0.3)
        h = ctx.cell_widths
        for prob in (transport_problem(), burgers_problem()):
            f = prob.flux(sol.values)
            interface_flux = 0.5 * (f[:-1] + f[1:])
            expected = sol.values.copy()
            expected[1:-1] = sol.values[1:-1] - 2.0 * dt * (
                interface_flux[1:] - interface_flux[:-1]
            ) / (h[1:-1] + h[2:])
            direct = scheme_step(SchemeKind.FTCS, sol, ctx, prob).values
            assert np.allclose(direct, expected, rtol=1e-14, atol=1e-15)


def test_single_nonuniform_step_matches_scalar_transcription():
    # Straight-line scalar evaluation of each update formula on five nodes,
    # checked against the vectorized implementations.
    nodes = np.array([0.0, 0.15, 0.35, 0.7, 1.0])
    values = np.array([0.9, -0.4, 0.6, 0.1, -0.2])
    sol = GridSolution(Mesh(nodes), values)
    prob = burgers_problem()
    dt = 0.3 * np.diff(sol.mesh.nodes).min()
    ctx = StepContext.for_solution(sol, dt, 0.3)
    h = ctx.cell_widths.tolist()
    u = values.tolist()
    f = [0.5 * v * v for v in u]

    star = [
        (h[i + 1] * u[i] + h[i] * u[i + 1]) / (h[i] + h[i + 1])
        - dt * (f[i + 1] - f[i]) / (h[i] + h[i + 1])
        for i in range(4)
    ]
    f_star = [0.5 * v * v for v in star]
    rich = [u[0]] + [
        u[i] - dt * (f_star[i] - f_star[i - 1]) / h[i] for i in (1, 2, 3)
    ] + [u[4]]

    pred = [
        u[i] - 2.0 * dt * (f[i + 1] - f[i]) / (h[i] + h[i + 1]) for i in range(4)
    ] + [u[4]]
    f_pred = [0.5 * v * v for v in pred]
    corr = [
        pred[i] - 2.0 * dt * (f_pred[i] - f_pred[i - 1]) / (h[i - 1] + h[i])
        for i in (1, 2, 3)
    ]
    mac = [u[0]] + [0.5 * (u[i] + corr[i - 1]) for i in (1, 2, 3)] + [u[4]]

    ftcs = [u[0]] + [
        u[i] - dt * (f[i + 1] - f[i - 1]) / (h[i] + h[i + 1]) for i in (1, 2, 3)
    ] + [u[4]]

    expected = {
        SchemeKind.RICHTMYER: rich,
        SchemeKind.MACCORMACK: mac,
        SchemeKind.FTCS: ftcs,
    }
    for kind, ref in expected.items():
        mine = scheme_step(kind, sol, ctx, prob).values
        assert np.allclose(mine, np.array(ref), rtol=1e-14, atol=1e-15), kind


def test_schemes_freeze_boundary_values():
    sol = uniform_state(13, seed=5)
    dt = 0.3 * (sol.mesh.nodes[1] - sol.mesh.nodes[0])
    ctx = StepContext.for_solution(sol, dt, 0.3)
    for kind in SchemeKind:
        out = scheme_step(kind, sol, ctx, burgers_problem())
        assert out.values[0] == sol.values[0]
        assert out.values[-1] == sol.values[-1]
        assert out.mesh is sol.mesh


def test_evolution_ratio_hand_example():
    before = np.array([0.0, 1.0, 0.0])
    after = np.array([0.0, 1.5, 0.0])
    # interior change 0.5 against neighbor differences of 1.0; the measured
    # value sits one representation-noise allowance below and never above
    ratio = evolution_ratio(before, after, jumps_of(before))
    assert 0.5 - np.spacing(1.5) <= ratio <= 0.5


def test_evolution_ratio_flat_before_is_zero():
    assert evolution_ratio(np.zeros(5), np.zeros(5), np.zeros(4)) == 0.0


@st.composite
def stepped_pairs(draw):
    """A profile with plateaus and a step that changes some of its nodes,
    by anything from one ulp to a large jump, or to a non-finite value."""
    level = st.sampled_from([0.0, -0.0, 1.0, 0.5, 3e-15, -2.0])
    levels = draw(st.lists(level, min_size=1, max_size=12))
    repeats = draw(st.lists(st.integers(1, 6), min_size=len(levels), max_size=len(levels)))
    before = np.repeat(np.array(levels), repeats)
    if before.size < 3:
        before = np.concatenate([before, [0.0, 0.0, 0.0]])
    after = before.copy()
    for j in draw(st.lists(st.integers(0, before.size - 1), max_size=before.size)):
        how = draw(st.sampled_from(["ulp", "value", "sign", "nonfinite"]))
        if how == "ulp":
            after[j] = np.nextafter(after[j], np.inf)
        elif how == "value":
            after[j] = draw(st.floats(-4.0, 4.0))
        elif how == "sign":
            after[j] = -after[j]
        else:
            after[j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return before, after


@settings(max_examples=400, deadline=None, derandomize=True)
@given(stepped_pairs())
def test_evolution_ratio_matches_scoring_every_node(pair):
    before, after = pair
    # A step to near the largest float (an inf nudged by one ulp) can give
    # a ratio beyond the float range: inf on both sides, and numpy warns.
    with np.errstate(over="ignore"):
        expected = classical.evolution_ratio_every_node(before, after)
        ratio = evolution_ratio(before, after, jumps_of(before))
    assert np.array(ratio).tobytes() == np.array(expected).tobytes()


def test_evolution_ratio_of_a_step_to_the_largest_float():
    # The noise bound of the largest float is its spacing, 2**971; the
    # spacing itself overflows there, and would read the change as noise.
    top = np.finfo(np.float64).max
    before = np.array([0.0, 2.0, 0.0])
    ratio = evolution_ratio(before, np.array([0.0, -top, 0.0]), jumps_of(before))
    assert ratio == (top - 2.0**971) / 2.0
    with np.errstate(over="ignore"):
        before = np.array([0.0, 0.5, 0.0])
        assert evolution_ratio(before, np.array([0.0, top, 0.0]), jumps_of(before)) == np.inf


def test_evolution_ratio_within_constant_on_short_run():
    prob = transport_problem()
    sol = uniform_state(33, seed=9)
    dt = choose_dt(sol, prob, 0.5, np.inf, CellGeometry.from_mesh(sol.mesh).widths)
    ctx = StepContext.for_solution(sol, dt, 0.5)
    for kind in SchemeKind:
        out = scheme_step(kind, sol, ctx, prob)
        bound = evolution_constant(kind, 0.5)
        assert evolution_ratio(sol.values, out.values, jumps_of(sol.values)) <= bound
