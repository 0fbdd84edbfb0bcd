"""Mass conservation and convergence to the exact entropy solution.

The acceptance gate checks oscillation control, not accuracy. These tests
check the two properties a conservation-law solver owes beyond it: on a
fixed mesh every scheme conserves mass up to the boundary flux, and on the
adaptive mesh the error against the exact solution falls as N grows.
"""

import numpy as np
import pytest

from shockmesh import CellGeometry, RunConfig, SchemeKind, run_simulation

from conftest import GRID_CFLS, GRID_FINAL_TIME, GRID_PROBLEMS, make_problem

# Speed of the front of the unit step (1 on the left, 0 on the right)
# released at x = 0.5: transport moves it at 1, Burgers at the shock speed
# (1 + 0) / 2.
FRONT_SPEED = {"transport": 1.0, "burgers": 0.5}


def l1_distance_from_step(solution, front):
    """Exact L1 distance of the piecewise-linear profile from the unit step at ``front``.

    With the front added as a knot, the step is constant on every piece,
    so the integrand is |linear| there: a trapezoid when the difference
    keeps its sign, two triangles when it crosses zero.
    """
    x = solution.mesh.nodes
    knots = np.union1d(x, [front])
    step = np.where(0.5 * (knots[:-1] + knots[1:]) < front, 1.0, 0.0)
    profile = np.interp(knots, x, solution.values)
    left = profile[:-1] - step
    right = profile[1:] - step
    a, b = np.abs(left), np.abs(right)
    pieces = 0.5 * (a + b)
    cross = left * right < 0.0
    pieces[cross] = (a[cross] ** 2 + b[cross] ** 2) / (2.0 * (a[cross] + b[cross]))
    return float((np.diff(knots) * pieces).sum())


@pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("pname", GRID_PROBLEMS)
def test_uniform_mesh_conserves_mass_up_to_the_inflow(pname, scheme):
    problem = make_problem(pname)
    final_time = 0.1
    config = RunConfig(
        problem=problem,
        scheme=scheme,
        n=200,
        cfl_target=0.5,
        final_time=final_time,
        adaptive=False,
    )
    result = run_simulation(config)
    widths = CellGeometry.from_mesh(result.final.mesh).widths
    mass_0 = float((widths * result.initial.values).sum())
    mass_t = float((widths * result.final.values).sum())
    # The front has not reached the right end, where f(0) = 0 flows out;
    # f(1) flows in at the left end, whose value stays fixed at 1.
    inflow = float(problem.flux(np.array([1.0]))[0]) * final_time
    assert abs(mass_t - mass_0 - inflow) <= 1e-13


@pytest.mark.parametrize("cfl", GRID_CFLS)
@pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("pname", GRID_PROBLEMS)
def test_adaptive_l1_error_falls_from_n100_to_n200(grid_runs, pname, scheme, cfl):
    front = 0.5 + FRONT_SPEED[pname] * GRID_FINAL_TIME
    errors = {}
    for n in (100, 200):
        result, _seconds = grid_runs[(pname, scheme, n, cfl)]
        assert result.records[-1].time == GRID_FINAL_TIME
        errors[n] = l1_distance_from_step(result.final, front)
    assert errors[200] <= 0.9 * errors[100]
