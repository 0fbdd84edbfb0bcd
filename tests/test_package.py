"""The package's public surface: one export list per layer module."""

import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import shockmesh
from shockmesh import bounds, cli, driver, grid, monitor, remesh, schemes

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "BlowUpError",
    "BoundParams",
    "CellGeometry",
    "EstimatorParams",
    "ExtremeBoundTable",
    "ExtremeGuardParams",
    "ExtremeGuardReport",
    "GridSolution",
    "Mesh",
    "MonitorTable",
    "Problem",
    "RemeshError",
    "RunConfig",
    "RunResult",
    "SchemeKind",
    "StepContext",
    "StepRecord",
    "build_monitor",
    "burgers_problem",
    "choose_dt",
    "detect_extremes",
    "discrete_curvature",
    "enforce_extreme_guard",
    "equidistribute",
    "evolution_constant",
    "evolution_ratio",
    "extreme_bound_closed_form",
    "extreme_bound_table",
    "front_window",
    "interpolation_smoothing_residual",
    "make_jump_initial",
    "measure_front",
    "piecewise_linear_sample",
    "regularize_curvature",
    "remesh_step",
    "run_simulation",
    "scheme_step",
    "total_increase_contribution",
    "total_variation",
    "transport_problem",
    "tv_increase_bound_from_contributions",
    "tv_increase_bound_from_extremes",
    "uniform_extreme_bound",
]


def test_package_exports_the_union_of_the_layer_lists():
    exported = shockmesh.__all__
    assert len(exported) == len(set(exported))
    layers = (bounds, driver, grid, monitor, remesh, schemes)
    assert set(exported) == {name for module in layers for name in module.__all__}
    assert sum(len(module.__all__) for module in layers) == len(exported)
    assert sorted(exported) == PUBLIC_NAMES


def test_readme_states_the_export_count():
    counts = re.findall(r"\((\d+)\s+names\)", README.read_text(encoding="utf-8"))
    assert counts == [str(len(shockmesh.__all__))]


def test_readme_python_examples_run_without_warnings():
    # nothing else runs the README's library examples, so a removed or
    # renamed name would otherwise go unnoticed there
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    for name in shockmesh.__all__:
        assert getattr(shockmesh, name) is not None


def test_import_leaves_the_cli_unloaded():
    src = str(Path(shockmesh.__file__).resolve().parent.parent)
    probe = "import sys, shockmesh; print('shockmesh.cli' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {probe}"],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.strip() == "False"


def test_names_the_benchmark_traces_exist():
    # perfbench/run.py looks these up and its tracer wraps them by name; a
    # rename would otherwise show only in the benchmark's own runs
    for module, name in [
        (driver, "front_window"),
        (remesh, "enforce_extreme_guard"),
        (grid, "detect_extremes"),
        (cli, "run_simulation"),
        (grid.CellGeometry, "from_mesh"),
        (grid.Mesh, "__post_init__"),
    ]:
        assert callable(getattr(module, name)), name
    old = grid.GridSolution(
        grid.Mesh(np.array([-1.0, 0.0, 1.0, 2.0])), np.array([0.0, 1.0, 0.0, -1.0])
    )
    _, report = remesh.enforce_extreme_guard(
        old, grid.Mesh(np.array([-1.0, 0.5, 2.0])), remesh.ExtremeGuardParams(1.0)
    )
    assert (report.rounds, report.corrections) == (3, 3)


def test_measure_front_finds_the_front_once(monkeypatch):
    # the tracer counts driver.front_window calls per step through this global
    real = driver.front_window
    calls = []
    monkeypatch.setattr(
        driver,
        "front_window",
        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs),
    )
    values = np.array([0.0, 1.25, 1.0, 0.0])
    jumps = np.abs(np.diff(values))
    assert driver.measure_front(values, jumps, 1.0, 0.5) == (0.25, 0.0)
    assert len(calls) == 1 and calls[0][0] is jumps


def step_with_kind(kind):
    """One scheme step of a small Burgers state, with ``kind`` as the scheme."""
    mesh = grid.Mesh.uniform(5)
    widths = grid.CellGeometry.from_mesh(mesh).widths
    ctx = schemes.StepContext(dt=0.01, cfl_target=0.5, cell_widths=widths)
    solution = grid.GridSolution(mesh, np.zeros(5))
    return schemes.scheme_step(kind, solution, ctx, grid.burgers_problem())


def choose_dt_with_h_min(h_min):
    """``choose_dt`` on a 5-node zero transport state with ``h_min`` as given."""
    solution = grid.GridSolution(grid.Mesh.uniform(5), np.zeros(5))
    return schemes.choose_dt(solution, grid.transport_problem(), 0.5, 1.0, h_min)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: grid.piecewise_linear_sample([], [], [0.5]), "at least two knots"),
        (lambda: grid.piecewise_linear_sample([0.0], [1.0], [0.0]), "at least two knots"),
        (lambda: step_with_kind("ftcs"), "unknown scheme kind: 'ftcs'"),
        *[
            (lambda h_min=h_min: choose_dt_with_h_min(h_min), "h_min must be positive")
            for h_min in (-0.1, 0.0, -0.0, float("nan"), float("inf"))
        ],
    ],
    ids=[
        "sample_no_knots", "sample_one_knot", "step_unknown_kind",
        "dt_negative_h_min", "dt_zero_h_min", "dt_negative_zero_h_min", "dt_nan_h_min",
        "dt_infinite_h_min",
    ],
)
def test_bad_arguments_raise_value_error(call, message):
    # not an IndexError, a KeyError or numpy's divide warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()
