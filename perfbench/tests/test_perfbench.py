"""Self-tests of the benchmark's checks and tracing.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import pytest

import shockmesh.cli
import shockmesh.driver
import shockmesh.remesh
from checks import OpResult, check_op
from run import Runner
from tracer import Tracer, find_wrapped
from workloads import Op, Workload, materialize

SMALL = {
    "problem": "burgers", "scheme": "maccormack", "n": 30, "cfl": 0.5,
    "t_final": 0.02, "adaptive": True, "x0": 0.5,
}


def small_workload():
    ops = (
        Op("sim", "simulate", dict(SMALL)),
        Op("theory", "theory", {"lambda": 0.2, "c": 1.0, "m": 1.0, "kmax": 8}),
    )
    return Workload("small", 0, ops, "sim")


@pytest.fixture
def runner(tmp_path):
    workload = small_workload()
    materialize(workload, tmp_path)
    return Runner(workload, tmp_path, shockmesh.cli)


def recheck(runner, name, verified=True):
    op = next(o for o in runner.workload.ops if o.name == name)
    result = OpResult(name, 1, 99, False, 0.0, 0.0, 0.0, op.expected_rc)
    check_op(op, runner.workdir, result, runner.verified[name] if verified else None)
    return result


def test_clean_pass_has_no_failures(runner):
    results = runner.run_pass(0)
    assert [r.failure for r in results] == [None, None]
    assert results[0].steps > 0
    assert set(runner.quality) == {"sim"}


@pytest.mark.parametrize(
    "name, filename, corrupt",
    [
        ("sim", "tv_series.csv", lambda text: text.rsplit("\n", 2)[0] + "\n"),
        ("sim", "snapshots.csv", lambda text: text.replace(",1\n", ",nan\n", 1)),
        ("sim", "tv_series.csv", lambda text: text.replace(",", ";", 3)),
        ("theory", "bounds.csv", lambda text: text.replace("\n1,1,", "\n1,1,9", 1)),
    ],
)
def test_corrupted_csv_is_a_failure(runner, name, filename, corrupt):
    runner.run_pass(0)
    path = runner.workdir / name / filename
    path.write_text(corrupt(path.read_text()))
    for verified in (True, False):
        result = recheck(runner, name, verified)
        assert result.failed and result.wrong_output, result.failure


def test_wrong_exit_code_is_a_failure(runner):
    blow_up = Op("sim", "simulate", dict(SMALL), expected_rc=3)
    result = runner.run_op(blow_up, 0)
    assert result.rc == 0
    assert result.failed and not result.wrong_output
    assert "exit code 0, expected 3" in result.failure


def test_exception_escaping_main_is_a_failure(runner):
    def broken_main(argv):
        raise shockmesh.remesh.RemeshError("corrections collapsed two nodes onto one point")

    result = runner.run_op(runner.workload.ops[0], 0, main=broken_main)
    assert result.failed and not result.wrong_output
    assert "RemeshError" in result.failure


def test_untraced_pass_runs_unwrapped(runner):
    originals = (
        shockmesh.driver.front_window,
        shockmesh.remesh.enforce_extreme_guard,
        shockmesh.cli.run_simulation,
    )
    assert find_wrapped() == []
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = set(find_wrapped())
        assert {
            "shockmesh.driver.front_window",
            "shockmesh.remesh.enforce_extreme_guard",
            "shockmesh.cli.run_simulation",
            "shockmesh.grid.CellGeometry.from_mesh",
            "shockmesh.grid.Mesh.__post_init__",
        } <= wrapped
    finally:
        tracer.uninstall()
    assert find_wrapped() == []
    assert originals == (
        shockmesh.driver.front_window,
        shockmesh.remesh.enforce_extreme_guard,
        shockmesh.cli.run_simulation,
    )
    results = runner.run_pass(0)
    assert not any(r.failed for r in results)
    assert tracer.span_start.tolist() == []


def test_layer_self_times_add_up_to_traced_wall(runner):
    tracer = Tracer()
    tracer.install()
    try:
        results = runner.run_pass(0, tracer)
    finally:
        tracer.uninstall()
    assert not any(r.failed for r in results)
    spans = tracer.spans()
    layers = {name.split(".")[0] for name in tracer.names}
    assert {"cli", "driver", "remesh", "monitor", "grid", "schemes", "bounds"} <= layers
    self_by_layer = {
        layer: sum(
            s for s, n in zip(spans["self"], spans["name"])
            if tracer.names[n].startswith(layer + ".")
        )
        for layer in layers
    }
    assert all(value >= 0.0 for value in self_by_layer.values())
    # Calibration samples taken during a call fall inside its spans.
    wall = sum(r.seconds + r.calibration_s for r in results)
    assert sum(self_by_layer.values()) == pytest.approx(wall, rel=0.01, abs=1e-3)
    roots = spans["parent"] < 0
    assert [tracer.names[n] for n in spans["name"][roots]] == ["cli.main", "cli.main"]
