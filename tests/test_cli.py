"""Command-line harness: config parsing, outputs, exit codes."""

import errno
import fractions
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classical
import shockmesh.bounds as bounds
import shockmesh.cli as cli
import shockmesh.remesh as remesh
import shockmesh.snapshots as snapshots
from shockmesh import (
    BoundParams,
    ExtremeBoundTable,
    GridSolution,
    Mesh,
    RemeshError,
    SchemeKind,
    StepRecord,
    evolution_constant,
)
from shockmesh.cli import _tv_series_lines, build_run_config, main, parse_config
from shockmesh.grid import _trusted
from shockmesh.snapshots import _CHUNK_ROWS, _format_17g, snapshot_lines, spill_hook

from conftest import GRID_FINAL_TIME

BASE_CONFIG = """\
# short smoke run
problem = transport
scheme = richtmyer
n = 40
cfl = 0.5

t_final = 0.02
"""

BLOW_UP_CONFIG = (
    BASE_CONFIG.replace("problem = transport", "problem = burgers")
    .replace("scheme = richtmyer", "scheme = ftcs")
    .replace("n = 40", "n = 100")
    .replace("t_final = 0.02", "t_final = 0.3")
    + "adaptive = false\n"
)
CSVS = ["manifest.json", "snapshots.csv", "tv_series.csv"]

THEORY_ARGV = ["theory", "--lambda", "0.1", "--c", "1.0", "--m", "1.0", "--kmax", "5"]


def fmt(value):
    """The per-value oracle of every CSV number: 17 significant digits."""
    return format(float(value), ".17g")


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_defaults_and_comments():
    settings = parse_config(BASE_CONFIG)
    assert settings["problem"] == "transport"
    assert settings["scheme"] == "richtmyer"
    assert settings["n"] == 40
    assert settings["cfl"] == 0.5
    assert settings["t_final"] == 0.02
    assert settings["adaptive"] is True
    assert settings["pw"] == 0.9
    assert settings["x0"] == 0.5


@pytest.mark.parametrize(
    "bad",
    [
        BASE_CONFIG + "n = 50\n",  # duplicate
        BASE_CONFIG + "mystery = 1\n",  # unknown key
        BASE_CONFIG + "remesh_reps = 2\n",  # removed key: one rebuild per step
        BASE_CONFIG + "eps_corr = 0.2\n",  # removed key: the walk's step is fixed
        BASE_CONFIG + "epsilon = 1e-15\n",  # removed key: the absolute floor is fixed
        BASE_CONFIG + "just a line\n",  # not key=value
        BASE_CONFIG.replace("n = 40", "n = forty"),
        BASE_CONFIG.replace("cfl = 0.5", "cfl = fast"),
        BASE_CONFIG.replace("scheme = richtmyer", "scheme = upwind"),
        BASE_CONFIG.replace("problem = transport", "problem = traffic"),
        BASE_CONFIG + "adaptive = maybe\n",
        BASE_CONFIG.replace("t_final = 0.02\n", ""),  # missing required
    ],
)
def test_parse_config_rejections(bad):
    with pytest.raises(ValueError):
        parse_config(bad)


def test_build_run_config_maps_every_knob():
    settings = parse_config(
        BASE_CONFIG
        + "pw = 0.8\nx0 = 0.4\n"
        + "adaptive = false\n"
    )
    cfg = build_run_config(settings)
    assert cfg.scheme is SchemeKind.RICHTMYER
    assert cfg.n == 40
    assert cfg.cfl_target == 0.5
    assert cfg.final_time == 0.02
    assert cfg.adaptive is False
    assert cfg.estimator.power == 0.8
    assert cfg.growth_constant == evolution_constant(SchemeKind.RICHTMYER, 0.5)
    assert cfg.jump_position == 0.4


@pytest.mark.parametrize("word", ["true", "1", "yes", "on"])
def test_parse_config_reads_every_true_word(word):
    assert parse_config(BASE_CONFIG + f"adaptive = {word}\n")["adaptive"] is True


def test_build_run_config_raises_the_run_config_message():
    settings = parse_config(BASE_CONFIG.replace("cfl = 0.5", "cfl = 1.5"))
    with pytest.raises(ValueError, match=r"^cfl_target must lie in \(0, 1\]$"):
        build_run_config(settings)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_simulate_writes_outputs_and_exits_zero(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), str(out)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["problem"] == "transport"
    assert "blow_up_step" not in manifest

    header, rows = read_rows(out / "tv_series.csv")
    assert header == "step,time,tv,tvi,evolution_ratio,max_A,avg_A,a_n,E1"
    assert len(rows) == manifest["steps"]
    steps = [int(r[0]) for r in rows]
    assert steps == list(range(1, len(rows) + 1))
    times = [float(r[1]) for r in rows]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert times[-1] == pytest.approx(0.02, rel=1e-12)

    header, rows = read_rows(out / "snapshots.csv")
    assert header == "step,time,node_index,x,u"
    snap_steps = sorted({int(r[0]) for r in rows})
    assert snap_steps[0] == 0
    assert snap_steps[-1] == manifest["steps"]
    first = [r for r in rows if int(r[0]) == 0]
    assert [int(r[2]) for r in first] == list(range(40))
    assert float(first[0][3]) == 0.0 and float(first[-1][3]) == 1.0
    xs = np.array([float(r[3]) for r in first])
    assert np.array_equal(xs, np.linspace(0.0, 1.0, 40))


@pytest.mark.parametrize(
    "line",
    ["mystery = 1", "eps_corr = 0.3", "epsilon = 1e-15"],
    ids=["unknown", "removed", "removed_floor"],
)
def test_simulate_parse_error_exits_two_without_outputs(tmp_path, capsys, line):
    cfg = write_config(tmp_path, BASE_CONFIG + line + "\n")
    out = tmp_path / "never"
    assert main(["simulate", str(cfg), str(out)]) == 2
    assert not out.exists()
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("x0", ["0", "1", "-0.1", "1.5", "nan"])
def test_simulate_jump_outside_the_domain_exits_two_without_outputs(tmp_path, capsys, x0):
    cfg = write_config(tmp_path, BASE_CONFIG + f"x0 = {x0}\n")
    out = tmp_path / "never"
    assert main(["simulate", str(cfg), str(out)]) == 2
    assert not out.exists()
    assert "jump_position" in capsys.readouterr().err


def test_simulate_missing_config_exits_two(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["simulate", str(tmp_path / "absent.cfg"), str(out)]) == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "run.cfg", "afile"],
        ["simulate", "run.cfg", "afile/sub"],
        ["simulate", "binary.cfg", "out"],
        [*THEORY_ARGV, "adir"],
        [*THEORY_ARGV, "afile/bounds.csv"],
        # A file name longer than any file system takes: the directories
        # above it are made first, and must go again.
        ["simulate", "run.cfg", "T/o/" + "y" * 300],
        [*THEORY_ARGV, "T/a/b/" + "x" * 300 + ".csv"],
    ],
    ids=[
        "outdir_is_a_file",
        "outdir_under_a_file",
        "config_not_utf8",
        "table_path_is_a_directory",
        "table_path_under_a_file",
        "outdir_name_too_long",
        "table_name_too_long",
    ],
)
def test_unusable_paths_exit_two_and_create_nothing(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    (tmp_path / "binary.cfg").write_bytes(BASE_CONFIG.encode() + b"\xff\n")
    (tmp_path / "afile").write_text("kept\n")
    (tmp_path / "adir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.mark.parametrize("module", ["shockmesh", "shockmesh.cli"])
def test_simulate_reads_the_config_as_utf8_under_an_ascii_locale(tmp_path, module):
    # The config is UTF-8 text whatever the locale: an en dash in a comment
    # must not fail under the C locale. Both module entry points run.
    raw = "# transport \u2013 a smoke run\n" + BASE_CONFIG
    (tmp_path / "run.cfg").write_bytes(raw.encode("utf-8"))
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", module, "simulate", "run.cfg", "out"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "tv_series.csv").exists()


def test_simulate_ignores_a_byte_order_mark(tmp_path):
    # An editor may save the config with a UTF-8 byte-order mark; it must not
    # turn the first key into an unknown one.
    plain = write_config(tmp_path)
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main(["simulate", str(plain), str(tmp_path / "plain")]) == 0
    assert main(["simulate", str(marked), str(tmp_path / "marked")]) == 0
    for name in ("tv_series.csv", "snapshots.csv"):
        assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_simulate_blow_up_exits_three_with_partial_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, BLOW_UP_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), str(out)]) == 3
    assert "blew up" in capsys.readouterr().err

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "blow_up"
    assert manifest["blow_up_step"] == manifest["steps"] + 1
    _, rows = read_rows(out / "tv_series.csv")
    assert len(rows) == manifest["steps"] > 0
    assert (out / "snapshots.csv").exists()


def fail_after_step_3(monkeypatch, error):
    """Make the CLI's runs raise ``error`` once step 3 has completed."""
    real_run = cli.run_simulation

    def failing_run(config, snapshot_hook=None):
        def hook(step, instant, solution):
            snapshot_hook(step, instant, solution)
            if step == 3:
                raise error

        return real_run(config, hook)

    monkeypatch.setattr(cli, "run_simulation", failing_run)


def test_simulate_remesh_failure_exits_four_with_manifest(tmp_path, capsys, monkeypatch):
    fail_after_step_3(monkeypatch, RemeshError("scores still reach 1.5"))
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path)), str(out)]) == 4
    assert "mesh reconstruction failed after step 3" in capsys.readouterr().err

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "remesh_error"
    assert manifest["steps"] == 3
    assert manifest["error"] == "scores still reach 1.5"
    assert manifest["config"]["problem"] == "transport"


COLLAPSE = "corrections collapsed two nodes onto one point"


@pytest.mark.parametrize("prefilled", [False, True])
def test_simulate_guard_collapse_exits_four_with_manifest(
    tmp_path, capsys, monkeypatch, prefilled
):
    out = tmp_path / "out"
    cfg = write_config(tmp_path)
    if prefilled:
        # A completed run's CSVs in the directory must not outlive the
        # failed run that follows.
        assert main(["simulate", str(cfg), str(out)]) == 0
        assert (out / "snapshots.csv").exists() and (out / "tv_series.csv").exists()
    fail_after_step_3(monkeypatch, RemeshError(COLLAPSE))
    assert main(["simulate", str(cfg), str(out)]) == 4
    assert "mesh reconstruction failed after step 3" in capsys.readouterr().err

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "remesh_error"
    assert manifest["steps"] == 3
    assert manifest["error"] == COLLAPSE
    assert sorted(path.name for path in out.iterdir()) == ["manifest.json"]


def collapse_config(scheme, problem, n, cfl, t_final, x0):
    """The config text of one adaptive run."""
    return (
        f"problem = {problem}\nscheme = {scheme}\nn = {n}\ncfl = {cfl}\n"
        f"t_final = {t_final}\nx0 = {x0!r}\n"
    )


def test_simulate_completes_where_the_guard_walk_collapses(tmp_path):
    # The walk collapses two nodes after step 49 of this run, near the
    # default jump; the guard maps the proposal onto the compliant slivers
    # instead, and the run completes with its TV and scores in bounds.
    out = tmp_path / "out"
    text = collapse_config("richtmyer", "burgers", 100, 0.3, 0.3, 0.493453680228697)
    assert main(["simulate", str(write_config(tmp_path, text)), str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["status"] == "ok"
    _, rows = read_rows(out / "tv_series.csv")
    assert float(rows[-1][2]) <= 1.0 + 0.05  # the initial jump's TV is 1
    assert max(float(row[5]) for row in rows) < 1.0  # max_A


# Benchmark operations whose walk collapsed two nodes (exit 4): the acceptance
# grid's configs at T = 0.02 with the jump drawn by the grid workload's seeds
# 22, 61, 66, 23, 32, 33, 39, 45, 52 and 69, and one N = 1600 run drawn by
# seed 1 of the adaptive_fine workload.
COLLAPSING_RUNS = [
    ("richtmyer", "burgers", 100, 0.3, 0.02, x0)
    for x0 in (0.49186740894878933, 0.486750558632119, 0.4945038193755046)
] + [("ftcs", "burgers", 200, 0.5, 0.02, 0.5702682026172377)] + [
    ("richtmyer", "transport", 100, 0.5, 0.02, x0)
    for x0 in (
        0.5144458990944167,
        0.5136982383849112,
        0.5078670812412978,
        0.5056982290340406,
        0.5148452591270584,
        0.5053704071638891,
    )
] + [("richtmyer", "burgers", 1600, 0.5, 0.006, 0.42883192254392677)]


@pytest.mark.parametrize(
    "run", COLLAPSING_RUNS, ids=lambda run: f"{run[0]}-{run[1]}-n{run[2]}-x0={run[5]}"
)
def test_simulate_completes_the_benchmark_runs_where_the_walk_collapses(tmp_path, run):
    cfg = write_config(tmp_path, collapse_config(*run))
    assert main(["simulate", str(cfg), str(tmp_path / "out")]) == 0


def test_simulate_bad_reconstructed_mesh_exits_four_with_manifest(
    tmp_path, capsys, monkeypatch
):
    real_equidistribute_cells = remesh._equidistribute_cells

    def duplicating(monitor, n):
        mesh, cells = real_equidistribute_cells(monitor, n)
        nodes = mesh.nodes.copy()
        nodes[5] = nodes[4]
        return _trusted(Mesh, nodes=nodes), cells

    monkeypatch.setattr(remesh, "_equidistribute_cells", duplicating)
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path)), str(out)]) == 4
    assert "mesh reconstruction failed after step 0" in capsys.readouterr().err

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "remesh_error"
    assert manifest["steps"] == 0
    assert manifest["error"] == "reconstructed mesh is not finite and strictly increasing"
    assert sorted(path.name for path in out.iterdir()) == ["manifest.json"]


@pytest.mark.usefixtures("crowded_nodes")
def test_simulate_zero_width_cell_exits_four_with_manifest(tmp_path, capsys):
    text = BASE_CONFIG.replace("scheme = richtmyer", "scheme = ftcs")
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path, text)), str(out)]) == 4
    # Whether the two interfaces round together depends on the last bits of
    # node 4; on this run they first do in step 2.
    assert "mesh reconstruction failed after step 1" in capsys.readouterr().err

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "remesh_error"
    assert manifest["steps"] == 1
    assert manifest["error"] == "reconstructed mesh has a cell of zero width"
    assert sorted(path.name for path in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize(
    "n, cfl, message",
    [
        (20, "1e-300", "time step below the clock's resolution"),
        (63, "5e-324", "time step underflows"),
    ],
    ids=["below_resolution", "underflow"],
)
def test_simulate_stalled_clock_exits_four_with_manifest(tmp_path, n, cfl, message):
    # On the fixed mesh dt is about 5e-302, which leaves the remaining time
    # unchanged, or underflows to 0; neither run could ever end. A
    # subprocess with a timeout, so that a run that hangs fails the test.
    text = (
        f"problem = transport\nscheme = ftcs\nn = {n}\ncfl = {cfl}\n"
        "t_final = 0.01\nadaptive = false\n"
    )
    write_config(tmp_path, text)
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "shockmesh", "simulate", "run.cfg", "out"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 4, done.stderr
    assert done.stderr == f"error: run stalled after step 0: {message}\n"
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "stalled"
    assert manifest["steps"] == 0
    assert manifest["error"] == message
    assert manifest["wall_time_seconds"] < 1.0
    assert sorted(path.name for path in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("remesh_fails", [False, True], ids=["completed", "remesh_error"])
@pytest.mark.parametrize("blocked", ["snapshots.csv", "tv_series.csv", "manifest.json"])
def test_simulate_unwritable_output_exits_two_and_leaves_no_output(
    tmp_path, capsys, monkeypatch, blocked, remesh_fails
):
    if remesh_fails:
        fail_after_step_3(monkeypatch, RemeshError("reconstructed mesh is not usable"))
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["simulate", str(write_config(tmp_path)), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs: ") and err.count("\n") == 1
    # The directory in the way is all that is left: every file this run
    # wrote before the failure is gone again.
    assert [path.name for path in out.iterdir()] == [blocked]
    assert not any((out / blocked).iterdir())


def test_simulate_keeps_no_step_in_memory(tmp_path, monkeypatch):
    # A uniform run of 100+ steps: once it returns, only the initial and
    # final values (held by its result) and one in flight may be alive.
    real_run = cli.run_simulation
    alive = []

    def watching_run(config, snapshot_hook=None):
        refs = []

        def hook(step, instant, solution):
            refs.append(weakref.ref(solution.values))
            snapshot_hook(step, instant, solution)

        result = real_run(config, hook)
        gc.collect()
        alive.append((len(refs), sum(ref() is not None for ref in refs)))
        return result

    monkeypatch.setattr(cli, "run_simulation", watching_run)
    text = BASE_CONFIG.replace("n = 40", "n = 400").replace("t_final = 0.02", "t_final = 0.15")
    text += "adaptive = false\n"
    assert main(["simulate", str(write_config(tmp_path, text)), str(tmp_path / "out")]) == 0
    [(seen, kept)] = alive
    assert seen > 100 and kept <= 3


def main_without_resource_warnings(argv):
    """Run ``main``; fail on any ResourceWarning, such as an unclosed file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return main(argv)
        finally:
            gc.collect()
            leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
            assert not leaks, [str(w.message) for w in leaks]


@pytest.mark.parametrize(
    "config, rc, files",
    [(BASE_CONFIG, 0, CSVS), (BLOW_UP_CONFIG, 3, CSVS), (None, 4, ["manifest.json"])],
    ids=["ok", "blow_up", "remesh_error"],
)
def test_simulate_leaves_exactly_its_outputs(tmp_path, capsys, monkeypatch, config, rc, files):
    if config is None:
        fail_after_step_3(monkeypatch, RemeshError("reconstructed mesh is not usable"))
    out = tmp_path / "out"
    argv = ["simulate", str(write_config(tmp_path, config or BASE_CONFIG)), str(out)]
    assert main_without_resource_warnings(argv) == rc
    assert sorted(path.name for path in out.iterdir()) == files


@pytest.mark.parametrize("blocked", ["snapshots.csv", "tv_series.csv", "manifest.json"])
def test_simulate_unwritable_output_closes_every_file(tmp_path, capsys, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    argv = ["simulate", str(write_config(tmp_path)), str(out)]
    assert main_without_resource_warnings(argv) == 2
    assert [path.name for path in out.iterdir()] == [blocked]


def test_simulate_unexpected_error_leaves_no_file(tmp_path, monkeypatch):
    fail_after_step_3(monkeypatch, ZeroDivisionError("not a documented failure"))
    out = tmp_path / "out"
    with pytest.raises(ZeroDivisionError):
        main_without_resource_warnings(["simulate", str(write_config(tmp_path)), str(out)])
    assert list(out.iterdir()) == []


def _lines_then_memory_error(spill, index, n):
    yield "step,time,node_index,x,u"
    raise MemoryError()


@pytest.mark.parametrize("where", ["allocation", "run", "write"])
def test_simulate_out_of_memory_exits_two_and_leaves_no_file(tmp_path, capsys, monkeypatch, where):
    text = BASE_CONFIG
    if where == "allocation":
        # 10**17 nodes fail at allocation, without touching memory.
        text = BASE_CONFIG.replace("n = 40", "n = 100000000000000000")
    elif where == "run":
        fail_after_step_3(monkeypatch, MemoryError())
    else:
        monkeypatch.setattr(cli, "snapshot_lines", _lines_then_memory_error)
    out = tmp_path / "made" / "out"
    argv = ["simulate", str(write_config(tmp_path, text)), str(out)]
    assert main_without_resource_warnings(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert not (tmp_path / "made").exists()


class _FullDisk(io.BytesIO):
    """A spill file whose device fills up after ``room`` bytes."""

    def __init__(self, room):
        super().__init__()
        self.room = room

    def write(self, data):
        if self.tell() + memoryview(data).nbytes > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(data)


def _no_temporary_file(*args, **kwargs):
    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


@pytest.mark.parametrize(
    "spill",
    [_no_temporary_file, lambda **kwargs: _FullDisk(0), lambda **kwargs: _FullDisk(5000)],
    ids=["cannot_create", "full_at_once", "full_mid_run"],
)
def test_simulate_failed_spill_exits_two_and_leaves_no_file(tmp_path, capsys, monkeypatch, spill):
    monkeypatch.setattr(tempfile, "TemporaryFile", spill)
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path)), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs: ") and err.count("\n") == 1
    # The run made the output directory, so it removes that too.
    assert not out.exists()


@st.composite
def small_config_texts(draw):
    """A random small simulate config, every key set, floats written exactly."""
    cfl = draw(st.floats(0.0, 1.0, exclude_min=True))
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    values = {
        "problem": draw(st.sampled_from(["transport", "burgers"])),
        "scheme": draw(st.sampled_from([kind.value for kind in SchemeKind])),
        "n": draw(st.integers(10, 64)),
        "cfl": cfl,
        # At most cfl as well: the step count grows as t_final / cfl.
        "t_final": draw(st.floats(0.0, min(0.05, cfl))),
        "adaptive": draw(st.booleans()),
        "x0": draw(st.one_of(st.sampled_from([1e-12, 1.0 - 1e-12]), unit)),
        "pw": draw(st.floats(0.0, 1.0, exclude_min=True)),
    }
    return "".join(f"{key} = {value}\n" for key, value in values.items())


_FUZZ_VALUES = st.one_of(
    st.sampled_from(
        ["", " ", "=", "nan", "inf", "-inf", "1e999", "1e-320", "-0", "0", "10", "1_000",
         "0x10", "\u0661\u0660", "9" * 5000, "true", "off", "Yes", "burgers", "transport"]
        + [kind.value for kind in SchemeKind]
    ),
    st.integers(-(10**6), 10**6).map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)
_FUZZ_LINES = st.one_of(
    st.sampled_from(["", "   ", "# comment", "n", "= 1", "x0 == 0.5", "N = 40"]),
    st.builds(lambda key, value: f"{key}={value}", st.sampled_from(sorted(cli._KEYS)), _FUZZ_VALUES),
    st.text(max_size=20),
)


_TYPED_VALUES = {
    "problem": st.sampled_from(["transport", "burgers"]),
    "scheme": st.sampled_from([kind.value for kind in SchemeKind]),
    "n": st.integers(-5, 10**6).map(str),
    "adaptive": st.sampled_from(["true", "false", "1", "0", "yes", "off"]),
}
_FLOAT_VALUES = st.one_of(st.floats(0.0, 1.0), st.floats()).map(repr)


@st.composite
def fuzzed_config_texts(draw):
    """Config text with most keys set once, mostly to a value of the key's
    type (any float, NaN and infinities too), in random order, with a few
    random lines in between."""
    lines = []
    for key in cli._KEYS:
        if draw(st.integers(0, 19)):
            typed = _TYPED_VALUES.get(key, _FLOAT_VALUES)
            value = draw(typed if draw(st.integers(0, 19)) else _FUZZ_VALUES)
            lines.append(f"{key} = {value}")
    lines = list(draw(st.permutations(lines)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_FUZZ_LINES))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=fuzzed_config_texts())
def test_config_text_raises_nothing_but_value_error(text):
    # The CLI turns a ValueError from these two calls into exit 2 with a
    # message; any other exception would escape as a traceback.
    try:
        build_run_config(parse_config(text))
    except ValueError:
        pass


@settings(max_examples=50, deadline=None, derandomize=True)
@given(text=small_config_texts())
def test_simulate_random_small_configs_end_with_a_documented_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        assert main(["simulate", str(cfg), str(out)]) in (0, 3, 4)
        assert (out / "manifest.json").is_file()


def test_simulate_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", str(cfg), str(out_a)]) == 0
    assert main(["simulate", str(cfg), str(out_b)]) == 0
    for name in ("snapshots.csv", "tv_series.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_theory_writes_full_triangle(tmp_path):
    out = tmp_path / "bounds.csv"
    argv = ["theory", "--lambda", "0.1", "--c", "1.0", "--m", "1.0",
            "--kmax", "10", str(out)]
    assert main(argv) == 0
    header, rows = read_rows(out)
    assert header == (
        "m,k,E_recursion,E_closed_form,uniform_bound,contribution,"
        "partial_sum,B1,B2"
    )
    assert len(rows) == 10 * 11 // 2
    pairs = [(int(r[0]), int(r[1])) for r in rows]
    assert pairs == [(m, k) for k in range(1, 11) for m in range(1, k + 1)]

    first = [float(v) for v in rows[0][2:]]
    # k=1: E = lambda * a_1 with a_1 = c*m = 1; contribution likewise
    assert first[0] == pytest.approx(0.1, rel=1e-15)
    assert first[1] == pytest.approx(0.1, rel=1e-15)
    assert first[2] == pytest.approx(1.0 / 7.0, rel=1e-14)
    assert first[3] == pytest.approx(0.1, rel=1e-15)
    assert first[4] == first[0]  # partial sum of a single entry
    assert first[5] == pytest.approx(7.0 / 3.0, rel=1e-14)
    assert first[6] == pytest.approx(1.0 / 3.0, rel=1e-14)

    # the bound of step m and the share of a_m alive at step k, per entry
    params = BoundParams(
        clip_factor=0.1, growth_constant=1.0, variation_scale=1.0, increases=np.full(10, 1.0)
    )
    for (m, k), r in zip(pairs, rows):
        assert float(r[4]) == bounds.uniform_extreme_bound(params, m)
        assert float(r[5]) == classical.increase_contribution(params, m, k)

    # partial sums within a column are running and end at the column sum
    col10 = [r for r in rows if int(r[1]) == 10]
    running = 0.0
    for r in col10:
        running += float(r[2])
        assert float(r[6]) == pytest.approx(running, rel=1e-12)


def test_theory_is_deterministic(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["theory", "--lambda", "0.17", "--c", "0.9", "--m", "1.3", "--kmax", "25"]
    assert main(argv + [str(out_a)]) == 0
    assert main(argv + [str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["--lambda", "0.1", "--c", "1.0", "--m", "1.0", "--kmax", "0"],
        ["--lambda", "0.1", "--c", "1.0", "--m", "1.0", "--kmax", "61"],
        ["--lambda", "0.3", "--c", "1.0", "--m", "1.0", "--kmax", "10"],  # coupling
        ["--lambda", "0.0", "--c", "1.0", "--m", "1.0", "--kmax", "10"],
        ["--lambda", "0.1", "--c", "-1.0", "--m", "1.0", "--kmax", "10"],
        ["--lambda", "0.1", "--c", "1.0", "--m", "0.0", "--kmax", "10"],
        ["--lambda", "0.1", "--c", "1.0", "--m", "inf", "--kmax", "5"],
        ["--lambda", "0.1", "--c", "1.0", "--m", "nan", "--kmax", "5"],
        ["--lambda", "0.1", "--c", "inf", "--m", "1.0", "--kmax", "5"],
        # c*m overflows to inf, so the forcing is not finite
        ["--lambda", "1e-301", "--c", "1e300", "--m", "1e10", "--kmax", "5"],
    ],
)
def test_theory_gates_exit_two_without_output(tmp_path, capsys, argv):
    out = tmp_path / "bounds.csv"
    assert main(["theory", *argv, str(out)]) == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_theory_failed_self_check_exits_four_without_output(tmp_path, capsys, monkeypatch):
    real_closed_forms = cli._closed_form_table
    monkeypatch.setattr(
        cli, "_closed_form_table", lambda p, n: 2.0 * real_closed_forms(p, n)
    )
    out = tmp_path / "bounds.csv"
    argv = ["theory", "--lambda", "0.1", "--c", "1.0", "--m", "1.0", "--kmax", "5"]
    assert main([*argv, str(out)]) == 4
    assert not out.exists()
    assert "closed form mismatch at m=1, k=1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        # c ** (m - 1) in the closed form is a float power past float64
        (["--lambda", "1e-7", "--c", "2e5", "--m", "1", "--kmax", "60"],
         "closed form leaves float64 at m=60, k=60"),
        # the closed form's running total passes float64 before its scale
        # brings it back; the recursion's E(3, 8) is 2.50e306
        (["--lambda", "0.24", "--c", "1", "--m", "1e307", "--kmax", "60"],
         "closed form leaves float64 at m=3, k=8"),
        # the recursion's entries grow past float64 on the first row
        (["--lambda", "0.24", "--c", "1", "--m", "1e308", "--kmax", "60"],
         "recursion leaves float64"),
        # every entry is finite, but B1 (and in the second case also B2)
        # passes float64
        (["--lambda", "0.1", "--c", "1.0", "--m", "1e308", "--kmax", "3"],
         "B1 or B2 leaves float64"),
        (["--lambda", "0.3", "--c", "0.5", "--m", "1.7e308", "--kmax", "1"],
         "B1 or B2 leaves float64"),
    ],
    ids=["closed_form", "closed_form_total", "recursion", "b1", "b1_and_b2"],
)
def test_theory_table_leaving_float64_exits_four_without_output(
    tmp_path, capsys, argv, message
):
    out = tmp_path / "bounds.csv"
    assert main(["theory", *argv, str(out)]) == 4
    assert not out.exists()
    assert capsys.readouterr().err == f"error: bound table failed its self-check: {message}\n"


def _increasing_table(params, last_step):
    values = np.zeros((last_step + 1, last_step + 1))
    for k in range(1, last_step + 1):
        values[1 : k + 1, k] = 1e-3 * np.arange(1, k + 1)
    return ExtremeBoundTable(values, last_step)


@pytest.mark.parametrize(
    "patches, message",
    [
        (
            {
                "extreme_bound_table": _increasing_table,
                "_closed_form_table": lambda p, n: _increasing_table(p, n).values,
            },
            "extreme order violated at m=2, k=2",
        ),
        (
            {"uniform_extreme_bound": lambda p, m: 0.5 * bounds.uniform_extreme_bound(p, m)},
            "uniform bound violated at m=1, k=1",
        ),
        # B1 = 7/3 and B2 = 1/3 here; the first column's partial sum and
        # contribution are both 0.1.
        (
            {"tv_increase_bound_from_extremes": lambda p: 0.1},
            "extreme-sum envelope violated at k=1",
        ),
        (
            {"tv_increase_bound_from_contributions": lambda p: 0.1},
            "contribution bound violated at k=1",
        ),
        (
            {"tv_increase_bound_from_contributions": lambda p: 3.0},
            "contribution bound exceeds extreme-sum bound",
        ),
    ],
    ids=["extreme_order", "uniform_bound", "envelope", "contribution", "b2_above_b1"],
)
def test_theory_each_self_check_exits_four_without_output(
    tmp_path, capsys, monkeypatch, patches, message
):
    for name, replacement in patches.items():
        monkeypatch.setattr(cli, name, replacement)
    out = tmp_path / "bounds.csv"
    assert main([*THEORY_ARGV, str(out)]) == 4
    assert not out.exists()
    assert capsys.readouterr().err == f"error: bound table failed its self-check: {message}\n"


def test_theory_checks_the_sums_it_writes(tmp_path, monkeypatch):
    # The envelope and contribution checks read the written partial sums
    # and contributions, not the library's own routes to the same sums.
    argv = ["theory", "--lambda", "0.17", "--c", "0.9", "--m", "1.3", "--kmax", "25"]
    assert main([*argv, str(tmp_path / "plain.csv")]) == 0

    def refuse(*args):
        raise AssertionError("the bound table rebuilt a sum it writes")

    monkeypatch.setattr(bounds.ExtremeBoundTable, "column_sum", refuse)
    monkeypatch.setattr(bounds, "total_increase_contribution", refuse)
    monkeypatch.setattr(cli, "total_increase_contribution", refuse, raising=False)
    assert main([*argv, str(tmp_path / "patched.csv")]) == 0
    assert (tmp_path / "patched.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def theory_params(clip_factor, growth, scale, last_step):
    """The parameters that ``cmd_theory`` builds from its arguments."""
    return BoundParams(
        clip_factor=clip_factor,
        growth_constant=growth,
        variation_scale=scale,
        increases=np.full(last_step, growth * scale),
    )


# (lambda, c, m) and what the kmax-60 table's seven float fields per row
# hold: exact zeros, subnormals and entries of 10 or more, which the '%.17g'
# kernel hands to Python.
THEORY_DRAWS = {
    "benchmark": ((0.2, 1.0, 1.0), (0, 0, 0)),
    "subnormal": ((1e-6, 0.1, 1.0), (336, 159, 0)),
    "large": ((0.2, 1.0, 100.0), (0, 0, 6237)),
}


@pytest.mark.parametrize("last_step", [1, 2, 60])
@pytest.mark.parametrize("draw", list(THEORY_DRAWS))
def test_bound_table_rows_match_per_row_formatting(draw, last_step):
    (clip_factor, growth, scale), counts = THEORY_DRAWS[draw]
    params = theory_params(clip_factor, growth, scale, last_step)
    header, rows = cli._bound_table_lines(params, last_step)
    expected = classical.bound_table_rows_reference(
        params,
        bounds.extreme_bound_table(params, last_step).values,
        bounds._closed_form_table(params, last_step),
        [bounds.uniform_extreme_bound(params, m) for m in range(1, last_step + 1)],
        bounds.tv_increase_bound_from_extremes(params),
        bounds.tv_increase_bound_from_contributions(params),
    )
    assert header == "m,k,E_recursion,E_closed_form,uniform_bound,contribution,partial_sum,B1,B2"
    assert rows == "\n".join(expected)
    if last_step == 60:
        written = np.abs([float(field) for row in expected for field in row.split(",")[2:]])
        subnormal = (written > 0.0) & (written < 2.2250738585072014e-308)
        assert ((written == 0.0).sum(), subnormal.sum(), (written >= 10.0).sum()) == counts


def snapshot_csv_lines(snapshots):
    """The snapshots.csv lines of (step, time, solution) triples, written
    through the CLI's spill hook and read back by ``snapshot_lines``."""
    with tempfile.TemporaryFile() as spill:
        index = []
        hook = spill_hook(spill, index)
        for snapshot in snapshots:
            hook(*snapshot)
        lines = "\n".join(snapshot_lines(spill, index, len(snapshots[0][2])))
    return lines.split("\n")


def per_value_lines(snapshots):
    return ["step,time,node_index,x,u"] + [
        f"{step},{fmt(t)},{i},{fmt(x)},{fmt(u)}"
        for step, t, solution in snapshots
        for i, (x, u) in enumerate(zip(solution.mesh.nodes, solution.values))
    ]


EDGE_NODES = np.array([-5e-324, 0.0, 1e-310, 1.0 / 3.0, 2.0**60])
EDGE_VALUES = np.array([-0.0, 5e-324, -1e300, 0.1, 123456789.123456789])
# Both zeros and subnormals of both signs, each more than once.
SIGNED_ZEROS = np.array([0.0, -0.0, 5e-324, -5e-324, 0.0, 2.2250738585072009e-308, -0.0])


def test_snapshot_lines_match_per_value_formatting():
    # Both blocks on one mesh object (the rewrite path), then each on its
    # own (the kernel path).
    mesh = Mesh(EDGE_NODES)
    for second_mesh in (mesh, Mesh(EDGE_NODES.copy())):
        snapshots = [
            (0, 0.0, GridSolution(mesh, EDGE_VALUES)),
            (1, 0.1, GridSolution(second_mesh, EDGE_VALUES[::-1].copy())),
        ]
        assert snapshot_csv_lines(snapshots) == per_value_lines(snapshots)


@pytest.mark.parametrize("shared_mesh", [True, False], ids=["one_mesh", "mesh_per_block"])
def test_snapshot_lines_keep_signed_zeros_and_subnormals_apart(shared_mesh):
    mesh = Mesh(np.linspace(0.0, 1.0, SIGNED_ZEROS.size))
    other = mesh if shared_mesh else Mesh(mesh.nodes.copy())
    snapshots = [
        (0, 0.0, GridSolution(mesh, SIGNED_ZEROS)),
        (1, 5e-324, GridSolution(other, -SIGNED_ZEROS)),
    ]
    lines = snapshot_csv_lines(snapshots)
    assert lines == per_value_lines(snapshots)
    assert [line.rsplit(",", 1)[1] for line in lines[1:3]] == ["0", "-0"]


def test_snapshot_lines_follow_mesh_changes():
    # Two blocks on one mesh, a mesh of one block, then another shared mesh
    # whose nodes equal the first one's: the spill holds each mesh's nodes
    # once, and the kernel path writes every block on the mesh it names.
    rng = np.random.default_rng(3)

    def mesh():
        return Mesh(np.sort(rng.uniform(0.0, 1.0, 6)))

    a, b, c = mesh(), mesh(), mesh()
    again = Mesh(a.nodes.copy())
    meshes = [a, a, b, c, c, again, again]
    snapshots = [
        (step, step / 7.0, GridSolution(m, rng.choice(SIGNED_ZEROS, 6)))
        for step, m in enumerate(meshes)
    ]
    index = []
    hook = spill_hook(io.BytesIO(), index)
    for snapshot in snapshots:
        hook(*snapshot)
    # The nodes are written once per mesh object, not once per step.
    blocks = [0, 0, 3, 5, 5, 8, 8]  # in arrays of 6 float64 values
    assert [entry[2] for entry in index] == [48 * block for block in blocks]
    assert snapshot_csv_lines(snapshots) == per_value_lines(snapshots)


def test_snapshot_lines_keep_the_cadence_and_the_last_step():
    # 53 steps: a cadence of 2, so the last step falls off the cadence.
    mesh = Mesh(EDGE_NODES)
    moved = Mesh(EDGE_NODES[::-1] * -1.0)
    snapshots = [
        (step, step / 53.0, GridSolution(mesh if step < 40 else moved, EDGE_VALUES * step))
        for step in range(54)
    ]
    kept = [s for s in snapshots if s[0] % 2 == 0 or s[0] == 53]
    lines = snapshot_csv_lines(snapshots)
    assert lines == per_value_lines(kept)
    assert sorted({int(line.split(",")[0]) for line in lines[1:]})[-2:] == [52, 53]


def kernel_row_counts(monkeypatch):
    """The rows of each ``snapshots._text_rows`` call from now on."""
    counts = []
    real_text_rows = snapshots._text_rows

    def counting_text_rows(pieces):
        counts.append(len(pieces[0]))
        return real_text_rows(pieces)

    monkeypatch.setattr(snapshots, "_text_rows", counting_text_rows)
    return counts


@pytest.mark.parametrize(
    "meshes, kernel",
    [("a", False), ("aaaa", False), ("abcd", True), ("aabcc", True)],
    ids=["one_block", "one_mesh", "mesh_per_block", "mixed"],
)
def test_snapshot_lines_choose_their_path_from_the_meshes(monkeypatch, meshes, kernel):
    # A spill whose kept blocks all share one mesh takes the rewrite path
    # and never calls the kernel's row assembler; any other spill writes
    # every block through it.
    counts = kernel_row_counts(monkeypatch)
    rng = np.random.default_rng(5)
    n = SIGNED_ZEROS.size
    by_name = {name: Mesh(np.sort(rng.uniform(0.0, 1.0, n))) for name in set(meshes)}
    blocks = [
        (step, step / 7.0, GridSolution(by_name[name], rng.choice(SIGNED_ZEROS, n)))
        for step, name in enumerate(meshes)
    ]
    assert snapshot_csv_lines(blocks) == per_value_lines(blocks)
    assert sum(counts) == (len(blocks) * n if kernel else 0)


@pytest.mark.parametrize("moved", [False, True], ids=["equal_nodes", "moved_nodes"])
def test_snapshot_lines_rewrite_only_changed_rows_on_a_shared_mesh(monkeypatch, moved):
    # Blocks on one mesh: nothing changes; one row flips 0.0 -> -0.0, then
    # back; a row returns to the value it held two blocks before; every row
    # changes. Alone they are a one-mesh spill, which the rewrite path
    # writes. Followed by a mesh of one block and a new shared mesh whose
    # nodes equal the first one's (or are moved), they are a mixed spill,
    # which the kernel path writes: no kept row may cross meshes.
    nodes = np.linspace(0.0, 1.0, SIGNED_ZEROS.size)
    first = Mesh(nodes)
    lone = Mesh(nodes * 0.5)
    last = Mesh(nodes * 0.25 if moved else nodes.copy())
    base = SIGNED_ZEROS.copy()
    flipped = base.copy()
    flipped[0] = -0.0
    away = base.copy()
    away[3] = 0.1
    blocks = [
        (first, base),
        (first, base.copy()),
        (first, flipped),
        (first, base.copy()),
        (first, away),
        (first, base.copy()),
        (first, base + 1.0),
        (lone, base + 1.0),
        (last, base + 1.0),
        (last, flipped),
    ]
    snapshots = [
        (step, step / 10.0, GridSolution(mesh, values))
        for step, (mesh, values) in enumerate(blocks)
    ]
    counts = kernel_row_counts(monkeypatch)
    for spill, kernel in ((snapshots[:7], False), (snapshots, True)):
        counts.clear()
        lines = snapshot_csv_lines(spill)
        assert lines == per_value_lines(spill)
        assert bool(counts) == kernel
        # Row 0 of blocks 1, 2 and 3.
        assert [lines[i].rsplit(",", 1)[1] for i in (8, 15, 22)] == ["0", "-0", "0"]


ROW_VALUES = [0.0, -0.0, 5e-324, -5e-324, 0.1, 1.0, -1e300]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    start=st.lists(st.sampled_from(ROW_VALUES), min_size=8, max_size=8),
    edits=st.lists(
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from(ROW_VALUES)), max_size=3),
        min_size=9,
        max_size=9,
    ),
)
def test_snapshot_lines_on_one_mesh_match_per_value_formatting(start, edits):
    # Ten blocks on one mesh, each a few row edits away from the one before,
    # so most rows repeat and the kept row texts are reused.
    mesh = Mesh(np.linspace(0.0, 1.0, 8))
    values = np.array(start)
    snapshots = [(0, 0.0, GridSolution(mesh, values))]
    for step, block in enumerate(edits, start=1):
        values = values.copy()
        for row, value in block:
            values[row] = value
        snapshots.append((step, step / 10.0, GridSolution(mesh, values)))
    assert snapshot_csv_lines(snapshots) == per_value_lines(snapshots)


def kept_steps(snapshots):
    """The (step, time, solution) triples that snapshots.csv keeps."""
    last = snapshots[-1][0]
    cadence = max(1, math.ceil(last / 50))
    return [s for s in snapshots if s[0] % cadence == 0 or s[0] == last]


def run_collecting(monkeypatch, tmp_path, text):
    """Run ``simulate`` on ``text`` through ``main``; return its exit code and
    every (step, time, solution) that the run handed its snapshot hook."""
    real_run = cli.run_simulation
    seen = []

    def collecting_run(config, snapshot_hook=None):
        def hook(step, instant, solution):
            seen.append((step, instant, solution))
            snapshot_hook(step, instant, solution)

        return real_run(config, hook)

    monkeypatch.setattr(cli, "run_simulation", collecting_run)
    rc = main(["simulate", str(write_config(tmp_path, text)), str(tmp_path / "out")])
    return rc, seen


@pytest.mark.parametrize("scheme", [kind.value for kind in SchemeKind])
def test_simulate_fixed_mesh_snapshots_match_per_value_formatting(tmp_path, monkeypatch, scheme):
    text = (
        f"problem = transport\nscheme = {scheme}\nn = 64\ncfl = 0.5\n"
        "t_final = 0.45\nadaptive = false\n"
    )
    rc, seen = run_collecting(monkeypatch, tmp_path, text)
    assert rc == 0
    assert len(seen) > 51  # a cadence of 2: most steps are not kept
    written = (tmp_path / "out" / "snapshots.csv").read_text().splitlines()
    assert written == per_value_lines(kept_steps(seen))


def test_simulate_fixed_mesh_blow_up_snapshots_match_per_value_formatting(
    tmp_path, monkeypatch
):
    # The uniform FTCS Burgers run of the driver tests, which blows up.
    text = (
        "problem = burgers\nscheme = ftcs\nn = 200\ncfl = 0.5\n"
        f"t_final = {GRID_FINAL_TIME}\nadaptive = false\n"
    )
    rc, seen = run_collecting(monkeypatch, tmp_path, text)
    assert rc == 3
    written = (tmp_path / "out" / "snapshots.csv").read_text().splitlines()
    assert written == per_value_lines(kept_steps(seen))


@pytest.mark.parametrize("adaptive", ["true", "false"])
def test_simulate_zero_length_run_writes_step_zero_only(tmp_path, monkeypatch, adaptive):
    # t_final = 0: one kept block, which takes the rewrite path.
    counts = kernel_row_counts(monkeypatch)
    text = BASE_CONFIG.replace("t_final = 0.02", "t_final = 0") + f"adaptive = {adaptive}\n"
    rc, seen = run_collecting(monkeypatch, tmp_path, text)
    assert rc == 0 and counts == []
    out = tmp_path / "out"
    assert json.loads((out / "manifest.json").read_text())["steps"] == 0
    assert [step for step, _, _ in seen] == [0]
    written = (out / "snapshots.csv").read_text().splitlines()
    assert len(written) == 1 + 40
    assert written == per_value_lines(seen)
    header = "step,time,tv,tvi,evolution_ratio,max_A,avg_A,a_n,E1"
    assert (out / "tv_series.csv").read_text().splitlines() == [header]


@pytest.mark.parametrize(
    "scheme, problem",
    [(kind.value, problem) for kind in SchemeKind for problem in ("transport", "burgers")],
)
@pytest.mark.parametrize("n", [64, _CHUNK_ROWS // 3 + 1], ids=["n64", "straddling"])
def test_simulate_adaptive_snapshots_match_per_value_formatting(
    tmp_path, monkeypatch, scheme, problem, n
):
    # Every kept block has a mesh of its own, so all go through the kernel;
    # at the larger n a chunk holds two blocks and a third starts the next.
    text = (
        f"problem = {problem}\nscheme = {scheme}\nn = {n}\ncfl = 0.5\n"
        "t_final = 0.02\nadaptive = true\n"
    )
    rc, seen = run_collecting(monkeypatch, tmp_path, text)
    assert rc in (0, 3)
    kept = kept_steps(seen)
    assert len({id(solution.mesh) for _, _, solution in kept}) == len(kept)
    written = (tmp_path / "out" / "snapshots.csv").read_text().splitlines()
    assert written == per_value_lines(kept)


@pytest.mark.parametrize("n", [_CHUNK_ROWS + 1, 5000])
def test_snapshot_lines_split_a_large_block_at_the_chunk_size(monkeypatch, n):
    # Every block has a mesh of its own and more rows than a chunk, so each
    # column's kernel calls are split at _CHUNK_ROWS values.
    rng = np.random.default_rng(n)
    sizes = []
    real_kernel = snapshots._format_17g

    def counting_kernel(values):
        sizes.append(values.size)
        return real_kernel(values)

    monkeypatch.setattr(snapshots, "_format_17g", counting_kernel)
    blocks = []
    for step in range(3):
        nodes = np.sort(rng.uniform(0.0, 1.0, n))
        values = rng.normal(size=n) * 10.0 ** rng.uniform(-320.0, 3.0, n)
        values[:3] = (0.0, -0.0, 5e-324)
        blocks.append((step, step / 3.0, GridSolution(Mesh(nodes), values)))
    assert snapshot_csv_lines(blocks) == per_value_lines(blocks)
    assert max(sizes) == _CHUNK_ROWS
    assert sum(sizes) == 3 * 2 * n


def kernel_texts(values):
    return [bytes(row[row != 0]).decode("ascii") for row in _format_17g(np.asarray(values))]


def assert_kernel_exact(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [fmt(value) for value in values.tolist()]
    assert kernel_texts(values) == expected


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=20))
def test_format_17g_matches_percent_format_on_any_floats(values):
    assert_kernel_exact(values + [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])


def test_format_17g_matches_percent_format_on_random_bit_patterns():
    bits = np.random.default_rng(37).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert_kernel_exact(bits.view(np.float64))


def neighbours(value, ulps):
    """``value`` and the ``ulps`` doubles on either side of it."""
    below = above = value
    out = [value]
    for _ in range(ulps):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        out += [below, above]
    return out


def test_format_17g_matches_percent_format_at_its_edges():
    edges = []
    for power in range(-8, 18):
        edges += neighbours(float(f"1e{power}"), 5)
    # 10, where Python's own '%.17g' takes over, and 1e-6, below which the
    # decade's double-double factor needs a low part; their own doubles lie
    # on either side of them.
    for edge in (1e-6, 10.0):
        edges += neighbours(edge, 50)
    # Values that round up to the next decade, and those just below them.
    for power in range(0, 9):
        edges += neighbours(float(f"9.9999999999999995e-{power}"), 3)
        edges += neighbours(float(f"9.99999999999999999e-{power}"), 3)
    # Ties: m / 2**(17 - E) with m odd has 18 significant digits, the last
    # a 5, in decade E.
    rng = np.random.default_rng(7)
    for decade in range(-7, 2):
        shift = 17 - decade
        low, high = math.ceil(10.0**decade * 2**shift), int(10.0 ** (decade + 1) * 2**shift)
        ties = [m / 2.0**shift for m in (rng.integers(low, high, 500) | 1).tolist()]
        edges += ties
    assert_kernel_exact(edges + [-value for value in edges])


def exact_decade(value):
    """E with 10**E <= |value| < 10**(E + 1), from the exact value."""
    magnitude = abs(fractions.Fraction(value))
    decade = math.floor(math.log10(abs(value)))
    while fractions.Fraction(10) ** decade > magnitude:
        decade -= 1
    while fractions.Fraction(10) ** (decade + 1) <= magnitude:
        decade += 1
    return decade


def in_tie_band(value):
    """Whether |value| * 10**(16 - E), its 17 digits unrounded, lies within
    the kernel's tie band and error bound of a half-integer."""
    scaled = abs(fractions.Fraction(value)) * fractions.Fraction(10) ** (16 - exact_decade(value))
    return abs(scaled - math.floor(scaled) - fractions.Fraction(1, 2)) <= snapshots._TIE_BAND + 6e-15


def python_fallback_values(monkeypatch, values):
    """Run the kernel on ``values``, check its texts, and return every value
    it handed to Python's own '%.17g'."""
    handed = []
    real_fallback = snapshots._python_17g

    def spying_fallback(values):
        handed.extend(values.tolist())
        return real_fallback(values)

    monkeypatch.setattr(snapshots, "_python_17g", spying_fallback)
    assert_kernel_exact(values)
    return handed


def test_format_17g_matches_percent_format_in_every_decade_below_one_millionth():
    edges = []
    for power in range(-323, -5):
        edges += neighbours(float(f"1e{power}"), 5)
    # The smallest subnormal, the largest subnormal and the smallest normal.
    edges += neighbours(5e-324, 3) + neighbours(2.2250738585072009e-308, 3)
    # Values that carry into the next decade, and those just below them.
    for power in range(7, 324):
        edges += neighbours(float(f"9.99999999999999999e-{power}"), 3)
        edges += neighbours(float(f"9.9999999999999995e-{power}"), 3)
    assert_kernel_exact(edges + [-value for value in edges])


def test_format_17g_hands_exact_ties_to_python(monkeypatch):
    # m * 2**j with m odd is a tie, 18 significant digits ending in 5, in
    # decade E exactly when j = E - 17. Below 1e-6 such doubles exist only
    # in E = -8 and -7, and all of them are taken; in each decade E = -6..0,
    # where the kernel's product is exact, 300 drawn ones.
    rng = np.random.default_rng(39)
    ties = []
    for decade in range(-324, 1):
        scale = fractions.Fraction(2) ** (17 - decade)
        low = math.ceil(fractions.Fraction(10) ** decade * scale)
        high = math.ceil(fractions.Fraction(10) ** (decade + 1) * scale)
        odd = range(low | 1, high, 2)
        if decade >= -6:
            odd = [odd[i] for i in rng.integers(0, len(odd), 300).tolist()]
        ties += [math.ldexp(m, decade - 17) for m in odd]
    assert sorted({exact_decade(tie) for tie in ties}) == list(range(-8, 1))
    values = ties + [-tie for tie in ties]
    assert sorted(python_fallback_values(monkeypatch, values)) == sorted(values)


def test_format_17g_error_bound_premises_hold_in_every_decade():
    # The premises of the error bound in _format_17g's docstring, on exact
    # values, for each decade E = -324..0 and its smallest and largest double.
    assert snapshots._TIE_BAND > fractions.Fraction(2) ** -48 + 20 * fractions.Fraction(2) ** -53
    for decade in range(-324, 1):
        at = decade + 324
        shift = int(snapshots._SHIFTS[at])
        high = fractions.Fraction(float(snapshots._HIGH[at]))
        low = fractions.Fraction(float(snapshots._LOW[at]))
        smallest = 5e-324 if at == 0 else float(snapshots._DECADES[at - 1])
        largest = math.nextafter(float(snapshots._DECADES[at]), 0.0)
        assert exact_decade(smallest) == exact_decade(largest) == decade
        for magnitude in (smallest, largest):
            assert 1 <= fractions.Fraction(magnitude) * 2**shift < 20
        assert 5 * 10**15 < high <= 10**16
        assert abs(low) <= 1
        assert low == 0 or decade < -6
        factor = fractions.Fraction(10 ** (16 - decade), 2**shift)
        assert abs(high + low - factor) <= factor / 2**53


def test_format_17g_hands_python_only_what_it_cannot_settle(monkeypatch):
    rng = np.random.default_rng(38)
    draws = 10.0 ** rng.uniform(-323.0, -6.0, 10_000) * rng.choice([-1.0, 1.0], 10_000)
    handed = python_fallback_values(monkeypatch, draws)
    assert all(in_tie_band(value) for value in handed)
    # Any float64: only non-finite values, |v| >= 10 and those in the tie
    # band. No double below 10 rounds up to 10 at 17 digits.
    bits = np.random.default_rng(39).integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    edges = [math.nextafter(10.0, 0.0), 10.0, math.inf, -math.inf, math.nan]
    for value in python_fallback_values(monkeypatch, np.concatenate([bits, edges])):
        assert not math.isfinite(value) or abs(value) >= 10.0 or in_tie_band(value), value


def test_tv_series_lines_match_per_value_formatting():
    records = [
        StepRecord(
            step=7, time=0.1, tv=5e-324, tvi=-0.0, evolution_ratio=1e300,
            max_score=1.0 / 3.0, mean_score=2.0**60, guard_rounds=3,
            increase=np.float64(0.7), overshoot=123456789.125,
        ),
        StepRecord(
            step=8, time=1e-310, tv=0.0, tvi=-1e300, evolution_ratio=0.0,
            max_score=float("inf"), mean_score=float("nan"), guard_rounds=0,
            increase=-2.5e-17, overshoot=1e22,
        ),
    ]
    expected = ["step,time,tv,tvi,evolution_ratio,max_A,avg_A,a_n,E1"] + [
        f"{r.step},{fmt(r.time)},{fmt(r.tv)},{fmt(r.tvi)},"
        f"{fmt(r.evolution_ratio)},{fmt(r.max_score)},"
        f"{fmt(r.mean_score)},{fmt(r.increase)},{fmt(r.overshoot)}"
        for r in records
    ]
    assert _tv_series_lines(records) == expected


def test_tv_series_round_trips_record_floats(tmp_path):
    from shockmesh import run_simulation

    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg_path), str(out)]) == 0
    _, rows = read_rows(out / "tv_series.csv")

    config = build_run_config(parse_config(BASE_CONFIG))
    result = run_simulation(config)
    assert len(rows) == result.steps
    for row, rec in zip(rows, result.records):
        assert float(row[2]) == rec.tv
        assert float(row[4]) == rec.evolution_ratio
        assert float(row[5]) == rec.max_score
        assert float(row[7]) == rec.increase
