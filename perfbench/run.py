"""shockmesh benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout and every operation
goes in-process through ``shockmesh.cli.main``, so config parsing and CSV
writing are included. One caller runs the operations one after another on
one thread (a closed loop) in passes over the workload, until ``--seconds``
have passed and at least ``MIN_PASSES`` passes are done. Every operation's
outputs are checked.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, then runs one operation under
``sys.setprofile``, and reports the per-layer metrics and the tracing
overhead (traced pass minus untraced pass).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Details (draws, every operation's
outcome, spans) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

# One thread: numpy reads these when it is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from checks import OpResult, call_main, check_op, clear_outputs, quality  # noqa: E402
from tracer import LAYERS, VALIDATED, Tracer, count_python_calls, find_wrapped  # noqa: E402
from workloads import DEFAULT_SEED, build_workload, materialize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOADS = ("grid", "uniform_fine", "adaptive_fine", "theory_sweep")
SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# The host's speed drifts by up to 2x, in phases from a fraction of a
# second to tens of seconds (other tenants on shared cores), and CPU time
# drifts with it. So every timing is scaled by a calibration kernel timed
# before and after it and, while an operation runs, every
# SAMPLE_INTERVAL_S from a SIGALRM handler:
#     scaled = measured * CAL_REFERENCE_S / mean kernel time,
# i.e. seconds at the speed where the kernel takes CAL_REFERENCE_S (a
# 2-core host in its fast phase). The samples' own time is left out of
# the measured time. Raw times are kept in the result file.
CAL_REPS = 40
CAL_REFERENCE_S = 2.0e-4
SAMPLE_INTERVAL_S = 0.025
# Every end-to-end metric is on every result line. A workload that does
# not gate accuracy (see workloads.Workload) reports this neutral value for
# the accuracy metrics; the printed report shows a sample count of 0.
NO_SAMPLE = 1.0

clock = time.perf_counter


def import_package():
    """Import shockmesh.cli from the checkout's ``src/``; exit 2 when it is absent."""
    if not (SRC / "shockmesh" / "__init__.py").is_file():
        print(f"error: no shockmesh package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import shockmesh.cli

    if Path(shockmesh.__file__).resolve().parent != (SRC / "shockmesh").resolve():
        print(f"error: imported shockmesh from {shockmesh.__file__}", file=sys.stderr)
        sys.exit(2)
    return shockmesh.cli


def _kernel(reps: int) -> float:
    """Python calls, small numpy operations and float formatting, the mix a
    pass spends its time on."""
    x = np.linspace(0.0, 1.0, 256)
    total = 0.0
    for _ in range(reps):
        total += float(np.abs(np.diff(x)).sum())
        for j in range(10):
            total += j * 0.5
        format(total, ".17g")
    return total


def kernel_time() -> float:
    started = clock()
    _kernel(CAL_REPS)
    return clock() - started


class HostClock:
    """Times calls and scales them to the reference host speed."""

    def __init__(self):
        self.last: float | None = None  # kernel time after the previous call
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(kernel_time())

    def _calibrate(self) -> float:
        return median(kernel_time() for _ in range(5))

    def measure(self, fn, sample: bool = True):
        """Return (fn(), seconds, scaled seconds, seconds spent sampling).

        ``sample=False`` leaves the call uninterrupted, for a call whose
        Python-level events are being counted.
        """
        before = self.last if self.last is not None else self._calibrate()
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample) if sample else None
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        started = clock()
        try:
            value = fn()
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = clock() - started
        self.last = self._calibrate()
        spent = sum(self.samples)
        seconds = elapsed - spent
        speed = (before + self.last + spent) / (2 + len(self.samples))
        return value, seconds, seconds * CAL_REFERENCE_S / speed, spent


def measure_setup(name: str, seed: int, workdir: Path):
    """Median over repeats of: a fresh interpreter importing the package,
    plus generating the workload's inputs (scaled seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    host = HostClock()

    def set_up():
        subprocess.run(
            [sys.executable, "-c", "import shockmesh"], env=env, cwd=ROOT, check=True
        )
        workload = build_workload(name, seed)
        materialize(workload, workdir)
        return workload

    samples = []
    for _ in range(SETUP_REPEATS):
        workload, _, scaled, _ = host.measure(set_up, sample=False)
        samples.append(scaled)
    return median(samples), workload


class Runner:
    """Runs passes over a workload and keeps every operation's outcome.

    ``cli.main`` is looked up at every call, so an installed tracer sees it.
    """

    def __init__(self, workload, workdir: Path, cli):
        self.workload = workload
        self.workdir = workdir
        self.cli = cli
        self.results: list[OpResult] = []
        self.verified: dict[str, dict] = {}
        self.quality: dict[str, dict] = {}
        self.next_run = 0
        self.host = HostClock()

    def run_op(self, op, pass_index: int, tracer=None, main=None, sample=True) -> OpResult:
        run_id = self.next_run
        self.next_run += 1
        if tracer is not None:
            tracer.run_id = run_id
        clear_outputs(op, self.workdir)
        argv = op.argv(self.workdir)
        (rc, error), seconds, scaled, spent = self.host.measure(
            lambda: call_main(main or self.cli.main, argv), sample=sample
        )
        result = OpResult(
            op.name, pass_index, run_id, tracer is not None, seconds, scaled, spent, rc, error
        )
        check_op(op, self.workdir, result, self.verified.get(op.name))
        if not result.failed and op.name not in self.verified:
            self.verified[op.name] = {"hashes": result.hashes, "steps": result.steps}
            if op.adaptive:
                self.quality[op.name] = quality(op, self.workdir)
        self.results.append(result)
        return result

    def run_pass(self, pass_index: int, tracer=None) -> list[OpResult]:
        return [self.run_op(op, pass_index, tracer) for op in self.workload.ops]


def pass_seconds(passes: list[list[OpResult]]) -> float:
    """Wall time of one pass: the sum over ops of each op's median scaled time."""
    per_op: dict[str, list[float]] = {}
    for results in passes:
        for r in results:
            per_op.setdefault(r.op, []).append(r.scaled)
    return sum(median(times) for times in per_op.values())


def outputs_identical(runner: Runner, reference: dict | None) -> int:
    """1 when every execution reproduced the reference bytes and step counts.

    Without a reference for this seed, 1 when every execution of an op
    reproduced the bytes of its first execution.
    """
    first: dict[str, dict] = {}
    for r in runner.results:
        if reference is None:
            if first.setdefault(r.op, r.hashes) != r.hashes:
                return 0
            continue
        expected = reference.get(r.op)
        if expected is None or r.hashes != expected["sha256"] or (
            not r.failed and r.steps != expected["steps"]
        ):
            return 0
    return 1


def load_reference(workload) -> dict | None:
    if workload.seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(workload.name)


def end_to_end(runner: Runner, passes, setup_s: float) -> tuple[dict, list[str]]:
    attempted = len(runner.results)
    failed = sum(r.failed for r in runner.results)
    samples = list(runner.quality.values())
    count = len(samples)
    gated = runner.workload.gates_accuracy and count > 0

    def accuracy(fn, key):
        return fn([s[key] for s in samples]) if gated else NO_SAMPLE

    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (pass_seconds(passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "final_tv_ratio_max": (accuracy(max, "tv_ratio"), "ratio"),
        "l1_error_mean": (accuracy(mean, "l1"), "1"),
    }
    runs = f"{count} adaptive runs" if gated else "0 samples: not gated on this workload"
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "wall_s": f"sum over {len(runner.workload.ops)} ops of the median over {len(passes)} passes",
        "peak_rss_mb": "whole process",
        "ok_ratio": f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}",
        "final_tv_ratio_max": runs,
        "l1_error_mean": runs,
    }
    lines = [
        f"{name} = {value:.6g} {unit}  ({notes[name]})"
        for name, (value, unit) in metrics.items()
    ]
    if samples and not gated:
        lines.append(
            f"accuracy of {count} adaptive run(s), not gated here: final TV ratio "
            f"{max(s['tv_ratio'] for s in samples):.6g}, L1 error "
            f"{mean([s['l1'] for s in samples]):.6g}, mass drift "
            f"{mean([s['mass_drift'] for s in samples]):.6g}"
        )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(runner, tracer, untraced, traced, py_calls, profile_steps, reference):
    spans = tracer.spans()
    ids = {name: i for i, name in enumerate(tracer.names)}
    n_passes = len(traced)
    run_pass = np.full(runner.next_run, -1)
    run_scale = np.zeros(runner.next_run)  # scaled seconds per raw second
    for k, results in enumerate(traced):
        for r in results:
            run_pass[r.run_id] = k
            run_scale[r.run_id] = r.scaled / r.seconds if r.seconds > 0.0 else 0.0
    span_pass = run_pass[spans["run"]]
    span_scale = run_scale[spans["run"]]
    steps = sum(r.steps for r in traced[0])
    traced_steps = steps * n_passes

    def seconds(*names, column="duration", prefix=False):
        """Median over traced passes of the scaled time in the named spans."""
        wanted = [i for n, i in ids.items() if (n.startswith(names[0] + ".") if prefix else n in names)]
        mask = np.isin(spans["name"], wanted) & (span_pass >= 0)
        totals = np.bincount(
            span_pass[mask], weights=(spans[column] * span_scale)[mask], minlength=n_passes
        )
        return float(median(totals))

    def calls(name):
        return int((spans["name"] == ids[name]).sum()) if name in ids else 0

    def per_step(count):
        return count / traced_steps if traced_steps else 0.0

    guard_id = ids["remesh.enforce_extreme_guard"]
    guard_spans = spans["name"] == guard_id
    detects = spans["name"] == ids["grid.detect_extremes"]
    detect_parents = spans["parent"][detects]
    detects_in_guard = int((spans["name"][detect_parents[detect_parents >= 0]] == guard_id).sum())
    rounds = [rounds for run, rounds, _ in tracer.guard_reports if run_pass[run] >= 0]
    corrections = sum(c for run, _, c in tracer.guard_reports if run_pass[run] >= 0)
    constructions = {
        cls: sum(n for (run, c), n in tracer.constructions.items() if c == cls and run_pass[run] >= 0)
        for cls in VALIDATED
    }
    entries = n_passes * sum(
        op.settings["kmax"] * (op.settings["kmax"] + 1) // 2
        for op in runner.workload.ops
        if op.command == "theory"
    )
    untraced_s = pass_seconds(untraced)
    traced_s = pass_seconds(traced)
    metrics = {
        "remesh.guard_s": (seconds("remesh.enforce_extreme_guard"), "s"),
        "remesh.guard_rounds_mean": (sum(rounds) / len(rounds) if rounds else 0.0, "count"),
        "remesh.guard_rounds_max": (max(rounds, default=0), "count"),
        "remesh.corrections_per_step": (per_step(corrections), "1/step"),
        "remesh.extreme_detects_per_guard": (
            detects_in_guard / int(guard_spans.sum()) if guard_spans.any() else 0.0, "1/call"),
        "remesh.guard_failures": (int(spans["raised"][guard_spans].sum()) / n_passes, "count"),
        "remesh.transfer_s": (seconds("remesh.interpolate_update"), "s"),
        # Not an end-to-end metric: the mass drift of a run moves so much with
        # the jump's sub-cell position that its mean over the grid's 24 runs
        # still spreads about 20% from seed to seed.
        "remesh.mass_drift_mean": (
            mean(q["mass_drift"] for q in runner.quality.values()) if runner.quality else 0.0,
            "ratio"),
        "remesh.remesh_step_s": (seconds("remesh.remesh_step"), "s"),
        "monitor.curvature_s": (seconds("monitor.discrete_curvature", "monitor.regularize_curvature"), "s"),
        "monitor.build_s": (seconds("monitor.build_monitor"), "s"),
        "monitor.equidistribute_s": (seconds("monitor.equidistribute"), "s"),
        "driver.front_window_s": (seconds("driver.front_window"), "s"),
        "driver.front_window_calls_per_step": (per_step(calls("driver.front_window")), "1/step"),
        "driver.shock_increase_s": (seconds("driver.measure_shock_increase"), "s"),
        "driver.steps": (steps, "count"),
        "driver.us_per_step": (1e6 * untraced_s / steps if steps else 0.0, "us"),
        "driver.py_calls_per_step": (py_calls / profile_steps if profile_steps else 0.0, "1/step"),
        "grid.validations_per_step": (per_step(sum(constructions.values())), "1/step"),
        "grid.cell_geometry_per_step": (per_step(constructions["CellGeometry"]), "1/step"),
        "grid.detect_extremes_s": (seconds("grid.detect_extremes"), "s"),
        "grid.total_variation_s": (seconds("grid.total_variation"), "s"),
        "schemes.step_s": (seconds("schemes.scheme_step"), "s"),
        "schemes.choose_dt_s": (seconds("schemes.choose_dt"), "s"),
        "schemes.context_s": (seconds("schemes.StepContext.for_solution"), "s"),
        "schemes.evolution_ratio_s": (seconds("schemes.evolution_ratio"), "s"),
        "bounds.table_s": (seconds("bounds.extreme_bound_table"), "s"),
        "bounds.closed_form_s": (seconds("bounds.extreme_bound_closed_form"), "s"),
        "bounds.closed_form_calls_per_entry": (
            calls("bounds.extreme_bound_closed_form") / entries if entries else 0.0, "1/entry"),
        "bounds.uniform_bound_calls_per_entry": (
            calls("bounds.uniform_extreme_bound") / entries if entries else 0.0, "1/entry"),
        "cli.bytes_written": (median(sum(r.csv_bytes for r in p) for p in traced), "B"),
        "cli.snapshot_bytes_retained": (max(tracer.retained_bytes.values(), default=0), "B"),
        "cli.outputs_identical": (outputs_identical(runner, reference), "flag"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (seconds(layer, column="self", prefix=True), "s")
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in sorted(metrics.items())]
    lines.append(
        f"(times: median over {n_passes} traced passes; untraced pass {untraced_s:.4g} s, "
        f"traced pass {traced_s:.4g} s; per-step counts over {traced_steps} traced steps)"
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_package()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup_s, workload = measure_setup(args.workload, args.seed, workdir)
        runner = Runner(workload, workdir, cli)
        reference = load_reference(workload)
        stem = OUT / f"{workload.name}-seed{workload.seed}-trace{args.trace}"

        def untraced_pass(index):
            wrapped = find_wrapped()
            if wrapped:
                raise RuntimeError(f"untraced pass would run wrapped functions: {wrapped}")
            return runner.run_pass(index)

        started = clock()
        if args.trace == 0:
            passes = []
            while len(passes) < MIN_PASSES or clock() - started < args.seconds:
                passes.append(untraced_pass(len(passes)))
            metrics, lines = end_to_end(runner, passes, setup_s)
        else:
            tracer = Tracer()
            untraced, traced = [], []
            while len(traced) < MIN_TRACED_PASSES or clock() - started < args.seconds:
                untraced.append(untraced_pass(2 * len(traced)))
                tracer.install()
                try:
                    traced.append(runner.run_pass(2 * len(traced) + 1, tracer))
                finally:
                    tracer.uninstall()
            py_calls = profile_steps = 0
            if workload.profile_op is not None:
                op = next(o for o in workload.ops if o.name == workload.profile_op)

                def profiled(argv):
                    nonlocal py_calls
                    rc, py_calls = count_python_calls(cli.main, argv)
                    return rc

                profile_steps = runner.run_op(op, -1, main=profiled, sample=False).steps
            metrics, lines = per_layer(
                runner, tracer, untraced, traced, py_calls, profile_steps, reference
            )
            tracer.write_spans(f"{stem}-spans.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.results)
    failed = [r for r in runner.results if r.failed]
    correct = not any(r.wrong_output for r in runner.results)
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": args.trace,
        "draws": workload.draws(),
        "quality": runner.quality,
        "metrics": metrics,
        "operations": [vars(r) for r in runner.results],
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name}, seed {workload.seed}, trace {args.trace}: "
          f"{attempted} operations, {len(failed)} failed; details in {stem.name}.json")
    draws = ", ".join(
        f"{name}: " + "/".join(f"{v:.6g}" for v in d.values())
        for name, d in workload.draws().items()
    )
    print(f"draws ({'/'.join(next(iter(workload.draws().values())))}): {draws}")
    for r in failed[:5]:
        print(f"FAILED {r.op} (pass {r.pass_index}): {r.failure}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
