"""Command-line harness: adaptive-vs-uniform runs and bound sweeps.

Two subcommands. ``simulate <config> <outdir>`` runs one simulation from a
flat key=value config file and writes snapshots.csv, tv_series.csv and
manifest.json; ``theory --lambda --c --m --kmax <out>`` sweeps the bound
table under sustained forcing and writes bounds.csv. Exit codes: 0 success,
2 unusable configuration or parameters, 3 runtime blow-up (partial outputs
are kept), 4 a failed mesh reconstruction (manifest only) or a bound table
that failed its self-check (no file). All numbers are serialized with 17
significant digits, so the CSV outputs of identical configurations are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from itertools import chain
from pathlib import Path

import numpy as np

from .bounds import (
    _MAX_BINOMIAL_STEP,
    BoundParams,
    extreme_bound_closed_form,
    extreme_bound_table,
    increase_contribution,
    total_increase_contribution,
    tv_increase_bound_from_contributions,
    tv_increase_bound_from_extremes,
    uniform_extreme_bound,
)
from .driver import BlowUpError, RunConfig, StepRecord, run_simulation
from .grid import GridSolution, Problem, burgers_problem, transport_problem
from .monitor import EstimatorParams
from .remesh import ExtremeGuardParams, RemeshError
from .schemes import SchemeKind, evolution_constant

__all__ = ["ConfigError", "parse_config", "build_run_config", "main"]

_PROBLEMS = {
    "transport": transport_problem,
    "burgers": burgers_problem,
}

_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}

# The optional keys default to the defaults of the fields they set.
_CONFIG_DEFAULTS = {
    "adaptive": RunConfig.adaptive,
    "epsilon": EstimatorParams.floor,
    "pw": EstimatorParams.power,
    "eps_corr": ExtremeGuardParams.nudge_factor,
    "remesh_reps": RunConfig.remesh_repetitions,
    "x0": RunConfig.jump_position,
}
_REQUIRED_KEYS = ("problem", "scheme", "n", "cfl", "t_final")


class ConfigError(ValueError):
    """The run configuration cannot be used as given."""


def _fmt(value: float) -> str:
    """Serialize a float with enough digits to round-trip exactly."""
    return format(float(value), ".17g")


def _parse_bool(value: str, key: str) -> bool:
    word = value.lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def _parse_typed(key: str, value: str):
    try:
        if key == "problem":
            if value not in _PROBLEMS:
                raise ConfigError(
                    f"problem must be one of {sorted(_PROBLEMS)}, got {value!r}"
                )
            return value
        if key == "scheme":
            try:
                return SchemeKind(value).value
            except ValueError:
                choices = sorted(kind.value for kind in SchemeKind)
                raise ConfigError(
                    f"scheme must be one of {choices}, got {value!r}"
                ) from None
        if key in ("n", "remesh_reps"):
            return int(value)
        if key in ("cfl", "t_final", "epsilon", "pw", "eps_corr", "x0"):
            return float(value)
        if key == "adaptive":
            return _parse_bool(value, key)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"cannot parse {key}={value!r}") from None
    raise ConfigError(f"unknown config key {key!r}")


def parse_config(text: str) -> dict:
    """Parse flat key=value config text into a typed, defaulted dict.

    Blank lines and lines starting with '#' are ignored. Unknown keys,
    duplicate keys, missing required keys and untypable values all raise
    ConfigError.
    """
    seen: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = _parse_typed(key, value)
    for key in _REQUIRED_KEYS:
        if key not in seen:
            raise ConfigError(f"missing required key {key!r}")
    merged = dict(_CONFIG_DEFAULTS)
    merged.update(seen)
    return merged


def build_run_config(settings: dict) -> RunConfig:
    """Turn a parsed config dict into a validated RunConfig."""
    scheme = SchemeKind(settings["scheme"])
    problem: Problem = _PROBLEMS[settings["problem"]]()
    try:
        estimator = EstimatorParams(
            floor=settings["epsilon"], power=settings["pw"]
        )
        guard = ExtremeGuardParams(
            growth_constant=evolution_constant(scheme, settings["cfl"]),
            nudge_factor=settings["eps_corr"],
        )
        return RunConfig(
            problem=problem,
            scheme=scheme,
            n=settings["n"],
            cfl_target=settings["cfl"],
            final_time=settings["t_final"],
            adaptive=settings["adaptive"],
            estimator=estimator,
            guard=guard,
            remesh_repetitions=settings["remesh_reps"],
            jump_position=settings["x0"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _snapshot_lines(
    snapshots: list[tuple[int, float, GridSolution]], total_steps: int
) -> list[str]:
    cadence = max(1, math.ceil(total_steps / 50))
    last = snapshots[-1][0]
    lines = ["step,time,node_index,x,u"]
    for step, instant, solution in snapshots:
        if step % cadence != 0 and step != last:
            continue
        # One %-format per block: '%.17g' % x is the text of _fmt(x).
        n = len(solution)
        row = f"{step},{_fmt(instant)},%d,%.17g,%.17g"
        fields = zip(range(n), solution.mesh.nodes.tolist(), solution.values.tolist())
        lines.append("\n".join([row] * n) % tuple(chain.from_iterable(fields)))
    return lines


def _tv_series_lines(records: tuple[StepRecord, ...] | list[StepRecord]) -> list[str]:
    lines = ["step,time,tv,tvi,evolution_ratio,max_A,avg_A,a_n,E1"]
    # One %-format per row: '%.17g' % x is the text of _fmt(x).
    row = "%d" + ",%.17g" * 8
    for rec in records:
        lines.append(row % (
            rec.step, rec.time, rec.tv, rec.tvi, rec.evolution_ratio,
            rec.max_score, rec.mean_score, rec.increase, rec.overshoot,
        ))
    return lines


def _write_manifest(out: Path, manifest: dict) -> None:
    with open(out / "manifest.json", "w", newline="\n") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")


def cmd_simulate(config_path: str, outdir: str) -> int:
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        settings = parse_config(text)
        config = build_run_config(settings)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    snapshots: list[tuple[int, float, GridSolution]] = []

    def keep(step: int, instant: float, solution: GridSolution) -> None:
        snapshots.append((step, instant, solution))

    start = time.perf_counter()
    status = "ok"
    blow_up_step = None
    try:
        result = run_simulation(config, keep)
        records: tuple[StepRecord, ...] | list[StepRecord] = result.records
        steps = result.steps
    except BlowUpError as exc:
        status = "blow_up"
        blow_up_step = exc.step
        records = exc.records
        steps = len(exc.records)
    except RemeshError as exc:
        # The hook has seen the initial state and every completed step.
        steps = snapshots[-1][0]
        # Only the manifest describes this run: CSVs that an earlier run
        # left in the directory would pass for its output.
        for name in ("snapshots.csv", "tv_series.csv"):
            (out / name).unlink(missing_ok=True)
        _write_manifest(out, {
            "command": "simulate",
            "status": "remesh_error",
            "steps": steps,
            "error": str(exc),
            "wall_time_seconds": time.perf_counter() - start,
            "config": settings,
        })
        print(f"error: mesh reconstruction failed after step {steps}: {exc}", file=sys.stderr)
        return 4
    wall = time.perf_counter() - start

    _write_lines(out / "snapshots.csv", _snapshot_lines(snapshots, steps))
    _write_lines(out / "tv_series.csv", _tv_series_lines(records))

    manifest = {
        "command": "simulate",
        "status": status,
        "steps": steps,
        "wall_time_seconds": wall,
        "config": settings,
        "outputs": {
            "snapshots": "snapshots.csv",
            "tv_series": "tv_series.csv",
        },
    }
    if blow_up_step is not None:
        manifest["blow_up_step"] = blow_up_step
    _write_manifest(out, manifest)

    if status == "blow_up":
        print(f"error: solution blew up at step {blow_up_step}", file=sys.stderr)
        return 3
    return 0


def _check_table_identities(
    params: BoundParams, last_step: int, table, closed: np.ndarray, uniform: list[float]
) -> None:
    """Cross-validate the bound table before writing it out.

    ``closed[m, k]`` is the closed-form entry and ``uniform[m - 1]`` the
    stationary bound on extreme m; the CSV writer reuses both.
    """
    envelope = (
        params.variation_scale
        * (1.0 - params.weak_coupling_sum)
        / (1.0 - params.coupling_sum)
    )
    b1 = tv_increase_bound_from_extremes(params)
    b2 = tv_increase_bound_from_contributions(params)
    slack = 1.0 + 1e-12
    for k in range(1, last_step + 1):
        previous = math.inf
        for m in range(1, k + 1):
            rec = table.value(m, k)
            if abs(closed[m, k] - rec) > 1e-10 * (1.0 + rec):
                raise RuntimeError(f"closed form mismatch at m={m}, k={k}")
            if rec > previous * slack:
                raise RuntimeError(f"extreme order violated at m={m}, k={k}")
            if rec > uniform[m - 1] * slack + 1e-300:
                raise RuntimeError(f"uniform bound violated at m={m}, k={k}")
            previous = rec
        if table.column_sum(k) > envelope * slack:
            raise RuntimeError(f"extreme-sum envelope violated at k={k}")
        if 2.0 * total_increase_contribution(params, k) > b2 * slack:
            raise RuntimeError(f"contribution bound violated at k={k}")
    if b2 > b1:
        raise RuntimeError("contribution bound exceeds extreme-sum bound")


def cmd_theory(
    clip_factor: float, growth: float, scale: float, last_step: int, out_path: str
) -> int:
    try:
        if not 1 <= last_step <= _MAX_BINOMIAL_STEP:
            raise ValueError(f"kmax must lie in [1, {_MAX_BINOMIAL_STEP}]")
        params = BoundParams(
            clip_factor=clip_factor,
            growth_constant=growth,
            variation_scale=scale,
            increases=np.full(last_step, growth * scale),
        )
        params.require_coupling()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = extreme_bound_table(params, last_step)
    closed = np.zeros((last_step + 1, last_step + 1))
    for k in range(1, last_step + 1):
        for m in range(1, k + 1):
            closed[m, k] = extreme_bound_closed_form(params, m, k)
    uniform = [uniform_extreme_bound(params, m) for m in range(1, last_step + 1)]
    try:
        _check_table_identities(params, last_step, table, closed, uniform)
    except RuntimeError as exc:
        print(f"error: bound table failed its self-check: {exc}", file=sys.stderr)
        return 4

    b1 = tv_increase_bound_from_extremes(params)
    b2 = tv_increase_bound_from_contributions(params)
    lines = [
        "m,k,E_recursion,E_closed_form,uniform_bound,contribution,partial_sum,B1,B2"
    ]
    b1_str = _fmt(b1)
    b2_str = _fmt(b2)
    for k in range(1, last_step + 1):
        partial = 0.0
        for m in range(1, k + 1):
            rec = table.value(m, k)
            partial += rec
            lines.append(
                f"{m},{k},{_fmt(rec)},"
                f"{_fmt(closed[m, k])},"
                f"{_fmt(uniform[m - 1])},"
                f"{_fmt(increase_contribution(params, m, k))},"
                f"{_fmt(partial)},{b1_str},{b2_str}"
            )
    out = Path(out_path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    _write_lines(out, lines)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shockmesh",
        description=(
            "Adaptive-mesh runs for scalar conservation laws and "
            "total-variation bound sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation from a config file")
    sim.add_argument("config", help="path to a key=value config file")
    sim.add_argument("outdir", help="directory for CSV and manifest outputs")

    theory = sub.add_parser("theory", help="sweep the bound table to a CSV")
    theory.add_argument(
        "--lambda",
        dest="clip_factor",
        type=float,
        required=True,
        help="per-step extreme clip factor, in (0, 1)",
    )
    theory.add_argument(
        "--c",
        dest="growth",
        type=float,
        required=True,
        help="scheme growth constant",
    )
    theory.add_argument(
        "--m",
        dest="scale",
        type=float,
        required=True,
        help="variation scale of the data",
    )
    theory.add_argument(
        "--kmax",
        dest="last_step",
        type=int,
        required=True,
        help=f"number of steps to tabulate (at most {_MAX_BINOMIAL_STEP})",
    )
    theory.add_argument("out", help="output CSV path")

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.config, args.outdir)
    return cmd_theory(
        args.clip_factor, args.growth, args.scale, args.last_step, args.out
    )


if __name__ == "__main__":
    sys.exit(main())
