"""Command-line harness: adaptive-vs-uniform runs and bound sweeps.

Two subcommands. ``simulate <config> <outdir>`` runs one simulation from a
flat key=value config file and writes snapshots.csv, tv_series.csv and
manifest.json; ``theory --lambda --c --m --kmax <out>`` sweeps the bound
table under sustained forcing and writes bounds.csv. While it runs,
``simulate`` keeps no step's arrays in memory: it spills each step's values,
and the nodes of each new mesh, to an unnamed temporary file in the output
directory (about 8*N bytes per step on a fixed mesh, 16*N on an adaptive
one), which is gone when the command ends, and reads back only the steps
that snapshots.csv keeps. Exit codes: 0 success, 2 unusable configuration,
parameters or paths (a config file that cannot be read or is not valid text,
an output directory that cannot be created, or a table path that cannot be
written; nothing is created or written) or simulate outputs or a spill that
cannot be written, or a run too large for memory (every file and directory
the run created is removed again), 3 runtime blow-up (partial outputs are
kept), 4 a failed mesh reconstruction or a time step that cannot advance
the clock (manifest only) or a bound table that failed its self-check (no
file). All numbers are serialized as '%.17g'
writes them (adaptive snapshot rows by an exact numpy kernel in
``snapshots``), so the CSV outputs of identical configurations are
byte-identical.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import tempfile
import time
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .bounds import (
    _MAX_BINOMIAL_STEP,
    BoundParams,
    _closed_form_table,
    extreme_bound_table,
    tv_increase_bound_from_contributions,
    tv_increase_bound_from_extremes,
    uniform_extreme_bound,
)
from .driver import BlowUpError, RunConfig, StepRecord, _Stalled, run_simulation
from .grid import burgers_problem, transport_problem
from .monitor import EstimatorParams
from .remesh import RemeshError
from .schemes import SchemeKind
from .snapshots import snapshot_lines, spill_hook

__all__ = ["parse_config", "build_run_config", "main"]

_PROBLEMS = {
    "transport": transport_problem,
    "burgers": burgers_problem,
}

# Each config key maps to its type, or to the list of words it accepts, and
# to its default: the default of the field it sets, or _REQUIRED.
_REQUIRED = object()
_KEYS = {
    "problem": (sorted(_PROBLEMS), _REQUIRED),
    "scheme": (sorted(kind.value for kind in SchemeKind), _REQUIRED),
    "n": (int, _REQUIRED),
    "cfl": (float, _REQUIRED),
    "t_final": (float, _REQUIRED),
    "adaptive": (bool, RunConfig.adaptive),
    "pw": (float, EstimatorParams.power),
    "x0": (float, RunConfig.jump_position),
}


def _parse_value(key: str, value: str):
    kind = _KEYS[key][0]
    if isinstance(kind, list):
        if value not in kind:
            raise ValueError(f"{key} must be one of {kind}, got {value!r}")
        return value
    if kind is bool:
        word = value.lower()
        if word in ("true", "1", "yes", "on"):
            return True
        if word in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"{key} must be a boolean, got {value!r}")
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"cannot parse {key}={value!r}") from None


def parse_config(text: str) -> dict:
    """Parse flat key=value config text into a typed, defaulted dict.

    Blank lines and lines whose first non-blank character is '#' are
    ignored. Unknown keys, duplicate keys, missing required keys and
    untypable values all raise ValueError. The dict holds the defaults
    first, then the keys the text sets, in its order.
    """
    seen: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r}")
        seen[key] = _parse_value(key, value.strip())
    defaults = {}
    for key, (_, default) in _KEYS.items():
        if default is not _REQUIRED:
            defaults[key] = default
        elif key not in seen:
            raise ValueError(f"missing required key {key!r}")
    return {**defaults, **seen}


def build_run_config(settings: dict) -> RunConfig:
    """Turn a parsed config dict into a validated RunConfig.

    Raises ValueError, with RunConfig's message, for a value out of range.
    """
    return RunConfig(
        problem=_PROBLEMS[settings["problem"]](),
        scheme=SchemeKind(settings["scheme"]),
        n=settings["n"],
        cfl_target=settings["cfl"],
        final_time=settings["t_final"],
        adaptive=settings["adaptive"],
        estimator=EstimatorParams(power=settings["pw"]),
        jump_position=settings["x0"],
    )


def _write_outputs(out: Path, outputs: dict[str, Iterable[str] | None]) -> None:
    """Write the named files into ``out`` and remove those mapped to None.

    Each file is written text by text, each text followed by a newline. On
    an OSError or a MemoryError, the files this call opened are removed
    again before the error propagates, so a failed write leaves none of
    them behind.
    """
    opened: list[Path] = []
    try:
        for name, texts in outputs.items():
            path = out / name
            if texts is None:
                path.unlink(missing_ok=True)
                continue
            with open(path, "w", newline="\n") as handle:
                opened.append(path)
                for text in texts:
                    handle.write(text)
                    handle.write("\n")
    except (OSError, MemoryError):
        for path in opened:
            path.unlink(missing_ok=True)
        raise


def _make_dirs(path: Path, created: list[Path]) -> None:
    """``mkdir -p path``; each directory it creates goes first in ``created``."""
    if not path.is_dir():
        _make_dirs(path.parent, created)
        path.mkdir()
        created.insert(0, path)


def _tv_series_lines(records: tuple[StepRecord, ...] | list[StepRecord]) -> list[str]:
    lines = ["step,time,tv,tvi,evolution_ratio,max_A,avg_A,a_n,E1"]
    # One %-format per row.
    row = "%d" + ",%.17g" * 8
    for rec in records:
        lines.append(row % (
            rec.step, rec.time, rec.tv, rec.tvi, rec.evolution_ratio,
            rec.max_score, rec.mean_score, rec.increase, rec.overshoot,
        ))
    return lines


# The manifest statuses of a run that exits 4, and what stderr calls them.
_FAILURES = {"remesh_error": "mesh reconstruction failed", "stalled": "run stalled"}


def cmd_simulate(config_path: str, outdir: str) -> int:
    try:
        # utf-8-sig drops a leading byte-order mark, which some editors write.
        text = Path(config_path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        settings = parse_config(text)
        config = build_run_config(settings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(outdir)
    created: list[Path] = []
    try:
        _make_dirs(out, created)
        # A 64 KiB write buffer: one write call per about 2.5 steps of an
        # adaptive run at N = 1600, instead of two per step. A larger one
        # comes from the heap once glibc has raised its mmap threshold past
        # it, and a process that runs many simulations can then need fresh
        # pages for a later large array (about +3 MB peak RSS with 1 MiB).
        with tempfile.TemporaryFile(dir=out, buffering=1 << 16) as spill:
            manifest = _simulate_into(out, spill, config, settings)
    except (OSError, MemoryError) as exc:
        for path in created:
            path.rmdir()
        what = "cannot write outputs" if isinstance(exc, OSError) else "out of memory"
        print(f"error: {what}: {exc}", file=sys.stderr)
        return 2
    if manifest["status"] in _FAILURES:
        print(
            f"error: {_FAILURES[manifest['status']]} after step {manifest['steps']}: "
            f"{manifest['error']}",
            file=sys.stderr,
        )
        return 4
    if manifest["status"] == "blow_up":
        print(f"error: solution blew up at step {manifest['blow_up_step']}", file=sys.stderr)
        return 3
    return 0


def _simulate_into(
    out: Path, spill: io.BufferedRandom, config: RunConfig, settings: dict
) -> dict:
    """Run ``config``, spilling each step to ``spill``; write the outputs.

    Returns the manifest. An OSError from the spill or from writing, or a
    MemoryError, propagates, and then no output file is left behind.
    """
    index: list[tuple[int, float, int, int]] = []
    start = time.perf_counter()
    blow_up_step = error = None
    status = "ok"
    try:
        records = run_simulation(config, spill_hook(spill, index)).records
    except BlowUpError as exc:
        blow_up_step, records = exc.step, exc.records
    except RemeshError as exc:
        status, error = "remesh_error", str(exc)
    except _Stalled as exc:
        status, error = "stalled", str(exc)
    # The hook has seen the initial state and every completed step.
    steps = index[-1][0]
    manifest = {"command": "simulate", "status": status, "steps": steps}
    if error is not None:
        manifest["error"] = error
    manifest.update(wall_time_seconds=time.perf_counter() - start, config=settings)
    # Only the manifest describes a failed reconstruction or a stalled run:
    # CSVs that an earlier run left in the directory would pass for its
    # output.
    csvs = {"snapshots.csv": None, "tv_series.csv": None}
    if error is None:
        manifest["outputs"] = {"snapshots": "snapshots.csv", "tv_series": "tv_series.csv"}
        csvs = {
            "snapshots.csv": snapshot_lines(spill, index, config.n),
            "tv_series.csv": ["\n".join(_tv_series_lines(records))],
        }
    if blow_up_step is not None:
        manifest.update(status="blow_up", blow_up_step=blow_up_step)
    _write_outputs(out, {**csvs, "manifest.json": [json.dumps(manifest, indent=2)]})
    return manifest


def _bound_table_lines(params: BoundParams, last_step: int) -> list[str]:
    """Walk the bound triangle once, self-checking each entry; returns the
    header line and the text of all rows.

    Raises RuntimeError at the first failed check, so no line of a table
    that fails is ever written; each column's sums are checked as written.
    The uniform bound depends on m alone and, for the constant increases
    ``cmd_theory`` builds, the contribution on the age k - m alone, so each
    of those 2 * ``last_step`` texts is formatted once, and all rows take
    one %-format.
    """
    try:
        table = extreme_bound_table(params, last_step)
    except ValueError:
        raise RuntimeError("recursion leaves float64") from None
    uniform = [uniform_extreme_bound(params, m) for m in range(1, last_step + 1)]
    b1 = tv_increase_bound_from_extremes(params)
    b2 = tv_increase_bound_from_contributions(params)
    slack = 1.0 + 1e-12
    values = table.values.tolist()
    closed_forms = _closed_form_table(params, last_step).tolist()
    uniform_texts = ["%.17g" % bound for bound in uniform]
    # The share of the step-m increase a_m still alive at step k,
    # clip * coupling**(k - m) * a_m, from plain floats.
    clip = params.clip_factor
    coupling = params.coupling_sum
    increase = float(params.increases[0])
    contributions = [clip * coupling**age * increase for age in range(last_step)]
    contribution_texts = ["%.17g" % share for share in contributions]
    cells = []
    for k in range(1, last_step + 1):
        previous = math.inf
        partial = alive = 0.0
        for m in range(1, k + 1):
            rec = values[m][k]
            closed = closed_forms[m][k]
            if not math.isfinite(closed):
                raise RuntimeError(f"closed form leaves float64 at m={m}, k={k}")
            if abs(closed - rec) > 1e-10 * (1.0 + rec):
                raise RuntimeError(f"closed form mismatch at m={m}, k={k}")
            if rec > previous * slack:
                raise RuntimeError(f"extreme order violated at m={m}, k={k}")
            if rec > uniform[m - 1] * slack + 1e-300:
                raise RuntimeError(f"uniform bound violated at m={m}, k={k}")
            previous = rec
            partial += rec
            alive += contributions[k - m]
            cells += (m, k, rec, closed, uniform_texts[m - 1], contribution_texts[k - m], partial)
        if 2.0 * partial > b1 * slack:
            raise RuntimeError(f"extreme-sum envelope violated at k={k}")
        if 2.0 * alive > b2 * slack:
            raise RuntimeError(f"contribution bound violated at k={k}")
    if not (math.isfinite(b1) and math.isfinite(b2)):
        raise RuntimeError("B1 or B2 leaves float64")
    if b2 > b1:
        raise RuntimeError("contribution bound exceeds extreme-sum bound")
    row = "%d,%d,%.17g,%.17g,%s,%s,%.17g," + "%.17g,%.17g" % (b1, b2)
    rows = "\n".join([row] * (last_step * (last_step + 1) // 2)) % tuple(cells)
    return ["m,k,E_recursion,E_closed_form,uniform_bound,contribution,partial_sum,B1,B2", rows]


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
    try:
        lines = _bound_table_lines(params, last_step)
    except RuntimeError as exc:
        print(f"error: bound table failed its self-check: {exc}", file=sys.stderr)
        return 4
    out = Path(out_path)
    created: list[Path] = []
    try:
        _make_dirs(out.parent, created)
        _write_outputs(out.parent, {out.name: ["\n".join(lines)]})
    except OSError as exc:
        for path in created:
            path.rmdir()
        print(f"error: cannot write bound table: {exc}", file=sys.stderr)
        return 2
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
    for flag, dest, kind, text in (
        ("--lambda", "clip_factor", float, "per-step extreme clip factor, in (0, 1)"),
        ("--c", "growth", float, "scheme growth constant"),
        ("--m", "scale", float, "variation scale of the data"),
        ("--kmax", "last_step", int,
         f"number of steps to tabulate (at most {_MAX_BINOMIAL_STEP})"),
    ):
        theory.add_argument(flag, dest=dest, type=kind, required=True, help=text)
    theory.add_argument("out", help="output CSV path")

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.config, args.outdir)
    return cmd_theory(
        args.clip_factor, args.growth, args.scale, args.last_step, args.out
    )


if __name__ == "__main__":
    sys.exit(main())
