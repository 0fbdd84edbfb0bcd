"""Paired benchmark of a base revision against this checkout.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py --rev HEAD~1 --pairs 3 --seconds 10 --out BENCH_12.json

The base side is REV, exported with ``git archive`` into a temporary
directory; the working tree, the index and the worktrees are not touched.
The change side is this checkout's working tree. For every workload that
``BENCHMARK.json`` declares, each pair runs

    python3 perfbench/run.py --workload W --seed 0 --seconds S --trace 0

once on each side, alternating which side runs first, and then each side
runs one ``--seconds 0 --trace 1`` pass for the per-layer metrics. The
output file has the layout of ``BENCH_8.json``: per end-to-end metric the
median, quartiles and runs of each side, the number of pairs in which the
change is better and the ties; per layer one value of each side; the
host; and the provenance of both sides: REV's full commit SHA, and the
checkout's ``HEAD`` SHA with whether its tracked files differ from it. Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def git(repo: Path, *args: str) -> str:
    """The stripped standard output of one git command run in ``repo``."""
    done = subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def commit_sha(repo: Path, rev: str) -> str:
    """The full SHA of the commit that ``rev`` names in ``repo``."""
    return git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")


def working_tree(repo: Path) -> dict:
    """The ``HEAD`` SHA of ``repo`` and whether its tracked files differ from it."""
    changed = git(repo, "status", "--porcelain", "--untracked-files=no")
    return {"head": commit_sha(repo, "HEAD"), "dirty": bool(changed)}


def export_revision(rev: str, dest: Path) -> None:
    """Unpack the tree of ``rev`` into ``dest``: git archive | tar -x."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_workload(checkout: Path, side: str, workload: str, seconds: float, trace: int) -> dict:
    """One perfbench run; returns the JSON object of its last output line.

    A run that exits non-zero or whose last line is not JSON raises
    ``RuntimeError`` naming the workload, the side, the exit code and the
    last 20 lines of the run's stderr.
    """
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    reason = "exited non-zero"
    if done.returncode == 0:
        lines = done.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            reason = "printed no JSON last line"
    stderr_tail = "\n".join(done.stderr.splitlines()[-20:])
    raise RuntimeError(
        f"perfbench run of workload {workload!r} on the {side} side {reason} "
        f"(exit code {done.returncode}); last 20 lines of stderr:\n{stderr_tail}"
    )


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(base: list[float], change: list[float], better: str) -> dict:
    wins = sum(c < b if better == "lower" else c > b for b, c in zip(base, change))
    ties = sum(b == c for b, c in zip(base, change))
    return {
        "parent": summary(base),
        "change": summary(change),
        "change_better_in_pairs": wins,
        "ties": ties,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="base revision, e.g. HEAD~1")
    parser.add_argument("--pairs", type=int, default=3, help="runs per side and workload")
    parser.add_argument("--seconds", type=float, default=10.0, help="--seconds of each run")
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")

    parent_sha = commit_sha(ROOT, args.rev)
    change = working_tree(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    end_to_end = []
    per_layer = {}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        export_revision(parent_sha, base)
        sides = {"parent": base, "change": ROOT}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_workload(sides[side], side, workload, args.seconds, 0)
                    runs[side].append(result["metrics"])
                print(f"{workload}: pair {pair + 1} of {args.pairs} done", file=sys.stderr)
            end_to_end.append({
                "workload": workload,
                "seed": SEED,
                "pairs": args.pairs,
                "metrics": {
                    name: compare(
                        [m[name]["value"] for m in runs["parent"]],
                        [m[name]["value"] for m in runs["change"]],
                        better,
                    )
                    for name, better in directions.items()
                },
            })
            traced = {
                side: run_workload(path, side, workload, 0, 1) for side, path in sides.items()
            }
            per_layer[workload] = {
                "failed": {side: traced[side]["failed"] for side in sides},
                "metrics": {
                    name: {
                        "parent": metric["value"],
                        "change": traced["change"]["metrics"][name]["value"],
                        "unit": metric["unit"],
                    }
                    for name, metric in traced["parent"]["metrics"].items()
                    if name in traced["change"]["metrics"]
                },
            }

    report = {
        "summary": (
            f"perfbench of {args.rev} ({parent_sha}, parent) against the "
            "working tree (change). "
            f"End to end: `python3 perfbench/run.py --workload W --seed {SEED} "
            f"--seconds {args.seconds:g} --trace 0`, {args.pairs} pairs per workload "
            "alternating which side runs first, each side in its own checkout. "
            f"Per layer: `--seed {SEED} --seconds 0 --trace 1`, one run per side."
        ),
        "parent": {"rev": args.rev, "sha": parent_sha},
        "change": change,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": subprocess.run(
                [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                capture_output=True, text=True, check=True,
            ).stdout.strip(),
        },
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
