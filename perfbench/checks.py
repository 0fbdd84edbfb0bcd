"""Running one operation, checking its outputs and scoring its accuracy.

Checks per operation:

- the expected exit code (0, or 3 with manifest status ``blow_up``);
- finite, parseable CSVs; ``tv_series.csv`` has one row per step in the
  manifest and ``snapshots.csv`` ends on that step;
- final TV at most 0.05 above the initial TV for adaptive runs at N = 200,
  CFL = 0.5;
- for theory sweeps, ``E_recursion`` equal to ``E_closed_form`` to 1e-10
  relative.

An exception escaping ``main`` fails the operation; it is not a crash of
the benchmark.

Accuracy is measured against the exact entropy solution of the jump
problem (u = 1 left of the front, 0 right of it): the front moves at speed
1 for transport and 1/2 for Burgers (shock speed (u_L + u_R) / 2).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import Op

OUTPUTS = {
    "simulate": ("tv_series.csv", "snapshots.csv"),
    "theory": ("bounds.csv",),
}
TV_COLUMNS = 9  # step,time,tv,tvi,evolution_ratio,max_A,avg_A,a_n,E1
SNAPSHOT_COLUMNS = 5  # step,time,node_index,x,u
BOUNDS_COLUMNS = 9  # m,k,E_recursion,E_closed_form,...
TV_TOLERANCE = 0.05
THEORY_RTOL = 1e-10
FRONT_SPEED = {"transport": 1.0, "burgers": 0.5}
INFLOW_FLUX = {"transport": 1.0, "burgers": 0.5}  # f(u_L) with u_L = 1


class CheckError(Exception):
    """An output of a completed operation is wrong."""


@dataclass
class OpResult:
    op: str
    pass_index: int
    run_id: int
    traced: bool
    seconds: float  # wall time of the call, calibration samples excluded
    scaled: float  # seconds at the reference host speed
    calibration_s: float  # time the calibration samples took during the call
    rc: int | None
    error: str | None = None
    failure: str | None = None
    wrong_output: bool = False
    steps: int = 0
    hashes: dict = field(default_factory=dict)
    csv_bytes: int = 0

    @property
    def failed(self) -> bool:
        return self.failure is not None


def clear_outputs(op: Op, workdir: Path) -> None:
    """Remove an op's outputs, so a run that dies early cannot be judged on
    the files of an earlier pass."""
    out = op.output_dir(workdir)
    for name in OUTPUTS[op.command] + ("manifest.json",):
        (out / name).unlink(missing_ok=True)


def call_main(main, argv: list[str]) -> tuple[int | None, str | None]:
    """Call ``main(argv)``; return (exit code, error of an escaping exception)."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv), None
        except SystemExit as exc:
            return (exc.code if isinstance(exc.code, int) else 1), None
        except Exception:  # a failed operation, reported by the caller
            return None, traceback.format_exc()


def hash_outputs(op: Op, workdir: Path) -> tuple[dict, int]:
    hashes = {}
    size = 0
    for name in OUTPUTS[op.command]:
        path = op.output_dir(workdir) / name
        if path.exists():
            digest = hashlib.sha256()
            with open(path, "rb") as handle:
                while chunk := handle.read(1 << 20):
                    digest.update(chunk)
                    size += len(chunk)
            hashes[name] = digest.hexdigest()
    return hashes, size


def _load_csv(path: Path, columns: int) -> np.ndarray:
    """Parse a CSV with a header line; streamed, so that checking a large
    output adds little to the process's peak memory."""
    try:
        with open(path) as handle:
            header = handle.readline()
            if header.count(",") != columns - 1:
                raise CheckError(f"{path.name}: bad header {header.strip()!r}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty body
                table = np.loadtxt(handle, delimiter=",", ndmin=2)
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    except ValueError as exc:
        raise CheckError(f"{path.name}: unparseable: {exc}") from None
    if table.size == 0:
        return np.empty((0, columns))
    if table.shape[1] != columns:
        raise CheckError(f"{path.name}: expected {columns} columns")
    if not np.all(np.isfinite(table)):
        raise CheckError(f"{path.name}: non-finite values")
    return table


def _check_simulate(op: Op, out: Path) -> int:
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"manifest.json: {exc}") from None
    status = "ok" if op.expected_rc == 0 else "blow_up"
    if manifest.get("status") != status:
        raise CheckError(f"manifest status {manifest.get('status')!r}, expected {status!r}")
    steps = manifest.get("steps")
    if not isinstance(steps, int) or steps < 0:
        raise CheckError(f"manifest steps {steps!r}")

    tv = _load_csv(out / "tv_series.csv", TV_COLUMNS)
    if tv.shape[0] != steps or not np.array_equal(tv[:, 0], np.arange(1, steps + 1)):
        raise CheckError(f"tv_series.csv has {tv.shape[0]} rows for {steps} steps")

    snaps = _load_csv(out / "snapshots.csv", SNAPSHOT_COLUMNS)
    n = op.settings["n"]
    if snaps.shape[0] == 0 or snaps.shape[0] % n:
        raise CheckError(f"snapshots.csv has {snaps.shape[0]} rows for n = {n}")
    blocks = snaps.reshape(-1, n, SNAPSHOT_COLUMNS)
    if not np.all(blocks[:, :, 0] == blocks[:, :1, 0]) or not np.all(
        blocks[:, :, 2] == np.arange(n)
    ):
        raise CheckError("snapshots.csv blocks are not one step of n nodes each")
    if blocks[0, 0, 0] != 0 or blocks[-1, 0, 0] != steps:
        raise CheckError(f"snapshots.csv does not run from step 0 to step {steps}")

    if op.adaptive and n == 200 and op.settings["cfl"] == 0.5 and steps:
        tvi = tv[-1, 3]
        if tvi > TV_TOLERANCE:
            raise CheckError(f"final TV increase {tvi:.6g} > {TV_TOLERANCE}")
    return steps


def _check_theory(op: Op, out: Path) -> None:
    kmax = op.settings["kmax"]
    table = _load_csv(out / "bounds.csv", BOUNDS_COLUMNS)
    if table.shape[0] != kmax * (kmax + 1) // 2:
        raise CheckError(f"bounds.csv has {table.shape[0]} rows for kmax = {kmax}")
    rec, closed = table[:, 2], table[:, 3]
    if not np.all(np.abs(closed - rec) <= THEORY_RTOL * np.abs(rec) + 1e-300):
        raise CheckError("E_closed_form differs from E_recursion beyond 1e-10 relative")


def check_op(op: Op, workdir: Path, result: OpResult, verified: dict | None) -> None:
    """Fill in ``result``'s failure, step count, hashes and output size.

    ``verified`` holds the hashes of an earlier execution of the same op
    that passed every check; byte-identical outputs are not parsed again.
    """
    result.hashes, result.csv_bytes = hash_outputs(op, workdir)
    if result.error is not None:
        result.failure = "exception: " + result.error.rstrip().splitlines()[-1]
        return
    if result.rc != op.expected_rc:
        result.failure = f"exit code {result.rc}, expected {op.expected_rc}"
        return
    if verified is not None and verified["hashes"] == result.hashes:
        result.steps = verified["steps"]
        return
    out = op.output_dir(workdir)
    try:
        if op.command == "simulate":
            result.steps = _check_simulate(op, out)
        else:
            _check_theory(op, out)
    except CheckError as exc:
        result.failure = f"wrong output: {exc}"
        result.wrong_output = True


def _trapezoid(x: np.ndarray, u: np.ndarray) -> float:
    return float(0.5 * np.sum((u[1:] + u[:-1]) * np.diff(x)))


def l1_to_step(x: np.ndarray, u: np.ndarray, front: float) -> float:
    """L1 distance of the piecewise-linear (x, u) to 1 left of ``front``, 0 right."""
    if x[0] < front < x[-1] and not np.any(x == front):
        k = int(np.searchsorted(x, front))
        value = np.interp(front, x, u)
        x = np.insert(x, k, front)
        u = np.insert(u, k, value)
    exact = np.where(0.5 * (x[:-1] + x[1:]) < front, 1.0, 0.0)
    da = u[:-1] - exact
    db = u[1:] - exact
    width = np.diff(x)
    size = np.abs(da) + np.abs(db)
    crossing = da * db < 0.0
    # A segment where the error changes sign holds two triangles.
    area = np.where(
        crossing,
        0.5 * (da * da + db * db) / np.where(crossing, size, 1.0),
        0.5 * size,
    )
    return float(np.sum(area * width))


def quality(op: Op, workdir: Path) -> dict:
    """Final over initial TV, L1 error and relative mass drift of a finished run.

    The mass reference is the initial discrete mass plus the inflow f(1) T
    through the left boundary. At the default seed the jump sits midway
    between two nodes, where that mass equals the exact x0 + f(1) T; at
    other seeds it leaves out the initial sampling error of the jump, which
    no guard or transfer change can affect.
    """
    out = op.output_dir(workdir)
    tv = _load_csv(out / "tv_series.csv", TV_COLUMNS)
    snaps = _load_csv(out / "snapshots.csv", SNAPSHOT_COLUMNS)
    n = op.settings["n"]
    first, last = snaps[:n], snaps[-n:]
    t = float(last[0, 1])
    problem = op.settings["problem"]
    front = op.settings["x0"] + FRONT_SPEED[problem] * t
    expected_mass = _trapezoid(first[:, 3], first[:, 4]) + INFLOW_FLUX[problem] * t
    mass = _trapezoid(last[:, 3], last[:, 4])
    return {
        "tv_ratio": float(tv[-1, 2] / (tv[-1, 2] - tv[-1, 3])),
        "l1": l1_to_step(last[:, 3], last[:, 4], front),
        "mass_drift": abs(mass - expected_mass) / expected_mass,
    }

