"""Full adaptive-simulation loop with per-step diagnostics.

Each iteration reconstructs the mesh around the current solution (unless
running the uniform baseline), measures the oscillation diagnostics on the
reconstructed state, picks a CFL-limited time step clipped to the remaining
time, applies the chosen scheme, and records a step summary. The loop stops
when the remaining time reaches zero; non-finite or huge values abort with
a blow-up error that keeps the partial history, and a time step that
cannot advance the clock ends the run with an error before it is taken.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import CellGeometry, GridSolution, Mesh, Problem, _trusted, make_jump_initial
from .monitor import EstimatorParams
from .remesh import ExtremeGuardParams, ExtremeGuardReport, RemeshError, remesh_step
from .schemes import (
    SchemeKind,
    StepContext,
    choose_dt,
    evolution_constant,
    evolution_ratio,
    scheme_step,
)

__all__ = [
    "BlowUpError",
    "RunConfig",
    "StepRecord",
    "RunResult",
    "front_window",
    "measure_front",
    "run_simulation",
]

_MAGNITUDE_LIMIT = 1e8

# The report of a step on the uniform mesh: no guard ran, every score reads 0.
_UNGUARDED = ExtremeGuardReport(0.0, 0.0, 0, 0)


class BlowUpError(RuntimeError):
    """The solution left the finite/bounded regime mid-run.

    Carries the failing step index and everything recorded before it so
    callers can persist the partial run.
    """

    def __init__(self, step: int, records: list["StepRecord"]):
        super().__init__(f"solution blew up at step {step}")
        self.step = step
        self.records = records


class _Stalled(RuntimeError):
    """The run's clock stopped: the time step is 0 or too small to change
    the remaining time, so no number of further steps would end the run."""


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one simulation on the unit interval.

    The extreme guard takes its growth constant from the scheme and the
    CFL target, so it has no field of its own.
    """

    problem: Problem
    scheme: SchemeKind
    n: int
    cfl_target: float
    final_time: float
    adaptive: bool = True
    estimator: EstimatorParams = field(default_factory=EstimatorParams)
    jump_position: float = 0.5

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 10):
            raise ValueError("n must be an integer of at least 10")
        if not (0.0 < self.cfl_target <= 1.0):
            raise ValueError("cfl_target must lie in (0, 1]")
        if not (np.isfinite(self.final_time) and self.final_time >= 0.0):
            raise ValueError("final_time must be non-negative and finite")
        if not (0.0 < self.jump_position < 1.0):
            raise ValueError("jump_position must lie in the open interval (0, 1)")

    @property
    def growth_constant(self) -> float:
        """Scheme amplification constant at the configured CFL target."""
        return evolution_constant(self.scheme, self.cfl_target)


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics of one completed simulation step."""

    step: int
    time: float
    tv: float
    tvi: float
    evolution_ratio: float
    max_score: float
    mean_score: float
    guard_rounds: int
    increase: float
    overshoot: float


@dataclass(frozen=True)
class RunResult:
    initial: GridSolution
    final: GridSolution
    records: tuple[StepRecord, ...]

    @property
    def steps(self) -> int:
        return len(self.records)


def front_window(jumps: np.ndarray, fraction: float = 0.9) -> tuple[int, int] | None:
    """Smallest node window [lo, hi] carrying ``fraction`` of the TV.

    ``jumps`` is ``|diff u|`` of the nodal values u. One pass over prefix
    sums: with ``c = [0, cumsum(jumps)]`` the window of jumps lo..j carries
    ``c[j + 1] - c[lo]``, so for every right end j the largest admissible
    lo is found by a ``searchsorted`` of ``c[j + 1] - target`` in ``c``.
    Among windows of minimal length the leftmost one is returned. Returns
    None when the data has no variation at all. Right ends stop at the
    first j whose prefix sum already equals the last one: beyond it, on
    the flat tail, lo stays put and the window only grows, so none of
    them could win.

    The comparison runs on differences of prefix sums, where a running
    two-pointer sum would add and drop jumps one at a time; the two round
    differently, so a window whose carried variation lies within a few ulps
    of the target can be accepted by one and rejected by the other. When
    every partial sum is exact (dyadic data of modest size) the result is
    exactly that of the two-pointer scan.
    """
    jumps = np.asarray(jumps, dtype=np.float64)
    total = float(np.add.reduce(jumps))
    if total <= 0.0:
        return None
    target = fraction * total
    prefix = np.empty(jumps.size + 1)
    prefix[0] = 0.0
    ends = jumps.cumsum(out=prefix[1:])
    hi = (ends[: ends.searchsorted(ends[-1]) + 1] >= target).nonzero()[0]
    if hi.size == 0:
        return None
    lo = np.minimum(prefix.searchsorted(ends[hi] - target, side="right") - 1, hi)
    best = int((hi - lo).argmin())
    return int(lo[best]), int(hi[best]) + 1


def measure_front(
    values: np.ndarray, jumps: np.ndarray, reference_high: float, growth_constant: float
) -> tuple[float, float]:
    """The front's overshoot and fresh oscillation size, as (overshoot, increase).

    Both are read in the front window of ``values``, which
    :func:`front_window` finds from ``jumps = |diff values|``; data with no
    variation gives (0.0, 0.0). The overshoot is the window maximum's
    excess over ``reference_high``, clamped at zero. The increase is the
    jump from the shock top (rightmost window maximum) to its right
    neighbour, less twice the overshoot, clamped at zero and scaled by
    ``growth_constant``. The top only counts where the profile tops out: at
    least as high as its left neighbour and strictly above its right one.
    On a monotone front the window maximum is just the window edge partway
    down the slope and no top feeds new oscillations, so the increase is
    zero, as it is for a top on the right boundary. Raises ``ValueError``
    if ``jumps`` is not one entry shorter than ``values``.
    """
    values = np.asarray(values, dtype=np.float64)
    jumps = np.asarray(jumps, dtype=np.float64)
    if jumps.shape != (values.size - 1,):
        raise ValueError("jumps must hold one entry per interval of values")
    window = front_window(jumps)
    if window is None:
        return 0.0, 0.0
    lo, hi = window
    segment = values[lo : hi + 1]
    peak = np.maximum.reduce(segment)
    overshoot = max(float(peak) - reference_high, 0.0)
    top = lo + int((segment == peak).nonzero()[0][-1])
    if (
        top + 1 >= values.size
        or (top > 0 and values[top] < values[top - 1])
        or not values[top] > values[top + 1]
    ):
        return overshoot, 0.0
    raw = max(abs(float(values[top] - values[top + 1])) - 2.0 * overshoot, 0.0)
    return overshoot, growth_constant * raw


def run_simulation(
    config: RunConfig,
    snapshot_hook: Callable[[int, float, GridSolution], None] | None = None,
) -> RunResult:
    """Run the full loop and return the final state plus per-step records.

    ``snapshot_hook`` is called with (step, time, solution) for the initial
    state and after every completed step; blow-ups raise before the hook
    sees the bad state. A time step that cannot advance the clock raises
    before the step is taken.
    """
    initial = make_jump_initial(Mesh.uniform(config.n), config.jump_position)
    high = float(initial.values.max())
    current = initial
    # |diff u| once per state: the front window and the evolution ratio read
    # it before a step, the TV after it (and, on a fixed mesh, the next step).
    values = initial.values
    jumps = np.abs(values[1:] - values[:-1])
    tv0 = float(np.add.reduce(jumps))
    growth = config.growth_constant
    guard = ExtremeGuardParams(growth)

    records: list[StepRecord] = []
    if snapshot_hook is not None:
        snapshot_hook(0, 0.0, current)

    remaining = config.final_time
    step = 0
    mesh = widths = None
    report = _UNGUARDED
    while remaining > 0.0:
        step += 1
        if config.adaptive:
            current, report = remesh_step(current, config.estimator, guard)
            values = current.values
            jumps = np.abs(values[1:] - values[:-1])

        overshoot, increase = measure_front(values, jumps, high, growth)

        # Widths once per mesh object: once per run on a fixed mesh, once
        # per step on an adaptive one.
        if current.mesh is not mesh:
            mesh = current.mesh
            widths = CellGeometry.from_mesh(mesh).widths
        dt = choose_dt(current, config.problem, config.cfl_target, remaining, widths)
        # dt = cfl * min(width) / speed: it fails to be positive when two
        # cell interfaces of the reconstructed mesh round together, or when
        # the product underflows on cells that all have a width.
        if not (math.isfinite(dt) and dt > 0.0):
            if dt == 0.0 and widths.min() > 0.0:
                raise _Stalled("time step underflows")
            raise RemeshError("reconstructed mesh has a cell of zero width")
        if remaining - dt == remaining:
            raise _Stalled("time step below the clock's resolution")
        ctx = _trusted(StepContext, dt=dt, cfl_target=config.cfl_target, cell_widths=widths)
        advanced = scheme_step(config.scheme, current, ctx, config.problem)

        vals = advanced.values
        # NaN and inf both fail this test.
        if not np.maximum.reduce(np.abs(vals)) <= _MAGNITUDE_LIMIT:
            raise BlowUpError(step, records)

        ratio = evolution_ratio(values, vals, jumps)
        # choose_dt caps dt at remaining, so this reaches 0 exactly, never below.
        remaining -= dt
        elapsed = config.final_time - remaining
        values = vals
        jumps = np.abs(values[1:] - values[:-1])
        tv = float(np.add.reduce(jumps))
        records.append(
            StepRecord(
                step=step,
                time=elapsed,
                tv=tv,
                tvi=tv - tv0,
                evolution_ratio=ratio,
                max_score=report.max_score,
                mean_score=report.mean_score,
                guard_rounds=report.rounds,
                increase=increase,
                overshoot=overshoot,
            )
        )
        current = advanced
        if snapshot_hook is not None:
            snapshot_hook(step, elapsed, current)

    return RunResult(initial=initial, final=current, records=tuple(records))
