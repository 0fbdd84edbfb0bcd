"""Full adaptive-simulation loop with per-step diagnostics.

Each iteration reconstructs the mesh around the current solution (unless
running the uniform baseline), measures the oscillation diagnostics on the
reconstructed state, picks a CFL-limited time step clipped to the remaining
time, applies the chosen scheme, and records a step summary. The loop stops
when the remaining time reaches zero; non-finite or huge values abort with
a blow-up error that keeps the partial history.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import (
    CellGeometry,
    GridSolution,
    Mesh,
    Problem,
    _trusted,
    make_jump_initial,
    total_variation,
)
from .monitor import EstimatorParams
from .remesh import ExtremeGuardParams, ExtremeGuardReport, remesh_step
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
    "measure_overshoot",
    "measure_shock_increase",
    "run_simulation",
]

_MAGNITUDE_LIMIT = 1e8


class BlowUpError(RuntimeError):
    """The solution left the finite/bounded regime mid-run.

    Carries the failing step index and everything recorded before it so
    callers can persist the partial run.
    """

    def __init__(self, step: int, records: list["StepRecord"], partial: GridSolution):
        super().__init__(f"solution blew up at step {step}")
        self.step = step
        self.records = records
        self.partial = partial


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one simulation on the unit interval."""

    problem: Problem
    scheme: SchemeKind
    n: int
    cfl_target: float
    final_time: float
    adaptive: bool = True
    estimator: EstimatorParams = field(default_factory=EstimatorParams)
    guard: ExtremeGuardParams | None = None
    remesh_repetitions: int = 1
    jump_position: float = 0.5
    high: float = 1.0
    low: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 10):
            raise ValueError("n must be an integer of at least 10")
        if not (0.0 < self.cfl_target <= 1.0):
            raise ValueError("cfl_target must lie in (0, 1]")
        if not (np.isfinite(self.final_time) and self.final_time >= 0.0):
            raise ValueError("final_time must be non-negative and finite")
        if not (
            isinstance(self.remesh_repetitions, numbers.Integral)
            and self.remesh_repetitions >= 1
        ):
            raise ValueError("remesh_repetitions must be an integer of at least 1")
        if not (0.0 < self.jump_position < 1.0):
            raise ValueError("jump_position must lie in the open interval (0, 1)")

    @property
    def growth_constant(self) -> float:
        """Scheme amplification constant at the configured CFL target."""
        return evolution_constant(self.scheme, self.cfl_target)

    def effective_guard(self) -> ExtremeGuardParams:
        if self.guard is not None:
            return self.guard
        return ExtremeGuardParams(growth_constant=self.growth_constant)


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

    def __post_init__(self):
        if self.tv < 0.0 or self.evolution_ratio < 0.0:
            raise ValueError("tv and evolution_ratio must be non-negative")


@dataclass(frozen=True)
class RunResult:
    initial: GridSolution
    final: GridSolution
    records: tuple[StepRecord, ...]

    @property
    def steps(self) -> int:
        return len(self.records)


def front_window(values: np.ndarray, fraction: float = 0.9) -> tuple[int, int] | None:
    """Smallest node window [lo, hi] carrying ``fraction`` of the TV.

    One pass over prefix sums of the absolute differences: with
    ``c = [0, cumsum(|diff u|)]`` the window of jumps lo..j carries
    ``c[j + 1] - c[lo]``, so for every right end j the largest admissible
    lo is found by a ``searchsorted`` of ``c[j + 1] - target`` in ``c``.
    Among windows of minimal length the leftmost one is returned. Returns
    None when the data has no variation at all.

    The comparison runs on differences of prefix sums, where a running
    two-pointer sum would add and drop jumps one at a time; the two round
    differently, so a window whose carried variation lies within a few ulps
    of the target can be accepted by one and rejected by the other. When
    every partial sum is exact (dyadic data of modest size) the result is
    exactly that of the two-pointer scan.
    """
    values = np.asarray(values, dtype=np.float64)
    jumps = np.abs(values[1:] - values[:-1])
    total = float(jumps.sum())
    if total <= 0.0:
        return None
    target = fraction * total
    prefix = np.empty(values.size)
    prefix[0] = 0.0
    ends = jumps.cumsum(out=prefix[1:])
    hi = (ends >= target).nonzero()[0]
    if hi.size == 0:
        return None
    lo = np.minimum(prefix.searchsorted(ends[hi] - target, side="right") - 1, hi)
    best = int((hi - lo).argmin())
    return int(lo[best]), int(hi[best]) + 1


def measure_overshoot(
    values: np.ndarray, reference_high: float, window: tuple[int, int] | None
) -> float:
    """Magnitude of the leading overshoot above the initial high state."""
    if window is None:
        return 0.0
    lo, hi = window
    peak = float(values[lo : hi + 1].max())
    return max(peak - reference_high, 0.0)


def measure_shock_increase(
    values: np.ndarray,
    window: tuple[int, int] | None,
    overshoot: float,
    growth_constant: float,
) -> float:
    """Fresh oscillation size fed into the bound chain this step.

    ``window`` is the front window of ``values`` (see :func:`front_window`),
    taken the same way as by :func:`measure_overshoot`. Takes the jump from
    the shock-top node (rightmost maximum inside the front window) to its
    right neighbour, removes twice the current overshoot, clamps at zero and
    scales by the growth constant.

    The candidate top node only counts as a shock top when the profile
    actually tops out there: at least as high as its left neighbour and
    strictly above its right one. On a monotone front the window maximum is
    just the window edge partway down the slope, there is no top feeding
    new oscillations, and the measured increase is zero. A flat solution,
    or a top node on the right boundary, likewise contributes nothing.
    """
    if overshoot < 0.0:
        raise ValueError("overshoot must be non-negative")
    if window is None:
        return 0.0
    lo, hi = window
    segment = values[lo : hi + 1]
    top_local = int((segment == segment.max()).nonzero()[0][-1])
    top = lo + top_local
    if top + 1 >= values.size:
        return 0.0
    if top > 0 and values[top] < values[top - 1]:
        return 0.0
    if not values[top] > values[top + 1]:
        return 0.0
    raw = max(abs(float(values[top] - values[top + 1])) - 2.0 * overshoot, 0.0)
    return growth_constant * raw


def run_simulation(
    config: RunConfig,
    snapshot_hook: Callable[[int, float, GridSolution], None] | None = None,
) -> RunResult:
    """Run the full loop and return the final state plus per-step records.

    ``snapshot_hook`` is called with (step, time, solution) for the initial
    state and after every completed step; blow-ups raise before the hook
    sees the bad state.
    """
    mesh = Mesh.uniform(config.n)
    initial = make_jump_initial(
        mesh, config.jump_position, high=config.high, low=config.low
    )
    current = initial
    tv0 = total_variation(initial.values)
    guard = config.effective_guard()
    growth = config.growth_constant

    records: list[StepRecord] = []
    if snapshot_hook is not None:
        snapshot_hook(0, 0.0, current)

    remaining = config.final_time
    step = 0
    while remaining > 0.0:
        step += 1
        if config.adaptive:
            report: ExtremeGuardReport | None = None
            for _ in range(config.remesh_repetitions):
                current, report = remesh_step(current, config.estimator, guard)
            assert report is not None
            max_score = report.max_score
            mean_score = report.mean_score
            rounds = report.rounds
        else:
            max_score = 0.0
            mean_score = 0.0
            rounds = 0

        window = front_window(current.values)
        overshoot = measure_overshoot(current.values, config.high, window)
        increase = measure_shock_increase(current.values, window, overshoot, growth)

        widths = CellGeometry.from_mesh(current.mesh).widths
        dt = choose_dt(
            current, config.problem, config.cfl_target, max_dt=remaining, cell_widths=widths
        )
        # dt = cfl * min(width) / speed, so a positive dt also means
        # positive cell widths.
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("dt must be positive and finite")
        ctx = _trusted(StepContext, dt=dt, cfl_target=config.cfl_target, cell_widths=widths)
        advanced = scheme_step(config.scheme, current, ctx, config.problem)

        vals = advanced.values
        if not np.isfinite(vals).all() or np.abs(vals).max() > _MAGNITUDE_LIMIT:
            raise BlowUpError(step, records, current)

        ratio = evolution_ratio(current.values, advanced.values)
        remaining -= dt
        if remaining < 0.0:
            remaining = 0.0
        elapsed = config.final_time - remaining
        tv = total_variation(advanced.values)
        records.append(
            _trusted(
                StepRecord,
                step=step,
                time=elapsed,
                tv=tv,
                tvi=tv - tv0,
                evolution_ratio=ratio,
                max_score=max_score,
                mean_score=mean_score,
                guard_rounds=rounds,
                increase=increase,
                overshoot=overshoot,
            )
        )
        current = advanced
        if snapshot_hook is not None:
            snapshot_hook(step, elapsed, current)

    return RunResult(initial=initial, final=current, records=tuple(records))
