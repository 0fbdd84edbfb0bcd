"""Three-point explicit schemes on non-uniform meshes.

All three schemes advance nodal values of a scalar conservation law using
only the two neighbouring nodes, with spatial weights taken from the cell
widths of the current mesh. Each scheme comes with a closed-form constant
bounding how much a single step can amplify local differences of its input;
the extreme guard uses that constant to size the protective sliver around
solution extremes. Boundary values are held fixed. A step returns its
values without the public ``GridSolution`` checks; the driver's blow-up
check is the one check of the advanced values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import CellGeometry, GridSolution, Problem, _trusted

__all__ = [
    "SchemeKind",
    "StepContext",
    "evolution_constant",
    "choose_dt",
    "scheme_step",
    "evolution_ratio",
]

_SPEED_FLOOR = 1e-12
_DENOM_FLOOR = 1e-14
# The spacing of the largest float overflows; this float below it has the
# same spacing, so the noise bound clamps to it.
_NOISE_SCALE_CAP = float(np.nextafter(np.finfo(np.float64).max, 0.0))


class SchemeKind(enum.Enum):
    RICHTMYER = "richtmyer"
    MACCORMACK = "maccormack"
    FTCS = "ftcs"


@dataclass(frozen=True)
class StepContext:
    """Time step and mesh geometry for one scheme application."""

    dt: float
    cfl_target: float
    cell_widths: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if not (0.0 < self.cfl_target <= 1.0):
            raise ValueError("cfl_target must lie in (0, 1]")
        widths = np.asarray(self.cell_widths, dtype=np.float64)
        if widths.ndim != 1 or widths.size < 3:
            raise ValueError("cell_widths must be a 1-D array of length >= 3")
        if not np.all(widths > 0.0):
            raise ValueError("cell widths must be positive")
        object.__setattr__(self, "cell_widths", widths)

    @classmethod
    def for_solution(
        cls, solution: GridSolution, dt: float, cfl_target: float
    ) -> "StepContext":
        widths = CellGeometry.from_mesh(solution.mesh).widths
        return cls(dt=dt, cfl_target=cfl_target, cell_widths=widths)


def evolution_constant(kind: SchemeKind, cfl: float) -> float:
    """Single-step amplification constant of a scheme at a given CFL number.

    A step of the scheme changes each interior value by at most this
    constant times the larger of the two neighbouring input differences.
    """
    if not (0.0 < cfl <= 1.0):
        raise ValueError("cfl must lie in (0, 1]")
    if kind is SchemeKind.RICHTMYER:
        return cfl * (3.0 + cfl)
    if kind is SchemeKind.MACCORMACK:
        return cfl * (1.0 + cfl)
    if kind is SchemeKind.FTCS:
        return cfl
    raise ValueError(f"unknown scheme kind: {kind!r}")


def choose_dt(
    solution: GridSolution,
    problem: Problem,
    cfl_target: float,
    max_dt: float,
    h_min: float,
) -> float:
    """Largest dt meeting the CFL target on cells ``h_min`` or wider, capped at max_dt.

    The wave speed is the max of |f'| over the nodal values, floored at
    ``_SPEED_FLOOR`` to keep dt finite near rest states. ``h_min`` is the
    smallest width of the solution mesh's cells, as
    ``CellGeometry.from_mesh`` derives them.
    """
    if not (0.0 < cfl_target <= 1.0):
        raise ValueError("cfl_target must lie in (0, 1]")
    speeds = np.abs(problem.dflux(solution.values))
    speed = max(float(np.maximum.reduce(speeds)), _SPEED_FLOOR)
    dt = cfl_target * h_min / speed
    return min(dt, max_dt)


# Each kernel maps the nodal values u, their fluxes f, the cell widths h and
# the step dt to the advanced values, with the boundary values kept.


def _richtmyer_kernel(u, f, h, dt, problem):
    """Two-stage centred scheme with width-weighted interface predictors.

    The predictor at each interface averages the flanking nodal values with
    the opposite cell widths and subtracts the local flux difference; the
    corrector is a conservative update with the predictor fluxes. Reduces
    to the classical Lax-Wendroff two-step form on a uniform mesh.
    """
    pair = h[:-1] + h[1:]
    u_star = (h[1:] * u[:-1] + h[:-1] * u[1:]) / pair - dt * (f[1:] - f[:-1]) / pair
    f_star = problem.flux(u_star)
    out = u.copy()
    out[1:-1] = u[1:-1] - dt * (f_star[1:] - f_star[:-1]) / h[1:-1]
    return out


def _maccormack_kernel(u, f, h, dt, problem):
    """Forward predictor / backward corrector pair, averaged.

    Both sweeps difference the flux over the two-cell span around each
    node; the final value is the mean of the input and the corrected
    predictor. Reduces to classical MacCormack on a uniform mesh.
    """
    pair = h[:-1] + h[1:]
    u_pred = u.copy()
    u_pred[:-1] = u[:-1] - 2.0 * dt * (f[1:] - f[:-1]) / pair
    f_pred = problem.flux(u_pred)
    u_corr = u_pred.copy()
    u_corr[1:] = u_pred[1:] - 2.0 * dt * (f_pred[1:] - f_pred[:-1]) / pair
    out = u.copy()
    out[1:-1] = 0.5 * (u[1:-1] + u_corr[1:-1])
    return out


def _ftcs_kernel(u, f, h, dt, problem):
    """Forward-time centred-space step (anti-diffusive; needs the guard).

    Interior update: subtract the centred flux difference f_{i+1} - f_{i-1}
    over h_i + h_{i+1}. The conservative form with arithmetic-mean interface
    fluxes divides by 2 h_i instead, so the two agree only on a uniform
    mesh; on a non-uniform one the step does not conserve the dual-cell
    mass sum(h * u).
    """
    out = u.copy()
    out[1:-1] = u[1:-1] - dt * (f[2:] - f[:-2]) / (h[1:-1] + h[2:])
    return out


_KERNELS: dict[SchemeKind, Callable[..., np.ndarray]] = {
    SchemeKind.RICHTMYER: _richtmyer_kernel,
    SchemeKind.MACCORMACK: _maccormack_kernel,
    SchemeKind.FTCS: _ftcs_kernel,
}


def scheme_step(
    kind: SchemeKind, solution: GridSolution, ctx: StepContext, problem: Problem
) -> GridSolution:
    """Apply one step of the selected scheme."""
    u = solution.values
    h = ctx.cell_widths
    if h.size != u.size:
        raise ValueError("cell widths must match the solution size")
    out = _KERNELS[kind](u, problem.flux(u), h, ctx.dt, problem)
    return _trusted(GridSolution, mesh=solution.mesh, values=out)


def evolution_ratio(before: np.ndarray, after: np.ndarray, jumps: np.ndarray) -> float:
    """Largest observed per-node amplification of one evolution step.

    For each interior node the change |after - before| is divided by the
    larger of the two neighbouring input differences, read from ``jumps =
    |diff before|``; nodes whose denominator falls below ``_DENOM_FLOOR``
    are skipped, and so are unchanged nodes, which score exactly 0. The max
    over the remaining nodes is comparable against the scheme's evolution
    constant, and the schemes' worst-case constants are honored without
    tolerance.

    Writing a step's output rounds each updated value to the float grid of
    the values themselves, so the recovered change carries representation
    noise of up to one spacing of the local value scale. That noise is not
    amplification (against a near-floor denominator it alone would read as
    ~1e-2), so each node's change is first reduced by its provable noise
    bound. The discount under-reports true ratios by at most one value-
    scale ulp, far below anything the diagnostic exists to detect. A ratio
    beyond the float range reads inf, with numpy's overflow warning.

    Raises ``ValueError`` unless ``before`` and ``after`` are matching 1-D
    arrays of at least three entries and ``jumps`` is one entry shorter.
    """
    before = np.asarray(before, dtype=np.float64)
    after = np.asarray(after, dtype=np.float64)
    jumps = np.asarray(jumps, dtype=np.float64)
    if before.shape != after.shape or before.ndim != 1 or before.size < 3:
        raise ValueError("need matching 1-D arrays with at least three entries")
    if jumps.shape != (before.size - 1,):
        raise ValueError("jumps must hold one entry per interval of before")
    denom = np.maximum(jumps[:-1], jumps[1:])
    inner_before = before[1:-1]
    inner_after = after[1:-1]
    scored = ((denom >= _DENOM_FLOOR) & (inner_after != inner_before)).nonzero()[0]
    if not scored.size:
        return 0.0
    b = inner_before[scored]
    a = inner_after[scored]
    noise = np.spacing(np.minimum(np.maximum(np.abs(b), np.abs(a)), _NOISE_SCALE_CAP))
    change = np.maximum(np.abs(a - b) - noise, 0.0)
    return float(np.maximum.reduce(change / denom[scored]))
