"""Machine verification of the total-variation-increase bound chain.

The mesh reconstruction clips every solution extreme by the factor
``clip_factor`` each step while the evolution scheme amplifies local
differences by at most ``growth_constant``. Chaining the two effects gives
a triangular table of worst-case extreme magnitudes, evaluated here both by
the step recurrence and by an equivalent binomial closed form, together
with the geometric per-increase contributions and the two global bounds on
the total-variation increase. Everything is plain floating arithmetic in a
fixed order, so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import _as_float_array

__all__ = [
    "BoundParams",
    "ExtremeBoundTable",
    "extreme_bound_table",
    "extreme_bound_closed_form",
    "uniform_extreme_bound",
    "tv_increase_bound_from_extremes",
    "tv_increase_bound_from_contributions",
    "total_increase_contribution",
]

_MAX_BINOMIAL_STEP = 60


@dataclass(frozen=True)
class BoundParams:
    """Parameters of the clip/growth interplay.

    ``clip_factor`` is the per-step survival fraction of an extreme after
    reconstruction (in (0, 1)); ``growth_constant`` the scheme's one-step
    amplification constant; ``variation_scale`` the reference size of the
    data (used by the uniform and global bounds); ``increases`` the
    per-step fresh oscillation sizes a_1, a_2, ... fed at the front.
    A sequence shorter than a requested step count is read as zero beyond
    its end (no further increase).
    """

    clip_factor: float
    growth_constant: float
    variation_scale: float
    increases: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.clip_factor < 1.0):
            raise ValueError("clip_factor must lie in (0, 1)")
        if not (np.isfinite(self.growth_constant) and self.growth_constant > 0.0):
            raise ValueError("growth_constant must be positive and finite")
        if not (np.isfinite(self.variation_scale) and self.variation_scale > 0.0):
            raise ValueError("variation_scale must be positive and finite")
        arr = _as_float_array(self.increases, "increases")
        if np.any(arr < 0.0):
            raise ValueError("increases must be non-negative")
        object.__setattr__(self, "increases", arr)

    @property
    def coupling_sum(self) -> float:
        """λ + 3λC; strictly below 1 means clipping beats growth."""
        return self.clip_factor * (1.0 + 3.0 * self.growth_constant)

    @property
    def weak_coupling_sum(self) -> float:
        """λ + 2λC; strictly below 1 suffices for the per-extreme bound."""
        return self.clip_factor * (1.0 + 2.0 * self.growth_constant)

    def require_coupling(self) -> None:
        if not self.coupling_sum < 1.0:
            raise ValueError(
                f"coupling violated: clip_factor*(1+3*growth_constant) = "
                f"{self.coupling_sum:.6g} >= 1"
            )


@dataclass(frozen=True)
class ExtremeBoundTable:
    """Triangular table of worst-case extreme magnitudes.

    ``values[m, k]`` bounds the magnitude of the m-th oldest surviving
    extreme after k steps, for 1 <= m <= k <= last_step; entries outside
    the triangle are zero (an extreme cannot predate its creation).
    """

    values: np.ndarray
    last_step: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        expected = (self.last_step + 1, self.last_step + 1)
        if vals.shape != expected:
            raise ValueError(f"values must have shape {expected}")
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise ValueError("table entries must be finite and non-negative")
        object.__setattr__(self, "values", vals)

    def value(self, m: int, k: int) -> float:
        if not (1 <= k <= self.last_step and m >= 1):
            raise ValueError("need 1 <= k <= last_step and m >= 1")
        if m > k:
            return 0.0
        return float(self.values[m, k])

    def column_sum(self, k: int) -> float:
        """Total magnitude of all extremes alive after k steps."""
        if not 1 <= k <= self.last_step:
            raise ValueError("need 1 <= k <= last_step")
        return float(self.values[1 : k + 1, k].sum())


def extreme_bound_table(params: BoundParams, last_step: int) -> ExtremeBoundTable:
    """Evaluate the extreme-magnitude recurrence up to ``last_step``.

    Each step clips every surviving extreme to ``clip_factor`` of an
    amplified magnitude: the newest extreme absorbs the fresh increase a_k,
    every older extreme additionally absorbs ``growth_constant`` times its
    younger neighbour from the previous step. The resulting table matches
    the binomial closed form exactly (same recurrence, resummed).
    """
    if last_step < 1:
        raise ValueError("last_step must be at least 1")
    lam = params.clip_factor
    c = params.growth_constant
    grow = 1.0 + 2.0 * c
    increases = params.increases.tolist() + [0.0] * last_step  # zero past the end
    table = np.zeros((last_step + 1, last_step + 1))
    # A magnitude past float64 turns inf or nan, which the table rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, last_step + 1):
            previous = table[:, k - 1]  # its entry k is zero
            table[1, k] = lam * (grow * previous[1] + increases[k - 1])
            table[2 : k + 1, k] = lam * (grow * previous[2 : k + 1] + c * previous[1:k])
    return ExtremeBoundTable(table, last_step)


def extreme_bound_closed_form(params: BoundParams, m: int, k: int) -> float:
    """Binomial closed form for the m-th extreme's bound after k steps.

    Sums, over the age j of each contribution, the increase injected
    k - m + 1 - j steps after the extreme appeared, weighted by a binomial
    count of clip/grow paths. The count binom(m - 1 + j, j) comes from the
    float recurrence count * (m + j) / (j + 1). It equals ``math.comb`` for
    every k up to 55. From k = 56 on, its intermediates count * (m + j)
    pass 2**53 (up to about 3.6e18 at k = 60), and 42 of the 1,830 counts
    at k <= 60 are off by at most 2**-51 relative. Larger k raises. The
    power ``c ** (m - 1)`` is a Python float power, so a growth constant
    large enough to take it past float64 raises ``OverflowError``.
    """
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    if k > _MAX_BINOMIAL_STEP:
        raise ValueError(
            f"closed form supported only up to step {_MAX_BINOMIAL_STEP}"
        )
    if m > k:
        return 0.0
    lam = params.clip_factor
    c = params.growth_constant
    increases = params.increases.tolist() + [0.0] * k  # zero past the end
    ratio = lam * (1.0 + 2.0 * c)
    total = 0.0
    power = 1.0
    count = 1.0
    for j in range(k - m + 1):
        total += count * power * increases[k - m - j]
        power *= ratio
        count = count * (m + j) / (j + 1)
    return lam**m * c ** (m - 1) * total


def _closed_form_table(params: BoundParams, last_step: int) -> np.ndarray:
    """``extreme_bound_closed_form`` on the whole triangle, bitwise.

    Entry [m, k] of the (last_step + 1)-square result is the closed form
    for 1 <= m <= k <= last_step, and 0.0 elsewhere. One pass over the age
    j handles every m at once with the scalar's float operations in the
    scalar's order: the running total of (m, k), kept at ``totals[m - 1,
    k - m]``, gains the age-j term whenever k - m >= j. A row whose scale
    ``lam**m * c**(m - 1)`` leaves float64 is inf instead of raising. The
    caller ensures 1 <= last_step <= ``_MAX_BINOMIAL_STEP``.
    """
    n = last_step
    lam = params.clip_factor
    c = params.growth_constant
    inc = np.zeros(n)  # zero past the end, as in the scalar
    given = params.increases[:n]
    inc[: given.size] = given
    ratio = lam * (1.0 + 2.0 * c)
    ms = np.arange(1.0, n + 1.0)
    totals = np.zeros((n, n))
    power = 1.0
    count = np.ones(n)
    out = np.zeros((n + 1, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            totals[:, j:] += (count * power)[:, None] * inc[: n - j]
            power *= ratio
            count = count * (ms + j) / (j + 1)
        for m in range(1, n + 1):
            try:
                scale = lam**m * c ** (m - 1)
            except OverflowError:
                out[m, m:] = np.inf
                continue
            out[m, m:] = scale * totals[m - 1, : n + 1 - m]
    return out


def uniform_extreme_bound(params: BoundParams, m: int) -> float:
    """Step-independent bound M * (λC / (1 - λ - 2λC))^m on extreme m.

    Valid when λ + 2λC < 1 and every stored increase is at most
    growth_constant * variation_scale; violations raise.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not params.weak_coupling_sum < 1.0:
        raise ValueError(
            f"need clip_factor*(1+2*growth_constant) < 1, got "
            f"{params.weak_coupling_sum:.6g}"
        )
    cap = params.growth_constant * params.variation_scale
    if np.any(params.increases > cap):
        raise ValueError(
            "increases must not exceed growth_constant * variation_scale"
        )
    lam = params.clip_factor
    c = params.growth_constant
    ratio = lam * c / (1.0 - params.weak_coupling_sum)
    return params.variation_scale * ratio**m


def tv_increase_bound_from_extremes(params: BoundParams) -> float:
    """Global TV-increase bound 2M(1-λ-2λC)/(1-λ-3λC) via extreme sums."""
    params.require_coupling()
    return (
        2.0
        * params.variation_scale
        * (1.0 - params.weak_coupling_sum)
        / (1.0 - params.coupling_sum)
    )


def tv_increase_bound_from_contributions(params: BoundParams) -> float:
    """Global TV-increase bound 2λCM/(1-λ-3λC) via summed contributions."""
    params.require_coupling()
    return (
        2.0
        * params.clip_factor
        * params.growth_constant
        * params.variation_scale
        / (1.0 - params.coupling_sum)
    )


def total_increase_contribution(params: BoundParams, k: int) -> float:
    """Sum of all per-increase contributions alive at step k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    coupling = params.coupling_sum
    increases = params.increases.tolist() + [0.0] * k  # zero past the end
    total = 0.0
    for m in range(1, k + 1):
        total += coupling ** (k - m) * increases[m - 1]
    return params.clip_factor * total
