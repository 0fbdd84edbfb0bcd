"""Bound-chain recursion, closed forms and envelope constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classical
from shockmesh import (
    BoundParams,
    ExtremeBoundTable,
    extreme_bound_closed_form,
    extreme_bound_table,
    total_increase_contribution,
    tv_increase_bound_from_contributions,
    tv_increase_bound_from_extremes,
    uniform_extreme_bound,
)
from shockmesh.bounds import _closed_form_table


def params(lam=0.1, growth=1.0, scale=1.0, increases=(1.0, 1.0, 1.0)):
    return BoundParams(lam, growth, scale, np.asarray(increases, dtype=np.float64))


def test_bound_params_validation():
    with pytest.raises(ValueError):
        params(lam=0.0)
    with pytest.raises(ValueError):
        params(lam=1.0)
    with pytest.raises(ValueError):
        params(growth=-1.0)
    with pytest.raises(ValueError):
        params(scale=0.0)
    with pytest.raises(ValueError):
        params(increases=(-0.1,))


def test_increase_sequence_pads_with_zero():
    short = extreme_bound_table(params(increases=(0.5, 0.25)), 6).values
    padded = extreme_bound_table(params(increases=(0.5, 0.25, 0.0, 0.0, 0.0, 0.0)), 6).values
    assert short.tobytes() == padded.tobytes()


def test_coupling_properties():
    p = params(lam=0.1, growth=1.0)
    assert p.coupling_sum == pytest.approx(0.4)
    assert p.weak_coupling_sum == pytest.approx(0.3)


def test_recursion_seed_and_triangle():
    p = params(lam=0.1, growth=1.0, increases=(1.0, 1.0, 1.0))
    table = extreme_bound_table(p, 3)
    assert table.value(1, 1) == pytest.approx(0.1, rel=1e-15)  # lam * a_1
    assert table.value(3, 3) == pytest.approx(0.001, rel=1e-12)  # lam^3 C^2 a_1
    assert table.value(2, 1) == 0.0
    assert table.value(5, 3) == 0.0


def test_third_column_expansion():
    lam, C = 0.17, 0.9
    a = np.array([0.7, 0.4, 1.1])
    p = BoundParams(lam, C, 2.0, a)
    table = extreme_bound_table(p, 3)
    e13 = lam**3 * (1 + 2 * C) ** 2 * a[0] + lam**2 * (1 + 2 * C) * a[1] + lam * a[2]
    assert table.value(1, 3) == pytest.approx(e13, rel=1e-14)
    assert table.value(3, 3) == pytest.approx(lam**3 * C**2 * a[0], rel=1e-14)


def test_closed_form_matches_recursion_small_triangle():
    p = params(lam=0.12, growth=1.3, scale=1.5,
               increases=np.full(12, 1.3 * 1.5))
    table = extreme_bound_table(p, 12)
    for k in range(1, 13):
        for m in range(1, k + 1):
            assert extreme_bound_closed_form(p, m, k) == pytest.approx(
                table.value(m, k), rel=1e-12, abs=1e-300
            )


def test_closed_form_rejects_deep_columns():
    p = params()
    with pytest.raises(ValueError):
        extreme_bound_closed_form(p, 1, 61)
    # the recursion itself has no such limit
    table = extreme_bound_table(p, 100)
    assert table.value(1, 100) >= 0.0


def test_uniform_bound_frozen_value():
    p = params(lam=0.1, growth=1.0, scale=1.0)
    # lam*C*M / (1 - lam - 2*lam*C) = 0.1/0.7
    assert uniform_extreme_bound(p, 1) == pytest.approx(1.0 / 7.0, rel=1e-15)
    assert uniform_extreme_bound(p, 2) == pytest.approx(1.0 / 49.0, rel=1e-14)


def test_uniform_bound_dominates_recursion():
    rng = np.random.default_rng(23)
    for _ in range(20):
        lam = rng.uniform(0.02, 0.3)
        growth = rng.uniform(0.1, (1.0 / lam - 1.0) / 3.0 * 0.95)
        scale = rng.uniform(0.5, 2.0)
        p = BoundParams(lam, growth, scale, np.full(20, growth * scale))
        table = extreme_bound_table(p, 20)
        for k in range(1, 21):
            for m in range(1, k + 1):
                assert table.value(m, k) <= uniform_extreme_bound(p, m) * (1 + 1e-12)


def test_extreme_orders_decrease_for_constant_forcing():
    rng = np.random.default_rng(29)
    for _ in range(20):
        lam = rng.uniform(0.02, 0.3)
        growth = rng.uniform(0.1, (1.0 / lam - 1.0) / 3.0 * 0.95)
        scale = rng.uniform(0.5, 2.0)
        p = BoundParams(lam, growth, scale, np.full(25, growth * scale))
        table = extreme_bound_table(p, 25)
        for k in range(1, 26):
            column = [table.value(m, k) for m in range(1, k + 1)]
            for lower, upper in zip(column[1:], column[:-1]):
                assert lower <= upper * (1 + 1e-12)


def test_first_increase_resummation():
    # only a_1 nonzero: the column sum telescopes to lam^k (1+3C)^(k-1) a_1
    lam, growth, a1 = 0.15, 0.8, 0.9
    a = np.zeros(15)
    a[0] = a1
    p = BoundParams(lam, growth, 2.0, a)
    table = extreme_bound_table(p, 15)
    for k in range(1, 16):
        expected = lam**k * (1.0 + 3.0 * growth) ** (k - 1) * a1
        assert table.column_sum(k) == pytest.approx(expected, rel=1e-12)


def test_envelope_constants_frozen_values():
    p = params(lam=0.1, growth=1.0, scale=1.0)
    assert tv_increase_bound_from_extremes(p) == pytest.approx(7.0 / 3.0, rel=1e-15)
    assert tv_increase_bound_from_contributions(p) == pytest.approx(1.0 / 3.0, rel=1e-15)
    p2 = params(lam=0.2, growth=1.0, scale=1.0)
    assert tv_increase_bound_from_extremes(p2) == 4.0


def test_envelope_ratio_identity():
    rng = np.random.default_rng(31)
    for _ in range(30):
        lam = rng.uniform(0.02, 0.3)
        growth = rng.uniform(0.1, (1.0 / lam - 1.0) / 3.0 * 0.95)
        p = BoundParams(lam, growth, 1.0, np.array([1.0]))
        b1 = tv_increase_bound_from_extremes(p)
        b2 = tv_increase_bound_from_contributions(p)
        assert b2 / b1 == pytest.approx(
            lam * growth / (1.0 - lam - 2.0 * lam * growth), rel=1e-12
        )
        assert b2 <= b1


def test_contribution_frozen_example():
    p = params(lam=0.1, growth=1.0)
    assert classical.increase_contribution(p, 1, 3) == pytest.approx(0.016, rel=1e-12)
    assert classical.increase_contribution(p, 3, 1) == 0.0  # not yet created
    assert classical.increase_contribution(p, 2, 2) == pytest.approx(0.1, rel=1e-15)


def test_total_contribution_is_sum_over_orders():
    p = params(lam=0.11, growth=0.9, increases=(0.4, 0.9, 0.2, 0.7))
    for k in range(1, 7):
        direct = sum(classical.increase_contribution(p, m, k) for m in range(1, k + 1))
        assert total_increase_contribution(p, k) == pytest.approx(direct, rel=1e-14)


def test_bound_formulas_reject_violated_coupling():
    bad = BoundParams(0.3, 1.0, 1.0, np.array([1.0]))  # lam(1+3C) = 1.2
    with pytest.raises(ValueError):
        tv_increase_bound_from_extremes(bad)
    with pytest.raises(ValueError):
        tv_increase_bound_from_contributions(bad)
    weakly_bad = BoundParams(0.35, 1.0, 1.0, np.array([0.2]))  # lam(1+2C) = 1.05
    with pytest.raises(ValueError):
        uniform_extreme_bound(weakly_bad, 1)


def test_uniform_bound_requires_bounded_increases():
    p = BoundParams(0.1, 1.0, 1.0, np.array([5.0]))  # a_1 > C*M
    with pytest.raises(ValueError):
        uniform_extreme_bound(p, 1)


def test_closed_form_binomial_counts_against_math_comb():
    # lambda = C = 1/2 makes the age ratio lambda*(1 + 2C) exactly 1 and the
    # scale 2**-(2m - 1), and a single unit increase leaves only the age-j
    # term at k = m + j, so each closed form is one float count, exactly
    # scaled.
    p = params(lam=0.5, growth=0.5, increases=(1.0,))
    misses = []
    for m in range(1, 61):
        for j in range(61 - m):
            count = extreme_bound_closed_form(p, m, m + j) * 2.0 ** (2 * m - 1)
            exact = math.comb(m - 1 + j, j)
            if m + j <= 55:
                assert count == exact
            assert abs(count - exact) <= 2.0**-51 * exact
            if count != exact:
                misses.append((m, j))
    assert len(misses) == 42
    # the first miss, at k = 56
    assert extreme_bound_closed_form(p, 26, 56) * 2.0**51 == 3085851035479211.5


@settings(max_examples=60, deadline=None)
@given(
    growth=st.floats(1e-3, 10.0),
    coupling=st.floats(1e-3, 0.999),
    scale=st.floats(1e-3, 1e3),
    increases=st.lists(st.floats(0.0, 1e3) | st.just(0.0), max_size=70),
    last_step=st.integers(1, 60),
    data=st.data(),
)
def test_closed_form_table_is_the_scalar_bitwise(
    growth, coupling, scale, increases, last_step, data
):
    # Coupled parameters; the forcing may end before, at or after the last
    # step, hold zeros, or repeat one value.
    if data.draw(st.booleans()):
        increases = [increases[0] if increases else growth * scale] * data.draw(
            st.sampled_from([last_step - 1, last_step, last_step + 9])
        )
    lam = coupling / (1.0 + 3.0 * growth)
    p = params(lam=lam, growth=growth, scale=scale, increases=increases)
    table = _closed_form_table(p, last_step)
    assert table.shape == (last_step + 1, last_step + 1)
    for k in range(last_step + 1):
        for m in range(last_step + 1):
            if 1 <= m <= k:
                assert table[m, k] == extreme_bound_closed_form(p, m, k)
            else:
                assert table[m, k] == 0.0


def test_closed_form_table_marks_a_scale_past_float64():
    # c ** (m - 1) passes float64 from m = 60 on: that row is inf, the rows
    # above it are the scalar's.
    p = params(lam=1e-7, growth=2e5, increases=np.full(60, 2e5))
    with pytest.raises(OverflowError):
        extreme_bound_closed_form(p, 60, 60)
    table = _closed_form_table(p, 60)
    assert table[60, 60] == math.inf
    assert table[59, 60] == extreme_bound_closed_form(p, 59, 60)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ExtremeBoundTable(np.zeros((2, 3)), 1), "shape"),
        (lambda: extreme_bound_table(params(), 3).value(1, 0), "1 <= k <= last_step"),
        (lambda: extreme_bound_table(params(), 3).value(1, 4), "1 <= k <= last_step"),
        (lambda: extreme_bound_table(params(), 3).value(0, 2), "m >= 1"),
        (lambda: extreme_bound_table(params(), 3).column_sum(0), "1 <= k <= last_step"),
        (lambda: extreme_bound_table(params(), 3).column_sum(4), "1 <= k <= last_step"),
        (lambda: extreme_bound_table(params(), 0), "last_step must be at least 1"),
        (lambda: extreme_bound_closed_form(params(), 0, 1), "m >= 1 and k >= 1"),
        (lambda: extreme_bound_closed_form(params(), 1, 0), "m >= 1 and k >= 1"),
        (lambda: uniform_extreme_bound(params(), 0), "m must be at least 1"),
        (lambda: total_increase_contribution(params(), 0), "k must be at least 1"),
    ],
    ids=[
        "table_shape",
        "value_k_0",
        "value_k_past_last_step",
        "value_m_0",
        "column_sum_k_0",
        "column_sum_k_past_last_step",
        "table_last_step_0",
        "closed_form_m_0",
        "closed_form_k_0",
        "uniform_bound_m_0",
        "contribution_k_0",
    ],
)
def test_public_rejections(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_an_extreme_younger_than_its_step_count_is_zero():
    # Extreme m appears at step m, so before that it bounds nothing.
    p = params()
    assert extreme_bound_closed_form(p, 3, 2) == 0.0
    assert extreme_bound_table(p, 3).value(3, 2) == 0.0


@settings(max_examples=80, deadline=None)
@given(
    growth=st.floats(1e-3, 10.0),
    coupling=st.floats(1e-3, 0.999),
    scale=st.floats(1e-3, 1e3),
    increases=st.lists(st.floats(0.0, 1e3), max_size=60),
    last_step=st.integers(1, 60),
)
def test_plain_float_bounds_match_the_numpy_references_bitwise(
    growth, coupling, scale, increases, last_step
):
    # Coupled parameters, lambda * (1 + 3C) < 1, with a forcing sequence
    # that may end before the last step.
    lam = coupling / (1.0 + 3.0 * growth)
    p = params(lam=lam, growth=growth, scale=scale, increases=increases)
    table = extreme_bound_table(p, last_step).values
    reference = classical.extreme_bound_table_reference(p, last_step)
    assert (table == reference).all()
    for k in range(1, last_step + 1):
        assert total_increase_contribution(p, k) == (
            classical.total_increase_contribution_reference(p, k)
        )
        for m in range(1, k + 1):
            assert extreme_bound_closed_form(p, m, k) == (
                classical.extreme_bound_closed_form_reference(p, m, k)
            )
