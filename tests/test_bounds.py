import itertools
import math
from fractions import Fraction

import pytest

from lllcolor.bounds import (
    MAX_EVENTS,
    BoundParams,
    NoCutoffError,
    Q_SERIES_CAP,
    algorithm_bound,
    bound_rows,
    cutoff_estimate,
    lll_condition,
    phase_bound,
    q_closed_form,
    q_series,
)

from conftest import reference_q_series


def brute_q(p: Fraction, delta: int, n: int, memo=None) -> Fraction:
    """Direct composition enumeration of the recurrence, for small n."""
    if memo is None:
        memo = {}
    if n == 0:
        return Fraction(1)
    if n not in memo:
        total = Fraction(0)
        for parts in itertools.product(range(n), repeat=delta):
            if sum(parts) == n - 1:
                prod = Fraction(1)
                for part in parts:
                    prod *= brute_q(p, delta, part, memo)
                total += prod
        memo[n] = p * total
    return memo[n]


def test_q_base_cases():
    for p, delta in [(Fraction(1, 8), 2), (Fraction(1, 3), 4), (Fraction(0), 3)]:
        params = BoundParams(p, delta)
        assert q_series(params, 0)[0] == 1
        assert q_series(params, 1)[1] == p
        assert q_closed_form(params, 0) == 1


def test_q_recurrence_frozen_example():
    assert q_series(BoundParams(Fraction(1, 8), 2), 2)[2] == Fraction(1, 32)


def test_q_closed_form_frozen_examples():
    assert q_closed_form(BoundParams(Fraction(1, 8), 2), 2) == Fraction(1, 32)
    assert q_closed_form(BoundParams(Fraction(1, 4), 3), 3) == Fraction(3, 16)


def test_q_recurrence_matches_composition_enumeration():
    for p, delta in [(Fraction(1, 8), 2), (Fraction(1, 5), 3)]:
        params = BoundParams(p, delta)
        series = q_series(params, 5)
        for n in range(6):
            assert series[n] == brute_q(p, delta, n)


def test_recurrence_equals_closed_form_small_grid():
    for delta in (2, 3):
        for p in (Fraction(1, 8), Fraction(1, 3)):
            params = BoundParams(p, delta)
            series = q_series(params, 8)
            for n in range(9):
                assert series[n] == q_closed_form(params, n)


def test_q_series_matches_convolution_dp():
    for p, delta, n_max in [(Fraction(1, 8), 2, 50), (Fraction(3, 7), 3, 40), (Fraction(1, 5), 5, 25), (Fraction(0), 3, 6)]:
        params = BoundParams(p, delta)
        assert q_series(params, n_max) == reference_q_series(params, n_max)


def test_q_series_equals_closed_form_at_cap():
    params = BoundParams(Fraction(1, 8), 3)
    series = q_series(params, Q_SERIES_CAP)
    assert len(series) == Q_SERIES_CAP + 1
    assert all(series[n] == q_closed_form(params, n) for n in range(Q_SERIES_CAP + 1))


def test_q_monotone_in_p():
    for delta in (2, 3):
        lo = q_series(BoundParams(Fraction(1, 8), delta), 10)
        mid = q_series(BoundParams(Fraction(1, 5), delta), 10)
        hi = q_series(BoundParams(Fraction(1, 3), delta), 10)
        for n in range(11):
            assert lo[n] <= mid[n] <= hi[n]


def test_series_cap():
    with pytest.raises(ValueError):
        q_series(BoundParams(Fraction(1, 8), 2), Q_SERIES_CAP + 1)


def test_phase_bound_values():
    params = BoundParams(Fraction(1, 8), 2)
    assert phase_bound(params, 1) == pytest.approx(math.sqrt(2) / 2)
    assert params.base == pytest.approx(0.5)
    assert params.base < math.e * (1 / 8) * 2  # (1+1/(d-1))^(d-1) < e
    params3 = BoundParams(Fraction(1, 12), 3)
    assert phase_bound(params3, 10) == pytest.approx(math.sqrt(1.5) * ((9 / 4) * (1 / 12) * 3) ** 10)


def test_envelope_dominates_closed_form():
    # Q_n <= sqrt(1+1/(d-1)) * base^n * e^(1/n) held from n0 = 1 on this
    # whole grid (checked when the values were frozen)
    for delta in (2, 3, 4):
        for p in (Fraction(1, 8), Fraction(1, 5), Fraction(1, 3)):
            params = BoundParams(p, delta)
            series = q_series(params, 40)
            for n in range(1, 41):
                envelope = phase_bound(params, n) * math.exp(1 / n)
                assert float(series[n]) <= envelope


def test_lll_condition_examples():
    for delta in (2, 3, 6):
        # rational p at (just below) the classical boundary 1/(e*delta)
        p = Fraction(math.floor(1e9 / (math.e * delta)), 10**9)
        flags = lll_condition(BoundParams(p, delta))
        assert flags["classic"] and flags["strict"]
    assert lll_condition(BoundParams(Fraction(2, 5), 2)) == {"strict": False, "classic": False}
    zero = lll_condition(BoundParams(Fraction(0), 2))
    assert zero["strict"] and zero["classic"]


def test_classic_implies_strict_sampled():
    for delta in range(2, 8):
        for num in range(0, 9):
            params = BoundParams(Fraction(num, 8 * delta * 3), delta)
            flags = lll_condition(params)
            assert not flags["classic"] or flags["strict"]


def _cutoff_scan(m, a, base):
    n = 1
    while True:
        if m * math.log(n) + m * math.log(a) + n * math.log(base) < 0:
            return n
        n += 1


def test_cutoff_examples():
    # delta=2 makes base = 4p, so p = 1/8 gives base = 1/2
    one = BoundParams(Fraction(1, 8), 2, m=1, prefactor=2.0)
    assert cutoff_estimate(one) == _cutoff_scan(1, 2.0, 0.5) == 3
    ten = BoundParams(Fraction(1, 8), 2, m=10, prefactor=2.0)
    value = cutoff_estimate(ten)
    assert value == _cutoff_scan(10, 2.0, 0.5) == 72
    assert 71 <= value <= 80
    # tiny base with prefactor barely above 1: the first step already works
    immediate = BoundParams(Fraction(1, 4096), 2, m=1, prefactor=1.0 + 1e-9)
    assert cutoff_estimate(immediate) == 1


def test_cutoff_random_grid_matches_scan():
    for m in (1, 2, 5):
        for p in (Fraction(1, 8), Fraction(1, 16), Fraction(1, 64)):
            for a in (1.5, 4.0):
                params = BoundParams(p, 2, m=m, prefactor=a)
                assert cutoff_estimate(params) == _cutoff_scan(m, a, params.base)


def test_cutoff_errors():
    with pytest.raises(NoCutoffError):
        cutoff_estimate(BoundParams(Fraction(2, 5), 2, m=1))  # base = 1.6
    with pytest.raises(NoCutoffError):
        cutoff_estimate(BoundParams(Fraction(1, 8), 2, m=1, prefactor=1.0))


def test_algorithm_bound_value():
    params = BoundParams(Fraction(1, 8), 2, m=3, prefactor=2.0)
    assert algorithm_bound(params, 10) == pytest.approx((2.0 * 10) ** 3 * 0.5**10)


def test_bound_rows():
    params = BoundParams(Fraction(1, 8), 2)
    rows = bound_rows(params, 3)
    assert [r[0] for r in rows] == [0, 1, 2, 3]
    assert rows[2][1] == "1/32" and rows[2][2] == pytest.approx(1 / 32)
    assert rows[3][4] == pytest.approx(0.5**3)
    # base = 10 * (10/9)**9 * 1 is about 25.8, so base**219 passes 1.8e308
    steep = BoundParams(Fraction(1), 10)
    assert all(math.isfinite(x) for row in bound_rows(steep, 218)[1:] for x in row[2:])
    with pytest.raises(ValueError, match="n=219"):
        bound_rows(steep, 300)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(Fraction(3, 2), 2)
    with pytest.raises(ValueError):
        BoundParams(Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        BoundParams(Fraction(1, 2), 2, m=0)
    for prefactor in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            BoundParams(Fraction(1, 8), 2, prefactor=prefactor)
    BoundParams(Fraction(1, 8), MAX_EVENTS, m=MAX_EVENTS)
    with pytest.raises(ValueError):
        BoundParams(Fraction(1, 8), MAX_EVENTS + 1)
    with pytest.raises(ValueError):
        BoundParams(Fraction(1, 8), 2, m=MAX_EVENTS + 1)
    with pytest.raises(ValueError):
        q_series(BoundParams(Fraction(1, 8), 2), -2)


NOT_INTS = (2.5, 3.0, Fraction(5, 2), Fraction(3), True, "3")


def test_bound_params_delta_must_be_an_int():
    # a float or Fraction delta would turn the exact series into floats, and
    # the closed form's binomial would refuse it; bool is refused with them
    for delta in NOT_INTS:
        with pytest.raises(TypeError, match="delta must be an int"):
            BoundParams(Fraction(1, 8), delta)


def test_bound_params_m_must_be_an_int():
    for m in NOT_INTS:
        with pytest.raises(TypeError, match="m must be an int"):
            BoundParams(Fraction(1, 8), 2, m=m)
