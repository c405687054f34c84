import itertools
import math
from fractions import Fraction

import pytest

from lllcolor.bounds import (
    MAX_EVENTS,
    BoundParams,
    NoCutoffError,
    Q_SERIES_CAP,
    bound_rows,
    cutoff_estimate,
    lll_condition,
    phase_bound,
    q_closed_form,
    q_series,
)

from conftest import forest_count, reference_q_series


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


CUTOFF_GRID = [
    (p, delta, m)
    for delta in (2, 3, 5)
    for m in (1, 2, 10, 40, 1000)
    for p in (Fraction(1, 8), Fraction(1, 16), Fraction(1, 64))
]


def _exact_base(params):
    # (1 + 1/(d-1))^(d-1) * p * d = d^d / (d-1)^(d-1) * p, rational
    d = params.delta
    return Fraction(d**d, (d - 1) ** (d - 1)) * params.p


def _cutoff_scan(params):
    n = 1
    while forest_count(params, n) >= 1:
        n += 1
    return n


def _ratio_at_least_one(params, n):
    """T_(n+1) >= T_n, where T_(n+1)/T_n is
    p * (dn+m)(dn+m+1)...(dn+m+d-1) / ((n+1) * ((d-1)n+m+1)...((d-1)n+m+d-1))."""
    d, m = params.delta, params.m
    rise = math.prod(range(d * n + m, d * n + m + d))
    fall = (n + 1) * math.prod(range((d - 1) * n + m + 1, (d - 1) * n + m + d))
    return params.p * rise >= fall


def test_forest_count_matches_the_power_series():
    # T_n = p^n [z^n] R^m with R = 1 + z R^delta; q_series at p = 1 gives R
    for delta in (2, 3, 5):
        r = q_series(BoundParams(Fraction(1), delta), 12)
        power = [Fraction(1)] + [Fraction(0)] * 12
        for m in range(1, 11):
            power = [sum(power[i] * r[k - i] for i in range(k + 1)) for k in range(13)]
            params = BoundParams(Fraction(1, 8), delta, m=m)
            assert all(forest_count(params, n) == params.p**n * power[n] for n in range(13))
            if m == 1:
                assert all(forest_count(params, n) == q_closed_form(params, n) for n in range(13))


def test_cutoff_examples():
    for p, delta, m, cutoff in [
        (Fraction(1, 8), 3, 40, 58),
        (Fraction(1, 8), 3, 10, 3),
        (Fraction(1, 10), 3, 10, 2),  # the tie T_1 = p*m = 1 exactly
        (Fraction(1, 8), 3, 1, 1),
        # the (A*n)^m * base^n cutoff returned 1 here at A = 1.0001, yet
        # that bound read 9.8e6 at n = 10: its f(1) < 0 shortcut ignored
        # that f rises until n = -m/log(base); T_1 = 1.25 and T_2 = 1.016
        (Fraction(1, 8), 2, 10, 3),
    ]:
        params = BoundParams(p, delta, m=m)
        assert cutoff_estimate(params) == _cutoff_scan(params) == cutoff
    assert forest_count(BoundParams(Fraction(1, 10), 3, m=10), 1) == 1
    # m = 10^9 returns, at the cutoff/m ratio that m = 10^6 reads
    huge = cutoff_estimate(BoundParams(Fraction(1, 8), 3, m=10**9))
    assert huge / 10**9 == pytest.approx(cutoff_estimate(BoundParams(Fraction(1, 8), 3, m=10**6)) / 10**6, rel=1e-4)


def test_cutoff_random_grid_matches_scan():
    for p, delta, m in CUTOFF_GRID:
        params = BoundParams(p, delta, m=m)
        if _exact_base(params) >= 1:
            with pytest.raises(NoCutoffError):
                cutoff_estimate(params)
        else:
            assert cutoff_estimate(params) == _cutoff_scan(params), (p, delta, m)


def test_forest_count_ratio_is_at_least_one_only_on_a_prefix():
    # the doubling and bisection of cutoff_estimate rest on this where
    # base < 1 (at base >= 1 the ratio tends to base and no search runs); n
    # runs past every cutoff on the grid (at most 2.2*m), and the ratio's
    # closed form is checked against the counts first
    for p, delta, m in CUTOFF_GRID:
        params = BoundParams(p, delta, m=m)
        if _exact_base(params) >= 1:
            continue
        counts = [forest_count(params, n) for n in range(12)]
        assert all(_ratio_at_least_one(params, n) == (counts[n + 1] >= counts[n]) for n in range(11))
        rising = [_ratio_at_least_one(params, n) for n in range(5 * m + 200)]
        k = rising.count(True)
        assert rising == [True] * k + [False] * (len(rising) - k), (p, delta, m)


def test_cutoff_errors():
    with pytest.raises(NoCutoffError):
        cutoff_estimate(BoundParams(Fraction(2, 5), 2, m=1))  # base = 1.6


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
