"""Exact and asymptotic bounds on the engine's step-count tail.

The tail analysis hinges on the sequence

    Q_0 = 1,   Q_n = p * sum over n_1+...+n_delta = n-1 of Q_{n_1}...Q_{n_delta}

whose closed form is Q_n = p^n * C(delta*n, n) / ((delta-1)*n + 1).  Both
routes are exact, so their equality is a hard test, not a float tolerance;
the recurrence runs online through ``series.power_step``, shared with ``gamma``.
The asymptotic envelope, the convergence condition and the cutoff
estimate are plain floating point.

Pr[steps >= n] of a run on m events is bounded by counting witness
forests, as Moser and Tardos do: at most m roots, each with a delta-ary
tree, n nodes in all, each node weighing p.  That count is

    T_n = p^n * [z^n] R(z)^m,   R = 1 + z*R^delta,

and Lagrange inversion gives T_n = p^n * m/(delta*n+m) * C(delta*n+m, n).
At m = 1 it is Q_n, so the table's ``q_exact`` column prints it.  The
cutoff reads log T_n through ``math.lgamma``, whose terms grow like
(delta*n + m) * log(delta*n + m): near m = 10**9 they pass 10**11, so log
T_n carries an absolute error near 10**-5 and a T_n that close to 1 may
fall on the wrong side.  m * Q_n is *not* a bound: on the chain 3-SAT with
m = 40, Pr[steps >= 4] read 0.823 in 20,000 runs against m * Q_4 = 0.537
(and T_4 = 50.8), so no column prints it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import ContractError, _Frozen
from .series import power_step

Q_SERIES_CAP = 300
MAX_EVENTS = 10**9  # cap on delta and m, far inside the float range


class NoCutoffError(ValueError):
    """The convergence condition fails, so no cutoff point exists."""


class BoundParams(_Frozen):
    """Inputs of the tail analysis.

    ``p`` bounds the probability of any single event under fresh sampling,
    ``delta`` is the max dependency-neighbourhood size (self included),
    ``m`` the number of events; both are ints no larger than ``MAX_EVENTS``.
    """

    __slots__ = ("p", "delta", "m")

    def __init__(self, p: Fraction, delta: int, m: int = 1):
        p = Fraction(p)
        if not (0 <= p <= 1):
            raise ValueError("p must lie in [0, 1]")
        for name, value in (("delta", delta), ("m", m)):
            if type(value) is not int:  # a bool, float or Fraction would turn the exact series into floats
                raise TypeError(f"{name} must be an int, got {value!r}")
        if not (2 <= delta <= MAX_EVENTS):
            raise ValueError(f"delta must lie in 2..{MAX_EVENTS}")
        if not (1 <= m <= MAX_EVENTS):
            raise ValueError(f"m must lie in 1..{MAX_EVENTS}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "m", m)

    @property
    def base(self) -> float:
        """Growth base (1 + 1/(delta-1))**(delta-1) * p * delta."""
        d = self.delta
        return (1 + 1 / (d - 1)) ** (d - 1) * float(self.p) * d


def q_series(params: BoundParams, n_max: int) -> list[Fraction]:
    """Q_0..Q_n_max via the recurrence, as exact rationals.

    Q_n = p^n * R_n for R = 1 + z*R^delta; R and R^delta run online in
    integers, where ``power_step``'s division is exact.  Independent of the
    closed form on purpose.
    """
    if n_max > Q_SERIES_CAP:
        raise ValueError(f"n_max {n_max} exceeds series cap {Q_SERIES_CAP}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    r, t = [1], [1]
    while len(r) <= n_max:
        r.append(t[-1])
        t.append(power_step(r, t, params.delta) // len(t))
    return [params.p**n * r_n for n, r_n in enumerate(r)]


def q_closed_form(params: BoundParams, n: int) -> Fraction:
    """Q_n = p^n * C(delta*n, n) / ((delta-1)*n + 1), exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    d = params.delta
    return params.p**n * Fraction(math.comb(d * n, n), (d - 1) * n + 1)


def phase_bound(params: BoundParams, n: int) -> float:
    """Asymptotic envelope sqrt(1 + 1/(delta-1)) * base**n (transient dropped)."""
    return math.sqrt(1 + 1 / (params.delta - 1)) * params.base**n


def lll_condition(params: BoundParams) -> dict[str, bool]:
    """Convergence conditions: the sharp one (base < 1) and the classical
    e*p*delta <= 1.  The classical condition implies the sharp one."""
    strict = params.base < 1
    classic = math.e * float(params.p) * params.delta <= 1
    if classic and not strict:
        raise ContractError("classical condition must imply the sharp one")
    return {"strict": strict, "classic": classic}


def cutoff_estimate(params: BoundParams) -> int:
    """One past the last n with T_n >= 1, T_n the witness-forest count.

    Past this point the bound T_n on Pr[steps >= n] is below 1.  T_1 = p*m,
    so the first check is exact.  T_(n+1)/T_n starts at p*m and tends to
    base; on delta in {2, 3, 4, 5, 8, 20}, m up to 10**6 and five values of
    p it was >= 1 only on a prefix of n (the tests check a grid), so T_n
    rises and then falls, and once T_1 >= 1 the crossing is found by
    doubling and bisection on log T_n, taken from the closed form through
    ``math.lgamma``.
    """
    if params.base >= 1:
        raise NoCutoffError("base >= 1: the tail bound never decays")
    if params.p * params.m < 1:
        return 1
    log_p, m, d = math.log(params.p), params.m, params.delta

    def below(n: int) -> bool:  # log T_n < 0, with T_n = p^n * m * (dn+m-1)! / (n! * ((d-1)n+m)!)
        k = d * n + m
        return n * log_p + math.log(m) + math.lgamma(k) - math.lgamma(n + 1) - math.lgamma(k - n + 1) < 0

    lo, hi = 1, 2
    while not below(hi):
        lo = hi
        hi *= 2
        if hi > 2**60:
            raise NoCutoffError("no crossing found")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return hi


def bound_rows(params: BoundParams, n_max: int) -> list[tuple[int, str, float, float, float]]:
    """Table rows (n, Q_n as exact fraction text, Q_n float, envelope, base^n).

    ValueError names the first n whose float columns leave the float range.
    """
    rows = []
    for n, q_n in enumerate(q_series(params, n_max)):
        try:
            floats = (float(q_n), phase_bound(params, n) if n > 0 else math.nan, params.base**n)
            fits = math.inf not in floats
        except OverflowError:
            fits = False
        if not fits:
            raise ValueError(f"row n={n} leaves the float range at base={params.base:.12g}")
        rows.append((n, str(q_n), *floats))
    return rows
