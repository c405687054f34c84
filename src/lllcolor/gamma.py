"""Palette-growth constant solver for the cycle-resampling analysis.

The step-count generating series of the coloring loop satisfies the
functional equation W = z * phi(W) with

    phi(x) = (1/g) * q**(2r-3) * (x+1)**(2r) / (1 - q**2 * (x+1)**2),
    q = 1 - exp(-1/g),

where g is the palette slack (the palette holds ceil((2+g)*(maxdeg-1))+1
colors) and 2r is the shortest cycle length the analysis has to track.
phi is analytic on [0, R) with a simple pole at R = 1/q - 1.  The
coefficients of W grow like rho**n where rho = phi(tau)/tau at the unique
root tau in (0, R) of the characteristic equation phi(tau) = tau * phi'(tau).
Since phi > 0 there, tau is solved for as the root of the scale-free form

    h(x) = 1 - x * u(x),   u = phi'/phi = 2r/(x+1) + 2q^2(x+1)/(1 - q^2(x+1)^2),

which carries none of phi's scale: phi is evaluated once, at tau, for rho.
``PhiParams`` derives q, 2r, q^2, 2q^2 and the pole R once, when built;
phi, the solver and the series all read them from there.

A slack g is admissible when rho < 1; ``min_gamma`` bisects for the
smallest admissible slack.  For a graph of girth girth, cycles of length
up to girth are treated as excluded, so 2r = max(6, girth + 1); r is
half-integral for even girth, and the floor at 3 reflects that
bichromatic 4-cycles are excluded by construction throughout.

Monotonicity of rho in g (and of the minimal slack in r) is checked
empirically here, not proven: each tracked length's bracket is
spot-checked on a coarse grid once, when the length is first asked for.
The bisection relies on it, and so does the crossing search that follows
the spot-check: regula falsi closes a band of width about ``BAND`` around
the slack where rho crosses 1, with |log rho| at least ``MARGIN`` at both
ends.  A bisection step whose midpoint lies outside the band then takes
the side monotonicity gives, without a solve; only midpoints inside the
band are solved.  The bisection to a coarser tol is a prefix of the
bisection to a finer one, so each length keeps its bracket, its band and
one bit per step taken (the side the midpoint fell on), and a finer tol
replays those steps and decides only the steps past them.
"""

from __future__ import annotations

import math

from . import MAX_HEADER_VERTICES, _Frozen
from .series import power_step

MAX_TRACKED_LENGTH = MAX_HEADER_VERTICES + 1  # 2r of the largest girth a graph file can have
BAND = 1e-6  # width to which the crossing search closes in on the minimal slack
MARGIN = 1e-12  # |log rho| at a band end; rho's rounding noise is orders of magnitude below it


class SolverError(RuntimeError):
    """Root bracketing or refinement failed."""


def _tracked_length(r: float) -> int:
    """2r for a half-integral r in 3..MAX_TRACKED_LENGTH/2; ValueError otherwise (NaN too)."""
    if not 3 <= r <= MAX_TRACKED_LENGTH / 2 or abs(2 * r - round(2 * r)) > 1e-9:
        raise ValueError(f"r must be a half-integer in 3..{MAX_TRACKED_LENGTH / 2}, got {r!r}")
    return int(round(2 * r))


class PhiParams(_Frozen):
    """Slack gamma plus the half-length r of the shortest tracked cycle, and
    the constants of phi they fix, derived once: q, the tracked length 2r
    (``min_cycle_length``), ``qq`` = q^2, ``q2`` = 2q^2 and the pole
    ``radius`` = 1/q - 1, past which the series around 0 diverges.

    2r must be integral; half-integral r arises from even girth.  No
    tracked length exceeds ``MAX_TRACKED_LENGTH``.
    """

    __slots__ = ("gamma", "r", "q", "min_cycle_length", "qq", "q2", "radius")

    def __init__(self, gamma: float, r: float = 3.0):
        if not (gamma > 0):
            raise ValueError("gamma must be positive")
        min_cycle_length = _tracked_length(r)
        q = 1.0 - math.exp(-1.0 / gamma)
        _set_gamma(self, gamma)
        _set_r(self, r)
        _set_q(self, q)
        _set_min_cycle_length(self, min_cycle_length)
        _set_qq(self, q * q)
        _set_q2(self, 2.0 * q * q)
        _set_radius(self, 1.0 / q - 1.0 if q else math.inf)  # q is 0.0 past gamma ~ 1e16: phi is 0, no pole


# the slots' own setters: PhiParams.__init__ calls them without a lookup by name
_set_gamma, _set_r, _set_q, _set_min_cycle_length, _set_qq, _set_q2, _set_radius = (
    vars(PhiParams)[name].__set__ for name in PhiParams.__slots__
)


def phi(x: float, params: PhiParams) -> float:
    """phi(x) from the constants of ``params``; ValueError outside [0, R)."""
    if not 0 <= x < params.radius:  # NaN fails too
        raise ValueError(f"x={x} outside [0, {params.radius})")
    q, mlen = params.q, params.min_cycle_length
    return (1.0 / params.gamma) * q ** (mlen - 3) * (x + 1.0) ** mlen / (1.0 - params.qq * (x + 1.0) ** 2)


def phi_prime(x: float, params: PhiParams) -> float:
    """Closed-form derivative phi * u, u = phi'/phi = 2r/(x+1) + 2q^2(x+1)/(1 - q^2(x+1)^2)
    in the float operations of ``solve_tau``; phi checks the domain."""
    xp = x + 1.0
    return phi(x, params) * (params.min_cycle_length / xp + params.q2 * xp / (1.0 - params.qq * xp**2))


class GammaSolution(_Frozen):
    """The root tau of the characteristic equation for ``params``, the growth
    rate rho = phi(tau)/tau and the residual |h(tau)|."""

    __slots__ = ("params", "tau", "rho", "residual")

    def __init__(self, params: PhiParams, tau: float, rho: float, residual: float):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "residual", residual)


def solve_tau(params: PhiParams) -> GammaSolution:
    """Root of the characteristic equation in (0, R).

    Solves the scale-free form h(x) = 1 - x*phi'(x)/phi(x) = 0, which has
    the root of phi - x*phi' because phi > 0 on [0, R), but neither over-
    nor underflows with phi.  h(0) = 1 and h diverges to -infinity at the
    pole, so the sign bracket always exists.  Bisection keeps it while
    Newton steps are taken whenever they stay inside it, surviving the
    pole at R.  The root is accepted once the bracket has closed to 4 ulps
    (or h is exactly 0): a root then lies within it, whatever |h| reads.
    h = 1 - x*u and its slope h' = -u - x*u', with
    u' = -2r/(x+1)^2 + 2q^2 (1 - q^2(x+1)^2 + 2q^2(x+1)^2)/(1 - q^2(x+1)^2)^2,
    are written out in the loop from 2r, q^2 and 2q^2 as ``PhiParams``
    derived them; rho is phi(tau)/tau.
    """
    radius, mlen, qq, q2 = params.radius, params.min_cycle_length, params.qq, params.q2
    lo, hi = 0.0, radius * (1.0 - 1e-9)
    while 1.0 - hi * (mlen / (xp := hi + 1.0) + q2 * xp / (1.0 - qq * xp**2)) >= 0:  # h(hi); NaN ends it too
        hi = radius - (radius - hi) * 0.5
        if radius - hi < 1e-15 * radius:
            raise SolverError("no sign change before the pole")
    x = 0.5 * (lo + hi)
    for _ in range(200):
        xp = x + 1.0
        sq = xp**2
        denom = 1.0 - qq * sq
        u = mlen / xp + q2 * xp / denom
        h = 1.0 - x * u
        if h > 0:
            lo = x
        elif h < 0:
            hi = x
        if h == 0 or hi - lo <= 4 * math.ulp(x):
            return GammaSolution(params, x, phi(x, params) / x, abs(h))
        slope = -u - x * (-mlen / sq + q2 * (denom + q2 * sq) / denom**2)
        step = x - h / slope if slope else x  # x is lo or hi by now
        x = step if lo < step < hi else 0.5 * (lo + hi)
    raise SolverError(f"sign bracket [{lo!r}, {hi!r}] did not close in 200 steps")


def girth_to_r(girth: int) -> float:
    """Half-length of the shortest tracked cycle for a given girth.

    Cycles of length up to the girth are treated as excluded, so the first
    tracked length is girth + 1, floored at 6 because 4-cycles (and, with
    properness, 5-cycles) are excluded by construction: r = max(3, (girth+1)/2).
    No graph read from a file has a girth above its vertex cap.
    """
    if not 3 <= girth <= MAX_HEADER_VERTICES:
        raise ValueError(f"girth {girth} outside 3..{MAX_HEADER_VERTICES}")
    return max(3.0, (girth + 1) / 2.0)


def _solve_at(g: float, r: float) -> GammaSolution:
    return solve_tau(PhiParams(g, r))  # through the module, so a wrapper on solve_tau sees each call


class _Bisection:
    """Bisection for the smallest admissible slack at one tracked half-length r.

    The bracket (lo, hi) with rho(lo) >= 1 > rho(hi) is found and
    spot-checked once.  Then regula falsi with the Illinois rule closes in
    on the crossing from the spot-check cell that holds it, down to a band
    (a, b) of width ``BAND`` or less, with log rho(a) >= ``MARGIN`` and
    log rho(b) <= -``MARGIN`` (if a cell end is nearer 1 than that, the
    band stays the bracket).  A step whose midpoint lies at or outside the band
    takes the side monotonicity gives; one inside it is solved.  So a
    bisection of any tol takes the steps of the bisection that solves at
    every midpoint, with solves only near the answer.

    The bisection to a coarser tol is a prefix of the bisection to a finer
    one, so the steps taken are kept as one bit each (set when the
    midpoint's rho < 1 moved hi down): a request replays them from the
    bracket and decides only the steps no request took before.
    ``known`` holds the solutions of the set-up until three steps are
    taken, since the spot-check's eighths can only be the first three
    midpoints.

    ``answers[tol]`` is ``(hi, solution at hi)``: one solution per answer,
    not one per step.  The solution is None when the step that last moved
    hi solved nothing or was taken by an earlier request; ``solution`` then
    takes it from an answer with the same hi, or solves there once.
    """

    __slots__ = ("r", "bracket", "band", "top", "steps", "below", "known", "answers")

    def __init__(self, r: float):
        self.r, self.steps, self.below, self.known, self.answers = r, 0, 0, {}, {}

        def rho_at(g: float) -> float:
            if g not in self.known:
                self.known[g] = _solve_at(g, r)
            return self.known[g].rho

        lo, hi = 0.25, 1.0
        while rho_at(lo) < 1.0:
            lo /= 2.0
            if lo < 1e-4:
                raise SolverError("failed to bracket from below")
        while rho_at(hi) >= 1.0:
            hi *= 2.0
            if hi > 64:
                raise SolverError("failed to bracket from above")
        # spot-check the assumed monotone decrease of rho on this bracket
        eighths = [lo + (hi - lo) * i / 8 for i in range(9)]
        rhos = [rho_at(g) for g in eighths]
        if any(r2 > r1 + 1e-9 for r1, r2 in zip(rhos, rhos[1:])):
            raise SolverError("rho is not decreasing in gamma on the bracket")
        self.bracket, self.top, self.band = (lo, hi), self.known[hi], (lo, hi)
        # regula falsi on log rho, which rho's orders of magnitude leave near
        # linear; rho underflows to 0 far past the crossing, read as 5e-324
        cell = next(i for i, rho in enumerate(rhos) if rho < 1.0)
        a, b, moved = eighths[cell - 1], eighths[cell], 0
        fa, fb = (math.log(rho or 5e-324) for rho in rhos[cell - 1:cell + 1])
        if not (abs(fa) >= MARGIN and abs(fb) >= MARGIN):
            return
        while b - a > BAND:
            # at least BAND/2 in from each end, so a point next to an end closes the band
            c = min(b - 0.5 * BAND, max(a + 0.5 * BAND, a + fa * (b - a) / (fa - fb)))
            fc = math.log(rho_at(c) or 5e-324)
            if not abs(fc) >= MARGIN:  # c is too near the crossing to decide by (or NaN)
                break
            if fc > 0:  # Illinois: an end kept twice in a row counts half
                a, fa, fb, moved = c, fc, fb * 0.5 if moved > 0 else fb, 1
            else:
                b, fb, fa, moved = c, fc, fa * 0.5 if moved < 0 else fa, -1
        self.band = a, b

    def gamma(self, tol: float) -> float:
        """Smallest slack known to satisfy rho < 1, within tol."""
        if tol not in self.answers:
            (lo, hi), (a, b), at_hi, step = self.bracket, self.band, self.top, 0
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):  # tol below the float spacing at the bracket
                    break
                at_mid = None
                if step == self.steps:  # a step no request has taken yet
                    at_mid = self.known.get(mid)
                    if at_mid is None and a < mid < b:
                        at_mid = _solve_at(mid, self.r)
                    self.below |= (mid >= b if at_mid is None else at_mid.rho < 1.0) << step
                    self.steps += 1
                if self.below >> step & 1:
                    hi, at_hi = mid, at_mid
                else:
                    lo = mid
                step += 1
            if self.steps >= 3:
                self.known = {}
            self.answers[tol] = hi, at_hi
        return self.answers[tol][0]

    def solution(self, tol: float) -> GammaSolution:
        """The solution at ``gamma(tol)``, which was asked for; solved again
        only if no request kept it."""
        hi, at_hi = self.answers[tol]
        if at_hi is None:
            kept = (sol for g, sol in self.answers.values() if g == hi and sol is not None)
            at_hi = next(kept, None) or _solve_at(hi, self.r)
            self.answers[tol] = hi, at_hi
        return at_hi


_bisections: dict[int, _Bisection] = {}  # by tracked cycle length 2r


def min_gamma(r: float, tol: float = 1e-4) -> float:
    """Smallest admissible slack for tracked half-length r, to width tol.

    r must be one ``PhiParams`` takes.  A tol below the float spacing at
    the answer gives the answer to that spacing.  Each tracked length is
    bracketed, spot-checked and closed in on once per process, and a
    request at another tol goes on from the steps taken (``_Bisection``):
    the answer is bit for bit the one a bisection that solves at every
    midpoint gives, but only the midpoints within ``BAND`` of the crossing
    are solved.
    """
    two_r = _tracked_length(r)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if two_r not in _bisections:
        _bisections[two_r] = _Bisection(two_r / 2.0)
    return _bisections[two_r].gamma(tol)


def min_gamma_solution(r: float, tol: float = 1e-4) -> GammaSolution:
    """The solution of the characteristic equation at ``min_gamma(r, tol)``:
    the one the bisection kept, or one solve at the slack if no step did."""
    min_gamma(r, tol)  # through the module, so a wrapper on min_gamma sees the bisection
    return _bisections[int(round(2 * r))].solution(tol)


def colors_needed(delta: int, girth: int = 3) -> int:
    """Palette size ceil((2 + gamma_min) * (delta - 1)) + 1 for the girth class.

    No graph read from a file has a maximum degree above its vertex cap.
    """
    if not 2 <= delta <= MAX_HEADER_VERTICES:
        raise ValueError(f"delta {delta} outside 2..{MAX_HEADER_VERTICES}")
    g = min_gamma(girth_to_r(girth), tol=1e-6)
    return math.ceil((2.0 + g) * (delta - 1)) + 1


def cycle_prob_bounds(gamma: float, delta: int, k: int) -> dict[str, float]:
    """Bichromatic-membership bounds for a cycle of length 2k.

    ``pair_bound`` bounds the probability that two given consecutive edges
    lie on a bichromatic 2k-cycle; ``edge_bound`` multiplies by delta - 1
    to bound the probability for a single given edge.
    """
    if gamma <= 0 or delta < 2 or k < 3:
        raise ValueError("need gamma > 0, delta >= 2, k >= 3")
    q = 1.0 - math.exp(-1.0 / gamma)
    pair = q ** (2 * k - 3) / (gamma * (delta - 1))
    return {"pair_bound": pair, "edge_bound": (delta - 1) * pair}


# -- step-count series of the coloring loop ---------------------------------

def _mul_trunc(a: list[float], b: list[float], cap: int) -> list[float]:
    out = [0.0] * (cap + 1)
    for i, ai in enumerate(a[: cap + 1]):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b[: cap + 1 - i]):
            if bj != 0.0:
                out[i + j] += ai * bj
    return out


def q_coloring_series(gamma: float, r: float, n_max: int) -> list[float]:
    """Q_0..Q_n_max of the cycle-resampling recurrence.

    Q_0 = 1 and, for n >= 1, Q_n sums over tracked cycle lengths
    L = 2r, 2r+2, ... the weight (1/gamma) * q**(L-3) times the L-fold
    convolution of Q at n-1.  That sum is geometric, so
    Q_n = (q**(2r-3)/gamma) * F_(n-1) for F = P / (1 - q**2 * S), with
    P = Q**(2r) and S = Q**2 run online by ``power_step``: no truncation.
    A coefficient that leaves the float range raises ValueError.
    """
    if n_max > 400:
        raise ValueError("n_max exceeds the series cap of 400")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    params = PhiParams(gamma, r)
    q, base_len, qq = params.q, params.min_cycle_length, params.qq
    scale = q ** (base_len - 3) / gamma
    if not (qq < 1.0):
        raise ValueError(f"gamma={gamma} leaves q = 1 in floating point: phi has its pole at 0")
    series, power, square, quotient = [1.0], [1.0], [1.0], [1.0 / (1.0 - qq)]
    while len(series) <= n_max:
        series.append(scale * quotient[-1])
        if not math.isfinite(series[-1]):
            raise ValueError(f"Q_{len(series) - 1} = {series[-1]} is not finite at gamma={gamma}, r={r}")
        m = len(power)
        power.append(power_step(series, power, base_len) / m)
        square.append(power_step(series, square, 2) / m)
        tail = sum(square[k] * quotient[m - k] for k in range(1, m + 1))
        quotient.append((power[m] + qq * tail) / (1.0 - qq))
    return series


def _series_inverse(a: list[float], cap: int) -> list[float]:
    if a[0] == 0.0:
        raise ValueError("series with zero constant term has no inverse")
    inv = [0.0] * (cap + 1)
    inv[0] = 1.0 / a[0]
    for n in range(1, cap + 1):
        acc = sum(a[i] * inv[n - i] for i in range(1, min(n, len(a) - 1) + 1))
        inv[n] = -acc / a[0]
    return inv


def series_fixed_point(gamma: float, r: float, n_max: int) -> list[float]:
    """Independent series oracle: iterate W <- z * phi(W) on truncated series.

    Each iteration multiplies by z, so after n_max + 1 rounds the first
    n_max + 1 coefficients are exact fixed-point values.  Returns
    Q_0..Q_n_max (the constant coefficient restored to 1).
    """
    params = PhiParams(gamma, r)
    q, base_len = params.q, params.min_cycle_length
    scale = q ** (base_len - 3) / gamma
    cap = n_max
    w = [0.0] * (cap + 1)
    for _ in range(cap + 1):
        shifted = [wi for wi in w]
        shifted[0] += 1.0  # W + 1
        power = [1.0]
        for _ in range(base_len):
            power = _mul_trunc(power, shifted, cap)
        sq = _mul_trunc(shifted, shifted, cap)
        denom = [-q * q * s for s in sq]
        denom[0] += 1.0  # 1 - q^2 (W+1)^2
        phi_w = _mul_trunc(power, _series_inverse(denom, cap), cap)
        w = [0.0] + [scale * c for c in phi_w[:cap]]
    return [1.0] + w[1:]
