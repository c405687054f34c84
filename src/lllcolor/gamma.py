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
The bisection to a coarser tol is a prefix of the bisection to a finer
one, so each length keeps its bracket and one bit per step taken (the
side the midpoint fell on), and a finer tol replays those steps and
solves only at the steps past them.
"""

from __future__ import annotations

import math

from . import MAX_HEADER_VERTICES, _Frozen
from .series import power_step


class SolverError(RuntimeError):
    """Root bracketing or refinement failed."""


class PhiParams(_Frozen):
    """Slack gamma plus the half-length r of the shortest tracked cycle, and
    the constants of phi they fix, derived once: q, the tracked length 2r
    (``min_cycle_length``), ``qq`` = q^2, ``q2`` = 2q^2 and the pole
    ``radius`` = 1/q - 1, past which the series around 0 diverges.

    2r must be integral; half-integral r arises from even girth.
    """

    __slots__ = ("gamma", "r", "q", "min_cycle_length", "qq", "q2", "radius")

    def __init__(self, gamma: float, r: float = 3.0):
        if not (gamma > 0):
            raise ValueError("gamma must be positive")
        if not (r >= 3):
            raise ValueError("r must be >= 3")
        if abs(2 * r - round(2 * r)) > 1e-9:
            raise ValueError("2*r must be an integer")
        q = 1.0 - math.exp(-1.0 / gamma)
        _set_gamma(self, gamma)
        _set_r(self, r)
        _set_q(self, q)
        _set_min_cycle_length(self, int(round(2 * r)))
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


def _log_slopes(x: float, mlen: int, qq: float, q2: float) -> tuple[float, float]:
    """u = phi'/phi = 2r/(x+1) + 2 q^2 (x+1)/(1 - q^2 (x+1)^2) and its derivative u'."""
    xp = x + 1.0
    sq = xp**2
    denom = 1.0 - qq * sq
    u = mlen / xp + q2 * xp / denom
    u_prime = -mlen / sq + q2 * (denom + q2 * sq) / denom**2
    return u, u_prime


def phi_prime(x: float, params: PhiParams) -> float:
    """Closed-form derivative phi * u; phi checks the domain."""
    return phi(x, params) * _log_slopes(x, params.min_cycle_length, params.qq, params.q2)[0]


def _char(x: float, mlen: int, qq: float, q2: float) -> tuple[float, float]:
    """h(x) = 1 - x*u(x) and h'(x) = -u - x*u'; 1 at 0, -infinity at the pole."""
    u, u_prime = _log_slopes(x, mlen, qq, q2)
    return 1.0 - x * u, -u - x * u_prime


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
    The slopes read 2r, q^2 and 2q^2 from locals, as ``PhiParams`` derived
    them; rho is phi(tau)/tau.
    """
    radius, constants = params.radius, (params.min_cycle_length, params.qq, params.q2)
    lo, hi = 0.0, radius * (1.0 - 1e-9)
    while _char(hi, *constants)[0] >= 0:
        hi = radius - (radius - hi) * 0.5
        if radius - hi < 1e-15 * radius:
            raise SolverError("no sign change before the pole")
    x = 0.5 * (lo + hi)
    for _ in range(200):
        h, slope = _char(x, *constants)
        if h > 0:
            lo = x
        elif h < 0:
            hi = x
        if h == 0 or hi - lo <= 4 * math.ulp(x):
            return GammaSolution(params, x, phi(x, params) / x, abs(h))
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
    spot-checked once.  The bisection to a coarser tol is a prefix of the
    bisection to a finer one, so the steps taken are kept as one bit each
    (set when the midpoint's rho < 1 moved hi down): a request replays
    them from the bracket and solves only at steps no request took before.

    ``answers[tol]`` is ``(hi, solution at hi)``: one solution per answer,
    not one per step.  The solution is None when the step that last moved
    hi was taken by an earlier request; ``solution`` then takes it from an
    answer with the same hi, or solves there once.
    """

    __slots__ = ("r", "bracket", "top", "steps", "below", "known", "answers")

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
        rhos = [rho_at(lo + (hi - lo) * i / 8) for i in range(9)]
        if any(r2 > r1 + 1e-9 for r1, r2 in zip(rhos, rhos[1:])):
            raise SolverError("rho is not decreasing in gamma on the bracket")
        self.bracket, self.top = (lo, hi), self.known[hi]

    def gamma(self, tol: float) -> float:
        """Smallest slack known to satisfy rho < 1, within tol."""
        if tol not in self.answers:
            (lo, hi), at_hi, step = self.bracket, self.top, 0
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):  # tol below the float spacing at the bracket
                    break
                at_mid = None
                if step == self.steps:  # a step no request has taken yet
                    at_mid = self.known[mid] if mid in self.known else _solve_at(mid, self.r)
                    self.below |= (at_mid.rho < 1.0) << step
                    self.steps += 1
                if self.below >> step & 1:
                    hi, at_hi = mid, at_mid
                else:
                    lo = mid
                step += 1
            if self.steps >= 3:  # the spot-check's eighths can only be the first three midpoints
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

    A tol below the float spacing at the answer gives the answer to that
    spacing.  Each tracked length is bracketed and spot-checked once per
    process; a request at another tol reuses its bisection (``_Bisection``).
    """
    if not (r >= 3):
        raise ValueError("r must be >= 3")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    two_r = int(round(2 * r))
    if two_r not in _bisections:
        _bisections[two_r] = _Bisection(two_r / 2.0)
    return _bisections[two_r].gamma(tol)


def min_gamma_solution(r: float, tol: float = 1e-4) -> GammaSolution:
    """The solution of the characteristic equation at ``min_gamma(r, tol)``,
    as the bisection kept it, so a caller need not solve at the slack again."""
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
