import math
from types import SimpleNamespace

import pytest

from conftest import _reference_char, reference_min_gamma, reference_solve_tau
from lllcolor import gamma as gamma_mod
from lllcolor.gamma import (
    MAX_TRACKED_LENGTH,
    PhiParams,
    SolverError,
    colors_needed,
    cycle_prob_bounds,
    girth_to_r,
    min_gamma,
    min_gamma_solution,
    phi,
    phi_prime,
    q_coloring_series,
    series_fixed_point,
    solve_tau,
)
from lllcolor.graphs import MAX_HEADER_VERTICES

ANCHOR = PhiParams(1.73095, 3.0)


# -- phi and its derivative -----------------------------------------------------

def test_phi_at_zero():
    for gamma, r in [(1.73095, 3.0), (2.0, 4.0), (0.7, 5.5)]:
        params = PhiParams(gamma, r)
        q = params.q
        expected = (1 / gamma) * q ** (params.min_cycle_length - 3) / (1 - q * q)
        assert phi(0.0, params) == pytest.approx(expected, rel=1e-14)


def test_phi_anchor_ratio():
    # at the solved slack the ratio phi(tau)/tau equals the growth rate
    tau = 0.1747094762
    assert phi(tau, ANCHOR) / tau == pytest.approx(0.9999789027, abs=1e-8)


def test_phi_diverges_at_pole():
    params = ANCHOR
    near = params.radius * (1 - 1e-12)
    assert phi(near, params) > 1e9
    with pytest.raises(ValueError):
        phi(params.radius, params)
    with pytest.raises(ValueError):
        phi(-0.1, params)


def test_phi_prime_at_zero_closed_form():
    for gamma, r in [(1.74, 3.0), (0.9, 4.0)]:
        params = PhiParams(gamma, r)
        q = params.q
        expected = phi(0.0, params) * (params.min_cycle_length + 2 * q * q / (1 - q * q))
        assert phi_prime(0.0, params) == pytest.approx(expected, rel=1e-13)


def test_phi_prime_matches_finite_differences():
    h = 1e-6
    for gamma, r in [(1.73095, 3.0), (2.0, 4.0), (0.5, 27.0)]:
        params = PhiParams(gamma, r)
        radius = params.radius
        for i in range(1, 100):
            x = radius * 0.95 * i / 100
            fd = (phi(x + h, params) - phi(x - h, params)) / (2 * h)
            assert phi_prime(x, params) == pytest.approx(fd, rel=1e-5)


def test_phi_prime_equals_rho_at_tau():
    sol = solve_tau(ANCHOR)
    assert phi_prime(sol.tau, ANCHOR) == pytest.approx(sol.rho, rel=1e-9)
    assert phi(sol.tau, ANCHOR) / sol.tau == pytest.approx(sol.rho, rel=1e-15)


def test_phi_prime_refuses_x_outside_its_domain():
    for params in (ANCHOR, PhiParams(0.5, 27.0)):
        for x in (-1e-300, -0.1, params.radius, 2.0 * params.radius, math.inf, math.nan):
            with pytest.raises(ValueError, match="outside"):
                phi_prime(x, params)


def test_phi_params_derives_its_constants_once():
    # the fields hold phi's constants, each from one float expression, so
    # every reader sees the bits the solver and the series read
    for gamma, r in [(1.73095, 3.0), (0.125, 348.5), (8.0, 4.5)]:
        params = PhiParams(gamma, r)
        q = 1.0 - math.exp(-1.0 / gamma)
        assert (params.q, params.min_cycle_length, params.qq, params.q2, params.radius) == (
            q, int(round(2 * r)), q * q, 2.0 * q * q, 1.0 / q - 1.0)
    # past gamma ~ 1e16, q underflows to 0: phi vanishes and has no pole
    flat = PhiParams(1e17, 3.0)
    assert (flat.q, flat.radius, phi(0.0, flat)) == (0.0, math.inf, 0.0)
    assert q_coloring_series(1e17, 3.0, 3) == [1.0, 0.0, 0.0, 0.0]


def test_phi_params_validation():
    with pytest.raises(ValueError):
        PhiParams(0.0, 3.0)
    with pytest.raises(ValueError):
        PhiParams(math.nan, 3.0)
    # the minimal slack refuses each half-length PhiParams refuses, rather
    # than answering for a rounded one (3.2 read as 3) or failing otherwise
    # (OverflowError at inf, SolverError at 1e300)
    too_long = MAX_TRACKED_LENGTH / 2 + 0.5
    for r in (2.5, 3.25, math.nan, 3.2, math.inf, 1e300, too_long, -math.inf):
        for refuse in (lambda r: PhiParams(1.0, r), min_gamma, min_gamma_solution):
            with pytest.raises(ValueError, match="r must"):
                refuse(r)
    assert PhiParams(1.0, too_long - 0.5).min_cycle_length == MAX_TRACKED_LENGTH


def test_nan_fails_range_checks():
    # NaN compares false both ways, so every range check is written to fail on it
    with pytest.raises(ValueError):
        min_gamma(3.0, tol=math.nan)
    with pytest.raises(ValueError):
        min_gamma(3.0, tol=math.inf)
    with pytest.raises(ValueError):
        min_gamma(math.nan)


# -- characteristic equation -----------------------------------------------------

def test_solve_tau_anchor():
    sol = solve_tau(ANCHOR)
    assert sol.tau == pytest.approx(0.1747094762, abs=1e-8)
    assert sol.rho == pytest.approx(0.9999789027, abs=1e-8)
    assert sol.residual <= 1e-12


def test_solve_tau_regression_girth7_row():
    # slack 1.326 sits just above the minimal slack for r=4; the growth
    # rate solved here is frozen as a regression value
    sol = solve_tau(PhiParams(1.326, 4.0))
    assert 0.99 < sol.rho < 1.0
    assert sol.rho == pytest.approx(0.9996458765, abs=1e-6)
    assert sol.tau == pytest.approx(0.1235162091, abs=1e-6)


def test_solve_tau_residual_scaled_over_parameter_sweep():
    # the closed bracket, not the size of |h|, certifies the root: at
    # (0.125, 348.5) |h(tau)| is 1.05e-12 although h changes sign next to tau
    sweep = [(gamma, r) for gamma in (0.2, 0.5, 1.0, 1.73095, 3.0, 8.0) for r in (3.0, 4.5, 27.0)]
    for gamma, r in sweep + [(0.125, 348.5)]:
        params = PhiParams(gamma, r)
        sol = solve_tau(params)
        assert 0 < sol.tau < params.radius
        assert sol.residual == abs(_reference_char(sol.tau, params)[0])
        ulp = math.ulp(sol.tau)
        left = [_reference_char(sol.tau - k * ulp, params)[0] for k in range(5)]
        right = [_reference_char(sol.tau + k * ulp, params)[0] for k in range(5)]
        assert max(left) >= 0 >= min(right), (gamma, r)


def test_characteristic_sign_changes_once():
    # 10^4-point scan: the characteristic function crosses zero exactly once
    for gamma, r in [(1.73095, 3.0), (1.74, 3.0), (2.0, 4.0), (0.494, 27.0)]:
        params = PhiParams(gamma, r)
        xs = [params.radius * (1 - 1e-9) * i / 10**4 for i in range(1, 10**4)]
        signs = [_reference_char(x, params)[0] > 0 for x in xs]
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1


def test_solve_tau_matches_its_oracle_bit_for_bit():
    # constants read once per solve, not at every x, change no float
    for gamma in [0.1 * 1.25**i for i in range(20)] + [1.326, 1.73095]:
        for r in (3.0, 3.5, 4.0, 6.5, 13.5, 27.0, 60.5, 120.5, 348.5):
            params = PhiParams(gamma, r)
            sol, ref = solve_tau(params), reference_solve_tau(params)
            assert (sol.tau.hex(), sol.rho.hex(), sol.residual.hex()) == (
                ref.tau.hex(), ref.rho.hex(), ref.residual.hex()), (gamma, r)


@pytest.mark.parametrize("h, message", [(1.0, "no sign change"), (math.nan, "did not close in 200 steps")])
def test_solve_tau_refuses_a_bracket_that_never_closes(h, message):
    # crafted constants q^2 = 0 and 2r = 1 - h give h(x) = 1 - x*(1-h)/(x+1):
    # 1 everywhere for h = 1, so no sign change, and NaN everywhere for h = NaN,
    # so no step moves the bracket
    params = SimpleNamespace(radius=ANCHOR.radius, min_cycle_length=1.0 - h, qq=0.0, q2=0.0)
    with pytest.raises(SolverError, match=message):
        solve_tau(params)


@pytest.mark.parametrize("g, message", [(0.01, "rounds to 0"), (0.02, "rounds to 0"), (0.03, "rounds to 0"),
                                        (0.035, "no sign change")])
def test_solve_tau_refuses_a_pole_term_that_rounds_to_zero(g, message):
    # with q within about 1e-14 of 1, 1 - q^2 (x+1)^2 rounds to 0 in the
    # bracket search at 2r = 6, which must give the solver's own error and
    # not ZeroDivisionError; at 0.035 the search still ends at the pole
    with pytest.raises(SolverError, match=message):
        solve_tau(PhiParams(g, 3.0))


def test_rho_decreasing_in_gamma():
    for r in (3.0, 4.0, 5.5):
        rhos = [solve_tau(PhiParams(1.0 + 0.1 * i, r)).rho for i in range(21)]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))


# -- minimal slack ----------------------------------------------------------------

def test_min_gamma_small_r():
    assert min_gamma(3.0) == pytest.approx(1.731, abs=1e-3)
    assert min_gamma(4.0) == pytest.approx(1.326, abs=1e-3)


def test_min_gamma_nonincreasing_in_r():
    values = [min_gamma(r / 2) for r in range(6, 25)]  # r = 3, 3.5, ..., 12
    values += [min_gamma(27.0), min_gamma(110.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_min_gamma_every_girth():
    # girths up to the 10^6 cap solve (every one to 2000, then samples), and
    # the slack does not grow with the girth beyond the bisection width
    girths = list(range(3, 2001)) + [10**4, 10**5, 10**6]
    values = [min_gamma(girth_to_r(g), 1e-6) for g in girths]
    assert all(0 < v < 2 for v in values)
    assert all(b <= a + 1e-6 for a, b in zip(values, values[1:]))


def test_min_gamma_solution_is_admissible():
    g = min_gamma(3.0)
    assert solve_tau(PhiParams(g, 3.0)).rho < 1.0
    assert solve_tau(PhiParams(g - 2e-4, 3.0)).rho >= 1.0


TOLS = (1, 1e-4, 1e-5, 1e-6, 1e-300)


@pytest.mark.parametrize("order", [
    sorted(TOLS),
    sorted(TOLS, reverse=True),
    [1e-4, 1e-6, 1e-4, 1e-300, 1e-5, 1e-6, 1, 1e-300, 1],
], ids=["ascending", "descending", "repeated"])
def test_min_gamma_matches_its_oracle_in_any_tol_order(monkeypatch, solve_tau_calls, order):
    # each tracked length keeps one bisection for every tol: whatever the
    # order of the requests, each answer is the one a fresh bisection gives,
    # and no request solves at a point another one solved, so all of them
    # together cost what the finest one costs alone
    for tol in order:
        for two_r in range(6, 242):
            assert min_gamma(two_r / 2, tol).hex() == reference_min_gamma(two_r, tol).hex(), (two_r, tol)
    # the state per length stays a few numbers: no trajectory, no rho
    # values, no solutions and no answers by tol
    assert all(run.__slots__ == ("r", "bracket", "band", "steps", "below") for run in gamma_mod._bisections.values())
    in_order, solve_tau_calls[0] = solve_tau_calls[0], 0
    monkeypatch.setattr(gamma_mod, "_bisections", {})
    for two_r in range(6, 242):
        min_gamma(two_r / 2, min(order))
    assert solve_tau_calls == [in_order]


@pytest.mark.parametrize("two_r", [401, 4001, 20001, 200001, 1000001])
def test_min_gamma_matches_its_oracle_at_long_lengths(solve_tau_calls, two_r):
    # up to the girth cap rho falls steeply through 1 (at 2r = 10^6+1 by
    # about 10^-3 across the band) and is 0.0 at the spot-check's eighths
    # past the crossing, where the crossing search reads log rho as that of
    # 5e-324: each step the band decides must still be the one the solving
    # bisection takes
    for tol in (1e-4, 1e-6, 1e-300):
        assert min_gamma(two_r / 2, tol).hex() == reference_min_gamma(two_r, tol).hex(), tol
    run = gamma_mod._bisections[two_r]
    assert run.band[1] - run.band[0] <= gamma_mod.BAND


@pytest.mark.parametrize("order, total", [(sorted(TOLS, reverse=True), 2517), (sorted(TOLS), 2517)],
                         ids=["coarse-first", "fine-first"])
def test_min_gamma_solution_is_the_solve_at_the_slack(solve_tau_calls, order, total):
    # the solution handed back is solve_tau at min_gamma's answer; a call
    # whose last step that moved hi solved there hands that solution back,
    # and any other call (its hi fixed by monotonicity outside the crossing
    # band, by a step an earlier call took, or by no step at all) solves
    # once more.  No solution is kept between calls, so asking for every
    # tol at every length costs the same in either order; the bisection
    # that solved at every midpoint took 3,179 and 3,328 solves in all
    for tol in order:
        for two_r in range(6, 60):
            calls = solve_tau_calls[0]
            gm = min_gamma(two_r / 2, tol)
            bisected = solve_tau_calls[0] - calls
            sol = min_gamma_solution(two_r / 2, tol)
            assert solve_tau_calls[0] - calls - bisected <= 1
            assert sol.params.gamma == gm and sol.params.r == two_r / 2
            again = solve_tau(PhiParams(gm, two_r / 2))  # the unwrapped solver: not counted
            assert (sol.tau, sol.rho) == (again.tau, again.rho)
    assert solve_tau_calls == [total]


@pytest.mark.parametrize("rho, message", [
    (lambda g: 0.5, "from below"),
    (lambda g: 2.0, "from above"),
    (lambda g: 2.0 if g <= 0.25 else 0.5 if g < 0.5 or g == 1.0 else 0.9, "not decreasing"),
], ids=["below", "above", "spot-check"])
def test_min_gamma_refuses_what_it_cannot_bracket(monkeypatch, rho, message):
    monkeypatch.setattr(gamma_mod, "_bisections", {})
    monkeypatch.setattr(gamma_mod, "solve_tau", lambda params: SimpleNamespace(rho=rho(params.gamma)))
    for _ in range(2):  # a failed length is not kept
        with pytest.raises(SolverError, match=message):
            min_gamma(3.0)
    assert not gamma_mod._bisections


def test_girth_to_r():
    assert girth_to_r(3) == 3.0
    assert girth_to_r(4) == 3.0
    assert girth_to_r(5) == 3.0
    assert girth_to_r(7) == 4.0
    assert girth_to_r(10) == 5.5
    assert girth_to_r(219) == 110.0
    with pytest.raises(ValueError):
        girth_to_r(2)
    assert girth_to_r(10**6) == 500000.5
    with pytest.raises(ValueError):
        girth_to_r(10**6 + 1)


def test_min_gamma_for_girth():
    assert min_gamma(girth_to_r(5)) == pytest.approx(1.731, abs=1e-3)
    assert min_gamma(girth_to_r(4)) == min_gamma(girth_to_r(5))
    assert min_gamma(girth_to_r(7)) == pytest.approx(1.326, abs=1e-3)


def test_colors_needed():
    assert colors_needed(11, 3) == 39
    assert colors_needed(11, 53) == 26
    for girth in (3, 5, 10):
        assert colors_needed(2, girth) >= 4
    with pytest.raises(ValueError):
        colors_needed(1, 3)
    assert colors_needed(MAX_HEADER_VERTICES, 3) > 2 * MAX_HEADER_VERTICES
    with pytest.raises(ValueError):
        colors_needed(MAX_HEADER_VERTICES + 1, 3)


# -- membership probability bounds -------------------------------------------------

def test_cycle_prob_bounds_identity():
    for gamma in (0.5, 1.73095, 3.0):
        for delta in (2, 5, 11):
            for k in (3, 4, 7):
                bounds = cycle_prob_bounds(gamma, delta, k)
                assert bounds["edge_bound"] == pytest.approx((delta - 1) * bounds["pair_bound"], rel=1e-15)


def test_cycle_prob_bounds_values_and_limit():
    q = 1 - math.exp(-1 / 1.73095)
    bounds = cycle_prob_bounds(1.73095, 2, 3)
    assert bounds["edge_bound"] == pytest.approx(q**3 / 1.73095, rel=1e-12)
    vanish = cycle_prob_bounds(1e7, 5, 3)
    assert vanish["edge_bound"] < 1e-18


def test_margin_inequality_chain():
    # 1-x > exp(-x/(1-x)) on a dense grid, and its palette consequence
    # (1 - 1/(g(d-1)+1))^(d-1) >= exp(-1/g)
    for i in range(1, 1000):
        x = i / 1000
        assert 1 - x > math.exp(-x / (1 - x))
    for gamma in (0.5, 1.0, 1.73095, 3.0):
        for delta in (2, 3, 5, 11):
            lhs = (1 - 1 / (gamma * (delta - 1) + 1)) ** (delta - 1)
            assert lhs >= math.exp(-1 / gamma)


# -- coloring step-count series ------------------------------------------------------

def test_q_coloring_base_cases():
    assert q_coloring_series(1.74, 3.0, 0)[0] == 1.0
    params = PhiParams(1.74, 3.0)
    assert q_coloring_series(1.74, 3.0, 1)[1] == pytest.approx(phi(0.0, params), rel=1e-10)
    with pytest.raises(ValueError):
        q_coloring_series(1.74, 3.0, -1)
    with pytest.raises(ValueError):
        q_coloring_series(1.74, 3.0, 401)
    with pytest.raises(ValueError):
        q_coloring_series(0.02, 3.0, 4)  # q rounds to 1
    with pytest.raises(ValueError, match="n_max"):
        q_coloring_series(1.74, 3.0, -5)


def test_q_coloring_series_refuses_non_finite_coefficients():
    # at gamma = 0.1 the coefficients pass the float range at n = 32
    assert all(math.isfinite(x) for x in q_coloring_series(0.1, 3.0, 31))
    with pytest.raises(ValueError, match="Q_32"):
        q_coloring_series(0.1, 3.0, 40)


def test_series_oracle_agreement_small():
    rec = q_coloring_series(1.74, 3.0, 8)
    fix = series_fixed_point(1.74, 3.0, 8)
    for a, b in zip(rec, fix):
        assert abs(a - b) <= 1e-9


def test_series_matches_fixed_point_oracle():
    # the online quotient recurrence sums every cycle length exactly, so it
    # meets the fixed-point iteration to rounding; at r = 27 and gamma = 3
    # most coefficients underflow to 0 on both sides
    zeros = 0
    for gamma, r in [(1.74, 3.0), (1.74, 3.5), (0.9, 13.5), (2.5, 4.0), (3.0, 27.0)]:
        rec = q_coloring_series(gamma, r, 60)
        fix = series_fixed_point(gamma, r, 60)
        assert len(rec) == len(fix) == 61
        for a, b in zip(rec, fix):
            assert a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (gamma, r, a, b)
        zeros += rec.count(0.0)
    assert zeros


def test_growth_rate_with_subexponential_correction():
    # coefficients behave like rho^n * n^(-3/2): the ratio times
    # (1+1/n)^(3/2) settles on rho to a fraction of a percent well before
    # the plain ratio does
    gamma, r = 1.74, 3.0
    rho = solve_tau(PhiParams(gamma, r)).rho
    series = q_coloring_series(gamma, r, 41)
    for n in range(20, 41):
        corrected = (series[n + 1] / series[n]) * (1 + 1 / n) ** 1.5
        assert corrected == pytest.approx(rho, rel=5e-3)
