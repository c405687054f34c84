"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
lines; the shared coloring corpus (criteria 5 and 6) is built once per
session.
"""

import math
import random
from fractions import Fraction

import pytest

from lllcolor.bounds import BoundParams, q_closed_form, q_series
from lllcolor.dimacs import clause_system, formula_satisfied
from lllcolor.engine import m_algorithm
from lllcolor.gamma import (
    PhiParams,
    colors_needed,
    girth_to_r,
    min_gamma,
    phi,
    phi_prime,
    q_coloring_series,
    series_fixed_point,
    solve_tau,
)
from lllcolor.graphs import cycle_graph, petersen_graph, random_regular_graph
from lllcolor.verify import verify_acyclic
from lllcolor.witness import dice_experiment

from conftest import audited_col_alg, chain_3sat, progress_snapshots

RUNS_PER_GRAPH = 1000


def report(num: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def headline_palette(delta: int) -> int:
    return math.ceil(3.74 * (delta - 1)) + 1


@pytest.fixture(scope="module")
def coloring_corpus():
    """Audited runs shared by criteria 5 and 6."""
    graphs = {
        "hexagon": (cycle_graph(6), headline_palette(2)),
        "petersen": (petersen_graph(), headline_palette(3)),
        "regular5": (random_regular_graph(5, 50, seed=20250810), headline_palette(5)),
    }
    corpus = {}
    for name, (graph, k) in graphs.items():
        runs = []
        for seed in range(RUNS_PER_GRAPH):
            state, stats, audit = audited_col_alg(graph, k, seed)
            verdict = verify_acyclic(graph, k, state.colors) if stats.terminated else None
            runs.append((stats, audit, verdict))
        corpus[name] = (graph, k, runs)
    return corpus


def test_criterion_1_characteristic_equation_regression():
    sol = solve_tau(PhiParams(1.73095, 3.0))
    tau_err = abs(sol.tau - 0.1747094762)
    rho_err = abs(sol.rho - 0.9999789027)
    ok = tau_err <= 1e-8 and rho_err <= 1e-8
    assert report("1", ok, f"tau err {tau_err:.2e}, rho err {rho_err:.2e} (tol 1e-8)")


def test_criterion_2_girth_table():
    targets = {5: 1.731, 7: 1.326, 53: 0.494, 219: 0.323, 10: 1.051, 100: 0.402, 250: 0.313}
    errors = {}
    for girth, expected in targets.items():
        value = min_gamma(girth_to_r(girth), tol=1e-5)
        errors[girth] = abs(value - expected)
    worst = max(errors, key=errors.get)
    ok = all(err <= 1e-3 for err in errors.values())
    assert report("2", ok, f"worst girth {worst}: err {errors[worst]:.2e} (tol 1e-3)")


def test_criterion_3_headline_palette_bound():
    bad = []
    for delta in range(3, 31):
        k = colors_needed(delta, 3)
        target = math.ceil(3.731 * (delta - 1)) + 1
        if k != target or k > headline_palette(delta):
            bad.append(delta)
    ok = not bad
    assert report("3", ok, f"palette formula checked for maxdeg 3..30; mismatches: {bad}")


def test_criterion_4_exact_series_identity():
    mismatches = 0
    for delta in (2, 3, 4):
        for p in (Fraction(1, 8), Fraction(1, 5), Fraction(1, 3)):
            params = BoundParams(p, delta)
            series = q_series(params, 12)
            for n in range(13):
                if series[n] != q_closed_form(params, n):
                    mismatches += 1
    ok = mismatches == 0
    assert report("4", ok, f"recurrence == closed form on 3x3 grid, n <= 12; mismatches: {mismatches}")


def test_criterion_5_coloring_end_to_end(coloring_corpus):
    lines = []
    ok = True
    for name, (graph, k, runs) in coloring_corpus.items():
        terminated = sum(1 for stats, _, _ in runs if stats.terminated)
        verified = sum(1 for _, _, verdict in runs if verdict and verdict.proper and verdict.acyclic)
        ok &= terminated == RUNS_PER_GRAPH and verified == RUNS_PER_GRAPH
        lines.append(f"{name}(k={k}): {terminated}/{RUNS_PER_GRAPH} terminated, {verified} verified")
    assert report("5", ok, "; ".join(lines))


def test_criterion_6_invariant_suite(coloring_corpus):
    failures = []
    root_cycle_repeats = 0
    for name, (graph, k, runs) in coloring_corpus.items():
        margin = k - 2 * (graph.max_degree - 1)
        for stats, audit, _ in runs:
            if audit.local_violations:
                failures.append(f"{name}: local {audit.local_violations[:1]}")
            if audit.max_forbidden > 2 * (graph.max_degree - 1):
                failures.append(f"{name}: forbidden {audit.max_forbidden}")
            if audit.min_available is not None and audit.min_available < margin:
                failures.append(f"{name}: margin {audit.min_available} < {margin}")
            if audit.progress_violations:
                failures.append(f"{name}: progress {audit.progress_violations[:1]}")
            roots = [key for key, depth in stats.trace if depth == 0]
            if len(set(roots)) != len(roots):
                root_cycle_repeats += 1
    # engine-side progress snapshots on a resampling corpus
    engine_regressions = 0
    rng = random.Random(6)
    for trial in range(200):
        n_vars, clauses = chain_3sat(8, rng)
        system = clause_system(n_vars, clauses)
        for before, after in progress_snapshots(system, trial):
            if not after <= before:
                engine_regressions += 1
    ok = not failures and root_cycle_repeats == 0 and engine_regressions == 0
    assert report(
        "6",
        ok,
        f"{len(failures)} audit violations, {root_cycle_repeats} repeated root cycles, "
        f"{engine_regressions} engine progress regressions",
    )


def test_criterion_7_dice_oracle():
    trials = 10**6
    estimate = dice_experiment(trials, random.Random(20250810))
    exact = float(Fraction(91, 216) ** 2)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    z = (estimate - exact) / sigma
    ok = abs(z) <= 3
    assert report("7", ok, f"estimate {estimate:.6f} vs {exact:.6f}, z = {z:+.2f} (3 sigma)")


def test_criterion_8a_series_oracle_agreement():
    worst = 0.0
    for gamma in (1.74, 2.0):
        for r in (3.0, 4.0):
            rec = q_coloring_series(gamma, r, 8)
            fix = series_fixed_point(gamma, r, 8)
            worst = max(worst, max(abs(a - b) for a, b in zip(rec, fix)))
    ok = worst <= 1e-9
    assert report("8a", ok, f"recurrence vs fixed-point series, n <= 8: worst abs diff {worst:.2e} (tol 1e-9)")


def test_criterion_8b_growth_ratio():
    # Stated check: Q_(n+1)/Q_n within 2% of rho for n in [20, 40], at a
    # slack just above the minimal one.  The coefficients carry an
    # n^(-3/2) subexponential factor, so the plain ratio sits
    # rho*(1+1/n)^(-3/2) -- between 3.6% and 7% low on this window -- and
    # the check fails; the corrected-ratio form is exercised in
    # tests/test_gamma.py.
    gamma, r = 1.74, 3.0
    rho = solve_tau(PhiParams(gamma, r)).rho
    series = q_coloring_series(gamma, r, 41)
    deviations = [abs(series[n + 1] / series[n] - rho) / rho for n in range(20, 41)]
    worst = max(deviations)
    ok = worst <= 0.02
    assert report("8b", ok, f"plain ratio vs rho on n in [20,40]: worst rel dev {worst:.3f} (tol 0.02)")


def test_criterion_9_derivative_check():
    h = 1e-6
    worst = 0.0
    for gamma, r in [(1.73095, 3.0), (1.74, 3.0), (2.0, 4.0), (1.326, 4.0), (0.494, 27.0)]:
        params = PhiParams(gamma, r)
        radius = params.radius
        for i in range(1, 101):
            x = radius * 0.95 * i / 101
            fd = (phi(x + h, params) - phi(x - h, params)) / (2 * h)
            worst = max(worst, abs(phi_prime(x, params) - fd) / abs(fd))
    ok = worst <= 1e-5
    assert report("9", ok, f"closed-form derivative vs central differences: worst rel err {worst:.2e} (tol 1e-5)")


def test_criterion_10_tail_decay():
    rng = random.Random(31)
    steps = []
    for seed in range(10**4):
        n_vars, clauses = chain_3sat(8, rng)
        system = clause_system(n_vars, clauses)
        _, stats = m_algorithm(system, seed=seed)
        if not stats.terminated:
            steps = None
            break
        steps.append(stats.steps)
    ok = steps is not None
    detail = "a run failed to terminate"
    if ok:
        mean = sum(steps) / len(steps)
        top = max(steps)
        tail = [sum(1 for s in steps if s >= n) / len(steps) for n in range(top + 2)]
        nonincreasing = all(a >= b for a, b in zip(tail, tail[1:]))
        at_cutoff = tail[min(math.ceil(4 * mean), top + 1)]
        ok = nonincreasing and at_cutoff < 0.05
        detail = f"mean {mean:.2f}, Pr[steps >= 4*mean] = {at_cutoff:.4f} (< 0.05), tail nonincreasing: {nonincreasing}"
    assert report("10", ok, detail)
