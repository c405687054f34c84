import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lllcolor.dimacs import clause_system, formula_satisfied, parse_dimacs
from lllcolor.engine import m_algorithm

from conftest import chain_3sat, clause_satisfied, reference_clause_system


GOOD = """c sample instance
p cnf 3 2
1 -2 0
2 3 0
"""


def test_parse_basic():
    n_vars, clauses = parse_dimacs(GOOD)
    assert n_vars == 3
    assert clauses == [(1, -2), (2, 3)]


def test_parse_multiline_clause_and_trailing():
    n_vars, clauses = parse_dimacs("p cnf 4 2\n1 2\n3 0 -4 1 0\n")
    assert n_vars == 4
    assert clauses == [(1, 2, 3), (-4, 1)]


def format_dimacs(n_vars: int, clauses: list[tuple[int, ...]], per_line: int) -> str:
    """CNF text with a comment, the problem line, then the literal stream
    (each clause closed by 0) wrapped at per_line tokens, so clauses may
    span lines and lines may hold several clauses."""
    tokens = [str(lit) for clause in clauses for lit in (*clause, 0)]
    rows = [" ".join(tokens[i:i + per_line]) for i in range(0, len(tokens), per_line)]
    return "\n".join(["c generated", f"p cnf {n_vars} {len(clauses)}", *rows]) + "\n"


@st.composite
def formulas(draw):
    n_vars = draw(st.integers(1, 8))
    literal = st.integers(1, n_vars).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=5).map(tuple), max_size=12))
    return n_vars, clauses


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(formulas(), st.integers(1, 7))
def test_parse_roundtrip_generated(formula, per_line):
    assert parse_dimacs(format_dimacs(*formula, per_line)) == formula


def test_percent_line_ends_the_data():
    # SATLIB's uf/uuf files end with `%` and a lone `0`: the trailer is not
    # a clause, so the text parses as it does without it
    plain = "p cnf 3 2\n1 -2 3 0\n-1 2 0\n"
    assert parse_dimacs(plain + "%\n0\n") == parse_dimacs(plain) == (3, [(1, -2, 3), (-1, 2)])
    assert parse_dimacs(plain + "%\n0\n\n") == parse_dimacs(plain + "  %\n") == parse_dimacs(plain)


def test_clauses_after_a_percent_line_are_not_read():
    # what follows `%` is no longer data, so the declared count finds the
    # clauses before it only
    with pytest.raises(ValueError, match="declares 3 clauses, found 2$"):
        parse_dimacs("p cnf 3 3\n1 -2 3 0\n-1 2 0\n%\n2 3 0\n")
    with pytest.raises(ValueError, match="declares 2 clauses, found 1$"):
        parse_dimacs("p cnf 3 2\n1 -2 3\n%\n-1 2 0\n")
    with pytest.raises(ValueError, match="missing 'p cnf' problem line"):
        parse_dimacs("%\np cnf 3 1\n1 0\n")


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n5 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 3\n1 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p dnf 2 1\n1 0\n")
    for header in ("p cnf -2 0\n", "p cnf 2 -1\n"):
        with pytest.raises(ValueError, match="negative count"):
            parse_dimacs(header)
    # int() alone would read `1_0` as 10 and take non-ASCII digits and
    # separators; a DIMACS token is ASCII [+-]?[0-9]+
    for text, lineno in [
        ("p cnf 12 1\n1_0 0\n", 2),
        ("p cnf 1_2 1\n1 0\n", 1),
        ("p cnf 3 1\n\u0663 0\n", 2),
        ("p cnf \u0663 1\n1 0\n", 1),
        ("p cnf 3 1\n1 -2 0\n-\uff13 0\n", 3),
        ("p cnf 3 1\n1\u00a02 0\n", 2),
    ]:
        with pytest.raises(ValueError, match=f"^line {lineno}: .* is not an ASCII integer$"):
            parse_dimacs(text)


def test_clause_system_structure():
    n_vars, clauses = chain_3sat(8, random.Random(3))
    system = clause_system(n_vars, clauses)
    assert system.m == 8
    assert system.delta == 3  # one shared variable with each of <= 2 neighbours
    assert system.p == 1 / 8
    # neighbourhoods are symmetric and looped
    for j, ns in enumerate(system.neighborhoods):
        assert j in ns
        for k in ns:
            assert j in system.neighborhoods[k]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(formulas())
def test_clause_events_follow_their_truth_tables(formula):
    # each event occurs exactly when every literal of its clause is false,
    # on all 2^w assignments of its scope, and its scope, p and the
    # neighbourhoods are those of a closure per clause (repeated literals
    # and variables of both signs included)
    n_vars, clauses = formula
    system = clause_system(n_vars, clauses)
    scopes, predicates, p, neighborhoods = reference_clause_system(n_vars, clauses)
    assert system.scopes == [ev.scope for ev in system.events] == scopes
    assert system.p == p and system.neighborhoods == neighborhoods
    for ev, clause, predicate in zip(system.events, clauses, predicates):
        for bits in itertools.product((0, 1), repeat=len(ev.scope)):
            values = [None] * n_vars
            for var, bit in zip(ev.scope, bits):
                values[var] = bit
            every_literal_false = all(values[abs(lit) - 1] == (lit < 0) for lit in clause)
            assert ev.occurs(values) == system.tests[ev.id](bits) == predicate(bits) == every_literal_false, (clause, bits)


def test_system_memory_per_clause():
    # the 4,000-clause chain: scopes, tests and neighbourhoods are held in
    # about 305 B per clause (607 B with an Event and a bound test per
    # clause).  The peak, set while the neighbourhoods are derived from the
    # variables' event lists, is about 554 B per clause (873 B with an
    # Event per clause); its bound allows 15% over that
    n_vars, clauses = chain_3sat(4000, random.Random(4000))
    tracemalloc.start()
    try:
        system = clause_system(n_vars, clauses)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / system.m < 700
    assert peak / system.m < 640


def test_tautological_clause_probability():
    system = clause_system(1, [(1, -1)])
    assert system.p == 0.0
    values, stats = m_algorithm(system, seed=0)
    assert stats.steps == 0 and stats.terminated


def test_formula_satisfied():
    clauses = [(1, -2), (2, 3)]
    assert formula_satisfied(clauses, [1, 1, 0])
    assert formula_satisfied(clauses, [1, 0, 1])
    assert not formula_satisfied(clauses, [0, 1, 0])
    assert formula_satisfied([], [0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_formula_satisfied_matches_the_clause_oracle(data):
    # the truth-table check answers as the per-clause oracle does on any
    # values: a value equal to 1 (1, 1.0, True) makes its variable true, any
    # other (0, 2, 0.5, None, "1") false; empty clauses are never satisfied
    values = data.draw(st.lists(st.sampled_from([0, 1, 2, -1, 0.5, 1.0, 0.0, True, False, None, "1"]), max_size=8))
    clauses = []
    if values:
        literal = st.integers(1, len(values)).flatmap(lambda v: st.sampled_from((v, -v)))
        clauses = data.draw(st.lists(st.lists(literal, max_size=5).map(tuple), max_size=10))
    expected = all(clause_satisfied(c, values) for c in clauses)
    assert formula_satisfied(clauses, values) == expected


def test_formula_satisfied_refuses_a_literal_beyond_the_values():
    # the oracle raises on such a literal when it reaches it; the check
    # refuses one anywhere, before it reads the table
    for clauses in ([(1, 3)], [(-3,)], [(-3, 1)]):
        with pytest.raises(IndexError):
            all(clause_satisfied(c, [0, 0]) for c in clauses)
    for clauses in ([(1, 3)], [(-3,)], [(1,), (2, -4)], [(2,), (1, 9)]):
        with pytest.raises(IndexError, match="beyond the 2 values"):
            formula_satisfied(clauses, [1, 0])


def test_end_to_end_solve():
    n_vars, clauses = parse_dimacs(GOOD)
    system = clause_system(n_vars, clauses)
    values, stats = m_algorithm(system, seed=12)
    assert stats.terminated
    assert formula_satisfied(clauses, values)


def fraction_p(clauses):
    # the exact largest violation probability, one Fraction per clause
    best = Fraction(0)
    for clause in clauses:
        wants = {}
        if all(wants.setdefault(abs(lit), lit > 0) == (lit > 0) for lit in clause):
            best = max(best, Fraction(1, 2 ** len(wants)))
    return float(best)


@pytest.mark.parametrize(
    "clauses",
    [
        [],
        [(1, -1)],
        [(1, -1), (2, 3, -2)],
        [(1, 2, 3), (-4, 5), (1, -2, 3, 4)],
        [(1, 1, 2), (2, -2, 3), (-3, -3, -3)],
        [(3, -3), (1, 2, 4, 5), (1, 2, 4, -1)],
        [tuple(range(1, 1076)), tuple(range(1, 1075)), (1, -1)],
        [tuple(range(1, 1076))],
    ],
    ids=["empty", "tautology", "tautologies", "mixed", "repeats", "narrow-tautology", "subnormal", "underflow"],
)
def test_system_p_equals_the_exact_largest_probability(clauses):
    n_vars = max((abs(lit) for c in clauses for lit in c), default=0)
    assert clause_system(n_vars, clauses).p == fraction_p(clauses)
