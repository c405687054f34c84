"""DIMACS CNF parsing, clause-violation systems for the engine (a scope
and a test per clause, passed to the engine as two lists), and an
independent satisfaction check.

A header or clause token is ASCII ``[+-]?[0-9]+``, the package's token
rule (``lllcolor.token_error``), so a data line that is not ASCII or holds
``_`` is refused before any token is read.  The check reads a truth table
indexed by signed literal, through ``map``, and shares nothing with the
event tests.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, repeat
from operator import eq, not_

from . import token_error
from .engine import EventSystem, VariableSpace

MAX_HEADER_VARIABLES = 10**6  # a problem line may not ask for more variables


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Parse CNF text into (variable count, clauses of signed 1-based literals).

    A line starting with `%` ends the data: SATLIB's uf/uuf files end with
    `%` and a lone `0`, which is not a clause."""
    n_vars = declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if not line.isascii() or "_" in line:
            raise token_error(lineno, line)
        if line.startswith("p"):
            if n_vars is not None:
                raise ValueError(f"line {lineno}: second header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {lineno}: bad problem line {line!r}")
            try:
                n_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if n_vars < 0 or declared_clauses < 0:
                raise ValueError(f"line {lineno}: negative count in problem line {line!r}")
            if n_vars > MAX_HEADER_VARIABLES:
                raise ValueError(f"line {lineno}: {n_vars} variables exceed the cap of {MAX_HEADER_VARIABLES}")
            continue
        if n_vars is None:
            raise ValueError(f"line {lineno}: clause before the problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if lit == 0:
                if not current:
                    raise ValueError(f"line {lineno}: empty clause")
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > n_vars:
                    raise ValueError(f"line {lineno}: literal {lit} exceeds {n_vars} variables")
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if n_vars is None:
        raise ValueError("missing 'p cnf' problem line")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise ValueError(f"problem line declares {declared_clauses} clauses, found {len(clauses)}")
    return n_vars, clauses


def read_dimacs(path) -> tuple[int, list[tuple[int, ...]]]:
    with open(path) as fh:
        return parse_dimacs(fh.read())


def clause_system(n_vars: int, clauses: list[tuple[int, ...]]) -> EventSystem:
    """Event system whose j-th event is 'clause j is violated' over uniform booleans.

    A clause is violated iff every literal is false, with probability
    2^-w for its w variables, or never if a variable carries both signs
    (then it has more distinct literals than variables).  `p` is the
    largest of these: 2^-w for the narrowest clause that can be violated.

    Each clause is read once, into a dict from variable to its falsifying
    value (True/False, equal to 1/0): its sorted keys are the scope, and
    the event occurs iff the scoped values equal the one falsifying tuple,
    a test in C (``operator.eq`` bound to that tuple).  Clauses with the
    same falsifying tuple share one test, and a clause with a variable of
    both signs gets the shared never-true test.  The scopes and tests go to
    ``EventSystem.from_scopes`` as two lists; no ``Event`` is built.
    """
    scopes, tests, narrowest = [], [], None
    shared: dict[tuple, partial] = {}  # one test per falsifying tuple
    for clause in clauses:
        falsifying = {abs(lit) - 1: lit < 0 for lit in clause}
        scope = tuple(sorted(falsifying))
        if len(set(clause)) == len(scope):
            key = tuple(map(falsifying.__getitem__, scope))
            test = shared.get(key)
            if test is None:
                test = shared[key] = partial(eq, key)
            tests.append(test)
            if narrowest is None or len(scope) < narrowest:
                narrowest = len(scope)
        else:
            tests.append(_never)
        scopes.append(scope)
    p = 0.0 if narrowest is None else 2.0 ** -narrowest
    return EventSystem.from_scopes(VariableSpace.booleans(n_vars), scopes, tests, p)


def _never(values: tuple) -> bool:
    return False


def formula_satisfied(clauses: list[tuple[int, ...]], values) -> bool:
    """Whether every clause has a true literal under ``values``, bypassing
    the event tests.

    Literal v > 0 is true iff ``values[v - 1] == 1``, and -v iff it is not.
    ``table[lit]`` holds that truth for lit in 1..n and, by negative
    indexing, -n..-1, so each clause is ``any`` over a ``map`` and the
    formula one ``all``, in C.  A literal beyond the n values would read
    the wrong half of the table, so it is refused first with IndexError.
    """
    n = len(values)
    if max(map(abs, chain.from_iterable(clauses)), default=0) > n:
        lit = next(lit for lit in chain.from_iterable(clauses) if abs(lit) > n)
        raise IndexError(f"literal {lit} beyond the {n} values")
    true = list(map(eq, values, repeat(1)))
    table = [False, *true, *map(not_, reversed(true))]
    return all(map(any, map(map, repeat(table.__getitem__), clauses)))
