"""DIMACS CNF parsing and clause-violation systems for the engine."""

from __future__ import annotations

from functools import partial
from operator import eq

from .engine import Event, EventSystem, VariableSpace

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
    a test in C (``operator.eq`` bound to that tuple).  A clause with a
    variable of both signs gets the shared never-true predicate instead.
    """
    space = VariableSpace.booleans(n_vars)
    events = []
    narrowest = None
    for j, clause in enumerate(clauses):
        falsifying = {abs(lit) - 1: lit < 0 for lit in clause}
        scope = tuple(sorted(falsifying))
        if len(set(clause)) == len(scope):
            predicate = partial(eq, tuple(map(falsifying.__getitem__, scope)))
            if narrowest is None or len(scope) < narrowest:
                narrowest = len(scope)
        else:
            predicate = _never
        events.append(Event(j, scope, predicate))
    return EventSystem(space, events, p=0.0 if narrowest is None else 2.0 ** -narrowest)


def _never(values: tuple) -> bool:
    return False


def clause_satisfied(clause: tuple[int, ...], values) -> bool:
    return any((values[abs(lit) - 1] == 1) == (lit > 0) for lit in clause)


def formula_satisfied(clauses: list[tuple[int, ...]], values) -> bool:
    """Independent satisfaction check, bypassing the event predicates."""
    return all(clause_satisfied(c, values) for c in clauses)
