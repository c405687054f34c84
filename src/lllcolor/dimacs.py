"""DIMACS CNF parsing and clause-violation systems for the engine."""

from __future__ import annotations

from .engine import Event, EventSystem, VariableSpace

MAX_HEADER_VARIABLES = 10**6  # a problem line may not ask for more variables


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Parse CNF text into (variable count, clauses of signed 1-based literals)."""
    n_vars = declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {lineno}: bad problem line {line!r}")
            n_vars, declared_clauses = int(parts[2]), int(parts[3])
            if n_vars < 0 or declared_clauses < 0:
                raise ValueError(f"line {lineno}: negative count in problem line {line!r}")
            if n_vars > MAX_HEADER_VARIABLES:
                raise ValueError(f"line {lineno}: {n_vars} variables exceed the cap of {MAX_HEADER_VARIABLES}")
            continue
        if n_vars is None:
            raise ValueError(f"line {lineno}: clause before the problem line")
        for tok in line.split():
            lit = int(tok)
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
    """
    space = VariableSpace.booleans(n_vars)
    events = []
    narrowest = None
    for j, clause in enumerate(clauses):
        scope = tuple(sorted({abs(lit) - 1 for lit in clause}))
        if (narrowest is None or len(scope) < narrowest) and len(set(clause)) == len(scope):
            narrowest = len(scope)
        pos = {var: i for i, var in enumerate(scope)}
        checks = tuple((pos[abs(lit) - 1], 1 if lit > 0 else 0) for lit in clause)

        def violated(values, _checks=checks):
            return all(values[i] != satisfying for i, satisfying in _checks)

        events.append(Event(j, scope, violated))
    return EventSystem(space, events, p=0.0 if narrowest is None else 2.0 ** -narrowest)


def clause_satisfied(clause: tuple[int, ...], values) -> bool:
    return any((values[abs(lit) - 1] == 1) == (lit > 0) for lit in clause)


def formula_satisfied(clauses: list[tuple[int, ...]], values) -> bool:
    """Independent satisfaction check, bypassing the event predicates."""
    return all(clause_satisfied(c, values) for c in clauses)
