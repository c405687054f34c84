"""Shared builders: small event systems, graphs, brute-force oracles, and
the observers that audit production runs from outside."""

from __future__ import annotations

import contextlib
import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from lllcolor import MAX_HEADER_VERTICES, coloring, engine, gamma, verify
from lllcolor.bounds import BoundParams
from lllcolor.coloring import (
    ColorRunStats,
    ColorState,
    all_bichromatic_cycles,
    find_bichromatic_cycle,
    greedy_4acyclic,
)
from lllcolor.engine import (
    ContractError,
    Event,
    EventSystem,
    VariableSpace,
)
from lllcolor.driver import RunStats, default_step_limit
from lllcolor.gamma import GammaSolution, PhiParams, SolverError, phi
from lllcolor.graphs import Graph, cycle_key
from lllcolor.verify import VerifyResult
from lllcolor.witness import build_witness_forest, check_feasible


def chain_3sat(n_clauses: int, rng: random.Random) -> tuple[int, list[tuple[int, ...]]]:
    """3-SAT chain: clause i reads variables 2i, 2i+1, 2i+2 (0-based), so it
    shares one variable with each of its at most two neighbours and the
    dependency neighbourhood size is at most 3; every clause is violated
    with probability 1/8 under fresh uniform bits."""
    clauses = []
    for i in range(n_clauses):
        clause = tuple((v + 1) * (1 if rng.random() < 0.5 else -1) for v in (2 * i, 2 * i + 1, 2 * i + 2))
        clauses.append(clause)
    return 2 * n_clauses + 1, clauses


def clause_satisfied(clause: tuple[int, ...], values) -> bool:
    """The satisfaction oracle of one clause, literal by literal: v > 0 is
    true iff ``values[v - 1] == 1``, and -v iff it is not."""
    return any((values[abs(lit) - 1] == 1) == (lit > 0) for lit in clause)


def reference_clause_system(n_vars: int, clauses: list[tuple[int, ...]]) -> tuple[list, list, float, list]:
    """``clause_system``'s scopes, predicates, p and neighbourhoods, built
    with a position dict and a closure per clause and a set union per
    variable: ``(scopes, predicates, p, neighborhoods)``."""
    scopes, predicates, narrowest = [], [], None
    for clause in clauses:
        scope = tuple(sorted({abs(lit) - 1 for lit in clause}))
        if (narrowest is None or len(scope) < narrowest) and len(set(clause)) == len(scope):
            narrowest = len(scope)
        pos = {var: i for i, var in enumerate(scope)}
        checks = tuple((pos[abs(lit) - 1], 1 if lit > 0 else 0) for lit in clause)

        def violated(values, _checks=checks):
            return all(values[i] != satisfying for i, satisfying in _checks)

        scopes.append(scope)
        predicates.append(violated)
    by_var: dict[int, set[int]] = {}
    for j, scope in enumerate(scopes):
        for i in scope:
            by_var.setdefault(i, set()).add(j)
    neighborhoods = [tuple(sorted(set().union(*(by_var[i] for i in scope)))) for scope in scopes]
    return scopes, predicates, 0.0 if narrowest is None else 2.0 ** -narrowest, neighborhoods


def single_event_system(prob_num: int = 1, prob_den: int = 2) -> EventSystem:
    """One event over one uniform variable on {0..den-1}: value < num."""
    space = VariableSpace([range(prob_den)])
    event = Event(0, (0,), lambda vals: vals[0] < prob_num)
    return EventSystem(space, [event], p=prob_num / prob_den)


def random_truth_table_system(rng: random.Random, n_vars: int = 6, n_events: int = 5) -> EventSystem:
    """Random scopes over booleans with random truth-table predicates."""
    import itertools

    space = VariableSpace.booleans(n_vars)
    events = []
    for j in range(n_events):
        scope = tuple(sorted(rng.sample(range(n_vars), rng.randint(1, 3))))
        table = {combo: rng.random() < 0.3 for combo in itertools.product((0, 1), repeat=len(scope))}
        events.append(Event(j, scope, table.__getitem__))
    return EventSystem(space, events)


def reference_sample(space: VariableSpace, i: int, rng: random.Random):
    """One draw of variable i through ``randrange``, or ``choices`` for a
    weighted one: the oracle for ``VariableSpace.draw``, which writes the
    unweighted draw as its own rejection loop on ``getrandbits``."""
    dom, w = space.domains[i], space.weights[i]
    if w is None:
        return dom[rng.randrange(len(dom))]
    return rng.choices(dom, weights=w, k=1)[0]


def reference_m_algorithm(system: EventSystem, seed: int, step_limit: int | None = None) -> tuple[list, RunStats]:
    """The resampling loop by linear scans: the oracle for ``m_algorithm``.

    Every root choice scans all events from id 0 with ``first_occurring``
    and every child choice scans the stack top's neighbourhood, so nothing
    is cached between choices.  Every draw, the first sample included, is
    one ``reference_sample`` per variable, not the engine's draws.  Must
    give the same values and RunStats as ``m_algorithm`` for every system,
    seed and limit.
    """
    rng = random.Random(seed)
    limit = default_step_limit(system.m) if step_limit is None else step_limit

    def resample(j: int) -> None:
        for i in system.events[j].scope:
            values[i] = reference_sample(system.space, i, rng)

    values = [reference_sample(system.space, i, rng) for i in range(system.space.count)]
    steps = 0
    phases = 0
    trace: list[tuple[int, int]] = []
    aborted = False

    while not aborted:
        j = system.first_occurring(values)
        if j is None:
            break
        if steps >= limit:
            aborted = True
            break
        phases += 1
        stack = [j]
        steps += 1
        trace.append((j, 0))
        resample(j)
        while stack:
            k = system.first_occurring(values, candidates=system.neighborhoods[stack[-1]])
            if k is None:
                stack.pop()
                continue
            if steps >= limit:
                aborted = True
                break
            stack.append(k)
            steps += 1
            trace.append((k, len(stack) - 1))
            resample(k)

    assert steps == len(trace) and phases == sum(1 for _, depth in trace if depth == 0)
    return values, RunStats(trace, not aborted, seed, limit)


def reference_col_alg(
    graph: Graph, k: int, seed: int, step_limit: int | None = None
) -> tuple[ColorState, ColorRunStats]:
    """The cycle-resampling loop by full rescans: the oracle for ``col_alg``.

    Every root choice and every child choice sweeps all bichromatic cycles
    with ``find_bichromatic_cycle``, so no cycle index is kept between
    choices.  Must give the same coloring and ColorRunStats (trace
    included) as ``col_alg`` for every graph, palette, seed and limit.
    """
    rng = random.Random(seed)
    state, _ = greedy_4acyclic(graph, k, rng)
    limit = default_step_limit(graph.m) if step_limit is None else step_limit
    steps = 0
    phases = 0
    trace: list[tuple[tuple, int]] = []
    aborted = False

    def recolor(key, depth: int) -> bool:
        nonlocal steps
        if steps >= limit:
            return False
        steps += 1
        trace.append((key, depth))
        coloring._color_edges(state, sorted(key[1]), rng, frozenset(key[1]))
        return True

    while not aborted:
        root = find_bichromatic_cycle(state)
        if root is None:
            break
        if steps >= limit:
            aborted = True
            break
        phases += 1
        if not recolor(root, 0):
            aborted = True
            break
        stack = [root]
        while stack:
            nxt = find_bichromatic_cycle(state, frozenset(stack[-1][1]))
            if nxt is None:
                stack.pop()
                continue
            if not recolor(nxt, len(stack)):
                aborted = True
                break
            stack.append(nxt)

    assert steps == len(trace) and phases == sum(1 for _, depth in trace if depth == 0)
    return state, ColorRunStats(trace, not aborted, seed, limit)


def reference_verify_acyclic(graph: Graph, k: int, colors: list[int]) -> VerifyResult:
    """``verify_acyclic`` as it stood before it skipped path ends: every
    a-edge {u, v} with b at both ends tries all three of its edges, and
    each b-edge joins when its upper end carries a.  The oracle for the
    library's verifier, which must give the same verdict and witness."""
    if len(colors) != graph.m or None in colors:
        raise ContractError("verify_acyclic requires one color per edge")
    if not all(0 <= c < k for c in colors):
        return VerifyResult(False, False, None)
    n = graph.n_vertices
    nb: list[dict[int, int]] = [{} for _ in range(n)]  # vertex -> color -> neighbour
    ends_by_color: dict[int, list[tuple[int, int]]] = {}
    for ends, c in zip(graph.edges, colors):
        u, v = ends
        nb_u, nb_v = nb[u], nb[v]
        if c in nb_u or c in nb_v:
            return VerifyResult(False, False, None)
        nb_u[c], nb_v[c] = v, u
        ends_by_color.setdefault(c, []).append(ends)
    for a in sorted(ends_by_color):
        parent: dict[int, int] = {}  # b*n + vertex -> its union-find parent in the (a, b) forest
        for u, v in ends_by_color[a]:
            nb_u, nb_v = nb[u], nb[v]
            for b in nb_u.keys() & nb_v.keys():
                if b <= a:
                    continue
                base = b * n
                # the a-edge itself, then the b-edges at u and at v, each
                # joining when it is seen from its lower end and its upper
                # end carries a (which the a-edge's upper end v does)
                for lo, hi in ((u, v), (u, nb_u[b]), (v, nb_v[b])):
                    if hi < lo or a not in nb[hi]:
                        continue
                    x = base + lo
                    while (p := parent.get(x, x)) != x:
                        parent[x] = x = parent.get(p, p)
                    y = base + hi
                    while (p := parent.get(y, y)) != y:
                        parent[y] = y = parent.get(p, p)
                    if x == y:
                        return VerifyResult(True, False, verify._witness(graph, nb, lo, hi, a, b))
                    parent[x] = y
    return VerifyResult(True, True, None)


class _NoFreeColor(Exception):
    pass


class _IndexDraw:
    """A stand-in rng: the first ``getrandbits`` call returns ``index``; a
    second one, the redraw of an index past the free colors, raises
    ``_NoFreeColor``."""

    def __init__(self, index: int):
        self.index, self.calls = index, 0

    def getrandbits(self, width: int) -> int:
        self.calls += 1
        if self.calls > 1:
            raise _NoFreeColor
        return self.index


def forbidden_colors(state: ColorState, e: int) -> set[int]:
    """The forbidden colors at e as the library's decision loop
    (``_color_edges``) reads them: run on copies of the state, one per
    index 0, 1, ... into its free colors until the loop redraws an index,
    the loop reaches every free color, and the palette minus those is
    forbidden; a loop that refuses to draw for lack of a free color forbids
    the whole palette.  ContractError if e is out of range or the set
    exceeds 2*(maxdeg - 1)."""
    free: set[int] = set()
    for index in range(state.k):
        twin = colored(state.graph, state.k, state.colors)
        try:
            coloring._color_edges(twin, (e,), _IndexDraw(index), frozenset({e}))
        except _NoFreeColor:
            break
        except ContractError as err:
            if "no free color" not in str(err):
                raise
            break
        free.add(twin.colors[e])
    return set(range(state.k)) - free


def reference_forbidden_colors(graph: Graph, colors: list[int | None], e: int) -> set[int]:
    """Forbidden colors at e by a pairwise adjacency scan: the oracle for
    the library's decision pass, which reads the state's per-vertex maps
    instead.

    A color of a colored edge adjacent to e is forbidden, and so is the
    color of the closing edge {x, y} whenever {u, x} and {v, y} share a
    color; e's own color does not count.
    """
    u, v = graph.edges[e]
    forbidden: set[int] = set()
    at_u: list[tuple[int, int]] = []  # (far endpoint, color)
    at_v: list[tuple[int, int]] = []
    for vertex, bucket in ((u, at_u), (v, at_v)):
        for w in graph.adj[vertex]:
            idx = graph.edge_index(vertex, w)
            if idx == e or colors[idx] is None:
                continue
            bucket.append((w, colors[idx]))
            forbidden.add(colors[idx])
    for x, c1 in at_u:
        for y, c2 in at_v:
            if c1 != c2 or x == y:
                continue
            e3 = graph.edge_index(x, y)
            if e3 is not None and colors[e3] is not None:
                forbidden.add(colors[e3])
    return forbidden


def reference_assign(state: ColorState, e: int, rng: random.Random) -> set[int]:
    """``rng.choice`` over the list of colors that the pairwise scan leaves
    free: the oracle for one decision of the library's ``_color_edges``,
    which draws an index without building the list.  Returns e's second
    colors, read from the maps before the draw."""
    forb = reference_forbidden_colors(state.graph, state.colors, e)
    u, v = state.graph.edges[e]
    second = (state.at[u].keys() & state.at[v].keys()) - {state.colors[e]}
    state.assign(e, rng.choice([c for c in range(state.k) if c not in forb]))
    return second


def reference_color_edges(state: ColorState, edges, rng: random.Random, scanned) -> list[tuple]:
    """``_color_edges`` by one ``reference_assign`` per edge, each followed
    by the unguarded walk: the draw-order oracle."""
    found: list[tuple] = []
    for e in edges:
        second = reference_assign(state, e, rng)
        found += reference_cycles_through_edge(state, e, scanned, second)
    return found


def reference_cycles_through_edge(state: ColorState, e: int, scanned, second: set[int]) -> list[tuple]:
    """``_cycles_through_edge`` without its guard: every second color b
    that the scanned-edge test lets through starts a walk, which dies
    wherever the wanted color is missing.  The oracle for the guarded walk,
    which must return the same keys in the same order."""
    at, ends = state.at, state.graph.edges
    u, v = ends[e]
    a = state.colors[e]
    out: list[tuple] = []
    for b in second:
        last, first = at[u][b], at[v][b]
        if (last > e and last in scanned) or (first > e and first in scanned):
            continue
        x, y = ends[first]
        cur, want, other = x ^ y ^ v, a, b
        walk = [e, first]
        for _ in range(state.walk_cap):
            f = at[cur].get(want)
            if f is None or f == e or (f > e and f in scanned):
                break
            walk.append(f)
            x, y = ends[f]
            cur ^= x ^ y
            if cur == u:
                if want == b:
                    out.append(cycle_key(state.graph, walk))
                break
            want, other = other, want
        else:
            raise ContractError("alternating walk failed to terminate")
    return out


def color_edges_without_closing_edges(state: ColorState, edges, rng: random.Random, scanned) -> list[tuple]:
    """A copy of ``_color_edges`` whose rule forbids the adjacent colors
    only, so a decision may close a bichromatic 4-cycle: the flawed rule
    the local audit must flag."""
    found: list[tuple] = []
    for e in edges:
        u, v = state.graph.edges[e]
        at_u, at_v = state.at[u], state.at[v]
        forbidden = at_u.keys() | at_v.keys()
        common = at_u.keys() & at_v.keys()
        forbidden.discard(state.colors[e])
        common.discard(state.colors[e])
        c = rng.randrange(state.k - len(forbidden))
        for f in sorted(forbidden):
            if f > c:
                break
            c += 1
        state.assign(e, c)
        if common:
            found += coloring._cycles_through_edge(state, e, scanned, common)
    return found


# -- run audits, taken from outside the production loops -----------------------

@dataclass
class ColorAudit:
    """What an audited coloring run saw: every color decision checked
    against the safety bounds, every assignment against local properness
    and 4-acyclicity, every root recoloring against the no-regression rule
    for edges outside all bichromatic cycles, and the run's recursion
    forest against feasibility, with a cycle's edges as its scope."""

    decisions: int = 0
    max_forbidden: int = 0
    min_available: int | None = None
    local_violations: list[str] = field(default_factory=list)
    progress_violations: list[str] = field(default_factory=list)
    forest_violations: list[str] = field(default_factory=list)

    def record_decision(self, n_forbidden: int, n_available: int) -> None:
        self.decisions += 1
        self.max_forbidden = max(self.max_forbidden, n_forbidden)
        if self.min_available is None or n_available < self.min_available:
            self.min_available = n_available

    def check_local(self, state: ColorState, e: int) -> None:
        graph, colors = state.graph, state.colors
        c = colors[e]
        u, v = graph.edges[e]
        # each end's (neighbour, edge, color) but e itself, built once per call
        at_u, at_v = (
            [(w, idx, colors[idx]) for w in graph.adj[vertex] if (idx := graph.edge_index(vertex, w)) != e]
            for vertex in (u, v)
        )
        for vertex, around in ((u, at_u), (v, at_v)):
            for _, _, c1 in around:
                if c1 == c:
                    self.local_violations.append(f"edge {e}: color {c} repeats at vertex {vertex}")
        for x, e1, c1 in at_u:
            if c1 is None:
                continue
            for y, e2, c2 in at_v:
                if x == y or c2 != c1:
                    continue
                e3 = graph.edge_index(x, y)
                if e3 is not None and colors[e3] == c:
                    self.local_violations.append(f"edge {e}: bichromatic 4-cycle via edges {e1},{e3},{e2}")

    def record_progress(self, before: frozenset[int], after: frozenset[int]) -> None:
        leaked = after - before
        if leaked:
            self.progress_violations.append(f"edges {sorted(leaked)} entered a bichromatic cycle across a root call")

    def record_forest(self, trace: list[tuple[tuple, int]]) -> None:
        if not check_feasible(build_witness_forest(trace), lambda key: key[1]):
            self.forest_violations.append(f"the witness forest of {len(trace)} recolor calls is not feasible")

    @property
    def clean(self) -> bool:
        return not (self.local_violations or self.progress_violations or self.forest_violations)


def bichromatic_edge_set(state: ColorState) -> frozenset[int]:
    """Union of the edge sets of all bichromatic cycles."""
    out: set[int] = set()
    for _, edges in all_bichromatic_cycles(state):
        out.update(edges)
    return frozenset(out)


def occurring_scope_union(system: EventSystem, values) -> frozenset[int]:
    """Union of the scopes of the events occurring under ``values``."""
    out: set[int] = set()
    for ev in system.events:
        if ev.occurs(values):
            out.update(ev.scope)
    return frozenset(out)


@contextlib.contextmanager
def _wrapped(owner, name: str, wrap):
    """Replace ``owner.name`` by ``wrap(original)`` inside the block."""
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _snapshot_each_root(module, snapshot):
    """Wrap ``module.resample_loop`` so that each root choice first calls
    ``snapshot()``.  Nothing runs between a root call's return and the next
    choice, so consecutive snapshots are the before and after of each
    completed root call."""

    def wrap(loop):
        def watched(next_root, least_child, resample, limit):
            def root():
                snapshot()
                return next_root()

            return loop(root, least_child, resample, limit)

        return watched

    return _wrapped(module, "resample_loop", wrap)


def audited_col_alg(
    graph: Graph, k: int, seed: int, step_limit: int | None = None
) -> tuple[ColorState, ColorRunStats, ColorAudit]:
    """``col_alg`` watched through the module-level names it calls.

    The greedy pass hands over the run's one ColorState; ``_color_edges``
    is fed one edge at a time, which draws and finds what one call over
    the whole sequence would, and each decision is checked against the
    decision bounds, with the forbidden count from the pairwise scan, and
    against ``check_local``; the union of bichromatic edges is taken before
    each root choice; the witness forest comes from the trace.  Observing
    draws no randomness, so the state and stats are those of an unwatched
    run.
    """
    audit = ColorAudit()
    states: list[ColorState] = []
    seen: list[frozenset[int]] = []

    def greedy(original):
        def capture(*args):
            state, cycles = original(*args)
            states.append(state)
            return state, cycles

        return capture

    def color_edges(original):
        def checked(state, edges, rng, scanned):
            found = []
            for e in edges:
                n_forbidden = len(reference_forbidden_colors(state.graph, state.colors, e))
                found += original(state, (e,), rng, scanned)
                audit.record_decision(n_forbidden, state.k - n_forbidden)
                audit.check_local(state, e)
            return found

        return checked

    with contextlib.ExitStack() as watch:
        watch.enter_context(_wrapped(coloring, "greedy_4acyclic", greedy))
        watch.enter_context(_wrapped(coloring, "_color_edges", color_edges))
        watch.enter_context(_snapshot_each_root(coloring, lambda: seen.append(bichromatic_edge_set(states[0]))))
        state, stats = coloring.col_alg(graph, k, seed=seed, step_limit=step_limit)
    for before, after in zip(seen, seen[1:]):
        audit.record_progress(before, after)
    audit.record_forest(stats.trace)
    return state, stats, audit


def progress_snapshots(
    system: EventSystem, seed: int, step_limit: int | None = None
) -> list[tuple[frozenset, frozenset]]:
    """The union of occurring scopes before and after each completed root
    call of ``m_algorithm``, read from the values its ``sample_all`` made."""
    values: list[list] = []
    seen: list[frozenset[int]] = []

    def sample(original):
        def capture(*args):
            values.append(original(*args))
            return values[-1]

        return capture

    with contextlib.ExitStack() as watch:
        watch.enter_context(_wrapped(engine, "sample_all", sample))
        watch.enter_context(_snapshot_each_root(engine, lambda: seen.append(occurring_scope_union(system, values[0]))))
        engine.m_algorithm(system, seed=seed, step_limit=step_limit)
    return list(zip(seen, seen[1:]))


def reference_q_series(params: BoundParams, n_max: int) -> list[Fraction]:
    """Q_0..Q_n_max by dynamic programming over delta-fold convolutions of
    the prefix already computed: the oracle for ``bounds.q_series``."""
    q = [Fraction(1)]
    for n in range(1, n_max + 1):
        cap = n - 1
        conv = [Fraction(1)] + [Fraction(0)] * cap
        for _ in range(params.delta):
            nxt = [Fraction(0)] * (cap + 1)
            for i, a in enumerate(conv):
                if a == 0:
                    continue
                for j in range(cap + 1 - i):
                    if q[j]:
                        nxt[i + j] += a * q[j]
            conv = nxt
        q.append(params.p * conv[cap])
    return q


# The characteristic-equation solver as it stood before each tracked length
# kept one bisection and each solve read its constants once: the oracles
# for ``gamma.solve_tau`` and ``gamma.min_gamma``, which must match them bit
# for bit.

def _reference_log_slopes(x: float, params: PhiParams) -> tuple[float, float]:
    q, mlen = params.q, params.min_cycle_length
    denom = 1.0 - q * q * (x + 1.0) ** 2
    u = mlen / (x + 1.0) + 2.0 * q * q * (x + 1.0) / denom
    u_prime = -mlen / (x + 1.0) ** 2 + 2.0 * q * q * (denom + 2.0 * q * q * (x + 1.0) ** 2) / denom**2
    return u, u_prime


def _reference_char(x: float, params: PhiParams) -> tuple[float, float]:
    u, u_prime = _reference_log_slopes(x, params)
    return 1.0 - x * u, -u - x * u_prime


def reference_solve_tau(params: PhiParams) -> GammaSolution:
    """Root of the characteristic equation, reading q and 2r at every x."""
    radius = params.radius
    lo, hi = 0.0, radius * (1.0 - 1e-9)
    while _reference_char(hi, params)[0] >= 0:
        hi = radius - (radius - hi) * 0.5
        if radius - hi < 1e-15 * radius:
            raise SolverError("no sign change before the pole")
    x = 0.5 * (lo + hi)
    for _ in range(200):
        h, slope = _reference_char(x, params)
        if h > 0:
            lo = x
        elif h < 0:
            hi = x
        if h == 0 or hi - lo <= 4 * math.ulp(x):
            return GammaSolution(params, x, phi(x, params) / x, abs(h))
        step = x - h / slope if slope else x  # x is lo or hi by now
        x = step if lo < step < hi else 0.5 * (lo + hi)
    raise SolverError(f"sign bracket [{lo!r}, {hi!r}] did not close in 200 steps")


@functools.lru_cache(maxsize=None)
def reference_min_gamma(two_r: int, tol: float) -> float:
    """Brackets, spot-checks and bisects from scratch for every (2r, tol)."""
    r = two_r / 2.0

    def rho_at(g: float) -> float:
        return reference_solve_tau(PhiParams(g, r)).rho

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
    samples = [lo + (hi - lo) * i / 8 for i in range(9)]
    rhos = [rho_at(g) for g in samples]
    if any(r2 > r1 + 1e-9 for r1, r2 in zip(rhos, rhos[1:])):
        raise SolverError("rho is not decreasing in gamma on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # tol below the float spacing at the bracket
            break
        if rho_at(mid) < 1.0:
            hi = mid
        else:
            lo = mid
    return hi  # smallest gamma known to satisfy rho < 1, within tol


@pytest.fixture
def solve_tau_calls(monkeypatch) -> list[int]:
    """Fresh bisections, and a one-item list counting gamma.solve_tau calls
    made through the module, as the benchmark's wrapper counts them."""
    calls = [0]
    solve = gamma.solve_tau

    def counting(params: PhiParams) -> GammaSolution:
        calls[0] += 1
        return solve(params)

    monkeypatch.setattr(gamma, "solve_tau", counting)
    monkeypatch.setattr(gamma, "_bisections", {})
    return calls


def reference_girth(graph: Graph) -> int | None:
    """Girth by a full BFS from every vertex with no cutoff: the oracle for
    ``Graph.girth``.  A non-tree edge seen at distance levels d(u), d(w)
    witnesses a closed walk of length d(u)+d(w)+1, and over all start
    vertices the minimum such witness is the girth."""
    best: int | None = None
    for s in range(graph.n_vertices):
        dist = [-1] * graph.n_vertices
        via = [-1] * graph.n_vertices  # edge index used to reach the vertex
        dist[s] = 0
        queue = [s]
        while queue:
            nxt = []
            for u in queue:
                for w in graph.adj[u]:
                    eidx = graph.edge_index(u, w)
                    if eidx == via[u]:
                        continue
                    if dist[w] == -1:
                        dist[w] = dist[u] + 1
                        via[w] = eidx
                        nxt.append(w)
                    else:
                        cand = dist[u] + dist[w] + 1
                        if best is None or cand < best:
                            best = cand
            queue = nxt
    return best


def reference_from_edge_list(text: str) -> Graph:
    """``Graph.from_edge_list`` as it stood before its bulk path: the line
    loop alone, with the token rule of CNF files.  The oracle for the
    parser, which must give the same graph or the same error message on
    every text."""
    n = m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        # a token is ASCII [+-]?[0-9]+: int() alone takes `1_0` and other digits
        for tok in line.split():
            if not tok.isascii() or "_" in tok:
                raise ValueError(f"line {lineno}: {tok!r} is not an ASCII integer")
        if not line.isascii():  # only a separator is not ASCII
            raise ValueError(f"line {lineno}: {line!r} is not an ASCII integer")
        if line.startswith("p"):
            if n is not None:
                raise ValueError(f"line {lineno}: second header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "edges":
                raise ValueError(f"line {lineno}: bad header {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if n > MAX_HEADER_VERTICES:
                raise ValueError(f"line {lineno}: {n} vertices exceed the cap of {MAX_HEADER_VERTICES}")
            continue
        if n is None:
            raise ValueError(f"line {lineno}: edge before the header")
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n is None:
        raise ValueError("missing 'p edges <l> <m>' header")
    if m != len(edges):
        raise ValueError(f"header declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def colored(graph: Graph, k: int, colors: list[int | None]) -> ColorState:
    """A ColorState holding the given colors (None leaves an edge uncolored)."""
    state = ColorState(graph, k)
    for e, c in enumerate(colors):
        if c is not None:
            state.assign(e, c)
    return state


def random_proper_colors(graph: Graph, k: int, rng: random.Random, fill: float = 1.0) -> list[int | None] | None:
    """Random proper (not necessarily acyclic) coloring: edge by edge, a
    uniform choice among the colors free at both endpoints, made with
    probability ``fill`` (else the edge stays uncolored).  None when some
    edge finds no free color."""
    at: list[set[int]] = [set() for _ in range(graph.n_vertices)]
    colors: list[int | None] = []
    for u, v in graph.edges:
        free = [c for c in range(k) if c not in at[u] and c not in at[v]]
        if not free:
            return None
        c = rng.choice(free) if rng.random() < fill else None
        if c is not None:
            at[u].add(c)
            at[v].add(c)
        colors.append(c)
    return colors


def two_hex_graph() -> Graph:
    hex1 = [(i, (i + 1) % 6) for i in range(6)]
    hex2 = [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    return Graph(12, hex1 + hex2)


def brute_simple_cycles(graph: Graph, max_len: int | None = None) -> set[frozenset[int]]:
    """Every simple cycle as a frozenset of edge indices, by exhaustive DFS.

    Independent of the alternating-walk machinery: enumerates vertex paths
    from each start vertex, keeping only cycles whose smallest vertex is the
    start so each cycle is produced a bounded number of times.
    """
    cap = max_len if max_len is not None else graph.n_vertices
    out: set[frozenset[int]] = set()

    def extend(start: int, cur: int, visited: list[int], edges: list[int]):
        for w in graph.adj[cur]:
            eidx = graph.edge_index(cur, w)
            if w == start and len(edges) >= 2:
                out.add(frozenset(edges + [eidx]))
                continue
            if w <= start or w in visited or len(edges) + 1 >= cap:
                continue
            visited.append(w)
            edges.append(eidx)
            extend(start, w, visited, edges)
            visited.pop()
            edges.pop()

    for s in range(graph.n_vertices):
        extend(s, s, [s], [])
    return out


def brute_bichromatic_keys(graph: Graph, colors: list[int | None]) -> set[tuple]:
    """Canonical keys of all bichromatic cycles, via the brute-force oracle.

    Assumes a proper coloring, under which a cycle with exactly two edge
    colors necessarily alternates them.
    """
    keys = set()
    for edge_set in brute_simple_cycles(graph):
        on_cycle = {colors[e] for e in edge_set}
        if len(edge_set) % 2 == 0 and len(on_cycle) == 2 and None not in on_cycle:
            keys.add((len(edge_set), tuple(sorted(edge_set))))
    return keys


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
