"""Shared builders: small event systems, graphs, brute-force oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lllcolor.bounds import BoundParams
from lllcolor.coloring import (
    ColorAudit,
    ColorRunStats,
    ColorState,
    _assign,
    bichromatic_edge_set,
    find_bichromatic_cycle,
    forbidden_colors,
    greedy_4acyclic,
)
from lllcolor.engine import Event, EventSystem, RunStats, VariableSpace, default_step_limit, sample_all
from lllcolor.graphs import Graph


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


def reference_m_algorithm(
    system: EventSystem,
    seed: int,
    step_limit: int | None = None,
    snapshot_progress: bool = False,
) -> tuple[list, RunStats]:
    """The resampling loop by linear scans: the oracle for ``m_algorithm``.

    Every root choice scans all events from id 0 with ``first_occurring``
    and every child choice scans the stack top's neighbourhood, so nothing
    is cached between choices.  Must give the same values and RunStats as
    ``m_algorithm`` for every system, seed and limit.
    """
    rng = random.Random(seed)
    limit = default_step_limit(system.m) if step_limit is None else step_limit

    def resample(j: int) -> None:
        for i in system.events[j].scope:
            values[i] = system.space.sample(i, rng)

    values = sample_all(system, rng)
    steps = 0
    phases = 0
    trace: list[tuple[int, int]] = []
    snapshots: list[tuple[frozenset, frozenset]] | None = [] if snapshot_progress else None
    aborted = False

    while not aborted:
        j = system.first_occurring(values)
        if j is None:
            break
        if steps >= limit:
            aborted = True
            break
        before = system.occurring_scope_union(values) if snapshot_progress else None
        phases += 1
        stack = [j]
        steps += 1
        trace.append((j, 0))
        resample(j)
        while stack:
            k = system.first_occurring(values, candidates=system.neighborhood(stack[-1]))
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
        if snapshot_progress and not aborted:
            snapshots.append((before, system.occurring_scope_union(values)))

    return values, RunStats(steps, phases, trace, not aborted, seed, limit, snapshots)


def reference_col_alg(
    graph: Graph,
    k: int,
    seed: int,
    step_limit: int | None = None,
    audit: bool = False,
) -> tuple[ColorState, ColorRunStats]:
    """The cycle-resampling loop by full rescans: the oracle for ``col_alg``.

    Every root choice and every child choice sweeps all bichromatic cycles
    with ``find_bichromatic_cycle``, so no cycle index is kept between
    choices.  Must give the same coloring and ColorRunStats (trace, audit
    included) as ``col_alg`` for every graph, palette, seed and limit.
    """
    rng = random.Random(seed)
    audit_obj = ColorAudit() if audit else None
    state, _ = greedy_4acyclic(graph, k, rng, audit_obj)
    limit = default_step_limit(graph.m) if step_limit is None else step_limit
    steps = 0
    phases = 0
    trace: list[tuple[tuple, int]] = []
    aborted = False

    def recolor(cycle, depth: int) -> bool:
        nonlocal steps
        if steps >= limit:
            return False
        steps += 1
        trace.append((cycle.key, depth))
        for e in sorted(cycle.edges):
            _assign(state, e, rng, audit_obj)
        return True

    while not aborted:
        root = find_bichromatic_cycle(state)
        if root is None:
            break
        if steps >= limit:
            aborted = True
            break
        before = bichromatic_edge_set(state) if audit_obj else None
        phases += 1
        if not recolor(root, 0):
            aborted = True
            break
        stack = [root]
        while stack:
            nxt = find_bichromatic_cycle(state, stack[-1].edge_set)
            if nxt is None:
                stack.pop()
                continue
            if not recolor(nxt, len(stack)):
                aborted = True
                break
            stack.append(nxt)
        if audit_obj is not None and not aborted:
            audit_obj.record_progress(before, bichromatic_edge_set(state))
    if audit_obj is not None:
        audit_obj.record_forest(trace)

    return state, ColorRunStats(steps, phases, trace, not aborted, seed, limit, audit=audit_obj)


def reference_forbidden_colors(graph: Graph, colors: list[int | None], e: int) -> set[int]:
    """Forbidden colors at e by a pairwise adjacency scan: the oracle for
    ``forbidden_colors``, which reads the state's per-vertex maps instead.

    A color of a colored edge adjacent to e is forbidden, and so is the
    color of the closing edge {x, y} whenever {u, x} and {v, y} share a
    color; e's own color does not count.
    """
    u, v = graph.edges[e]
    forbidden: set[int] = set()
    at_u: list[tuple[int, int]] = []  # (far endpoint, color)
    at_v: list[tuple[int, int]] = []
    for vertex, bucket in ((u, at_u), (v, at_v)):
        for w, idx in graph.adj[vertex]:
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


def reference_assign(state: ColorState, e: int, rng: random.Random, audit: ColorAudit | None) -> None:
    """``rng.choice`` over the list of free colors: the oracle for the
    library's ``_assign``, which draws an index without building the list."""
    forb = forbidden_colors(state, e)
    available = [c for c in range(state.k) if c not in forb]
    state.assign(e, rng.choice(available))
    if audit is not None:
        audit.record_decision(len(forb), len(available))
        audit.check_local(state, e)


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
                for w, eidx in graph.adj[u]:
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
        for w, eidx in graph.adj[cur]:
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
