"""Acyclic proper edge coloring by greedy seeding plus cycle resampling.

The palette rule encodes the safety condition used everywhere below: a
color is forbidden at edge e = {u, v} when a colored edge adjacent to e
already carries it, or when it would close a bichromatic 4-cycle, i.e.
edges {u, x} and {v, y} carry a common color and the candidate equals the
color of the closing edge {x, y}.  In a properly colored simple graph the
same color cannot repeat at one endpoint, so each common endpoint color
trades one slot of the adjacent union for at most one closing color, and
at most 2*(maxdeg - 1) colors are ever forbidden.  Any palette of size at
least 2*maxdeg - 1 therefore leaves a choice at every step, and the greedy
pass keeps the partial coloring proper with no bichromatic 4-cycle.  Each
decision, greedy or recolor, is one pass over its edge's two endpoint
maps: the colors common to both ends are intersected once, and they give
both the closing-edge term of the forbidden set and, after the draw, the
second colors of the alternating walks from that edge.

The main loop is the resampling engine's driver (``engine.resample_loop``)
with cycles in the role of events: while a bichromatic cycle exists, the
least one (ordered by length, then by sorted edge-index tuple) is recolored
edge by edge, and any bichromatic cycle sharing an edge with it is handled
recursively before the call returns.

Bichromatic cycles are detected through alternating walks.  For an edge e
colored a and a second color b, the subgraph of a- and b-colored edges has
degree at most 2 at every vertex, so the walk leaving e's far endpoint
along color b is deterministic: it either dies at a vertex missing the
wanted color or returns to e's near endpoint along a b-edge, closing the
unique (a,b)-bichromatic cycle through e; only a color b at both ends of
e starts a walk.  The walks read the per-vertex color -> edge maps of one
``ColorState``, which every assignment keeps up to date.  A sweep over an
edge set finds each cycle once, from its largest edge in the set: a walk
stops at any larger edge of the set.  The greedy pass walks from each edge
right after coloring it, with the second colors of that edge's decision,
so it collects each cycle of its output from the cycle's largest edge, and
those cycles seed the loop's incremental index; a refresh sweeps only the
recolored edges, reading their second colors afresh, since other edges of
the cycle were recolored after each decision.  The full sweep over every
edge serves only the tests.  The verifier shares none of this: it builds
its own per-vertex color -> neighbour maps and checks that every 2-colored
subgraph is a forest by a union-find over (second color, vertex) keys.
"""

from __future__ import annotations

import random

from . import _Frozen
from .engine import ContractError, RunStats, resample_loop, start_run
from .graphs import Graph


class PaletteError(ValueError):
    """Palette smaller than the 2*maxdeg - 1 safety threshold."""


class Cycle:
    """Even closed walk of distinct vertices, stored as an edge-index tuple.

    Identity and ordering use the canonical key (length, sorted edge
    tuple); the stored tuple keeps the walk order for display.
    """

    __slots__ = ("edges", "edge_set", "length", "key")

    def __init__(self, edges: tuple[int, ...]):
        self.edges = tuple(edges)
        self.edge_set = frozenset(self.edges)
        self.length = len(self.edges)
        self.key = (self.length, tuple(sorted(self.edges)))

    @classmethod
    def from_walk(cls, graph: Graph, edges) -> "Cycle":
        edges = tuple(edges)
        if len(edges) < 4 or len(edges) % 2:
            raise ContractError(f"cycle length {len(edges)} is not an even number >= 4")
        if len(set(edges)) != len(edges):
            raise ContractError("repeated edge in cycle walk")
        verts = []
        prev = set(graph.edges[edges[-1]])
        for idx in edges:
            here = set(graph.edges[idx])
            shared = prev & here
            if len(shared) != 1:
                raise ContractError("consecutive cycle edges must share one vertex")
            verts.append(shared.pop())
            prev = here
        if len(set(verts)) != len(verts):
            raise ContractError("cycle visits a vertex twice")
        return cls(edges)

    def __eq__(self, other):
        return isinstance(other, Cycle) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        return f"Cycle(edges={self.edges})"


class ColorState:
    """Edge colors (None while uncolored) plus, per vertex, color -> incident edge.

    ``assign`` is the only writer, so ``at`` always mirrors ``colors`` and
    the coloring stays proper; the forbidden-color rule and the
    alternating walks read the maps instead of rebuilding them.  The run's
    constants are set once here: ``max_forbidden`` = 2*(maxdeg - 1), the
    bound on every forbidden set, and ``walk_cap``, a step count no
    alternating walk reaches.
    """

    def __init__(self, graph: Graph, k: int):
        self.graph = graph
        self.k = k
        self.colors: list[int | None] = [None] * graph.m
        self.at: list[dict[int, int]] = [{} for _ in range(graph.n_vertices)]
        self.max_forbidden = 2 * (graph.max_degree - 1)
        self.walk_cap = 2 * graph.m + 4

    def assign(self, e: int, c: int) -> None:
        """Recolor edge e with c; ContractError if c is outside the palette
        0..k-1 or taken at an endpoint."""
        if not (0 <= c < self.k):
            raise ContractError(f"color {c} outside the palette 0..{self.k - 1}")
        u, v = self.graph.edges[e]
        at_u, at_v = self.at[u], self.at[v]
        if at_u.get(c, e) != e:
            raise ContractError(f"improper coloring: color {c} repeats at vertex {u}")
        if at_v.get(c, e) != e:
            raise ContractError(f"improper coloring: color {c} repeats at vertex {v}")
        old = self.colors[e]
        if old is not None:
            del at_u[old], at_v[old]
        at_u[c] = at_v[c] = e
        self.colors[e] = c


def _forbidden_and_second(state: ColorState, e: int) -> tuple[set[int], set[int]]:
    """The forbidden colors at e and its second colors, from one pass over
    the endpoint maps.

    With u, v the ends of e and own its current color (None while
    uncolored), ``common`` = the colors at both u and v except own.  The
    forbidden set is the endpoint union except own, plus the color of each
    closing edge {x, y} with {u, x} and {v, y} carrying a color of
    ``common``; ContractError if it exceeds 2*(maxdeg - 1) or e is out of
    range.  ``common`` itself is returned as the second colors: once e is
    recolored with a color outside the forbidden set, the colors at both
    its ends are exactly ``common`` plus e's new color, so ``common`` is
    what an alternating walk from e may pair with that color.
    """
    graph, colors = state.graph, state.colors
    ends = graph.edges
    if not (0 <= e < len(ends)):
        raise ContractError(f"edge index {e} out of range")
    u, v = ends[e]
    at_u, at_v = state.at[u], state.at[v]
    own = colors[e]
    forbidden = at_u.keys() | at_v.keys()
    common = at_u.keys() & at_v.keys()
    if own is not None:
        forbidden.discard(own)
        common.discard(own)
    closing = graph._edge_index.get
    for c in common:
        x1, x2 = ends[at_u[c]]
        y1, y2 = ends[at_v[c]]
        x, y = x1 ^ x2 ^ u, y1 ^ y2 ^ v
        e3 = closing((x, y) if x < y else (y, x))
        if e3 is not None:
            c3 = colors[e3]
            if c3 is not None:
                forbidden.add(c3)
    if len(forbidden) > state.max_forbidden:
        raise ContractError(f"forbidden set of {len(forbidden)} exceeds 2*(maxdeg-1) at edge {e}")
    return forbidden, common


def forbidden_colors(state: ColorState, e: int) -> set[int]:
    """Colors that would break properness or close a bichromatic 4-cycle at e.

    Only colored edges contribute; e's own current color (if any) does not.
    O(maxdeg) through the state's maps: a color common to both endpoints
    (edges {u, x} and {v, y}) also forbids the color of the closing edge
    {x, y}.  The result has at most 2*(maxdeg - 1) members, else
    ContractError.  It is the first half of the pass every coloring
    decision makes (``_forbidden_and_second``).
    """
    return _forbidden_and_second(state, e)[0]


def _assign(state: ColorState, e: int, rng: random.Random) -> set[int]:
    """Color e uniformly among the colors not forbidden there; return e's
    second colors.

    One pass over the endpoint maps (``_forbidden_and_second``) gives both
    the forbidden set and the colors at both ends of e other than its old
    color; the greedy pass hands the latter to the walk from e, so the
    maps are intersected once per decision.  The draw picks an index into
    the free colors in increasing order, as ``rng.choice`` over that list
    would, and maps it past the sorted forbidden set, so a decision costs
    no more than sorting that set, whatever the palette size.
    """
    forb, second = _forbidden_and_second(state, e)
    n_free = state.k - len(forb)
    if n_free < state.k - state.max_forbidden:
        raise ContractError(f"palette margin violated at edge {e}: {n_free} colors available")
    c = rng.randrange(n_free)
    for f in sorted(forb):
        if f > c:
            break
        c += 1
    state.assign(e, c)
    return second


def greedy_4acyclic(graph: Graph, k: int, rng: random.Random) -> tuple[ColorState, dict[tuple, Cycle]]:
    """Color edges in index order, uniformly among the non-forbidden colors.

    The output is proper with no bichromatic 4-cycle, and at least
    k - 2*(maxdeg - 1) colors were available at every single decision.
    Returns the state and every bichromatic cycle of its coloring by key,
    each collected from its largest edge e right after e is colored: every
    colored edge is then at most e and no edge is ever recolored, so a walk
    from e dies at an uncolored edge exactly where the full sweep's walk
    stops at a larger edge, and both find the same cycles.  The walk from
    e takes its second colors from e's decision instead of intersecting
    the endpoint maps again: the drawn color was not forbidden, so it was
    at neither end, and the colors at both ends are now those second
    colors plus e's own.
    """
    if k < 2 * graph.max_degree - 1:
        raise PaletteError(f"k={k} below the safety threshold {2 * graph.max_degree - 1}")
    state = ColorState(graph, k)
    cycles: dict[tuple, Cycle] = {}
    every_edge = range(graph.m)
    for e in every_edge:
        second = _assign(state, e, rng)
        for cyc in _cycles_through_edge(state, e, every_edge, second):
            cycles[cyc.key] = cyc
    return state, cycles


def _second_colors(state: ColorState, e: int) -> set[int]:
    """The colors at both ends of colored edge e other than its own."""
    u, v = state.graph.edges[e]
    common = state.at[u].keys() & state.at[v].keys()
    common.discard(state.colors[e])
    return common


def _cycles_through_edge(state: ColorState, e: int, scanned: frozenset[int] | range, second: set[int]) -> list[Cycle]:
    """The bichromatic cycles through edge e whose largest edge in ``scanned``
    is e, one per workable second color; e must be in ``scanned``.

    ``second`` holds the colors at both ends of e other than e's own (the
    cycle's first and last edges carry such a color); only these start a
    walk.  A walk stops at the first edge f in ``scanned`` with f > e, and
    at an uncolored edge, which carries no color.  This finds every
    bichromatic cycle C that meets ``scanned`` exactly once over a sweep of
    ``scanned``: let e* be the largest edge of C in ``scanned``.  The walk
    from e* with C's second color goes around C and meets no larger scanned
    edge, so it finds C.  A walk from any other scanned edge of C with that
    color passes e* before it closes, so it stops there.  The greedy pass
    calls this on each edge as it is colored; the full sweep over every
    edge serves only the tests.
    """
    if not second:
        return []
    at, ends = state.at, state.graph.edges
    u, v = ends[e]
    a = state.colors[e]
    at_u, at_v = at[u], at[v]
    out: list[Cycle] = []
    for b in second:
        last, first = at_u[b], at_v[b]
        if (last > e and last in scanned) or (first > e and first in scanned):
            continue  # the walk would stop at its last or its first edge
        # the walk leaves v along its first edge, which cannot end at u
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
                # closing edge carries color b: the cycle alternates a,b
                if want == b:
                    out.append(Cycle.from_walk(state.graph, walk))
                break
            want, other = other, want
        else:
            raise ContractError("alternating walk failed to terminate")
    return out


def all_bichromatic_cycles(state: ColorState) -> dict[tuple, Cycle]:
    """Every bichromatic cycle by key, each built once, from its largest edge."""
    found: dict[tuple, Cycle] = {}
    every_edge = range(state.graph.m)
    for e in every_edge:
        if state.colors[e] is None:
            continue
        for cyc in _cycles_through_edge(state, e, every_edge, _second_colors(state, e)):
            found[cyc.key] = cyc
    return found


def find_bichromatic_cycle(state: ColorState, restrict: frozenset[int] | None = None) -> Cycle | None:
    """Least bichromatic cycle under the canonical order, or None.

    With ``restrict``, only cycles sharing an edge with the given edge set
    are eligible; the least eligible cycle is still chosen globally.
    """
    return CycleIndex(state, all_bichromatic_cycles(state)).least(restrict)


class CycleIndex:
    """Incrementally maintained set of all current bichromatic cycles.

    It starts from ``cycles``, every bichromatic cycle of ``state`` by key:
    in ``col_alg`` those the greedy pass collected, each from its largest
    edge; the tests pass ``all_bichromatic_cycles(state)``.  A cycle's
    status only changes when one of its edges is recolored, so after
    recoloring an edge set it suffices to drop the stored cycles touching
    it and to sweep those edges: the sweep finds every bichromatic cycle
    that meets them, survivors included, each from its largest recolored
    edge.  The walks read the state's own maps, so nothing is rebuilt
    between refreshes.  It is the only detector of ``col_alg``; the tests
    hold it against full rescans.
    """

    def __init__(self, state: ColorState, cycles: dict[tuple, Cycle]):
        self.state = state
        self.cycles = cycles

    def refresh_after(self, dirty: frozenset[int]) -> None:
        for key in [k for k, c in self.cycles.items() if c.edge_set & dirty]:
            del self.cycles[key]
        for e in dirty:
            for cyc in _cycles_through_edge(self.state, e, dirty, _second_colors(self.state, e)):
                self.cycles[cyc.key] = cyc

    def least(self, restrict: frozenset[int] | None = None) -> Cycle | None:
        pool = [c for c in self.cycles.values() if restrict is None or (c.edge_set & restrict)]
        return min(pool) if pool else None


class ColorRunStats(RunStats):
    """A coloring run's ``RunStats``: steps are recolor calls, phases are
    root calls, and ``trace`` holds (cycle key, depth) per call."""

    __slots__ = ()

    @property
    def cycle_lengths(self) -> list[int]:
        return [key[0] for key, _ in self.trace]

    @property
    def root_cycles(self) -> list[tuple[int, ...]]:
        return [key[1] for key, depth in self.trace if depth == 0]


def col_alg(
    graph: Graph,
    k: int,
    seed: int | None = None,
    step_limit: int | None = None,
) -> tuple[ColorState, ColorRunStats]:
    """Greedy pass, then resample bichromatic cycles until none remains.

    While some bichromatic cycle exists, the least one is recolored (edges
    in index order, each uniformly among the safe colors); while any
    bichromatic cycle shares an edge with the cycle of the current call,
    the least such cycle is handled recursively (``engine.resample_loop``
    over a ``CycleIndex`` on the run's one ``ColorState``).  Returns that
    state; on termination its coloring is proper and has no bichromatic
    cycle of any length.
    """
    seed, rng, limit = start_run(seed, step_limit, graph.m)
    state, cycles = greedy_4acyclic(graph, k, rng)
    index = CycleIndex(state, cycles)

    def recolor(cycle: Cycle) -> None:
        for e in sorted(cycle.edges):
            _assign(state, e, rng)
        index.refresh_after(cycle.edge_set)

    phases, trace, terminated = resample_loop(index.least, lambda top: index.least(top.edge_set), recolor, limit)
    trace = [(cycle.key, depth) for cycle, depth in trace]
    return state, ColorRunStats(phases, trace, terminated, seed, limit)


class VerifyResult(_Frozen):
    """Verdict of ``verify_acyclic``: properness, acyclicity and, for a
    proper coloring with a bichromatic cycle, one such cycle."""

    __slots__ = ("proper", "acyclic", "witness")

    def __init__(self, proper: bool, acyclic: bool, witness: Cycle | None):
        object.__setattr__(self, "proper", proper)
        object.__setattr__(self, "acyclic", acyclic)
        object.__setattr__(self, "witness", witness)


def verify_acyclic(graph: Graph, k: int, colors: list[int]) -> VerifyResult:
    """Full verification from the definition; shares no code with the detector.

    Palette membership first, then properness through the verifier's own
    per-vertex color -> neighbour maps, built with one list of end pairs
    per color.  Acyclicity: every 2-colored subgraph must be a forest,
    checked by union-find.  Pairs (a, b), a < b, are handled grouped by a,
    over the colors in use only, and only a's forests are alive at once,
    in one union-find keyed by b*n + vertex for n vertices, so its size
    does not grow with k.  Each a-edge {u, v} with b at both ends joins its
    ends, and so does each b-edge at u or v whose far end carries a as
    well, seen from its lower end.  Every edge of an (a, b)-cycle is among
    them (its ends carry both colors), so there are O(m*maxdeg) unions.  A
    union inside one set closes a bichromatic cycle: the witness is that
    edge plus the alternating path back between its ends, not necessarily
    the least cycle.  A coloring outside the palette 0..k-1 or an improper
    one reports proper=False and acyclic=False without a witness.
    """
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
                        return VerifyResult(True, False, _witness(graph, nb, lo, hi, a, b))
                    parent[x] = y
    return VerifyResult(True, True, None)


def _witness(graph: Graph, nb: list[dict[int, int]], lo: int, hi: int, a: int, b: int) -> Cycle:
    """Edge {lo, hi} of the (a, b) subgraph plus the alternating path from
    hi back to lo, which exists because both ends already share a
    union-find set."""
    want = b if nb[hi].get(a) == lo else a
    walk, cur = [graph.edge_index(lo, hi)], hi
    while cur != lo:
        nxt = nb[cur][want]
        walk.append(graph.edge_index(cur, nxt))
        cur = nxt
        want = a if want == b else b
    return Cycle.from_walk(graph, walk)


def count_cycles_through_edge(graph: Graph, e: int, length: int) -> int:
    """Exact number of simple cycles of the given even length through edge e.

    Exhaustive path enumeration, so only for desk-scale graphs; the count
    never exceeds (maxdeg - 1)**(length - 2), else ContractError.
    """
    if length < 4 or length % 2:
        raise ValueError("cycle length must be even and >= 4")
    if not (0 <= e < graph.m):
        raise ContractError(f"edge index {e} out of range")
    branching = max(graph.max_degree - 1, 0)
    if branching ** (length - 2) > 5_000_000:
        raise ValueError("size guard: enumeration would be too large")
    u, v = graph.edges[e]

    # the walk starts at v and never visits u, so it cannot use edge e
    # before its closing step, and that step leaves a vertex other than v
    def paths(cur: int, remaining: int, visited: set[int]) -> int:
        if remaining == 1:
            return int(u in graph.adj[cur])
        total = 0
        for w in graph.adj[cur]:
            if w == u or w in visited:
                continue
            visited.add(w)
            total += paths(w, remaining - 1, visited)
            visited.remove(w)
        return total

    count = paths(v, length - 1, {v})
    if count > branching ** (length - 2):
        raise ContractError(f"{count} cycles through edge {e} exceed the branching bound")
    return count
