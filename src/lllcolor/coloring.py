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
pass keeps the partial coloring proper with no bichromatic 4-cycle.  One
loop, ``_color_edges``, makes every decision, greedy or recolor: per
edge it intersects the two endpoint maps once (the colors common to both
ends give the closing-edge term of the forbidden set and, after the
draw, the second colors of the walk from that edge), draws, writes
through ``ColorState.assign`` and walks from the edge if it has a second
color.

The main loop is the resampling driver (``driver.resample_loop``)
with cycles in the role of events: while a bichromatic cycle exists, the
least one is recolored edge by edge, and any bichromatic cycle sharing an
edge with it is handled recursively before the call returns.  A cycle is
its key (length, sorted edge-index tuple): keys order the cycles, label
the run's trace, and give each cycle's edges.

Bichromatic cycles are detected through alternating walks.  For an edge e
colored a and a second color b, the subgraph of a- and b-colored edges has
degree at most 2 at every vertex, so the walk leaving e's far endpoint
along color b is deterministic: it either dies at a vertex missing the
wanted color or returns to e's near endpoint along a b-edge, closing the
unique (a,b)-bichromatic cycle through e; only a color b at both ends of
e whose two b-edges end at a-edges starts a walk.  The walks read the
per-vertex color -> edge maps of one ``ColorState``, which every
assignment keeps up to date.  A sweep over an
edge set finds each cycle once, from its largest edge in the set: a walk
stops at any larger edge of the set.  The decision loop walks from each
edge right after coloring it, over the edges it colors, so the greedy
pass collects each cycle of its output from the cycle's largest edge, and
those cycles seed the loop's incremental index; a recolor, taking its
cycle's edges in index order, collects each cycle that meets them once
all its edges are final, and the index's refresh drops the cycles that
touch the recolored edges and adds those, with no sweep.  The full sweep
over every edge serves only the tests.  The verifier shares none of this:
it builds its own per-vertex color -> neighbour maps and checks that
every 2-colored subgraph is a forest by a union-find over (second color,
vertex) keys, and its witness is a walk, a cycle's edge indices in the
order met.
"""

from __future__ import annotations

import random

from . import ContractError, _Frozen
from .driver import RunStats, resample_loop, start_run
from .graphs import Graph


class PaletteError(ValueError):
    """Palette smaller than the max(1, 2*maxdeg - 1) safety threshold."""


def cycle_key(graph: Graph, walk) -> tuple[int, tuple[int, ...]]:
    """The key (length, sorted edge tuple) of a cycle given as its walk, edge
    indices in walk order; ContractError unless the length is even and >= 4,
    no edge repeats, consecutive edges share one vertex and no vertex is
    visited twice.  The key is a bichromatic cycle's one representation."""
    if len(walk) < 4 or len(walk) % 2:
        raise ContractError(f"cycle length {len(walk)} is not an even number >= 4")
    if len(set(walk)) != len(walk):
        raise ContractError("repeated edge in cycle walk")
    verts = []
    prev = set(graph.edges[walk[-1]])
    for idx in walk:
        here = set(graph.edges[idx])
        shared = prev & here
        if len(shared) != 1:
            raise ContractError("consecutive cycle edges must share one vertex")
        verts.append(shared.pop())
        prev = here
    if len(set(verts)) != len(verts):
        raise ContractError("cycle visits a vertex twice")
    return len(walk), tuple(sorted(walk))


class ColorState:
    """Edge colors (None while uncolored) plus, per vertex, color -> incident edge.

    ``assign`` is the only writer, so ``at`` always mirrors ``colors`` and
    the coloring stays proper; the decision loop and the alternating walks
    read the maps instead of rebuilding them.  The run's constants are set
    once here: ``max_forbidden`` = 2*(maxdeg - 1), the bound on every
    forbidden set, and ``walk_cap``, a step count no alternating walk
    reaches.
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


def _color_edges(state: ColorState, edges, rng: random.Random, scanned: frozenset[int] | range) -> list[tuple]:
    """Color each edge of ``edges`` in turn, uniformly among the colors not
    forbidden there, and walk from it: the keys of the cycles the walks close.

    With u, v the ends of e and own its color (None while uncolored),
    ``common`` = the colors at both u and v except own.  The forbidden set
    is the endpoint union except own, plus the color of each closing edge
    {x, y} with {u, x} and {v, y} carrying a color of ``common``;
    ContractError if it exceeds 2*(maxdeg - 1), leaves no free color or e
    is out of range.  The draw picks an index into the free colors in
    increasing order, as ``rng.choice`` over that list would, by the
    rejection loop of ``rng.randrange(n)`` inlined on ``getrandbits``, and
    maps it past the sorted forbidden set, so a decision costs no more than
    sorting that set, whatever the palette size.  The new color was at
    neither end, so the colors at both ends of e are now ``common`` plus
    e's own: a nonempty ``common`` gives the walk from e
    (``_cycles_through_edge`` over ``scanned``) its second colors.  A
    sequence of edges draws and finds what one call per edge would.
    """
    colors, at, ends, closing = state.colors, state.at, state.graph.edges, state.graph._edge_index.get
    k, cap, m = state.k, state.max_forbidden, len(ends)
    bits, assign, walk = rng.getrandbits, state.assign, _cycles_through_edge
    found: list[tuple] = []
    for e in edges:
        if not (0 <= e < m):
            raise ContractError(f"edge index {e} out of range")
        u, v = ends[e]
        at_u, at_v = at[u], at[v]
        own = colors[e]
        forbidden = at_u.keys() | at_v.keys()
        common = at_u.keys() & at_v.keys()
        if own is not None:
            forbidden.discard(own)
            common.discard(own)
        for c in common:
            x1, x2 = ends[at_u[c]]
            y1, y2 = ends[at_v[c]]
            x, y = x1 ^ x2 ^ u, y1 ^ y2 ^ v
            e3 = closing((x, y) if x < y else (y, x))
            if e3 is not None and (c3 := colors[e3]) is not None:
                forbidden.add(c3)
        if len(forbidden) > cap:
            raise ContractError(f"forbidden set of {len(forbidden)} exceeds 2*(maxdeg-1) at edge {e}")
        n = k - len(forbidden)
        if n < 1:
            raise ContractError(f"no free color at edge {e}")
        width = n.bit_length()
        c = bits(width)
        while c >= n:
            c = bits(width)
        for f in sorted(forbidden):
            if f > c:
                break
            c += 1
        assign(e, c)
        if common:
            found += walk(state, e, scanned, common)
    return found


def greedy_4acyclic(graph: Graph, k: int, rng: random.Random) -> tuple[ColorState, set[tuple]]:
    """Color edges in index order, uniformly among the non-forbidden colors.

    The output is proper with no bichromatic 4-cycle, and at least
    k - 2*(maxdeg - 1) colors were available at every single decision;
    PaletteError unless k >= max(1, 2*maxdeg - 1).  Returns the state and
    the key of every bichromatic cycle of its coloring, each collected from
    its largest edge e right after e is colored: every colored edge is then
    at most e and no edge is ever recolored, so a walk from e dies at an
    uncolored edge exactly where the full sweep's walk stops at a larger
    edge, and both find the same cycles.
    """
    threshold = max(1, 2 * graph.max_degree - 1)
    if k < threshold:
        raise PaletteError(f"k={k} below the safety threshold {threshold}")
    state = ColorState(graph, k)
    every_edge = range(graph.m)
    return state, set(_color_edges(state, every_edge, rng, every_edge))


def _second_colors(state: ColorState, e: int) -> set[int]:
    """The colors at both ends of colored edge e other than its own."""
    u, v = state.graph.edges[e]
    common = state.at[u].keys() & state.at[v].keys()
    common.discard(state.colors[e])
    return common


def _cycles_through_edge(state: ColorState, e: int, scanned: frozenset[int] | range, second: set[int]) -> list[tuple]:
    """The keys of the bichromatic cycles through edge e whose largest edge
    in ``scanned`` is e, one per workable second color; e must be in
    ``scanned``.

    ``second`` holds the colors at both ends of e other than e's own (the
    cycle's first and last edges carry such a color); such a color b starts
    a walk only when the far ends of both b-edges at e carry e's color a,
    since otherwise e lies on an (a, b) path.  A walk stops at the first
    edge f in ``scanned`` with f > e, and at an uncolored edge, which
    carries no color.  This finds every bichromatic cycle C that meets
    ``scanned`` exactly once over a sweep of ``scanned``: let e* be the
    largest edge of C in ``scanned``.  The walk from e* with C's second
    color goes around C and meets no larger scanned edge, so it finds C.  A
    walk from any other scanned edge of C with that color passes e* before
    it closes, so it stops there.  ``_color_edges`` calls this on each edge
    with a second color right after coloring it; the full sweep over every
    edge serves only the tests.
    """
    at, ends = state.at, state.graph.edges
    u, v = ends[e]
    a = state.colors[e]
    at_u, at_v = at[u], at[v]
    steps = range(state.walk_cap)
    out: list[tuple] = []
    for b in second:
        last, first = at_u[b], at_v[b]
        if (last > e and last in scanned) or (first > e and first in scanned):
            continue  # the walk would stop at its last or its first edge
        # the walk leaves v along its first edge, which cannot end at u
        x, y = ends[first]
        cur = x ^ y ^ v
        x, y = ends[last]
        if a not in at[cur] or a not in at[x ^ y ^ u]:
            continue  # a far end lacks a: no (a, b) cycle through e
        want, other = a, b
        walk = [e, first]
        for _ in steps:
            f = at[cur].get(want)
            if f is None or f == e or (f > e and f in scanned):
                break
            walk.append(f)
            x, y = ends[f]
            cur ^= x ^ y
            if cur == u:
                # closing edge carries color b: the cycle alternates a,b
                if want == b:
                    out.append(cycle_key(state.graph, walk))
                break
            want, other = other, want
        else:
            raise ContractError("alternating walk failed to terminate")
    return out


def all_bichromatic_cycles(state: ColorState) -> set[tuple]:
    """The key of every bichromatic cycle, each built once, from its largest edge."""
    found: set[tuple] = set()
    every_edge = range(state.graph.m)
    for e in every_edge:
        if state.colors[e] is not None:
            found.update(_cycles_through_edge(state, e, every_edge, _second_colors(state, e)))
    return found


def find_bichromatic_cycle(state: ColorState, restrict: frozenset[int] | None = None) -> tuple | None:
    """The least bichromatic cycle's key, or None; with ``restrict``, the
    least of the cycles that share an edge with that edge set.  Only the
    tests and ``perfbench/child.py`` call it, and the latter wraps it by
    name, so it stays until the benchmark changes."""
    return CycleIndex(all_bichromatic_cycles(state)).least(restrict)


class CycleIndex:
    """Incrementally maintained set of the keys of all current bichromatic
    cycles.  The index starts from ``cycles``, the key of every bichromatic
    cycle: in ``col_alg`` those the greedy pass collected, each from its
    largest edge; the tests pass ``all_bichromatic_cycles(state)``.  A
    cycle's status only changes when one of its edges is recolored, so
    after recoloring the edge set ``dirty`` it suffices to drop the stored
    cycles touching it and to add ``found``, the keys the recoloring's
    walks closed (``_color_edges`` over ``dirty`` in index order, walking
    over ``dirty``).  Those are exactly the bichromatic cycles that now
    meet ``dirty``: each is found from its largest edge e in ``dirty``,
    when all its edges are final, and a walk from e stops at any larger
    edge of ``dirty``, which is still to be recolored, so it closes only
    final cycles.  It is the only detector of ``col_alg``; the tests hold
    it against full rescans, and ``perfbench/child.py`` wraps ``__init__``
    and ``refresh_after`` by name, so those stay until the benchmark
    changes.
    """

    def __init__(self, cycles: set[tuple]):
        self.cycles = cycles

    def refresh_after(self, dirty: frozenset[int], found: list[tuple]) -> None:
        self.cycles = {key for key in self.cycles if dirty.isdisjoint(key[1])}
        self.cycles.update(found)

    def least(self, restrict: frozenset[int] | None = None) -> tuple | None:
        pool = self.cycles if restrict is None else (key for key in self.cycles if not restrict.isdisjoint(key[1]))
        return min(pool, default=None)


class ColorRunStats(RunStats):
    """A coloring run's ``RunStats``: steps are recolor calls, and ``trace``
    holds (cycle key, depth) per call, the key being the cycle itself; the
    root calls, one per phase, are the trace's depth-0 keys."""

    __slots__ = ()

    @property
    def cycle_lengths(self) -> list[int]:
        return [key[0] for key, _ in self.trace]


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
    the least such cycle is handled recursively (``driver.resample_loop``
    over a ``CycleIndex`` on the run's one ``ColorState``).  Returns that
    state; on termination its coloring is proper and has no bichromatic
    cycle of any length.
    """
    seed, rng, limit = start_run(seed, step_limit, graph.m)
    state, cycles = greedy_4acyclic(graph, k, rng)
    index = CycleIndex(cycles)

    def recolor(key: tuple) -> None:
        dirty = frozenset(key[1])  # the key's edges are sorted: recolored in index order
        index.refresh_after(dirty, _color_edges(state, key[1], rng, dirty))

    trace, terminated = resample_loop(index.least, lambda top: index.least(frozenset(top[1])), recolor, limit)
    return state, ColorRunStats(trace, terminated, seed, limit)


class VerifyResult(_Frozen):
    """Verdict of ``verify_acyclic``: properness, acyclicity and, for a
    proper coloring with a bichromatic cycle, the walk of one such cycle."""

    __slots__ = ("proper", "acyclic", "witness")

    def __init__(self, proper: bool, acyclic: bool, witness: tuple[int, ...] | None):
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
    does not grow with k.  An a-edge {u, v} with b at both ends joins its
    ends and the b-edges {u, x}, {v, y}, each from its lower end, unless x
    or y lacks a: then it ends an (a, b) path holding all three.  So each
    edge of an (a, b)-cycle is joined.  A union inside one set closes a
    bichromatic cycle: the witness is the walk of that edge plus the
    alternating path back between its ends, not necessarily the least
    cycle.  A coloring outside the palette 0..k-1 or an improper one
    reports proper=False and acyclic=False without a witness.
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
                bu, bv = nb_u[b], nb_v[b]
                if a not in nb[bu] or a not in nb[bv]:
                    continue  # a path end: no cycle through these three edges
                base = b * n
                # the a-edge, then the b-edges at u and at v, from their lower ends
                for lo, hi in ((u, v), (u, bu), (v, bv)):
                    if hi < lo:
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


def _witness(graph: Graph, nb: list[dict[int, int]], lo: int, hi: int, a: int, b: int) -> tuple[int, ...]:
    """The walk of edge {lo, hi} of the (a, b) subgraph plus the alternating
    path from hi back to lo, which exists because both ends already share
    a union-find set; ``cycle_key`` checks that it is a cycle."""
    want = b if nb[hi].get(a) == lo else a
    walk, cur = [graph.edge_index(lo, hi)], hi
    while cur != lo:
        nxt = nb[cur][want]
        walk.append(graph.edge_index(cur, nxt))
        cur = nxt
        want = a if want == b else b
    cycle_key(graph, walk)
    return tuple(walk)
