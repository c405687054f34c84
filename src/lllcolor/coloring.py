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
pass keeps the partial coloring proper with no bichromatic 4-cycle.

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
unique (a,b)-bichromatic cycle through e.  The loop keeps them in an
incremental index; the full sweep serves the verifier and the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .engine import ContractError, default_step_limit, resample_loop
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

    def vertices(self, graph: Graph) -> list[int]:
        out = []
        prev = set(graph.edges[self.edges[-1]])
        for idx in self.edges:
            here = set(graph.edges[idx])
            out.append((prev & here).pop())
            prev = here
        return out

    def __eq__(self, other):
        return isinstance(other, Cycle) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        return f"Cycle(edges={self.edges})"


@dataclass
class EdgeColoring:
    """Color per edge index in 0..k-1; None only during the greedy pass."""

    k: int
    colors: list[int | None]

    @classmethod
    def empty(cls, k: int, m: int) -> "EdgeColoring":
        return cls(k, [None] * m)

    def fully_colored(self) -> bool:
        return all(c is not None for c in self.colors)


@dataclass
class ColorAudit:
    """Instrumentation of a coloring run: every color decision is checked
    against the safety bounds, every assignment against local properness
    and 4-acyclicity, and every root recoloring against the no-regression
    rule for edges outside all bichromatic cycles."""

    decisions: int = 0
    max_forbidden: int = 0
    min_available: int | None = None
    local_violations: list[str] = field(default_factory=list)
    progress_violations: list[str] = field(default_factory=list)

    def record_decision(self, n_forbidden: int, n_available: int) -> None:
        self.decisions += 1
        self.max_forbidden = max(self.max_forbidden, n_forbidden)
        if self.min_available is None or n_available < self.min_available:
            self.min_available = n_available

    def check_local(self, graph: Graph, coloring: EdgeColoring, e: int) -> None:
        c = coloring.colors[e]
        u, v = graph.edges[e]
        for vertex in (u, v):
            for _, idx in graph.adj[vertex]:
                if idx != e and coloring.colors[idx] == c:
                    self.local_violations.append(f"edge {e}: color {c} repeats at vertex {vertex}")
        for x, e1 in graph.adj[u]:
            c1 = coloring.colors[e1]
            if e1 == e or c1 is None:
                continue
            for y, e2 in graph.adj[v]:
                if e2 == e or x == y or coloring.colors[e2] != c1:
                    continue
                e3 = graph.edge_index(x, y)
                if e3 is not None and coloring.colors[e3] == c:
                    self.local_violations.append(f"edge {e}: bichromatic 4-cycle via edges {e1},{e3},{e2}")

    def record_progress(self, before: frozenset[int], after: frozenset[int]) -> None:
        leaked = after - before
        if leaked:
            self.progress_violations.append(f"edges {sorted(leaked)} entered a bichromatic cycle across a root call")

    @property
    def clean(self) -> bool:
        return not self.local_violations and not self.progress_violations


def forbidden_colors(graph: Graph, coloring: EdgeColoring, e: int) -> set[int]:
    """Colors that would break properness or close a bichromatic 4-cycle at e.

    Only colored edges contribute; e's own current color (if any) does not.
    The result has at most 2*(maxdeg - 1) members, else ContractError.
    """
    if not (0 <= e < graph.m):
        raise ContractError(f"edge index {e} out of range")
    u, v = graph.edges[e]
    colors = coloring.colors
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
    if len(forbidden) > 2 * (graph.max_degree - 1):
        raise ContractError(f"forbidden set of {len(forbidden)} exceeds 2*(maxdeg-1) at edge {e}")
    return forbidden


def _assign(graph: Graph, coloring: EdgeColoring, e: int, rng: random.Random, audit: ColorAudit | None) -> None:
    forb = forbidden_colors(graph, coloring, e)
    available = [c for c in range(coloring.k) if c not in forb]
    if len(available) < coloring.k - 2 * (graph.max_degree - 1):
        raise ContractError(f"palette margin violated at edge {e}: {len(available)} colors available")
    coloring.colors[e] = rng.choice(available)
    if audit is not None:
        audit.record_decision(len(forb), len(available))
        audit.check_local(graph, coloring, e)


def greedy_4acyclic(graph: Graph, k: int, rng: random.Random, audit: ColorAudit | None = None) -> EdgeColoring:
    """Color edges in index order, uniformly among the non-forbidden colors.

    The output is proper with no bichromatic 4-cycle, and at least
    k - 2*(maxdeg - 1) colors were available at every single decision.
    """
    if k < 2 * graph.max_degree - 1:
        raise PaletteError(f"k={k} below the safety threshold {2 * graph.max_degree - 1}")
    coloring = EdgeColoring.empty(k, graph.m)
    for e in range(graph.m):
        _assign(graph, coloring, e, rng, audit)
    return coloring


def _color_maps(graph: Graph, coloring: EdgeColoring) -> list[dict[int, int]]:
    """Per-vertex color -> incident edge index; rejects improper colorings."""
    maps: list[dict[int, int]] = [dict() for _ in range(graph.n_vertices)]
    for idx, (u, v) in enumerate(graph.edges):
        c = coloring.colors[idx]
        if c is None:
            continue
        for vertex in (u, v):
            if c in maps[vertex]:
                raise ContractError(f"improper coloring: color {c} repeats at vertex {vertex}")
            maps[vertex][c] = idx
    return maps


def _cycles_through_edge(graph: Graph, maps: list[dict[int, int]], coloring: EdgeColoring, e: int) -> list[Cycle]:
    """All bichromatic cycles through edge e, one per workable second color."""
    u, v = graph.edges[e]
    a = coloring.colors[e]
    out: list[Cycle] = []
    candidates = (maps[u].keys() & maps[v].keys()) - {a}
    for b in candidates:
        cur, want = v, b
        walk = [e]
        guard = 2 * graph.m + 4
        while guard:
            guard -= 1
            f = maps[cur].get(want)
            if f is None or f == e:
                break
            walk.append(f)
            nxt = graph.other_end(f, cur)
            if nxt == u:
                # closing edge carries color b: the cycle alternates a,b
                if want == b:
                    out.append(Cycle.from_walk(graph, walk))
                break
            cur = nxt
            want = a if want == b else b
        else:
            raise ContractError("alternating walk failed to terminate")
    return out


def all_bichromatic_cycles(graph: Graph, coloring: EdgeColoring) -> dict[tuple, Cycle]:
    maps = _color_maps(graph, coloring)
    found: dict[tuple, Cycle] = {}
    for e in range(graph.m):
        if coloring.colors[e] is None:
            continue
        for cyc in _cycles_through_edge(graph, maps, coloring, e):
            found[cyc.key] = cyc
    return found


def find_bichromatic_cycle(graph: Graph, coloring: EdgeColoring, restrict: frozenset[int] | None = None) -> Cycle | None:
    """Least bichromatic cycle under the canonical order, or None.

    With ``restrict``, only cycles sharing an edge with the given edge set
    are eligible; the least eligible cycle is still chosen globally.
    """
    found = all_bichromatic_cycles(graph, coloring)
    pool = [c for c in found.values() if restrict is None or (c.edge_set & restrict)]
    return min(pool) if pool else None


def bichromatic_edge_set(graph: Graph, coloring: EdgeColoring) -> frozenset[int]:
    """Union of the edge sets of all bichromatic cycles."""
    out: set[int] = set()
    for cyc in all_bichromatic_cycles(graph, coloring).values():
        out |= cyc.edge_set
    return frozenset(out)


def _is_bichromatic(coloring: EdgeColoring, cycle: Cycle) -> bool:
    return len({coloring.colors[e] for e in cycle.edges}) == 2


class CycleIndex:
    """Incrementally maintained set of all current bichromatic cycles.

    A cycle's status only changes when one of its edges is recolored, so
    after recoloring an edge set it suffices to revalidate the stored
    cycles touching it and to rescan for new cycles through those edges.
    It is the only detector of ``col_alg``; the tests hold both against
    full rescans.
    """

    def __init__(self, graph: Graph, coloring: EdgeColoring):
        self.graph = graph
        self.coloring = coloring
        self.cycles: dict[tuple, Cycle] = all_bichromatic_cycles(graph, coloring)

    def refresh_after(self, dirty: frozenset[int]) -> None:
        for key in [k for k, c in self.cycles.items() if c.edge_set & dirty]:
            if not _is_bichromatic(self.coloring, self.cycles[key]):
                del self.cycles[key]
        maps = _color_maps(self.graph, self.coloring)
        for e in dirty:
            for cyc in _cycles_through_edge(self.graph, maps, self.coloring, e):
                self.cycles[cyc.key] = cyc

    def least(self, restrict: frozenset[int] | None = None) -> Cycle | None:
        pool = [c for c in self.cycles.values() if restrict is None or (c.edge_set & restrict)]
        return min(pool) if pool else None


@dataclass
class ColorRunStats:
    """Per-run accounting: steps are recolor calls, phases are root calls,
    and ``trace`` holds (cycle key, depth) per call, depth 0 for roots."""

    steps: int
    phases: int
    trace: list[tuple[tuple, int]]
    terminated: bool
    seed: int
    step_limit: int
    audit: ColorAudit | None = None

    @property
    def cycle_lengths(self) -> list[int]:
        return [key[0] for key, _ in self.trace]

    @property
    def root_cycles(self) -> list[tuple[int, ...]]:
        return [key[1] for key, depth in self.trace if depth == 0]

    def to_json_dict(self) -> dict:
        return {"steps": self.steps, "phases": self.phases, "seed": self.seed, "terminated": self.terminated}


def col_alg(
    graph: Graph,
    k: int,
    seed: int | None = None,
    step_limit: int | None = None,
    audit: bool = False,
) -> tuple[EdgeColoring, ColorRunStats]:
    """Greedy pass, then resample bichromatic cycles until none remains.

    While some bichromatic cycle exists, the least one is recolored (edges
    in index order, each uniformly among the safe colors); while any
    bichromatic cycle shares an edge with the cycle of the current call,
    the least such cycle is handled recursively (``engine.resample_loop``
    over a ``CycleIndex``).  On termination the coloring is proper and has
    no bichromatic cycle of any length.
    """
    if k < 2 * graph.max_degree - 1:
        raise PaletteError(f"k={k} below the safety threshold {2 * graph.max_degree - 1}")
    if step_limit is not None and step_limit < 0:
        raise ContractError(f"step_limit must be >= 0, got {step_limit}")
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
    rng = random.Random(seed)
    audit_obj = ColorAudit() if audit else None

    coloring = greedy_4acyclic(graph, k, rng, audit_obj)
    limit = default_step_limit(graph.m) if step_limit is None else step_limit
    index = CycleIndex(graph, coloring)

    def recolor(cycle: Cycle) -> None:
        for e in sorted(cycle.edges):
            _assign(graph, coloring, e, rng, audit_obj)
        index.refresh_after(cycle.edge_set)

    steps, phases, trace, terminated, snapshots = resample_loop(
        index.least,
        lambda top: index.least(top.edge_set),
        recolor,
        limit,
        (lambda: bichromatic_edge_set(graph, coloring)) if audit else None,
    )
    for before, after in snapshots or ():
        audit_obj.record_progress(before, after)
    trace = [(cycle.key, depth) for cycle, depth in trace]
    return coloring, ColorRunStats(steps, phases, trace, terminated, seed, limit, audit_obj)


@dataclass(frozen=True)
class VerifyResult:
    proper: bool
    acyclic: bool
    witness: Cycle | None


def verify_acyclic(graph: Graph, coloring: EdgeColoring) -> VerifyResult:
    """Full verification: palette membership and properness by adjacency
    scan, acyclicity by an exhaustive alternating-walk sweep.  A failing
    coloring yields a witness bichromatic cycle; a proper coloring in the
    palette 0..k-1 is a precondition of the sweep, so any other coloring
    reports proper=False and acyclic=False without a witness."""
    if not coloring.fully_colored():
        raise ContractError("verify_acyclic requires a fully colored graph")
    if not all(0 <= c < coloring.k for c in coloring.colors):
        return VerifyResult(False, False, None)
    for vertex in range(graph.n_vertices):
        seen: set[int] = set()
        for _, idx in graph.adj[vertex]:
            c = coloring.colors[idx]
            if c in seen:
                return VerifyResult(False, False, None)
            seen.add(c)
    witness = find_bichromatic_cycle(graph, coloring)
    return VerifyResult(True, witness is None, witness)


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

    def paths(cur: int, remaining: int, visited: set[int]) -> int:
        if remaining == 1:
            return sum(1 for w, idx in graph.adj[cur] if idx != e and w == u)
        total = 0
        for w, idx in graph.adj[cur]:
            if idx == e or w == u or w in visited:
                continue
            visited.add(w)
            total += paths(w, remaining - 1, visited)
            visited.remove(w)
        return total

    count = paths(v, length - 1, {v})
    if count > branching ** (length - 2):
        raise ContractError(f"{count} cycles through edge {e} exceed the branching bound")
    return count
