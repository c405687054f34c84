"""Simple undirected graphs with indexed edges, the check of a cycle's walk,
file IO and generators."""

from __future__ import annotations

import random
import re
from itertools import chain

from . import MAX_HEADER_VERTICES, ContractError, token_error

# The shape ``Graph.to_edge_list`` writes, which ``from_edge_list`` parses in
# bulk: the header, and a newline that neither starts a `u v` line nor ends
# the text.  Both are compiled on first use, by ``re``'s cache.
_PLAIN_HEADER = r"p edges ([0-9]{1,9}) ([0-9]{1,9})\n"
_IRREGULAR_LINE = r"\n(?![0-9]{1,9} [0-9]{1,9}\n|\Z)"
PARSE_CHUNK = 8192  # characters split at once by the bulk parse


class Graph:
    """Simple graph; edges keep their input order and are indexed 0..m-1."""

    def __init__(self, n_vertices: int, edges):
        if n_vertices < 0:
            raise ValueError(f"vertex count {n_vertices} is negative")
        self.n_vertices = n_vertices
        self.edges: list[tuple[int, int]] = []
        self._edge_index: dict[tuple[int, int], int] = {}
        self.adj: list[list[int]] = [[] for _ in range(n_vertices)]  # neighbours, in edge order
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            e = (u, v) if u < v else (v, u)
            if e in self._edge_index:
                raise ValueError(f"parallel edge ({u},{v})")
            self._edge_index[e] = len(self.edges)
            self.edges.append(e)
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.degrees = [len(a) for a in self.adj]
        self.max_degree = max(self.degrees, default=0)
        self._girth: int | None | str = "unset"

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_index(self, u: int, v: int) -> int | None:
        return self._edge_index.get((u, v) if u < v else (v, u))

    def girth(self) -> int | None:
        """Length of a shortest cycle, None if the graph is a forest.

        One BFS per start vertex (Itai & Rodeh, SIAM J. Comput. 1978): a
        non-tree edge seen at distance levels d(u), d(w) closes a walk of
        length d(u)+d(w)+1 that contains a cycle, and a search started on
        a shortest cycle meets one of exactly the girth's length.  The
        search does only the work the answer needs:

        - Peeling: a vertex of degree < 2 lies on no cycle, so the graph
          is first peeled to its 2-core, and after the search from s, s
          is deleted and what that leaves is peeled.  Every walk a later
          search meets lies in a subgraph, so it is still at least the
          girth; and no vertex of a shortest cycle C is peeled before the
          first start on C, so that search runs on a graph holding all of
          C and meets |C|.
        - Depth cutoff: level d is not expanded once 2d+1 >= best.
          Expanding level d yields walks of length 2d+1 or 2d+2 (a walk
          of 2d to level d-1 was seen while level d-1 was expanded), and
          every walk is at least the girth, so no later level beats best.
        - The sweep stops once best == 3, the least possible girth.
        - `dist` and `parent` are allocated once; after each search only
          the entries it touched are reset, so a search costs its ball.
          In a simple graph the parent vertex stands for the tree edge
          that reached a vertex, so it is the one neighbour skipped.
        """
        if self._girth != "unset":
            return self._girth
        adj = self.adj
        dist = [-1] * self.n_vertices
        parent = [-1] * self.n_vertices  # BFS tree parent of the vertex
        alive = [True] * self.n_vertices
        degree = list(self.degrees)  # among alive vertices

        def peel(doomed: list[int]) -> None:
            while doomed:
                v = doomed.pop()
                if not alive[v]:
                    continue
                alive[v] = False
                for w in adj[v]:
                    if alive[w]:
                        degree[w] -= 1
                        if degree[w] == 1:
                            doomed.append(w)

        peel([v for v in range(self.n_vertices) if degree[v] < 2])
        best: int | None = None
        for s in range(self.n_vertices):
            if not alive[s]:
                continue
            dist[s] = 0
            touched = [s]
            level = [s]
            depth = 0
            while level and (best is None or 2 * depth + 1 < best):
                nxt = []
                for u in level:
                    up = parent[u]
                    for w in adj[u]:
                        if w == up or not alive[w]:
                            continue
                        if dist[w] == -1:
                            dist[w] = depth + 1
                            parent[w] = u
                            nxt.append(w)
                        else:
                            cand = depth + dist[w] + 1
                            if best is None or cand < best:
                                best = cand
                touched += nxt
                level = nxt
                depth += 1
            for v in touched:
                dist[v] = -1
                parent[v] = -1
            if best == 3:
                break
            peel([s])
        self._girth = best
        return best

    @classmethod
    def from_edge_list(cls, text: str) -> "Graph":
        """Parse the `p edges <l> <m>` header, then one `u v` line per edge.

        Text in exactly the shape ``to_edge_list`` writes (a header of two
        counts of at most 9 digits, then m lines of two such numbers, each
        line ending in a newline, and at most ``MAX_HEADER_VERTICES``
        vertices) takes a bulk path: the shape is checked by regular
        expressions that run in C and allocate nothing, then each chunk of
        about ``PARSE_CHUNK`` characters, cut after a newline, is split
        and converted in C, every vertex is mapped to one shared int
        object per vertex, and the values stream as pairs into the
        constructor; no list of lines, tokens or edges is built.  Any
        other text, and any error while building, goes through the line
        loop, the one place that words errors, with their line numbers.
        """
        head = re.match(_PLAIN_HEADER, text)
        if head:
            n, m = int(head[1]), int(head[2])
            body = head.end()
            plain = text.count("\n", body) == m and not re.compile(_IRREGULAR_LINE).search(text, body - 1)
            if plain and n <= MAX_HEADER_VERTICES:
                values = chain.from_iterable(_vertex_chunks(text, body, n))
                try:
                    return cls(n, zip(values, values))
                except (IndexError, ValueError):
                    pass  # a vertex >= n, a loop or a parallel edge: the line loop words it
        return cls._from_lines(text)

    @classmethod
    def _from_lines(cls, text: str) -> "Graph":
        # the line loop: any text, every error with its line number; a data
        # line is held to the package's token rule, as DIMACS's are
        n = m = None
        edges: list[tuple[int, int]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if not line.isascii() or "_" in line:
                raise token_error(lineno, line)
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
        return cls(n, edges)

    @classmethod
    def read_edge_list(cls, path) -> "Graph":
        with open(path) as fh:
            return cls.from_edge_list(fh.read())

    def to_edge_list(self) -> str:
        lines = [f"p edges {self.n_vertices} {self.m}"]
        lines += [f"{u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


def _vertex_chunks(text: str, start: int, n: int):
    # the numbers of text[start:], one iterator per chunk cut after a
    # newline, each number as the one int object of its vertex; IndexError
    # for a number >= n
    vertex = list(range(n)).__getitem__
    end = len(text)
    while start < end:
        stop = text.find("\n", start + PARSE_CHUNK) + 1 or end
        yield map(vertex, map(int, text[start:stop].split()))
        start = stop


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


def cycle_graph(length: int) -> Graph:
    if length < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(length, [(i, (i + 1) % length) for i in range(length)])


def path_graph(n_vertices: int) -> Graph:
    return Graph(n_vertices, [(i, i + 1) for i in range(n_vertices - 1)])


def complete_graph(n_vertices: int) -> Graph:
    edges = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
    return Graph(n_vertices, edges)


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def gnp_graph(n_vertices: int, prob: float, seed: int | None = None) -> Graph:
    if not (0 <= prob <= 1):
        raise ValueError(f"edge probability {prob} outside [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n_vertices)
        for v in range(u + 1, n_vertices)
        if rng.random() < prob
    ]
    return Graph(n_vertices, edges)


def random_regular_graph(degree: int, n_vertices: int, seed: int | None = None) -> Graph:
    """Random d-regular simple graph by pairing with repair and restart.

    The pairing model of Steger & Wormald (Combin. Probab. Comput. 8,
    1999).  Its draw order is a contract, pinned by a digest over a grid
    of (d, n, seed) in the tests, so a seed keeps giving the same graph:

    - each round shuffles the open stubs with one `random.Random(seed)`
      and pairs them off in order; a pair that would make a loop or a
      parallel edge is refused, and its two stubs stay open;
    - the next round's stubs are listed vertex by vertex, in the order in
      which the vertices were first refused;
    - after each round a scan looks for two open vertices that are not
      yet adjacent; it swaps a pair in place, which rebinds the outer
      loop variable for the rest of the inner loop;
    - when the scan finds no such pair, the attempt restarts from all
      stubs, with the same generator.

    With `seed=None` the generator is a fresh `random.Random()`, so the
    graph is not reproducible.  Edges are returned sorted.
    """
    if not (0 <= degree < n_vertices) or (degree * n_vertices) % 2:
        raise ValueError(f"no {degree}-regular simple graph on {n_vertices} vertices: need 0 <= d < n and n*d even")
    rng = random.Random(seed)
    edges = None
    while edges is None:
        edges = _pairing_attempt(degree, n_vertices, rng)
    return Graph(n_vertices, sorted(edges))


def _pairing_attempt(degree: int, n_vertices: int, rng: random.Random) -> set[tuple[int, int]] | None:
    # one attempt: rounds of pairing until every stub is paired, None once stuck
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n_vertices)) * degree
    while stubs:
        refused: dict[int, int] = {}  # vertex -> open stubs, in first-refused order
        rng.shuffle(stubs)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                refused[s1] = refused.get(s1, 0) + 1
                refused[s2] = refused.get(s2, 0) + 1
        if not _repairable(edges, refused):
            return None
        stubs = [v for v, count in refused.items() for _ in range(count)]
    return edges


def _repairable(edges: set[tuple[int, int]], refused: dict[int, int]) -> bool:
    # can some two open vertices still be joined?
    if not refused:
        return True
    for s1 in refused:
        for s2 in refused:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1  # rebinds s1 for the rest of this inner loop
            if (s1, s2) not in edges:
                return True
    return False
