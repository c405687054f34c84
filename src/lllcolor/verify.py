"""The verifier of acyclic edge colorings, on a raw color list.

It gates the ``color`` and ``verify`` commands, so it shares no code with
the detector it checks: it imports only the package and ``graphs``, never
``coloring``.  It builds its own per-vertex color -> neighbour maps and
checks that every 2-colored subgraph is a forest by a union-find over
(second color, vertex) keys, and its witness is a walk, a cycle's edge
indices in the order met, which ``graphs.cycle_key`` checks.
"""

from __future__ import annotations

from . import ContractError, _Frozen
from .graphs import Graph, cycle_key


class VerifyResult(_Frozen):
    """Verdict of ``verify_acyclic``: properness, acyclicity and, for a
    proper coloring with a bichromatic cycle, the walk of one such cycle."""

    __slots__ = ("proper", "acyclic", "witness")

    def __init__(self, proper: bool, acyclic: bool, witness: tuple[int, ...] | None):
        object.__setattr__(self, "proper", proper)
        object.__setattr__(self, "acyclic", acyclic)
        object.__setattr__(self, "witness", witness)


def verify_acyclic(graph: Graph, k: int, colors: list[int]) -> VerifyResult:
    """Full verification from the definition.

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
