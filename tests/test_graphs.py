import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_girth
from lllcolor.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    petersen_graph,
    random_regular_graph,
    star_graph,
)


def test_basic_construction():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.m == 3
    assert g.edges[1] == (1, 2)  # endpoints normalized
    assert g.degrees == [1, 2, 2, 1]
    assert g.max_degree == 2
    assert g.edge_index(1, 2) == 1 and g.edge_index(2, 1) == 1
    assert g.edge_index(0, 3) is None


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(-3, [])


def test_girth_values():
    assert cycle_graph(6).girth() == 6
    assert petersen_graph().girth() == 5
    assert complete_graph(4).girth() == 3
    assert path_graph(5).girth() is None
    assert star_graph(4).girth() is None
    assert complete_graph(2).girth() is None


def grid_graph(rows: int, cols: int) -> Graph:
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range(rows * cols - cols)]
    return Graph(rows * cols, edges)


def hypercube_graph(dim: int) -> Graph:
    n = 1 << dim
    return Graph(n, [(v, v | 1 << b) for v in range(n) for b in range(dim) if not v & 1 << b])


def random_forest(n: int, rng: random.Random, chords: int = 0) -> Graph:
    """Each vertex but the first of each tree hangs off an earlier one; then
    `chords` extra non-edges are added, which may close cycles."""
    edges = {(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.9}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges |= set(rng.sample(pairs, min(chords, len(pairs))))
    return Graph(n, sorted(edges))


def disjoint_union(first: Graph, second: Graph) -> Graph:
    shift = first.n_vertices
    return Graph(shift + second.n_vertices, first.edges + [(u + shift, v + shift) for u, v in second.edges])


def subdivided(graph: Graph, times: int) -> Graph:
    """Each edge replaced by a path through `times` new vertices."""
    n, edges = graph.n_vertices, []
    for u, v in graph.edges:
        path = [u, *range(n, n + times), v]
        n += times
        edges += zip(path, path[1:])
    return Graph(n, edges)


def with_pendant_trees(graph: Graph, size: int, rng: random.Random) -> Graph:
    """`size` new vertices, each hanging off a random earlier vertex."""
    n, edges = graph.n_vertices, list(graph.edges)
    for v in range(n, n + size):
        edges.append((rng.randrange(v), v))
    return Graph(n + size, edges)


def girth_cases():
    rng = random.Random(8)
    yield from (cycle_graph(n) for n in range(3, 41))
    yield from (path_graph(n) for n in (0, 1, 2, 3, 17))
    yield from (star_graph(n) for n in (1, 2, 5))
    yield from (complete_graph(n) for n in range(2, 9))
    yield petersen_graph()
    yield from (grid_graph(r, c) for r, c in ((1, 7), (2, 2), (3, 5), (7, 7)))
    yield from (hypercube_graph(d) for d in range(1, 7))
    yield from (gnp_graph(rng.randint(1, 40), rng.choice((0.03, 0.06, 0.1, 0.3)), seed=i) for i in range(300))
    yield from (random_regular_graph(rng.choice((2, 3, 4)), 2 * rng.randint(3, 20), seed=i) for i in range(100))
    yield from (random_forest(rng.randint(1, 40), rng, chords=rng.randint(0, 2)) for _ in range(100))
    for tree, cycle in ((path_graph(12), cycle_graph(5)), (star_graph(6), cycle_graph(9)),
                        (random_forest(30, rng), cycle_graph(30)), (path_graph(1), complete_graph(4))):
        yield disjoint_union(tree, cycle)  # tree vertices first: peeled before any search
        yield disjoint_union(cycle, tree)  # tree vertices after the cycle's
    for times in (1, 2, 5):  # girth grows with the subdivision
        yield from (subdivided(g, times) for g in (complete_graph(4), petersen_graph(), hypercube_graph(3)))
        yield subdivided(random_regular_graph(3, 12, seed=times), times)
    for n in (3, 4, 9, 20):  # trees peel off before and between searches
        yield from (with_pendant_trees(cycle_graph(n), rng.randint(1, 30), rng) for _ in range(5))
    yield from (with_pendant_trees(complete_graph(5), 20, rng), with_pendant_trees(petersen_graph(), 25, rng))


def test_girth_matches_reference():
    for g in girth_cases():
        assert g.girth() == reference_girth(g), g.edges


class CountingAdj(list):
    """Adjacency list that counts how often a vertex's list is read."""

    reads = 0

    def __getitem__(self, idx):
        self.reads += 1
        return super().__getitem__(idx)


@pytest.mark.parametrize("graph, bound", [
    (path_graph(20000), 2 * (20000 + 19999)),  # peeled whole, no search
    (complete_graph(30), 30),  # best == 3 after the first start
    (cycle_graph(20000), 2 * (20000 + 20000)),  # one search, then the rest peels
])
def test_girth_work_bound(graph, bound):
    graph.adj = CountingAdj(graph.adj)
    graph.girth()
    assert graph.adj.reads <= bound


def test_graph_memory_per_edge():
    # the benchmark's dense graph (24-regular, n=600, m=7200): the edge
    # list, the end-pair index and the neighbour lists take about 140 B
    # per edge
    edges = random_regular_graph(24, 600, seed=0).edges
    tracemalloc.start()
    try:
        graph = Graph(600, edges)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / graph.m < 200


def test_edge_list_roundtrip():
    g = petersen_graph()
    text = g.to_edge_list()
    h = Graph.from_edge_list(text)
    assert h.n_vertices == g.n_vertices and h.edges == g.edges


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(graphs())
def test_edge_list_roundtrip_generated(g):
    h = Graph.from_edge_list(g.to_edge_list())
    assert h.n_vertices == g.n_vertices and h.edges == g.edges


def test_edge_list_parsing():
    text = "c comment\np edges 3 2\n0 1\n1 2\n"
    g = Graph.from_edge_list(text)
    assert g.n_vertices == 3 and g.m == 2
    with pytest.raises(ValueError):
        Graph.from_edge_list("0 1\n")  # no header
    with pytest.raises(ValueError):
        Graph.from_edge_list("p edges 3 2\n0 1\n")  # count mismatch
    with pytest.raises(ValueError):
        Graph.from_edge_list("p nodes 3 1\n0 1\n")
    with pytest.raises(ValueError):
        Graph.from_edge_list("p edges 3 1\n0 1 2\n")


def test_generators():
    assert cycle_graph(5).m == 5
    assert complete_graph(5).m == 10
    assert star_graph(6).max_degree == 6
    pet = petersen_graph()
    assert pet.n_vertices == 10 and pet.m == 15
    assert all(d == 3 for d in pet.degrees)


def test_gnp_deterministic_and_simple():
    a = gnp_graph(30, 0.2, seed=5)
    b = gnp_graph(30, 0.2, seed=5)
    assert a.edges == b.edges
    assert gnp_graph(30, 0.0, seed=1).m == 0
    assert gnp_graph(10, 1.0, seed=1).m == 45
    for prob in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError):
            gnp_graph(10, prob, seed=1)


def test_random_regular():
    g = random_regular_graph(5, 50, seed=11)
    assert g.n_vertices == 50 and all(d == 5 for d in g.degrees)
    h = random_regular_graph(5, 50, seed=11)
    assert g.edges == h.edges
    for degree, n in ((3, 5), (30, 20), (5, 5), (-1, 4)):  # odd n*d, d >= n, d < 0
        with pytest.raises(ValueError):
            random_regular_graph(degree, n, seed=1)


def test_random_regular_draw_order_is_pinned():
    # same seed, same graph: the edge sets of a (d, n, seed) grid hash to a
    # digest frozen when the pairing model came from an outside library, so
    # the stdlib port keeps its shuffles, retry order, repair scan and
    # restarts (6-regular n=12 restarts 34 times over the 20 seeds);
    # 11-regular n=12 and 19-regular n=20 are complete graphs, 24-regular
    # n=600 is the benchmark's dense graph
    digest = hashlib.sha256()
    for d, n in ((0, 5), (1, 8), (2, 30), (3, 10), (4, 9), (5, 50), (6, 12), (11, 12), (19, 20), (24, 600)):
        for seed in range(20):
            digest.update(repr((d, n, seed, random_regular_graph(d, n, seed=seed).edges)).encode())
    assert digest.hexdigest() == "22606b771b05314a85a707053a2204f98dc8c48bb1fb07e444bc1e9f631fe2ec"
