import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert g.other_end(0, 0) == 1 and g.other_end(0, 1) == 0


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
