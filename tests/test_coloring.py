import hashlib
import math
import random
import tracemalloc

import pytest

from lllcolor import ContractError, coloring, driver
from lllcolor.coloring import (
    ColorState,
    CycleIndex,
    PaletteError,
    col_alg,
    find_bichromatic_cycle,
    greedy_4acyclic,
)
from lllcolor.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    cycle_key,
    gnp_graph,
    path_graph,
    petersen_graph,
    random_regular_graph,
    star_graph,
)
from lllcolor.verify import verify_acyclic

from conftest import (
    _IndexDraw,
    all_bichromatic_cycles,
    audited_col_alg,
    bichromatic_edge_set,
    brute_bichromatic_keys,
    brute_simple_cycles,
    color_edges_without_closing_edges,
    colored,
    forbidden_colors,
    random_proper_colors,
    reference_col_alg,
    reference_color_edges,
    reference_forbidden_colors,
    reference_verify_acyclic,
    reference_walk,
    reference_walk_starts,
    reference_walkable,
    two_hex_graph,
)


# -- forbidden colors ----------------------------------------------------------

def test_forbidden_path_only_adjacency():
    # path x-u-v-y: only the two adjacent colors are forbidden at {u,v}
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    assert forbidden_colors(colored(g, 3, [0, 1, None]), 2) == {0, 1}


def test_forbidden_closes_4cycle():
    # square u-v-y-x-u: {u,x} and {v,y} share a color, so the color of the
    # closing edge {x,y} is forbidden at {u,v} as well
    g = Graph(4, [(0, 3), (1, 2), (3, 2), (0, 1)])  # e0={u,x}, e1={v,y}, e2={x,y}, e3={u,v}
    assert forbidden_colors(colored(g, 4, [0, 0, 2, None]), 3) == {0, 2}


def test_forbidden_star_and_any_choice_stays_safe():
    delta = 6
    g = star_graph(delta)
    k = 2 * delta - 1
    forb = forbidden_colors(colored(g, k, list(range(delta - 1)) + [None]), delta - 1)
    assert forb == set(range(delta - 1))
    # stars have no cycles: every non-forbidden color keeps the coloring
    # proper and trivially 4-acyclic
    for c in range(k):
        if c in forb:
            continue
        verdict = verify_acyclic(g, k, list(range(delta - 1)) + [c])
        assert verdict.proper and verdict.acyclic


def test_forbidden_ignores_own_color_during_recoloring():
    # recoloring context: every edge colored; the queried edge's current
    # color does not forbid itself
    g = cycle_graph(4)
    assert forbidden_colors(colored(g, 4, [0, 1, 2, 1]), 0) == {1, 2}  # adjacency {1}, closing edge color 2


def test_cycle_walk_validation():
    g = two_hex_graph()
    assert cycle_key(g, (3, 4, 5, 0, 1, 2)) == (6, (0, 1, 2, 3, 4, 5))
    assert cycle_key(g, [0, 1, 2, 3, 4, 5]) == (6, (0, 1, 2, 3, 4, 5))
    with pytest.raises(ContractError, match="even number"):
        cycle_key(g, (0, 1, 2))  # odd
    with pytest.raises(ContractError, match="even number"):
        cycle_key(g, (0, 1))  # too short
    with pytest.raises(ContractError, match="share one vertex"):
        cycle_key(g, (0, 1, 2, 6))  # edges do not chain
    with pytest.raises(ContractError, match="repeated edge"):
        cycle_key(g, (0, 1, 1, 0))  # repeated edge
    # bowtie: squares 0-1-2-3 and 0-4-5-6 share vertex 0; the closed walk
    # around both chains its edges but visits vertex 0 twice
    bowtie = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)])
    assert cycle_key(bowtie, (0, 1, 2, 3)) == (4, (0, 1, 2, 3))
    with pytest.raises(ContractError, match="visits a vertex twice"):
        cycle_key(bowtie, (0, 1, 2, 3, 4, 5, 6, 7))


def test_forbidden_edge_out_of_range():
    g = cycle_graph(4)
    with pytest.raises(ContractError):
        forbidden_colors(ColorState(g, 3), 9)


def test_forbidden_matches_adjacency_scan():
    # the O(maxdeg) map reading against the adjacency scan, on every edge of
    # random partial and full proper colorings
    cases = [cycle_graph(6), two_hex_graph(), petersen_graph(), complete_graph(6), complete_graph(9)]
    rng = random.Random(31)
    checked = 0
    for g in cases:
        for _ in range(40):
            k = g.max_degree + rng.randrange(2 * g.max_degree)
            colors = random_proper_colors(g, k, rng, fill=rng.choice([0.5, 0.8, 1.0]))
            if colors is None:
                continue
            state = colored(g, k, colors)
            for e in range(g.m):
                assert forbidden_colors(state, e) == reference_forbidden_colors(g, colors, e)
                checked += 1
    assert checked > 2000


def _loop_write(monkeypatch, state: ColorState, e: int, index: int, shift: int | None = None) -> None:
    """One decision of the loop at edge e that draws free-color index
    ``index``.  With ``shift``, a module-level ``sorted`` that returns
    ``shift`` entries below every draw moves it ``shift`` colors up instead
    of past the forbidden set, so it can land on a taken color or outside
    the palette."""
    with monkeypatch.context() as patch:
        if shift is not None:
            patch.setattr(coloring, "sorted", lambda forbidden: [-1] * shift, raising=False)
        coloring._color_edges(state, (e,), _IndexDraw(index), frozenset({e}))


def test_improper_assign_raises(monkeypatch):
    # the decision loop is the only writer of the maps, and its write refuses
    # a color taken at an end before it changes anything
    # C4 edges {0,1}, {1,2}, {2,3}, {0,3}
    g = cycle_graph(4)
    state = colored(g, 4, [0, None, 1, 2])
    with pytest.raises(ContractError, match="repeats at vertex 1"):
        _loop_write(monkeypatch, state, 1, 0, shift=0)  # color 0 already sits at vertex 1 (edge 0)
    with pytest.raises(ContractError, match="repeats at vertex 2"):
        _loop_write(monkeypatch, state, 1, 1, shift=0)  # color 1 already sits at vertex 2 (edge 2)
    assert state.colors == [0, None, 1, 2]  # a refused write changes nothing
    assert state.at == [{0: 1, 2: 3}, {0: 0}, {1: 3}, {1: 2, 2: 0}]  # color -> far end
    _loop_write(monkeypatch, state, 1, 1)  # free colors 2, 3
    _loop_write(monkeypatch, state, 1, 1)  # recoloring an edge with its own color 3 is fine
    assert state.colors == [0, 3, 1, 2]
    with pytest.raises(ContractError, match="repeats at vertex 2"):
        _loop_write(monkeypatch, state, 2, 0, shift=3)  # recoloring into color 3, taken at vertex 2 (edge 1)
    _loop_write(monkeypatch, state, 0, 1)  # free colors 0, 1: the old color 0 leaves both endpoints of edge 0
    assert state.colors == [1, 3, 1, 2]
    assert state.at == [{1: 1, 2: 3}, {1: 0, 3: 2}, {3: 1, 1: 3}, {1: 2, 2: 0}]


def test_assign_outside_palette_raises(monkeypatch):
    # the loop's write refuses a color outside 0..k-1: moved past the palette
    # by the patched ``sorted``, or below it by an rng that hands out -1
    state = ColorState(path_graph(3), 3)
    for index, shift in ((0, 99), (0, 3), (2, 1), (-1, None)):
        with pytest.raises(ContractError, match="outside the palette"):
            _loop_write(monkeypatch, state, 0, index, shift)
    assert state.colors == [None, None] and state.at == [{}, {}, {}]


# -- greedy pass ---------------------------------------------------------------

def test_greedy_tree_minimum_palette():
    for seed in range(50):
        g = star_graph(4)
        state, _ = greedy_4acyclic(g, 2 * g.max_degree - 1, random.Random(seed))
        verdict = verify_acyclic(g, state.k, state.colors)
        assert verdict.proper and verdict.acyclic


def test_greedy_square_never_bichromatic():
    g = cycle_graph(4)
    for seed in range(200):
        state, _ = greedy_4acyclic(g, 3, random.Random(seed))
        verdict = verify_acyclic(g, 3, state.colors)
        assert verdict.proper and verdict.acyclic


def test_greedy_k5():
    # K5's even cycles all have length 4, so greedy output is fully acyclic
    g = complete_graph(5)
    for seed in range(10**3):
        state, _ = greedy_4acyclic(g, 2 * g.max_degree - 1, random.Random(seed))
        verdict = verify_acyclic(g, state.k, state.colors)
        assert verdict.proper and verdict.acyclic


def test_greedy_palette_too_small():
    with pytest.raises(PaletteError):
        greedy_4acyclic(cycle_graph(4), 2, random.Random(0))


def test_greedy_bichromatic_frequency_bound():
    # fixed hexagon, palette 5 (slack 1.74 with maxdeg 2): the chance the
    # whole cycle comes out bichromatic is at most (1/(1.74+1))^4 plus noise;
    # exact value here is (1/4)^4
    g = cycle_graph(6)
    gamma = 1.74
    n = 30_000
    hits = 0
    for seed in range(n):
        state, _ = greedy_4acyclic(g, 5, random.Random(seed))
        if len(set(state.colors)) == 2:
            hits += 1
    freq = hits / n
    bound = (1 / (gamma * (g.max_degree - 1) + 1)) ** 4
    sigma = math.sqrt(max(freq * (1 - freq), 1 / n) / n)
    assert freq <= bound + 3 * sigma


# -- bichromatic cycle detection ------------------------------------------------

def brute_force_graphs() -> list[Graph]:
    """Desk-scale graphs on which every simple cycle can be enumerated."""
    k33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    grid = Graph(9, [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
                 + [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)])
    return [cycle_graph(6), cycle_graph(8), two_hex_graph(), petersen_graph(), complete_graph(5),
            complete_graph(6), k33, grid]


def test_triangle_has_no_bichromatic_cycle():
    g = cycle_graph(3)
    assert find_bichromatic_cycle(colored(g, 3, [0, 1, 2])) is None


def test_hexagon_alternating_is_found():
    g = cycle_graph(6)
    cyc = find_bichromatic_cycle(colored(g, 3, [0, 1, 0, 1, 0, 1]))
    assert cyc == (6, (0, 1, 2, 3, 4, 5))


def test_two_disjoint_hexagons_least_and_restrict():
    g = two_hex_graph()
    colors = [0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3]
    state = colored(g, 4, colors)
    least = find_bichromatic_cycle(state)
    assert least == (6, (0, 1, 2, 3, 4, 5))
    second = find_bichromatic_cycle(state, restrict=frozenset({7}))
    assert second == (6, (6, 7, 8, 9, 10, 11))
    assert find_bichromatic_cycle(state, restrict=frozenset({0, 7})) == least
    # ordering oracle: enumerate everything and sort by canonical key
    keys = sorted(brute_bichromatic_keys(g, colors))
    assert keys[0] == least and len(keys) == 2


def _assert_least_cycles_match(state: ColorState, brute: set[tuple]) -> None:
    # the library's sweep, unrestricted and restricted to each edge, against
    # the least of the brute-force keys, all of them and those through e
    assert find_bichromatic_cycle(state) == min(brute, default=None)
    for e in range(state.graph.m):
        through = min((key for key in brute if e in key[1]), default=None)
        assert find_bichromatic_cycle(state, frozenset({e})) == through, (state.colors, e)


def test_detector_matches_brute_force_oracle():
    cases = [cycle_graph(6), cycle_graph(8), two_hex_graph(), petersen_graph(), complete_graph(5)]
    rng = random.Random(77)
    for g in cases:
        for _ in range(30):
            k = 2 * g.max_degree - 1 + rng.randrange(3)
            state, _ = greedy_4acyclic(g, k, random.Random(rng.randrange(2**30)))
            brute = brute_bichromatic_keys(g, state.colors)
            assert all_bichromatic_cycles(state) == brute
            _assert_least_cycles_match(state, brute)


def test_detector_matches_brute_force_on_arbitrary_colorings():
    # proper but otherwise arbitrary colorings, partly uncolored, with
    # palettes from maxdeg up: bichromatic 4-cycles and several cycles
    # per edge occur, unlike in greedy states
    rng = random.Random(4242)
    runs = cyclic = four_cycles = 0
    for g in brute_force_graphs():
        for fill in (0.5, 0.8, 1.0):
            for _ in range(20):
                k = g.max_degree + rng.randrange(3)
                colors = random_proper_colors(g, k, rng, fill)
                if colors is None:
                    continue
                brute = brute_bichromatic_keys(g, colors)
                state = colored(g, k, colors)
                assert all_bichromatic_cycles(state) == brute
                _assert_least_cycles_match(state, brute)
                runs += 1
                cyclic += bool(brute)
                four_cycles += any(length == 4 for length, _ in brute)
    assert runs >= 300 and cyclic >= 80 and four_cycles >= 40, (runs, cyclic, four_cycles)


def test_full_sweep_builds_each_cycle_once(monkeypatch):
    # the library's sweep walks each bichromatic cycle to the end only from
    # its largest edge: one cycle_key call per cycle of the oracle sweep
    built = []
    cycle_key = coloring.cycle_key

    def counting_cycle_key(graph, walk):
        built.append(walk)
        return cycle_key(graph, walk)

    monkeypatch.setattr(coloring, "cycle_key", counting_cycle_key)
    states = [greedy_4acyclic(complete_graph(20), 37, random.Random(seed))[0] for seed in range(20)]
    states += [colored(cycle_graph(6), 3, [0, 1] * 3), colored(cycle_graph(8), 3, [0, 1] * 4)]
    total = 0
    for state in states:
        built.clear()
        find_bichromatic_cycle(state)
        found = all_bichromatic_cycles(state)
        assert len(built) == len(found)
        total += len(found)
    assert total >= 20, total


def test_greedy_collects_exactly_the_full_sweep():
    # the cycles the greedy pass collects, each from its largest edge as that
    # edge is colored, are all bichromatic cycles of its final coloring
    rng = random.Random(12)
    corpus = [(g, 2 * g.max_degree - 1, range(30)) for g in brute_force_graphs()]
    corpus += [(complete_graph(20), 37, range(100)), (petersen_graph(), 5, range(100))]
    for n, p in ((12, 0.4), (20, 0.25), (30, 0.15), (40, 0.1)):
        for _ in range(5):
            g = gnp_graph(n, p, seed=rng.randrange(2**30))
            if g.max_degree:
                corpus.append((g, 2 * g.max_degree - 1, range(10)))
    runs = cyclic = 0
    for g, k, seeds in corpus:
        for seed in seeds:
            state, cycles = greedy_4acyclic(g, k, random.Random(seed))
            assert cycles == all_bichromatic_cycles(state)
            runs += 1
            cyclic += bool(cycles)
    assert runs >= 600 and cyclic >= 100, (runs, cyclic)


def test_col_alg_walks_once_per_decision(monkeypatch):
    # no full sweep runs: the greedy pass and each refresh walk only from the
    # edges they color, once per second color that passes the scanned-edge
    # test and the far-end guard as the maps read right after the decision,
    # and from no other; fed one edge at a time, the loop makes m + the
    # summed recolored cycle lengths decisions
    calls: list[tuple[int, int]] = []
    decisions = silent = 0
    walk, color_edges = coloring._walk, coloring._color_edges

    def counting(state, scanned, e, u, first, cur, a, b):
        calls.append((e, b))
        return walk(state, scanned, e, u, first, cur, a, b)

    def one_by_one(state, edges, rng, scanned):
        nonlocal decisions, silent
        found = []
        for e in edges:
            before = len(calls)
            found += color_edges(state, (e,), rng, scanned)
            u, v = state.graph.edges[e]
            second = (state.at[u].keys() & state.at[v].keys()) - {state.colors[e]}
            expected = [(e, b) for b in reference_walk_starts(state, e, scanned, second)]
            assert sorted(calls[before:]) == sorted(expected), (e, calls[before:], expected)
            decisions += 1
            silent += not expected
        return found

    def no_sweep(state, restrict=None):
        raise AssertionError("col_alg ran a full sweep")

    monkeypatch.setattr(coloring, "_walk", counting)
    monkeypatch.setattr(coloring, "_color_edges", one_by_one)
    monkeypatch.setattr(coloring, "find_bichromatic_cycle", no_sweep)
    steps = walked = 0
    for g, k in ((complete_graph(20), 37), (petersen_graph(), 5)):
        for seed in range(40):
            calls.clear()
            decisions = 0
            _, stats = col_alg(g, k, seed=seed)
            assert decisions == g.m + sum(stats.cycle_lengths)
            steps += stats.steps
            walked += len(calls)
    assert steps == 149, steps
    assert walked and silent, (walked, silent)


def test_greedy_walk_reuses_the_exact_second_colors(monkeypatch):
    # the greedy pass reads each second color's edges and far ends before
    # the draw and hands them to _walk after it: each walk's color b, b-edge
    # and far end must be those the maps hold after the assignment, and the
    # pass walks exactly from the second colors b whose far ends each carry
    # e's color on an edge that leads to a vertex carrying b, where e's
    # second colors are those its ends shared among the edges before it
    # when it was colored
    walk = coloring._walk
    walks: list[tuple[int, int]] = []

    def checked(state, scanned, e, u, first, cur, a, b):
        g = state.graph
        v = sum(g.edges[e]) - u
        assert (u, v) == g.edges[e] and a == state.colors[e]
        assert b in (state.at[u].keys() & state.at[v].keys()) - {a}
        assert cur == state.at[v][b] and first == g.edge_index(v, cur)
        walks.append((e, b))
        return walk(state, scanned, e, u, first, cur, a, b)

    monkeypatch.setattr(coloring, "_walk", checked)
    rng = random.Random(29)
    corpus = [(g, 2 * g.max_degree - 1, range(30)) for g in brute_force_graphs()]
    corpus.append((complete_graph(20), 37, range(30)))
    for n, p in ((12, 0.4), (20, 0.25), (30, 0.15)):
        for _ in range(3):
            g = gnp_graph(n, p, seed=rng.randrange(2**30))
            if g.max_degree:
                corpus.append((g, 2 * g.max_degree - 1, range(10)))
    seconded = decisions = near = started = 0
    for g, k, seeds in corpus:
        for seed in seeds:
            walks.clear()
            state, _ = greedy_4acyclic(g, k, random.Random(seed))
            decisions += g.m
            colors = state.colors
            expected = []
            for e, ends in enumerate(g.edges):

                def edge_before(w, c):  # w's edge of color c among the edges colored before e
                    return next((f for f in (g.edge_index(w, x) for x in g.adj[w]) if f < e and colors[f] == c), None)

                def leads_to(w, b):  # w's edge of e's color ends at a vertex carrying b
                    f = edge_before(w, colors[e])
                    return f is not None and edge_before(sum(g.edges[f]) - w, b) is not None

                # per end of e, color -> far end among the edges colored before e
                before = [{colors[f]: x for x in g.adj[w] if (f := g.edge_index(w, x)) < e} for w in ends]
                second = before[0].keys() & before[1].keys()
                seconded += bool(second)
                for b in second:
                    far = [far_at[b] for far_at in before]
                    near += all(edge_before(w, colors[e]) is not None for w in far)
                    if all(leads_to(w, b) for w in far):
                        expected.append((e, b))
            assert sorted(walks) == sorted(expected), (g.m, seed)
            started += len(expected)
    # near counts the starts of the one-sided guard, whose far ends carry e's
    # color: the second alternation drops most of them
    assert seconded >= decisions // 4 and near >= decisions // 8, (seconded, near, decisions)
    assert near > 5 * started >= 5 * 300, (near, started)


def test_walk_guard_matches_the_unguarded_walk():
    # _walk, the one walk of the decision loop and of the full sweep, checks
    # no far end up front: from every second color b that passes the
    # scanned-edge test it must close what the oracle walk closes, and die
    # where that one dies, also where a far end of e's b-edges lacks e's
    # color; over the full sweep's range and over recolor-style frozensets
    # (a cycle's edges, a random edge set)
    cases = [cycle_graph(6), two_hex_graph(), petersen_graph(), complete_graph(6), complete_graph(9)]
    rng = random.Random(47)
    closed = guarded = 0
    for g in cases:
        for _ in range(40):
            k = g.max_degree + rng.randrange(g.max_degree)
            colors = random_proper_colors(g, k, rng, fill=rng.choice([0.6, 0.85, 1.0]))
            if colors is None:
                continue
            state = colored(g, k, colors)
            sets = [range(g.m), frozenset(rng.sample(range(g.m), rng.randint(1, g.m)))]
            sets += [frozenset(edges) for _, edges in all_bichromatic_cycles(state)]
            for scanned in sets:
                for e in scanned:
                    if colors[e] is None:
                        continue
                    u, v = g.edges[e]
                    second = (state.at[u].keys() & state.at[v].keys()) - {colors[e]}
                    for b in reference_walkable(state, e, scanned, second):
                        y = state.at[v][b]
                        mine = coloring._walk(state, scanned, e, u, g.edge_index(v, y), y, colors[e], b)
                        assert mine == reference_walk(state, e, scanned, b), (g.m, colors, e, b)
                        closed += mine is not None
                    far = [state.at[w][b] for w in (u, v) for b in second]
                    guarded += any(colors[e] not in state.at[x] for x in far)
    assert closed >= 400 and guarded >= 1000, (closed, guarded)


def test_two_sided_guard_drops_only_walks_that_close_nothing(monkeypatch):
    # each second color that passes the scanned-edge test but that the
    # decision loop's two-sided guard keeps from _walk must close no cycle
    # by conftest's oracle walk, read right after the decision; and each
    # call of the loop, greedy pass or recolor, must draw and find what
    # reference_color_edges does with every such walk taken; through whole
    # col_alg runs on the brute-force corpus, K_20 at 37 and random gnp
    # graphs
    walk, color_edges = coloring._walk, coloring._color_edges
    started: list[int] = []
    dropped = far_dropped = closed = 0

    def counting(state, scanned, e, u, first, cur, a, b):
        started.append(b)
        return walk(state, scanned, e, u, first, cur, a, b)

    def checked(state, edges, rng, scanned):
        nonlocal dropped, far_dropped, closed
        twin, twin_rng = colored(state.graph, state.k, state.colors), random.Random()
        twin_rng.setstate(rng.getstate())
        expected = reference_color_edges(twin, edges, twin_rng, scanned)
        at, ends, found = state.at, state.graph.edges, []
        for e in edges:
            started.clear()
            found += color_edges(state, (e,), rng, scanned)
            u, v = ends[e]
            second = (at[u].keys() & at[v].keys()) - {state.colors[e]}
            for b in reference_walkable(state, e, scanned, second):
                if b not in started:
                    assert reference_walk(state, e, scanned, b) is None, (state.graph.m, e, b)
                    dropped += 1
                    # past the one-sided guard: both far ends carry e's color
                    far_dropped += all(state.colors[e] in at[at[w][b]] for w in (u, v))
        assert found == expected and state.colors == twin.colors and rng.getstate() == twin_rng.getstate()
        closed += len(found)
        return found

    monkeypatch.setattr(coloring, "_walk", counting)
    monkeypatch.setattr(coloring, "_color_edges", checked)
    rng = random.Random(61)
    corpus = [(g, 2 * g.max_degree - 1, range(20)) for g in brute_force_graphs()]
    corpus.append((complete_graph(20), 37, range(20)))
    for n, p in ((12, 0.4), (20, 0.25), (30, 0.15)):
        for _ in range(3):
            g = gnp_graph(n, p, seed=rng.randrange(2**30))
            if g.max_degree:
                corpus.append((g, 2 * g.max_degree - 1, range(10)))
    for g, k, seeds in corpus:
        for seed in seeds:
            col_alg(g, k, seed=seed)
    assert far_dropped >= 1000 and dropped >= 2 * far_dropped and closed >= 100, (dropped, far_dropped, closed)


def test_color_edges_matches_the_reference_loop():
    # the fused loop reads each common color once for the rule, the scanned-
    # edge test and the guard; it must color, draw and find as the oracle's
    # one decision plus unguarded walk per edge does, the same keys in the
    # same order, over the full sweep's range, random frozensets and the
    # edge sets of bichromatic cycles, each taken in index order
    cases = [cycle_graph(6), two_hex_graph(), petersen_graph(), complete_graph(6), complete_graph(9), complete_graph(12)]
    rng = random.Random(53)
    calls = closed = 0
    for g in cases:
        for _ in range(100):
            k = 2 * g.max_degree - 1 + rng.randrange(2)
            colors = random_proper_colors(g, k, rng, fill=rng.choice([0.0, 0.6, 0.85, 1.0]))
            if colors is None:
                continue
            sets = [range(g.m), frozenset(rng.sample(range(g.m), rng.randint(1, g.m)))]
            sets += [frozenset(edges) for _, edges in all_bichromatic_cycles(colored(g, k, colors))]
            for scanned in sets:
                seed = rng.randrange(2**32)
                mine, ref = colored(g, k, colors), colored(g, k, colors)
                mine_rng, ref_rng = random.Random(seed), random.Random(seed)
                edges = sorted(scanned)
                found = coloring._color_edges(mine, edges, mine_rng, scanned)
                assert found == reference_color_edges(ref, edges, ref_rng, scanned), (g.m, colors, sorted(scanned))
                assert mine.colors == ref.colors and mine_rng.getstate() == ref_rng.getstate()
                calls += 1
                closed += len(found)
    assert calls >= 1000 and closed >= 200, (calls, closed)


def test_cycle_index_matches_rescan_after_updates():
    g = two_hex_graph()
    rng = random.Random(5)
    for seed in range(40):
        state, cycles = greedy_4acyclic(g, 4, random.Random(seed))
        index = CycleIndex(cycles)
        for _ in range(6):
            dirty = frozenset({rng.randrange(g.m)})
            index.refresh_after(dirty, coloring._color_edges(state, dirty, rng, dirty))
            assert set(index.cycles) == set(all_bichromatic_cycles(state))
            assert state.at == colored(g, state.k, state.colors).at


def test_maps_hold_the_far_ends_after_every_decision_call(monkeypatch):
    # after each call of the decision loop in whole col_alg runs, greedy pass
    # and recolors alike, the maps must be what the tests' own writer builds
    # from the colors alone: color -> far end at each vertex, so a stale or
    # swapped far end cannot hide behind unchanged draws
    color_edges = coloring._color_edges
    calls = 0

    def checked(state, edges, rng, scanned):
        nonlocal calls
        found = color_edges(state, edges, rng, scanned)
        assert state.at == colored(state.graph, state.k, state.colors).at, (state.graph.m, list(edges))
        calls += 1
        return found

    monkeypatch.setattr(coloring, "_color_edges", checked)
    rng = random.Random(67)
    corpus = [(g, 2 * g.max_degree - 1, range(10)) for g in brute_force_graphs()]
    corpus.append((complete_graph(20), 37, range(30)))
    for n, p in ((12, 0.4), (20, 0.25), (30, 0.15)):
        g = gnp_graph(n, p, seed=rng.randrange(2**30))
        if g.max_degree:
            corpus.append((g, 2 * g.max_degree - 1, range(10)))
    runs = steps = 0
    for g, k, seeds in corpus:
        for seed in seeds:
            _, stats = col_alg(g, k, seed=seed)
            runs += 1
            steps += stats.steps
    assert calls == runs + steps and steps >= 100, (calls, runs, steps)


def test_color_state_memory_per_edge():
    # the maps hold far ends, the ints of the graph's own edge tuples, not
    # one edge-index int per edge: after col_alg on the benchmark's dense
    # graph (24-regular, n=600) the state holds about 106 B per edge, where
    # color -> edge maps held 137 B
    g = random_regular_graph(24, 600, seed=0)
    tracemalloc.start()
    try:
        state, _ = col_alg(g, 2 * g.max_degree - 1, seed=1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert state.colors.count(None) == 0
    assert held / g.m < 120, held / g.m


def test_cycle_index_matches_rescan_after_multi_edge_refresh():
    # recoloring a whole cycle or several random edges at once, in index
    # order, from random proper colorings: the walks of the decisions find
    # each cycle that meets the recolored edges from its largest one
    rng = random.Random(31)
    refreshes = whole_cycles = 0
    for g in (two_hex_graph(), petersen_graph(), complete_graph(6), cycle_graph(8)):
        for _ in range(100):  # cycles are rarer at k >= 2*maxdeg - 1
            k = 2 * g.max_degree - 1 + rng.randrange(2)
            colors = random_proper_colors(g, k, rng, fill=rng.choice((0.8, 1.0)))
            if colors is None:
                continue
            state = colored(g, k, colors)
            index = CycleIndex(all_bichromatic_cycles(state))
            for _ in range(8):
                if index.cycles and rng.random() < 0.5:
                    dirty = frozenset(rng.choice(sorted(index.cycles))[1])
                    whole_cycles += 1
                else:
                    dirty = frozenset(rng.sample(range(g.m), rng.randint(2, 5)))
                index.refresh_after(dirty, coloring._color_edges(state, sorted(dirty), rng, dirty))
                assert index.cycles == all_bichromatic_cycles(state)
                refreshes += 1
    assert refreshes >= 600 and whole_cycles >= 70, (refreshes, whole_cycles)


def test_color_edges_over_a_sequence_equals_one_call_per_edge():
    # the audit feeds _color_edges one edge at a time; that must draw, color
    # and find exactly what one call over the whole sequence does, for the
    # greedy pass and for recolors of whole cycles and of random edge sets
    rng = random.Random(47)
    corpus = [(g, 2 * g.max_degree - 1, range(10)) for g in brute_force_graphs()]
    corpus.append((complete_graph(20), 37, range(10)))
    runs = found = 0
    for g, k, seeds in corpus:
        for seed in seeds:
            states = [ColorState(g, k), ColorState(g, k)]
            rngs = [random.Random(seed), random.Random(seed)]
            dirty = scanned = range(g.m)
            for _ in range(6):
                whole = coloring._color_edges(states[0], dirty, rngs[0], scanned)
                one_by_one = [key for e in dirty for key in coloring._color_edges(states[1], (e,), rngs[1], scanned)]
                assert whole == one_by_one
                assert states[0].colors == states[1].colors and states[0].at == states[1].at
                assert rngs[0].getstate() == rngs[1].getstate()
                found += len(whole)
                cycles = all_bichromatic_cycles(states[0])
                if cycles and rng.random() < 0.5:
                    dirty = rng.choice(sorted(cycles))[1]
                else:
                    dirty = sorted(rng.sample(range(g.m), rng.randint(2, min(g.m, 6))))
                scanned = frozenset(dirty)
            runs += 1
    assert runs == 90 and found >= 60, (runs, found)


# -- the full coloring loop ------------------------------------------------------

def test_forest_input_needs_no_recoloring():
    g = path_graph(8)
    state, stats = col_alg(g, 3, seed=4)
    assert stats.steps == 0 and stats.phases == 0 and stats.terminated
    verdict = verify_acyclic(g, 3, state.colors)
    assert verdict.proper and verdict.acyclic


def test_hexagon_end_to_end():
    g = cycle_graph(6)
    for seed in range(200):
        state, stats = col_alg(g, 5, seed=seed)
        assert stats.terminated
        verdict = verify_acyclic(g, 5, state.colors)
        assert verdict.proper and verdict.acyclic


def test_palette_error():
    with pytest.raises(PaletteError):
        col_alg(cycle_graph(6), 2, seed=0)


def test_col_alg_matches_reference():
    # small palettes force recolor activity; the index-driven loop must
    # reproduce the full-rescan loop field for field, aborted runs included,
    # and watching a run (odd seeds) must neither change it nor flag it
    cases = [
        (cycle_graph(6), 4, None, 120),
        (cycle_graph(8), 4, None, 120),
        (two_hex_graph(), 4, None, 120),
        (cycle_graph(6), 3, 40, 120),
        (petersen_graph(), 6, 60, 120),
        (complete_graph(20), 37, None, 30),
        (complete_graph(20), 37, 2, 30),
        (complete_graph(12), 21, 5, 60),
    ]
    recolored_runs = aborted_runs = 0
    for g, k, limit, seeds in cases:
        for seed in range(seeds):
            col_a, stats_a = reference_col_alg(g, k, seed, step_limit=limit)
            if seed % 2:
                col_b, stats_b, audit = audited_col_alg(g, k, seed, step_limit=limit)
                assert audit.clean and audit.decisions == g.m + sum(stats_b.cycle_lengths)
            else:
                col_b, stats_b = col_alg(g, k, seed=seed, step_limit=limit)
            assert col_a.colors == col_b.colors
            # steps, phases, trace (hence cycle lengths and root keys), terminated
            assert stats_a == stats_b
            recolored_runs += stats_a.steps > 0
            aborted_runs += not stats_a.terminated
            if stats_a.terminated:
                verdict = verify_acyclic(g, k, col_a.colors)
                assert verdict.proper and verdict.acyclic
    assert recolored_runs >= 60 and aborted_runs >= 5, (recolored_runs, aborted_runs)


def test_coloring_draw_order_is_pinned():
    # same seed, same bytes: colors, trace, phases and termination of 80
    # runs (149 recolor calls in all) hash to a digest frozen for this seed
    # range, so any change to the draws or to which cycle is resampled shows
    digest = hashlib.sha256()
    steps = 0
    for g, k in ((complete_graph(20), 37), (petersen_graph(), 5)):
        for seed in range(40):
            state, stats = col_alg(g, k, seed=seed)
            digest.update(repr((state.colors, stats.trace, stats.phases, stats.terminated)).encode())
            steps += stats.steps
    assert steps == 149
    assert digest.hexdigest() == "3bedaeb6892aca4d96de142e5e0d5497959acb03ceccff054d81e84a39fe19f2"


def test_coloring_draw_order_is_pinned_without_all_closing_edges():
    # K20 has every closing edge; on random regular graphs most common
    # colors have none, so a rule that mishandles a missing closing edge
    # changes these bytes
    digest = hashlib.sha256()
    steps = 0
    for g, k, seeds in ((random_regular_graph(24, 200, seed=3), 47, 10), (random_regular_graph(5, 50, seed=3), 9, 40)):
        for seed in range(seeds):
            state, stats = col_alg(g, k, seed=seed)
            digest.update(repr((state.colors, stats.trace, stats.phases, stats.terminated)).encode())
            steps += stats.steps
    assert steps == 34
    assert digest.hexdigest() == "24c4567d1797b00997c2b74f15fe6f7f295dee0be5a74362fcd845a1e780bb81"


def test_assign_draws_as_choice_over_free_colors(monkeypatch):
    # _color_edges maps one randrange draw past the sorted forbidden set;
    # that equals rng.choice over the free-color list only while choice(seq)
    # is seq[_randbelow(len(seq))], so a Python that changes choice fails here
    cases = [(complete_graph(20), 37, None, 60), (complete_graph(20), 37, 2, 30), (petersen_graph(), 6, 60, 100)]
    runs = []
    reference_decisions = 0

    def counted_reference(state, edges, rng, scanned):
        nonlocal reference_decisions
        reference_decisions += len(edges)
        return reference_color_edges(state, edges, rng, scanned)

    for draw in (coloring._color_edges, counted_reference):
        monkeypatch.setattr(coloring, "_color_edges", draw)
        runs.append([
            col_alg(g, k, seed=seed, step_limit=limit)
            for g, k, limit, seeds in cases
            for seed in range(seeds)
        ])
    mine, ref = runs
    assert len(mine) == 190 and any(stats.steps for _, stats in mine)
    # the oracle made every decision of its runs, the greedy pass's included
    greedy_decisions = sum(g.m * seeds for g, _, _, seeds in cases)
    assert reference_decisions == greedy_decisions + sum(sum(stats.cycle_lengths) for _, stats in ref)
    for (state_a, stats_a), (state_b, stats_b) in zip(mine, ref):
        assert state_a.colors == state_b.colors and stats_a == stats_b


def test_inline_draw_is_randrange():
    # _color_edges draws randrange(n) inlined as randrange's rejection loop
    # on getrandbits: on one edge with nothing forbidden the color drawn is
    # the index, so it must equal randrange(n) and leave the same generator
    # state; a Python that changes _randbelow fails here
    edge = Graph(2, [(0, 1)])
    sizes = [*range(1, 301), *(2**j + d for j in range(41) for d in (-1, 0, 1) if 2**j + d >= 1)]
    for seed in (0, 1, 29, 2**32 + 7):
        mine, ref = random.Random(seed), random.Random(seed)
        for n in sizes:
            state = ColorState(edge, n)
            coloring._color_edges(state, (0,), mine, frozenset({0}))
            assert state.colors[0] == ref.randrange(n), (seed, n)
            assert mine.getstate() == ref.getstate(), (seed, n)


def test_no_free_color_is_refused_before_any_draw():
    # a hand-built state whose palette is all forbidden at edge {1, 3}:
    # getrandbits(0) would return 0 forever, so the loop must refuse at once
    class Draws(random.Random):
        calls = 0

        def getrandbits(self, width):
            self.calls += 1
            if self.calls > 10:
                raise AssertionError("the draw loops")
            return super().getrandbits(width)

    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    state, rng = colored(g, 2, [0, 1, None]), Draws(5)
    with pytest.raises(ContractError, match="no free color at edge 2"):
        coloring._color_edges(state, (2,), rng, frozenset({2}))
    assert rng.calls == 0 and state.colors == [0, 1, None]


def test_root_cycles_pairwise_distinct():
    for g, k in [(cycle_graph(6), 4), (two_hex_graph(), 4)]:
        for seed in range(150):
            _, stats = col_alg(g, k, seed=seed)
            roots = [key for key, depth in stats.trace if depth == 0]
            assert len(set(roots)) == len(roots)
            assert stats.phases <= g.m


def test_audit_invariants_on_petersen():
    g = petersen_graph()
    k = 9
    for seed in range(100):
        state, stats, audit = audited_col_alg(g, k, seed)
        assert stats.terminated and audit.clean
        assert audit.max_forbidden <= 2 * (g.max_degree - 1)
        assert audit.min_available >= k - 2 * (g.max_degree - 1)
        verdict = verify_acyclic(g, k, state.colors)
        assert verdict.proper and verdict.acyclic


def test_progress_snapshots_under_audit():
    # edges outside every bichromatic cycle before a root recoloring stay
    # outside after it; audited via bichromatic_edge_set snapshots
    g = two_hex_graph()
    audited_roots = 0
    for seed in range(200):
        _, stats, audit = audited_col_alg(g, 4, seed)
        assert not audit.progress_violations
        audited_roots += stats.phases
    assert audited_roots > 0


# (graph, palette, step limit, seeds): small palettes that force recursion
FOREST_CASES = [
    (complete_graph(20), 37, None, 60),
    (complete_graph(12), 21, 50, 300),
    (petersen_graph(), 6, 60, 300),
    (cycle_graph(6), 3, 40, 300),
]


def test_audited_witness_forests_are_feasible():
    # roots pairwise edge-disjoint, siblings edge-disjoint, each child
    # sharing an edge with its parent, aborted runs included
    recursed = 0
    for g, k, limit, seeds in FOREST_CASES:
        for seed in range(seeds):
            _, stats, audit = audited_col_alg(g, k, seed, step_limit=limit)
            assert not audit.forest_violations, (g.m, k, seed)
            recursed += any(depth for _, depth in stats.trace)
    assert recursed >= 50, recursed


def test_forest_audit_flags_a_driver_without_child_search(monkeypatch):
    # a driver that never recurses makes every overlapping cycle a root
    def rootless(next_root, least_child, resample, limit):
        return driver.resample_loop(next_root, lambda top: None, resample, limit)

    monkeypatch.setattr(coloring, "resample_loop", rootless)
    flagged = 0
    for g, k, limit, seeds in FOREST_CASES[1:]:
        for seed in range(seeds):
            _, _, audit = audited_col_alg(g, k, seed, step_limit=limit)
            if audit.forest_violations:
                flagged += 1
                assert not audit.clean
    assert flagged >= 40, flagged


def test_local_audit_flags_a_rule_without_closing_edges(monkeypatch):
    # a forbidden-color rule that keeps only the adjacent colors lets a
    # decision close a bichromatic 4-cycle, which check_local must report;
    # every decision, greedy or recolor, is made by this loop
    monkeypatch.setattr(coloring, "_color_edges", color_edges_without_closing_edges)
    flagged = 0
    for g, k in ((petersen_graph(), 5), (complete_graph(8), 13)):
        for seed in range(50):
            _, _, audit = audited_col_alg(g, k, seed, step_limit=200)
            if audit.local_violations:
                flagged += 1
                assert not audit.clean
    assert flagged >= 40, flagged


def test_detected_cycle_lengths_respect_girth():
    cases = [(cycle_graph(6), 4, 6), (two_hex_graph(), 4, 6), (petersen_graph(), 6, 5)]
    for g, k, girth in cases:
        floor = 2 * max(3, math.ceil(girth / 2))
        for seed in range(100):
            _, stats = col_alg(g, k, seed=seed, step_limit=80)
            for length in stats.cycle_lengths:
                assert length % 2 == 0 and length >= floor


# -- verification -----------------------------------------------------------------

def test_verify_bichromatic_square():
    g = cycle_graph(4)
    verdict = verify_acyclic(g, 3, [0, 1, 0, 1])
    assert verdict.proper and not verdict.acyclic
    assert verdict.witness == (2, 3, 0, 1)  # the walk, not the sorted key


def test_verify_trichromatic_square():
    g = cycle_graph(4)
    verdict = verify_acyclic(g, 3, [0, 1, 0, 2])
    assert verdict.proper and verdict.acyclic and verdict.witness is None


def test_verify_improper_and_partial():
    g = cycle_graph(4)
    verdict = verify_acyclic(g, 3, [0, 0, 1, 2])
    assert not verdict.proper and not verdict.acyclic
    with pytest.raises(ContractError):
        verify_acyclic(g, 3, [0, 1, None, 2])
    with pytest.raises(ContractError):
        verify_acyclic(g, 3, [0, 1, 2])


def test_verify_memory_independent_of_palette():
    # only the colors in use are visited: a 4-edge path at K = 10^6 needs
    # kilobytes, not one list per palette color
    g = path_graph(5)
    tracemalloc.start()
    try:
        verdict = verify_acyclic(g, 10**6, [0, 999_999, 0, 999_999])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.proper and verdict.acyclic
    assert peak < 2**20, peak


def test_verifier_agrees_with_brute_force():
    # the union-find verifier against exhaustive cycle enumeration on random
    # proper colorings; palettes near maxdeg make many of them cyclic
    rng = random.Random(2024)
    cyclic = acyclic = 0
    for g in brute_force_graphs():
        for _ in range(80):
            k = g.max_degree + rng.randrange(3)
            colors = random_proper_colors(g, k, rng)
            if colors is None:
                continue
            brute = brute_bichromatic_keys(g, colors)
            verdict = verify_acyclic(g, k, colors)
            assert verdict.proper and verdict.acyclic == (not brute)
            if brute:
                assert cycle_key(g, verdict.witness) in brute
            cyclic += bool(brute)
            acyclic += not brute
    assert cyclic >= 100 and acyclic >= 100, (cyclic, acyclic)


def test_verifier_agrees_with_the_sweep_at_mid_size():
    # the union-find verifier against the detector's full sweep on random
    # proper colorings of random 4-regular graphs on 40..60 vertices, at
    # palettes just above maxdeg + 1.  The first cyclic coloring is spread
    # over 0..10^8 in a palette of 10^9 (the same cycles), so the union-find
    # keys b*n + vertex are large and the verifier's memory still does not
    # grow with the palette
    rng = random.Random(4060)
    cyclic = acyclic = 0
    for _ in range(300):
        g = random_regular_graph(4, rng.randrange(40, 61, 2), seed=rng.randrange(2**31))
        k = g.max_degree + 2 + rng.randrange(2)
        colors = random_proper_colors(g, k, rng)
        if colors is None:
            continue
        sweep = all_bichromatic_cycles(colored(g, k, colors))
        if sweep and not cyclic:
            spread = sorted(rng.sample(range(10**8), k))
            k, colors = 10**9, [spread[c] for c in colors]
            tracemalloc.start()
            try:
                verdict = verify_acyclic(g, k, colors)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, peak
            assert all_bichromatic_cycles(colored(g, k, colors)) == sweep
        else:
            verdict = verify_acyclic(g, k, colors)
        assert verdict.proper and verdict.acyclic == (not sweep)
        if sweep:
            assert cycle_key(g, verdict.witness) in sweep
        cyclic += bool(sweep)
        acyclic += not sweep
    assert cyclic >= 50 and acyclic >= 50, (cyclic, acyclic)


def _matching_colors(degree: int, n: int, k: int, rng: random.Random) -> tuple[Graph, list[int]]:
    """A degree-regular graph on n vertices (n even) made of ``degree``
    edge-disjoint random perfect matchings, one color each out of 0..k-1,
    its edges shuffled; then mixed by recoloring random edges to a color
    free at both ends, which keeps it proper and breaks up its 2-factors."""
    edges: list[tuple[int, int]] = []
    while len(edges) < degree * n // 2:
        perm = rng.sample(range(n), n)
        matching = [(min(perm[i], perm[i + 1]), max(perm[i], perm[i + 1])) for i in range(0, n, 2)]
        if not set(edges).intersection(matching):
            edges += matching
    palette = rng.sample(range(k), degree)
    colored_edges = [(ends, palette[i // (n // 2)]) for i, ends in enumerate(edges)]
    rng.shuffle(colored_edges)
    g = Graph(n, [ends for ends, _ in colored_edges])
    colors = [c for _, c in colored_edges]
    at = [set() for _ in range(n)]
    for (u, v), c in zip(g.edges, colors):
        at[u].add(c)
        at[v].add(c)
    for _ in range(4 * g.m):
        e = rng.randrange(g.m)
        u, v = g.edges[e]
        free = [c for c in range(k) if c not in at[u] and c not in at[v]]
        if free:
            at[u].discard(colors[e])
            at[v].discard(colors[e])
            colors[e] = rng.choice(free)
            at[u].add(colors[e])
            at[v].add(colors[e])
    return g, colors


def _verifier_corpus():
    """(graph, palette, colors) for the witness oracle test: random proper
    colorings of the brute-force graphs at palettes maxdeg..maxdeg+2 and
    of 4-regular graphs on 40..60 vertices at maxdeg+2..maxdeg+3, as in
    the mid-size test above; mixed colorings of 8-regular graphs on about
    100 vertices at maxdeg+1..maxdeg+3, where many (a, b) pairs end in a
    path; then every two-hexagon coloring whose hexagons alternate two
    colors each, so two bichromatic cycles race to close first."""
    rng = random.Random(2408)
    for g in brute_force_graphs():
        for _ in range(40):
            k = g.max_degree + rng.randrange(3)
            yield g, k, random_proper_colors(g, k, rng)
    for _ in range(60):
        g = random_regular_graph(4, rng.randrange(40, 61, 2), seed=rng.randrange(2**31))
        k = g.max_degree + 2 + rng.randrange(2)
        yield g, k, random_proper_colors(g, k, rng)
    for _ in range(30):
        k = 9 + rng.randrange(3)
        g, colors = _matching_colors(8, rng.randrange(96, 105, 2), k, rng)
        yield g, k, colors
    g = two_hex_graph()
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    for a, b in pairs:
        for c, d in pairs:
            yield g, 4, [a, b] * 3 + [c, d] * 3


def test_verifier_matches_its_oracle_witness_for_witness():
    # skipping path ends leaves every union of a bichromatic cycle in place
    # and in order, so the first union that closes one, and with it the
    # witness, is the one the oracle finds
    cyclic = acyclic = 0
    for g, k, colors in _verifier_corpus():
        if colors is None:
            continue
        verdict = verify_acyclic(g, k, colors)
        oracle = reference_verify_acyclic(g, k, colors)
        assert (verdict.proper, verdict.acyclic, verdict.witness) == (oracle.proper, oracle.acyclic, oracle.witness)
        cyclic += not verdict.acyclic
        acyclic += verdict.acyclic
    assert cyclic >= 200 and acyclic >= 100, (cyclic, acyclic)


def test_bichromatic_edge_set():
    g = two_hex_graph()
    assert bichromatic_edge_set(colored(g, 4, [0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 3])) == frozenset(range(6))


# -- cycles through an edge ---------------------------------------------------

def _through(cycles, e, length):
    # cycles of the given length through edge e, from the exhaustive DFS oracle
    return sum(1 for c in cycles if len(c) == length and e in c)


def test_count_cycles_hexagon():
    cycles = brute_simple_cycles(cycle_graph(6), max_len=8)
    assert _through(cycles, 0, 6) == 1
    assert _through(cycles, 0, 4) == 0


def test_count_cycles_k4_and_k5():
    g4 = complete_graph(4)
    cycles = brute_simple_cycles(g4, max_len=8)
    for e in range(g4.m):
        assert _through(cycles, e, 4) == 2
        assert 2 <= (g4.max_degree - 1) ** 2
    cycles = brute_simple_cycles(complete_graph(5), max_len=8)
    assert _through(cycles, 0, 4) == 6  # ordered pairs of the other 3 vertices
    assert _through(cycles, 0, 6) == 0  # only 5 vertices


def test_count_cycles_match_brute_force_enumeration():
    # the paper counts at most (maxdeg - 1)**(2k - 2) cycles of length 2k
    # through one edge; checked per (edge, length) on the oracle's cycles
    graphs = [cycle_graph(6), complete_graph(4), complete_graph(5), petersen_graph(), complete_graph(6)]
    graphs += [random_regular_graph(3, n, seed=seed) for n, seed in ((10, 1), (12, 2), (16, 3), (20, 4))]
    for g in graphs:
        cycles = brute_simple_cycles(g, max_len=8)
        for length in (4, 6, 8):
            for e in range(g.m):
                assert _through(cycles, e, length) <= (g.max_degree - 1) ** (length - 2), (g.edges, e, length)
