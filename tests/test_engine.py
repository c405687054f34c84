import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lllcolor.engine import (
    ContractError,
    Event,
    EventSystem,
    VariableSpace,
    m_algorithm,
    sample_all,
)
from lllcolor import engine as engine_mod
from lllcolor.witness import build_witness_forest, check_feasible, dice_experiment, validate
from lllcolor.driver import RunStats, default_step_limit
from lllcolor.dimacs import clause_system, formula_satisfied
from lllcolor.bounds import BoundParams, lll_condition
from lllcolor.coloring import ColorRunStats
from lllcolor.gamma import PhiParams, solve_tau
from lllcolor.graphs import cycle_graph
from lllcolor.verify import verify_acyclic

from conftest import (
    chain_3sat,
    progress_snapshots,
    random_truth_table_system,
    reference_m_algorithm,
    reference_sample,
    single_event_system,
)


# -- sampling -----------------------------------------------------------------

def test_sample_all_singleton_domain():
    system = EventSystem(VariableSpace([(7,)]), [Event(0, (0,), lambda v: False)])
    assert sample_all(system, random.Random(3)) == [7]


def test_sample_all_deterministic():
    space = VariableSpace.booleans(3)
    system = EventSystem(space, [Event(0, (0, 1, 2), lambda v: False)])
    assert sample_all(system, random.Random(11)) == sample_all(system, random.Random(11))


def test_sample_all_uniform_frequency():
    # 10^6 draws of one uniform variable on {0..5}: each frequency within
    # 3 sigma of 1/6, sigma = sqrt((1/6)(5/6)/N)
    system = EventSystem(VariableSpace([range(6)]), [Event(0, (0,), lambda v: False)])
    rng = random.Random(2024)
    n = 10**6
    counts = Counter(sample_all(system, rng)[0] for _ in range(n))
    bound = 3 * math.sqrt((1 / 6) * (5 / 6) / n)
    for value in range(6):
        assert abs(counts[value] / n - 1 / 6) <= bound


def test_weighted_sampling():
    space = VariableSpace([(0, 1)], weights=[(1, 3)])
    system = EventSystem(space, [Event(0, (0,), lambda v: v[0] == 1)])
    rng = random.Random(5)
    n = 50_000
    freq = sum(sample_all(system, rng)[0] for _ in range(n)) / n
    assert abs(freq - 0.75) <= 3 * math.sqrt(0.75 * 0.25 / n)


def _assert_draws_match_reference(space, orders, seeds):
    # a fresh sample_all and each space.draw in the orders given must give
    # the values, and leave the rng in the state, of one reference_sample
    # per variable in that order
    system = EventSystem(space, [Event(0, range(space.count), any)])
    for seed in seeds:
        rng, oracle = random.Random(seed), random.Random(seed)
        values = sample_all(system, rng)
        assert values == [reference_sample(space, i, oracle) for i in range(space.count)], seed
        assert rng.getstate() == oracle.getstate(), seed
        for order in orders:
            space.draw(order, values, rng)
            assert [values[i] for i in order] == [reference_sample(space, i, oracle) for i in order], seed
            assert rng.getstate() == oracle.getstate(), seed


def test_engine_draws_are_randrange():
    # VariableSpace.draw writes an unweighted draw as randrange's rejection
    # loop on getrandbits, and sample_all draws through it: on every domain
    # size up to 300 and around each power of two to 2^40, with four
    # weighted variables among them, each value is dom[randrange(len(dom))]
    # in variable, scope or any other order given, leaving the same
    # generator state; a Python that changes _randbelow fails here
    sizes = [*range(1, 301), *(2**j + d for j in range(41) for d in (-1, 0, 1) if 2**j + d >= 1)]
    domains = [tuple(range(n, 0, -1)) if n <= 300 else range(-n, 0) for n in sizes]
    weights = [None] * len(sizes)
    for i in (0, 7, 150, len(sizes) - 1):
        domains[i], weights[i] = (3, 5, 9), (1, 0, 2)
    every_third = range(1, len(sizes), 3)
    orders = [range(len(sizes)), every_third, range(len(sizes)), (len(sizes) - 1, 0, 150, 7, 2)]
    _assert_draws_match_reference(VariableSpace(domains, weights), orders, (*range(200), 2**32 + 7))


def test_variable_space_validation():
    with pytest.raises(ContractError):
        VariableSpace([()])
    with pytest.raises(ContractError):
        VariableSpace([(0, 1)], weights=[(1,)])


# -- events -------------------------------------------------------------------

def test_occurs_basic():
    ev = Event(0, (0,), lambda v: v[0] == 1)
    assert ev.occurs([1]) is True
    assert ev.occurs([0]) is False
    eq = Event(0, (0, 1), lambda v: v[0] == v[1])
    assert eq.occurs([3, 3]) is True


def test_event_system_contracts():
    space = VariableSpace.booleans(2)
    with pytest.raises(ContractError, match="exceeds variable count"):
        EventSystem(space, [Event(0, (2,), lambda v: True)])
    with pytest.raises(ContractError, match="has id 1"):
        EventSystem(space, [Event(1, (0,), lambda v: True)])
    with pytest.raises(ContractError, match="non-empty"):
        Event(0, (), lambda v: True)
    # -1 would index variable 2 of 3, so without the refusal both events
    # would read it and still get independent neighbourhoods
    reads_minus_one = [Event(0, (-1,), lambda v: v[0] == 1), Event(1, (2,), lambda v: v[0] == 0)]
    with pytest.raises(ContractError, match="event 0 scope has a negative index"):
        EventSystem(VariableSpace.booleans(3), reads_minus_one)


def test_flat_system_contracts():
    # from_scopes checks as the Event-list constructor does, and since it
    # does not normalise scopes as Event does, it refuses an unsorted or
    # repeated one, which would change the test's argument order or the draws
    space, test = VariableSpace.booleans(3), (lambda v: True)
    for scopes, message in [
        ([(0,), ()], "event scope must be non-empty"),
        ([(3,)], "event 0 scope exceeds variable count"),
        ([(0, 1), (1, 3)], "event 1 scope exceeds variable count"),
        ([(-1,)], "event 0 scope has a negative index"),
        ([(0,), (-2, 1)], "event 1 scope has a negative index"),
        ([(2, 1)], "event 0 scope is not strictly increasing"),
        ([(0, 1), (1, 1)], "event 1 scope is not strictly increasing"),
    ]:
        with pytest.raises(ContractError, match=f"^{message}$"):
            EventSystem.from_scopes(space, scopes, [test] * len(scopes))
    with pytest.raises(ContractError, match="^2 scopes for 1 tests$"):
        EventSystem.from_scopes(space, [(0,), (1,)], [test])


def test_flat_system_events_are_built_from_its_lists():
    # each system.events[j] is built on first read with id j and scope
    # scopes[j], and occurs exactly when tests[j] does on every assignment;
    # the flat system runs as the Event-list system over the same events
    rng = random.Random(0xF1A7)
    for _ in range(40):
        listed = random_truth_table_system(rng, n_vars=rng.randint(3, 6), n_events=rng.randint(0, 8))
        scopes = [ev.scope for ev in listed.events]
        tests = [ev.predicate for ev in listed.events]
        system = EventSystem.from_scopes(listed.space, scopes, tests, p=0.5)
        assert system.scopes is scopes and system.tests is tests and system.p == 0.5
        assert system.neighborhoods == listed.neighborhoods and system.delta == listed.delta
        assert [(ev.id, ev.scope) for ev in system.events] == list(enumerate(scopes))
        assert system.events is system.events
        for values in itertools.product((0, 1), repeat=listed.space.count):
            for ev, scope, test in zip(system.events, scopes, tests):
                assert ev.occurs(values) is bool(test(tuple(values[i] for i in scope)))
        seed = rng.randrange(2**32)
        assert m_algorithm(system, seed=seed, step_limit=200) == m_algorithm(listed, seed=seed, step_limit=200)


def test_event_sorts_and_deduplicates_its_scope():
    assert Event(0, [4, 1, 4, 2, 1], lambda v: True).scope == (1, 2, 4)
    assert Event(0, {3}, lambda v: True).scope == (3,)
    seen = []
    ev = Event(0, (2, 0, 2), lambda v: seen.append(v) or False)
    assert ev.occurs(["a", "b", "c"]) is False and seen == [("a", "c")]
    for empty in ((), [], set()):
        with pytest.raises(ContractError, match="event scope must be non-empty"):
            Event(0, empty, lambda v: True)


FROZEN_RECORDS = {
    "Event": lambda: Event(0, (0,), lambda v: True),
    "PhiParams": lambda: PhiParams(1.5, 3.0),
    "GammaSolution": lambda: solve_tau(PhiParams(1.5, 3.0)),
    "BoundParams": lambda: BoundParams(Fraction(1, 8), 3),
    "VerifyResult": lambda: verify_acyclic(cycle_graph(4), 3, [0, 1, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(FROZEN_RECORDS))
def test_frozen_records_refuse_assignment_and_deletion(name):
    record = FROZEN_RECORDS[name]()
    assert type(record).__name__ == name and not hasattr(record, "__dict__")
    for field in type(record).__slots__:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record).startswith(f"{name}({type(record).__slots__[0]}=")


# -- the resampling loop ------------------------------------------------------

def test_zero_events_returns_initial_assignment():
    system = EventSystem(VariableSpace.booleans(2), [])
    values, stats = m_algorithm(system, seed=9)
    assert stats.steps == 0 and stats.phases == 0 and stats.terminated
    assert values == sample_all(system, random.Random(9))


def test_single_event_mean_steps():
    # event 'X=1' on a fair bit: the initial check fires with probability
    # 1/2 and every resample clears it with probability 1/2, so
    # P(steps = k) = 2^-(k+1) for k >= 1, mean 1 and variance 2
    system = single_event_system()
    n = 10**5
    total = 0
    for seed in range(n):
        _, stats = m_algorithm(system, seed=seed)
        assert stats.terminated and stats.phases <= 1
        total += stats.steps
    mean = total / n
    assert abs(mean - 1.0) <= 3 * math.sqrt(2 / n)


def test_lll_regime_3sat_always_terminates():
    rng = random.Random(7)
    for trial in range(10**3):
        n_vars, clauses = chain_3sat(8, rng)
        system = clause_system(n_vars, clauses)
        assert system.delta <= 3 and system.p == 1 / 8
        values, stats = m_algorithm(system, seed=trial)
        assert stats.terminated
        assert formula_satisfied(clauses, values)
    flags = lll_condition(BoundParams(p=Fraction(1, 8), delta=3))
    assert flags["strict"]


def test_step_limit_flag_on_unsatisfiable_input():
    system = clause_system(1, [(1,), (-1,)])
    values, stats = m_algorithm(system, seed=0, step_limit=50)
    assert not stats.terminated
    assert stats.steps == 50 and len(stats.trace) == 50


def test_determinism_byte_for_byte():
    rng = random.Random(123)
    n_vars, clauses = chain_3sat(6, rng)
    system = clause_system(n_vars, clauses)
    runs = [m_algorithm(system, seed=42, step_limit=500) for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert json.dumps(runs[0][1].trace) == json.dumps(runs[1][1].trace)


def test_run_stats_compare_field_by_field_within_one_class():
    a = RunStats([(0, 0)], True, 5, 10)
    assert a == RunStats([(0, 0)], True, 5, 10)
    assert a != RunStats([(0, 0)], True, 6, 10)
    assert a != ColorRunStats([(0, 0)], True, 5, 10)
    assert ColorRunStats([], False, 5, 10) == ColorRunStats([], False, 5, 10)
    assert repr(a) == "RunStats(trace=[(0, 0)], terminated=True, seed=5, step_limit=10)"
    assert repr(ColorRunStats([], True, 1, 2)).startswith("ColorRunStats(trace=[], terminated=True")
    with pytest.raises(TypeError):
        hash(a)


def test_more_phases_than_events_is_a_contract_error(monkeypatch):
    # a root call leaves its event fixed, so a terminated run has at most m
    # phases; a driver that reports three roots for one event breaks that
    def three_roots(next_root, least_child, resample, limit):
        return [(0, 0), (0, 0), (0, 0)], True

    monkeypatch.setattr(engine_mod, "resample_loop", three_roots)
    with pytest.raises(ContractError, match="3 phases for 1 events"):
        m_algorithm(single_event_system(), seed=0)


def test_default_step_limit_formula():
    assert default_step_limit(1) == 64 * 1 * math.ceil(math.log2(3))
    assert default_step_limit(8) == 64 * 8 * math.ceil(math.log2(10))


def test_progress_snapshots_never_grow():
    # variables outside every occurring scope before a root call stay
    # outside after it, i.e. the occurring scope union never grows
    rng = random.Random(31337)
    checked = 0
    for _ in range(40):
        system = random_truth_table_system(rng)
        for before, after in progress_snapshots(system, rng.randrange(2**30), step_limit=300):
            assert after <= before
            checked += 1
    assert checked > 0


def test_phase_bound_and_root_disjointness():
    rng = random.Random(99)
    for _ in range(60):
        system = random_truth_table_system(rng)
        _, stats = m_algorithm(system, seed=rng.randrange(2**30), step_limit=400)
        roots = [j for j, d in stats.trace if d == 0]
        assert stats.steps >= stats.phases == len(roots)
        if stats.terminated:
            assert stats.phases <= system.m
        seen: set[int] = set()
        for j in roots:
            scope = set(system.events[j].scope)
            assert not (seen & scope), "root scopes must be pairwise disjoint"
            seen |= scope


def test_termination_tail_on_fixed_system():
    # property-level tail check: with the sharp convergence condition
    # satisfied, the frequency of runs at least 4x the mean length is small
    n_vars, clauses = chain_3sat(8, random.Random(1))
    system = clause_system(n_vars, clauses)
    steps = []
    for seed in range(10**4):
        _, stats = m_algorithm(system, seed=seed)
        assert stats.terminated
        steps.append(stats.steps)
    mean = sum(steps) / len(steps)
    cutoff = 4 * mean
    tail = sum(1 for s in steps if s >= cutoff) / len(steps)
    assert tail < 0.05


def test_stack_depth_beyond_interpreter_limit():
    # one heavily biased bit keeps re-occurring after almost every resample,
    # driving the call depth far past the native recursion limit; the
    # explicit stack must not care, and the forest must still rebuild
    space = VariableSpace([(0, 1)], weights=[(1, 1999)])
    system = EventSystem(space, [Event(0, (0,), lambda v: v[0] == 1)], p=0.9995)
    values, stats = m_algorithm(system, seed=1, step_limit=100_000)
    depth = max(d for _, d in stats.trace)
    assert stats.terminated and values == [0]
    assert depth == 3871 and depth > 2500  # frozen for seed 1; far past the default limit of 1000
    forest = build_witness_forest(stats.trace)
    assert len(forest) == stats.steps and check_feasible(forest, _scope(system))


def test_step_limit_must_be_non_negative():
    with pytest.raises(ContractError):
        m_algorithm(single_event_system(), seed=0, step_limit=-1)


# -- the occurrence table against the linear-scan loop -------------------------

ORACLE_LIMITS = (None, 5, 50, 300)


def test_draws_are_one_space_sample_per_variable():
    # on tuple, range, string and weighted domains alike, a fresh sample and
    # a scope's redraw give the values, and leave the rng in the state, of
    # one reference_sample per variable in order
    space = VariableSpace(
        [(3, 1, 4), range(5), ("a", "b"), range(2, 30, 3), (0, 1), (9,), range(-4, 0)],
        weights=[None, None, (1, 2), None, (3, 1), None, (1, 0, 2, 5)],
    )
    orders = [(1, 2, 4, 6), (0, 3, 5), (1, 2, 4, 6), (6, 0, 2, 5, 3)]
    _assert_draws_match_reference(space, orders, range(200))


def _matches_reference(system, seed, step_limit) -> bool:
    """Asserts field-for-field equality with the oracle; returns termination."""
    values, stats = m_algorithm(system, seed=seed, step_limit=step_limit)
    assert (values, stats) == reference_m_algorithm(system, seed, step_limit)
    return stats.terminated


def test_matches_reference_on_truth_table_systems():
    rng = random.Random(0x7AB1E)
    outcomes = set()
    for i in range(240):
        system = random_truth_table_system(rng, n_vars=rng.randint(3, 12), n_events=rng.randint(1, 30))
        outcomes.add(_matches_reference(system, rng.randrange(2**32), ORACLE_LIMITS[i % 4]))
    assert outcomes == {True, False}  # both finished and aborted runs were compared


def test_matches_reference_on_chain_3sat():
    rng = random.Random(0x3547)
    outcomes = set()
    for i in range(80):
        n_vars, clauses = chain_3sat(rng.randint(5, 400), rng)
        system = clause_system(n_vars, clauses)
        outcomes.add(_matches_reference(system, rng.randrange(2**32), ORACLE_LIMITS[i % 4]))
    assert outcomes == {True, False}


@st.composite
def event_systems(draw):
    """Small systems over variables with 1-3 values and random truth tables."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    space = VariableSpace([range(size) for size in sizes])
    events = []
    for j in range(draw(st.integers(0, 12))):
        scope = tuple(sorted(draw(st.sets(st.integers(0, len(sizes) - 1), min_size=1, max_size=3))))
        combos = list(itertools.product(*(range(sizes[i]) for i in scope)))
        hits = draw(st.lists(st.booleans(), min_size=len(combos), max_size=len(combos)))
        table = frozenset(c for c, hit in zip(combos, hits) if hit)
        events.append(Event(j, scope, table.__contains__))
    return EventSystem(space, events)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    system=event_systems(),
    seed=st.integers(0, 2**32 - 1),
    step_limit=st.sampled_from((None, 0, 1, 5, 50)),
)
def test_matches_reference_on_generated_systems(system, seed, step_limit):
    _matches_reference(system, seed, step_limit)


def test_event_evaluations_linear_in_steps():
    # one evaluation per event after the initial sample, then one per
    # neighbour of each resampled event: a scan of all m events per root
    # choice would exceed this bound by orders of magnitude.  The count is
    # of the system's own tests, which the engine calls, so it is never 0
    # on a run that terminates: the pass over the roots reads every event
    n_vars, clauses = chain_3sat(2000, random.Random(2000))
    system = clause_system(n_vars, clauses)
    evaluations = 0

    def counted(test):
        def counting_test(values):
            nonlocal evaluations
            evaluations += 1
            return test(values)

        return counting_test

    counting = EventSystem.from_scopes(system.space, system.scopes, list(map(counted, system.tests)), system.p)
    values, stats = m_algorithm(counting, seed=11)
    assert (values, stats) == m_algorithm(system, seed=11)
    assert stats.terminated and stats.steps > 0
    assert system.m <= evaluations <= system.m + stats.steps * system.delta


# -- witness forests ----------------------------------------------------------

def _scope(system):
    return lambda j: system.events[j].scope


def _three_event_system():
    space = VariableSpace.booleans(1)
    events = [Event(j, (0,), lambda v: False) for j in range(3)]
    return EventSystem(space, events)


def test_forest_empty_trace():
    forest = build_witness_forest([])
    assert len(forest) == 0 and forest.roots == []
    assert check_feasible(forest, _scope(_three_event_system()))


def test_forest_single_node():
    forest = build_witness_forest([(1, 0)])
    assert forest.labels == [1] and forest.roots == [0]


def test_forest_reconstruction_two_trees():
    # stack semantics: second and third entries are recursive children of
    # the first root call, the fourth starts a new tree
    system = _three_event_system()
    forest = build_witness_forest([(0, 0), (1, 1), (0, 1), (2, 0)])
    assert [forest.labels[r] for r in forest.roots] == [0, 2]
    root = forest.roots[0]
    assert sorted(forest.labels[c] for c in forest.children[root]) == [0, 1]
    # children are ordered by label
    assert [forest.labels[c] for c in forest.children[root]] == [0, 1]
    assert [forest.labels[i] for i in forest.node_order()] == [0, 0, 1, 2]


def test_forest_malformed_trace():
    with pytest.raises(ContractError):
        build_witness_forest([(0, 0), (1, 2)])
    with pytest.raises(ContractError):
        build_witness_forest([(0, 1)])


def test_forests_from_real_traces_are_feasible():
    rng = random.Random(555)
    for _ in range(60):
        system = random_truth_table_system(rng)
        _, stats = m_algorithm(system, seed=rng.randrange(2**30), step_limit=300)
        forest = build_witness_forest(stats.trace)
        assert len(forest) == stats.steps
        assert check_feasible(forest, _scope(system))


def test_check_feasible_violations():
    space = VariableSpace.booleans(3)
    events = [
        Event(0, (0,), lambda v: True),
        Event(1, (0, 1), lambda v: True),
        Event(2, (2,), lambda v: True),
    ]
    system = EventSystem(space, events)
    # two roots sharing variable 0
    overlapping_roots = build_witness_forest([(0, 0), (1, 0)])
    assert not check_feasible(overlapping_roots, _scope(system))
    # child scope disjoint from parent scope
    detached_child = build_witness_forest([(0, 0), (2, 1)])
    assert not check_feasible(detached_child, _scope(system))
    # siblings sharing a variable
    siblings = build_witness_forest([(1, 0), (0, 1), (0, 1)])
    assert not check_feasible(siblings, _scope(system))


# -- the validation walk -------------------------------------------------------

def test_validate_empty_forest_always_succeeds():
    system = _three_event_system()
    forest = build_witness_forest([])
    assert all(validate(forest, system, random.Random(s)) for s in range(50))


def test_validate_single_node_frequency():
    system = single_event_system()  # occurs with probability 1/2
    forest = build_witness_forest([(0, 0)])
    n = 10**5
    hits = sum(validate(forest, system, random.Random(s)) for s in range(n))
    assert abs(hits / n - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_validate_two_disjoint_roots_multiply():
    # success needs both events at once under one fresh sample: disjoint
    # scopes make that (1/2) * (1/3)
    space = VariableSpace([(0, 1), (0, 1, 2)])
    events = [Event(0, (0,), lambda v: v[0] == 1), Event(1, (1,), lambda v: v[0] == 2)]
    system = EventSystem(space, events)
    forest = build_witness_forest([(0, 0), (1, 0)])
    n = 10**5
    hits = sum(validate(forest, system, random.Random(s)) for s in range(n))
    p = 1 / 6
    assert abs(hits / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_validate_replays_a_clause_system_forest():
    # a forest from a real sat run, whose events are built on first read:
    # every check of the replay sees fresh values of its three variables,
    # so it passes with probability (1/8) per node
    n_vars, clauses = chain_3sat(8, random.Random(8))
    system = clause_system(n_vars, clauses)
    trace = next(stats.trace for stats in (m_algorithm(system, seed=s)[1] for s in range(500)) if len(stats.trace) == 2)
    forest = build_witness_forest(trace)
    assert check_feasible(forest, _scope(system))
    n = 20_000
    hits = sum(validate(forest, system, random.Random(s)) for s in range(n))
    p = 1 / 64
    assert abs(hits / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_validate_rejects_unknown_labels():
    # labels index the system's events, where -1 would wrap to the last one
    system = _three_event_system()
    for label in (-1, system.m):
        with pytest.raises(ContractError):
            validate(build_witness_forest([(label, 0)]), system, random.Random(0))


def test_validate_rejects_infeasible_forest():
    system = _three_event_system()
    forest = build_witness_forest([(0, 0), (1, 0)])  # shared variable
    with pytest.raises(ContractError):
        validate(forest, system, random.Random(0))


# -- dice demo ----------------------------------------------------------------

def test_dice_single_trial_is_binary():
    assert dice_experiment(1, random.Random(0)) in (0.0, 1.0)


def test_dice_single_phase_frequency():
    n = 10**5
    est = dice_experiment(n, random.Random(17), phases=1)
    p = 91 / 216
    assert abs(est - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_dice_deterministic_given_seed():
    assert dice_experiment(5000, random.Random(4)) == dice_experiment(5000, random.Random(4))


def test_dice_requires_trials():
    with pytest.raises(ContractError):
        dice_experiment(0, random.Random(0))
