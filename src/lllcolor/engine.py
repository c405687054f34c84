"""Variable-resampling engine for the constructive Lovász Local Lemma.

The engine operates on a system of "undesirable" events over mutually
independent finite-domain variables.  The main loop samples every variable,
then repeatedly picks the least-indexed occurring event and resamples it;
resampling an event recursively fixes every occurring neighbour (an event
whose scope shares a variable) before returning.  If the loop ever stops,
no event occurs under the final assignment.

The loop caches whether each event occurs.  A resample of event k marks
only the neighbourhood of k as stale, since no other event reads a variable
it changed, and a stale entry is evaluated when the loop next reads it.
All root choices together make one pass over the event ids, so a run costs
at most m + Δ·steps event evaluations rather than a scan of all m events
per root choice.

Every resample call is recorded as a ``(event id, call depth)`` pair, which
is enough to rebuild the exact recursion structure afterwards as a rooted
labeled forest (the witness forest).  Witness forests, their validation
replay and the dice demo live in ``lllcolor.witness``, which ``sat`` does
not load.

Unweighted variables are drawn inline, by ``randrange``'s own rejection
loop on ``getrandbits``: a draw makes no ``randrange`` call, yet gives the
same value and leaves the generator in the same state.

The loop itself, ``driver.resample_loop``, also drives the acyclic edge
colorer, with bichromatic cycles in the role of events.
"""

from __future__ import annotations

import random
from itertools import chain, repeat
from typing import Callable, Iterable, Sequence

from . import ContractError, _Frozen
from .driver import RunStats, resample_loop, start_run


class VariableSpace:
    """Independent finite-domain variables.

    ``domains[i]`` is an indexable collection (tuple, list or range) of the
    values variable ``i`` may take.  Sampling is uniform unless a weight
    table is supplied for the variable.  Sampling one variable never reads
    any other variable.
    """

    def __init__(self, domains: Sequence[Sequence], weights: Sequence | None = None):
        self.domains = [d if isinstance(d, range) else tuple(d) for d in domains]
        if not all(map(len, self.domains)):
            raise ContractError("every variable domain must be non-empty")
        if weights is None:
            self.weights = [None] * len(self.domains)
            return
        self.weights = list(weights)
        if len(self.weights) != len(self.domains):
            raise ContractError("one weight table (or None) per variable required")
        for dom, w in zip(self.domains, self.weights):
            if w is not None and (len(w) != len(dom) or min(w) < 0 or sum(w) <= 0):
                raise ContractError("weight table must be non-negative, same length as domain")

    @property
    def count(self) -> int:
        return len(self.domains)

    @classmethod
    def booleans(cls, count: int) -> "VariableSpace":
        return cls([(0, 1)] * count)

    def sample(self, i: int, rng: random.Random):
        dom, w = self.domains[i], self.weights[i]
        if w is None:
            return dom[rng.randrange(len(dom))]
        return rng.choices(dom, weights=w, k=1)[0]


class Event(_Frozen):
    """An undesirable event: a predicate over the variables in its scope.

    The predicate receives the scoped values as a tuple, in scope order, so
    it structurally cannot read variables outside the scope.  The scope is
    kept sorted and without repeats; an empty one is a ContractError.
    """

    __slots__ = ("id", "scope", "predicate")

    def __init__(self, id: int, scope: Iterable[int], predicate: Callable[[tuple], bool]):
        if not scope:
            raise ContractError("event scope must be non-empty")
        _set_id(self, id)
        _set_scope(self, tuple(sorted(set(scope))))
        _set_predicate(self, predicate)

    def occurs(self, values: Sequence) -> bool:
        """The predicate on the scoped values, gathered with ``map`` rather
        than a generator: with a predicate written in C (a bound
        ``operator.eq``, a dict's ``__getitem__``) no Python frame runs."""
        return bool(self.predicate(tuple(map(values.__getitem__, self.scope))))


# the slots' own setters: Event.__init__ calls them without a lookup by name
_set_id, _set_scope, _set_predicate = (vars(Event)[name].__set__ for name in Event.__slots__)


class EventSystem:
    """Ordered events plus their scope-overlap dependency structure.

    Two events are neighbours when their scopes intersect; every event is
    its own neighbour.  ``delta`` is the largest neighbourhood size.  ``p``
    is a caller-supplied bound on the probability of any single event under
    fresh sampling.

    The constructor is the one place that checks the events (ids in order,
    scopes inside the space) and derives the neighbourhoods: each is the
    sorted union of the event lists of its scope's variables, built by
    chained ``map``s in C.  The event lists are kept only for the variables
    that occur, not one per declared variable.
    """

    def __init__(self, space: VariableSpace, events: Sequence[Event], p: float | None = None):
        self.space = space
        self.events = list(events)
        count, scopes = space.count, []
        by_var: dict[int, list[int]] = {}
        listed = by_var.setdefault
        for j, ev in enumerate(self.events):
            scope = ev.scope
            if ev.id != j:
                raise ContractError(f"event at position {j} has id {ev.id}")
            if scope[-1] >= count:
                raise ContractError(f"event {j} scope exceeds variable count")
            scopes.append(scope)
            for i in scope:
                listed(i, []).append(ev.id)  # the ids the events hold, no new ints
        # every event is on its own variables' lists, so no lookup misses
        lists = map(map, repeat(by_var.__getitem__), scopes)
        self.neighborhoods = list(map(tuple, map(sorted, map(set, map(chain.from_iterable, lists)))))
        self.delta = max(map(len, self.neighborhoods), default=0)
        self.p = p

    @property
    def m(self) -> int:
        return len(self.events)

    def first_occurring(self, values: Sequence, candidates: Sequence[int] | None = None) -> int | None:
        """Least-indexed occurring event, or None.  Plain linear scan.

        ``m_algorithm`` does not call this; the tests use it to build the
        reference loop that the engine must match, and ``perfbench/child.py``
        wraps it by name, so it stays until the benchmark changes.
        """
        pool = candidates if candidates is not None else range(self.m)
        for j in pool:
            if self.events[j].occurs(values):
                return j
        return None


def sample_all(system: EventSystem, rng: random.Random) -> list:
    """Fresh independent sample of every variable, in variable order.

    An unweighted variable is drawn inline as ``dom[rng.randrange(len(dom))]``,
    the draw ``VariableSpace.sample`` makes, written as ``randrange``'s
    rejection loop on ``getrandbits``; only a weighted one goes through
    ``sample``.  So the values and the rng state are those of one
    ``space.sample(i, rng)`` per variable.
    """
    space, bits = system.space, rng.getrandbits
    values = []
    draw = values.append
    for i, (dom, w) in enumerate(zip(space.domains, space.weights)):
        if w is None:
            n = len(dom)
            width = n.bit_length()
            r = bits(width)
            while r >= n:
                r = bits(width)
            draw(dom[r])
        else:
            draw(space.sample(i, rng))
    return values


def _resample_scope(system: EventSystem, values: list, j: int, rng: random.Random) -> None:
    """Redraw event j's scope in scope order, drawing as ``sample_all`` does."""
    space = system.space
    domains, weights, bits = space.domains, space.weights, rng.getrandbits
    for i in system.events[j].scope:
        if weights[i] is None:
            dom = domains[i]
            n = len(dom)
            width = n.bit_length()
            r = bits(width)
            while r >= n:
                r = bits(width)
            values[i] = dom[r]
        else:
            values[i] = space.sample(i, rng)


def m_algorithm(
    system: EventSystem,
    seed: int | None = None,
    step_limit: int | None = None,
) -> tuple[list, RunStats]:
    """Run the resampling loop until no event occurs or the step guard trips.

    The outer loop picks the least-indexed occurring event and issues a root
    call; a call on event j resamples j's scope and then, while any
    neighbour of j occurs, recurses on the least-indexed such neighbour.
    The loop itself is ``resample_loop``, whose explicit stack does not
    limit the depth to the interpreter's.  Steps count every resample call
    (root or recursive).  Hitting ``step_limit`` is not an error: the run is
    returned flagged ``terminated=False`` and callers inspect the flag.

    ``occ[j]`` caches whether event j occurs, None meaning not evaluated
    since j's scope last changed.  A resample of k resets
    ``system.neighborhoods[k]`` to None, and an entry is evaluated when it
    is read as None.  The least occurring neighbour of the stack top is
    found by reading its sorted neighbourhood in order.  Roots need no
    search: an event that does not occur before a root call does not occur
    after it returns (the last call that touched its variables returned
    only once none of its neighbours occurred), and the root itself is fixed
    by its own call.  So each root choice resumes one pass over the ids in
    increasing order where the previous one stopped.  A run thus calls
    ``Event.occurs`` at most m + Δ·steps times.  Evaluation draws no
    randomness, so the run is the one a linear scan for the least occurring
    event would produce.
    """
    seed, rng, limit = start_run(seed, step_limit, system.m)
    events, neighborhoods = system.events, system.neighborhoods

    values = sample_all(system, rng)
    occ: list[bool | None] = [None] * system.m
    roots = iter(range(system.m))

    def occurring(i: int) -> bool:
        if occ[i] is None:
            occ[i] = events[i].occurs(values)
        return occ[i]

    def resample(k: int) -> None:
        _resample_scope(system, values, k, rng)
        for i in neighborhoods[k]:
            occ[i] = None

    trace, terminated = resample_loop(
        lambda: next((r for r in roots if occurring(r)), None),
        lambda top: next((i for i in neighborhoods[top] if occurring(i)), None),
        resample,
        limit,
    )
    stats = RunStats(trace, terminated, seed, limit)
    if terminated and stats.phases > system.m:
        raise ContractError(f"{stats.phases} phases for {system.m} events on a terminated run")
    return values, stats
