"""Variable-resampling engine for the constructive Lovász Local Lemma.

The engine operates on a system of "undesirable" events over mutually
independent finite-domain variables, each event a scope (the variables it
reads) and a test of their values, which the system holds as two parallel
lists.  The main loop samples every variable, then repeatedly picks the
least-indexed occurring event and resamples it; resampling an event
recursively fixes every occurring neighbour (an event whose scope shares a
variable) before returning.  If the loop ever stops, no event occurs under
the final assignment.

The loop caches whether each event occurs.  A resample of event k marks
only the neighbourhood of k as stale, since no other event reads a variable
it changed, and a stale entry is evaluated when the loop next reads it.
All root choices together make one pass over the event ids, so a run costs
at most m + Δ·steps test evaluations rather than a scan of all m events
per root choice.

Every resample call is recorded as a ``(event id, call depth)`` pair, which
is enough to rebuild the exact recursion structure afterwards as a rooted
labeled forest (the witness forest).  Witness forests, their validation
replay and the dice demo live in ``lllcolor.witness``, which ``sat`` does
not load.

Every random draw, the first sample's and each resample's, is one call of
``VariableSpace.draw``, which redraws the given variables in order.

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

    def draw(self, indices: Iterable[int], values: list, rng: random.Random) -> None:
        """Redraw ``values[i]`` for each i of ``indices``, in that order.

        A weighted variable is ``rng.choices(dom, weights=w, k=1)[0]``.  An
        unweighted one is ``dom[rng.randrange(len(dom))]``, written out as
        ``randrange``'s own rejection loop on ``getrandbits``: the same
        value and generator state, without a ``randrange`` call.
        """
        domains, weights, bits = self.domains, self.weights, rng.getrandbits
        for i in indices:
            dom, w = domains[i], weights[i]
            if w is None:
                n = len(dom)
                width = n.bit_length()
                r = bits(width)
                while r >= n:
                    r = bits(width)
                values[i] = dom[r]
            else:
                values[i] = rng.choices(dom, weights=w, k=1)[0]


class Event(_Frozen):
    """Event j of a system, ``system.events[j]``: id j, scope ``scopes[j]``
    and predicate ``tests[j]``, a view the system builds from its checked
    lists.  The engine and ``witness.validate`` read the lists; the view is
    kept only for ``EventSystem.first_occurring`` (the scan of the tests'
    reference engine) and for the benchmark's traced runs, which wrap
    ``first_occurring`` and count ``Event.occurs`` by name.
    """

    __slots__ = ("id", "scope", "predicate")

    def __init__(self, id: int, scope: tuple, predicate: Callable[[tuple], bool]):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "predicate", predicate)

    def occurs(self, values: Sequence) -> bool:
        """The predicate on the scoped values, gathered with ``map`` rather
        than a generator: with a predicate written in C (a bound
        ``operator.eq``, a dict's ``__getitem__``) no Python frame runs."""
        return bool(self.predicate(tuple(map(values.__getitem__, self.scope))))


class EventSystem:
    """Ordered events as two parallel lists, plus their scope-overlap
    dependency structure.

    Event j reads ``scopes[j]``, a strictly increasing tuple of variable
    indices, and occurs when ``tests[j]`` is true on their values in scope
    order.  Two events are neighbours when their scopes intersect; every
    event is its own neighbour.  ``delta`` is the largest neighbourhood
    size.  ``p`` is a caller-supplied bound on the probability of any single
    event under fresh sampling.

    The constructor keeps the two lists, not copies, and checks each scope:
    a tuple, non-empty, strictly increasing from 0 and inside the space.  A
    scope is refused, not normalised: sorting would change the test's
    argument order and the draws, and a one-shot iterator would be used up
    by the check.  Each neighbourhood is the sorted union of the event
    lists of its scope's variables, built by chained ``map``s in C; those
    lists are kept only for the variables that occur.
    """

    def __init__(self, space: VariableSpace, scopes: list, tests: list, p: float | None = None):
        if len(scopes) != len(tests):
            raise ContractError(f"{len(scopes)} scopes for {len(tests)} tests")
        count = space.count
        by_var: dict[int, list[int]] = {}
        listed = by_var.setdefault
        for j, scope in enumerate(scopes):
            if not isinstance(scope, tuple):
                raise ContractError(f"event {j} scope is not a tuple")
            last = -1
            for i in scope:
                if i <= last:
                    problem = "has a negative index" if i < 0 else "is not strictly increasing"
                    raise ContractError(f"event {j} scope {problem}")
                listed(i, []).append(j)
                last = i
            if last < 0:
                raise ContractError("event scope must be non-empty")
            if last >= count:
                raise ContractError(f"event {j} scope exceeds variable count")
        # every event is on its own variables' lists, so no lookup misses
        lists = map(map, repeat(by_var.__getitem__), scopes)
        self.space = space
        self.scopes = scopes
        self.tests = tests
        self.neighborhoods = list(map(tuple, map(sorted, map(set, map(chain.from_iterable, lists)))))
        self.delta = max(map(len, self.neighborhoods), default=0)
        self.p = p
        self._events = None

    @property
    def m(self) -> int:
        return len(self.scopes)

    @property
    def events(self) -> list[Event]:
        """Event j as an ``Event(j, scopes[j], tests[j])``, built when first read."""
        if self._events is None:
            self._events = list(map(Event, range(self.m), self.scopes, self.tests))
        return self._events

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
    """Fresh independent sample of every variable, in variable order."""
    space = system.space
    values = [None] * space.count
    space.draw(range(space.count), values, rng)
    return values


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
    increasing order where the previous one stopped.  A run thus calls the
    tests at most m + Δ·steps times, each on its scope's values gathered by
    ``map``, and stores its truth as a bool.  Evaluation draws no
    randomness, so the run is the one a linear scan for the least occurring
    event would produce.
    """
    seed, rng, limit = start_run(seed, step_limit, system.m)
    scopes, tests, neighborhoods, draw = system.scopes, system.tests, system.neighborhoods, system.space.draw

    values = sample_all(system, rng)
    get = values.__getitem__
    occ: list[bool | None] = [None] * system.m
    roots = iter(range(system.m))

    def occurring(i: int) -> bool:
        if occ[i] is None:
            occ[i] = True if tests[i](tuple(map(get, scopes[i]))) else False
        return occ[i]

    def resample(k: int) -> None:
        draw(scopes[k], values, rng)
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
