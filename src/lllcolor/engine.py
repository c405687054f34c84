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
labeled forest (the witness forest).  The companion validation routine
replays such a forest against fresh randomness.

The loop itself, ``driver.resample_loop``, also drives the acyclic edge
colorer, with bichromatic cycles in the role of events.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Callable, Hashable, Iterable, Sequence

from . import ContractError, _Frozen, _Record
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
    sorted union of the event lists of its scope's variables, built in C.
    """

    def __init__(self, space: VariableSpace, events: Sequence[Event], p: float | None = None):
        self.space = space
        self.events = list(events)
        for j, ev in enumerate(self.events):
            if ev.id != j:
                raise ContractError(f"event at position {j} has id {ev.id}")
            if ev.scope[-1] >= space.count:
                raise ContractError(f"event {j} scope exceeds variable count")
        by_var: dict[int, list[int]] = {}
        for ev in self.events:
            for i in ev.scope:
                by_var.setdefault(i, []).append(ev.id)
        reading = by_var.__getitem__  # every event is on its own variables' lists
        self.neighborhoods = [tuple(sorted(set(chain.from_iterable(map(reading, ev.scope))))) for ev in self.events]
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
    the draw ``VariableSpace.sample`` makes; only a weighted one goes
    through it.  So the values and the rng state are those of one
    ``space.sample(i, rng)`` per variable.
    """
    space, randrange = system.space, rng.randrange
    return [
        dom[randrange(len(dom))] if w is None else space.sample(i, rng)
        for i, (dom, w) in enumerate(zip(space.domains, space.weights))
    ]


def _resample_scope(system: EventSystem, values: list, j: int, rng: random.Random) -> None:
    """Redraw event j's scope in scope order, drawing as ``sample_all`` does."""
    space = system.space
    domains, weights, randrange = space.domains, space.weights, rng.randrange
    for i in system.events[j].scope:
        if weights[i] is None:
            dom = domains[i]
            values[i] = dom[randrange(len(dom))]
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


class WitnessForest(_Record):
    """Rooted labeled forest mirroring the recursion of a run prefix.

    Trees appear in root-call order; within a tree, children of a node are
    ordered by their labels and traversal is preorder.  Node ``i`` carries
    label ``labels[i]``: an event id for engine runs, a cycle key for
    coloring runs.
    """

    __slots__ = ("labels", "children", "roots")

    def __init__(self, labels: list[Hashable], children: list[list[int]], roots: list[int]):
        self.labels = labels
        self.children = children
        self.roots = roots

    def __len__(self) -> int:
        return len(self.labels)

    def node_order(self) -> list[int]:
        order: list[int] = []
        for root in self.roots:
            stack = [root]
            while stack:
                node = stack.pop()
                order.append(node)
                stack.extend(reversed(self.children[node]))
        return order


def build_witness_forest(trace: Sequence[tuple[Hashable, int]]) -> WitnessForest:
    """Rebuild the recursion forest from a run trace.

    Entry (j, d) is a resample call on label j (an event id, a cycle key)
    at stack depth d; its parent is the call sitting at depth d-1 at that
    moment.  Depth may drop by any amount between entries (returns from
    recursion) but can only grow by entering a child, so a depth more than
    one past the current stack is a malformed trace.
    """
    labels: list[int] = []
    children: list[list[int]] = []
    roots: list[int] = []
    path: list[int] = []
    for j, depth in trace:
        if depth < 0 or depth > len(path):
            raise ContractError(f"trace depth jumps to {depth} with stack of {len(path)}")
        node = len(labels)
        labels.append(j)
        children.append([])
        if depth == 0:
            roots.append(node)
        else:
            children[path[depth - 1]].append(node)
        del path[depth:]
        path.append(node)
    for ch in children:
        ch.sort(key=lambda i: labels[i])
    return WitnessForest(labels, children, roots)


def check_feasible(forest: WitnessForest, scope: Callable[[Hashable], Iterable]) -> bool:
    """Feasibility of a labeled forest, ``scope(label)`` giving what a label
    reads (an event's variables, a cycle's edges).

    (i) root labels have pairwise disjoint scopes, (ii) the labels of any
    node's children have pairwise disjoint scopes, (iii) each child's label
    shares a scope member with its parent's label.
    """
    scopes = [set(scope(label)) for label in forest.labels]

    def pairwise_disjoint(nodes: Sequence[int]) -> bool:
        seen: set = set()
        for node in nodes:
            if seen & scopes[node]:
                return False
            seen |= scopes[node]
        return True

    if not pairwise_disjoint(forest.roots):
        return False
    for node in range(len(forest)):
        kids = forest.children[node]
        if not pairwise_disjoint(kids):
            return False
        for kid in kids:
            if not (scopes[node] & scopes[kid]):
                return False
    return True


def validate(forest: WitnessForest, system: EventSystem, rng: random.Random) -> bool:
    """Replay a feasible forest against fresh randomness.

    Samples all variables, then walks the node labels in forest order: if
    the labeled event does not occur the replay fails, otherwise its scope
    is resampled and the walk continues.  Returns True when every node
    passed.  Labels are event ids, so one outside 0..m-1 is a ContractError.
    """
    for j in forest.labels:
        if not (0 <= j < system.m):
            raise ContractError(f"forest references unknown event {j}")
    if not check_feasible(forest, lambda j: system.events[j].scope):
        raise ContractError("validate requires a feasible forest")
    values = sample_all(system, rng)
    for node in forest.node_order():
        j = forest.labels[node]
        if not system.events[j].occurs(values):
            return False
        _resample_scope(system, values, j, rng)
    return True


def dice_experiment(trials: int, rng: random.Random, phases: int = 2) -> float:
    """Two-phase dice demo: fraction of trials passing every phase.

    Each phase rolls three dice and succeeds if some admissible bit choice
    works, i.e. an ace shows among dice (1,2) or among dice (2,3); the union
    of the two branches covers all three dice.  After a success the two
    examined dice are rerolled, and the third die was never examined within
    the succeeding branch, so by the principle of deferred decisions the
    next phase again faces three fresh dice.  The all-phase success
    probability is therefore (1 - (5/6)^3) ** phases.
    """
    if trials < 1:
        raise ContractError("trials must be >= 1")
    if phases < 1:
        raise ContractError("phases must be >= 1")
    hits = 0
    for _ in range(trials):
        ok = True
        for _ in range(phases):
            d1, d2, d3 = rng.randrange(6) + 1, rng.randrange(6) + 1, rng.randrange(6) + 1
            branch0 = d1 == 1 or d2 == 1
            branch1 = d2 == 1 or d3 == 1
            if not (branch0 or branch1):
                ok = False
                break
        if ok:
            hits += 1
    return hits / trials
