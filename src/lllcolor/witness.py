"""Witness forests of resampling runs, their validation replay, and the
two-phase dice demo.

Every resample call of a run is traced as a ``(label, call depth)`` pair,
which is enough to rebuild the exact recursion structure afterwards as a
rooted labeled forest (the witness forest).  ``check_feasible`` tests the
forest's scope conditions for any labels (event ids, cycle keys), and
``validate`` replays a forest of event ids against fresh randomness.

No command but ``dice`` loads this module, and ``dice`` runs only the
demo, so the engine is loaded by ``validate`` when it is called; the
replay draws through the engine's one draw, ``VariableSpace.draw``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

from . import ContractError, _Record

if TYPE_CHECKING:
    from .engine import EventSystem


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
    is redrawn and the walk continues.  Event j is read from the system's
    lists as ``m_algorithm`` reads it: ``tests[j]`` on the values of
    ``scopes[j]``.  The draws are the engine's: ``sample_all``, then
    ``system.space.draw`` per node.  Returns True when every node passed.
    Labels are event ids, so one outside 0..m-1 is a ContractError.
    """
    from .engine import sample_all

    scopes, tests = system.scopes, system.tests
    for j in forest.labels:
        if not (0 <= j < system.m):
            raise ContractError(f"forest references unknown event {j}")
    if not check_feasible(forest, scopes.__getitem__):
        raise ContractError("validate requires a feasible forest")
    values, draw = sample_all(system, rng), system.space.draw
    get = values.__getitem__
    for node in forest.node_order():
        j = forest.labels[node]
        if not tests[j](tuple(map(get, scopes[j]))):
            return False
        draw(scopes[j], values, rng)
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
