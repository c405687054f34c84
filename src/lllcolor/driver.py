"""The resampling driver shared by the variable engine and the cycle recolorer.

``resample_loop`` is the Moser–Tardos loop with an explicit stack, a step
limit and a ``(label, depth)`` trace, over bad objects given only through
callables: events for ``engine.m_algorithm``, bichromatic cycles for
``coloring.col_alg``.  ``start_run`` sets a run up and ``RunStats`` records
it.  The module loads neither the engine nor the coloring, so a coloring
command compiles no variable engine.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Hashable

from . import ContractError, _Record, seed_or_fresh


def default_step_limit(m: int) -> int:
    """Default guard on resample calls: 64 * m * ceil(log2(m + 2))."""
    return 64 * m * math.ceil(math.log2(m + 2))


def start_run(seed: int | None, step_limit: int | None, m: int) -> tuple[int, random.Random, int]:
    """The set-up of a resampling run over m bad objects: (seed, rng, limit).

    A negative ``step_limit`` is a ContractError.  A missing seed is drawn
    fresh and returned, so the run can be repeated; a missing limit is
    ``default_step_limit(m)``.
    """
    if step_limit is not None and step_limit < 0:
        raise ContractError(f"step_limit must be >= 0, got {step_limit}")
    seed = seed_or_fresh(seed)
    return seed, random.Random(seed), default_step_limit(m) if step_limit is None else step_limit


def resample_loop(next_root: Callable, least_child: Callable, resample: Callable, limit: int) -> tuple:
    """The resampling loop of ``engine.m_algorithm`` and ``coloring.col_alg``.

    While ``next_root()`` names a bad object (event, bichromatic cycle), a
    root call resamples it, then recurses on an explicit stack into
    ``least_child(top)`` until that is None.  Each call is a step, traced as
    ``(label, depth)`` with depth 0 for roots; a step past ``limit`` aborts
    the run instead.  Returns ``(trace, terminated)``.  Nothing runs
    between a root call's return and the next ``next_root()``, so a caller
    that snapshots its state there sees every completed root call's end.
    """
    trace: list[tuple] = []
    while (root := next_root()) is not None:
        if len(trace) >= limit:
            return trace, False
        stack = [root]
        trace.append((root, 0))
        resample(root)
        while stack:
            child = least_child(stack[-1])
            if child is None:
                stack.pop()
                continue
            if len(trace) >= limit:
                return trace, False
            trace.append((child, len(stack)))
            stack.append(child)
            resample(child)
    return trace, True


class RunStats(_Record):
    """Bookkeeping of one resampling run.

    ``trace`` lists every resample call as (label, depth), depth 0 being a
    root call from the main loop; it reconstructs the exact call structure.
    Its length is the run's step count and its root calls are the run's
    phases (the trees of its witness forest).  Two runs are equal when they
    are of one class and agree field by field.
    """

    __slots__ = ("trace", "terminated", "seed", "step_limit")
    __hash__ = None

    def __init__(self, trace: list[tuple[Hashable, int]], terminated: bool, seed: int, step_limit: int):
        self.trace = trace
        self.terminated = terminated
        self.seed = seed
        self.step_limit = step_limit

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in RunStats.__slots__)

    @property
    def steps(self) -> int:
        return len(self.trace)

    @property
    def phases(self) -> int:
        return sum(1 for _, depth in self.trace if depth == 0)
