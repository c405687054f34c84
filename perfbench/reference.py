"""A fixed pure-Python computation that the benchmark times between ops.

    python3 perfbench/reference.py

It imports nothing from lllcolor, so a change to the program does not move
its time; a change in the machine's speed does.  run.py runs it in a fresh
interpreter, on the same CPU as the ops, before the first op and after
every op, and scales each op's wall time by the reference runs on either
side of it (see run.py).  The work mixes what the ops do: breadth-first
search over adjacency lists, exact Fraction sums, and method calls on small
objects.  It prints a checksum, which run.py compares with CHECKSUM.
"""

import random
from collections import deque
from fractions import Fraction

CHECKSUM = "562327 38976 40999"


def bfs_total(n: int, degree: int, sources: int, rng: random.Random) -> int:
    adj = [[] for _ in range(n)]
    for _ in range(n * degree // 2):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj[a].append(b)
            adj[b].append(a)
    total = 0
    for s in range(0, n, n // sources):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += sum(d for d in dist if d > 0)
    return total


def fraction_bits(terms: int) -> int:
    acc = Fraction(0)
    for k in range(1, terms + 1):
        acc += Fraction(k % 7 + 1, 3 * k + 1) * Fraction(1, 2) ** (k % 5)
    return acc.numerator.bit_length() + acc.denominator.bit_length()


class Cell:
    __slots__ = ("value", "links")

    def __init__(self, value: int):
        self.value = value
        self.links: list[Cell] = []

    def occurs(self, mask: int) -> bool:
        return (self.value & mask) == mask


def cell_scan(count: int, rounds: int, rng: random.Random) -> int:
    cells = [Cell(rng.randrange(1 << 12)) for _ in range(count)]
    for c in cells:
        c.links = [cells[rng.randrange(count)] for _ in range(3)]
    hits = 0
    for r in range(rounds):
        mask = (r * 37) & 0x3F
        for c in cells:
            if c.occurs(mask):
                hits += 1
                c.value = c.links[r % 3].value ^ r
    return hits


def main() -> str:
    rng = random.Random(20140719)
    return f"{bfs_total(3000, 8, 45, rng)} {fraction_bits(6000)} {cell_scan(3000, 200, rng)}"


if __name__ == "__main__":
    print(main())
