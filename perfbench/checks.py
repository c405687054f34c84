"""Output checks that share no code with the layers they check.

Each check raises ``CheckFailed`` with a one-line reason.  None of them
imports ``lllcolor``: the coloring check is a union-find forest test per
color pair (not the alternating-walk detector that ``lllcolor verify``
uses), the SAT check evaluates the generated clauses directly and the
bounds check uses the closed form rather than the recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckFailed(Exception):
    """An op's output is wrong."""


# -- inputs -------------------------------------------------------------------

def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a `p edges <n> <m>` file."""
    n = None
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            n = int(parts[2])
        else:
            edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        raise CheckFailed("edge list has no header")
    return n, edges


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def girth(adj: list[list[int]]) -> int | None:
    """Shortest cycle length by BFS from every vertex, stopping each search
    once no shorter cycle can be found (a cycle closed at depth d has length
    at least 2d + 1)."""
    best = math.inf
    for s in range(len(adj)):
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        for u in queue:
            if 2 * dist[u] + 1 >= best:
                break
            for w in adj[u]:
                if w == parent[u]:
                    continue
                if w in dist:
                    best = min(best, dist[u] + dist[w] + 1)
                else:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
    return None if best == math.inf else int(best)


# -- color ----------------------------------------------------------------------

def check_coloring(edges: list[tuple[int, int]], n: int, payload: dict) -> None:
    """Palette membership, properness, and no bichromatic cycle.

    A cycle in the subgraph of colors {a, b} has degree 2 at each of its
    vertices, so only edges whose both endpoints carry both colors can lie
    on one; union-find over those edges, keyed by (color pair, vertex),
    finds any such cycle.
    """
    k = payload.get("K")
    colors = payload.get("colors")
    if not isinstance(k, int) or not isinstance(colors, list):
        raise CheckFailed("coloring output lacks an integer K or a color list")
    if len(colors) != len(edges):
        raise CheckFailed(f"{len(colors)} colors for {len(edges)} edges")
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    max_degree = max(degree, default=0)
    if k < 2 * max_degree - 1:
        raise CheckFailed(f"palette K={k} below 2*maxdeg-1={2 * max_degree - 1}")
    at: list[dict[int, int]] = [{} for _ in range(n)]
    for idx, ((u, v), c) in enumerate(zip(edges, colors)):
        if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < k:
            raise CheckFailed(f"edge {idx} has color {c!r} outside 0..{k - 1}")
        for x in (u, v):
            if c in at[x]:
                raise CheckFailed(f"color {c} repeats at vertex {x}")
            at[x][c] = idx
    parent: dict[tuple[int, int, int], tuple[int, int, int]] = {}

    def find(node):
        root = node
        while parent.get(root, root) != root:
            root = parent[root]
        while node != root:
            parent[node], node = root, parent[node]
        return root

    for idx, ((u, v), a) in enumerate(zip(edges, colors)):
        for b in at[u].keys() & at[v].keys():
            if b == a:
                continue
            pair = (a, b) if a < b else (b, a)
            ru, rv = find((*pair, u)), find((*pair, v))
            if ru == rv:
                raise CheckFailed(f"edge {idx} closes a cycle in colors {pair}")
            parent[ru] = rv


# -- sat ----------------------------------------------------------------------

def chain_3sat(n_clauses: int, rng) -> tuple[int, list[tuple[int, ...]]]:
    """Chain 3-SAT: clause i holds variables 2i+1, 2i+2, 2i+3 (1-based) with
    random signs, so neighbouring clauses share one variable (delta = 3)
    and each clause is violated with probability 1/8."""
    clauses = []
    for i in range(n_clauses):
        signs = rng.getrandbits(3)
        clauses.append(tuple(v if signs >> s & 1 else -v for s, v in enumerate(range(2 * i + 1, 2 * i + 4))))
    return 2 * n_clauses + 1, clauses


def dimacs_text(n_vars: int, clauses) -> str:
    lines = [f"p cnf {n_vars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def check_assignment(n_vars: int, clauses, assignment) -> None:
    if not isinstance(assignment, list) or len(assignment) != n_vars:
        raise CheckFailed("assignment missing or of the wrong length")
    if any(x not in (0, 1) for x in assignment):
        raise CheckFailed("assignment holds a non-boolean value")
    for j, clause in enumerate(clauses):
        if not any((assignment[abs(lit) - 1] == 1) == (lit > 0) for lit in clause):
            raise CheckFailed(f"clause {j} is violated")


# -- CSV tables -----------------------------------------------------------------

def csv_blocks(text: str) -> list[list[list[str]]]:
    """Blank-line separated blocks of comma-split rows, comments dropped."""
    blocks: list[list[list[str]]] = [[]]
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if not line.strip():
            blocks.append([])
        else:
            blocks[-1].append(line.split(","))
    return [b for b in blocks if b]


def check_bench(text: str, runs: int, seed_base: int) -> list[int]:
    """Every one of the runs is listed once and terminated; returns steps per run."""
    table = csv_blocks(text)[0]
    if table[0] != ["seed", "steps", "phases", "terminated"]:
        raise CheckFailed(f"unexpected bench header {table[0]}")
    rows = table[1:]
    seeds = sorted(int(r[0]) for r in rows)
    if seeds != list(range(seed_base, seed_base + runs)):
        raise CheckFailed(f"bench lists {len(rows)} runs, expected seeds {seed_base}..{seed_base + runs - 1}")
    if any(r[3] != "True" for r in rows):
        raise CheckFailed("a bench run hit its step limit")
    return [int(r[1]) for r in rows]


def closed_form_q(p: Fraction, delta: int, n: int) -> Fraction:
    return p**n * Fraction(math.comb(delta * n, n), (delta - 1) * n + 1)


def check_bounds(text: str, p: Fraction, delta: int, n_max: int) -> int:
    """q_exact matches the closed form for n = 0..n_max; returns the largest
    numerator or denominator bit length."""
    rows = csv_blocks(text)[0][1:]
    if [int(r[0]) for r in rows] != list(range(n_max + 1)):
        raise CheckFailed("bounds table does not list n = 0..n_max")
    bits = 0
    for r in rows:
        q = Fraction(r[1])
        if q != closed_form_q(p, delta, int(r[0])):
            raise CheckFailed(f"q_exact at n={r[0]} differs from the closed form")
        bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


def check_gamma(text: str, girths: range) -> None:
    table = csv_blocks(text)[0]
    rho = table[0].index("rho")
    rows = table[1:]
    if [int(r[0]) for r in rows] != list(girths):
        raise CheckFailed("gamma table does not list the requested girths")
    for r in rows:
        if not float(r[rho]) < 1.0:
            raise CheckFailed(f"rho={r[rho]} is not below 1 at girth {r[0]}")


def check_series(values, oracle, rel_tol: float) -> None:
    if len(values) != len(oracle):
        raise CheckFailed(f"series has {len(values)} terms, oracle {len(oracle)}")
    for n, (x, y) in enumerate(zip(values, oracle)):
        if not abs(x - y) <= rel_tol * abs(y):
            raise CheckFailed(f"series term {n} = {x!r} disagrees with the fixed-point oracle {y!r}")
