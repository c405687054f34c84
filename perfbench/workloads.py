"""The four workloads: their inputs, their ops and the checks of each op.

Every op is one or more CLI commands, each in a fresh interpreter, run
one after another (closed loop, one client).  A workload has a few op
variants (different program seeds on the same inputs); ops cycle through
them, so each variant repeats within a run and must give the same output
bytes every time.

Sizes were set on a 2-core machine so that one op takes one to four
seconds and the layer each workload exists for carries the op.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import checks

# color_dense: girth BFS (all-pairs, O(n*m)) plus the greedy pass and the
# rescan detector's full scans.  At degree 24 most seeds need no recolor
# step, so the op's time does not jump with the seed.
COLOR_DEGREE, COLOR_N = 24, 600
# bench_tight: K_20 at the smallest legal palette 2*19 - 1, where recolor
# steps do happen (a few per run).
BENCH_N, BENCH_K, BENCH_RUNS = 20, 37, 300
BENCH_GENERATOR = f"random-regular:{BENCH_N - 1},{BENCH_N}"  # the only 19-regular graph on 20 vertices
# sat_chain: chain 3-SAT; root selection rescans from event 0 and grows
# quadratically with the clause count.
SAT_CLAUSES = 4000
# paper_tables: the analytic tables, fixed by the paper's parameters.
BOUNDS_P, BOUNDS_DELTA, BOUNDS_N = Fraction(1, 8), 3, 70
GAMMA_GIRTHS, GAMMA_DELTA = range(5, 121), 11
SERIES_GAMMA, SERIES_R, SERIES_N = 1.74, 3.0, 100
SERIES_REL_TOL = 1e-8

NAMES = ("color_dense", "bench_tight", "sat_chain", "paper_tables")


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def input_spec(workload: str, seed: int) -> dict:
    """What the set-up writes; read by child.py, so it must stay cheap."""
    input_seed = _seeds(workload, seed, 1)[0]
    if workload == "color_dense":
        return {"graph": (COLOR_DEGREE, COLOR_N), "graph_seed": input_seed}
    if workload == "sat_chain":
        return {"clauses": SAT_CLAUSES, "cnf_seed": input_seed}
    return {}


class Workload:
    """One workload: ``steps(v)`` lists the commands of an op of variant v
    as (mode, args, stdout file); ``check`` validates an op's outputs, given
    the stdout files, and returns its exact counters."""

    variants = 4
    count_evals = False

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        # first seed goes to the inputs (input_spec), the rest to the variants
        self.op_seeds = _seeds(name, seed, 1 + self.variants)[1:]
        self.spec = input_spec(name, seed)
        self.properties: dict = {}

    def rel(self, filename: str) -> str:
        return str(self.work / filename)

    def prepare(self) -> None:
        """Read what the set-up wrote and record the input's properties."""

    def steps(self, v: int) -> list[tuple[str, list[str], str]]:
        raise NotImplementedError

    def output_files(self, v: int) -> list[Path]:
        """The files whose bytes each op of variant v must reproduce."""
        raise NotImplementedError

    def check(self, v: int, outputs: list[Path]) -> dict:
        raise NotImplementedError


class ColorDense(Workload):
    variants = 5

    def prepare(self):
        n, self.edges = checks.parse_edge_list((self.work / "graph.edges").read_text())
        self.n = n
        adj = checks.adjacency(n, self.edges)
        self.properties = {
            "n": n,
            "m": len(self.edges),
            "delta": max(map(len, adj)),
            "girth": checks.girth(adj),
        }

    def steps(self, v):
        out = self.rel(f"coloring{v}.json")
        seed = str(self.op_seeds[v])
        return [
            ("cli", ["color", self.rel("graph.edges"), "--seed", seed, "--out", out], f"color{v}.stdout"),
            ("cli", ["verify", self.rel("graph.edges"), out], f"verify{v}.stdout"),
        ]

    def output_files(self, v):
        return [self.work / f"coloring{v}.json", self.work / f"verify{v}.stdout"]

    def check(self, v, outputs):
        payload = json.loads((self.work / f"coloring{v}.json").read_text())
        checks.check_coloring(self.edges, self.n, payload)
        verdict = json.loads(outputs[1].read_text())
        if not (verdict["proper"] and verdict["acyclic"]):
            raise checks.CheckFailed("lllcolor verify rejected the coloring")
        self.properties["K"] = payload["K"]
        stats = payload["stats"]
        return {"coloring.steps": stats["steps"], "coloring.phases": stats["phases"]}


class BenchTight(Workload):
    def prepare(self):
        n = BENCH_N
        self.properties = {"n": n, "m": n * (n - 1) // 2, "delta": n - 1, "girth": 3, "K": BENCH_K, "runs": BENCH_RUNS}

    def base(self, v):
        return self.op_seeds[0] + v * BENCH_RUNS

    def steps(self, v):
        args = ["bench", "--generator", BENCH_GENERATOR, "--k", str(BENCH_K), "--runs", str(BENCH_RUNS),
                "--seed-base", str(self.base(v)), "--jobs", "1"]
        return [("cli", args, f"bench{v}.csv")]

    def output_files(self, v):
        return [self.work / f"bench{v}.csv"]

    def check(self, v, outputs):
        run_steps = checks.check_bench(outputs[0].read_text(), BENCH_RUNS, self.base(v))
        return {"coloring.steps": sum(run_steps), "run_steps": run_steps}


class SatChain(Workload):
    count_evals = True  # engine.event_evals: Event.occurs calls, counted in a pass of their own

    def prepare(self):
        self.n_vars, self.clauses = checks.chain_3sat(self.spec["clauses"], random.Random(self.spec["cnf_seed"]))
        if (self.work / "formula.cnf").read_text() != checks.dimacs_text(self.n_vars, self.clauses):
            raise checks.CheckFailed("set-up wrote another formula than the seed gives")
        self.properties = {"clauses": len(self.clauses), "variables": self.n_vars, "delta": 3, "p": "1/8"}

    def steps(self, v):
        return [("cli", ["sat", self.rel("formula.cnf"), "--seed", str(self.op_seeds[v])], f"sat{v}.json")]

    def output_files(self, v):
        return [self.work / f"sat{v}.json"]

    def check(self, v, outputs):
        payload = json.loads(outputs[0].read_text())
        if not (payload["terminated"] and payload["satisfied"]):
            raise checks.CheckFailed("sat did not report a satisfying assignment")
        checks.check_assignment(self.n_vars, self.clauses, payload["assignment"])
        stats = payload["stats"]
        return {
            "engine.steps": stats["steps"],
            "engine.phases": stats["phases"],
            "engine.max_depth": max((d for _, d in stats["trace"]), default=0),
        }


class PaperTables(Workload):
    variants = 1  # the tables take no seed: every op is the same

    def prepare(self):
        self.properties = {
            "bounds": {"p": str(BOUNDS_P), "delta": BOUNDS_DELTA, "n": BOUNDS_N},
            "gamma": {"girths": [GAMMA_GIRTHS.start, GAMMA_GIRTHS.stop - 1], "delta": GAMMA_DELTA},
            "series": {"gamma": SERIES_GAMMA, "r": SERIES_R, "n": SERIES_N},
        }
        self._oracle = None

    def steps(self, v):
        return [
            ("cli", ["bounds", "--p", str(BOUNDS_P), "--delta", str(BOUNDS_DELTA), "--n", str(BOUNDS_N)], "bounds.csv"),
            ("cli", ["gamma", "--table", str(GAMMA_GIRTHS.start), str(GAMMA_GIRTHS.stop - 1),
                     "--delta", str(GAMMA_DELTA)], "gamma.csv"),
            ("series", [str(SERIES_GAMMA), str(SERIES_R), str(SERIES_N)], "series.json"),
        ]

    def output_files(self, v):
        return [self.work / name for name in ("bounds.csv", "gamma.csv", "series.json")]

    def oracle(self) -> list[float]:
        if self._oracle is None:
            from lllcolor.gamma import series_fixed_point

            self._oracle = series_fixed_point(SERIES_GAMMA, SERIES_R, SERIES_N)
        return self._oracle

    def check(self, v, outputs):
        bits = checks.check_bounds(outputs[0].read_text(), BOUNDS_P, BOUNDS_DELTA, BOUNDS_N)
        checks.check_gamma(outputs[1].read_text(), GAMMA_GIRTHS)
        checks.check_series(json.loads(outputs[2].read_text()), self.oracle(), SERIES_REL_TOL)
        return {"bounds.q_max_bits": bits}


CLASSES = {"color_dense": ColorDense, "bench_tight": BenchTight, "sat_chain": SatChain, "paper_tables": PaperTables}


def make(name: str, seed: int, work: Path) -> Workload:
    return CLASSES[name](name, seed, work)
