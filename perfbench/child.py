"""Child process of the benchmark: one fresh interpreter per command.

    python3 perfbench/child.py [--spans FILE --op ID] MODE ARGS...

Modes:
  setup WORKLOAD SEED DIR   import lllcolor.cli, then write the workload's inputs
  series GAMMA R N          print q_coloring_series(GAMMA, R, N) as JSON
  cli ARGS...               run lllcolor.cli.main(ARGS) (traced runs only;
                            untraced ops run `python3 -m lllcolor.cli`)
  count-evals FILE ARGS...  run lllcolor.cli.main(ARGS) counting Event.occurs
                            calls (no spans); write the count to FILE

With --spans, the public functions listed in targets() are wrapped before the
mode runs and restored after it; every call becomes a span
[name, start, end, parent index, meta], kept in memory and written to FILE
as JSON when the process ends.  Per-edge functions are not wrapped.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _first_occurring_name(args, kwargs) -> str:
    candidates = kwargs.get("candidates", args[2] if len(args) > 2 else None)
    return "engine.root_select" if candidates is None else "engine.neighbour_scan"


def _col_alg_meta(args, result) -> dict:
    graph, (_, stats) = args[0], result
    return {"steps": stats.steps, "phases": stats.phases, "decisions": graph.m + sum(stats.cycle_lengths)}


def _m_algorithm_meta(args, result) -> dict:
    stats = result[1]
    return {"steps": stats.steps, "phases": stats.phases, "max_depth": max((d for _, d in stats.trace), default=0)}


def targets():
    """(owner, attribute, span name or naming function, meta function)."""
    from lllcolor import bounds, cli, coloring, dimacs, engine, gamma, graphs

    return [
        (graphs.Graph, "read_edge_list", "graphs.read", None),
        (graphs.Graph, "girth", "graphs.girth", None),
        (graphs, "random_regular_graph", "graphs.generate", None),
        (gamma, "colors_needed", "gamma.colors_needed", None),
        (gamma, "min_gamma", "gamma.min_gamma", None),
        (gamma, "solve_tau", "gamma.solve_tau", None),
        (gamma, "q_coloring_series", "gamma.series", None),
        (coloring, "col_alg", "coloring.col_alg", _col_alg_meta),
        (coloring, "greedy_4acyclic", "coloring.greedy", None),
        (coloring, "find_bichromatic_cycle", "coloring.full_scan", None),
        (coloring.CycleIndex, "__init__", "coloring.index_build", None),
        (coloring.CycleIndex, "refresh_after", "coloring.refresh", None),
        (coloring, "verify_acyclic", "coloring.verify", None),
        (engine, "m_algorithm", "engine.m_algorithm", _m_algorithm_meta),
        (engine, "sample_all", "engine.sample", None),
        (engine.EventSystem, "first_occurring", _first_occurring_name, None),
        (dimacs, "read_dimacs", "dimacs.read", None),
        (dimacs, "clause_system", "dimacs.system", None),
        (dimacs, "formula_satisfied", "dimacs.check", None),
        (bounds, "bound_rows", "bounds.rows", None),
        (bounds, "q_series", "bounds.q_series", None),
        (cli, "main", lambda args, kwargs: f"cli.{args[0][0]}", None),
    ]


class Tracer:
    """Wraps the targets in spans; ``restore`` puts the originals back."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, meta in targets():
            raw = vars(owner)[attr]
            is_classmethod = isinstance(raw, classmethod)
            wrapper = self._wrap(raw.__func__ if is_classmethod else raw, name, meta)
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            self._saved.append((owner, attr, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, func, name, meta):
        spans, stack = self.spans, self._stack
        naming = name if callable(name) else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [naming(args, kwargs) if naming else name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if meta is not None:
                record[4] = meta(args, result)
            return result

        return wrapper


def setup(workload: str, seed: int, out_dir: Path) -> None:
    import lllcolor.cli  # noqa: F401  (a user's first command pays this import)
    from lllcolor import graphs

    import checks
    import workloads

    spec = workloads.input_spec(workload, seed)
    if "graph" in spec:
        degree, n = spec["graph"]
        graph = graphs.random_regular_graph(degree, n, seed=spec["graph_seed"])
        (out_dir / "graph.edges").write_text(graph.to_edge_list())
    if "clauses" in spec:
        n_vars, clauses = checks.chain_3sat(spec["clauses"], random.Random(spec["cnf_seed"]))
        (out_dir / "formula.cnf").write_text(checks.dimacs_text(n_vars, clauses))


def series(gamma: float, r: float, n: int) -> None:
    from lllcolor.gamma import q_coloring_series

    sys.stdout.write(json.dumps(q_coloring_series(gamma, r, n)) + "\n")


def count_evals(cli_args: list[str], out: Path) -> int:
    from lllcolor import cli, engine

    count = 0
    original = vars(engine.Event)["occurs"]

    def occurs(self, values):
        nonlocal count
        count += 1
        return original(self, values)

    engine.Event.occurs = occurs
    try:
        code = cli.main(cli_args)
    finally:
        engine.Event.occurs = original
    out.write_text(json.dumps({"event_evals": count}))
    return code


def run_mode(mode: str, args: list[str]) -> int:
    if mode == "setup":
        setup(args[0], int(args[1]), Path(args[2]))
        return 0
    if mode == "series":
        series(float(args[0]), float(args[1]), int(args[2]))
        return 0
    if mode == "cli":
        from lllcolor import cli

        return cli.main(args)
    raise SystemExit(f"child.py: unknown mode {mode!r}")


def main(argv: list[str]) -> int:
    if argv[0] == "count-evals":
        return count_evals(argv[2:], Path(argv[1]))
    spans_path = op = None
    if argv[0] == "--spans":
        spans_path, op, argv = Path(argv[1]), int(argv[3]), argv[4:]
    if spans_path is None:
        return run_mode(argv[0], argv[1:])
    tracer = Tracer()
    tracer.install()
    code = None
    try:
        code = run_mode(argv[0], argv[1:])
    finally:
        tracer.restore()
        spans_path.write_text(json.dumps({"op": op, "exit": code, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
