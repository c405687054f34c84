"""Command line front end.

Subcommands: gamma (slack/palette tables), color (acyclic edge coloring of
a graph file), verify (recheck a coloring, exit 0/1), sat (resampling on a
DIMACS CNF), bounds (exact/asymptotic step-count tables), bench (seeded
coloring batches with tail statistics), dice (the two-phase dice demo).

Every run echoes its full configuration in the output (`schema`/`config`
fields in JSON, `#`-prefixed comment lines before CSV headers) and a
missing --seed is replaced by a recorded random one, so any data output is
byte-reproducible from its own metadata.  JSON (color, verify, sat) is
streamed by `lllcolor.jsonout` and `csv` is imported by the CSV commands
alone, so a process loads only the writer it uses.

Exit codes: 0 success, 2 verification failure, 3 not terminated within the
step limit, 4 input error (one line on stderr).  `verify` exits 1 unless
the coloring is proper, acyclic and within the palette 0..K-1.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import sys

from . import MAX_HEADER_VERTICES, seed_or_fresh

# Each command imports the library modules it runs and no others, so a
# process pays start-up only for those; calls go through the module
# (`coloring_mod.col_alg`), so a wrapper set on the module is seen.

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_NOT_TERMINATED = 3
EXIT_INPUT = 4

SUMMARY_GIRTHS = (3, 7, 53, 219)
MAX_GAMMA_ROWS = 10**4  # girths in one --table or --girth list; 3,000 rows take about 0.5 s on a 2-core x86 host, --delta or not


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _emit(content: str | dict, out_path: str | None) -> None:
    """Write text, or a JSON payload as ``jsonout.json_blocks`` streams it,
    to --out or stdout."""
    if isinstance(content, str):
        blocks = [content]
    else:
        from . import jsonout as jsonout_mod

        blocks = jsonout_mod.json_blocks(content)
    fh = open(out_path, "w") if out_path else sys.stdout
    try:
        for block in blocks:
            fh.write(block)
    finally:
        if out_path:
            fh.close()


def _csv_text(config: dict, header: list[str], rows, extra_blocks=None) -> str:
    import csv

    buf = io.StringIO()
    buf.write("# schema=1\n")
    buf.write(f"# config={json.dumps(config, sort_keys=True)}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    for block_header, block_rows in extra_blocks or ():
        buf.write("\n")
        writer.writerow(block_header)
        writer.writerows(block_rows)
    return buf.getvalue()


# -- gamma -------------------------------------------------------------------

def cmd_gamma(args) -> int:
    from . import gamma as gamma_mod

    if args.summary:
        girths = list(SUMMARY_GIRTHS)
    elif args.table:
        lo, hi = args.table
        if not 3 <= lo <= hi <= MAX_HEADER_VERTICES:
            raise ValueError(f"--table needs 3 <= gmin <= gmax <= {MAX_HEADER_VERTICES}")
        if hi - lo + 1 > MAX_GAMMA_ROWS:
            raise ValueError(f"--table asks for {hi - lo + 1} girths, more than {MAX_GAMMA_ROWS}")
        girths = list(range(lo, hi + 1))
    elif args.girth:
        if len(args.girth) > MAX_GAMMA_ROWS:
            raise ValueError(f"--girth gives {len(args.girth)} girths, more than {MAX_GAMMA_ROWS}")
        girths = args.girth
    else:
        raise ValueError("give --girth, --table or --summary")
    config = {"command": "gamma", "girths": girths, "delta": args.delta, "tol": args.tol}
    header = ["girth", "r", "gamma", "tau", "rho"]
    if args.delta is not None:
        header.append("colors")
    rows = []
    for g in girths:
        r = gamma_mod.girth_to_r(g)
        sol = gamma_mod.min_gamma_solution(r, tol=args.tol)
        row = [g, r, f"{sol.params.gamma:.3f}", f"{sol.tau:.10f}", f"{sol.rho:.10f}"]
        if args.delta is not None:
            row.append(gamma_mod.colors_needed(args.delta, g))
        rows.append(row)
    _emit(_csv_text(config, header, rows), args.out)
    return EXIT_OK


# -- color / verify ----------------------------------------------------------

def _auto_palette(graph) -> int:
    from . import gamma as gamma_mod

    girth = None if graph.max_degree < 2 else graph.girth()
    if girth is None:  # forest: the greedy threshold suffices, nothing to recolor
        return max(1, 2 * graph.max_degree - 1)
    return gamma_mod.colors_needed(graph.max_degree, girth)


def cmd_color(args) -> int:
    from . import coloring as coloring_mod
    from . import graphs as graphs_mod
    from . import verify as verify_mod

    graph = graphs_mod.Graph.read_edge_list(args.graph)
    k = _auto_palette(graph) if args.k is None else args.k
    state, stats = coloring_mod.col_alg(graph, k, seed=args.seed, step_limit=args.step_limit)
    colors = state.colors
    del state  # the verifier builds its own per-vertex maps; do not hold two sets at once
    verdict = (
        verify_mod.verify_acyclic(graph, k, colors)
        if stats.terminated
        else verify_mod.VerifyResult(False, False, None)
    )
    payload = {
        "schema": 1,
        "config": {
            "command": "color",
            "graph": str(args.graph),
            "k": k,
            "auto": args.k is None,
            "seed": stats.seed,
            "step_limit": stats.step_limit,
        },
        "K": k,
        "colors": colors,
        "stats": {"steps": stats.steps, "phases": stats.phases, "seed": stats.seed},
        "terminated": stats.terminated,
        "verdict": {"proper": verdict.proper, "acyclic": verdict.acyclic},
    }
    _emit(payload, args.out)
    if not stats.terminated:
        return EXIT_NOT_TERMINATED
    if not (verdict.proper and verdict.acyclic):
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import graphs as graphs_mod
    from . import verify as verify_mod

    graph = graphs_mod.Graph.read_edge_list(args.graph)
    with open(args.coloring) as fh:
        payload = json.load(fh)
    k, colors = (payload.get("K"), payload.get("colors")) if isinstance(payload, dict) else (None, None)
    if not isinstance(colors, list) or not all(type(c) is int for c in [k, *colors]):
        raise ValueError("coloring JSON needs an integer K and a list of integer colors")
    if k < 1:
        raise ValueError(f"coloring JSON has palette K={k}; a palette holds at least 1 color")
    if len(colors) != graph.m:
        raise ValueError("coloring length does not match the graph's edge count")
    verdict = verify_mod.verify_acyclic(graph, k, colors)
    ok = verdict.proper and verdict.acyclic
    witness = list(verdict.witness) if verdict.witness else None
    payload = {
        "schema": 1,
        "config": {"command": "verify", "graph": str(args.graph), "coloring": str(args.coloring)},
        "proper": verdict.proper,
        "acyclic": verdict.acyclic,
        "witness": witness,
    }
    _emit(payload, args.out)
    return EXIT_OK if ok else 1


# -- sat ----------------------------------------------------------------------

def cmd_sat(args) -> int:
    from . import dimacs as dimacs_mod
    from . import engine as engine_mod

    n_vars, clauses = dimacs_mod.read_dimacs(args.cnf)
    system = dimacs_mod.clause_system(n_vars, clauses)
    values, stats = engine_mod.m_algorithm(system, seed=args.seed, step_limit=args.step_limit)
    satisfied = dimacs_mod.formula_satisfied(clauses, values) if stats.terminated else None
    payload = {
        "schema": 1,
        "config": {
            "command": "sat",
            "cnf": str(args.cnf),
            "seed": stats.seed,
            "step_limit": stats.step_limit,
        },
        "terminated": stats.terminated,
        "satisfied": satisfied,
        "assignment": values if stats.terminated else None,
        "stats": {"seed": stats.seed, "steps": stats.steps, "phases": stats.phases, "trace": stats.trace},
    }
    _emit(payload, args.out)
    if not stats.terminated:
        return EXIT_NOT_TERMINATED
    return EXIT_OK if satisfied else EXIT_VERIFY


# -- bounds -------------------------------------------------------------------

def cmd_bounds(args) -> int:
    from fractions import Fraction

    from . import bounds as bounds_mod

    try:
        p = Fraction(args.p)
    except ZeroDivisionError:
        raise ValueError(f"--p {args.p!r} divides by zero") from None
    params = bounds_mod.BoundParams(p, args.delta, m=args.m)
    flags = bounds_mod.lll_condition(params)
    try:
        cutoff = bounds_mod.cutoff_estimate(params)
    except bounds_mod.NoCutoffError:
        cutoff = None
    config = {
        "command": "bounds",
        "p": str(params.p),
        "delta": params.delta,
        "m": params.m,
        "n": args.n,
    }
    rows = [
        (n, exact, f"{approx:.12g}", f"{envelope:.12g}", f"{powed:.12g}")
        for n, exact, approx, envelope, powed in bounds_mod.bound_rows(params, args.n)
    ]
    summary = (
        ["strict", "classic", "base", "cutoff"],
        [[flags["strict"], flags["classic"], f"{params.base:.12g}", "" if cutoff is None else cutoff]],
    )
    _emit(
        _csv_text(config, ["n", "q_exact", "q_float", "phase_bound", "base_pow"], rows, [summary]),
        args.out,
    )
    return EXIT_OK


# -- bench --------------------------------------------------------------------

GENERATOR_ARITY = {"cycle": 1, "random-regular": 2, "gnp": 2}
MAX_GENERATOR_PAIRS = 10**8  # vertex pairs that gnp draws, edges that random-regular builds
MAX_BENCH_RUNS = 10**6


def _parse_generator(descriptor: str, gen_seed: int):
    from . import graphs as graphs_mod

    if gen_seed < 0:
        raise ValueError(f"--gen-seed must be >= 0, got {gen_seed}")
    name, _, rest = descriptor.partition(":")
    params = [p for p in rest.split(",") if p]
    if name not in GENERATOR_ARITY:
        raise ValueError(f"unknown generator {descriptor!r}")
    if len(params) != GENERATOR_ARITY[name]:
        raise ValueError(f"generator {name!r} takes {GENERATOR_ARITY[name]} parameter(s), got {descriptor!r}")
    n_vertices = int(params[1] if name == "random-regular" else params[0])
    if n_vertices > MAX_HEADER_VERTICES:
        raise ValueError(f"{n_vertices} vertices exceed the cap of {MAX_HEADER_VERTICES}")
    if name == "gnp" and n_vertices > 0 and n_vertices * (n_vertices - 1) // 2 > MAX_GENERATOR_PAIRS:
        raise ValueError(f"gnp on {n_vertices} vertices draws more than {MAX_GENERATOR_PAIRS} vertex pairs")
    if name == "random-regular" and int(params[0]) * n_vertices // 2 > MAX_GENERATOR_PAIRS:
        raise ValueError(f"{descriptor!r} asks for more than {MAX_GENERATOR_PAIRS} edges")
    if name == "cycle":
        if n_vertices < 1:
            raise ValueError(f"cycle length {n_vertices} must be >= 1")
        if n_vertices < 3:
            return graphs_mod.Graph(n_vertices, [])
        return graphs_mod.cycle_graph(n_vertices)
    if name == "gnp":
        return graphs_mod.gnp_graph(n_vertices, float(params[1]), seed=gen_seed)
    return graphs_mod.random_regular_graph(int(params[0]), n_vertices, seed=gen_seed)


def _bench_one(task):
    from . import coloring as coloring_mod

    graph, k, step_limit, seed = task
    _, stats = coloring_mod.col_alg(graph, k, seed=seed, step_limit=step_limit)
    return (seed, stats.steps, stats.phases, stats.terminated)


def cmd_bench(args) -> int:
    if not 1 <= args.runs <= MAX_BENCH_RUNS:
        raise ValueError(f"--runs must be in 1..{MAX_BENCH_RUNS}")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    graph = _parse_generator(args.generator, args.gen_seed)
    k = _auto_palette(graph) if args.k is None else args.k
    base = seed_or_fresh(args.seed_base)
    seeds = [base + i for i in range(args.runs)]
    tasks = [(graph, k, args.step_limit, s) for s in seeds]
    workers = min(args.jobs, os.cpu_count() or 1, args.runs)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_bench_one, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        results = [_bench_one(t) for t in tasks]
    steps = [r[1] for r in results]
    tail_rows = []
    n = 1
    top = max(steps, default=0)
    while n <= max(top, 1):
        tail_rows.append((n, sum(1 for s in steps if s >= n) / len(steps)))
        n *= 2
    config = {
        "command": "bench",
        "generator": args.generator,
        "gen_seed": args.gen_seed,
        "k": k,
        "runs": args.runs,
        "seed_base": base,
        "step_limit": args.step_limit,
        "jobs": args.jobs,
    }
    _emit(
        _csv_text(
            config,
            ["seed", "steps", "phases", "terminated"],
            results,
            [(["n", "pr_steps_ge_n"], tail_rows)],
        ),
        args.out,
    )
    return EXIT_OK


# -- dice ---------------------------------------------------------------------

MAX_DICE_TRIALS = 10**6  # the sample size of acceptance criterion 7
# (91/216)**800 is about 5e-301, still a normal float; from 863 phases on
# the exact value underflows to 0 and z is undefined
MAX_DICE_PHASES = 800


def cmd_dice(args) -> int:
    from fractions import Fraction

    from . import witness as witness_mod

    if not 1 <= args.trials <= MAX_DICE_TRIALS:
        raise ValueError(f"--trials must be in 1..{MAX_DICE_TRIALS}")
    if not 1 <= args.phases <= MAX_DICE_PHASES:
        raise ValueError(f"--phases must be in 1..{MAX_DICE_PHASES}")
    seed = seed_or_fresh(args.seed)
    estimate = witness_mod.dice_experiment(args.trials, random.Random(seed), phases=args.phases)
    exact = float(Fraction(91, 216) ** args.phases)
    sigma = math.sqrt(exact * (1 - exact) / args.trials)
    z = (estimate - exact) / sigma if sigma else float("nan")
    config = {"command": "dice", "trials": args.trials, "seed": seed, "phases": args.phases}
    lines = [
        "schema=1",
        f"config={json.dumps(config, sort_keys=True)}",
        f"estimate={estimate:.6f}",
        f"exact={exact:.6f}",
        f"z={z:+.3f}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- plumbing -----------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="lllcolor", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="minimal palette slack per girth")
    p.add_argument("--girth", type=int, nargs="+", help="girth values to tabulate")
    p.add_argument("--table", type=int, nargs=2, metavar=("GMIN", "GMAX"), help="tabulate a girth range")
    p.add_argument("--summary", action="store_true", help=f"tabulate girths {SUMMARY_GIRTHS}")
    p.add_argument("--delta", type=int, help="also emit the palette size for this max degree")
    p.add_argument("--tol", type=float, default=1e-4, help="bisection width on the slack")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("color", help="acyclically edge-color a graph file")
    p.add_argument("graph")
    p.add_argument("--k", type=int, help="palette size; omit to derive from max degree and girth")
    p.add_argument("--seed", type=int)
    p.add_argument("--step-limit", type=int, dest="step_limit")
    p.add_argument("--out")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="recheck a coloring JSON against a graph (exit 0/1)")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sat", help="resample a DIMACS CNF until satisfied")
    p.add_argument("cnf")
    p.add_argument("--seed", type=int)
    p.add_argument("--step-limit", type=int, dest="step_limit")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("bounds", help="exact and asymptotic step-count table")
    p.add_argument("--p", required=True, help="event probability bound, e.g. 1/8")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("bench", help="seeded coloring batches with tail statistics")
    p.add_argument("--generator", required=True, help="cycle:L | random-regular:D,L | gnp:L,PROB")
    p.add_argument("--gen-seed", type=int, default=0, dest="gen_seed")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed-base", type=int, dest="seed_base")
    p.add_argument("--k", type=int)
    p.add_argument("--step-limit", type=int, dest="step_limit")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, capped at the CPU count and --runs")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dice", help="two-phase dice demo")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--phases", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dice)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"lllcolor: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
