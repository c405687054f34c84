"""`lllcolor bench`: seeded coloring batches on a generated graph, with the
tail of their step counts, as CSV."""

import os

from . import MAX_HEADER_VERTICES, cmd_common, seed_or_fresh

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


def run(args) -> int:
    if not 1 <= args.runs <= MAX_BENCH_RUNS:
        raise ValueError(f"--runs must be in 1..{MAX_BENCH_RUNS}")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    graph = _parse_generator(args.generator, args.gen_seed)
    k = cmd_common.auto_palette(graph) if args.k is None else args.k
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
    cmd_common.emit(
        cmd_common.csv_text(
            config,
            ["seed", "steps", "phases", "terminated"],
            results,
            [(["n", "pr_steps_ge_n"], tail_rows)],
        ),
        args.out,
    )
    return cmd_common.EXIT_OK
