"""`lllcolor color`: acyclically edge-color a graph file, then verify it."""

from . import cmd_common


def run(args) -> int:
    from . import coloring as coloring_mod
    from . import graphs as graphs_mod
    from . import verify as verify_mod

    graph = graphs_mod.Graph.read_edge_list(args.graph)
    k = cmd_common.auto_palette(graph) if args.k is None else args.k
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
    cmd_common.emit(payload, args.out)
    if not stats.terminated:
        return cmd_common.EXIT_NOT_TERMINATED
    if not (verdict.proper and verdict.acyclic):
        return cmd_common.EXIT_VERIFY
    return cmd_common.EXIT_OK
