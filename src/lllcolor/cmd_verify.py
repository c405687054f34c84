"""`lllcolor verify`: recheck a coloring JSON against a graph, exit 0/1."""

import json

from . import cmd_common


def run(args) -> int:
    from . import graphs as graphs_mod
    from . import verify as verify_mod

    graph = graphs_mod.Graph.read_edge_list(args.graph)
    with open(args.coloring) as fh:
        try:
            payload = json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError("coloring JSON nests deeper than the decoder's recursion limit") from None
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
    cmd_common.emit(payload, args.out)
    return cmd_common.EXIT_OK if ok else 1
