"""`lllcolor sat`: resample a DIMACS CNF until it is satisfied."""

from . import cmd_common


def run(args) -> int:
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
    cmd_common.emit(payload, args.out)
    if not stats.terminated:
        return cmd_common.EXIT_NOT_TERMINATED
    return cmd_common.EXIT_OK if satisfied else cmd_common.EXIT_VERIFY
