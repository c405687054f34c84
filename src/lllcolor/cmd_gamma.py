"""`lllcolor gamma`: the minimal palette slack per girth, as CSV."""

from . import MAX_HEADER_VERTICES, cmd_common

MAX_GAMMA_ROWS = 10**4  # girths in one --table or --girth list; 3,000 rows take about 0.5 s on a 2-core x86 host, --delta or not


def run(args) -> int:
    from . import gamma as gamma_mod

    if args.summary:
        girths = list(args.summary)
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
    cmd_common.emit(cmd_common.csv_text(config, header, rows), args.out)
    return cmd_common.EXIT_OK
