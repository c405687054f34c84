"""Command line front end: the parser and the dispatch to one handler.

Each subcommand's handler lives in a module of its own, ``cmd_<command>``,
with the helpers and limits that only it uses; what several handlers share
(exit codes, the output writers, the auto palette) lives in ``cmd_common``.
``main`` parses the command line and imports the invoked command's module
alone, so a process compiles no other command's code.  A handler never
imports this module: under ``python -m lllcolor.cli`` it runs as
``__main__``, and a ``from .cli import`` would compile it again.
"""

from __future__ import annotations

import argparse
import sys

from .cmd_common import EXIT_INPUT

SUMMARY_GIRTHS = (3, 7, 53, 219)

HELP = """Command line front end.

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="lllcolor", description=HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="minimal palette slack per girth")
    p.add_argument("--girth", type=int, nargs="+", help="girth values to tabulate")
    p.add_argument("--table", type=int, nargs=2, metavar=("GMIN", "GMAX"), help="tabulate a girth range")
    p.add_argument("--summary", action="store_const", const=SUMMARY_GIRTHS, help=f"tabulate girths {SUMMARY_GIRTHS}")
    p.add_argument("--delta", type=int, help="also emit the palette size for this max degree")
    p.add_argument("--tol", type=float, default=1e-4, help="bisection width on the slack")
    p.add_argument("--out")

    p = sub.add_parser("color", help="acyclically edge-color a graph file")
    p.add_argument("graph")
    p.add_argument("--k", type=int, help="palette size; omit to derive from max degree and girth")
    p.add_argument("--seed", type=int)
    p.add_argument("--step-limit", type=int, dest="step_limit")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="recheck a coloring JSON against a graph (exit 0/1)")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--out")

    p = sub.add_parser("sat", help="resample a DIMACS CNF until satisfied")
    p.add_argument("cnf")
    p.add_argument("--seed", type=int)
    p.add_argument("--step-limit", type=int, dest="step_limit")
    p.add_argument("--out")

    p = sub.add_parser("bounds", help="exact and asymptotic step-count table")
    p.add_argument("--p", required=True, help="event probability bound, e.g. 1/8")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("bench", help="seeded coloring batches with tail statistics")
    p.add_argument("--generator", required=True, help="cycle:L | random-regular:D,L | gnp:L,PROB")
    p.add_argument("--gen-seed", type=int, default=0, dest="gen_seed")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed-base", type=int, dest="seed_base")
    p.add_argument("--k", type=int)
    p.add_argument("--step-limit", type=int, dest="step_limit")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, capped at the CPU count and --runs")
    p.add_argument("--out")

    p = sub.add_parser("dice", help="two-phase dice demo")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--phases", type=int, default=2)
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # __import__, not importlib.import_module: `-X importtime` logs only the former
    handler = __import__(f"{__package__}.cmd_{args.command}", fromlist=["run"])
    try:
        return handler.run(args)
    except (OSError, ValueError) as exc:
        print(f"lllcolor: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
