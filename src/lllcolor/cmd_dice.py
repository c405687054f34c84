"""`lllcolor dice`: the two-phase dice demo against its exact value."""

import json
import math
import random

from . import cmd_common, seed_or_fresh

MAX_DICE_TRIALS = 10**6  # the sample size of acceptance criterion 7
# (91/216)**800 is about 5e-301, still a normal float; from 863 phases on
# the exact value underflows to 0 and z is undefined
MAX_DICE_PHASES = 800


def run(args) -> int:
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
    cmd_common.emit("\n".join(lines) + "\n", args.out)
    return cmd_common.EXIT_OK
