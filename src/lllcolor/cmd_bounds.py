"""`lllcolor bounds`: the exact and asymptotic step-count table, as CSV."""

import re
import sys

from . import cmd_common

# --p is a fraction a/b or a decimal, in ASCII digits; its exponent, if any,
# is group 1.  Fraction would also take spaces, "_" and other digits
P_FORM = re.compile(r"[+-]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:e([+-]?\d+))?)", re.ASCII | re.IGNORECASE)
# digits that p's numerator or denominator may spell: Python prints no
# longer int by default (sys.int_info.default_max_str_digits), and the
# config echoes p.  Fraction("1e99999999") builds 10**99999999 first, which
# ran for more than a minute
MAX_P_DIGITS = 4300


def _read_p(text: str):
    from fractions import Fraction

    form = P_FORM.fullmatch(text)
    if form is None:
        raise ValueError(f"--p {text!r} is not a fraction a/b or a decimal")
    # the text's length plus its exponent's size bounds the digits that
    # p's numerator and denominator spell; the length check comes first,
    # so that reading the exponent is cheap
    if len(text) > MAX_P_DIGITS or len(text) + abs(int(form[1] or 0)) > MAX_P_DIGITS:
        raise ValueError(f"--p spells a number of more than {MAX_P_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"--p {text!r} divides by zero") from None


def run(args) -> int:
    from . import bounds as bounds_mod

    params = bounds_mod.BoundParams(_read_p(args.p), args.delta, m=args.m)
    flags = bounds_mod.lll_condition(params)
    try:
        cutoff = bounds_mod.cutoff_estimate(params)
    except bounds_mod.NoCutoffError:
        cutoff = ""
    try:
        rows = [
            (n, exact, f"{approx:.12g}", f"{envelope:.12g}", f"{powed:.12g}")
            for n, exact, approx, envelope, powed in bounds_mod.bound_rows(params, args.n)
        ]
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        # Python spells no int of more digits than its limit: name the first
        # row whose Q_n has a numerator or denominator past it
        limit = sys.get_int_max_str_digits()
        n = next(n for n, q_n in enumerate(bounds_mod.q_series(params, args.n)) if max(q_n.as_integer_ratio()) >= 10**limit)
        raise ValueError(f"row n={n}: q_exact spells a number of more than {limit} digits") from None
    config = {
        "command": "bounds",
        "p": str(params.p),
        "delta": params.delta,
        "m": params.m,
        "n": args.n,
    }
    summary = (
        ["strict", "classic", "base", "cutoff"],
        [[flags["strict"], flags["classic"], f"{params.base:.12g}", cutoff]],
    )
    cmd_common.emit(
        cmd_common.csv_text(config, ["n", "q_exact", "q_float", "phase_bound", "base_pow"], rows, [summary]),
        args.out,
    )
    return cmd_common.EXIT_OK
