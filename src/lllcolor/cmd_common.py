"""What the command handlers share: exit codes, the two output writers and
the palette a coloring command picks when none is given.  Handlers import
it instead of ``lllcolor.cli``, which runs as ``__main__`` under
``python -m lllcolor.cli``; they call through the module
(``cmd_common.emit``), so a wrapper set on it is seen."""

from __future__ import annotations

import io
import json
import sys

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_NOT_TERMINATED = 3
EXIT_INPUT = 4


def emit(content: str | dict, out_path: str | None) -> None:
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


def csv_text(config: dict, header: list[str], rows, extra_blocks=None) -> str:
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


def auto_palette(graph) -> int:
    """The palette of `color` and `bench` without --k."""
    from . import gamma as gamma_mod

    girth = None if graph.max_degree < 2 else graph.girth()
    if girth is None:  # forest: the greedy threshold suffices, nothing to recolor
        return max(1, 2 * graph.max_degree - 1)
    return gamma_mod.colors_needed(graph.max_degree, girth)
