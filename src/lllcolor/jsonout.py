"""Streamed JSON output of the commands that print JSON: ``color``,
``verify`` and ``sat``.

``json_blocks(payload)`` yields the text of ``json.dumps(payload, indent=2,
sort_keys=True) + "\\n"`` in blocks of about ``BLOCK_CHARS`` characters, so
no text copy of a long trace is held and an unbuffered stdout takes one
write per block.  One recursive emitter walks the payload: a list or tuple
of plain ints (an assignment, a coloring) or of int-pair tuples (a trace)
is written ``RUN`` items per ``str.join``; other containers are walked item
by item, and keys and scalars go through ``json.dumps``.
Every dict key must be a string, as in every payload of these commands;
any other key is a TypeError.  The other commands write CSV or plain text
and never load this module.
"""

from __future__ import annotations

import json
from itertools import chain

RUN = 512  # run items per str.join, up to about 16 KB of text for pairs
BLOCK_CHARS = 1 << 14  # pieces are gathered until a block holds this many characters

_dumps = json.dumps
_INT = {int}
_TUPLE = {tuple}


def json_blocks(payload):
    """The payload as indented JSON with sorted keys and a closing newline,
    in blocks."""
    buf: list[str] = []
    size = 0
    for piece in _pieces(payload, "\n"):
        buf.append(piece)
        size += len(piece)
        if size >= BLOCK_CHARS:
            yield "".join(buf)
            buf, size = [], 0
    buf.append("\n")
    yield "".join(buf)


def _pieces(value, pad: str):
    """The text of ``value`` as ``json.dumps(indent=2, sort_keys=True)``
    writes it where ``pad`` (a newline and the indent) closes it."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        if not all(type(key) is str for key in value):
            raise TypeError("JSON output takes string keys only")
        opening = "{" + inner
        for key in sorted(value):
            yield opening + _dumps(key) + ": "
            opening = "," + inner
            yield from _pieces(value[key], inner)
        yield pad + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        sep = "," + inner
        types = set(map(type, value))
        if types == _INT:
            item = int.__repr__
        elif types == _TUPLE and set(map(len, value)) == {2} and set(map(type, chain.from_iterable(value))) == _INT:
            deeper = inner + "  "
            item = ("[" + deeper + "%d," + deeper + "%d" + inner + "]").__mod__
        else:
            item = None
        opening = "[" + inner
        if item is None:
            for entry in value:
                yield opening
                opening = sep
                yield from _pieces(entry, inner)
        else:
            for start in range(0, len(value), RUN):
                yield opening + sep.join(map(item, value[start:start + RUN]))
                opening = sep
        yield pad + "]"
    else:
        yield _dumps(value)
