"""Constructive Lovász Local Lemma toolkit.

Resampling engine with witness forests and validation, exact/asymptotic
step-count bounds, acyclic proper edge coloring by cycle resampling, and
the characteristic-equation solver for the minimal palette slack.

Import each name from the module that defines it, for example
``from lllcolor.coloring import col_alg``: ``import lllcolor`` loads no
submodule, so each command line process loads only the modules it runs.
What several modules share lives here, so none loads another for it:
``ContractError``, the vertex cap ``MAX_HEADER_VERTICES``, the record
bases, ``seed_or_fresh`` and the graph and CNF token rule ``token_error``.
"""

__version__ = "0.1.0"

MAX_HEADER_VERTICES = 10**6  # a graph file's header may not ask for more vertex lists


class ContractError(ValueError):
    """A documented precondition was violated."""


def seed_or_fresh(seed: int | None) -> int:
    """The seed of a run: the one given, or a fresh one from the system's
    entropy, which the run records so that it can be repeated."""
    if seed is not None:
        return seed
    import random

    return random.SystemRandom().randrange(2**32)


def token_error(lineno: int, line: str) -> ValueError:
    """A token is ASCII ``[+-]?[0-9]+``, but ``int`` also reads ``1_0`` and
    other digits, so a parser refuses a data line that is not ASCII or has
    ``_`` with this error, naming its first such token, or else the line."""
    bad = next((tok for tok in line.split() if not tok.isascii() or "_" in tok), line)
    return ValueError(f"line {lineno}: {bad!r} is not an ASCII integer")


class _Record:
    """Base of the package's record classes: plain classes whose fields are
    their ``__slots__``, which ``__repr__`` lists.  They stand in for the
    standard library's generated record classes, whose module loads
    ``inspect`` and cost each command process about 15 ms to import."""

    __slots__ = ()

    def __repr__(self):
        names = [name for cls in reversed(type(self).__mro__) for name in vars(cls).get("__slots__", ())]
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"


class _Frozen(_Record):
    """A record whose ``__init__`` sets each field once, through
    ``object.__setattr__`` or the slot's own descriptor; assigning or
    deleting a field afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
