"""Constructive Lovász Local Lemma toolkit.

Resampling engine with witness forests and validation, exact/asymptotic
step-count bounds, acyclic proper edge coloring by cycle resampling, and
the characteristic-equation solver for the minimal palette slack.

Import each name from the module that defines it, for example
``from lllcolor.coloring import col_alg``: ``import lllcolor`` loads no
submodule, so each command line process loads only the modules it runs.
"""

__version__ = "0.1.0"


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
    ``object.__setattr__``; assigning or deleting a field afterwards raises
    AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
