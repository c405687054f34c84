"""Constructive Lovász Local Lemma toolkit.

Resampling engine with witness forests and validation, exact/asymptotic
step-count bounds, acyclic proper edge coloring by cycle resampling, and
the characteristic-equation solver for the minimal palette slack.

The names below are imported from their modules on first use (PEP 562),
so `import lllcolor` (and each command line process) loads only the
modules it touches.
"""

import importlib

_EXPORTS = {
    "bounds": (
        "BoundParams",
        "NoCutoffError",
        "algorithm_bound",
        "cutoff_estimate",
        "lll_condition",
        "phase_bound",
        "q_closed_form",
        "q_series",
    ),
    "coloring": (
        "ColorRunStats",
        "ColorState",
        "Cycle",
        "PaletteError",
        "VerifyResult",
        "col_alg",
        "count_cycles_through_edge",
        "find_bichromatic_cycle",
        "forbidden_colors",
        "greedy_4acyclic",
        "verify_acyclic",
    ),
    "dimacs": ("clause_system", "formula_satisfied", "parse_dimacs", "read_dimacs"),
    "engine": (
        "ContractError",
        "Event",
        "EventSystem",
        "RunStats",
        "VariableSpace",
        "WitnessForest",
        "build_witness_forest",
        "check_feasible",
        "default_step_limit",
        "dice_experiment",
        "m_algorithm",
        "sample_all",
        "validate",
    ),
    "gamma": (
        "GammaSolution",
        "PhiParams",
        "SolverError",
        "colors_needed",
        "cycle_prob_bounds",
        "girth_to_r",
        "min_gamma",
        "phi",
        "phi_prime",
        "q_coloring_series",
        "series_fixed_point",
        "solve_tau",
    ),
    "graphs": (
        "Graph",
        "cycle_graph",
        "complete_graph",
        "gnp_graph",
        "path_graph",
        "petersen_graph",
        "random_regular_graph",
        "star_graph",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


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
