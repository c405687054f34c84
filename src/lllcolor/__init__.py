"""Constructive Lovász Local Lemma toolkit.

Resampling engine with witness forests and validation, exact/asymptotic
step-count bounds, acyclic proper edge coloring by cycle resampling, and
the characteristic-equation solver for the minimal palette slack.
"""

from .bounds import (
    BoundParams,
    NoCutoffError,
    algorithm_bound,
    cutoff_estimate,
    lll_condition,
    phase_bound,
    q_closed_form,
    q_recurrence,
    q_series,
)
from .coloring import (
    ColorRunStats,
    ColorState,
    Cycle,
    PaletteError,
    VerifyResult,
    col_alg,
    count_cycles_through_edge,
    find_bichromatic_cycle,
    forbidden_colors,
    greedy_4acyclic,
    verify_acyclic,
)
from .dimacs import clause_system, formula_satisfied, parse_dimacs, read_dimacs
from .engine import (
    ContractError,
    Event,
    EventSystem,
    RunStats,
    VariableSpace,
    WitnessForest,
    build_witness_forest,
    check_feasible,
    default_step_limit,
    dice_experiment,
    m_algorithm,
    occurs,
    sample_all,
    validate,
)
from .gamma import (
    GammaSolution,
    PhiParams,
    SolverError,
    colors_needed,
    cycle_prob_bounds,
    girth_to_r,
    min_gamma,
    min_gamma_for_girth,
    phi,
    phi_prime,
    q_coloring_recurrence,
    q_coloring_series,
    series_fixed_point,
    solve_tau,
)
from .graphs import Graph, cycle_graph, complete_graph, gnp_graph, path_graph, petersen_graph, random_regular_graph, star_graph

__version__ = "0.1.0"
