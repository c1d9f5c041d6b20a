"""Classical simulation and verification toolkit for linear-structure search.

Simulates the measurement statistics of period-finding runs on Boolean
functions, recovers linear structures and periods from the sampled
vectors, and cross-checks every probabilistic route against exact
transform-based oracles.
"""

from .boolfn import (
    Anf,
    MultiTruthTable,
    PlantSpec,
    TruthTable,
    anf_of,
    format_anf,
    format_multi_truth_table,
    format_truth_table,
    parse_anf,
    parse_multi_truth_table,
    parse_truth_table,
    plant_periods,
    plant_r_type,
    plant_structure,
    tt_of,
)
from .gf2 import (
    BitMatrix,
    BitVector,
    SpanTracker,
    Subspace,
    null_space_basis,
    span_equal,
    span_of,
)
from .oracle import (
    RTypeHit,
    StructureSets,
    VerifyResult,
    anchored_confirm,
    autocorrelation,
    brute_periods,
    brute_structures,
    r_type_scan,
    sampled_verify,
    violation_points,
)
from .probmodel import (
    TrialsBound,
    p_full_exact,
    prob_table,
    pseudo_confirm_prob,
    q_exact,
    rank_success_rate,
    required_trials,
    success_prob_exact,
)
from .recover import (
    PeriodReport,
    RunConfig,
    StructureReport,
    find_periods,
    find_structure_iterative,
    find_structure_simple,
)
from .rng import DEFAULT_SEED, as_rng
from .sat3 import (
    Cnf3,
    ProductEquationSystem,
    cnf_satisfiable,
    equisat_check,
    format_dimacs,
    parse_dimacs,
    reduce_cnf,
    solve_brute,
    theorem4_verify,
)
from .simulate import (
    CollapseOutcome,
    collapse,
    quantum_solve,
    sample_y,
    simon_round,
)
from .symbolic import (
    ClassifierVerdict,
    SymbolicCondition,
    classify_top,
    derivative_anf,
    solution_mask,
    theorem2_system,
)
from .walsh import mobius_transform

__version__ = "0.1.0"
