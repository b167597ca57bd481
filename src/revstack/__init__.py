"""Affine strategy synthesis for multilevel hierarchical games.

A top-level decision maker announces its decision as a map of everyone
below; each intermediate level then does the same for the levels below it.
This package computes the joint decision the top level wants realized,
builds affine announcement maps that make every lower level's selfish best
response land exactly there, and verifies the construction numerically.
"""

from __future__ import annotations

from .errors import (
    ConvergenceError,
    DimensionError,
    DocumentError,
    DocumentSyntaxError,
    EquilibriumError,
    ExistenceError,
    FormulaError,
    InfeasibleError,
    NonUniqueOptimumError,
    NotMinimumError,
    RevstackError,
    UnboundedRegionError,
    UnknownVariableError,
)
from .model import (
    DecisionPoint,
    Dims,
    ExprObjective,
    GameProblem,
    LinearConstraints,
    QuadraticObjective,
    evaluate,
    evaluate_many,
)
from .calculus import (
    gradient,
    hessian,
    strict_convexity_probe,
)
from .equilibrium import (
    EquilibriumResult,
    team_optimum,
    team_optimum_constrained,
    team_optimum_descent,
    team_optimum_quadratic,
)
from .geometry import ExistenceVerdict, leader_existence_check
from .synthesis import (
    AffineStrategy,
    StrategyFamily,
    instantiate,
    reduce_problem,
    synthesize_cascade,
    synthesize_family_leader,
    synthesize_single_leader,
)
from .verify import (
    GridSpec,
    InequalityStats,
    OracleResult,
    VerificationReport,
    oracle_best_response,
    sublevel_inequality_check,
    verify_full,
)
from .constrained import (
    FeasibilityVerdict,
    feasibility_check,
    simplex_maximize,
)
from .formula import parse_formula
from .documents import parse_problem, parse_strategies, strategies_to_document

__version__ = "0.1.0"

__all__ = [
    "AffineStrategy",
    "ConvergenceError",
    "DecisionPoint",
    "DimensionError",
    "Dims",
    "DocumentError",
    "DocumentSyntaxError",
    "EquilibriumError",
    "EquilibriumResult",
    "ExistenceError",
    "ExistenceVerdict",
    "ExprObjective",
    "FeasibilityVerdict",
    "FormulaError",
    "GameProblem",
    "GridSpec",
    "InequalityStats",
    "InfeasibleError",
    "LinearConstraints",
    "NonUniqueOptimumError",
    "NotMinimumError",
    "OracleResult",
    "QuadraticObjective",
    "RevstackError",
    "StrategyFamily",
    "UnboundedRegionError",
    "UnknownVariableError",
    "VerificationReport",
    "evaluate",
    "evaluate_many",
    "feasibility_check",
    "gradient",
    "hessian",
    "instantiate",
    "leader_existence_check",
    "oracle_best_response",
    "parse_formula",
    "parse_problem",
    "parse_strategies",
    "reduce_problem",
    "simplex_maximize",
    "strategies_to_document",
    "strict_convexity_probe",
    "sublevel_inequality_check",
    "synthesize_cascade",
    "synthesize_family_leader",
    "synthesize_single_leader",
    "team_optimum",
    "team_optimum_constrained",
    "team_optimum_descent",
    "team_optimum_quadratic",
    "verify_full",
]
