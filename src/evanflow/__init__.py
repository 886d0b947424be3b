"""evanflow: gradient-flow simulation, evanescent-orbit solving and
trajectory-based potential reconstruction."""

from evanflow.fields import (
    CatalogError,
    DifferentiableField,
    NonnegativityError,
    NumericDomainError,
    PotentialPair,
    catalog_ids,
    field_from_f,
    induced_potential,
    make_counterexample,
    make_example_one,
    make_pair,
    make_quadratic,
    parse_matrix_literal,
    resolve_potential,
)
from evanflow.integrate import (
    IntegratorOptions,
    Trajectory,
    gradient_flow,
    path_integral,
    second_order_flow,
)
from evanflow.diagnostics import (
    CheckResult,
    DiagnosticsReport,
    evanescence_measures,
)
from evanflow.evanescent import (
    EvanescentSolveResult,
    cross_validate,
    discrete_action,
    minimize_action,
    shoot_evanescent,
)
from evanflow.eikonal import (
    ReconstructOptions,
    ReconstructionResult,
    convexity_criterion_check,
    determination_check,
    determination_verdict,
    eikonal_residual,
    grid_points,
    reconstruct_grid,
    reconstruct_value,
)
from evanflow.kernels import USING_EXTENSION

__version__ = "0.1.0"

__all__ = [
    "CatalogError", "CheckResult", "DiagnosticsReport",
    "DifferentiableField", "EvanescentSolveResult",
    "IntegratorOptions", "NonnegativityError", "NumericDomainError",
    "PotentialPair", "ReconstructOptions", "ReconstructionResult",
    "Trajectory", "USING_EXTENSION", "catalog_ids",
    "convexity_criterion_check", "cross_validate", "determination_check",
    "determination_verdict", "discrete_action", "eikonal_residual",
    "evanescence_measures", "field_from_f", "gradient_flow", "grid_points",
    "induced_potential", "make_counterexample", "make_example_one",
    "make_pair", "make_quadratic", "minimize_action", "parse_matrix_literal",
    "path_integral", "reconstruct_grid", "reconstruct_value",
    "resolve_potential", "second_order_flow", "shoot_evanescent",
]
