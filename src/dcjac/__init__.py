"""dcjac: certified Clarke generalized Jacobian elements for functions
representable as a difference of max-type functions, with independent
verification oracles and a local semismooth Newton solver."""

from .dcmax import (
    ActiveSet,
    DCMaxFn,
    MaxFn,
    SchemaError,
    active_set,
    dd_F,
    eval_F,
    load_problem,
    load_problem_file,
)
from .expr import DomainError, ParseError, SmoothFn, parse, unparse
from .instances import random_affine_problem
from .jacobian import (
    ConventionMismatchError,
    DifferenceVectors,
    JacobianElement,
    WitnessDirection,
    check_witness,
    clarke_jacobian_element,
    selection_differences,
    verify_cone_linearity,
    verify_limit_inclusion,
    witness_direction,
)
from .newton import NewtonTrace, build_ncp, ncp_residual, solve
from .oracle import (
    HullCertificate,
    LimitingSample,
    RegionCertificate,
    brute_force_subdifferential,
    certify_claimed_region,
    finite_diff_dd,
    hull_membership,
    is_affine,
    sample_limiting_jacobians,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSet",
    "ConventionMismatchError",
    "DCMaxFn",
    "DifferenceVectors",
    "DomainError",
    "HullCertificate",
    "JacobianElement",
    "LimitingSample",
    "MaxFn",
    "NewtonTrace",
    "ParseError",
    "RegionCertificate",
    "SchemaError",
    "SmoothFn",
    "WitnessDirection",
    "active_set",
    "brute_force_subdifferential",
    "build_ncp",
    "certify_claimed_region",
    "check_witness",
    "clarke_jacobian_element",
    "dd_F",
    "eval_F",
    "finite_diff_dd",
    "hull_membership",
    "is_affine",
    "load_problem",
    "load_problem_file",
    "ncp_residual",
    "parse",
    "random_affine_problem",
    "sample_limiting_jacobians",
    "selection_differences",
    "solve",
    "unparse",
    "verify_cone_linearity",
    "verify_limit_inclusion",
    "witness_direction",
]
