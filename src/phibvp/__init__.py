"""Two-point boundary value problems driven by an odd increasing homeomorphism.

The package solves -phi(u')' = h(x) and its nonlinear relatives
-phi(u')' = lam * m(x) f(u) + mu * n(x) g(u) with zero boundary values on a
bounded interval, provides verified discrete bound chains for the solution
operator, sub/supersolution construction with a sandwich iteration, a
shooting sweep for multiplicity diagrams, and growth-index diagnostics for
the driving homeomorphism.
"""

from .errors import (ConstructionError, ConvergenceError, GridMismatchError,
                     PhiBVPError, ProblemFileError, UnboundedInputError,
                     ZeroWeightError)
from .grids import (Grid, GridFunction, dist_to_boundary, integral,
                    pointwise_leq, sup_norm, support_data)
from .homeomorphisms import (CATALOG_DESCRIPTORS, Homeomorphism,
                             inverse_homeomorphism, inverse_saturating,
                             make_catalog_entry, make_power, numeric_inverse)
from .linear import (SolutionProfile, cone_lower_bound, envelope_bounds,
                     estimate_comparison_constant, monotone_check, solve_linear,
                     sup_norm_lower_bound, verify_comparison_constant)
from .problems import (FConstants, G1Constants, G2Constants, ProblemSpec, rhs,
                       with_lambda)
from .nonlinear import (build_subsolution, build_supersolution,
                        make_sub_super_pair, scan_shooting, shoot,
                        solve_between, verify_subsolution, verify_supersolution)
from .bifurcation import (BranchDiagram, BranchPoint, BranchSolution,
                          check_cone_membership, compute_lambda1,
                          lambda_star_bisect, sweep)
from .orlicz import (HypothesisVerdict, IndexEstimate, LimitClass,
                     check_delta2, check_phi_conditions, classify_limit,
                     duality_check, estimate_indices, growth_ratio,
                     hypothesis_advisor)
from .problem_io import (parse_linear_problem, parse_problem,
                         write_diagram_csv, write_json_report,
                         write_profile_csv)
from .corpus import corpus, random_forcing

__version__ = "0.1.0"

__all__ = [
    "BranchDiagram", "BranchPoint", "BranchSolution", "CATALOG_DESCRIPTORS",
    "ConstructionError", "ConvergenceError", "FConstants", "G1Constants",
    "G2Constants", "Grid", "GridFunction", "GridMismatchError",
    "Homeomorphism", "HypothesisVerdict", "IndexEstimate", "LimitClass",
    "PhiBVPError", "ProblemFileError", "ProblemSpec", "SolutionProfile",
    "UnboundedInputError", "ZeroWeightError", "build_subsolution",
    "build_supersolution", "check_cone_membership", "check_delta2",
    "check_phi_conditions", "classify_limit", "compute_lambda1",
    "cone_lower_bound", "corpus", "dist_to_boundary", "duality_check",
    "envelope_bounds", "estimate_comparison_constant", "estimate_indices",
    "growth_ratio", "hypothesis_advisor", "integral", "inverse_homeomorphism",
    "inverse_saturating", "lambda_star_bisect", "make_catalog_entry",
    "make_power", "make_sub_super_pair", "monotone_check", "numeric_inverse",
    "parse_linear_problem", "parse_problem", "pointwise_leq", "random_forcing",
    "rhs", "scan_shooting", "shoot", "solve_between", "solve_linear",
    "sup_norm", "sup_norm_lower_bound", "support_data", "sweep",
    "verify_comparison_constant", "verify_subsolution", "verify_supersolution",
    "with_lambda", "write_diagram_csv", "write_json_report",
    "write_profile_csv",
]
