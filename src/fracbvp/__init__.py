"""Solver library for coupled fractional-order boundary value problems
on the half line.

The pieces, bottom up: quad (adaptive quadrature), fracops (scalar
fractional operators), exprlang (the expression language of problem
files), kernels (the integral kernels and their bounds), problem
(hypothesis checks and derived constants), solver (the discretized
operator and the two iteration schemes), verify (after-the-fact
residuals and audits), cli (problem files and the command line).
"""

from .exprlang import compile_expr, parse, to_source
from .fracops import FracOrder, gamma, rl_derivative, rl_integral
from .kernels import (KernelSet, compute_lambda, derivative_representation,
                      kernel_representation)
from .problem import (GrowthData, HypothesisReport, InapplicableError,
                      LipschitzData, ProblemSpec, build_report, check_h1,
                      check_h4)
from .quad import (Integrand, QuadratureError, QuadResult, integrate_finite,
                   integrate_halfline)
from .solver import (ContractionRatioWarning, Grid, IntegralOperator,
                     IterationTrace, MonotonicityError, SolutionPair,
                     contract_solve, diff_norm, monotone_solve, norm_pair)
from .verify import (AuditResult, VerificationReport, boundary_residual,
                     error_bound_audit, fixed_point_residual,
                     ode_residual_spotcheck, ordering_audit, verify_pair)
from .cli import (LoadedProblem, ProblemFileError, format_problem,
                  load_problem, packaged_problem_names, resolve_problem)

__version__ = "0.1.0"

__all__ = [
    "AuditResult", "ContractionRatioWarning", "FracOrder", "Grid",
    "GrowthData", "HypothesisReport", "InapplicableError", "Integrand",
    "IntegralOperator", "IterationTrace", "KernelSet", "LipschitzData",
    "LoadedProblem", "MonotonicityError", "ProblemFileError",
    "ProblemSpec", "QuadResult", "QuadratureError", "SolutionPair",
    "VerificationReport", "boundary_residual", "build_report", "check_h1",
    "check_h4", "compile_expr", "compute_lambda", "contract_solve",
    "derivative_representation", "diff_norm", "error_bound_audit",
    "fixed_point_residual", "format_problem", "gamma",
    "integrate_finite", "integrate_halfline", "kernel_representation",
    "load_problem", "monotone_solve", "norm_pair",
    "ode_residual_spotcheck", "ordering_audit", "packaged_problem_names",
    "parse", "resolve_problem", "rl_derivative", "rl_integral",
    "to_source", "verify_pair",
]
