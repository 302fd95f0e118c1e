"""Solver library for coupled fractional-order boundary value problems
on the half line.

The pieces, bottom up: quad (adaptive quadrature), fracops (scalar
fractional operators), exprlang (the expression language of problem
files), kernels (the integral kernels and their bounds), problem
(hypothesis checks and derived constants), solver (the discretized
operator and the two iteration schemes), verify (after-the-fact
residuals and audits), cli (problem files and the command line).
"""

import importlib

__version__ = "0.1.0"

# Home module -> the public names it exports.  A name or a submodule is
# imported on first access (PEP 562), not with the package, so that a
# command pays only for the modules it runs.
_EXPORTS = {
    "exprlang": "compile_expr parse to_source",
    "fracops": "FracOrder gamma rl_derivative rl_integral",
    "kernels": "KernelSet compute_lambda derivative_representation "
               "kernel_representation",
    "problem": "GrowthData HypothesisReport InapplicableError LipschitzData "
               "ProblemSpec build_report check_h1 check_h4",
    "quad": "Integrand QuadratureError QuadResult integrate_finite "
            "integrate_halfline",
    "solver": "Grid IntegralOperator IterationTrace MonotonicityError "
              "SchemeBreakError SolutionPair contract_solve diff_norm "
              "monotone_solve norm_pair",
    "verify": "AuditResult VerificationReport boundary_residual "
              "error_bound_audit fixed_point_residual ode_residual_spotcheck "
              "ordering_audit verify_pair",
    "cli": "LoadedProblem ProblemFileError load_problem "
           "packaged_problem_names resolve_problem",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(__getattr__(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
