"""Shared fixtures: the two packaged problems, their kernel sets, and the
expensive solver runs that several test modules inspect.

Everything here is session-scoped because operator construction
tabulates the boundary integral G at a few thousand quadrature nodes and
the iteration fixtures are reused by the verification, solver, and
acceptance tests.  Both packaged problems share the same orders and
boundary weights, so one kernel pair serves both.
"""

import numpy as np
import pytest

from fracbvp import (
    Grid,
    IntegralOperator,
    KernelSet,
    SolutionPair,
    build_report,
    contract_solve,
    monotone_solve,
    resolve_problem,
)


@pytest.fixture(scope="session")
def sublinear_lp():
    return resolve_problem("sublinear")


@pytest.fixture(scope="session")
def lipschitz_lp():
    return resolve_problem("lipschitz")


@pytest.fixture(scope="session")
def sublinear(sublinear_lp):
    return sublinear_lp.spec


@pytest.fixture(scope="session")
def lipschitz(lipschitz_lp):
    return lipschitz_lp.spec


@pytest.fixture(scope="session")
def kernels(sublinear):
    ks1 = KernelSet.build(sublinear.alpha1, sublinear.h1)
    ks2 = KernelSet.build(sublinear.alpha2, sublinear.h2)
    return ks1, ks2


@pytest.fixture(scope="session")
def grid64():
    return Grid.make(64)


@pytest.fixture(scope="session")
def report_sublinear(sublinear, sublinear_lp):
    return build_report(sublinear, expected=sublinear_lp.expected)


@pytest.fixture(scope="session")
def report_lipschitz(lipschitz, lipschitz_lp):
    return build_report(lipschitz, expected=lipschitz_lp.expected)


@pytest.fixture(scope="session")
def op_sublinear(sublinear, kernels, grid64):
    ks1, ks2 = kernels
    return IntegralOperator(sublinear, ks1, ks2, grid64)


@pytest.fixture(scope="session")
def op_lipschitz(lipschitz, kernels, grid64):
    ks1, ks2 = kernels
    return IntegralOperator(lipschitz, ks1, ks2, grid64)


@pytest.fixture(scope="session")
def monotone_runs(sublinear, kernels, grid64, report_sublinear, op_sublinear):
    """Both chains of the monotone scheme on the sublinear problem."""
    ks1, ks2 = kernels
    lower = monotone_solve(sublinear, ks1, ks2, grid64, "lower",
                           tol=1e-5, operator=op_sublinear)
    upper = monotone_solve(sublinear, ks1, ks2, grid64, "upper",
                           tol=1e-5, radius=report_sublinear.R,
                           operator=op_sublinear)
    return {"lower": lower, "upper": upper}


@pytest.fixture(scope="session")
def contraction_run(lipschitz, kernels, grid64, report_lipschitz,
                    op_lipschitz):
    ks1, ks2 = kernels
    return contract_solve(lipschitz, ks1, ks2, grid64, tol=1e-4,
                          m=report_lipschitz.m, operator=op_lipschitz)


@pytest.fixture(scope="session")
def contraction_alt_run(lipschitz, kernels, grid64, report_lipschitz,
                        op_lipschitz):
    """Same problem, started from a constant pair of norm r instead of 0."""
    ks1, ks2 = kernels
    start = SolutionPair.constant(grid64, ks1.alpha, ks2.alpha,
                                  report_lipschitz.r)
    return contract_solve(lipschitz, ks1, ks2, grid64, initial=start,
                          tol=1e-4, m=report_lipschitz.m,
                          operator=op_lipschitz)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260825)
