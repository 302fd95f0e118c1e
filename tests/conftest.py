"""Shared fixtures: the two packaged problems, their kernel sets, and the
expensive solver runs that several test modules inspect.

Everything here is session-scoped because operator construction
tabulates the boundary integral G at a few thousand quadrature nodes and
the iteration fixtures are reused by the verification, solver, and
acceptance tests.  Both packaged problems share the same orders and
boundary weights, so one kernel pair serves both.

It also keeps the unbatched quadrature route (the _reference_*
functions at the end), which test_quad and test_problem import as the
bit-for-bit oracle of the batched engine.
"""

import heapq
import math

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
from fracbvp import quad


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


# -- the unbatched quadrature route, kept as the bit-for-bit oracle of the
# batched engine (test_quad) and of the report's batched constants
# (test_problem).

def _reference_panel(fn, lo, hi):
    """One panel estimated with three integrand calls: the engine's
    unbatched form, kept here as the bit-for-bit reference."""
    x, w = quad._gl(12)
    mid = 0.5 * (lo + hi)
    h1 = 0.5 * (hi - lo)
    coarse = h1 * float(w @ fn(mid + h1 * x))
    fine = 0.0
    for a, b in ((lo, mid), (mid, hi)):
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        fine += h * float(w @ fn(c + h * x))
    return fine, abs(fine - coarse), 36


def _reference_adapt(fn, lo, hi, tol, first=None):
    if hi <= lo:
        return 0.0, 0.0, 0, True
    val, err, n_eval = _reference_panel(fn, lo, hi)
    heap = [(-err, lo, hi, val)]
    frozen = []
    total_err = err
    count = 1
    width_floor = 1e-15 * max(abs(lo), abs(hi), 1.0)
    converged = True
    while total_err > tol:
        if count >= quad._MAX_PANELS or not heap:
            converged = False
            break
        neg_err, a, b, v = heapq.heappop(heap)
        if b - a <= width_floor:
            frozen.append((neg_err, a, b, v))
            if not heap:
                converged = False
                break
            continue
        total_err += neg_err
        m = 0.5 * (a + b)
        for c, d in ((a, m), (m, b)):
            pv, pe, pn = _reference_panel(fn, c, d)
            n_eval += pn
            heapq.heappush(heap, (-pe, c, d, pv))
            total_err += pe
        count += 1
    panels = sorted(heap + frozen, key=lambda item: item[1])
    value = math.fsum(p[3] for p in panels)
    error = math.fsum(-p[0] for p in panels)
    return value, error, n_eval, converged


def _reference_substituted(fn, a, c, sigma):
    p = 1.0 + sigma
    w = c - a
    return lambda y: fn(a + w * y ** (1.0 / p)) * (w / p) * y ** (1.0 / p - 1.0)


def _reference_finite(f, a, b, tol):
    """integrate_finite one piece at a time, each piece through
    _reference_adapt: the unbatched route, kept as the reference."""
    cuts = [a] + [k for k in f.kinks if a < k < b] + [b]
    pieces = [(f.fn, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    if f.endpoint_exponent != 0.0 and a == 0.0:
        pieces[0] = (_reference_substituted(f.fn, a, cuts[1],
                                            f.endpoint_exponent), 0.0, 1.0)
    value = error = 0.0
    n_eval, ok = 0, True
    for fn, lo, hi in pieces:
        v, e, ne, conv = _reference_adapt(fn, lo, hi, tol / len(pieces))
        value += v
        error += e
        n_eval += ne
        ok = ok and conv
    return quad.QuadResult(value, error, b, n_eval, ok)


def _reference_halfline(f, tol):
    """integrate_halfline with every doubling through _reference_adapt."""
    t0 = 1.0
    if f.kinks:
        t0 = max(t0, 1.5 * f.kinks[-1])
    reach = 0.0  # a decay hint only keeps the walk from stopping short
    if f.decay_hint is not None:
        reach = min(45.0 / f.decay_hint, 2.0 ** 40 * t0)
    head = _reference_finite(f, 0.0, t0, tol / 2)
    value, error = head.value, head.error_estimate
    n_eval, ok = head.evaluations, head.converged
    t, prev, last, stabilized = t0, math.inf, 0.0, False
    for i in range(quad._MAX_DOUBLINGS):
        v, e, ne, conv = _reference_adapt(f.fn, t, 2 * t, tol / 8)
        n_eval += ne
        ok = ok and conv
        value += v
        error += e
        t *= 2
        # The first panels of the rest of this doubling's chunk, which
        # the engine holds already, must be small too.
        chunk_end = (i // quad._TAIL_CHUNK + 1) * quad._TAIL_CHUNK
        ahead = [_reference_panel(f.fn, lo, 2 * lo)[0]
                 for j in range(i + 1, min(chunk_end, quad._MAX_DOUBLINGS))
                 if (lo := t0 * 2.0 ** j) < math.inf]
        if abs(v) < tol / 4 and abs(prev) < tol / 4 and t >= reach \
                and all(abs(a) < tol / 4 for a in ahead):
            stabilized, last = True, abs(v)
            break
        prev, last = v, abs(v)
    if stabilized:
        error += last
    else:
        ok = False
        error += abs(last) if math.isfinite(last) else math.inf
    return quad.QuadResult(value, error, t, n_eval, ok)
