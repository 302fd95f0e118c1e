"""Adaptive quadrature on finite intervals and the half-line.

This is the numerical workhorse under every kernel integral, derived
constant, and verification cross-check in the package.  Integrands declare
their awkward features up front (interior kinks, an algebraic endpoint
exponent, an exponential decay rate for the tail) and the driver deals with
them: panels are never allowed to straddle a declared kink, an algebraic
endpoint singularity is removed by a power substitution on the first panel,
and half-line integrals are truncated by panel doubling with a geometric
tail estimate folded into the reported error.

The adaptive engine is composite Gauss-Legendre: each panel is scored by
the difference between a 12-point rule and the same rule on the two halves,
and the worst panel is split until the summed estimate meets the tolerance.
Summation order is fixed (panels are sorted by position before the final
sum), so results are deterministic for a given integrand and tolerance.

Integrands must be pointwise: each output value depends only on its own
input value.  The engine evaluates several panels in one call, on arrays
of 36*k points: one call for the first panels of all untransformed
pieces, one for that of a transformed piece, and one for the two halves
of each split (72).  Nodes and per-panel sums are those of evaluating
one 12-point rule per call, so for a pointwise integrand the batching
changes nothing but the number of calls.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Integrand",
    "QuadResult",
    "QuadratureError",
    "integrate_finite",
    "integrate_halfline",
]

# Default tolerances: tight for one-off constants, looser inside iteration
# loops where the iteration error dominates anyway.
DEFAULT_TOL = 1e-10
LOOP_TOL = 1e-8

_MAX_PANELS = 4096
_MAX_DOUBLINGS = 60


@functools.cache
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached."""
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class Integrand:
    """A real function on (0, inf) with declared trouble spots.

    fn                 vectorized callable, ndarray -> ndarray; must be
                       pointwise (each output depends only on its own
                       input), because the engine evaluates several
                       panels in one call on arrays of 36*k points
    kinks              strictly increasing interior points where fn is
                       continuous but not smooth (panel boundaries are
                       forced there)
    endpoint_exponent  sigma such that fn(t) ~ t^sigma as t -> 0+; 0 for a
                       regular endpoint.  sigma <= -1 is a legal
                       description (boundary weights can diverge that
                       fast) but such a function can only be integrated
                       away from 0; the drivers reject it at the point of
                       use.
    decay_hint         optional exponential rate r with fn(t) = O(e^{-rt}),
                       used to pick the initial truncation point
    """

    fn: Callable[[np.ndarray], np.ndarray]
    kinks: tuple[float, ...] = ()
    endpoint_exponent: float = 0.0
    decay_hint: float | None = None

    def __post_init__(self) -> None:
        ks = tuple(float(k) for k in self.kinks)
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(f"kinks must be strictly increasing, got {ks}")
        object.__setattr__(self, "kinks", ks)
        if self.decay_hint is not None and self.decay_hint <= 0:
            raise ValueError("decay_hint must be a positive rate")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self.fn(t)


@dataclass(frozen=True)
class QuadResult:
    """Value plus bookkeeping from one integration call."""

    value: float
    error_estimate: float
    truncation_point: float
    evaluations: int
    converged: bool = True


class QuadratureError(RuntimeError):
    """Raised by callers that cannot tolerate a non-converged QuadResult.

    Carries the best-effort result so the achieved error estimate is
    reportable.
    """

    def __init__(self, message: str, result: QuadResult):
        super().__init__(f"{message} (value={result.value!r}, "
                         f"error_estimate={result.error_estimate:.3e})")
        self.result = result


def _panels(fn, bounds) -> list[tuple[float, float]]:
    """(value, error) for every (lo, hi) panel in bounds, from one call
    of fn.

    Each panel's value comes from GL12 on its two halves and its error
    from the difference against GL12 on the whole panel; that is 36
    nodes per panel, all passed to fn in one array.  Nodes and sums are
    formed with the same float operations, in the same order, as
    estimating one panel at a time: per-row 12-term dots rather than one
    matrix product, whose summation order BLAS may change.
    """
    x, w = _gl(12)
    centres: list[float] = []
    halves: list[float] = []
    for lo, hi in bounds:
        mid = 0.5 * (lo + hi)
        centres += (mid, 0.5 * (lo + mid), 0.5 * (mid + hi))
        halves += (0.5 * (hi - lo), 0.5 * (mid - lo), 0.5 * (hi - mid))
    nodes = np.array(centres)[:, None] + np.array(halves)[:, None] * x
    ys = np.reshape(fn(nodes.ravel()), nodes.shape)
    out = []
    for i in range(0, len(halves), 3):
        coarse = halves[i] * float(w @ ys[i])
        # The leading 0.0 keeps the running sum's +0.0 for a -0.0 total.
        fine = 0.0 + halves[i + 1] * float(w @ ys[i + 1]) \
            + halves[i + 2] * float(w @ ys[i + 2])
        out.append((fine, abs(fine - coarse)))
    return out


def _adapt(fn, lo: float, hi: float, tol: float,
           first=None) -> tuple[float, float, int, bool]:
    """Adaptive bisection on [lo, hi] for a smooth (post-transform) fn,
    from the panel's (value, error) first when the caller has it.

    Returns (value, error_estimate, evaluations, converged).  The heap is
    keyed on (-error, lo) so refinement order, and therefore the result,
    is deterministic.  Panels narrower than the width floor are frozen
    with their current estimate instead of being split forever.
    """
    if hi <= lo:
        return 0.0, 0.0, 0, True
    val, err = first if first is not None else _panels(fn, [(lo, hi)])[0]
    n_eval = 36
    heap = [(-err, lo, hi, val)]
    frozen: list[tuple] = []
    total_err = err
    count = 1
    width_floor = 1e-15 * max(abs(lo), abs(hi), 1.0)
    converged = True
    while total_err > tol:
        if count >= _MAX_PANELS or not heap:
            converged = False
            break
        neg_err, a, b, v = heapq.heappop(heap)
        if b - a <= width_floor:
            # Cannot refine further; keep the panel as-is.  Its error
            # stays in the total, so an impossible tolerance still shows
            # up as non-convergence rather than a silent optimistic value.
            frozen.append((neg_err, a, b, v))
            if not heap:
                converged = False
                break
            continue
        total_err += neg_err  # neg_err is negative: removes this panel
        m = 0.5 * (a + b)
        children = ((a, m), (m, b))
        for (c, d), (pv, pe) in zip(children, _panels(fn, children)):
            heapq.heappush(heap, (-pe, c, d, pv))
            total_err += pe
        n_eval += 72
        count += 1
    panels = sorted(heap + frozen, key=lambda item: item[1])
    value = math.fsum(p[3] for p in panels)
    error = math.fsum(-p[0] for p in panels)
    return value, error, n_eval, converged


def _singular_transform(f: Integrand, a: float, c: float):
    """Map the first panel [a, c] with fn ~ (t-a)^sigma onto y in [0, 1]
    via t = a + (c-a) * y^(1/(1+sigma)); the transformed integrand is
    bounded at y = 0."""
    sigma = f.endpoint_exponent
    p = 1.0 + sigma
    w = c - a

    def g(y: np.ndarray) -> np.ndarray:
        t = a + w * y ** (1.0 / p)
        return f.fn(t) * (w / p) * y ** (1.0 / p - 1.0)

    return g


def integrate_finite(f: Integrand, a: float, b: float,
                     tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate f over [a, b].

    Panels are subdivided at every declared kink; an endpoint exponent
    (taken to describe behavior at t = 0, hence applied only when a == 0)
    is removed by the power substitution on the leading piece.  On
    non-convergence the best value is returned with converged=False.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if a == 0.0 and f.endpoint_exponent <= -1.0:
        raise ValueError(
            f"integrand diverges at 0 (endpoint exponent "
            f"{f.endpoint_exponent} <= -1); integrate it only against a "
            f"compensating factor")
    cuts = [a] + [k for k in f.kinks if a < k < b] + [b]
    spans = list(zip(cuts, cuts[1:]))
    singular = f.endpoint_exponent != 0.0 and a == 0.0
    plain = spans[1:] if singular else spans
    # (callable, lo, hi, first panel); one call serves all plain pieces.
    pieces = [(f.fn, lo, hi, first) for (lo, hi), first
              in zip(plain, _panels(f.fn, plain) if plain else [])]
    if singular:
        pieces.insert(0, (_singular_transform(f, *spans[0]), 0.0, 1.0, None))

    tol_piece = tol / len(pieces)
    value = 0.0
    error = 0.0
    n_eval = 0
    ok = True
    for fn, lo, hi, first in pieces:
        v, e, ne, conv = _adapt(fn, lo, hi, tol_piece, first)
        value += v
        error += e
        n_eval += ne
        ok = ok and conv
    return QuadResult(value, error, b, n_eval, ok)


def integrate_halfline(f: Integrand, tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate f over (0, inf).

    The finite head [0, T0] goes through integrate_finite (kinks and the
    endpoint exponent handled there); beyond T0 the interval is doubled,
    [T, 2T], [2T, 4T], ..., until two successive panels each contribute
    less than tol/4 in magnitude.  A geometric extrapolation of the last
    panel is added to the error estimate, never to the value.  If the
    panel contributions fail to stabilize within the doubling budget the
    result is flagged as a suspected divergence (converged=False).
    """
    t0 = 1.0
    if f.kinks:
        t0 = max(t0, 1.5 * f.kinks[-1])
    if f.decay_hint is not None:
        # e^{-45} ~ 3e-20: safely below any tolerance in use here.
        t0 = max(t0, 45.0 / f.decay_hint)

    head = integrate_finite(f, 0.0, t0, tol / 2)
    value = head.value
    error = head.error_estimate
    n_eval = head.evaluations
    ok = head.converged

    t = t0
    prev = math.inf
    tail_tol = tol / 8
    stabilized = False
    last = 0.0
    for _ in range(_MAX_DOUBLINGS):
        v, e, ne, conv = _adapt(f.fn, t, 2 * t, tail_tol)
        n_eval += ne
        ok = ok and conv
        value += v
        error += e
        t *= 2
        if abs(v) < tol / 4 and abs(prev) < tol / 4:
            stabilized = True
            last = abs(v)
            break
        prev, last = v, abs(v)
    if stabilized:
        # Remaining tail: panel magnitudes were already below tol/4 and,
        # for integrable decay, keep shrinking at worst geometrically.
        error += last
    else:
        ok = False
        error += abs(last) if math.isfinite(last) else math.inf
    return QuadResult(value, error, t, n_eval, ok)


def require_converged(result: QuadResult, context: str) -> QuadResult:
    """Raise QuadratureError when a result did not meet its tolerance."""
    if not result.converged:
        raise QuadratureError(f"quadrature did not converge in {context}",
                              result)
    return result
