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

Integrands must be pointwise, because the engine evaluates many panels
in one call: integrate_batch the first panels of every piece of every
job (power-substituted ones included) in one call, then one call per
round of splits; a half-line tail the first panels of 8 doublings per
call.  Nodes and per-panel sums are those of one panel at a time, so
batching changes nothing but the number of calls.
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
    "integrate_batch",
    "integrate_finite",
    "integrate_halfline",
]

# Default tolerances: tight for one-off constants, looser inside iteration
# loops where the iteration error dominates anyway.
DEFAULT_TOL = 1e-10
LOOP_TOL = 1e-8

_MAX_PANELS = 4096
_MAX_DOUBLINGS = 60
# Tail doublings whose first panels share one integrand call.
_TAIL_CHUNK = 8


@functools.cache
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached."""
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class Integrand:
    """A real function on (0, inf) with declared trouble spots.

    fn                 vectorized callable, ndarray -> ndarray; must be
                       pointwise: each output depends only on its own
                       input
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


def _estimate(fn, lo: np.ndarray, hi: np.ndarray):
    """(value, error) arrays for the panels [lo_i, hi_i] from one call of
    fn on their 36 nodes each, flat in the shape (3, P, 12): GL12 on the
    whole panel (the error is the difference), on its left and its right
    half (the value).  The float operations are those of one panel at a
    time: np.vecdot forms each 12-term dot as `w @ row` does, where a
    matrix product may reorder the sums.
    """
    x, w = _gl(12)
    # Outside fn, inf and nan arise silently, as in Python float math.
    with np.errstate(over="ignore", invalid="ignore"):
        mid = 0.5 * (lo + hi)
        left, right = np.concatenate((lo, lo, mid, hi, mid, hi)).reshape(2, -1)
        halves = 0.5 * (right - left)
        nodes = (0.5 * (left + right))[:, None] + halves[:, None] * x
    ys = np.reshape(fn(nodes.ravel()), nodes.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        dots = (halves * np.vecdot(ys, w)).reshape(3, -1)
        # The leading 0.0 keeps the running sum's +0.0 for a -0.0 total.
        fine = 0.0 + dots[1] + dots[2]
        return fine, np.abs(fine - dots[0])


def _panels(fn, bounds) -> list[tuple[float, float]]:
    """_estimate on a sequence of (lo, hi) panels, as (value, error)s."""
    val, err = _estimate(fn, *np.array(bounds, dtype=float).reshape(-1, 2).T)
    return list(zip(val.tolist(), err.tolist()))


def _adapt(lo: float, hi: float, tol: float, first):
    """Adaptive bisection on [lo, hi] for a smooth (post-transform)
    integrand from the panel's (value, error) first, as a generator:
    each split yields the two halves and is sent their (value, error)
    pairs (see _lockstep); it returns (value, error_estimate,
    evaluations, converged).  The heap is keyed on (-error, lo) so
    refinement order, and therefore the result, is deterministic.
    Panels narrower than the width floor are frozen with their current
    estimate instead of being split forever.
    """
    if hi <= lo:
        return 0.0, 0.0, 0, True
    val, err = first
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
        for (c, d), (pv, pe) in zip(children, (yield children)):
            heapq.heappush(heap, (-pe, c, d, pv))
            total_err += pe
        n_eval += 72
        count += 1
    panels = sorted(heap + frozen, key=lambda item: item[1])
    value = math.fsum(p[3] for p in panels)
    error = math.fsum(-p[0] for p in panels)
    return value, error, n_eval, converged


def _lockstep(estimate, runs: dict) -> dict:
    """Each _adapt generator's result in runs, by key.  The generators
    refine together: every round estimates the split halves of all that
    are still refining in one estimate(keys, lo, hi) call."""
    done, sent = {}, dict.fromkeys(runs)
    while True:
        asks = {}
        for key, panels in sent.items():
            try:
                asks[key] = runs[key].send(panels)
            except StopIteration as stop:
                done[key] = stop.value
        if not asks:
            return done
        lo, hi = np.array(list(asks.values()), float).reshape(-1, 2).T
        val, err = estimate(np.repeat(list(asks), 2), lo, hi)
        pairs = list(zip(val.tolist(), err.tolist()))
        sent = {key: pairs[2 * n:2 * n + 2] for n, key in enumerate(asks)}


def integrate_batch(fn, jobs, tol: float = DEFAULT_TOL) -> list[QuadResult]:
    """Integrate fn(x, job) over each job's interval, each to tol.

    A job is (a, b, kinks, sigma): no panel straddles a kink, and the
    power substitution removes fn ~ t^sigma at 0+ from the leading piece
    when a == 0.  fn gets the points and, for each, its job's index (an
    int when there is one job); it must be pointwise.  The first panels
    of all pieces come from one call of fn; a piece whose first panel
    meets its share tol/pieces is done, and the others refine in
    lockstep (_adapt), one call per round of splits.  Each job's pieces
    are summed in order: its result is bit for bit the job's alone.
    """
    lo, hi, sig, count = [], [], [], []  # per piece; pieces per job
    for a, b, kinks, sigma in jobs:
        if not a < b:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        if a == 0.0 and sigma <= -1.0:
            raise ValueError(
                f"integrand diverges at 0 (endpoint exponent {sigma} <= -1); "
                f"integrate it only against a compensating factor")
        cuts = [a, *(k for k in kinks if a < k < b), b]
        lo += cuts[:-1]
        hi += cuts[1:]
        sig += [sigma if a == 0.0 else 0.0] + [0.0] * (len(cuts) - 2)
        count.append(len(cuts) - 1)
    owner = np.repeat(np.arange(len(count)), count)
    start, end, sig_ = np.array(lo, float), np.array(hi, float), np.array(sig)

    def estimate(ids: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        job = owner[ids][None].repeat(3, 0).repeat(12) if len(count) > 1 else 0

        def mapped(x: np.ndarray) -> np.ndarray:
            # A piece [0, c] of exponent sigma maps to y in [0, 1] by
            # t = c y^(1/p), p = 1 + sigma, scaling fn by (c/p) y^(1/p - 1),
            # powers to a Python float, as for the piece alone (so that
            # y ** 2.0 and y ** 0.5 are numpy's square and sqrt).
            x, scales, s = x.reshape(3, ids.size, 12), [], sig_[ids]
            for sigma in dict.fromkeys(s[s != 0.0].tolist()):
                sel = np.flatnonzero(s == sigma)
                p, y, a = 1.0 + sigma, x[:, sel], start[ids[sel], None]
                w = end[ids[sel], None] - a
                x[:, sel] = a + w * y ** (1.0 / p)
                scales.append((sel, w / p, y ** (1.0 / p - 1.0)))
            ys = np.array(fn(x.ravel(), job), float).reshape(x.shape)
            for sel, wp, dy in scales:
                ys[:, sel] = ys[:, sel] * wp * dy
            return ys.ravel()
        return _estimate(mapped, lo, hi)

    val, err = estimate(np.arange(owner.size), np.where(sig_, 0.0, start),
                        np.where(sig_, 1.0, end))
    share, jobs_of = [tol / c for c in count], owner.tolist()
    # What _adapt returns for a first panel within its share.
    vals, errs = (0.0 + val).tolist(), err.tolist()
    n_eval, ok = [36 * c for c in count], [True] * len(count)
    runs = {i: _adapt(*((0.0, 1.0) if sig[i] else (lo[i], hi[i])),
                      share[jobs_of[i]], (float(val[i]), errs[i]))
            for i in np.flatnonzero(err > np.repeat(share, count)).tolist()}
    for i, (vals[i], errs[i], ne, conv) in _lockstep(estimate, runs).items():
        n_eval[jobs_of[i]] += ne - 36
        ok[jobs_of[i]] = ok[jobs_of[i]] and conv
    value, error = [0.0] * len(count), [0.0] * len(count)
    for j, v, e in zip(jobs_of, vals, errs):  # running sums, piece order
        value[j] += v
        error[j] += e
    return [QuadResult(value[j], error[j], b, n_eval[j], ok[j])
            for j, (_, b, _, _) in enumerate(jobs)]


def integrate_finite(f: Integrand, a: float, b: float,
                     tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate f over [a, b], integrate_batch's one-job case: no panel
    straddles a declared kink, and an endpoint exponent (behavior at
    t = 0, so applied only when a == 0) is removed by the power
    substitution.  On non-convergence the best value is returned with
    converged=False."""
    return integrate_batch(lambda x, job: f.fn(x),
                           [(a, b, f.kinks, f.endpoint_exponent)], tol)[0]


def integrate_halfline(f: Integrand, tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate f over (0, inf).

    The finite head [0, T0] goes through integrate_finite (kinks and the
    endpoint exponent handled there); beyond T0 the interval is doubled,
    [T, 2T], [2T, 4T], ..., until two successive panels each contribute
    less than tol/4 in magnitude.  A geometric extrapolation of the last
    panel is added to the error estimate, never to the value.  If the
    panel contributions fail to stabilize within the doubling budget the
    result is flagged as a suspected divergence (converged=False).  The
    first panels of _TAIL_CHUNK doublings come from one integrand call;
    the walk still takes one doubling at a time, and counts none past
    its stop in the evaluations.
    """
    t0 = 1.0
    if f.kinks:
        t0 = max(t0, 1.5 * f.kinks[-1])
    if f.decay_hint is not None:
        # e^{-45} ~ 3e-20: safely below any tolerance in use here.
        t0 = max(t0, 45.0 / f.decay_hint)

    head = integrate_finite(f, 0.0, t0, tol / 2)
    value, error = head.value, head.error_estimate
    n_eval, ok = head.evaluations, head.converged

    t, prev, last, stabilized, tail_tol = t0, math.inf, 0.0, False, tol / 8
    tail = lambda _, lo, hi: _estimate(f.fn, lo, hi)  # noqa: E731
    for i in range(_MAX_DOUBLINGS):
        k = i % _TAIL_CHUNK
        if k == 0:  # the walk's own t * 2^j, short of _adapt's [inf, inf]
            los = [lo for j in range(min(_TAIL_CHUNK, _MAX_DOUBLINGS - i))
                   if (lo := t * 2.0 ** j) < math.inf]
            firsts = _panels(f.fn, [(lo, 2 * lo) for lo in los]) if los else []
        v, e, ne, conv = _lockstep(tail, {0: _adapt(
            t, 2 * t, tail_tol, firsts[k] if k < len(firsts) else None)})[0]
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
