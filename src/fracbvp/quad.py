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

One driver, integrate_batch, integrates many jobs, finite and half-line,
under one pointwise fn(x, job), one call per round: the first panels of
every piece of every job, then the split halves of every piece still
refining and the tail panels of every half-line job, whose walk of
doublings runs beside its head's pieces (first panels of 8 doublings per
ask, the first 8 with the head's first splits).  Nodes and sums are
those of one panel at a time, in each job's own order, so batching
changes nothing but the number of calls.  integrate_finite and
integrate_halfline are its one-job cases.

The first round is numpy throughout: the pieces' first panels are
estimated together and accepted by one comparison of each error with
its job's share of the tolerance.  Only the pieces that refine and the
half-line tails that walk run as generators (_adapt, _walk).  Each
job's parts, its pieces' (one np.bincount for all jobs) then its
doublings', are added in order from 0.0.
"""

from __future__ import annotations

import functools
import heapq
import math
from bisect import bisect_left, bisect_right
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

# DEFAULT_TOL: the tolerance of one-off constants.  No quadrature runs at
# LOOP_TOL: it is IntegralOperator.quad_tol, the base of the 10x slack
# that the monotone scheme's ordering check and verify's audits allow.
DEFAULT_TOL = 1e-10
LOOP_TOL = 1e-8

_MAX_PANELS = 4096
_MAX_DOUBLINGS = 60
# Tail doublings whose first panels share one integrand call.
_TAIL_CHUNK = 8


@functools.lru_cache(maxsize=8)
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached for 8 orders n."""
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
    decay_hint         optional exponential rate r with fn(t) = O(e^{-rt}):
                       the tail walk runs at least to min(45/r, 2^40 T0)
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
    ys = fn(nodes.ravel()).reshape(nodes.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        dots = (halves * np.vecdot(ys, w)).reshape(3, -1)
        # The leading 0.0 keeps the running sum's +0.0 for a -0.0 total.
        fine = 0.0 + dots[1] + dots[2]
        return fine, np.abs(fine - dots[0])


def _adapt(key, lo: float, hi: float, tol: float, first):
    """Adaptive bisection of piece `key` on [lo, hi] for a smooth
    (post-transform) integrand from the panel's (value, error) first, as
    a generator: each split yields the halves as (key, lo, hi) panels and
    is sent their (value, error)s (see integrate_batch); it returns (value,
    error_estimate, evaluations, converged).  The heap is keyed on
    (-error, lo) so refinement order, and therefore the result, is
    deterministic.  Panels narrower than the width floor are frozen with
    their current estimate instead of being split forever."""
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
        children = ((key, a, m), (key, m, b))
        for (_, c, d), (pv, pe) in zip(children, (yield children)):
            heapq.heappush(heap, (-pe, c, d, pv))
            total_err += pe
        n_eval += 72
        count += 1
    panels = sorted(heap + frozen, key=lambda item: item[1])
    value = math.fsum(p[3] for p in panels)
    error = math.fsum(-p[0] for p in panels)
    return value, error, n_eval, converged


def _walk(end: float, tail: int, tol: float, reach: float):
    """A half-line job's doublings [end, 2 end], [2 end, 4 end], ... as a
    run of integrate_batch beside its head's pieces (piece tail), each to
    tol/8, the first panels of _TAIL_CHUNK asked for at once (the first
    chunk with the head's first splits).  It stops once two doublings in
    a row and the first panels of the rest of their chunk are each below
    tol/4 in magnitude and the walk has passed reach; so mass past the
    chunk after an empty stretch (past 256 end in the first) needs a
    reach.  Every doubling's value goes into the result; the last one's
    magnitude also goes into the error estimate, standing for the tail
    past it, which for an integrable decay shrinks at worst
    geometrically.  No stop within _MAX_DOUBLINGS is a suspected
    divergence (converged=False).  Returns (parts, truncation point)."""
    parts, t, prev = [], end, math.inf
    for i in range(_MAX_DOUBLINGS):
        k = i % _TAIL_CHUNK
        if k == 0:  # t * 2^j short of inf
            los = [lo for j in range(min(_TAIL_CHUNK, _MAX_DOUBLINGS - i))
                   if (lo := t * 2.0 ** j) < math.inf]
            firsts = (yield [(tail, lo, 2 * lo) for lo in los]) if los else []
        first = firsts[k] if k < len(firsts) else None  # None past inf
        parts.append((yield from _adapt(tail, t, 2 * t, tol / 8, first))
                     if first else (0.0, 0.0, 0, True))
        v, t = parts[-1][0], 2 * t
        if abs(v) < tol / 4 and abs(prev) < tol / 4 and t >= reach \
                and all(abs(f[0]) < tol / 4 for f in firsts[k + 1:]):
            parts.append((0.0, abs(v), 0, True))
            break
        prev = v
    else:
        parts.append((0.0, abs(v) if math.isfinite(v) else math.inf, 0, False))
    return parts, t


def integrate_batch(fn, jobs, tol: float = DEFAULT_TOL) -> list[QuadResult]:
    """Integrate fn(x, job) over each job's interval, each to tol.

    A job is (a, b, kinks, sigma): no panel straddles a kink (kinks
    increase), and the power substitution removes fn ~ t^sigma at 0+
    from the leading piece when a == 0.  A half-line job (0, inf, kinks,
    sigma, decay_hint) has the pieces of [0, T0], T0 = max(1, 1.5 * last
    kink), to tol/2, and walks the doublings beyond T0 beside them
    (_walk), its first tail panels in the call of the head's first
    splits; a decay_hint r only keeps the walk from stopping short of
    min(45 / r, 2^40 T0), a point it reaches within _MAX_DOUBLINGS.  fn
    gets the points and each one's job index; it must be pointwise.
    Each job's points come in the calls and order of the job alone (see
    the module docstring), so its result is bit for bit the job's alone.
    """
    if not jobs:
        return []
    lo, hi, subs, exps, counts, shares, ends = ([] for _ in range(7))
    walks = {}  # half-line job -> the least reach of its walk
    for j, (a, b, kinks, sigma, *rate) in enumerate(jobs):
        if not a < b:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        if a == 0.0 and sigma <= -1.0:
            raise ValueError(
                f"integrand diverges at 0 (endpoint exponent {sigma} <= -1); "
                f"integrate it only against a compensating factor")
        walk = b == math.inf
        if walk:  # e^{-45} ~ 3e-20: safely below any tolerance in use here
            b = max([1.0, *(1.5 * k for k in kinks[-1:])])
            r = rate[0] if rate else None
            walks[j] = 0.0 if r is None else min(45.0 / r, 2.0 ** 40 * b)
        cuts = [a, *kinks[bisect_right(kinks, a):bisect_left(kinks, b)], b]
        if a == 0.0 and sigma != 0.0:  # the power substitution
            subs.append(len(lo))
            exps.append(sigma)
        lo += cuts[:-1]
        hi += cuts[1:]
        counts.append(len(cuts) - 1)
        shares.append((tol / 2 if walk else tol) / counts[-1])
        ends.append(b)
    # Per piece: its job, its exponent (0 unless substituted), its end and
    # its first panel, [0, 1] when substituted.  Piece n + j, plain, is
    # job j's doublings.
    n, m = len(lo), len(jobs)
    owner = np.concatenate((np.arange(m).repeat(counts), np.arange(m)))
    sig = np.zeros(n + m)
    sig[subs] = exps
    end = np.array(hi, float)
    for i in subs:
        lo[i], hi[i] = 0.0, 1.0
    lo, hi = np.array(lo, float), np.array(hi, float)

    def estimate(ids: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        def mapped(x: np.ndarray) -> np.ndarray:
            # A piece [0, c] of exponent sigma maps to y in [0, 1] by
            # t = c y^(1/p), p = 1 + sigma, scaling fn by (c/p) y^(1/p - 1),
            # powers to a Python float, as for the piece alone (so that
            # y ** 2.0 and y ** 0.5 are numpy's square and sqrt).
            x, scales, s = x.reshape(3, ids.size, 12), [], sig[ids]
            for sigma in dict.fromkeys(s[s != 0.0].tolist() if subs else ()):
                sel = np.flatnonzero(s == sigma)
                p, y, c = 1.0 + sigma, x[:, sel], end[ids[sel], None]
                x[:, sel] = c * y ** (1.0 / p)
                scales.append((sel, c / p, y ** (1.0 / p - 1.0)))
            job = owner[ids][None].repeat(3, 0).repeat(12)
            ys = np.array(fn(x.ravel(), job), float).reshape(x.shape)
            for sel, cp, dy in scales:
                ys[:, sel] = ys[:, sel] * cp * dy
            return ys.ravel()
        return _estimate(mapped, lo, hi)

    # The first round: every piece's first panel, accepted where its error
    # is within its job's share of tol.
    val, err = estimate(np.arange(n), lo, hi)
    refine = (err > np.array(shares).repeat(counts)).nonzero()[0].tolist()
    runs = {i: _adapt(i, float(lo[i]), float(hi[i]), shares[owner[i]],
                      (float(val[i]), float(err[i]))) for i in refine}
    runs.update((n + j, _walk(ends[j], n + j, tol, walks[j])) for j in walks)
    # A run is a generator asking for lists of (piece, lo, hi) panels and
    # sent their (value, error) pairs; it returns its result.
    sent, done = dict.fromkeys(runs), {}
    while sent:  # one estimate, so one call of fn, per round
        asks = {}
        for i, got in sent.items():
            try:
                asks[i] = runs[i].send(got)
            except StopIteration as stop:
                done[i] = stop.value
        if asks:
            ids, lo, hi = zip(*(p for ask in asks.values() for p in ask))
            v, e = estimate(np.array(ids), np.array(lo, float),
                            np.array(hi, float))
            pairs = zip(v.tolist(), e.tolist())
        sent = {i: [next(pairs) for _ in ask] for i, ask in asks.items()}
    # Each job's parts are added in order from 0.0: its pieces' by
    # np.bincount, which runs out[owner[i]] += weight[i] over i in order,
    # then its doublings'.
    n_eval, conv = [36 * c for c in counts], [True] * m
    for i in refine:
        j = int(owner[i])
        val[i], err[i], ne, ok = done[i]
        n_eval[j] += ne - 36
        conv[j] = conv[j] and ok
    value, error = (np.bincount(owner[:n], x, m).tolist() for x in (val, err))
    for j in walks:
        parts, ends[j] = done[n + j]
        for v, e, ne, ok in parts:
            value[j] += v
            error[j] += e
            n_eval[j] += ne
            conv[j] = conv[j] and ok
    return [QuadResult(*r) for r in zip(value, error, ends, n_eval, conv)]


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
    """Integrate f over (0, inf), integrate_batch's one-job case: its
    first call carries the head's first panels; from the second on, the
    head's rounds of splits and the tail's walk share calls, the tail
    asking for the first panels of 8 doublings at a time (the first 8
    with the head's first splits), each followed by the splits of those
    doublings in turn.  On non-convergence the best value is returned
    with converged=False."""
    return integrate_batch(lambda x, job: f.fn(x), [
        (0.0, math.inf, f.kinks, f.endpoint_exponent, f.decay_hint)], tol)[0]


def require_converged(result: QuadResult, context: str) -> QuadResult:
    """Raise QuadratureError when a result did not meet its tolerance."""
    if not result.converged:
        raise QuadratureError(f"quadrature did not converge in {context}",
                              result)
    return result
