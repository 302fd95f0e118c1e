"""Scalar special functions and numerical Riemann-Liouville operators.

The fractional integral of order q > 0 of g is

    (I^q g)(t) = 1/Gamma(q) * integral_0^t (t-s)^(q-1) g(s) ds,

and the fractional derivative of order q is the n-th ordinary derivative
of the (n-q)-integral, where n is the unique integer with n-1 < q <= n.

These operators are verification tools, not the solver hot path: the
derivative is computed by differentiating the integral numerically
(central differences refined by Richardson extrapolation), which is
accurate enough for residual spot-checks and closed-form identity tests
but would be wasteful inside an iteration loop.  Both operators take a
sequence of t as one quadrature batch: rl_derivative hands the stencil
points of every t at every refinement level to one rl_integral call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

from .quad import (Integrand, QuadratureError, integrate_batch,
                   require_converged)

__all__ = [
    "FracOrder",
    "gamma",
    "rl_integral",
    "rl_derivative",
]


@dataclass(frozen=True)
class FracOrder:
    """A fractional order q > 0."""

    q: float

    def __post_init__(self) -> None:
        if not self.q > 0:
            raise ValueError(f"fractional order must be positive, got {self.q}")


def gamma(x: float) -> float:
    """Gamma function for real x > 0; raises where math.gamma would
    return a value for a negative non-integer x."""
    if not x > 0:
        raise ValueError(f"gamma requires a positive argument, got {x}")
    return math.gamma(x)


def rl_integral(g: Callable[[np.ndarray], np.ndarray], q: float,
                t: float | Sequence[float], *, tol: float = 1e-10,
                g_exponent: float = 0.0, kinks: Sequence[float] = ()):
    """Fractional integral (I^q g)(t) for vectorized g on [0, t].

    g_exponent declares algebraic behavior of g at 0 (g(s) ~ s^sigma),
    so monomials with negative powers stay integrable; kinks declares
    g's breakpoints, increasing, so that no panel straddles one.  The
    convolution kernel's own endpoint singularity at s = t is handled by
    flipping the variable on the upper half of the interval (a kink k
    lands at t - k); both halves then have their singularity at the left
    end, where the quadrature substitution removes it.

    A scalar t gives a float, or raises QuadratureError when the
    tolerance is not met.  A sequence of t gives a list, in which a t
    whose quadrature failed has that error in place of its value.  Both
    halves of every t are jobs of one integrate_batch call.
    """
    qv = FracOrder(float(q)).q
    ts = list(t) if np.ndim(t) else [t]
    if any(x < 0 for x in ts):
        raise ValueError(f"rl_integral needs t >= 0, got {t}")
    kinks = Integrand(g, kinks=kinks).kinks  # checked increasing floats
    xs = np.array([x for x in ts if x != 0], float)
    # The kinks in (0, x/2) and in (x/2, x) of every x from one search:
    # k <= v exactly when k < nextafter(v, inf).
    first, half = bisect_right(kinks, 0.0), 0.5 * xs
    ends = np.searchsorted(kinks, [half, np.nextafter(half, np.inf), xs])
    jobs = []
    for x, h, a, b, c in zip(xs.tolist(), half.tolist(), *ends.tolist()):
        jobs += [(0.0, h, kinks[first:a], g_exponent),
                 (0.0, h, [x - k for k in reversed(kinks[b:c])], qv - 1.0)]
    at = np.repeat(xs, 2)
    flip = np.arange(at.size) % 2 == 1

    def fn(x: np.ndarray, job) -> np.ndarray:
        # Lower half g(s) (t - s)^(q-1); upper half g(t - x) x^(q-1).
        up = flip[job]
        return np.asarray(g(np.where(up, d := at[job] - x, x))) \
            * np.where(up, x, d) ** (qv - 1.0)

    res, out = iter(integrate_batch(fn, jobs, tol / 2) if jobs else ()), []
    for x in ts:
        if x == 0:
            out.append(0.0)
            continue
        lo, hi = next(res), next(res)
        try:
            for r, s in ((lo, "lower"), (hi, "upper")):
                require_converged(r, f"rl_integral {s} half (q={qv}, t={x})")
            out.append((lo.value + hi.value) / gamma(qv))
        except QuadratureError as exc:
            if not np.ndim(t):
                raise
            out.append(exc)
    return out if np.ndim(t) else out[0]


# Central difference stencils of the n-th derivative, O(h^2) truncation.
_STENCILS: dict[int, tuple[tuple[int, ...], tuple[float, ...]]] = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


def rl_derivative(g: Callable[[np.ndarray], np.ndarray], q: float,
                  t: float | Sequence[float], *, tol: float = 1e-6,
                  g_exponent: float = 0.0, quad_tol: float = 1e-12,
                  kinks: Sequence[float] = ()):
    """Fractional derivative (D^q g)(t) = (d/dt)^n (I^(n-q) g)(t).

    The n-th derivative is taken by central differences on the
    (n-q)-integral from rl_integral (given g_exponent and kinks), refined
    through a Richardson table until the diagonal stabilizes below tol
    (relative to 1 + |value|).  A stalled refinement shows only in its
    estimate: the best value comes back with an estimate above that.

    A scalar t gives (value, error_estimate), or raises the
    QuadratureError of a stencil point its refinement reads.  A sequence
    of t gives a list, with that error in place of a failed t's pair.
    The stencil points of every t at all five levels are one rl_integral
    call.
    """
    qv = FracOrder(float(q)).q
    ts = list(t) if np.ndim(t) else [t]
    if not all(x > 0 for x in ts):
        raise ValueError(f"rl_derivative needs t > 0, got {t}")
    n = math.ceil(qv)
    if n > 4:
        raise ValueError(f"orders above 4 are out of scope (q={qv})")
    offsets, coeffs = _STENCILS[n]
    span = 4.0 * max(map(abs, offsets))
    steps = [[x / span / 2 ** k for k in range(5)] for x in ts]
    xs = list(dict.fromkeys(x + o * h for x, hs in zip(ts, steps)
                            for h in hs for o in offsets))
    if n == qv:
        # Integer order: I^0 is the identity, differentiate g itself.
        vals = [float(y) for y in np.asarray(g(np.array(xs)))]
    else:
        vals = rl_integral(g, n - qv, xs, tol=quad_tol,
                           g_exponent=g_exponent, kinks=kinks)
    cache = dict(zip(xs, vals))

    def refine(x: float, hs: list[float]) -> tuple[float, float]:
        # prev is the table's previous row; its last entry is the
        # previous diagonal.
        prev, best, est, stalls = [], math.nan, math.inf, 0
        for k, h in enumerate(hs):
            ys = [cache[x + o * h] for o in offsets]
            if bad := [y for y in ys if isinstance(y, QuadratureError)]:
                raise bad[0]
            row = [sum(c * y for c, y in zip(coeffs, ys)) / h ** n]
            for j in range(1, k + 1):
                fac = 4.0 ** j
                row.append((fac * row[j - 1] - prev[j - 1]) / (fac - 1.0))
            new_est = abs(row[-1] - prev[-1]) if prev else math.inf
            if new_est <= est:
                best, est, stalls = row[-1], new_est, 0
            elif (stalls := stalls + 1) >= 2:
                break
            if prev and est <= tol * (1.0 + abs(best)):
                break
            prev = row
        return best, est

    if not np.ndim(t):
        return refine(ts[0], steps[0])
    out = []
    for x, hs in zip(ts, steps):
        try:
            out.append(refine(x, hs))
        except QuadratureError as exc:
            out.append(exc)
    return out
