"""Scalar special functions and numerical Riemann-Liouville operators.

The fractional integral of order q > 0 of g is

    (I^q g)(t) = 1/Gamma(q) * integral_0^t (t-s)^(q-1) g(s) ds,

and the fractional derivative of order q is the n-th ordinary derivative
of the (n-q)-integral, where n is the unique integer with n-1 < q <= n.

These operators are verification tools, not the solver hot path: the
derivative is computed by differentiating the integral numerically
(central differences refined by Richardson extrapolation), which is
accurate enough for residual spot-checks and closed-form identity tests
but would be wasteful inside an iteration loop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .quad import Integrand, integrate_finite, require_converged

__all__ = [
    "FracOrder",
    "gamma",
    "rl_integral",
    "rl_derivative",
    "LossOfSignificanceWarning",
]


@dataclass(frozen=True)
class FracOrder:
    """A fractional order q > 0 together with n = ceil(q).

    The convention is n - 1 < q <= n, so an integer order q has n = q
    (the order-q derivative of an order-n problem needs exactly n
    ordinary derivatives, not n+1).
    """

    q: float

    def __post_init__(self) -> None:
        if not self.q > 0:
            raise ValueError(f"fractional order must be positive, got {self.q}")

    @property
    def n(self) -> int:
        return math.ceil(self.q)


OrderLike = Union[float, FracOrder]


def _order(q: OrderLike) -> float:
    val = q.q if isinstance(q, FracOrder) else float(q)
    if not val > 0:
        raise ValueError(f"fractional order must be positive, got {val}")
    return val


def gamma(x: float) -> float:
    """Gamma function for real x > 0; raises where math.gamma would
    return a value for a negative non-integer x."""
    if not x > 0:
        raise ValueError(f"gamma requires a positive argument, got {x}")
    return math.gamma(x)


def rl_integral(g: Callable[[np.ndarray], np.ndarray], q: OrderLike, t: float,
                *, tol: float = 1e-10, g_exponent: float = 0.0) -> float:
    """Fractional integral (I^q g)(t) for vectorized g on [0, t].

    g_exponent declares algebraic behavior of g at 0 (g(s) ~ s^sigma),
    so monomials with negative powers stay integrable.  The convolution
    kernel's own endpoint singularity at s = t is handled by flipping the
    variable on the upper half of the interval; both halves then have
    their singularity at the left end, where the quadrature substitution
    removes it.  Raises QuadratureError when the tolerance is not met.
    """
    qv = _order(q)
    if t < 0:
        raise ValueError(f"rl_integral needs t >= 0, got {t}")
    if t == 0:
        return 0.0
    half = 0.5 * t

    def lower(s: np.ndarray) -> np.ndarray:
        return np.asarray(g(s)) * (t - s) ** (qv - 1.0)

    def upper(x: np.ndarray) -> np.ndarray:
        return np.asarray(g(t - x)) * x ** (qv - 1.0)

    res_lo = integrate_finite(
        Integrand(lower, endpoint_exponent=g_exponent), 0.0, half, tol / 2)
    res_hi = integrate_finite(
        Integrand(upper, endpoint_exponent=qv - 1.0), 0.0, half, tol / 2)
    require_converged(res_lo, f"rl_integral lower half (q={qv}, t={t})")
    require_converged(res_hi, f"rl_integral upper half (q={qv}, t={t})")
    return (res_lo.value + res_hi.value) / gamma(qv)


class LossOfSignificanceWarning(RuntimeWarning):
    """Richardson refinement stalled above the requested tolerance."""


# Central difference stencils of the n-th derivative, O(h^2) truncation.
_STENCILS: dict[int, tuple[tuple[int, ...], tuple[float, ...]]] = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


def rl_derivative(g: Callable[[np.ndarray], np.ndarray], q: OrderLike,
                  t: float, *, tol: float = 1e-6,
                  g_exponent: float = 0.0,
                  quad_tol: float = 1e-12) -> tuple[float, float]:
    """Fractional derivative (D^q g)(t) = (d/dt)^n (I^(n-q) g)(t).

    Returns (value, error_estimate).  The n-th derivative is taken by
    central differences on the numerically computed (n-q)-integral,
    refined through a Richardson table until the diagonal stabilizes
    below tol (relative to 1 + |value|).  When the refinement stalls
    instead, a LossOfSignificanceWarning is issued and the best value is
    returned with its achieved estimate.
    """
    qv = _order(q)
    if not t > 0:
        raise ValueError(f"rl_derivative needs t > 0, got {t}")
    n = math.ceil(qv)
    if n > 4:
        raise ValueError(f"orders above 4 are out of scope (q={qv})")
    frac = n - qv

    cache: dict[float, float] = {}

    if frac == 0.0:
        # Integer order: I^0 is the identity, differentiate g itself.
        def smooth(x: float) -> float:
            if x not in cache:
                cache[x] = float(np.asarray(g(np.array([x])))[0])
            return cache[x]
    else:
        def smooth(x: float) -> float:
            if x not in cache:
                cache[x] = rl_integral(g, frac, x, tol=quad_tol,
                                       g_exponent=g_exponent)
            return cache[x]

    offsets, coeffs = _STENCILS[n]
    reach = max(abs(o) for o in offsets)
    h0 = t / (4.0 * reach)
    levels = 5

    def stencil(h: float) -> float:
        return sum(c * smooth(t + o * h) for o, c in zip(offsets, coeffs)) / h ** n

    table: list[list[float]] = []
    best = math.nan
    est = math.inf
    prev_diag = math.nan
    stalls = 0
    for k in range(levels):
        row = [stencil(h0 / 2 ** k)]
        for j in range(1, k + 1):
            fac = 4.0 ** j
            row.append((fac * row[j - 1] - table[k - 1][j - 1]) / (fac - 1.0))
        table.append(row)
        diag = row[-1]
        if k > 0:
            new_est = abs(diag - prev_diag)
            if new_est <= est:
                best, est = diag, new_est
                stalls = 0
            else:
                stalls += 1
                if stalls >= 2:
                    break
            if est <= tol * (1.0 + abs(best)):
                break
        else:
            best = diag
        prev_diag = diag

    value = best
    if not est <= tol * (1.0 + abs(value)):
        warnings.warn(
            f"rl_derivative refinement stalled at estimate {est:.2e} "
            f"(q={qv}, t={t}), above tolerance {tol:.1e}",
            LossOfSignificanceWarning,
        )
    return value, est
