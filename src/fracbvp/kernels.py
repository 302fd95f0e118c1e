"""Green-type kernels for the half-line boundary value problem.

One KernelSet captures everything the integral operator for one equation
needs: the order alpha, the boundary weight h, the coupling constant

    Lambda = integral_0^inf h(t) t^(alpha-1) dt,

and the inner boundary integral

    G(s) = integral_0^inf h(tau) K1(tau, s) dtau,

where K1 is the base kernel

    K1(t, s) = [t^(alpha-1) - (t-s)^(alpha-1)] / Gamma(alpha)   for s <= t,
               t^(alpha-1) / Gamma(alpha)                        for t <= s.

The full kernel is K = K1 + K2 with K2(t, s) = t^(alpha-1) G(s) / (Gamma -
Lambda), and the derivative kernel (the kernel of the order alpha-1
fractional derivative of the representation) is

    Kstar(t, s) = step(t <= s) + Gamma(alpha) G(s) / (Gamma - Lambda).

Everything here requires Lambda < Gamma(alpha); the hypothesis checker in
`problem` reports a violation, this module refuses to build on one.

Note on integrability: h itself may fail to be integrable at 0 (the
shipped problems use h ~ t^(-1.5)).  Every integral actually evaluated
pairs h with a factor vanishing like t^(alpha-1), which restores
integrability; h alone is never integrated.

G is evaluated through the equivalent split

    G(s) = [Lambda - D(s)] / Gamma(alpha),
    D(s) = integral_0^inf h(s+x) x^(alpha-1) dx

(substituting tau = s + x in the part of K1 with tau >= s), which removes
the interior kink at tau = s.  The deficits D of the distinct points
of a g_many call come from one trapezoid rule in u = log(x/c),
exponentially convergent for h analytic on (0, inf), whose error
estimate fails on a kinked h; nothing is kept between calls.
For h >= 0 and alpha >= 1, D(s) beyond x = R is at most Lambda's tail
beyond R, so KernelSet.build cuts x at the point R where Lambda's
quadrature stopped, and G(s >= R) = Lambda/Gamma(alpha).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
import numpy as np

from .fracops import FracOrder, gamma, rl_integral
from .quad import (DEFAULT_TOL, Integrand, QuadResult,
                   integrate_halfline, require_converged)

__all__ = ["KernelSet", "compute_lambda", "kernel_representation",
           "derivative_representation"]

_U_LO, _MAX_HALVINGS, _NODES_PER_CALL = -40.0, 6, 256


def halving_trapezoid(f, lo: float, hi: float, tol: float, rate: float,
                      tail_hi: float = 0.0) -> tuple[np.ndarray, QuadResult]:
    """Trapezoid integrals over [lo, hi] of the columns of f, which maps
    up to _NODES_PER_CALL nodes to an (m, P) array.  The step starts
    near 1 and halves, at most _MAX_HALVINGS times, until two levels
    agree to tol/10 in the max norm (a non-finite value never does).
    The error estimate adds a rounding floor of 4 ulps of sum |f| * step,
    the tail f(lo)/rate of an f decaying like exp(rate u) below lo, and
    tail_hi beyond hi.  The result holds max norms, evaluations nodes."""
    n = math.ceil(hi - lo)
    n_max, step, prev = n << _MAX_HALVINGS, (hi - lo) / n, math.inf
    ends = f(np.array([lo, hi]))
    total, mass = 0.5 * ends.sum(axis=0), 0.5 * np.abs(ends).sum(axis=0)
    new = lo + step * np.arange(1, n)
    while True:
        for i in range(0, new.size, _NODES_PER_CALL):
            fv = f(new[i:i + _NODES_PER_CALL])
            total, mass = total + fv.sum(axis=0), mass + np.abs(fv).sum(axis=0)
        value = step * total
        change = float(np.max(np.abs(value - prev)))
        if not change > tol / 10 or n == n_max:
            break
        new, prev = lo + step * (np.arange(n) + 0.5), value
        n, step = 2 * n, step / 2
    err = float(change + 4 * np.finfo(float).eps * np.max(step * mass)
                + np.max(np.abs(ends[0])) / rate + tail_hi)
    return value, QuadResult(float(np.max(np.abs(value))), err, math.inf,
                             n + 1, bool(err <= tol))


@functools.lru_cache(maxsize=8)
def compute_lambda(h: Integrand, alpha: FracOrder) -> QuadResult:
    """QuadResult of Lambda = int_0^inf h(t) t^(alpha-1) dt; raises
    QuadratureError when it does not converge.

    The combined endpoint exponent (h's own plus alpha-1) keeps the
    integrand admissible even when h alone diverges at 0.  Results are
    cached per (h, alpha); every load of one weight text shares its
    compiled fn (cli._read), so one solve's report and kernel sets, and
    every load of that text, integrate each Lambda once.
    """
    a = alpha.q
    res = integrate_halfline(replace(
        h, fn=lambda t: np.asarray(h.fn(t)) * t ** (a - 1.0),
        endpoint_exponent=h.endpoint_exponent + a - 1.0), DEFAULT_TOL)
    return require_converged(res, f"Lambda integral (alpha={a})")


@dataclass(frozen=True)
class KernelSet:
    """Kernels of one equation: an immutable value, so equal builds are
    equal, hash equal and share the entries of the caches keyed on them
    (solver._plan, _boundary_weighted_integral).

    Build with KernelSet.build; the constructor takes precomputed
    constants.
    """

    alpha: FracOrder
    h: Integrand | None
    lam: float
    gamma_alpha: float
    # Where Lambda's quadrature stopped, and its error estimate (g_many).
    reach: float = math.inf
    reach_err: float = 0.0

    @classmethod
    def build(cls, alpha: FracOrder, h: Integrand | None) -> "KernelSet":
        res = QuadResult(0.0, 0.0, math.inf, 0) if h is None \
            else compute_lambda(h, alpha)
        lam, ga = res.value, gamma(alpha.q)
        if not lam < ga:
            raise ValueError(
                f"boundary coupling too strong: Lambda={lam!r} must be "
                f"below Gamma(alpha)={ga!r} for the kernels to exist")
        # The cut at Lambda's reach needs x^(alpha-1) <= (s+x)^(alpha-1).
        reach = res.truncation_point if alpha.q >= 1.0 else math.inf
        return cls(alpha=alpha, h=h, lam=lam, gamma_alpha=ga,
                   reach=reach, reach_err=res.error_estimate)

    @property
    def denom(self) -> float:
        return self.gamma_alpha - self.lam

    # -- base kernel -------------------------------------------------

    def k1_grid(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Vectorized K1 on broadcastable t, s arrays."""
        a = self.alpha.q
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        tpow = t ** (a - 1.0)
        gap = np.where(s < t, t - s, 0.0)
        return np.where(s >= t, tpow, tpow - gap ** (a - 1.0)) / self.gamma_alpha

    # -- boundary integral --------------------------------------------

    def g_many(self, s: np.ndarray) -> np.ndarray:
        """G at every entry of s.  The distinct points 0 < s < reach get
        their deficits D from one halving_trapezoid pass on x = c e^u,
        c = min(s, 1): there x^(alpha-1) dx = x^alpha du decays
        exponentially as u -> -inf, and the layers at x ~ s and x ~ 1
        are O(1) wide in u at every scale of s.  h is evaluated only
        below x = min(reach, 2^60), and reach_err bounds the rest in the
        estimate; points s >= reach get D = 0."""
        s = np.asarray(s, dtype=float)
        if self.h is None:
            return np.zeros(s.shape)
        uniq, inv = np.unique(s, return_inverse=True)
        # K1(tau, 0) == 0 identically, so G(0) = 0 needs no quadrature.
        is_near = (uniq != 0) & (uniq < self.reach)
        d, near = np.zeros(uniq.size), uniq[is_near]
        if near.size:
            a, h, log_c = self.alpha.q, self.h, np.log(np.minimum(near, 1.0))
            log_cap = math.log(min(self.reach, 2.0 ** 60))

            def weighted(u: np.ndarray) -> np.ndarray:
                lx = log_c + u[:, None]
                inside, out = lx <= log_cap, np.zeros(lx.shape)
                x = np.exp(lx[inside])
                out[inside] = np.asarray(h.fn(
                    np.broadcast_to(near, lx.shape)[inside] + x)) * x ** a
                return out

            d[is_near], res = halving_trapezoid(
                weighted, _U_LO, log_cap - log_c.min(), DEFAULT_TOL, a,
                self.reach_err)
            require_converged(res,
                              f"boundary integral G at {near.size} points")
        g = (self.lam - d) / self.gamma_alpha
        # G is nonnegative by construction; clip quadrature dust at 0.
        g[((g < 0) & (g > -10 * DEFAULT_TOL)) | (uniq == 0)] = 0.0
        return g[inv].reshape(s.shape)

    # -- assembled kernels ---------------------------------------------

    def k(self, t: float, s: float) -> float:
        return float(self.k_grid(t, s))

    def k_grid(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Vectorized K = K1 + K2 on broadcastable t, s arrays."""
        t = np.asarray(t, dtype=float)
        return self.k1_grid(t, s) \
            + t ** (self.alpha.q - 1.0) / self.denom * self.g_many(s)

    def kstar_grid(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Vectorized Kstar on broadcastable t, s arrays."""
        step = np.where(np.asarray(t, dtype=float) <= s, 1.0, 0.0)
        return step + self.gamma_alpha / self.denom * self.g_many(s)

    # -- bounds (used by tests and the kernel-dump bound columns) ------

    def k_bound(self, t: float) -> float:
        """Upper envelope t^(alpha-1) / (Gamma(alpha) - Lambda) for K."""
        return t ** (self.alpha.q - 1.0) / self.denom

    def kstar_bound(self) -> float:
        """Upper envelope Gamma(alpha) / (Gamma(alpha) - Lambda) for Kstar."""
        return self.gamma_alpha / self.denom


def kernel_representation(ks: KernelSet, y: Integrand, t: float,
                          tol: float = DEFAULT_TOL) -> float:
    """u(t) = int_0^inf K(t, s) y(s) ds by direct (adaptive) quadrature.

    This is the oracle route: it shares no quadrature plan with the
    solver, so agreement between the two is meaningful evidence.
    """
    a = ks.alpha.q

    res_a = integrate_halfline(y, tol)
    require_converged(res_a, "kernel representation: total integral")
    # The convolution part int_0^t (t-s)^(alpha-1) y(s) ds is
    # Gamma(alpha) (I^alpha y)(t), with y's kinks and exponent declared.
    k1_part = t ** (a - 1.0) * res_a.value / ks.gamma_alpha - rl_integral(
        y.fn, a, t, tol=tol, g_exponent=y.endpoint_exponent,
        kinks=y.kinks)
    if ks.h is None:
        return k1_part
    c = _boundary_weighted_integral(ks, y, tol)
    return k1_part + t ** (a - 1.0) / ks.denom * c


def derivative_representation(ks: KernelSet, y: Integrand, t: float,
                              tol: float = DEFAULT_TOL) -> float:
    """int_0^inf Kstar(t, s) y(s) ds: the derivative row of the
    representation, i.e. the order alpha-1 fractional derivative of
    kernel_representation as a function of t."""

    def shifted(x: np.ndarray) -> np.ndarray:
        return np.asarray(y.fn(t + x))

    res_tail = integrate_halfline(
        Integrand(shifted, kinks=tuple(k - t for k in y.kinks if k > t),
                  decay_hint=y.decay_hint), tol)
    require_converged(res_tail, "derivative representation: tail integral")
    if ks.h is None:
        return res_tail.value
    c = _boundary_weighted_integral(ks, y, tol)
    return res_tail.value + ks.gamma_alpha / ks.denom * c


@functools.lru_cache(maxsize=32)
def _boundary_weighted_integral(ks: KernelSet, y: Integrand,
                                tol: float) -> float:
    """C = int_0^inf G(s) y(s) ds, cached per (ks, y, tol).

    This is the package's one integrand that is not pointwise: g_many
    tabulates each batch in one trapezoid pass whose step and u range
    depend on the whole batch, so G at a point depends, within that
    pass's tolerance (tol/10, 1e-11 by default), on the batch; each
    integrand call of the engine makes such a batch.  C is a one-job
    integrate_halfline: its calls carry its head's and tail's panels
    (the tail's first beside the head's splits), never another job's,
    so C is a function of its arguments.  Only kernel_representation
    and derivative_representation use it, and no CLI output does.
    """
    res = integrate_halfline(
        replace(y, fn=lambda s: ks.g_many(s) * np.asarray(y.fn(s))), tol)
    return require_converged(res, "boundary-weighted integral of G").value
