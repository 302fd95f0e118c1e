"""Gamma function and the numerical Riemann-Liouville operators.

The monomial identities here are the workhorse checks: I^q and D^q of
t^p have closed forms through gamma ratios, so every code path (endpoint
substitution, interval flip, difference stencils, Richardson refinement)
is exercised against values known to all digits.
"""

import math
import warnings

import numpy as np
import pytest

from fracbvp import FracOrder, gamma, rl_derivative, rl_integral
from fracbvp.fracops import LossOfSignificanceWarning


def test_gamma_pinned_values():
    assert abs(gamma(1.0) - 1.0) < 1e-15
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-13
    assert abs(gamma(2.5) - 1.3293403881791370) < 1e-13
    assert abs(gamma(1.5) - 0.8862269254527580) < 1e-13
    assert abs(gamma(10.0) - 362880.0) < 1e-7


def test_gamma_functional_equation():
    """gamma(x+1) = x gamma(x) to 1e-12 relative across [0.5, 10]."""
    xs = np.linspace(0.5, 10.0, 191)
    worst = max(abs(gamma(x + 1.0) - x * gamma(x)) / gamma(x + 1.0)
                for x in xs)
    assert worst < 1e-12


def test_gamma_reflection_region():
    # Reference digits from mpmath at 30 significant digits.
    for x, want in ((0.1, 9.513507698668732), (0.25, 3.625609908221908),
                    (0.49, 1.808051288923893)):
        assert abs(gamma(x) - want) < 1e-13 * want


def test_gamma_rejects_nonpositive():
    for x in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            gamma(x)


def test_frac_order():
    assert FracOrder(2.5).n == 3
    assert FracOrder(1.5).n == 2
    assert FracOrder(2.0).n == 2  # integer order needs exactly n derivatives
    with pytest.raises(ValueError):
        FracOrder(0.0)
    with pytest.raises(ValueError):
        FracOrder(-1.5)


def test_rl_integral_of_one_is_t():
    # I^1 of the constant 1 is plain integration: value t.
    assert abs(rl_integral(lambda s: np.ones_like(s), 1.0, 3.0) - 3.0) < 1e-10


def test_rl_integral_half_order_of_s():
    want = gamma(2.0) / gamma(2.5)
    got = rl_integral(lambda s: s, 0.5, 1.0)
    assert abs(got - want) < 1e-10


def test_rl_integral_of_zero():
    assert rl_integral(lambda s: np.zeros_like(s), 0.7, 5.0) == 0.0
    assert rl_integral(lambda s: s, 0.5, 0.0) == 0.0


def test_rl_integral_monomial_grid():
    """I^q t^p = Gamma(p+1)/Gamma(p+q+1) t^(p+q), including p in (-1,0)."""
    for p in (-0.5, 0.0, 0.5, 1.0, 2.5):
        for q in (0.5, 1.5, 2.5):
            for t in (0.5, 1.0, 2.0):
                want = gamma(p + 1.0) / gamma(p + q + 1.0) * t ** (p + q)
                got = rl_integral(lambda s, p=p: s**p, q, t,
                                  g_exponent=p if p < 0 else 0.0)
                assert abs(got - want) <= 1e-6 * (1.0 + abs(want)), (
                    f"I^{q} t^{p} at t={t}: got {got}, want {want}")


def test_rl_integral_semigroup():
    """I^q1 then I^q2 equals I^(q1+q2) on a polynomial."""

    def g(s):
        return 3.0 * s**2 - s + 2.0

    q1, q2, t = 0.75, 0.5, 1.5
    inner = lambda x: np.array([rl_integral(g, q1, float(xi))
                                for xi in np.atleast_1d(x)])
    composed = rl_integral(inner, q2, t, tol=1e-9, g_exponent=q1)
    direct = rl_integral(g, q1 + q2, t)
    assert abs(composed - direct) < 1e-6


def test_rl_derivative_annihilates_homogeneous():
    # D^q of t^(q-1) vanishes identically.
    for t in (0.5, 1.0, 2.0):
        val, est = rl_derivative(lambda s: s**0.5, 1.5, t, g_exponent=0.5)
        assert abs(val) < 1e-8
        assert est < 1e-6


def test_rl_derivative_monomial_pinned():
    val, est = rl_derivative(lambda s: s**1.5, 1.5, 2.0)
    assert abs(val - gamma(2.5)) <= 1e-6
    val, est = rl_derivative(lambda s: s, 0.5, 1.0)
    assert abs(val - gamma(2.0) / gamma(1.5)) <= 1e-6


def test_rl_derivative_monomial_grid():
    """D^q t^p = Gamma(p+1)/Gamma(p-q+1) t^(p-q) whenever p > q-1."""
    for p in (0.5, 1.0, 1.5, 2.5, 3.0):
        for q in (0.5, 1.5, 2.5):
            if not p > q - 1.0:
                continue
            for t in (0.5, 1.0, 2.0):
                want = gamma(p + 1.0) / gamma(p - q + 1.0) * t ** (p - q)
                val, est = rl_derivative(lambda s, p=p: s**p, q, t)
                assert abs(val - want) <= 1e-6 * (1.0 + abs(want)), (
                    f"D^{q} t^{p} at t={t}: got {val}, want {want}")


def test_rl_derivative_reports_estimate():
    val, est = rl_derivative(lambda s: np.exp(s), 0.5, 1.0)
    # Exact value: e^t erf(sqrt(t)) + 1/sqrt(pi t) at t = 1.
    want = math.e * math.erf(1.0) + 1.0 / math.sqrt(math.pi)
    assert abs(val - want) < 10.0 * max(est, 1e-9)
    assert est < 1e-5


def test_rl_derivative_warns_on_stall():
    # A kink at s = 1 ruins the smoothness the stencil refinement needs;
    # the stall must be surfaced, not hidden.
    def ragged(s):
        s = np.asarray(s)
        return np.where(s < 1.0, s, 1.0 + 0.5 * (s - 1.0))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val, est = rl_derivative(ragged, 0.5, 1.0, tol=1e-10)
    assert any(issubclass(w.category, LossOfSignificanceWarning)
               for w in caught)
    assert est > 1e-10  # the reported estimate admits the miss


def test_rl_negative_order_rejected():
    with pytest.raises(ValueError):
        rl_integral(lambda s: s, -0.5, 1.0)
    with pytest.raises(ValueError):
        rl_integral(lambda s: s, 0.5, -1.0)


def _rl_integral_without_kinks(g, q, t, *, tol=1e-10, g_exponent=0.0,
                               kinks=()):
    """rl_integral as it was before kinks could be declared: the
    reference for calls that declare none."""
    from fracbvp.quad import Integrand, integrate_finite, require_converged
    assert kinks == ()
    if t == 0:
        return 0.0
    half = 0.5 * t
    res_lo = integrate_finite(
        Integrand(lambda s: np.asarray(g(s)) * (t - s) ** (q - 1.0),
                  endpoint_exponent=g_exponent), 0.0, half, tol / 2)
    res_hi = integrate_finite(
        Integrand(lambda x: np.asarray(g(t - x)) * x ** (q - 1.0),
                  endpoint_exponent=q - 1.0), 0.0, half, tol / 2)
    require_converged(res_lo, "reference lower half")
    require_converged(res_hi, "reference upper half")
    return (res_lo.value + res_hi.value) / gamma(q)


@pytest.mark.parametrize("g, q, t, kw", [
    (lambda s: s**0.5, 1.5, 1.0, {"g_exponent": 0.5}),
    (lambda s: s**1.5, 1.5, 2.0, {}),
    (lambda s: s, 0.5, 1.0, {}),
    (lambda s: s**2.5, 2.5, 0.5, {}),
    (lambda s: np.exp(s), 0.5, 1.0, {}),
])
def test_rl_derivative_without_kinks_is_unchanged(monkeypatch, g, q, t, kw):
    """No declared kinks, no changed bit: the acceptance identities see
    the same numbers as before kinks could be declared."""
    import fracbvp.fracops as fracops_mod
    got = rl_derivative(g, q, t, **kw)
    monkeypatch.setattr(fracops_mod, "rl_integral",
                        _rl_integral_without_kinks)
    assert got == rl_derivative(g, q, t, **kw)


def test_rl_integral_maps_kinks_onto_both_halves():
    # g has one kink on each half of [0, 2], and I^1 is its plain
    # integral.
    kinks = (0.4, 1.5)
    g = lambda s: np.abs(s - 0.4) + np.abs(s - 1.5)  # noqa: E731
    want = (0.4**2 + 1.6**2) / 2 + (1.5**2 + 0.5**2) / 2
    got = rl_integral(g, 1.0, 2.0, kinks=kinks)
    assert abs(got - want) <= 1e-12
    sizes = []

    def counted(s):
        sizes.append(np.size(s))
        return g(s)

    rl_integral(counted, 1.0, 2.0, kinks=kinks)
    # Each half is two plain pieces whose first panels share one call,
    # and a panel rule integrates a piecewise-linear g exactly.
    assert sizes == [72, 72]
