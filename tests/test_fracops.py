"""Gamma function and the numerical Riemann-Liouville operators.

The monomial identities here are the workhorse checks: I^q and D^q of
t^p have closed forms through gamma ratios, so every code path (endpoint
substitution, interval flip, difference stencils, Richardson refinement)
is exercised against values known to all digits.
"""

import math

import numpy as np
import pytest

import fracbvp.fracops as fracops_mod
from fracbvp import FracOrder, gamma, quad, rl_derivative, rl_integral
from fracbvp.quad import (Integrand, QuadratureError, integrate_finite,
                          require_converged)
from test_quad import _reference_finite


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


def test_rl_derivative_reports_the_stall_in_its_estimate():
    # A kink at s = 1 ruins the smoothness the stencil refinement needs;
    # the stall must be surfaced in the estimate, not hidden.  No warning
    # is issued: the suite turns every RuntimeWarning into an error.
    def ragged(s):
        s = np.asarray(s)
        return np.where(s < 1.0, s, 1.0 + 0.5 * (s - 1.0))

    tol = 1e-10
    val, est = rl_derivative(ragged, 0.5, 1.0, tol=tol)
    assert est > tol * (1.0 + abs(val))  # the estimate admits the miss


def test_rl_negative_order_rejected():
    with pytest.raises(ValueError):
        rl_integral(lambda s: s, -0.5, 1.0)
    with pytest.raises(ValueError):
        rl_integral(lambda s: s, 0.5, -1.0)


def _scalar_rl_integral(g, q, t, *, tol=1e-10, g_exponent=0.0, kinks=()):
    """rl_integral for one t as two unbatched integrate_finite calls,
    with the kinks and exponents that rl_integral passes: the reference
    for the batched route."""
    qv = float(q)
    if t == 0:
        return 0.0
    half = 0.5 * t
    res_lo = _reference_finite(
        Integrand(lambda s: np.asarray(g(s)) * (t - s) ** (qv - 1.0),
                  kinks=tuple(k for k in kinks if 0.0 < k < half),
                  endpoint_exponent=g_exponent), 0.0, half, tol / 2)
    res_hi = _reference_finite(
        Integrand(lambda x: np.asarray(g(t - x)) * x ** (qv - 1.0),
                  kinks=tuple(t - k for k in reversed(kinks)
                              if half < k < t),
                  endpoint_exponent=qv - 1.0), 0.0, half, tol / 2)
    require_converged(res_lo, f"rl_integral lower half (q={qv}, t={t})")
    require_converged(res_hi, f"rl_integral upper half (q={qv}, t={t})")
    return (res_lo.value + res_hi.value) / gamma(qv)


def _each_t(scalar):
    """rl_integral's contract for a sequence of t on top of a one-t
    route: a list, with the error of a failed t in its place."""
    def route(g, q, t, **kw):
        if not np.ndim(t):
            return scalar(g, q, t, **kw)
        out = []
        for x in t:
            try:
                out.append(scalar(g, q, x, **kw))
            except QuadratureError as exc:
                out.append(exc)
        return out
    return route


_reference_rl_integral = _each_t(_scalar_rl_integral)


def _reference_rl_derivative(g, q, t, *, tol=1e-6, g_exponent=0.0,
                             quad_tol=1e-12, kinks=()):
    """rl_derivative reading one stencil point at a time through
    _scalar_rl_integral, only when the refinement needs it."""
    qv = float(q)
    n = math.ceil(qv)
    cache = {}

    def smooth(x):
        if x not in cache:
            cache[x] = (float(np.asarray(g(np.array([x])))[0]) if n == qv
                        else _scalar_rl_integral(
                            g, n - qv, x, tol=quad_tol,
                            g_exponent=g_exponent, kinks=kinks))
        return cache[x]

    offsets, coeffs = fracops_mod._STENCILS[n]
    h0 = t / (4.0 * max(abs(o) for o in offsets))
    table, best, est, prev_diag, stalls = [], math.nan, math.inf, math.nan, 0
    for k in range(5):
        h = h0 / 2 ** k
        row = [sum(c * smooth(t + o * h)
                   for o, c in zip(offsets, coeffs)) / h ** n]
        for j in range(1, k + 1):
            fac = 4.0 ** j
            row.append((fac * row[j - 1] - table[k - 1][j - 1]) / (fac - 1.0))
        table.append(row)
        diag = row[-1]
        if k > 0:
            new_est = abs(diag - prev_diag)
            if new_est <= est:
                best, est, stalls = diag, new_est, 0
            else:
                stalls += 1
                if stalls >= 2:
                    break
            if est <= tol * (1.0 + abs(best)):
                break
        else:
            best = diag
        prev_diag = diag
    return best, est


def _rl_integral_without_kinks(g, q, t, *, tol=1e-10, g_exponent=0.0,
                               kinks=()):
    """rl_integral as it was before kinks could be declared: the
    reference for calls that declare none."""
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
    got = rl_derivative(g, q, t, **kw)
    calls = []
    reference = _each_t(_rl_integral_without_kinks)
    monkeypatch.setattr(fracops_mod, "rl_integral",
                        lambda *a, **k: calls.append(a[2]) or reference(*a, **k))
    assert got == rl_derivative(g, q, t, **kw)
    assert len(calls) == 1 and len(calls[0]) > 1  # the patched name ran


def _kinked(rng, k):
    """A vectorized g with kinks at k random grid-like nodes."""
    nodes = np.sort(rng.uniform(0.0, 3.0, k))
    slopes = rng.uniform(-1.0, 1.0, k)

    def g(s):
        # Elementwise operations only: pointwise bit for bit.
        out = 1.0 + 0.3 * np.sin(2.0 * np.asarray(s, dtype=float))
        for a, b in zip(slopes, nodes):
            out = out + a * np.abs(s - b)
        return out
    return g, tuple(nodes.tolist())


@pytest.mark.parametrize("g_exponent", [0.0, 0.5, 1.5])
@pytest.mark.parametrize("q", [0.25, 0.5, 1.5])
def test_batched_rl_integral_matches_scalar_route(g_exponent, q):
    """Both halves of every t in one batch: each value equals that of
    the unbatched two-call route, bit for bit."""
    rng = np.random.default_rng(int(100 * q + 10 * g_exponent))
    base, kinks = _kinked(rng, 40)
    g = (lambda s: base(s) * np.asarray(s) ** g_exponent) if g_exponent \
        else base
    ts = [0.0] + rng.uniform(0.05, 3.5, 12).tolist() + [kinks[7]]
    kw = dict(tol=1e-11, g_exponent=g_exponent, kinks=kinks)
    got = rl_integral(g, q, ts, **kw)
    assert got == [_scalar_rl_integral(g, q, t, **kw) for t in ts]
    assert rl_integral(g, q, ts[3], **kw) == got[3]


@pytest.mark.parametrize("q, g_exponent", [(2.5, 0.0), (1.5, 0.5),
                                           (0.5, 0.0), (2.0, 0.0)])
def test_batched_rl_derivative_matches_scalar_route(q, g_exponent):
    rng = np.random.default_rng(7)
    base, kinks = _kinked(rng, 30)
    g = lambda s: base(s) * np.asarray(s) ** (q - 1.0)  # noqa: E731
    for t in (0.5, 1.0, 2.0):
        kw = dict(tol=1e-5, g_exponent=q - 1.0, quad_tol=1e-9, kinks=kinks)
        assert rl_derivative(g, q, t, **kw) \
            == _reference_rl_derivative(g, q, t, **kw)


@pytest.mark.parametrize("q, g_exponent, ts", [
    (1.5, 0.5, (0.5, 1.0, 2.0)),
    # n = 2 puts t itself in the stencil: 0.75 is also 1.0's level-0
    # point and 0.9375 a point of both, and a repeated t repeats all.
    (1.5, 0.0, (0.75, 1.0, 1.0)),
    (2.0, 0.0, (0.75, 1.0, 3.0)),  # integer order: g itself
    (0.5, 0.0, (0.3, 1.0, 2.5)),
])
def test_rl_derivative_of_a_sequence_matches_one_t_calls(q, g_exponent, ts):
    """Every t's stencil points at every level, deduplicated, in one
    batch: each pair equals the one-t call's, bit for bit."""
    rng = np.random.default_rng(11)
    base, kinks = _kinked(rng, 20)
    g = lambda s: base(s) * np.asarray(s) ** g_exponent  # noqa: E731
    kw = dict(tol=1e-5, g_exponent=g_exponent, quad_tol=1e-9, kinks=kinks)
    assert rl_derivative(g, q, ts, **kw) \
        == [rl_derivative(g, q, t, **kw) for t in ts]
    assert rl_derivative(g, q, list(ts), **kw) \
        == [_reference_rl_derivative(g, q, t, **kw) for t in ts]


def test_a_failed_t_holds_its_error_in_a_sequence():
    # sin(1/(s - 1.2)) oscillates without end at s = 1.2: the level-0
    # points of t = 1.0 reach past it, those of 0.5 and 0.9 do not.
    def g(s):
        d = np.asarray(s) - 1.2
        return np.sin(1.0 / np.where(d == 0.0, 1.0, d))

    for op in (rl_integral, rl_derivative):
        bad = 1.25 if op is rl_integral else 1.0
        got = op(g, 0.5, [0.5, bad, 0.9])
        assert isinstance(got[1], QuadratureError)
        assert [got[0], got[2]] == [op(g, 0.5, 0.5), op(g, 0.5, 0.9)]
        with pytest.raises(QuadratureError) as exc:
            op(g, 0.5, bad)
        assert str(exc.value) == str(got[1])
    with pytest.raises(ValueError):
        rl_derivative(g, 0.5, [0.5, 0.0])


def test_first_pass_is_one_call_of_g_over_every_stencil_point():
    # q = 1.5 differentiates I^0.5 twice: stencil offsets -1, 0, 1 over
    # five levels make 11 distinct points, two one-piece halves each.
    sizes = []

    def g(s):
        sizes.append(np.size(s))
        return np.exp(np.sin(3.0 * s))

    rl_derivative(g, 1.5, 1.0, tol=1e-12, quad_tol=1e-12)
    assert sizes[0] == 36 * 2 * 11
    assert all(s % 72 == 0 for s in sizes[1:])
    sizes.clear()
    rl_derivative(g, 2.0, 1.0)  # integer order: g itself, one call
    assert sizes == [11]


def test_quadrature_error_surfaces_only_where_the_refinement_reads(
        monkeypatch):
    # On a cubic, Richardson's first column is exact, so the refinement
    # stops at level 2 and never reads the level-4 points.
    t, h0 = 1.0, 1.0 / 4.0
    unread, read = t + h0 / 16, t + h0
    boom = QuadratureError("quadrature did not converge in test",
                           quad.QuadResult(1.0, 1.0, 1.0, 36, False))

    def fake(bad):
        def route(g, q, ts, **kw):
            return [boom if x == bad else x**3 for x in ts]
        return route

    monkeypatch.setattr(fracops_mod, "rl_integral", fake(unread))
    val, est = rl_derivative(lambda s: s, 0.5, t)
    assert abs(val - 3.0) < 1e-12 and est < 1e-12
    monkeypatch.setattr(fracops_mod, "rl_integral", fake(read))
    with pytest.raises(QuadratureError) as exc:
        rl_derivative(lambda s: s, 0.5, t)
    assert exc.value is boom


def test_quadrature_error_keeps_the_scalar_message():
    # sin(1/(s - 1.2)) oscillates without end at s = 1.2, which lies in
    # [0, x] only for the level-0 point x = 1.25, read first.
    def g(s):
        d = np.asarray(s) - 1.2
        return np.sin(1.0 / np.where(d == 0.0, 1.0, d))
    with pytest.raises(QuadratureError) as got:
        rl_derivative(g, 0.5, 1.0)
    with pytest.raises(QuadratureError) as want:
        _reference_rl_derivative(g, 0.5, 1.0)
    assert str(got.value) == str(want.value)
    assert "upper half (q=0.5, t=1.25)" in str(got.value)


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
    # Each half is two plain pieces, the first panels of all four share
    # one call, and a panel rule integrates a piecewise-linear g exactly.
    assert sizes == [144]
