"""Problem data and hypothesis verification.

The iterative schemes in `solver` carry convergence guarantees that rest
on four standing hypotheses.  This module holds the problem description
and computes every constant those hypotheses mention, so a run can state
up front which guarantees apply:

  H1  boundary coupling: h_i >= 0 (sampled) with Lambda_i = int_0^inf
      h_i(t) t^(alpha_i-1) dt finite and strictly below Gamma(alpha_i),
      and the forcing f_i(t,0,0,0,0) is not identically zero.
  H2  growth envelopes: |f_i(t,u1..u4)| <= a_i0(t) + sum_k a_ik(t) |u_k|^lam_ik
      with a_ik >= 0 (sampled) and every envelope integral a*_ik finite.
      The u1 and u2 slots are measured in weighted sup norms, so their
      envelopes integrate against (1 + t^(alpha_1-1))^lam_i1 resp.
      (1 + t^(alpha_2-1))^lam_i2; the derivative slots u3, u4 use the
      plain sup norm and integrate unweighted.
  H3  Lipschitz envelopes: |f_i(t,u.) - f_i(t,w.)| <= sum_k b_ik(t) |u_k - w_k|,
      with b_ik >= 0 (sampled), weighted the same way (power 1), plus
      tau_i = int |f_i(t,0,0,0,0)| dt.
  H4  monotonicity: each f_i is nondecreasing in u1..u4 on the
      nonnegative cone.  Checked by falsification on a fixed
      low-discrepancy point set; a pass means "no counterexample
      found", never "proved".

Derived from these: the kernel sup constants L_i = 1/(Gamma(alpha_i) -
Lambda_i) and L = max{L_1, L_2, Gamma(alpha_1) L_1, Gamma(alpha_2) L_2},
the contraction modulus m = L * max{sum_k b*_1k, sum_k b*_2k}, the
invariant-ball radius R for the monotone scheme, and the contraction
ball radius r = L * max{tau_1, tau_2} / (1 - m).

The report also records, per scheme, why that scheme is blocked: each
reason is noted where build_report establishes the fact behind it, and
a scheme with no reasons is licensed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import inf, isfinite
from typing import Callable, Iterable, Mapping

import numpy as np

from .exprlang import Expr, ExprError, compile_expr
from .fracops import FracOrder, gamma
from .kernels import compute_lambda
from .quad import (DEFAULT_TOL, Integrand, QuadratureError, integrate_batch,
                   require_converged)

__all__ = [
    "GrowthData", "LipschitzData", "ProblemSpec", "Verdict", "Discrepancy",
    "HypothesisReport", "InapplicableError", "check_h1", "check_h4",
    "build_report", "integrate_each", "CONSTANT_NAMES",
]


class InapplicableError(ValueError):
    """A derived quantity or scheme is unavailable because the hypothesis
    behind it fails or its data is missing (for example a contraction
    run with m >= 1)."""


def _sized(name: str, items, n: int) -> tuple:
    t = tuple(items)
    if len(t) != n:
        raise ValueError(f"{name} needs exactly {n} entries, got {len(t)}")
    return t


@dataclass(frozen=True)
class GrowthData:
    """Envelope data |f_i| <= a_i0(t) + sum_k a_ik(t) |u_k|^lam_ik.

    a1 and a2 hold the five coefficient functions (k = 0..4) of each
    equation, lam1 and lam2 the four exponents (k = 1..4).
    """

    a1: tuple[Integrand, ...]
    a2: tuple[Integrand, ...]
    lam1: tuple[float, ...]
    lam2: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a1", _sized("a1", self.a1, 5))
        object.__setattr__(self, "a2", _sized("a2", self.a2, 5))
        object.__setattr__(
            self, "lam1", _sized("lam1", map(float, self.lam1), 4))
        object.__setattr__(
            self, "lam2", _sized("lam2", map(float, self.lam2), 4))
        for e in (*self.lam1, *self.lam2):
            if e < 0.0:
                raise ValueError(f"growth exponents must be >= 0, got {e}")


@dataclass(frozen=True)
class LipschitzData:
    """Coefficient functions of |f_i(t,u.) - f_i(t,w.)| <= sum b_ik |u_k - w_k|."""

    b1: tuple[Integrand, ...]
    b2: tuple[Integrand, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b1", _sized("b1", self.b1, 4))
        object.__setattr__(self, "b2", _sized("b2", self.b2, 4))


@dataclass(frozen=True)
class ProblemSpec:
    """One coupled two-equation problem on the half line.

    f1, f2 are expressions in (t, u1, u2, u3, u4) where u1, u2 are the
    two unknowns and u3, u4 their fractional derivatives of orders
    alpha_1 - 1 and alpha_2 - 1.  h1, h2 weight the integral boundary
    conditions; None means no boundary coupling.  At least one of
    growth / lipschitz must be present, or no scheme applies.
    f_compiled holds f1 and f2 compiled unbound, once per spec, for
    every check that evaluates them.
    """

    alpha1: FracOrder
    alpha2: FracOrder
    h1: Integrand | None
    h2: Integrand | None
    f1: Expr
    f2: Expr
    growth: GrowthData | None = None
    lipschitz: LipschitzData | None = None
    monotone: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if self.growth is None and self.lipschitz is None:
            raise ValueError(
                "problem carries neither growth nor Lipschitz data; "
                "no solution scheme applies")

    @cached_property
    def f_compiled(self) -> tuple[Callable[..., np.ndarray], ...]:
        return compile_expr(self.f1), compile_expr(self.f2)


@dataclass(frozen=True)
class Verdict:
    passed: bool
    reason: str = ""


@dataclass(frozen=True)
class Discrepancy:
    """A computed constant that disagrees with its declared expected value."""

    name: str
    computed: float
    expected: float

    @property
    def difference(self) -> float:
        return abs(self.computed - self.expected)


# Every derived constant, as HypothesisReport.constants names them:
# a*_ik (k = 0..4) and b*_ik (k = 1..4) go by their coefficient's key.
CONSTANT_NAMES = (
    "lambda1", "lambda2", "gamma_alpha1", "gamma_alpha2", "L1", "L2", "L",
    "m", "R", "r", "tau1", "tau2",
    *(f"a{i}{k}" for i in (1, 2) for k in range(5)),
    *(f"b{i}{k}" for i in (1, 2) for k in range(1, 5)))


@dataclass(frozen=True)
class HypothesisReport:
    """Everything build_report established about one problem."""

    lam: tuple[float, float]
    gamma_alpha: tuple[float, float]
    L_pair: tuple[float, float]
    L: float
    a_star: tuple[tuple[float, ...], tuple[float, ...]] | None
    b_star: tuple[tuple[float, ...], tuple[float, ...]] | None
    tau: tuple[float, float] | None
    m: float | None
    R: float | None
    r: float | None
    verdicts: Mapping[str, Verdict]
    notes: tuple[str, ...]
    discrepancies: tuple[Discrepancy, ...]
    samples: int
    # Scheme ("monotone", "contraction") -> why it is blocked, in the
    # order the facts were established; to_dict leaves it out.
    blockers: Mapping[str, tuple[str, ...]]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    def constants(self) -> dict[str, float | None]:
        """Flat name -> value map of every derived constant, named and
        ordered as in CONSTANT_NAMES."""
        a = self.a_star or ((None,) * 5,) * 2
        b = self.b_star or ((None,) * 4,) * 2
        return dict(zip(CONSTANT_NAMES, (
            *self.lam, *self.gamma_alpha, *self.L_pair, self.L,
            self.m, self.R, self.r, *(self.tau or (None, None)),
            *a[0], *a[1], *b[0], *b[1]), strict=True))

    def to_dict(self) -> dict:
        doc = self.constants()
        doc["verdicts"] = {
            k: {"passed": v.passed, "reason": v.reason}
            for k, v in self.verdicts.items()}
        doc["passed"] = self.passed
        doc["notes"] = list(self.notes)
        doc["discrepancies"] = [
            {"name": d.name, "computed": d.computed, "expected": d.expected,
             "difference": d.difference}
            for d in self.discrepancies]
        doc["samples"] = self.samples
        return doc


# -- individual checks -----------------------------------------------

# Where every sign check of the report samples (h_i, a_ik, b_ik).
_SAMPLE_TS = np.geomspace(1e-4, 1e4, 64)


def _negative_at(named: Iterable[tuple[str, Integrand]]) -> list[str]:
    """One reason per (name, Integrand) pair that is negative somewhere
    on _SAMPLE_TS, naming the first such point."""
    out = []
    for name, c in named:
        neg = np.asarray(c.fn(_SAMPLE_TS)) < 0.0
        if np.any(neg):
            out.append(f"{name} is negative at "
                       f"t={float(_SAMPLE_TS[np.argmax(neg)])!r}")
    return out


def _forcing(fn: Callable[..., np.ndarray]):
    """A compiled f as a function of t alone, with the state slots
    pinned to 0."""

    def at_zero_state(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        z = np.zeros_like(t)
        return np.asarray(fn(t, z, z, z, z))

    return at_zero_state


def check_h1_weights(p: ProblemSpec) -> tuple[list[str],
                                               tuple[float, float]]:
    """H1's weight half, which holds exactly where the kernels exist:
    weights h_i >= 0, Lambda_i convergent and below Gamma(alpha_i).

    Returns the reasons it fails together with (Lambda_1, Lambda_2); on
    a quadrature failure the best available value is kept so the report
    can still show it.
    """
    lams = [0.0, 0.0]
    reasons = []
    for i, (h, alpha) in enumerate(((p.h1, p.alpha1), (p.h2, p.alpha2))):
        ga = gamma(alpha.q)
        lam = 0.0
        if h is not None:
            reasons += _negative_at([(f"h{i + 1}", h)])
            if h.endpoint_exponent <= -alpha.q:
                # h t^(alpha-1) ~ t^(sigma+alpha-1) is not integrable at 0.
                lams[i] = inf
                reasons.append(
                    f"h{i + 1}_exponent={h.endpoint_exponent!r} is not above "
                    f"-alpha{i + 1}={-alpha.q!r}, so Lambda{i + 1} diverges")
                continue
            try:
                lam = compute_lambda(h, alpha).value
            except QuadratureError as exc:
                lam = exc.result.value
                reasons.append(f"Lambda{i + 1} did not converge: {exc}")
        lams[i] = lam
        if not lam < ga:
            reasons.append(
                f"Lambda{i + 1}={lam:.10g} is not below "
                f"Gamma(alpha{i + 1})={ga:.10g}")
    return reasons, (lams[0], lams[1])


def check_h1(p: ProblemSpec) -> tuple[Verdict, tuple[float, float]]:
    """H1: the weight half (check_h1_weights) and a nondegenerate forcing.
    Returns the verdict together with (Lambda_1, Lambda_2)."""
    reasons, lams = check_h1_weights(p)
    for i, fn in enumerate(p.f_compiled, start=1):
        if not np.any(_forcing(fn)(_SAMPLE_TS) != 0.0):
            reasons.append(
                f"f{i}(t,0,0,0,0) vanishes at all {_SAMPLE_TS.size} "
                f"log-spaced sample points")
    return Verdict(not reasons, "; ".join(reasons)), lams


def integrate_each(named, tol: float = DEFAULT_TOL) -> list[float]:
    """The integrals over (0, inf) of the (label, Integrand) pairs in
    named, as the jobs of one integrate_batch call whose fn(x, job) calls
    each job's fn on that job's points alone, so each is bit for bit its
    integrate_halfline.  The first job in order whose fn raised an
    ExprError, or that did not converge, raises: that error, or
    QuadratureError with its label, as integrating one by one would."""
    fs, failed = [f.fn for _, f in named], {}

    def fn(x: np.ndarray, job: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape)  # a job whose fn raised gets zeros
        # Not np.unique: on numpy 2.4 it imports numpy.ma.
        for j in set(job.tolist()) - failed.keys():
            try:
                out[job == j] = fs[j](x[job == j])
            except ExprError as exc:  # raised below, in job order
                failed[j] = exc
        return out

    results = integrate_batch(fn, [
        (0.0, inf, f.kinks, f.endpoint_exponent, f.decay_hint)
        for _, f in named], tol)
    for j, ((label, _), res) in enumerate(zip(named, results)):
        if j in failed:
            raise failed[j]
        require_converged(res, label)
    return [res.value for res in results]


# The envelope integrals that _family computed, by (coefficient,
# weight exponent or None, power, tol), least recently used first: a
# problem loaded again, or a variant that keeps a coefficient's text
# (cli._read shares its Integrand), integrates it once.
_COEF_MEMO: OrderedDict = OrderedDict()
_COEF_MEMO_SIZE = 64


def _family(p: ProblemSpec, letter: str, rows, powers, extra=()
            ) -> tuple[Verdict, list[float] | None]:
    """The verdict on H2's a_ik (rows over slots k = 0..4) or H3's b_ik
    (k = 1..4), each sampled for sign on _SAMPLE_TS, and its envelope
    integrals then `extra`'s (None when they did not converge).  The
    integrals _COEF_MEMO lacks and `extra` are one integrate_each batch,
    and only a converged batch's values are kept.  powers[i][j] is the
    exponent of rows[i][j]; the u1, u2 slots are weighted by
    (1 + t^(alpha-1))^power."""
    weights = (None, p.alpha1.q - 1.0, p.alpha2.q - 1.0, None, None)
    named, keys, misses = [], [], {}
    for i, (row, pows) in enumerate(zip(rows, powers), start=1):
        for k, (c, e) in enumerate(zip(row, pows), start=5 - len(row)):
            named.append((f"{letter}{i}{k}", c))
            w = weights[k] if e != 0.0 else None
            keys.append((c, w, 0.0 if w is None else e, DEFAULT_TOL))
            if keys[-1] in _COEF_MEMO or keys[-1] in misses:
                continue
            if w is not None:
                c = replace(c, fn=lambda t, _c=c.fn, _w=w, _p=e:
                            np.asarray(_c(t)) * (1.0 + t ** _w) ** _p)
            misses[keys[-1]] = (f"envelope integral {letter}{i}{k}", c)
    reasons, values = _negative_at(named), None
    known = {key: _COEF_MEMO[key] for key in keys if key in _COEF_MEMO}
    try:
        values = integrate_each([*misses.values(), *extra])
    except QuadratureError as exc:
        reasons.append(str(exc))
    else:
        for key, v in zip(misses, values):
            _COEF_MEMO[key] = known[key] = v
        for key in known:
            _COEF_MEMO.move_to_end(key)
        while len(_COEF_MEMO) > _COEF_MEMO_SIZE:
            _COEF_MEMO.popitem(last=False)
        values = [known[key] for key in keys] + values[len(misses):]
    return Verdict(not reasons, "; ".join(reasons)), values


# Side of the cube [0, _H4_BOX)^5 that check_h4 samples (t and the
# state), and how many ordered state pairs it takes there.
_H4_BOX = 10.0
_H4_SAMPLES = 10_000


@lru_cache(maxsize=1)
def _h4_draws() -> tuple[np.ndarray, ...]:
    """check_h4's sample times t and ordered state pairs lo <= hi, read
    only and the same for every problem: the first _H4_SAMPLES points of
    the 9-dimensional Kronecker sequence frac(0.5 + k g^-j), j = 1..9,
    with g^10 = g + 1 (Roberts's R-sequence), scaled to [0, _H4_BOX).
    t is one coordinate; lo and hi are the min and max of two blocks of
    four."""
    g = 2.0
    for _ in range(40):  # the fixed point of g = (1 + g)^(1/10)
        g = (1.0 + g) ** 0.1
    k = np.arange(1.0, _H4_SAMPLES + 1.0)
    x = _H4_BOX * ((0.5 + g ** -np.arange(1.0, 10.0)[:, None] * k) % 1.0)
    draws = x[0].copy(), np.minimum(x[1:5], x[5:]), np.maximum(x[1:5], x[5:])
    for a in draws:
        a.setflags(write=False)
    return draws


def check_h4(p: ProblemSpec) -> Verdict:
    """Monotonicity falsification on [0, _H4_BOX)^5.

    Takes componentwise-ordered state pairs as the min/max of two blocks
    of _h4_draws's point set and requires f_i(t, lo) <= f_i(t, hi) up
    to rounding.  Nonnegativity of f_i on the sampled states is checked
    alongside, since positivity of the iterates relies on it.
    """
    t, lo, hi = _h4_draws()
    issues = []
    for i, fn in enumerate(p.f_compiled, start=1):
        flo = np.asarray(fn(t, *lo))
        fhi = np.asarray(fn(t, *hi))
        slack = 1e-12 * (1.0 + np.abs(fhi))
        bad = flo > fhi + slack
        if np.any(bad):
            j = int(np.argmax(bad))
            issues.append(
                f"f{i} decreases between ordered states at "
                f"t={float(t[j])!r}: {float(flo[j])!r} > {float(fhi[j])!r} "
                f"for lo={lo[:, j].tolist()}, hi={hi[:, j].tolist()}")
        neg = np.minimum(flo, fhi) < -slack
        if np.any(neg):
            j = int(np.argmax(neg))
            issues.append(
                f"f{i} is negative at t={float(t[j])!r}, "
                f"state={lo[:, j].tolist()}: {float(min(flo[j], fhi[j]))!r}")
    if issues:
        return Verdict(False, "; ".join(issues))
    return Verdict(
        True, f"no counterexample in {_H4_SAMPLES} ordered samples")


# -- report assembly ---------------------------------------------------

def build_report(p: ProblemSpec, *,
                 expected: Mapping[str, float] | None = None
                 ) -> HypothesisReport:
    """Run every applicable check and assemble the full report.

    `expected` maps constant names (as in HypothesisReport.constants)
    to externally stated values; entries differing from the computed
    value by more than 5e-5 * (1 + |expected|) are recorded as
    discrepancies.  Discrepancies are informational: the computed value
    stands, the disagreement is surfaced.
    """
    notes: list[str] = []
    verdicts: dict[str, Verdict] = {}
    blockers: dict[str, list[str]] = {"monotone": [], "contraction": []}

    def settle(key: str, verdict: Verdict, *schemes: str) -> None:
        verdicts[key] = verdict
        if not verdict.passed:
            for scheme in schemes:
                blockers[scheme].append(f"{key} fails ({verdict.reason})")

    v1, lam = check_h1(p)
    settle("H1", v1, "monotone", "contraction")
    # L_i = 1/(Gamma(alpha_i) - Lambda_i) is infinite when a coupling
    # reaches Gamma(alpha): the kernels do not exist there and no finite
    # operator bound holds.
    ga = (gamma(p.alpha1.q), gamma(p.alpha2.q))
    l1, l2 = (1.0 / (g - x) if x < g else inf for g, x in zip(ga, lam))
    big_l = max(l1, l2, ga[0] * l1, ga[1] * l2)
    if not isfinite(big_l):
        notes.append("operator sup constants are infinite because a "
                     "boundary coupling reaches Gamma(alpha)")
    for i, g, x, li in ((1, ga[0], lam[0], l1), (2, ga[1], lam[1], l2)):
        if 0.0 < g - x < 1e-3 * g:
            notes.append(f"Gamma(alpha{i}) - Lambda{i} = {g - x:.3e} is below "
                         f"1e-3*Gamma(alpha{i}), so L{i} = {li:.6g}")

    a_star = b_star = tau = None
    if p.growth is None:
        blockers["monotone"].append("no growth data")
    else:
        g = p.growth
        verdict, a = _family(p, "a", (g.a1, g.a2),
                             ((0.0, *g.lam1), (0.0, *g.lam2)))
        if a is not None:
            a_star = (tuple(a[:5]), tuple(a[5:]))
        settle("H2", verdict, "monotone")

    if p.lipschitz is None:
        blockers["contraction"].append("no Lipschitz data")
    else:
        # Power 1 in every slot; tau_i = int |f_i(t,0,0,0,0)| dt.
        verdict, s = _family(
            p, "b", (p.lipschitz.b1, p.lipschitz.b2), ((1.0,) * 4,) * 2,
            [(f"forcing integral tau{i}",
              Integrand(lambda t, f0=_forcing(fn): np.abs(f0(t))))
             for i, fn in enumerate(p.f_compiled, start=1)])
        if s is not None:
            b_star, tau = (tuple(s[:4]), tuple(s[4:8])), tuple(s[8:])
        settle("H3", verdict, "contraction")

    if p.monotone:
        settle("H4", check_h4(p), "monotone")
    else:
        notes.append("monotonicity not claimed; the monotone scheme "
                     "is unavailable for this problem")
        blockers["monotone"].append("monotonicity not claimed")

    # m and r need b*_ik that bound f, which only a passing H3 gives.
    m = R = r = None
    if b_star is not None and isfinite(big_l) and verdicts["H3"].passed:
        m = big_l * max(sum(b_star[0]), sum(b_star[1]))
        if m < 1.0:
            r = big_l * max(tau) / (1.0 - m)
        else:
            notes.append(f"m={m:.6g} >= 1: no contraction guarantee")
            blockers["contraction"].append(f"m={m:.6g} is not below 1")

    # R = max of {5 a*_10, 5 a*_20} and {(5 L a*_ik)^(1/(1-lam_ik))} over
    # the eight weighted slots; only exponents lam_ik < 1 are covered, and
    # only a passing H2 makes every a*_ik a nonnegative envelope integral.
    # A term that overflows a float leaves R out, which blocks the scheme.
    if a_star is not None and isfinite(big_l):
        exps = (p.growth.lam1, p.growth.lam2)
        over = [e for row in exps for e in row if e >= 1.0]
        if over:
            notes.append(f"growth exponent {over[0]} >= 1 is outside the "
                         f"supported sublinear regime")
        elif verdicts["H2"].passed:
            R = max(5.0 * a_star[0][0], 5.0 * a_star[1][0])
            for i, k in [(i, k) for i in (0, 1) for k in (1, 2, 3, 4)]:
                try:
                    R = max(R, (5.0 * big_l * a_star[i][k])
                            ** (1.0 / (1.0 - exps[i][k - 1])))
                except OverflowError:
                    notes.append(f"R is too large for a float: the term of "
                                 f"slot a{i + 1}{k} overflows")
                    R = None
                    break
    if R is None and not blockers["monotone"]:
        blockers["monotone"].append(
            "no invariant-ball radius (see report notes)")

    report = HypothesisReport(
        lam=lam, gamma_alpha=ga, L_pair=(l1, l2), L=big_l,
        a_star=a_star, b_star=b_star, tau=tau, m=m, R=R, r=r,
        verdicts=verdicts, notes=tuple(notes), discrepancies=(),
        samples=_H4_SAMPLES,
        blockers={k: tuple(v) for k, v in blockers.items()})

    if expected:
        values = report.constants()
        found = []
        for key in sorted(expected):
            if key not in values:
                raise ValueError(f"unknown expected-constant name {key!r}")
            want = float(expected[key])
            got = values[key]
            if got is None:
                notes.append(f"expected {key}={want!r} was declared but "
                             f"the constant was not computed")
                continue
            if abs(got - want) > 5e-5 * (1.0 + abs(want)):
                found.append(Discrepancy(key, got, want))
        report = replace(report, notes=tuple(notes),
                         discrepancies=tuple(found))
    return report
