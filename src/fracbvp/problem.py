"""Problem data and hypothesis verification.

The iterative schemes in `solver` carry convergence guarantees that rest
on four standing hypotheses.  This module holds the problem description
and computes every constant those hypotheses mention, so a run can state
up front which guarantees apply:

  H1  boundary coupling: Lambda_i = int_0^inf h_i(t) t^(alpha_i-1) dt
      exists and stays strictly below Gamma(alpha_i), and the forcing
      f_i(t,0,0,0,0) is not identically zero.
  H2  growth envelopes: |f_i(t,u1..u4)| <= a_i0(t) + sum_k a_ik(t) |u_k|^lam_ik
      with every envelope integral a*_ik finite.  The u1 and u2 slots
      are measured in weighted sup norms, so their envelopes integrate
      against (1 + t^(alpha_1-1))^lam_i1 resp. (1 + t^(alpha_2-1))^lam_i2;
      the derivative slots u3, u4 use the plain sup norm and integrate
      unweighted.
  H3  Lipschitz envelopes: |f_i(t,u.) - f_i(t,w.)| <= sum_k b_ik(t) |u_k - w_k|,
      weighted the same way (power 1), plus tau_i = int |f_i(t,0,0,0,0)| dt.
  H4  monotonicity: each f_i is nondecreasing in u1..u4 on the
      nonnegative cone.  Checked by seeded random falsification; a pass
      means "no counterexample found", never "proved".

Derived from these: the kernel sup constants L_i = 1/(Gamma(alpha_i) -
Lambda_i) and L = max{L_1, L_2, Gamma(alpha_1) L_1, Gamma(alpha_2) L_2},
the contraction modulus m = L * max{sum_k b*_1k, sum_k b*_2k}, the
invariant-ball radius R for the monotone scheme, and the contraction
ball radius r = L * max{tau_1, tau_2} / (1 - m).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import inf, isfinite
from typing import Mapping

import numpy as np

from .exprlang import Expr, compile_expr
from .fracops import FracOrder, gamma
from .kernels import compute_lambda
from .quad import (DEFAULT_TOL, Integrand, QuadratureError,
                   integrate_halfline, require_converged)

__all__ = [
    "GrowthData", "LipschitzData", "ProblemSpec", "Verdict", "Discrepancy",
    "HypothesisReport", "InapplicableError", "check_h1", "check_h4",
    "compute_growth_constants", "compute_lipschitz_constants",
    "build_report",
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
    seed: int
    samples: int

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    def constants(self) -> dict[str, float | None]:
        """Flat name -> value map of every derived constant."""
        out: dict[str, float | None] = {
            "lambda1": self.lam[0], "lambda2": self.lam[1],
            "gamma_alpha1": self.gamma_alpha[0],
            "gamma_alpha2": self.gamma_alpha[1],
            "L1": self.L_pair[0], "L2": self.L_pair[1], "L": self.L,
            "m": self.m, "R": self.R, "r": self.r,
            "tau1": None if self.tau is None else self.tau[0],
            "tau2": None if self.tau is None else self.tau[1],
        }
        for i in (1, 2):
            row = None if self.a_star is None else self.a_star[i - 1]
            for k in range(5):
                out[f"a{i}{k}"] = None if row is None else row[k]
        for i in (1, 2):
            row = None if self.b_star is None else self.b_star[i - 1]
            for k in range(1, 5):
                out[f"b{i}{k}"] = None if row is None else row[k - 1]
        return out

    def to_json(self, indent: int | None = 2) -> str:
        doc = dict(self.constants())
        doc["verdicts"] = {
            k: {"passed": v.passed, "reason": v.reason}
            for k, v in self.verdicts.items()}
        doc["passed"] = self.passed
        doc["notes"] = list(self.notes)
        doc["discrepancies"] = [
            {"name": d.name, "computed": d.computed, "expected": d.expected,
             "difference": d.difference}
            for d in self.discrepancies]
        doc["seed"] = self.seed
        doc["samples"] = self.samples
        return json.dumps(doc, indent=indent, allow_nan=True)


# -- individual checks -----------------------------------------------

_SAMPLE_TS = np.geomspace(1e-4, 1e4, 64)


def _forcing(f: Expr):
    """f as a function of t alone, with the state slots pinned to 0."""
    fn = compile_expr(f)

    def at_zero_state(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        z = np.zeros_like(t)
        return np.asarray(fn(t, z, z, z, z))

    return at_zero_state


def check_h1(p: ProblemSpec,
             tol: float = DEFAULT_TOL) -> tuple[Verdict, tuple[float, float]]:
    """Boundary couplings below Gamma(alpha) and nondegenerate forcing.

    Returns the verdict together with (Lambda_1, Lambda_2); on a
    quadrature failure the best available value is kept so the report
    can still show it.
    """
    lams = [0.0, 0.0]
    reasons = []
    ok = True
    for i, (h, alpha) in enumerate(((p.h1, p.alpha1), (p.h2, p.alpha2))):
        ga = gamma(alpha.q)
        lam = 0.0
        if h is not None:
            try:
                lam = compute_lambda(h, alpha, tol)
            except QuadratureError as exc:
                lam = exc.result.value
                ok = False
                reasons.append(f"Lambda{i + 1} did not converge: {exc}")
        lams[i] = lam
        if not lam < ga:
            ok = False
            reasons.append(
                f"Lambda{i + 1}={lam:.10g} is not below "
                f"Gamma(alpha{i + 1})={ga:.10g}")
    for i, f in enumerate((p.f1, p.f2), start=1):
        if not np.any(_forcing(f)(_SAMPLE_TS) != 0.0):
            ok = False
            reasons.append(
                f"f{i}(t,0,0,0,0) vanishes at all {_SAMPLE_TS.size} "
                f"log-spaced sample points")
    return Verdict(ok, "; ".join(reasons)), (lams[0], lams[1])


def _star_integral(coef: Integrand, weight_exponent: float | None,
                   power: float, tol: float, label: str) -> float:
    """int_0^inf coef(t) (1 + t^weight_exponent)^power dt."""
    if weight_exponent is None or power == 0.0:
        f = coef
    else:
        def weighted(t, _c=coef.fn, _w=weight_exponent, _p=power):
            t = np.asarray(t, dtype=float)
            return np.asarray(_c(t)) * (1.0 + t ** _w) ** _p

        f = Integrand(weighted, kinks=coef.kinks,
                      endpoint_exponent=coef.endpoint_exponent,
                      decay_hint=coef.decay_hint)
    res = integrate_halfline(f, tol)
    require_converged(res, f"envelope integral {label}")
    return res.value


def compute_growth_constants(
        p: ProblemSpec, tol: float = DEFAULT_TOL,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The ten a*_ik envelope integrals, weighted per slot (see module
    docstring)."""
    if p.growth is None:
        raise InapplicableError("problem has no growth data")
    w1, w2 = p.alpha1.q - 1.0, p.alpha2.q - 1.0
    slot_weight = (w1, w2, None, None)
    rows = []
    for i, (coeffs, exps) in enumerate(
            ((p.growth.a1, p.growth.lam1), (p.growth.a2, p.growth.lam2)),
            start=1):
        row = [_star_integral(coeffs[0], None, 0.0, tol, f"a{i}0")]
        for k in (1, 2, 3, 4):
            row.append(_star_integral(coeffs[k], slot_weight[k - 1],
                                      exps[k - 1], tol, f"a{i}{k}"))
        rows.append(tuple(row))
    return rows[0], rows[1]


def compute_lipschitz_constants(
        p: ProblemSpec, tol: float = DEFAULT_TOL,
) -> tuple[tuple[tuple[float, ...], tuple[float, ...]], tuple[float, float]]:
    """The eight b*_ik integrals plus tau_i = int |f_i(t,0,0,0,0)| dt."""
    if p.lipschitz is None:
        raise InapplicableError("problem has no Lipschitz data")
    w1, w2 = p.alpha1.q - 1.0, p.alpha2.q - 1.0
    slot_weight = (w1, w2, None, None)
    rows = []
    for i, coeffs in enumerate((p.lipschitz.b1, p.lipschitz.b2), start=1):
        row = []
        for k in (1, 2, 3, 4):
            power = 1.0 if k <= 2 else 0.0
            row.append(_star_integral(coeffs[k - 1], slot_weight[k - 1],
                                      power, tol, f"b{i}{k}"))
        rows.append(tuple(row))
    taus = []
    for i, f in enumerate((p.f1, p.f2), start=1):
        forcing = _forcing(f)

        def absf(t, _g=forcing):
            return np.abs(_g(t))

        res = integrate_halfline(Integrand(absf), tol)
        require_converged(res, f"forcing integral tau{i}")
        taus.append(res.value)
    return (rows[0], rows[1]), (taus[0], taus[1])


# Side of the cube [0, _H4_BOX]^5 that check_h4 samples (t and the state).
_H4_BOX = 10.0


def check_h4(p: ProblemSpec, samples: int = 10_000,
             seed: int = 0) -> Verdict:
    """Randomized monotonicity falsification on [0, _H4_BOX]^5.

    Draws componentwise-ordered state pairs by taking min/max of two
    uniform draws and requires f_i(t, lo) <= f_i(t, hi) up to rounding.
    Nonnegativity of f_i on the sampled states is checked alongside,
    since positivity of the iterates relies on it.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, _H4_BOX, samples)
    draw_a = rng.uniform(0.0, _H4_BOX, (4, samples))
    draw_b = rng.uniform(0.0, _H4_BOX, (4, samples))
    lo = np.minimum(draw_a, draw_b)
    hi = np.maximum(draw_a, draw_b)
    issues = []
    for i, f in enumerate((p.f1, p.f2), start=1):
        fn = compile_expr(f)
        flo = np.asarray(fn(t, *lo))
        fhi = np.asarray(fn(t, *hi))
        slack = 1e-12 * (1.0 + np.abs(fhi))
        bad = flo > fhi + slack
        if np.any(bad):
            j = int(np.argmax(bad))
            issues.append(
                f"f{i} decreases between ordered states at t={t[j]!r}: "
                f"{flo[j]!r} > {fhi[j]!r} for lo={lo[:, j].tolist()}, "
                f"hi={hi[:, j].tolist()}")
        neg = np.minimum(flo, fhi) < -slack
        if np.any(neg):
            j = int(np.argmax(neg))
            issues.append(
                f"f{i} is negative at t={t[j]!r}, "
                f"state={lo[:, j].tolist()}: {min(flo[j], fhi[j])!r}")
    if issues:
        return Verdict(False, "; ".join(issues))
    return Verdict(
        True, f"no counterexample in {samples} ordered samples (seed {seed})")


# -- report assembly ---------------------------------------------------

def _coefficients_nonneg(label: str, coeffs) -> list[str]:
    ts = np.geomspace(1e-3, 1e3, 32)
    out = []
    for k, c in enumerate(coeffs):
        vals = np.asarray(c.fn(ts))
        if np.any(vals < 0.0):
            j = int(np.argmax(vals < 0.0))
            out.append(f"{label}{k} is negative at t={ts[j]!r}")
    return out


def build_report(p: ProblemSpec, *, seed: int = 0, samples: int = 10_000,
                 tol: float = DEFAULT_TOL,
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

    v1, lam = check_h1(p, tol)
    verdicts["H1"] = v1
    # L_i = 1/(Gamma(alpha_i) - Lambda_i) is infinite when a coupling
    # reaches Gamma(alpha): the kernels do not exist there and no finite
    # operator bound holds.
    ga = (gamma(p.alpha1.q), gamma(p.alpha2.q))
    l1, l2 = (1.0 / (g - x) if x < g else inf for g, x in zip(ga, lam))
    big_l = max(l1, l2, ga[0] * l1, ga[1] * l2)
    if not isfinite(big_l):
        notes.append("operator sup constants are infinite because a "
                     "boundary coupling reaches Gamma(alpha)")

    a_star = None
    if p.growth is not None:
        reasons = _coefficients_nonneg("a1", p.growth.a1)
        reasons += _coefficients_nonneg("a2", p.growth.a2)
        try:
            a_star = compute_growth_constants(p, tol)
        except QuadratureError as exc:
            reasons.append(str(exc))
        verdicts["H2"] = Verdict(not reasons, "; ".join(reasons))

    b_star = None
    tau = None
    if p.lipschitz is not None:
        reasons = _coefficients_nonneg("b1", p.lipschitz.b1)
        reasons += _coefficients_nonneg("b2", p.lipschitz.b2)
        try:
            b_star, tau = compute_lipschitz_constants(p, tol)
        except QuadratureError as exc:
            reasons.append(str(exc))
        verdicts["H3"] = Verdict(not reasons, "; ".join(reasons))

    if p.monotone:
        verdicts["H4"] = check_h4(p, samples=samples, seed=seed)
    else:
        notes.append("monotonicity not claimed; the monotone scheme "
                     "is unavailable for this problem")

    m = R = r = None
    if b_star is not None and isfinite(big_l):
        m = big_l * max(sum(b_star[0]), sum(b_star[1]))
        if m < 1.0:
            r = big_l * max(tau) / (1.0 - m)
        else:
            notes.append(f"m={m:.6g} >= 1: no contraction guarantee")

    # R = max of {5 a*_10, 5 a*_20} and {(5 L a*_ik)^(1/(1-lam_ik))} over
    # the eight weighted slots; only exponents lam_ik < 1 are covered.
    if a_star is not None and isfinite(big_l):
        exps = (p.growth.lam1, p.growth.lam2)
        over = [e for row in exps for e in row if e >= 1.0]
        if over:
            notes.append(f"growth exponent {over[0]} >= 1 is outside the "
                         f"supported sublinear regime")
        else:
            R = max([5.0 * a_star[0][0], 5.0 * a_star[1][0]]
                    + [(5.0 * big_l * a_star[i][k])
                       ** (1.0 / (1.0 - exps[i][k - 1]))
                       for i in (0, 1) for k in (1, 2, 3, 4)])

    report = HypothesisReport(
        lam=lam, gamma_alpha=ga, L_pair=(l1, l2), L=big_l,
        a_star=a_star, b_star=b_star, tau=tau, m=m, R=R, r=r,
        verdicts=verdicts, notes=tuple(notes), discrepancies=(),
        seed=seed, samples=samples)

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
