"""After-the-fact checks on computed solution pairs.

Nothing here feeds back into the iterations; every function takes
finished artifacts (a solution pair, an iteration trace) and measures how
well they satisfy what the schemes promise: fixed-point consistency, the
integral boundary conditions, the differential equations at spot-check
points, the chain ordering of the monotone scheme, and the geometric
error bound of the contraction scheme.  Results are plain numbers and
small records; callers pick their own thresholds.

Solution rows are reconstructed off the grid through the slowly varying
factor psi(t) = u(t)/t^(alpha-1), interpolated by a shape-preserving
cubic and anchored at its analytic limit psi(0) = D^(alpha-1)u(0)/
Gamma(alpha).  That keeps the t^(alpha-1) turnover exact instead of
asking a polynomial to chase it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .fracops import FracOrder, gamma, rl_derivative
from .problem import ProblemSpec, integrate_each
from .quad import Integrand, QuadratureError
from .solver import (IntegralOperator, IterationTrace, SolutionPair,
                     _ROW_NAMES, diff_norm)

__all__ = [
    "AuditResult", "VerificationReport", "fixed_point_residual",
    "boundary_residual", "ode_residual_spotcheck", "ordering_audit",
    "error_bound_audit", "verify_pair",
]


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one bound audit.

    worst_excess is the largest violation found after subtracting the
    allowed slack, so ok is exactly worst_excess <= 0; negative values
    say how much margin the worst comparison still had.
    """

    name: str
    ok: bool
    worst_excess: float
    checked: int
    slack: float
    message: str


@dataclass
class VerificationReport:
    """Bundle of the measurements run on one returned solution."""

    fixed_point_residual: float
    bc_residual_1: float
    bc_residual_2: float
    ode_residuals: list[dict] = field(default_factory=list)
    ordering: AuditResult | None = None
    error_bound: AuditResult | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field, the audits as nested dicts, in field order."""
        return asdict(self)


# -- row reconstruction -------------------------------------------------


def _flat_pchip(xp: np.ndarray, fp: np.ndarray):
    """Monotone cubic through three or more points (xp, fp), extended
    flat on both ends by the first and last rows of its table: scipy's
    PchipInterpolator bit for bit, slopes (Fritsch-Carlson), coefficients
    and evaluation order c3 + c2 z + c1 z^2 + c0 z^3 alike.  A row that
    decays to subnormal values overflows the slope weights to inf, and
    the slope becomes 0, the right limit, without a warning."""
    h, d, i, j = np.diff(xp), np.empty(fp.size), [0, -1], [1, -2]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m = np.diff(fp) / h
        sm, w1, w2 = np.sign(m), 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        d[1:-1] = np.where(flat, 0.0,
                           1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        e = ((2 * h[i] + h[j]) * m[i] - h[i] * m[j]) / (h[i] + h[j])
        big = (sm[i] != sm[j]) & (abs(e) > 3 * abs(m[i]))
        d[i] = np.where(np.sign(e) != sm[i], 0.0, np.where(big, 3 * m[i], e))
        t = (d[:-1] + d[1:] - 2 * m) / h
        tab = np.zeros((5, fp.size + 1))
        tab[:, 1:-1] = (t / h, (m - d[:-1]) / h - t, d[:-1], fp[:-1], xp[:-1])
    tab[3:, i] = fp[i], xp[i]

    def fn(s: np.ndarray) -> np.ndarray:
        k = np.searchsorted(xp, s, side="right")
        c0, c1, c2, c3, x0 = tab.take(k, axis=1)
        z = np.minimum(s, xp[-1]) - x0
        return c3 + c2 * z + c1 * (z * z) + c0 * (z * z * z)

    return fn


def _psi_interpolant(grid_nodes: np.ndarray, row_w: np.ndarray,
                     row_d: np.ndarray, alpha: FracOrder):
    """Callable u(s) on [0, inf) from the weighted row of one equation.

    psi = u/t^(alpha-1) is interpolated over the nodes with the anchor
    psi(0) = D^(alpha-1)u(0)/Gamma(alpha) (the derivative row's own limit
    at 0, correct to O(t_1)); beyond the last node psi is frozen, which
    keeps the t^(alpha-1) growth and drops only the lower-order part.
    """
    a = alpha.q
    psi_nodes = row_w * (1.0 + grid_nodes ** (a - 1.0)) \
        / grid_nodes ** (a - 1.0)
    psi = _flat_pchip(np.concatenate(([0.0], grid_nodes)),
                      np.concatenate(([row_d[0] / gamma(a)], psi_nodes)))
    return lambda s: np.asarray(s, dtype=float) ** (a - 1.0) * psi(s)


# -- residual measurements ----------------------------------------------

_SPOT_POINTS = (0.5, 1.0, 2.0)
# Refinement tolerance of the spot-check derivative and the quadrature
# tolerance inside it; quadrature tolerance of the boundary integrals.
_SPOT_TOL = 1e-5
_SPOT_QUAD_TOL = 1e-9
_BC_TOL = 1e-7


def fixed_point_residual(op: IntegralOperator, sp: SolutionPair) -> float:
    """Distance (in the product sup norm) between sp and its image."""
    return diff_norm(sp, op.apply(sp))


def _bc_integrand(h: Integrand, alpha: FracOrder, grid_nodes: np.ndarray,
                  row_w: np.ndarray, row_d: np.ndarray) -> Integrand:
    """h(s) u(s), u reconstructed from the rows, with h's kinks and the
    grid nodes declared as kinks."""
    u_fn = _psi_interpolant(grid_nodes, row_w, row_d, alpha)
    return replace(h, fn=lambda s: np.asarray(h.fn(s)) * u_fn(s),
                   kinks=tuple(sorted({*h.kinks, *map(float, grid_nodes)})),
                   endpoint_exponent=h.endpoint_exponent + (alpha.q - 1.0))


def boundary_residual(p: ProblemSpec,
                      sp: SolutionPair) -> tuple[float, float]:
    """How far each derivative row's value at t_N sits from the boundary
    integral of the reconstructed solution.

    The derivative rows carry the boundary constant through the kernel
    route; the integral here recomputes it from the solution values and
    the weight h directly, so agreement checks the two routes against
    each other.  Both equations' integrals are the jobs of one batch.
    An equation without a weight h has the condition
    D^(alpha-1)u(inf) = 0, and its residual is |D^(alpha-1)u(t_N)|.
    Returns the pair of absolute residuals.
    """
    t = sp.grid.nodes
    rows = ((p.h1, sp.alpha1, sp.u_w, sp.du), (p.h2, sp.alpha2, sp.v_w, sp.dv))
    values = iter(integrate_each([
        (f"boundary integral (alpha={a.q})", _bc_integrand(h, a, t, w, d))
        for h, a, w, d in rows if h is not None], _BC_TOL))
    r1, r2 = (abs(float(d[-1])) if h is None
              else abs(float(d[-1]) - next(values)) for h, _, _, d in rows)
    return r1, r2


def ode_residual_spotcheck(p: ProblemSpec, sp: SolutionPair,
                           points: tuple[float, ...] = _SPOT_POINTS,
                           ) -> list[dict]:
    """Residual |D^alpha u + f(t, states)| at a few interior points.

    The fractional derivative is taken numerically from the rows, apart
    from the solver's quadrature plan: one rl_derivative (one quadrature
    batch over every point) per equation, the grid nodes declared as
    kinks.  Entries run point by point, equation 1 then 2.
    Differentiating an interpolant three times is noise-amplifying, so
    each entry carries the refinement's own error estimate and a
    low_confidence flag when that estimate is not small against the
    value; treat flagged entries as order-of-magnitude checks only.
    An entry below t_1 is flagged too, with a note naming t_1: there the
    rows hold only the anchor at 0 and the first node.
    """
    t_nodes = sp.grid.nodes
    for t_star in points:
        if not 0.0 < t_star < float(t_nodes[-1]):
            raise ValueError(f"spot-check point {t_star} is outside "
                             f"(0, {t_nodes[-1]})")
    kinks = tuple(t_nodes.tolist())
    u_fn = _psi_interpolant(t_nodes, sp.u_w, sp.du, sp.alpha1)
    v_fn = _psi_interpolant(t_nodes, sp.v_w, sp.dv, sp.alpha2)
    du_fn, dv_fn = _flat_pchip(t_nodes, sp.du), _flat_pchip(t_nodes, sp.dv)
    rows = ((1, u_fn, p.f_compiled[0], sp.alpha1),
            (2, v_fn, p.f_compiled[1], sp.alpha2))
    derivs = [rl_derivative(row_fn, alpha.q, points, tol=_SPOT_TOL,
                            kinks=kinks, g_exponent=alpha.q - 1.0,
                            quad_tol=_SPOT_QUAD_TOL)
              for _, row_fn, _, alpha in rows]
    below = f"t lies below the first grid node t_1 = {float(t_nodes[0])!r}"
    out: list[dict] = []
    for i, t_star in enumerate(points):
        states = (float(u_fn(t_star)), float(v_fn(t_star)),
                  float(du_fn(t_star)), float(dv_fn(t_star)))
        for (eq, _, f, _), got in zip(rows, (d[i] for d in derivs)):
            forcing = float(f(t_star, *states))
            entry = {"equation": eq, "t": t_star, "forcing": forcing}
            if isinstance(got, QuadratureError):
                entry.update(derivative=math.nan, residual=math.nan,
                             error_estimate=math.inf, low_confidence=True,
                             note=str(got))
            else:
                val, est = got
                entry.update(derivative=val, residual=abs(val + forcing),
                             error_estimate=est, low_confidence=bool(
                                 est > _SPOT_TOL * (1.0 + abs(val))))
            if t_star < t_nodes[0]:
                entry["low_confidence"] = True
                entry.setdefault("note", below)
            out.append(entry)
    return out


# -- scheme audits ------------------------------------------------------


def _stack(trace: IterationTrace) -> np.ndarray:
    return np.stack([it.stack for it in trace.iterates])


def ordering_audit(lower: IterationTrace,
                   upper: IterationTrace) -> AuditResult:
    """Re-check the full interleaved chain from the stored iterates.

    Three families of comparisons, every iteration, node and row: the
    lower chain never descends, the upper chain never ascends, and no
    lower iterate ever exceeds any upper iterate.  The cross-chain
    family covers all pairs at once through a per-node max/min, and its
    message names the lower and upper iterates (0 is a chain's start)
    that attain them.  The slack is 10x the larger quadrature tolerance,
    the same dust allowance the schemes themselves use.
    """
    if lower.direction != "lower" or upper.direction != "upper":
        raise ValueError(
            f"need one lower and one upper trace, got directions "
            f"{lower.direction!r} and {upper.direction!r}")
    slack = 10.0 * max(lower.quad_tol, upper.quad_tol)
    lo, up = _stack(lower), _stack(upper)
    climbs = lo[:-1] - lo[1:]       # positive entry = lower chain dropped
    descents = up[1:] - up[:-1]     # positive entry = upper chain rose
    cross = lo.max(axis=0) - up.min(axis=0)
    candidates = (
        ("lower chain step", climbs.max(initial=-math.inf), climbs),
        ("upper chain step", descents.max(initial=-math.inf), descents),
        ("cross-chain gap", cross.max(), cross[None, ...]),
    )
    kind, worst, arr = max(candidates, key=lambda c: c[1])
    k, r, j = np.unravel_index(int(np.argmax(arr)), arr.shape)
    where = (f"{kind} between lower iterate {int(lo[:, r, j].argmax())} "
             f"and upper iterate {int(up[:, r, j].argmin())}"
             if kind == "cross-chain gap" else f"{kind} {k + 1}")
    t = float(lower.iterates[0].grid.nodes[j])
    checked = climbs.size + descents.size \
        + lo.shape[0] * up.shape[0] * cross.size
    worst = float(worst)
    ok = worst <= slack
    state = "holds" if ok else "broken"
    message = (f"ordering {state}; tightest at {where}, row "
               f"{_ROW_NAMES[r]}, node {j} (t={t:.6g}): excess "
               f"{worst - slack:.3e}")
    return AuditResult("ordering", ok, float(worst - slack), checked,
                       slack, message)


def error_bound_audit(trace: IterationTrace, *,
                      m: float | None = None) -> AuditResult:
    """Check every pair of iterates against the geometric error bound.

    With d_1 the first difference norm, iterates n < j must lie within
    m^n (1 - m^(j-n))/(1-m) d_1 of each other, plus 10x the quadrature
    tolerance scaled by the largest iterate norm.  The bound of iterate
    n against the fixed point, m^n/(1-m) d_1, follows from the pair
    (n, K) with the final iterate K and K's own a-posteriori bound
    d_K m/(1-m), which the stopping rule asserts.  A run of one step has
    no pair: nothing is compared, and the audit holds.
    """
    if trace.scheme != "contraction":
        raise ValueError(f"error_bound_audit needs a contraction trace, "
                         f"got scheme {trace.scheme!r}")
    if m is None:
        m = trace.m
    if m is None or not 0.0 <= m < 1.0:
        raise ValueError(f"need a contraction modulus in [0, 1), got {m}")
    if trace.n_steps == 0:
        raise ValueError("trace records no iterations")
    slack = 10.0 * trace.quad_tol * (1.0 + max(trace.norms))
    st = _stack(trace)
    d1 = trace.diffs[0]
    gain = 1.0 / (1.0 - m)

    # As in a scan of the comparisons, the first largest excess wins.
    pw = np.array([m ** n for n in range(len(st))])
    worst, checked, where = -math.inf, 0, ""
    for n in range(1, len(st) - 1):
        excess = np.abs(st[n + 1:] - st[n]).max(axis=(1, 2)) \
            - (pw[n] * (1.0 - pw[1:len(st) - n]) * gain * d1 + slack)
        checked += excess.size
        if excess.max() > worst:
            j = int(excess.argmax())
            worst, where = float(excess[j]), f"iterates {n} and {n + 1 + j}"
    ok = worst <= 0.0
    message = (f"geometric bound {'holds' if ok else 'broken'} over "
               f"{checked} comparisons; " + (
                   f"tightest at {where}: excess {worst:.3e}" if checked
                   else "one step leaves no pair of iterates to compare"))
    return AuditResult("error_bound", ok, worst, checked, slack, message)


def verify_pair(p: ProblemSpec, sp: SolutionPair,
                operator: IntegralOperator) -> VerificationReport:
    """Run the scheme-independent measurements on one returned pair.

    The scheme audits need iteration traces and are attached by the
    caller afterwards (see ordering_audit and error_bound_audit).  The
    ODE spot check runs at those of its points that lie below t_N.
    """
    r1, r2 = boundary_residual(p, sp)
    points = tuple(t for t in _SPOT_POINTS if t < sp.grid.t_max)
    return VerificationReport(
        fixed_point_residual=fixed_point_residual(operator, sp),
        bc_residual_1=r1,
        bc_residual_2=r2,
        ode_residuals=ode_residual_spotcheck(p, sp, points),
        details={"grid_n": sp.grid.n, "t_max": sp.grid.t_max,
                 "spot_points": list(points)},
    )
