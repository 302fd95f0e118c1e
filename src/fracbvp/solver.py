"""Grid discretization of the fixed-point operator and the iteration schemes.

The continuous problem is equivalent to the fixed-point equation

    u(t) = int_0^inf K_1(t,s) F_1(s) ds,   v(t) = int_0^inf K_2(t,s) F_2(s) ds,

with F_i(s) = f_i(s, u(s), v(s), D^(alpha_1-1)u(s), D^(alpha_2-1)v(s)),
plus the derivative rows through the step-plus-constant kernels.  A
SolutionPair stacks the four rows at grid nodes in one (4, n) array;
IntegralOperator maps a pair to its image under the discretized
operator; the two schemes below iterate that map.

Discretization.  Writing K_1(t,s) = [t^(a-1) - (t-s)^(a-1)]/Gamma(a) for
s <= t (a = the equation's order) and t^(a-1)/Gamma(a) otherwise, the
rows reduce to four reusable pieces per equation,

    A   = int_0^inf F ds
    C   = int_0^inf G(s) F(s) ds          (G the boundary integral)
    Q_j = int_0^(t_j) F ds
    P_j = int_0^(t_j) (t_j - s)^(a-1) F ds

from which  u(t_j)  = [t_j^(a-1) A - P_j]/Gamma(a) + t_j^(a-1) C/(Gamma-Lambda)
and    D^(a-1)u(t_j) = (A - Q_j) + Gamma(a) C/(Gamma-Lambda).

The quadrature plan is fixed per grid, not adaptive, and shared by both
equations: 8-point Gauss-Legendre panels between consecutive nodes, a
geometrically graded bundle of panels on [0, t_1], and a run of
doubling panels past t_N covering the tail to beyond any representable
contribution; F is evaluated at those points alone.  P_j weighs them
by W_i (t_j - S_i)^(a-1), and on the panel touching t_j by product
weights exact for (1-x)^(a-1) P(x), deg P < 8, from closed-form moments
(Atkinson 1997), so the (t_j-s)^(a-1) kink never meets a plain panel.
A fixed plan keeps the operator a deterministic map on node arrays.
At the problem files' orders every u and du row is a sum of F values
with nonnegative coefficients (tests/test_solver.py checks each, at
both ends of the range): with nondecreasing f_i and linear
(order-preserving) interpolation of states, the discrete operator is
monotone up to rounding, which the monotone scheme's checks rely on.

Off-node states are interpolated linearly on the weighted rows.
Interpolating two ordered node arrays linearly preserves their ordering
pointwise, a property shape-preserving cubics do not share; a monotone
cubic was measured to refine at the same second order with a larger
constant.  Weighted u values take the known anchor u(0) = 0;
derivative rows extend flat on both sides.  Beyond t_N the weighted
state is frozen at its last node value (the weighted rows converge to
finite limits, and every state-dependent tail term is damped by the
integrable forcing envelopes).  The plan's points never move, so the
plan fixes each point's bracket, offset and state weights, and a build
evaluates the subtrees of f_i that depend on t alone there, once; an
apply runs np.interp's own formula on those brackets, once for both
equations, so the states are np.interp's values bit for bit.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .exprlang import compile_expr
from .fracops import FracOrder
from .kernels import KernelSet
from .problem import InapplicableError, ProblemSpec
from .quad import LOOP_TOL, _gl

__all__ = [
    "Grid", "SolutionPair", "IterationTrace", "IntegralOperator",
    "SchemeBreakError", "MonotonicityError",
    "norm_pair", "diff_norm", "monotone_solve", "contract_solve",
    "ITERATION_DEFAULTS", "GridError",
]

_ROW_NAMES = ("u_w", "du", "v_w", "dv")

# The fixed quadrature plan: a bundle of _GEO_PANELS panels on [0, t_1]
# shrinking by _GEO_RATIO towards 0, and _TAIL_DOUBLINGS doubling panels
# past t_N (to t_N 2^40).
_GEO_PANELS = 8
_GEO_RATIO = 0.25
_TAIL_DOUBLINGS = 40
# Gauss-Legendre points per panel of the plan.
_PANEL_POINTS = 8

# Scheme -> its default stopping tolerance and step cap.
ITERATION_DEFAULTS = {"monotone": (1e-5, 200), "contraction": (1e-4, 5000)}


class GridError(ValueError):
    """Grid nodes, or a quadrature plan, that floating point cannot hold."""


class SchemeBreakError(RuntimeError):
    """An iterate is not finite or (MonotonicityError) breaks the order;
    trace is the run up to a break that a step raised, else None."""

    def __init__(self, message: str, trace: IterationTrace | None = None):
        super().__init__(message)
        self.trace = trace


class MonotonicityError(SchemeBreakError):
    """An iterate broke the scheme's ordering by more than the allowed
    quadrature slack."""


@dataclass(frozen=True)
class Grid:
    """Strictly increasing nodes t_1..t_N > 0.

    Nodes are placed by t = theta * x/(1-x) with x running over the
    N-point Gauss-Legendre nodes mapped to (0,1): dense near 0 where
    t^(alpha-1) turns over, sparse in the tail.  Values at t = 0 are
    known analytically (u(0) = 0 for orders above 1) and are not stored.
    """

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 16:
            raise ValueError(f"grid needs at least 16 nodes, got {nodes.size}")
        # The cubic reconstruction of the rows (verify) divides by the
        # cube of each gap h of [0, t_1..t_N], and multiplies by it.
        with np.errstate(all="ignore"):
            h = np.diff(nodes, prepend=0.0)
            if not np.all((h > 0.0) & np.isfinite(h ** 3.0 + h ** -3.0)):
                raise GridError("grid nodes must rise from 0 by gaps h with "
                                "h^3 and 1/h^3 finite")
        nodes = nodes.copy()
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def make(cls, n: int, theta: float = 5.0) -> "Grid":
        x, _ = _gl(n)
        x01 = 0.5 * (x + 1.0)
        with np.errstate(over="ignore"):  # __post_init__ refuses inf
            return cls(nodes=theta * x01 / (1.0 - x01))

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def t_max(self) -> float:
        return float(self.nodes[-1])


@dataclass(frozen=True, eq=False)
class SolutionPair:
    """The four rows of one iterate at the grid nodes: a (4, n) `stack`
    in _ROW_NAMES order, whose rows u_w, du, v_w, dv are views.

    u_w, v_w hold the weighted values u(t)/(1+t^(alpha_1-1)) and
    v(t)/(1+t^(alpha_2-1)); du, dv hold D^(alpha_1-1)u and
    D^(alpha_2-1)v directly (those are what the sup norms see).  The
    stack, a float C-contiguous array, is not copied but made read-only.
    """

    grid: Grid
    alpha1: FracOrder
    alpha2: FracOrder
    stack: np.ndarray

    def __post_init__(self) -> None:
        if self.stack.shape != (4, self.grid.n):
            raise ValueError(f"the stack must match the grid: (4, "
                             f"{self.grid.n}), got {self.stack.shape}")
        if not np.isfinite(self.stack).all():
            raise ValueError("solution rows must be finite")
        self.stack.setflags(write=False)

    u_w = property(lambda self: self.stack[0])
    du = property(lambda self: self.stack[1])
    v_w = property(lambda self: self.stack[2])
    dv = property(lambda self: self.stack[3])

    @classmethod
    def zeros(cls, grid: Grid, alpha1: FracOrder,
              alpha2: FracOrder) -> "SolutionPair":
        return cls.constant(grid, alpha1, alpha2, 0.0)

    @classmethod
    def upper_start(cls, grid: Grid, alpha1: FracOrder, alpha2: FracOrder,
                    radius: float, gamma_alpha1: float,
                    gamma_alpha2: float) -> "SolutionPair":
        """The dominating start u_0 = R t^(alpha_1-1), v_0 = R t^(alpha_2-1),
        whose fractional derivatives are the constants Gamma(alpha_i) R."""
        w = np.stack([grid.nodes ** (a.q - 1.0) for a in (alpha1, alpha2)])
        with np.errstate(over="ignore"):  # a radius too large: refused below
            u_w, v_w = radius * w / (1.0 + w)
        du = np.full(grid.n, gamma_alpha1 * radius)
        dv = np.full(grid.n, gamma_alpha2 * radius)
        return cls(grid, alpha1, alpha2, np.array([u_w, du, v_w, dv]))

    @classmethod
    def constant(cls, grid: Grid, alpha1: FracOrder, alpha2: FracOrder,
                 value: float) -> "SolutionPair":
        """All four rows identically `value`; its norm is |value|."""
        return cls(grid, alpha1, alpha2, np.full((4, grid.n), float(value)))

    def rows(self) -> tuple[np.ndarray, ...]:
        return tuple(self.stack)

    def u(self) -> np.ndarray:
        """Unweighted u values at the nodes."""
        return self.u_w * (1.0 + self.grid.nodes ** (self.alpha1.q - 1.0))

    def v(self) -> np.ndarray:
        return self.v_w * (1.0 + self.grid.nodes ** (self.alpha2.q - 1.0))

    def to_dict(self) -> dict:
        """(t, u, v, du, dv) at the nodes as lists, unweighted values."""
        return {"t": self.grid.nodes.tolist(), "u": self.u().tolist(),
                "v": self.v().tolist(), "du": self.du.tolist(),
                "dv": self.dv.tolist()}


def norm_pair(sp: SolutionPair) -> float:
    """Discrete product norm: the largest sup over the four rows."""
    return float(np.abs(sp.stack).max())


def diff_norm(a: SolutionPair, b: SolutionPair) -> float:
    return float(np.abs(a.stack - b.stack).max())


@dataclass(kw_only=True)
class IterationTrace:
    """Per-iteration records of one scheme run, its fields in the order
    of its JSON document, which holds every field but iterates.

    iterates[0] is the starting pair; diffs[k], violations[k] and
    seconds[k] describe the step producing iterates[k+1].  The
    successive-difference norms d_n drive both stopping rules and the
    after-the-fact error-bound audit.  warnings: what the run flagged
    without stopping, never issued as Python warnings.
    """

    scheme: str
    direction: str | None = None
    tol: float
    quad_tol: float
    m: float | None = None
    converged: bool = False
    message: str = ""
    warnings: list[str] = field(default_factory=list)
    norms: list[float] = field(default_factory=list)
    diffs: list[float] = field(default_factory=list)
    violations: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    iterates: list[SolutionPair] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return len(self.diffs)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "iterates"}


# -- the discretized operator ------------------------------------------


def _product_weights(n: int, a: float) -> np.ndarray:
    """Weights on the n Gauss-Legendre points for (1-x)^a on [-1, 1], a > 0,
    exact to degree n-1: w_i sum_k (k+1/2) M_k P_k(x_i), as the rule is
    discretely orthogonal to degree 2n-1, with the closed-form Legendre
    moments M_0 = 2^(a+1)/(a+1), M_k = M_(k-1) (k-1-a)/(a+1+k)."""
    x, w = _gl(n)
    k = np.arange(1.0, n)
    m = np.cumprod([2 ** (a + 1) / (a + 1), *((k - 1 - a) / (a + 1 + k))])
    vander = np.polynomial.legendre.legvander(x, n - 1)
    return w * (vander @ ((np.arange(n) + 0.5) * m))


class _Plan:
    """The fixed quadrature plan of one problem on one grid: the points s
    and weights w that both equations read, arrays with a first axis of
    2 for what each equation's order and weight add, the widths of
    [0, t_1..t_N] and a pad past t_N (rows are flat there), and each
    point's bracket and offset in them.  Read-only: operators on equal
    kernel sets and nodes share it."""

    def __init__(self, ks1: KernelSet, ks2: KernelSet, t: np.ndarray):
        n, k, m, kss = t.size, _GEO_PANELS, _PANEL_POINTS, (ks1, ks2)
        alphas = [ks.alpha.q for ks in kss]
        # Panel boundaries: graded bundle on [0, t_1] ending exactly at
        # t_1, one panel per internode gap, doubling panels past t_N.
        geo = t[0] * _GEO_RATIO ** np.arange(k - 1, -1, -1, dtype=float)
        tail = t[-1] * 2.0 ** np.arange(1, _TAIL_DOUBLINGS + 1, dtype=float)
        bounds = np.concatenate(([0.0], geo, t[1:], tail))
        los, his = bounds[:-1], bounds[1:]
        xg, wg = _gl(m)
        half = 0.5 * (his - los)
        mid = 0.5 * (his + los)
        s = self.s = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        self.w = (half[:, None] * wg[None, :]).ravel()
        self.panel_starts = np.arange(los.size) * m
        self.widths = np.append(np.diff(t, prepend=0.0), 1.0)

        # Index bookkeeping for the cumulative pieces: panel K+j-1 is
        # [t_j, t_(j+1)] (1-based j), so everything at or beyond t_j
        # starts at that panel.
        self.first_right_panel = k + np.arange(n)
        self.n_left_points = (k + n - 1) * m

        # Refuse what floating point cannot hold before any G is tabulated
        # (s^(a-1) checks s too, as a > 1; Grid's gaps bound kmat for a <= 3).
        with np.errstate(all="ignore"):
            pows = np.stack([s ** (a - 1.0) for a in alphas])
            s_min = float(s.min())
            sigma = s_min ** np.array([ks.h.endpoint_exponent for ks in kss
                                       if ks.h is not None])
        for ok, what in ((np.isfinite(pows) & (pows > 0), "s and s^(alpha_i "
                          "- 1) finite and positive at every point s"),
                         (np.isfinite(sigma), f"each weight's s^sigma_i "
                          f"finite at the smallest point s = {s_min!r}")):
            if not np.all(ok):
                raise GridError(f"the quadrature plan needs {what}")

        # P_j weighs F by kmat: W_i (t_j - S_i)^(a-1) on the panels
        # strictly left of the panel touching t_j, panel K+j-2 (1-based
        # j), and product weights on that panel's own points: with
        # s = mid + half*x there, (t_j - s)^(a-1) = half^(a-1) (1-x)^(a-1).
        sing = np.arange(n) + k - 1
        s_left, w_left = s[:self.n_left_points], self.w[:self.n_left_points]
        mask = s_left[None, :] < los[sing, None]
        dist = np.where(mask, t[:, None] - s_left[None, :], 1.0)
        self.kmat = np.stack([np.where(mask, w_left * dist ** (a - 1.0), 0.0)
                              for a in alphas])
        for kmat, a in zip(self.kmat, alphas):  # (n, panel, point) view
            kmat.reshape(n, -1, m)[np.arange(n), sing] = \
                half[sing, None] ** a * _product_weights(m, a - 1.0)
        self.t_pow = np.stack([t ** (a - 1.0) for a in alphas])

        nodes = np.concatenate(([0.0], t))
        self.bracket = np.searchsorted(nodes, s, side="right") - 1
        self.offset = s - nodes[self.bracket]
        self.weights = 1.0 + pows
        self.gamma_alpha = tuple(ks.gamma_alpha for ks in kss)
        self.denom = tuple(ks.denom for ks in kss)
        self.g_at_s = np.stack([ks.g_many(s) for ks in kss])
        for v in vars(self).values():
            if isinstance(v, np.ndarray):
                v.setflags(write=False)

    def assemble(self, k: int,
                 vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Equation k's node rows (weighted u row, derivative row) from F
        at the plan's points s."""
        wf = self.w * vals
        psums = np.add.reduceat(wf, self.panel_starts)
        right = psums[::-1].cumsum()[::-1]
        a_total = float(right[0])
        c_total = float(np.dot(wf, self.g_at_s[k]))
        # Tail-inclusive remainder int_(t_j)^inf F, summed panel-by-panel
        # so it is exactly a nonneg-weighted sum of F values.
        remainder = right[self.first_right_panel]
        p = self.kmat[k] @ vals[:self.n_left_points]

        ga, t_pow = self.gamma_alpha[k], self.t_pow[k]
        boundary = c_total / self.denom[k]
        u = (t_pow * a_total - p) / ga + t_pow * boundary
        du = remainder + ga * boundary
        return u / (1.0 + t_pow), du


@functools.lru_cache(maxsize=1)
def _plan(ks1: KernelSet, ks2: KernelSet, nodes: bytes) -> _Plan:
    """The plan of ks1, ks2 on the grid whose nodes have these bytes, all
    a plan reads of it.  One entry: one problem on one grid."""
    return _Plan(ks1, ks2, np.frombuffer(nodes))


class IntegralOperator:
    """The discrete fixed-point operator for one problem on one grid: the
    plan from _plan, and f_1 and f_2 with their t-only subtrees bound on
    the plan's points.  The map is deterministic: same
    input pair, same output, bit for bit."""

    def __init__(self, p: ProblemSpec, ks1: KernelSet, ks2: KernelSet,
                 grid: Grid, *, interp: str = "linear"):
        # Linear only; kept because bench/sweep_worker.py passes interp=.
        if interp != "linear":
            raise ValueError(f"unknown interpolation mode {interp!r}")
        self.grid = grid
        self.quad_tol = LOOP_TOL
        self.alpha1, self.alpha2 = ks1.alpha, ks2.alpha
        self.plan = _plan(ks1, ks2, grid.nodes.tobytes())
        self.forcings = [compile_expr(f, bind={"t": self.plan.s})
                         for f in (p.f1, p.f2)]

    def apply(self, sp: SolutionPair) -> SolutionPair:
        # Rows (u_w, du, v_w, dv) on [0, t_1..t_N, pad]: weighted rows
        # take the analytic node (0, 0), derivative rows extend flat below
        # t_1, and every row extends flat past t_N (the frozen tail).
        plan = self.plan
        rows = np.empty((4, self.grid.n + 2))
        rows[:, 1:-1] = sp.stack
        rows[0::2, 0] = 0.0
        rows[1::2, 0] = rows[1::2, 1]
        rows[:, -1] = rows[:, -2]
        # A finite iterate can still overflow here; the forcings' own
        # check and SolutionPair's refuse what is not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = (rows[:, 1:] - rows[:, :-1]) / plan.widths
            # The states by np.interp's formula: slope*offset + left value.
            j = plan.bracket
            states = (slopes.take(j, axis=1) * plan.offset
                      + rows.take(j, axis=1))
            states[0::2] *= plan.weights
            u, du, v, dv = states
            out = np.empty((4, self.grid.n))
            for k, f in enumerate(self.forcings):
                out[2 * k], out[2 * k + 1] = plan.assemble(k, f(u, v, du, dv))
        return SolutionPair(self.grid, self.alpha1, self.alpha2, out)


# -- iteration schemes -------------------------------------------------


def _enforce_ordering(prev: SolutionPair, new: SolutionPair, sign: float,
                      slack: float, step: int) -> tuple[SolutionPair, int]:
    """Project `new` onto the ordering required by the scheme.

    sign +1 demands new >= prev (lower chain), -1 demands new <= prev.
    Deviations within `slack` are clipped to prev and counted; anything
    larger is a genuine ordering break and raises.  With nothing to
    clip, `new` itself comes back.
    """
    deficit = sign * (prev.stack - new.stack)
    worst = deficit.max(axis=1)
    broken = np.flatnonzero(worst > slack)
    if broken.size:
        r = int(broken[0])
        j = int(np.argmax(deficit[r]))
        raise MonotonicityError(
            f"iteration {step}: row {_ROW_NAMES[r]} breaks the chain "
            f"ordering at node {j} (t={float(prev.grid.nodes[j])!r}) by "
            f"{float(worst[r]):.3e}, beyond the quadrature slack {slack:.3e}")
    bad = deficit > 0.0
    count = int(np.count_nonzero(bad))
    if not count:
        return new, 0
    clipped = SolutionPair(prev.grid, prev.alpha1, prev.alpha2,
                           np.where(bad, prev.stack, new.stack))
    return clipped, count


def _steps(op: IntegralOperator, trace: IterationTrace, max_iter: int,
           project=lambda prev, new, step: (new, 0)):
    """Apply op up to max_iter times from trace.iterates[0], recording
    each step in trace, and yield (step, d_n) so the caller can stop.
    project(prev, new, step) returns the kept iterate and its violation
    count.  A non-finite iterate raises SchemeBreakError carrying trace."""
    sp = trace.iterates[0]
    trace.norms.append(norm_pair(sp))
    for step in range(1, max_iter + 1):
        t0 = time.perf_counter()
        try:
            new = op.apply(sp)
        except ValueError as exc:  # ExprEvalError or SolutionPair's check
            raise SchemeBreakError(f"iteration {step}: {exc}", trace) from exc
        new, nviol = project(sp, new, step)
        d = diff_norm(new, sp)
        trace.seconds.append(time.perf_counter() - t0)
        trace.diffs.append(d)
        trace.violations.append(nviol)
        trace.norms.append(norm_pair(new))
        trace.iterates.append(new)
        sp = new
        yield step, d


def monotone_solve(p: ProblemSpec, ks1: KernelSet, ks2: KernelSet,
                   grid: Grid, direction: str,
                   tol: float = ITERATION_DEFAULTS["monotone"][0],
                   max_iter: int = ITERATION_DEFAULTS["monotone"][1], *,
                   radius: float | None = None,
                   operator: IntegralOperator | None = None,
                   ) -> tuple[SolutionPair, IterationTrace]:
    """One monotone chain: isotone from zero or antitone from the
    dominating pair.

    direction "lower" starts at (0,0) and must climb; "upper" starts at
    u_0 = R t^(alpha_1-1), v_0 = R t^(alpha_2-1) (derivative rows
    Gamma(alpha_i) R; R is `radius`, the build_report(p).R value) and
    must descend.  Each step is one operator application followed by an
    ordering projection: violations within 10x the quadrature tolerance
    are treated as integration dust, larger ones abort.  Stops when the
    successive-difference norm drops to tol.  A start or an iterate that
    is not finite raises SchemeBreakError.
    """
    if direction not in ("lower", "upper"):
        raise ValueError(f"direction must be 'lower' or 'upper', "
                         f"got {direction!r}")
    if direction == "upper" and radius is None:
        raise ValueError("the upper chain needs radius=build_report(p).R")
    op = operator or IntegralOperator(p, ks1, ks2, grid)
    if direction == "lower":
        sp = SolutionPair.zeros(grid, ks1.alpha, ks2.alpha)
        sign = 1.0
    else:
        try:
            sp = SolutionPair.upper_start(grid, ks1.alpha, ks2.alpha, radius,
                                          ks1.gamma_alpha, ks2.gamma_alpha)
        except ValueError as exc:
            raise SchemeBreakError(
                f"dominating start with R={radius!r}: {exc}") from exc
        sign = -1.0
    slack = 10.0 * op.quad_tol
    trace = IterationTrace(scheme="monotone", tol=tol, quad_tol=op.quad_tol,
                           direction=direction, iterates=[sp])
    for step, d in _steps(op, trace, max_iter, lambda prev, new, step:
                          _enforce_ordering(prev, new, sign, slack, step)):
        if d <= tol:
            trace.converged = True
            trace.message = f"difference norm {d:.3e} <= tol after {step} steps"
            break
    else:
        trace.message = (f"not converged in {max_iter} steps; "
                         f"last difference norm {trace.diffs[-1]:.3e}")
    return trace.iterates[-1], trace


def contract_solve(p: ProblemSpec, ks1: KernelSet, ks2: KernelSet,
                   grid: Grid, initial: SolutionPair | None = None,
                   tol: float = ITERATION_DEFAULTS["contraction"][0],
                   max_iter: int = ITERATION_DEFAULTS["contraction"][1], *,
                   m: float, operator: IntegralOperator | None = None,
                   ) -> tuple[SolutionPair, IterationTrace]:
    """Picard iteration under the contraction guarantee, with the
    modulus m that build_report derives.

    Stops when the a-posteriori bound d_n m/(1-m) for the distance to
    the fixed point falls to tol, so the returned pair is within tol of
    the discrete fixed point whenever the modulus m really bounds the
    operator's Lipschitz constant.  Ratios d_(n+1)/d_n above m + 0.05
    for 3 consecutive steps are recorded once in trace.warnings instead
    of aborting the run: they signal a wrong m or quadrature noise, both
    worth surfacing, neither provably fatal.  An iterate that is not
    finite, which no contraction yields, raises SchemeBreakError.
    """
    if not m < 1.0:
        raise InapplicableError(
            f"contraction modulus m={m:.6g} is not below 1")
    op = operator or IntegralOperator(p, ks1, ks2, grid)
    sp = initial if initial is not None \
        else SolutionPair.zeros(grid, ks1.alpha, ks2.alpha)
    gain = m / (1.0 - m)
    trace = IterationTrace(scheme="contraction", tol=tol,
                           quad_tol=op.quad_tol, m=m, iterates=[sp])
    for step, d in _steps(op, trace, max_iter):
        # Every d_n but the last is positive, or the run would have ended.
        last = trace.diffs[-4:]
        if not trace.warnings and len(last) == 4 \
                and all(b / a > m + 0.05 for a, b in zip(last, last[1:])):
            trace.warnings.append(
                f"difference ratios exceeded m + 0.05 = {m + 0.05:.4f} "
                f"for 3 consecutive steps (latest {d / last[-2]:.4f}); the "
                f"contraction modulus may not bound this operator")
        if d * gain <= tol:
            trace.converged = True
            trace.message = (f"a-posteriori bound d_n*m/(1-m) = "
                             f"{d * gain:.3e} <= tol after {step} steps")
            break
    else:
        trace.message = (f"not converged in {max_iter} steps; last bound "
                         f"{trace.diffs[-1] * gain:.3e}")
    return trace.iterates[-1], trace
