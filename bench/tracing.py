"""Spans around fracbvp's public functions, installed from outside.

`install` replaces public names in the fracbvp modules with timing
wrappers; nothing under src/ is edited.  Each wrapper records a span
(name, start, end, parent) on one stack, so a span's self time is its
duration minus that of its direct children, and the self times of all
spans of an operation add up to the time its top-level spans cover.

Wrapped names, with the span they record:

- integrate_halfline / integrate_finite as bound in kernels, problem,
  verify and fracops -> "quad.<module>", counting calls and
  QuadResult.evaluations per calling module;
- KernelSet.g_many -> "kernels.g" (points asked, half-line quadratures
  run beneath it, per equation order);
- compute_lambda -> "kernels.lambda";
- IntegralOperator.__init__ -> "solver.build", IntegralOperator.apply ->
  "solver.apply", monotone_solve / contract_solve -> "solver.iterate";
- the forcing closures returned by solver.compile_expr -> "exprlang.eval"
  (points evaluated);
- build_report -> "problem.report", check_h4 -> "problem.h4",
  load_problem -> "cli.load";
- verify_pair -> "verify.pair", boundary_residual -> "verify.bc",
  fixed_point_residual -> "verify.fp", ode_residual_spotcheck ->
  "verify.ode", rl_derivative -> "fracops.rl_derivative", ordering_audit /
  error_bound_audit -> "verify.audit".

This module imports nothing from fracbvp at load time, so a traced
process can time the package import itself.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

QUAD_CALLERS = ("kernels", "problem", "verify", "fracops")

# (defining module, attribute, span name); the wrapper replaces the name
# in every fracbvp module that binds the same object.
_FUNCTIONS = (
    ("kernels", "compute_lambda", "kernels.lambda"),
    ("problem", "build_report", "problem.report"),
    ("problem", "check_h4", "problem.h4"),
    ("cli", "load_problem", "cli.load"),
    ("solver", "monotone_solve", "solver.iterate"),
    ("solver", "contract_solve", "solver.iterate"),
    ("verify", "verify_pair", "verify.pair"),
    ("verify", "boundary_residual", "verify.bc"),
    ("verify", "fixed_point_residual", "verify.fp"),
    ("verify", "ode_residual_spotcheck", "verify.ode"),
    ("fracops", "rl_derivative", "fracops.rl_derivative"),
    ("verify", "ordering_audit", "verify.audit"),
    ("verify", "error_bound_audit", "verify.audit"),
)

_MODULES = ("exprlang", "fracops", "quad", "kernels", "problem", "solver",
            "verify", "cli")


class Tracer:
    """Span stack plus exact counters for one process."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, label].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        # Per equation order: G points asked and quadratures run.
        self.g_counts: dict[str, dict[str, int]] = defaultdict(
            lambda: {"points": 0, "quad_calls": 0})

    def reset(self) -> None:
        """Forget spans and counters; the installed wrappers stay."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.g_counts.clear()

    def call(self, name: str, fn, *args, label=None, **kwargs):
        rec = [name, time.perf_counter(), None,
               self.stack[-1] if self.stack else -1, label]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def summary(self) -> dict:
        """Self and inclusive seconds per span name, plus the counters.

        Inclusive time skips spans nested in a span of the same name, so
        it never counts an interval twice.  "kernels.g@solver.build" is
        the G tabulation done while building an operator.
        """
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            name, start, end, parent, label = rec
            dur = end - start
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            ancestors = set()
            p = parent
            while p >= 0:
                ancestors.add(self.spans[p][0])
                p = self.spans[p][3]
            calls[name] += 1
            if name not in ancestors:
                incl_s[name] += dur
            if name == "kernels.g" and "solver.build" in ancestors:
                incl_s["kernels.g@solver.build"] += dur
        return {"self_s": dict(self_s), "incl_s": dict(incl_s),
                "calls": dict(calls), "counts": dict(self.counts),
                "g_by_alpha": {k: dict(v) for k, v in self.g_counts.items()}}


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public names listed in the module docstring."""
    mods = {m: importlib.import_module(f"fracbvp.{m}") for m in _MODULES}
    everywhere = [importlib.import_module("fracbvp"), *mods.values()]
    counts = tracer.counts

    for caller in QUAD_CALLERS:
        mod = mods[caller]
        for attr in ("integrate_halfline", "integrate_finite"):
            if hasattr(mod, attr):
                setattr(mod, attr, _quad_wrapper(tracer, caller,
                                                 getattr(mod, attr)))

    for home, attr, name in _FUNCTIONS:
        orig = getattr(mods[home], attr)
        wrapper = _wrap(tracer, name, orig)
        for mod in everywhere:
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)

    kernel_set = mods["kernels"].KernelSet
    g_many = kernel_set.g_many

    @functools.wraps(g_many)
    def traced_g_many(self, s):
        label = repr(self.alpha.q)
        tracer.g_counts[label]["points"] += getattr(s, "size", 1)
        counts["kernels.g_points"] += getattr(s, "size", 1)
        return tracer.call("kernels.g", g_many, self, s, label=label)

    kernel_set.g_many = traced_g_many

    operator = mods["solver"].IntegralOperator
    operator.__init__ = _wrap(tracer, "solver.build", operator.__init__)
    operator.apply = _wrap(tracer, "solver.apply", operator.apply)

    solver = mods["solver"]
    compile_expr = solver.compile_expr

    @functools.wraps(compile_expr)
    def traced_compile(*args, **kwargs):
        fn = compile_expr(*args, **kwargs)

        def traced_eval(*xs):
            counts["exprlang.eval_points"] += getattr(xs[0], "size", 1)
            return tracer.call("exprlang.eval", fn, *xs)

        traced_eval.source = getattr(fn, "source", None)
        return traced_eval

    solver.compile_expr = traced_compile


def _quad_wrapper(tracer: Tracer, caller: str, fn):
    counts = tracer.counts
    name = f"quad.{caller}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        under_g = tracer.parent_name() == "kernels.g"
        res = tracer.call(name, fn, *args, **kwargs)
        counts[f"quad.calls.{caller}"] += 1
        counts[f"quad.evals.{caller}"] += res.evaluations
        if under_g:
            counts["kernels.g_quad_calls"] += 1
            label = tracer.spans[tracer.stack[-1]][4]
            tracer.g_counts[label]["quad_calls"] += 1
        return res
    return wrapper
