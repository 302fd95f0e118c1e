"""In-process library worker for the benchmark's sweep workload.

    python3 bench/sweep_worker.py TRACE      (TRACE is 0 or 1)

Runs with the repository's src/ on PYTHONPATH and talks JSON lines over
stdin/stdout, one request and one reply at a time:

- the first request {"setup": <problem text>} imports the package and
  builds the shared state from that problem: both KernelSets, the grid
  and a first IntegralOperator (which tabulates G).  Reply {"ready": true}.
- every later request {"text": <problem text>} runs one variant through
  load_problem, build_report, IntegralOperator, its scheme, verify_pair
  and the scheme's audit, reusing the shared kernels and grid when the
  variant's orders, boundary weights and grid match the setup problem.
  Reply: {"ok": true, ...rows and checks...} or {"ok": false, "error": ...}.

With TRACE=1 each reply carries the span summary of tracing.py for that
request.  The worker exits at end of input.
"""

from __future__ import annotations

import importlib
import json
import sys
import traceback

from tracing import Tracer, install


def solution_doc(sp) -> dict:
    return {"t": sp.grid.nodes.tolist(), "u": sp.u().tolist(),
            "v": sp.v().tolist(), "du": sp.du.tolist(),
            "dv": sp.dv.tolist()}


class Sweep:
    """The worker's state: the package, shared kernels and grid, tracer."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.shared = None

    def _import(self):
        fb = importlib.import_module("fracbvp")
        if self.tracer is not None:
            install(self.tracer)
        return fb

    def setup(self, text: str) -> dict:
        fb = self.call("import", self._import)
        self.fb = fb
        lp = fb.cli.load_problem(text)
        ks1 = fb.kernels.KernelSet.build(lp.spec.alpha1, lp.spec.h1)
        ks2 = fb.kernels.KernelSet.build(lp.spec.alpha2, lp.spec.h2)
        grid = fb.solver.Grid.make(lp.solver.n, lp.solver.theta)
        fb.solver.IntegralOperator(lp.spec, ks1, ks2, grid,
                                   interp=lp.solver.interp)
        self.shared = (self._key(lp), ks1, ks2, grid)
        return {"ready": True}

    @staticmethod
    def _key(lp) -> str:
        return json.dumps([lp.sections.get("orders"),
                           lp.sections.get("boundary"),
                           lp.solver.n, lp.solver.theta], sort_keys=True)

    def call(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def solve(self, text: str) -> dict:
        fb = self.fb
        lp = fb.cli.load_problem(text)
        spec, cfg = lp.spec, lp.solver
        key, ks1, ks2, grid = self.shared
        if self._key(lp) != key:
            ks1 = fb.kernels.KernelSet.build(spec.alpha1, spec.h1)
            ks2 = fb.kernels.KernelSet.build(spec.alpha2, spec.h2)
            grid = fb.solver.Grid.make(cfg.n, cfg.theta)
        report = fb.problem.build_report(spec, expected=lp.expected)
        if not report.passed:
            return {"ok": False, "error": "hypotheses fail"}
        if cfg.scheme not in ("monotone", "contraction"):
            raise ValueError("sweep variants must name their scheme")
        monotone = cfg.scheme == "monotone"
        tol = cfg.tol if cfg.tol is not None else (1e-5 if monotone
                                                   else 1e-4)
        max_iter = cfg.max_iter if cfg.max_iter is not None \
            else (200 if monotone else 5000)
        op = fb.solver.IntegralOperator(spec, ks1, ks2, grid,
                                        interp=cfg.interp)
        if monotone:
            chains = {
                d: fb.solver.monotone_solve(spec, ks1, ks2, grid, d,
                                            tol=tol, max_iter=max_iter,
                                            radius=report.R, operator=op)
                for d in ("lower", "upper")}
            ver = fb.verify.verify_pair(spec, chains["lower"][0], op)
            audit = fb.verify.ordering_audit(chains["lower"][1],
                                             chains["upper"][1])
        else:
            sp, tr = fb.solver.contract_solve(spec, ks1, ks2, grid, tol=tol,
                                              max_iter=max_iter, m=report.m,
                                              operator=op)
            chains = {"solution": (sp, tr)}
            ver = fb.verify.verify_pair(spec, sp, op)
            audit = fb.verify.error_bound_audit(tr)
        return {
            "ok": True, "scheme": cfg.scheme, "tol": tol,
            "converged": all(tr.converged for _, tr in chains.values()),
            "audit_ok": audit.ok,
            "bc_residuals": [ver.bc_residual_1, ver.bc_residual_2],
            "solutions": {k: solution_doc(sp)
                          for k, (sp, _) in chains.items()},
        }


def main() -> int:
    tracer = Tracer() if sys.argv[1] == "1" else None
    sweep = Sweep(tracer)
    for line in sys.stdin:
        req = json.loads(line)
        if tracer is not None:
            tracer.reset()
        try:
            if "setup" in req:
                reply = sweep.call("sweep.setup", sweep.setup, req["setup"])
            else:
                reply = sweep.call("sweep.op", sweep.solve, req["text"])
        except Exception as exc:  # report the failure, keep serving
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                     "traceback": traceback.format_exc()}
        if tracer is not None:
            reply["trace"] = tracer.summary()
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
