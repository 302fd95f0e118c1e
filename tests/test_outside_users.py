"""Code outside the package that drives it: the benchmark's tracer and
sweep worker, and README's library example.  Each runs in a fresh
interpreter, as it does in use, so a rename under src/ that breaks it
fails here."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fracbvp
from fracbvp.cli import main

_REPO = Path(__file__).resolve().parent.parent
# The directory holding the fracbvp package the suite itself imports.
_ROOT = str(Path(fracbvp.__file__).resolve().parent.parent)


def _python(*args: str, stdin: str | None = None
            ) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (_ROOT, os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           *args], input=stdin, capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})


def _drop_seconds(o):
    if isinstance(o, dict):
        return {k: _drop_seconds(v) for k, v in o.items() if k != "seconds"}
    return [_drop_seconds(v) for v in o] if isinstance(o, list) else o


_TRACED_ARGV = (["solve", "sublinear", "--grid-n", "16", "--json"],
                ["solve", "lipschitz", "--grid-n", "16", "--json"],
                ["check", "sublinear", "--json"])


def test_the_bench_tracer_installs_and_changes_no_output(capsys):
    # bench/tracing.py finds what it wraps by name; span names are the
    # benchmark's to choose, so only their presence is checked.
    run = _python("-c", f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(_REPO / "bench")!r})
from tracing import Tracer, install
from fracbvp.cli import main
tracer = Tracer()
install(tracer)
runs = []
for argv in {list(_TRACED_ARGV)!r}:
    tracer.reset()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    runs.append([code, out.getvalue(), len(tracer.summary()["calls"])])
print(json.dumps(runs))
""")
    assert run.returncode == 0, run.stderr
    for argv, (code, out, span_names) in zip(_TRACED_ARGV,
                                              json.loads(run.stdout)):
        assert main(argv) == code, argv
        untraced = capsys.readouterr().out
        assert _drop_seconds(json.loads(out)) == \
            _drop_seconds(json.loads(untraced)), argv
        assert span_names > 0, argv


def _bench_problems():
    """bench/problems.py, which builds the benchmark's problem texts."""
    spec = importlib.util.spec_from_file_location(
        "bench_problems", _REPO / "bench" / "problems.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trace", ["0", "1"])
def test_the_sweep_worker_solves_as_the_cli_does(tmp_path, capsys, trace):
    # bench/sweep_worker.py reads LoadedProblem.sections and
    # SolverConfig.interp, and passes interp= and operator=.  Set-up on
    # sublinear, then a 2.0x variant of each packaged problem: each reply
    # holds the rows that solve --json prints for the same text.
    bp = _bench_problems()
    texts = {name: bp.variant_text(bp.packaged_text(_REPO, name), 2.0)
             for name in bp.PACKAGED}
    requests = [{"setup": bp.packaged_text(_REPO, "sublinear")}]
    requests += [{"text": text} for text in texts.values()]
    run = _python(str(_REPO / "bench" / "sweep_worker.py"), trace,
                  stdin="".join(json.dumps(r) + "\n" for r in requests))
    assert run.returncode == 0, run.stderr
    ready, *replies = map(json.loads, run.stdout.splitlines())
    assert ready.get("ready") is True, ready
    assert len(replies) == len(texts)
    for (name, text), reply in zip(texts.items(), replies):
        assert reply["ok"] and reply["converged"] and reply["audit_ok"], \
            reply.get("error")
        path = tmp_path / f"{name}.prob"
        path.write_text(text)
        assert main(["solve", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = {key: doc[key]["solution"] for key in ("lower", "upper")} \
            if doc["scheme"] == "monotone" else {"solution": doc["solution"]}
        assert reply["solutions"] == rows, name


def test_readme_library_example_runs():
    readme = (_REPO / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme,
                      re.DOTALL)
    assert block, "README has no library example"
    run = _python("-c", block[1])
    assert run.returncode == 0, run.stderr
    audit, residual, u = run.stdout.splitlines()
    assert audit.startswith("ordering holds;"), audit
    assert float(residual) < 1e-3
    assert u.startswith("[") and len(u.strip("[]").split()) == 5
