"""Code outside the package that drives it: the benchmark's tracer and
README's library example.  Each runs in a fresh interpreter, as it does
in use, so a rename under src/ that breaks it fails here."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import fracbvp
from fracbvp.cli import main

_REPO = Path(__file__).resolve().parent.parent
# The directory holding the fracbvp package the suite itself imports.
_ROOT = str(Path(fracbvp.__file__).resolve().parent.parent)


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (_ROOT, os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           *args], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path})


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
