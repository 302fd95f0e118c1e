"""Traced `fracbvp` command for the benchmark's traced runs.

    python3 bench/cli_child.py SUMMARY.json <fracbvp arguments...>

Times `import fracbvp.cli`, installs the wrappers of tracing.py, runs
fracbvp.cli.main on the arguments and exits with its code, as the
`fracbvp` entry point does.  The span summary goes to SUMMARY.json even
when main raises.
"""

from __future__ import annotations

import importlib
import json
import sys

from tracing import Tracer, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        cli = tracer.call("import", importlib.import_module, "fracbvp.cli")
        install(tracer)
        return tracer.call("cli.main", cli.main, argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
