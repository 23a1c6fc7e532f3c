"""Traced stand-in for ``python3 -m splinehankel.cli``.

Usage: python3 perfbench/cli_launcher.py TRACE_JSON -- transform [CLI ARGS...]

Times the import of the CLI, installs the tracer's wrappers, runs
``splinehankel.cli.main(argv)`` as one request, writes the per-layer totals
and spans to TRACE_JSON and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from tracer import Tracer


def main(argv: list[str]) -> int:
    out, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: cli_launcher.py TRACE_JSON -- CLI ARGS...")
    t0 = perf_counter()
    import splinehankel.cli as cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    snapshot = tracer.begin(0)
    code = tracer.run("cli.main", cli.main, cli_argv)
    layers = tracer.end(snapshot)
    with open(out, "w") as fh:
        json.dump({"import_s": import_s, "layers": layers, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
