"""One process of an in-process workload (``api_many_f``, ``api_lowfreq_series``).

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE OUT_JSON BUDGET_S [BLOCK ...]

Imports the program, runs the workload's warm-up request (together, one
set-up sample), then the timed requests of each BLOCK in order; with no
BLOCK it only sets up.  It starts no request once BUDGET_S seconds have
passed since it began.  The import path must already reach the program
(``PYTHONPATH=src``).  Results, with output values as exact floats, go to
OUT_JSON.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import workloads
from tracer import Tracer

WARMUP_ID = -1


def request_id(block: int, pos: int) -> int:
    """Span request id of a timed request, unique across the processes of a run."""
    return 1000 * block + pos


def _request(sh, req: dict):
    f = workloads.function_spec(req["f"])
    grid = workloads.p_grid(req)
    t0 = perf_counter()
    res = sh.transform(sh.TransformRequest(f, req["nu"], req["m"], req["R"], req["J"], grid))
    values = [float(v) for v in res.values]
    return perf_counter() - t0, values


def _record(sh, req, tracer, rid):
    snapshot = tracer.begin(rid) if tracer else None
    rec = {"error": None, "values": None}
    try:
        rec["seconds"], rec["values"] = _request(sh, req)
    except Exception as exc:  # a failed request is counted, the run goes on
        rec["seconds"] = None
        rec["error"] = f"{type(exc).__name__}: {exc}"
    if tracer:
        rec["layers"] = tracer.end(snapshot)
    return rec


def main(argv: list[str]) -> int:
    workload, seed, trace, out, budget, *blocks = argv
    seed, trace = int(seed), trace == "1"
    t0 = perf_counter()
    stop_at = t0 + float(budget)
    import splinehankel as sh

    import_s = perf_counter() - t0
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    warm = _record(sh, workloads.warmup(workload, seed), tracer, WARMUP_ID)
    result = {"import_s": import_s, "setup_s": perf_counter() - t0, "warmup": warm, "requests": []}
    for b in map(int, blocks):
        for pos, req in enumerate(workloads.block(workload, seed, b)):
            if perf_counter() >= stop_at:
                break
            rec = _record(sh, req, tracer, request_id(b, pos))
            rec.update(block=b, pos=pos)
            result["requests"].append(rec)
    if tracer:
        result["trace"] = tracer.dump()
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
