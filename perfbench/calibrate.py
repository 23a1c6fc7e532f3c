"""Measure the known-defect errors that the accuracy gate allows for m >= 2.

    python3 perfbench/calibrate.py --seeds 1 2 ... [--workloads NAME ...] [--out FILE [--merge]]

Run from the checkout root, at the commit whose errors the gate should allow
(``defects.json`` holds those of commit 3621bb7).  For every m >= 2 request
that runs with the given seeds make at the benchmark's run_seconds (warm-ups
and timed blocks), it transforms f at the p-points that the check uses
(the series is evaluated point by point, so a sub-grid gives the same
values) and records, per defect class, the largest error as a share of
max|reference|.  The classes and their errors go to FILE as JSON (default:
stdout); with ``--merge`` each class keeps the larger of its error in FILE
and the one measured now.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import workloads


def relative_error(workload: str, seed: int, key: tuple[int, int], req: dict) -> float:
    import splinehankel as sh

    idx = run.check_indices(workload, seed, key, req)
    grid = workloads.p_grid(req)
    spec = workloads.function_spec(req["f"])
    res = sh.transform(sh.TransformRequest(spec, req["nu"], req["m"], req["R"], req["J"],
                                           tuple(grid[i] for i in idx)))
    refs, _ = run.reference(req, idx)
    return max(abs(v - r) for v, r in zip(res.values, refs)) / max(abs(r) for r in refs)


def requests(workload: str, seed: int):
    """``(key, request)`` of every request of a run of ``seed``."""
    warm = workloads.warmup(workload, seed)
    if warm is not None:
        yield run.WARMUP_KEY, warm
    for b in range(run.RUN_BLOCKS[workload]):
        for pos, req in enumerate(workloads.block(workload, seed, b)):
            yield (b, pos), req


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--out")
    parser.add_argument("--merge", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    worst: dict[str, float] = {}
    if args.merge and args.out and Path(args.out).exists():
        worst = json.loads(Path(args.out).read_text())
    for workload in args.workloads:
        for seed in args.seeds:
            for key, req in requests(workload, seed):
                if req["m"] < 2:
                    continue
                cls = run.defect_class(workload, req)
                err = relative_error(workload, seed, key, req)
                worst[cls] = max(worst.get(cls, 0.0), err)
                print(f"seed {seed} {key} {cls}: {err:.4g}", file=sys.stderr, flush=True)
    text = json.dumps(dict(sorted(worst.items())), indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
