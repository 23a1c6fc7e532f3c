"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 ... [--seconds S] [--trace 0|1]

Run from the checkout root.  For every metric it prints the median of the
runs and the interquartile distance as a share of that median, the figure
that the metric's bound in BENCHMARK.json must cover.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(res)
        line = "  ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}  {line}",
              flush=True)
    if len(runs) < 2:
        return 0
    print(f"{args.workload}: median and spread (IQR / median) over {len(runs)} seeds")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        print(f"  {name:32s} {stats.median(values):12.6g}  spread {stats.spread(values):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
