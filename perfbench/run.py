"""splinehankel benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
One client runs a closed loop: each request starts when the previous one has
finished.  Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

- ``cli_cold_sweep``: every request is ``python3 -m splinehankel.cli
  transform`` in a fresh process, so it pays import, spline construction,
  every 1F2 evaluation and the quadrature fallback.
- ``api_many_f``: one process, one basis, many f; the first request warms the
  kernel caches and counts as set-up.
- ``api_lowfreq_series``: one process, a fresh low-p grid per request, so the
  1F2 series does the work and kernel caches never hit across requests.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs half as many blocks twice, each one untraced and then traced, and prints
the per-layer metrics and the tracing overhead (traced minus untraced median
request time).  Every output is checked outside the timed region against an
independent reference.  The last line of standard output is
the JSON result; full records go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# One client on a two-core machine: as the benchmark, cap BLAS threads for
# this process and every child before numpy is first imported.
BLAS_THREADS = "1"
if __name__ == "__main__":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import stats  # noqa: E402
import workloads  # noqa: E402
from worker import request_id  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PY = sys.executable

# Set-up samples per run (setup_s is their median).  A set-up of about a
# second is noisier than the 4 s warm-up of api_many_f, and cheaper to repeat.
SETUP_SAMPLES = {"cli_cold_sweep": 5, "api_many_f": 3, "api_lowfreq_series": 5}
CHECK_STRATA = 16
# A request's error must stay within 5% of max|reference|.  For m >= 2 the
# program has known defects (it integrates atoms past R, and cells that
# straddle an off-grid R), so such a request may also reach DEFECT_MARGIN times
# the relative error measured for its class at commit 3621bb7
# (``defects.json``, made by ``calibrate.py``).
ACCURACY_GATE = 0.05
DEFECT_MARGIN = 10.0
DEFECTS = json.loads((HERE / "defects.json").read_text())
# No request or block starts after SOFT_DEADLINE_S, so a slow program is
# measured on fewer requests rather than cut off; a child still running at
# HARD_DEADLINE_S is killed, so that the run ends within 180 s.
SOFT_DEADLINE_S = 130.0
HARD_DEADLINE_S = 172.0
# Blocks per run at the benchmark's run_seconds (30).  At commit 3621bb7 on a
# 2-core x86-64 machine with one BLAS thread a block takes about 10 s
# (cli_cold_sweep), 12 s (api_many_f) and 6 s (api_lowfreq_series).  The
# count scales with --seconds; every run of a given --seconds holds the same
# requests, so the median and the tail are the same order statistics across
# seeds and commits.
RUN_SECONDS = 30
RUN_BLOCKS = {"cli_cold_sweep": 3, "api_many_f": 3, "api_lowfreq_series": 3}
# key of the warm-up request's check points, after every timed block
WARMUP_KEY = (1 << 20, 0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_s.p50": "s",
    "request_s.tail": "s",
    "points_per_s": "1/s",
    "max_abs_err": "abs",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (layer, field, unit); fields index Tracer totals
_CALLS, _INCL, _SELF, _EXTRA = range(4)
PER_LAYER = {
    "cli.main_s": ("cli.main", _INCL, "s/req"),
    "cli.main_self_s": ("cli.main", _SELF, "s/req"),
    "pipeline.transform_s": ("pipeline.transform", _INCL, "s/req"),
    "pipeline.self_s": ("pipeline.transform", _SELF, "s/req"),
    "pipeline.terms": ("pipeline.transform", _EXTRA, "count/req"),
    "expansion.project_s": ("expansion.project", _INCL, "s/req"),
    "expansion.project_self_s": ("expansion.project", _SELF, "s/req"),
    "expansion.project_calls": ("expansion.project", _CALLS, "count/req"),
    "expansion.inner_product_calls": ("expansion.inner_product", _CALLS, "count/req"),
    "expansion.inner_product_s": ("expansion.inner_product", _INCL, "s/req"),
    "expansion.f_samples": ("expansion.f_eval", _EXTRA, "count/req"),
    "expansion.f_eval_s": ("expansion.f_eval", _INCL, "s/req"),
    "hankel_kernel.atom_calls": ("hankel_kernel.atom", _CALLS, "count/req"),
    "hankel_kernel.atom_s": ("hankel_kernel.atom", _INCL, "s/req"),
    "hankel_kernel.atom_self_s": ("hankel_kernel.atom", _SELF, "s/req"),
    "hankel_kernel.quad_calls": ("hankel_kernel.quad", _CALLS, "count/req"),
    "hankel_kernel.quad_s": ("hankel_kernel.quad", _INCL, "s/req"),
    "specfun.hyp1f2_calls": ("specfun.hyp1f2", _CALLS, "count/req"),
    "specfun.hyp1f2_s": ("specfun.hyp1f2", _INCL, "s/req"),
    "specfun.gamma_calls": ("specfun.gamma", _CALLS, "count/req"),
    "splines.piece_builds": ("splines.piece", _CALLS, "count/req"),
    "splines.piece_s": ("splines.piece", _INCL, "s/req"),
    "oracle.check_calls": ("oracle.check", _CALLS, "count/req"),
    "oracle.check_s": ("oracle.check", _INCL, "s/req"),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


# --- processes ------------------------------------------------------------------


class Clock:
    """The run's deadlines, counted from its start."""

    def __init__(self) -> None:
        self.start = perf_counter()

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def past_soft(self) -> bool:
        return self.elapsed() >= SOFT_DEADLINE_S

    def soft_left(self) -> float:
        return max(0.0, SOFT_DEADLINE_S - self.elapsed())

    def hard_left(self) -> float:
        return max(0.0, HARD_DEADLINE_S - self.elapsed())


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv: list[str], env: dict, clock: Clock, stderr_path: Path | None = None):
    """Run ``argv`` to completion; returns (exit code, wall seconds, peak RSS MB).

    The child is killed at the run's hard deadline, so that the whole run ends
    in time; its exit code is then negative.
    """
    t0 = perf_counter()
    with open(stderr_path or os.devnull, "w") as err:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(clock.hard_left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    elapsed = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def _stderr_tail(path: Path) -> str:
    text = path.read_text(errors="replace").strip().splitlines() if path.exists() else []
    return text[-1] if text else ""


# --- CLI workload -----------------------------------------------------------------


def _empty_result() -> dict:
    """A pass: set-up samples, warm-up and timed request records, import
    times, and for a traced pass the tracer dump of each process."""
    return {"setup": [], "warmups": [], "requests": [], "imports": [], "dumps": []}


def _records(result: dict) -> list[dict]:
    return [*result["warmups"], *result["requests"]]


def cli_argv(req: dict, csv_path: Path, table_path: Path) -> list[str]:
    lo, hi, n = req["p"]
    argv = [
        "transform", "--nu", str(req["nu"]), "--m", str(req["m"]),
        "--R", repr(req["R"]), "--J", str(req["J"]),
        "--p", f"{lo!r}:{hi!r}:{n}", "--output", str(csv_path),
    ]
    f = req["f"]
    if f["kind"] == "gaussian":
        argv += ["--builtin", "gaussian", "--a", repr(f["a"])]
    elif f["kind"] == "ramp":
        argv += ["--builtin", "ramp"]
    else:
        table_path.write_text(workloads.table_csv(f))
        argv += ["--input", str(table_path), "--interp", f["interp"]]
    return argv


def parse_output_csv(data: bytes, grid: tuple[float, ...]) -> list[float]:
    lines = data.decode().splitlines()
    if not lines or lines[0] != "p,F":
        raise ValueError("output CSV lacks the 'p,F' header")
    rows = [line.split(",") for line in lines[1:]]
    if [float(r[0]) for r in rows] != list(grid):
        raise ValueError("output p column differs from the requested grid")
    return [float(r[1]) for r in rows]


def cli_request(req: dict, b: int, pos: int, trace: bool, env: dict, run_dir: Path, clock: Clock) -> dict:
    """One CLI request in a fresh process.  Only a request that exits 0 and
    writes a well-formed CSV is timed; any other is a failure."""
    stem = run_dir / f"{'t' if trace else 'u'}{b}_{pos}"
    csv_path, err_path, trace_path = (stem.with_suffix(s) for s in (".csv", ".err", ".trace.json"))
    argv = cli_argv(req, csv_path, stem.with_suffix(".in.csv"))
    if trace:
        argv = [PY, str(HERE / "cli_launcher.py"), str(trace_path), "--", *argv]
    else:
        argv = [PY, "-m", "splinehankel.cli", *argv]
    code, secs, rss = spawn(argv, env, clock, err_path)
    rec = {"block": b, "pos": pos, "seconds": None, "rss_mb": rss, "values": None, "error": None}
    if code != 0:
        rec["error"] = f"exit {code}: {_stderr_tail(err_path)}"
        return rec
    try:
        data = csv_path.read_bytes()
        rec["digest"] = hashlib.sha256(data).hexdigest()
        rec["values"] = parse_output_csv(data, workloads.p_grid(req))
    except (OSError, ValueError, IndexError) as exc:
        rec["error"] = f"bad output: {exc}"
        return rec
    rec["seconds"] = secs
    if trace:
        dump = json.loads(trace_path.read_text())
        rec["layers"] = dump["layers"]
        rec["import_s"] = dump["import_s"]
        # the child numbers its one request 0; give it the run-wide id
        dump["spans"] = [(*span[:4], request_id(b, pos)) for span in dump["spans"]]
        rec["dump"] = dump
    return rec


def cli_pass(args, env, modes: list[bool], run_dir: Path, clock: Clock, blocks: int,
             with_setup: bool) -> list[dict]:
    """One result per mode in ``modes`` (False: untraced, True: traced); each
    request runs once in every mode, one after the other."""
    results = [_empty_result() for _ in modes]
    for _ in range(SETUP_SAMPLES[args.workload] if with_setup else 0):
        code, secs, _ = spawn([PY, "-c", "import splinehankel.cli"], env, clock)
        if code != 0:
            raise BenchError("cannot import splinehankel.cli")
        results[0]["setup"].append(secs)
    for b in range(blocks):
        for pos, req in enumerate(workloads.block(args.workload, args.seed, b)):
            for trace, result in zip(modes, results):
                if clock.past_soft():
                    return results
                rec = cli_request(req, b, pos, trace, env, run_dir, clock)
                if "dump" in rec:
                    result["imports"].append(rec.pop("import_s"))
                    result["dumps"].append(rec.pop("dump"))
                result["requests"].append(rec)
    return results


# --- in-process workloads ---------------------------------------------------------


def _worker(args, env, trace: bool, out: Path, clock: Clock, blocks: list[int]):
    argv = [PY, str(HERE / "worker.py"), args.workload, str(args.seed), "1" if trace else "0",
            str(out), repr(clock.soft_left()), *map(str, blocks)]
    err = out.with_suffix(".err")
    code, _, rss = spawn(argv, env, clock, err)
    if code != 0 or not out.exists():
        raise BenchError(f"worker failed (exit {code}): {_stderr_tail(err)}")
    return json.loads(out.read_text()), rss


def api_pass(args, env, modes: list[bool], run_dir: Path, clock: Clock, blocks: int,
             with_setup: bool) -> list[dict]:
    """One result per mode in ``modes``.  Each block runs in a worker process
    of its own, once in every mode; each worker also gives a set-up sample,
    and set-up-only workers make up ``SETUP_SAMPLES`` samples if needed."""
    results = [_empty_result() for _ in modes]
    jobs = [[b] for b in range(blocks)]
    if with_setup:
        jobs += [[]] * max(0, SETUP_SAMPLES[args.workload] - blocks)
    for i, job in enumerate(jobs):
        for trace, result in zip(modes, results):
            if clock.past_soft():
                return results
            out = run_dir / f"{'t' if trace else 'u'}{i}.json"
            res, rss = _worker(args, env, trace, out, clock, job)
            result["setup"].append(res["setup_s"])
            result["imports"].append(res["import_s"])
            for rec in [res["warmup"], *res["requests"]]:
                rec["rss_mb"] = rss
                if rec["values"] is not None:
                    rec["digest"] = hashlib.sha256(repr(rec["values"]).encode()).hexdigest()
            result["warmups"].append(res["warmup"])
            result["requests"] += res["requests"]
            if "trace" in res:
                result["dumps"].append(res["trace"])
    return results


# --- checks -------------------------------------------------------------------------


def _request_of(workload: str, seed: int, rec: dict) -> dict:
    if rec.get("block") is None:
        return workloads.warmup(workload, seed)
    return workloads.block(workload, seed, rec["block"])[rec["pos"]]


def defect_class(workload: str, req: dict) -> str:
    """The known-defect class of a request.  Errors grow with m, off-grid R
    and f(R) != 0; the class leaves out nu, J, the p-range and the table's
    interpolation, so that each class holds enough calibration samples for
    its largest error to hold on unseen seeds."""
    return f"{workload} m={req['m']} R={req['R']!r} {req['f']['kind']}"


def check_indices(workload: str, seed: int, key: tuple[int, int], req: dict) -> list[int]:
    """p-indices checked against the reference.  A nu = 0 Gaussian, whose
    exact transform is cheap, is checked everywhere; any other request at
    index 0 (F(0) is the most sensitive point) and one seeded index in each
    of CHECK_STRATA equal slices of its grid."""
    n = req["p"][2]
    if req["f"]["kind"] == "gaussian" and req["nu"] == 0:
        return list(range(n))
    return sorted({0, *workloads.check_points(seed, workload, *key, n, CHECK_STRATA)})


def reference(req: dict, idx) -> tuple[list[float], int]:
    """Reference values at the p-indices ``idx`` and the number of oracle calls:
    the exact transform for a nu = 0 Gaussian, else ``quadrature_hankel``."""
    from splinehankel import gaussian_exact, quadrature_hankel

    grid = workloads.p_grid(req)
    f = req["f"]
    if f["kind"] == "gaussian" and req["nu"] == 0:
        return [gaussian_exact(f["a"], grid[i]) for i in idx], 0
    spec = workloads.function_spec(f)
    return [quadrature_hankel(spec, req["nu"], req["R"], grid[i]) for i in idx], len(idx)


def tolerance(workload: str, req: dict) -> float:
    """Largest accepted error as a share of max|reference|."""
    if req["m"] < 2:
        return ACCURACY_GATE
    return max(ACCURACY_GATE, DEFECT_MARGIN * DEFECTS.get(defect_class(workload, req), 0.0))


def verify(result: dict, workload: str, seed: int) -> dict:
    """Check every completed request; returns the ``oracle.check`` totals."""
    calls, busy = 0, 0.0
    for rec in _records(result):
        values = rec["values"]
        if rec["error"] is not None or values is None:
            continue
        if not all(math.isfinite(v) for v in values):
            rec["error"] = "non-finite output value"
            rec["seconds"] = None
            continue
        req = _request_of(workload, seed, rec)
        key = (rec["block"], rec["pos"]) if rec.get("block") is not None else WARMUP_KEY
        idx = check_indices(workload, seed, key, req)
        t0 = perf_counter()
        refs, n = reference(req, idx)
        if n:
            calls += n
            busy += perf_counter() - t0
        err = max(abs(values[i] - r) for i, r in zip(idx, refs))
        scale = max(abs(r) for r in refs)
        rec["max_abs_err"] = err
        rec["rel_err"] = err / scale
        rec["accurate"] = err <= tolerance(workload, req) * scale
    return {"oracle.check": [calls, busy, busy, 0]}


def _fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "splinehankel").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_digests(passes: list[dict], workload: str, seed: int, fingerprint: str) -> None:
    """Mark requests whose output bytes differ from an earlier run of this seed.

    The ledger file is named after the program's source fingerprint, so a
    code change starts a new one, and entries are keyed by the request itself.
    """
    ledger_path = OUT / "digests" / f"{workload}-seed{seed}-{fingerprint[:16]}.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    for result in passes:
        for rec in _records(result):
            if "digest" not in rec:
                continue
            req = _request_of(workload, seed, rec)
            key = hashlib.sha256(json.dumps(req, sort_keys=True).encode()).hexdigest()
            seen = ledger.setdefault(key, rec["digest"])
            if seen != rec["digest"] and rec["error"] is None:
                rec["error"] = "output bytes differ from an earlier run of the same seed"
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    ledger_path.write_text(json.dumps(ledger, indent=0, sort_keys=True))


# --- metrics -------------------------------------------------------------------------


def _timed(result: dict) -> list[dict]:
    return [r for r in result["requests"] if r["seconds"] is not None]


def end_to_end(result: dict, workload: str, seed: int, planned: int) -> tuple[dict, dict]:
    """End-to-end metrics over the timed requests; ``planned`` is how many
    timed requests the run would have made had no deadline cut it short."""
    timed = _timed(result)
    if not timed:
        raise BenchError("no request completed")
    times = [r["seconds"] for r in timed]
    points = sum(len(workloads.p_grid(_request_of(workload, seed, r))) for r in timed)
    tail, pct, n = stats.tail(times)
    records = _records(result)
    failed = sum(r["error"] is not None for r in records)
    errs = [r["max_abs_err"] for r in records if "max_abs_err" in r]
    values = {
        "setup_s": stats.median(result["setup"]),
        "request_s.p50": stats.median(times),
        "request_s.tail": tail,
        "points_per_s": points / sum(times),
        "max_abs_err": max(errs) if errs else float("nan"),
        "ok_ratio": (len(records) - failed) / len(records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    detail = {
        "planned": planned,
        "tail_percentile": pct,
        "samples": n,
        "setup_samples": result["setup"],
        "fail_ratio": failed / len(records),
    }
    return values, detail


def per_layer(traced: dict, untraced_p50: float, checks: dict) -> tuple[dict, dict]:
    timed = [r for r in _timed(traced) if "layers" in r]
    if not timed:
        raise BenchError("no traced request completed")
    n = len(timed)
    sums: dict[str, list[float]] = {}
    for rec in timed:
        for name, tot in rec["layers"].items():
            acc = sums.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(tot):
                acc[i] += v
    sums.update(checks)
    dumps, imports = traced["dumps"], traced["imports"]
    present = set().union(*(d["present"] for d in dumps))
    absent = set().union(*(d["absent"] for d in dumps)) - present
    present |= {"cli.main", "oracle.check"}
    values = {"cli.import_s": stats.median(imports)}
    for metric, (layer, field, _) in PER_LAYER.items():
        if layer in present:
            values[metric] = sums.get(layer, [0, 0.0, 0.0, 0])[field] / n
    p50 = stats.median([r["seconds"] for r in timed])
    values["trace.request_s.p50"] = p50
    values["trace.overhead_s"] = p50 - untraced_p50
    self_s = {name: tot[_SELF] / n for name, tot in sums.items() if name != "oracle.check"}
    self_s["cli.import"] = stats.median(imports) if "cli.main" in sums else 0.0
    return values, {"absent_layers": sorted(absent), "self_s_per_request": self_s,
                    "request_s_mean": sum(r["seconds"] for r in timed) / n}


# --- environment ----------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "git_commit": commit,
        "src_sha256": _fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


# --- main -------------------------------------------------------------------------------


def _metric_block(values: dict, units: dict) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run(args) -> dict:
    if not (SRC / "splinehankel" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'splinehankel'}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    clock = Clock()
    env = child_env()
    run_dir = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    for old in run_dir.iterdir():
        old.unlink()
    run_pass = cli_pass if args.workload == "cli_cold_sweep" else api_pass
    fingerprint = _fingerprint()
    blocks = max(1, round(RUN_BLOCKS[args.workload] * args.seconds / RUN_SECONDS))
    if args.trace:
        # the overhead compares passes made side by side in this run
        blocks = max(1, blocks // 2)
        passes = run_pass(args, env, [False, True], run_dir, clock, blocks, with_setup=False)
        plain = _timed(passes[0])
        if not plain:
            raise BenchError("no untraced request completed")
        untraced_p50 = stats.median([r["seconds"] for r in plain])
        result = passes[1]
    else:
        passes = run_pass(args, env, [False], run_dir, clock, blocks, with_setup=True)
        result = passes[0]
    planned = blocks * len(workloads.block(args.workload, args.seed, 0))
    checks = [verify(p, args.workload, args.seed) for p in passes][-1]
    check_digests(passes, args.workload, args.seed, fingerprint)
    records = [r for p in passes for r in _records(p)]
    failed = sum(r["error"] is not None for r in records)
    correct = failed == 0 and all(r["accurate"] for r in records)
    if args.trace:
        values, detail = per_layer(result, untraced_p50, checks)
        units = {k: u for k, (_, _, u) in PER_LAYER.items()}
        units.update({"cli.import_s": "s", "trace.request_s.p50": "s", "trace.overhead_s": "s"})
    else:
        values, detail = end_to_end(result, args.workload, args.seed, planned)
        units = END_TO_END_UNITS
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blocks": blocks,
        "wall_s": clock.elapsed(),
        "environment": environment(),
        "metrics": values,
        "detail": detail,
        "failures": sorted({r["error"] for r in records if r["error"] is not None}),
        "requests": [
            {k: v for k, v in r.items() if k not in ("values", "spans", "layers")}
            for r in records
        ],
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{run_dir.name}.json").write_text(json.dumps(summary, indent=1))
    if args.trace:
        spans = [span for dump in result["dumps"] for span in dump["spans"]]
        (OUT / "results" / f"{run_dir.name}.spans.json").write_text(json.dumps(spans))
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": _metric_block(values, units),
        "summary": summary,
    }


def _print_report(res: dict) -> None:
    s = res["summary"]
    d = s["detail"]
    print(f"workload {s['workload']}  seed {s['seed']}  trace {s['trace']}  "
          f"{res['attempted']} requests, {res['failed']} failed, {s['wall_s']:.1f} s wall")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if "samples" in d:
        print(f"  {'fail_ratio':32s} {d['fail_ratio']:.6g} ratio")
        print(f"  tail is p{d['tail_percentile']:.1f} of n={d['samples']} timed requests "
              f"({d['planned']} planned)")
    if "self_s_per_request" in d:
        ranked = sorted(d["self_s_per_request"].items(), key=lambda kv: -kv[1])
        print("  self time per request: " + ", ".join(f"{k} {v:.3g}s" for k, v in ranked))
        shares = [
            f"{k} {m['value'] / d['request_s_mean']:.1%}"
            for k, m in res["metrics"].items() if m["unit"] == "s/req"
        ]
        print(f"  share of mean request time ({d['request_s_mean']:.3g} s): " + ", ".join(shares))
        if d["absent_layers"]:
            print("  absent layers: " + ", ".join(d["absent_layers"]))
    for failure in s["failures"]:
        print(f"  failure: {failure}")
    print("  environment: " + json.dumps(s["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so spawn() reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        res = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_report(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
