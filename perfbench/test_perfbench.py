"""Tests of the benchmark's own logic: seeded generation, the tail rule,
tracing of missing layers and failure counting."""

import math

import pytest

import run
import stats
import workloads
from tracer import Layer, Tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for b in range(3):
        assert workloads.block(workload, 5, b) == workloads.block(workload, 5, b)
    assert workloads.warmup(workload, 5) == workloads.warmup(workload, 5)
    assert workloads.block(workload, 5, 0) != workloads.block(workload, 6, 0)
    assert workloads.check_points(5, workload, 0, 1, 201, 16) == workloads.check_points(
        5, workload, 0, 1, 201, 16
    )


def test_cli_block_covers_every_axis_value():
    for seed in range(20):
        reqs = workloads.block("cli_cold_sweep", seed, 0)
        assert {r["m"] for r in reqs} == {1, 2, 3, 4}
        assert {r["J"] for r in reqs} == {3, 5}
        assert {r["nu"] for r in reqs} == {0, 1}
        assert {r["p"][1] for r in reqs} == {20.0, 50.0}
        assert {r["R"] for r in reqs} == {8.0, 7.3}
        assert {r["f"]["kind"] for r in reqs} == {"gaussian", "table"}


def test_check_points_sample_every_stratum():
    idx = workloads.check_points(3, "api_many_f", 0, 0, 201, 16)
    assert len(idx) == 16
    edges = [int(i * 201 / 16) for i in range(17)]
    assert all(lo <= i < hi for i, lo, hi in zip(idx, edges, edges[1:]))


@pytest.mark.parametrize("n", [22, 24, 57, 1000])
def test_tail_leaves_ten_samples_beyond(n):
    values = [float((7 * i) % n) for i in range(n)]  # a permutation of 0..n-1
    value, pct, count = stats.tail(values)
    assert count == n
    assert sum(v > value for v in values) == stats.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - 10) / n)


@pytest.mark.parametrize("n", [3, 12, 20])
def test_tail_with_twenty_or_fewer_samples_is_the_maximum(n):
    values = [float((7 * i) % n) for i in range(n)]
    assert stats.tail(values) == (float(n - 1), 100.0, n)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tail_lies_above_the_median(workload):
    n = run.RUN_BLOCKS[workload] * len(workloads.block(workload, 1, 0))
    values = [float(i) for i in range(n)]
    value, pct, _ = stats.tail(values)
    assert pct > 50.0
    assert value > stats.median(values)


def test_missing_wrapper_target_is_absent_not_zero():
    tracer = Tracer()
    tracer.install(
        [
            Layer("hankel_kernel.atom", (("splinehankel.pipeline", "no_such_function"),)),
            Layer("pipeline.transform", (("splinehankel.pipeline", "transform"),)),
        ]
    )
    tracer.uninstall()
    assert tracer.absent == {"hankel_kernel.atom"}
    assert tracer.present == {"pipeline.transform"}
    traced = {
        "imports": [0.5],
        "requests": [{"seconds": 1.0, "layers": {"pipeline.transform": [1, 0.8, 0.3, 12]}}],
        "dumps": [tracer.dump()],
    }
    values, detail = run.per_layer(traced, 0.9, {"oracle.check": [2, 0.1, 0.1, 0]})
    assert "hankel_kernel.atom_s" not in values
    assert "hankel_kernel.atom_calls" not in values
    assert detail["absent_layers"] == ["hankel_kernel.atom"]
    assert values["pipeline.self_s"] == pytest.approx(0.3)
    assert values["pipeline.terms"] == 12
    assert values["trace.overhead_s"] == pytest.approx(0.1)


def test_uninstall_restores_the_program():
    import splinehankel.pipeline as pipeline

    original = pipeline.atom_hankel
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.atom_hankel is not original
    finally:
        tracer.uninstall()
    assert pipeline.atom_hankel is original


def test_non_finite_output_counts_as_failed_and_untimed():
    bad = {"block": 0, "pos": 0, "seconds": 0.5, "rss_mb": 10.0, "values": [1.0, math.nan], "error": None}
    good = {"block": 0, "pos": 1, "seconds": 0.7, "rss_mb": 10.0, "values": None, "error": None}
    result = {"setup": [0.1], "warmups": [], "requests": [bad, good]}
    run.verify(result, "api_lowfreq_series", 1)
    assert bad["error"] == "non-finite output value"
    values, detail = run.end_to_end(result, "api_lowfreq_series", 1, planned=2)
    assert detail["fail_ratio"] == 0.5
    assert values["ok_ratio"] == 0.5
    assert values["request_s.p50"] == 0.7


def test_failed_cli_request_is_counted_and_not_timed(tmp_path):
    req = {"m": 0, "J": 3, "nu": 0, "R": 8.0, "p": (0.0, 1.0, 3), "f": {"kind": "gaussian", "a": 1.0}}
    rec = run.cli_request(req, 0, 0, False, run.child_env(), tmp_path, run.Clock())
    assert rec["error"].startswith("exit 2")
    assert rec["seconds"] is None
    result = {"setup": [0.1], "warmups": [], "requests": [rec]}
    with pytest.raises(run.BenchError):
        run.end_to_end(result, "cli_cold_sweep", 1, planned=1)


def test_m1_is_gated_at_five_percent_and_known_defects_get_their_margin():
    req = workloads.block("api_lowfreq_series", 1, 0)[0]
    assert run.tolerance("api_lowfreq_series", dict(req, m=1)) == run.ACCURACY_GATE
    pinned = next(r for r in workloads.block("cli_cold_sweep", 1, 0) if r["m"] == 4)
    allowed = run.DEFECTS[run.defect_class("cli_cold_sweep", pinned)]
    assert run.tolerance("cli_cold_sweep", pinned) == pytest.approx(run.DEFECT_MARGIN * allowed)
