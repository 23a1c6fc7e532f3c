"""Seeded request generators for the three benchmark workloads.

Everything a request needs (configuration, p-grid, Gaussian width, sampled
table) is drawn from ``numpy.random.default_rng([seed, workload, block, ...])``,
so the same seed always yields the same requests and any block can be rebuilt
on its own, by the worker that runs it and by the checker that verifies it.

A run is a sequence of blocks.  Each block is a balanced unit: it holds the
same mix of request kinds in every block and every seed, and only the order,
the widths, the tables and the p-grids change with the seed.  The runner
executes whole blocks, so the mix behind the median and tail is the same in
every run.

This module imports nothing from the program; :func:`function_spec` imports
``FunctionSpec`` only when called.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("cli_cold_sweep", "api_many_f", "api_lowfreq_series")
_WORKLOAD_ID = {name: i for i, name in enumerate(WORKLOADS)}

# p-points per grid on api_many_f and the CLI, fewer than the ROADMAP's 201
# so that a run holds enough requests for a steady median and a full
# measurement campaign still fits in an hour on a 2-core machine.
P_POINTS = 101
CLI_POINTS = 41
GAUSS_WIDTH = (0.9, 1.2)
TABLE_RADIUS = 8.5
TABLE_POINTS = 257

# cli_cold_sweep: four slots, one per m, whose configurations together cover
# every value of every axis in every block.  The configuration of each slot is
# fixed, because it sets the cost of a cold request, and a median of four
# requests whose costs the seed dealt out jumped by a quarter between seeds;
# the seed draws the Gaussian widths, the table, its interpolation and the
# order.  The m = 4 slot has the largest known error (past-R integration at an
# off-grid R), so that max_abs_err measures the same defect in every run.  A
# single table, on the m = 1 slot, keeps projection a small share here, where
# the kernel's cold path should dominate.
CLI_SLOTS = (
    {"m": 1, "J": 5, "nu": 1, "R": 8.0, "p": (0.0, 50.0, CLI_POINTS), "f": "table"},
    {"m": 2, "J": 3, "nu": 0, "R": 7.3, "p": (0.0, 50.0, CLI_POINTS), "f": "gaussian"},
    {"m": 3, "J": 3, "nu": 1, "R": 8.0, "p": (0.0, 20.0, CLI_POINTS), "f": "gaussian"},
    {"m": 4, "J": 3, "nu": 0, "R": 7.3, "p": (0.0, 20.0, CLI_POINTS), "f": "gaussian"},
)

# Request costs form groups (by f kind, by m), and a median or tail that falls
# on the edge of a group jumps with every seed.  A run holds three in-process
# blocks (24 requests), whose median is the mean of the 12th and 13th fastest
# and whose tail is the 14th fastest; each block gives one group most of its
# slots, so that both fall inside that group with room on either side.

# api_many_f: one basis for every request, as in the paper's use case.  The
# sampled tables, whose projection costs most, hold five of the eight slots
# (one linear, four cubic), so the median and the tail are table requests;
# two Gaussians and the ramp take the other three.
MANY_F_BASIS = {"m": 2, "J": 4, "nu": 0, "R": 8.0, "p": (0.0, 20.0, P_POINTS)}
MANY_F_KINDS = ("gaussian", "gaussian", "ramp", "linear", "cubic", "cubic", "cubic", "cubic")

# api_lowfreq_series: a fresh low p-grid per request.  m = 2 holds five of the
# eight slots, each nu at least twice; m = 1, 3 and 4 take one slot each.
# The m = 4 error (past-R integration) oscillates in p with a period of about
# 0.3 and grows with p, so its maximum over a grid with a seeded end moved by
# a third between runs.  The m = 4 slot therefore has nu = 0 and ends its grid
# on a crest of that error, so that max_abs_err measures the same defect in
# every run; its start, and so every other point, stays seeded.  Every nu not
# fixed here is seeded.
LOWFREQ_J = 4
LOWFREQ_R = 8.0
LOWFREQ_POINTS = 16
LOWFREQ_P_MAX = (4.5, 5.5)
LOWFREQ_M4_P_MAX = 4.56


def _rng(seed: int, workload: str, *keys: int) -> np.random.Generator:
    if workload not in _WORKLOAD_ID:
        raise ValueError(f"unknown workload {workload!r}")
    return np.random.default_rng([int(seed), _WORKLOAD_ID[workload], *keys])


def _gaussian(rng) -> dict:
    return {"kind": "gaussian", "a": float(rng.uniform(*GAUSS_WIDTH))}


def _table(rng, interp: str) -> dict:
    """A smooth sampled profile that does not vanish at R.

    A bump, a damped oscillation and a small linear tail; the tail keeps f(R)
    away from zero so that errors at the radius stay visible.
    """
    r = np.linspace(0.0, TABLE_RADIUS, TABLE_POINTS)
    c = rng.uniform(0.5, 2.0)
    w = rng.uniform(0.8, 1.5)
    k = rng.uniform(1.0, 3.0)
    tail = rng.uniform(0.05, 0.15)
    f = (
        np.exp(-(((r - c) / w) ** 2))
        + 0.5 * np.exp(-((r / 3.0) ** 2)) * np.cos(k * r)
        + tail * r / TABLE_RADIUS
    )
    return {
        "kind": "table",
        "interp": interp,
        "r": [float(x) for x in r],
        "f": [float(x) for x in f],
    }


def _cli_block(seed: int, block: int) -> list[dict]:
    rng = _rng(seed, "cli_cold_sweep", block)
    out = []
    for slot in CLI_SLOTS:
        if slot["f"] == "table":
            f = _table(rng, ("linear", "cubic")[int(rng.integers(2))])
        else:
            f = _gaussian(rng)
        out.append(dict(slot, f=f))
    return [out[i] for i in rng.permutation(len(out))]


def _many_f_request(rng, kind: str) -> dict:
    if kind == "gaussian":
        f = _gaussian(rng)
    elif kind == "ramp":
        f = {"kind": "ramp"}
    else:
        f = _table(rng, kind)
    return dict(MANY_F_BASIS, f=f)


def _many_f_block(seed: int, block: int) -> list[dict]:
    rng = _rng(seed, "api_many_f", block)
    return [_many_f_request(rng, MANY_F_KINDS[i]) for i in rng.permutation(len(MANY_F_KINDS))]


def _lowfreq_request(rng, m: int, nu: int) -> dict:
    lo = float(rng.uniform(0.0, 0.05))
    hi = LOWFREQ_M4_P_MAX if m == 4 else float(rng.uniform(*LOWFREQ_P_MAX))
    return {
        "m": m,
        "J": LOWFREQ_J,
        "nu": nu,
        "R": LOWFREQ_R,
        "p": (lo, hi, LOWFREQ_POINTS),
        "f": _gaussian(rng),
    }


def _lowfreq_block(seed: int, block: int) -> list[dict]:
    rng = _rng(seed, "api_lowfreq_series", block)
    pairs = [(2, 0), (2, 0), (2, 1), (2, 1), (4, 0)]
    pairs += [(m, int(rng.integers(2))) for m in (2, 1, 3)]
    return [_lowfreq_request(rng, *pairs[i]) for i in rng.permutation(len(pairs))]


_BLOCKS = {
    "cli_cold_sweep": _cli_block,
    "api_many_f": _many_f_block,
    "api_lowfreq_series": _lowfreq_block,
}


def block(workload: str, seed: int, index: int) -> list[dict]:
    """The requests of block ``index`` of a run; index 0 is the first timed block."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    return _BLOCKS[workload](seed, index)


def warmup(workload: str, seed: int) -> dict | None:
    """The untimed first request of an in-process workload (None for the CLI).

    For ``api_many_f`` it is a Gaussian on the shared basis, so it pays the
    basis cost that every later request reuses.
    """
    rng = _rng(seed, workload, 1_000_000)
    if workload == "api_many_f":
        return _many_f_request(rng, "gaussian")
    if workload == "api_lowfreq_series":
        return _lowfreq_request(rng, 2, 0)
    if workload == "cli_cold_sweep":
        return None
    raise ValueError(f"unknown workload {workload!r}")


def p_grid(req: dict) -> tuple[float, ...]:
    """The p-grid of a request, as the CLI's ``min:max:count`` parser builds it."""
    lo, hi, n = req["p"]
    return tuple(float(x) for x in np.linspace(lo, hi, n))


def check_points(seed: int, workload: str, block_index: int, pos: int, n: int, strata: int) -> list[int]:
    """Seeded p-indices to verify: one drawn at random from each of ``strata``
    equal slices of the grid, so every part of the p-range is sampled."""
    rng = _rng(seed, workload, block_index, pos, 7)
    edges = np.linspace(0, n, min(strata, n) + 1).astype(int)
    return [int(rng.integers(a, b)) for a, b in zip(edges, edges[1:])]


def function_spec(fdesc: dict):
    """The program's ``FunctionSpec`` for a generated function description."""
    from splinehankel import FunctionSpec

    kind = fdesc["kind"]
    if kind == "gaussian":
        return FunctionSpec.gaussian(fdesc["a"])
    if kind == "ramp":
        return FunctionSpec.ramp()
    if kind == "table":
        return FunctionSpec.from_samples(fdesc["r"], fdesc["f"], fdesc["interp"])
    raise ValueError(f"unknown function kind {kind!r}")


def table_csv(fdesc: dict) -> str:
    """The ``r,f`` CSV text the CLI reads with ``--input``."""
    rows = "".join(f"{r!r},{f!r}\n" for r, f in zip(fdesc["r"], fdesc["f"]))
    return "r,f\n" + rows
