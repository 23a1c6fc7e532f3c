"""Per-layer tracing from outside the program.

The tracer replaces a module attribute that a caller looks up at call time
(``pipeline.gram_coefficients``, ``hankel_kernel.bessel_j_array``, ...) with a
wrapper that times or counts the call.  It installs a wrapper only where the
attribute exists: a layer whose names are all gone is reported as absent,
never as zero, and the run goes on.

Coarse layers (a whole transform, a projection, ``cli.main``) are kept as
spans ``(name, start, end, parent, request)``.  Fine layers run up to 10^5
times per request, so they are folded into per-request totals as they close:
call count, inclusive time and self time.  Self time is a frame's duration
minus the durations of the frames opened inside it, which on one thread is
the part of its interval that child spans cover.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Layer:
    """One traced layer: the bindings it wraps and how a call is recorded.

    ``sites`` are ``(module, dotted attribute)`` pairs naming where callers
    look the function up.  ``mode`` is ``"time"`` (count, inclusive and self
    time) or ``"count"`` (calls only, for functions too hot to time).
    """

    name: str
    sites: tuple[tuple[str, str], ...]
    mode: str = "time"
    span: bool = False
    size_arg: int | None = None  # count np.size of this positional argument
    result_count: str | None = None  # dotted attribute of the result to add up


LAYERS = (
    Layer(
        "pipeline.transform",
        (
            ("splinehankel", "transform"),
            ("splinehankel.pipeline", "transform"),
            ("splinehankel.cli", "transform"),
        ),
        span=True,
        result_count="diagnostics.coefficient_count",
    ),
    Layer(
        "expansion.project",
        (
            ("splinehankel.pipeline", "gram_coefficients"),
            ("splinehankel.pipeline", "haar_coefficients"),
        ),
        span=True,
    ),
    Layer("expansion.inner_product", (("splinehankel.expansion", "inner_product"),)),
    Layer(
        "expansion.f_eval",
        (("splinehankel.expansion", "FunctionSpec.evaluate"),),
        size_arg=1,
    ),
    Layer("hankel_kernel.atom", (("splinehankel.pipeline", "atom_hankel"),)),
    Layer("hankel_kernel.quad", (("splinehankel.hankel_kernel", "bessel_j_array"),)),
    Layer("specfun.hyp1f2", (("splinehankel.hankel_kernel", "hyp1f2"),)),
    Layer("specfun.gamma", (("splinehankel.hankel_kernel", "gamma_fn"),), mode="count"),
    Layer(
        "splines.piece",
        (
            ("splinehankel.hankel_kernel", "scaling_piecewise"),
            ("splinehankel.hankel_kernel", "wavelet_piecewise"),
            ("splinehankel.expansion", "scaling_piecewise"),
            ("splinehankel.expansion", "wavelet_piecewise"),
        ),
    ),
)


def _resolve(module: str, dotted: str):
    """The object owning the last attribute of ``dotted``, or None if any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, _ = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


class Tracer:
    """Records spans and per-layer totals for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, str | None, int]] = []
        self.totals: dict[str, list[float]] = {}  # name -> [calls, incl, self, extra]
        self.present: set[str] = set()
        self.absent: set[str] = set()
        self._stack: list[list] = []  # [name, child time]
        self._request = -1
        self._undo: list[tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------------

    def install(self, layers=LAYERS) -> None:
        """Wrap every site that exists; remember layers with no site left."""
        for layer in layers:
            wrapped = False
            for module, dotted in layer.sites:
                owner = _resolve(module, dotted)
                attr = dotted.rsplit(".", 1)[-1]
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn):
                    continue
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, fn))
                wrapped = True
            (self.present if wrapped else self.absent).add(layer.name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _wrap(self, layer: Layer, fn):
        if layer.mode == "count":
            total = self.totals.setdefault(layer.name, [0, 0.0, 0.0, 0])

            def counted(*args, **kwargs):
                total[0] += 1
                return fn(*args, **kwargs)

            return counted
        return lambda *args, **kwargs: self.call(layer, fn, args, kwargs)

    # --- recording ------------------------------------------------------------

    def call(self, layer: Layer, fn, args, kwargs):
        """Run ``fn`` inside a frame named after ``layer``."""
        frame = [layer.name, 0.0]
        stack = self._stack
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dt = t1 - t0
            if stack:
                stack[-1][1] += dt
            total = self.totals.setdefault(layer.name, [0, 0.0, 0.0, 0])
            total[0] += 1
            total[1] += dt
            total[2] += dt - frame[1]
            if layer.span:
                self.spans.append((layer.name, t0, t1, parent, self._request))
        if layer.size_arg is not None and len(args) > layer.size_arg:
            total[3] += int(np.size(args[layer.size_arg]))
        if layer.result_count is not None:
            value = result
            for part in layer.result_count.split("."):
                value = getattr(value, part, None)
            if value is not None:
                total[3] += int(value)
        return result

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as a span the benchmark opens itself (``cli.main``)."""
        return self.call(Layer(name, (), span=True), fn, args, kwargs)

    def begin(self, request: int) -> dict[str, list[float]]:
        """Start request ``request``; returns a snapshot to pass to :meth:`end`."""
        self._request = request
        return {k: list(v) for k, v in self.totals.items()}

    def end(self, snapshot: dict[str, list[float]]) -> dict[str, list[float]]:
        """Per-layer ``[calls, inclusive_s, self_s, extra]`` since ``snapshot``."""
        self._request = -1
        out = {}
        for name, now in self.totals.items():
            before = snapshot.get(name, [0, 0.0, 0.0, 0])
            out[name] = [a - b for a, b in zip(now, before)]
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "present": sorted(self.present),
            "absent": sorted(self.absent),
        }
