"""Re-measure the configuration table of the ROADMAP's baseline.

    python3 perfbench/baseline.py [OUT_JSON]

Run from the checkout root.  Each configuration transforms the Gaussian
a = 1 on R = 8 with 201 points in a fresh process (cold caches, one BLAS
thread) and records the import time, the transform's wall time, and the
largest error against the exact transform (nu = 0) or the quadrature
oracle (nu = 1).  The table and the environment record go to OUT_JSON
(default: stdout).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# (m, J, nu, p_max)
CONFIGS = (
    (1, 3, 0, 20.0),
    (1, 5, 0, 20.0),
    (2, 3, 0, 20.0),
    (3, 3, 0, 20.0),
    (1, 6, 0, 50.0),
    (2, 3, 1, 50.0),
)


def measure_one(m: int, J: int, nu: int, p_max: float) -> dict:
    t0 = perf_counter()
    import numpy as np

    from splinehankel import (
        FunctionSpec,
        TransformRequest,
        gaussian_exact,
        quadrature_hankel,
        transform,
    )

    import_s = perf_counter() - t0
    f = FunctionSpec.gaussian(1.0)
    grid = tuple(float(x) for x in np.linspace(0.0, p_max, 201))
    t0 = perf_counter()
    res = transform(TransformRequest(f, nu, m, 8.0, J, grid))
    wall = perf_counter() - t0
    if nu == 0:
        refs = [gaussian_exact(1.0, p) for p in grid]
    else:
        refs = [quadrature_hankel(f, nu, 8.0, p) for p in grid]
    err = max(abs(v - r) for v, r in zip(res.values, refs))
    return {"m": m, "J": J, "nu": nu, "p_max": p_max, "import_s": import_s,
            "transform_s": wall, "max_abs_err": err}


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--one":
        m, J, nu, p_max = int(argv[1]), int(argv[2]), int(argv[3]), float(argv[4])
        print(json.dumps(measure_one(m, J, nu, p_max)))
        return 0
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    rows = []
    for m, J, nu, p_max in CONFIGS:
        out = subprocess.run(
            [sys.executable, __file__, "--one", str(m), str(J), str(nu), str(p_max)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        rows.append(json.loads(out))
        print(json.dumps(rows[-1]), file=sys.stderr)
    import run

    text = json.dumps({"environment": run.environment(), "configs": rows}, indent=1) + "\n"
    if argv:
        Path(argv[0]).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
