"""Smoke test of the benchmark at a reduced size.

    python3 modbench/smoke.py

Runs every workload untraced and traced on small inputs with all of its
output checks, checks that each run reports exactly the metrics that
BENCHMARK.json names, and checks that the LP endpoint check rejects an
endpoint shifted off its optimum.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import sys

import common  # first: pins BLAS to one thread before numpy loads

import numpy as np

import checks
import run
from modens import core, dist, sensitivity
from workloads import WORKLOADS


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"smoke: FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def shifted_endpoint_fails() -> None:
    members = [dist.ComponentDistribution(dist.Family.CAUCHY, 0.4, 1.3),
               dist.ComponentDistribution(dist.Family.GAUSSIAN, -1.0, 0.7),
               dist.ComponentDistribution(dist.Family.GAUSSIAN, 2.0, 2.1)]
    bounds = sensitivity.msm_bounds(0.3, sensitivity.SensitivityConfig(4.0))
    iv = core.outcome_interval(members, bounds, 0.1, gamma=4.0)
    fam = np.array([checks.CAUCHY, checks.GAUSSIAN, checks.GAUSSIAN])
    loc = np.array([0.4, -1.0, 2.0])
    scale = np.array([1.3, 0.7, 2.1])
    args = (fam, loc, scale, bounds.lower, bounds.upper)
    res, tol = checks.endpoint_residuals(*args, iv.lo, iv.hi, 0.05, 0.95)
    expect(res <= tol, f"LP check rejects a true interval (residual {res:.2e})")
    for lo, hi in ((iv.lo, iv.hi + 1e-4), (iv.lo - 1e-4, iv.hi)):
        res, tol = checks.endpoint_residuals(*args, lo, hi, 0.05, 0.95)
        expect(res > tol, f"LP check accepts an endpoint shifted by 1e-4 "
                          f"(residual {res:.2e}, tolerance {tol:.2e})")


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    expect(set(WORKLOADS) == {w["name"] for w in spec["workloads"]},
           "workloads differ from BENCHMARK.json")
    shifted_endpoint_fails()
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run.run(name, seed=3, seconds=0.01, trace=bool(trace), quick=True)
            what = f"{name} --trace {trace}"
            expect(result["correct"], f"{what}: output checks failed")
            expect(result["attempted"] > 0 and result["failed"] == 0,
                   f"{what}: {result['failed']} of {result['attempted']} failed")
            expect(set(result["metrics"]) == names[trace],
                   f"{what}: metrics {sorted(set(result['metrics']) ^ names[trace])} "
                   f"differ from BENCHMARK.json")
            expect(all(isinstance(m["value"], float) for m in result["metrics"].values()),
                   f"{what}: a metric is not a float")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
