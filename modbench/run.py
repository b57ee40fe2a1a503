"""modens benchmark: one command, four workloads.

    python3 modbench/run.py --workload {train,search,scalar,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The run pins itself to one CPU, sets up
its inputs, runs whole rounds of the workload's operations until
``--seconds`` have passed (medians over rounds give ``run_s`` and
``cpu_s``; the peak memory is read after the first round), sets up four
more times (the median of the five is ``setup_s``), then checks the
program's outputs apart from the program.  Times are scaled to a fixed
machine speed (see REFERENCE_S) except on workloads that report raw
seconds.  The last line of standard output is one JSON object: with
``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics taken from spans around the calls into each modens
module (the spans are written to ``.modbench/traces``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import common  # first: pins BLAS to one thread before numpy loads

import numpy as np

from spans import Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 5
# The speed of the machine the benchmark was made on swings by up to 2x
# within minutes (other tenants share its cores), so raw seconds from two
# sets of runs are not comparable.  A fixed computation that never touches
# modens is timed REFERENCE_SAMPLES times after each set-up repetition and
# after each round.  Every reported time is scaled to the speed at which
# that computation takes REFERENCE_S seconds, using the samples taken next
# to it (for a round: those just before and just after it).  A workload
# whose work the reference does not stand for reports raw seconds
# (Workload.speed_scaled).
REFERENCE_S = 0.03
REFERENCE_SAMPLES = 4
_REF_X = np.random.default_rng(0).standard_normal(32768)
# The reference writes into this buffer instead of allocating temporaries:
# 256 KB temporaries come from fresh mmap()ed pages until glibc raises its
# mmap threshold, which happens only once the process has freed a larger
# block, so the same computation took 0.05 s before the first `cli` round
# and 0.022 s after it.
_REF_BUF = np.empty_like(_REF_X)
IMPORT_PROBE = ("import time; t = time.perf_counter(); import modens.cli; "
                "print(time.perf_counter() - t)")


def child_import_seconds() -> float:
    """Time to import modens.cli in a fresh interpreter, measured inside it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=common.child_env(),
                         capture_output=True, text=True, check=True)
    return float(out.stdout.strip())


def reference_sample() -> list[float]:
    return [reference_seconds() for _ in range(REFERENCE_SAMPLES)]


def speed(samples: list[float], scaled: bool = True) -> float:
    """Factor that scales a time measured beside ``samples`` to the
    reference speed (1 for a workload that reports raw times)."""
    return REFERENCE_S / statistics.median(samples) if scaled else 1.0


def reference_seconds() -> float:
    """Time a fixed mix of interpreted arithmetic and numpy array work, the
    two kinds of work modens does."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150_000):
        acc += math.sqrt(i)
    for _ in range(120):
        np.multiply(_REF_X, _REF_X, out=_REF_BUF)
        np.negative(_REF_BUF, out=_REF_BUF)
        np.exp(_REF_BUF, out=_REF_BUF).sum()
    return time.perf_counter() - t0



def peak_rss(workload: str) -> float:
    """Peak resident memory so far in MB: the largest child process's for
    `cli`, which runs modens in children, and the run's own otherwise."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    tracer = Tracer() if trace else None
    w = WORKLOADS[workload](seed, quick, tracer)
    try:
        if tracer:
            for point in w.trace_points():
                tracer.patch(*point)
        setup_s, import_s = [], []

        def set_up(rep: int) -> None:
            if tracer:
                tracer.unit = f"setup{rep}"
            import_s.append(child_import_seconds())
            t0 = time.perf_counter()
            w.setup()
            if tracer:
                tracer.unit = "warmup"
            w.warmup()
            wall = import_s[-1] + time.perf_counter() - t0
            setup_s.append(wall * speed(reference_sample(), w.speed_scaled))

        # The first set-up and the first round run as in a user's fresh
        # process, and the peak memory is read right after them, so that it
        # covers a fixed amount of work.  The other set-up repetitions come
        # after the rounds: each one leaves the allocator's heap laid out a
        # little differently, and on `search` the peak after three of them
        # was 87 or 91 MB depending only on the size of the environment.
        set_up(0)
        walls, cpus, speeds = [], [], []
        attempted = failed = 0
        gc.collect()
        before = reference_sample()
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + walls[-1] <= seconds:
            if tracer:
                tracer.unit = f"round{len(walls)}"
            cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            a, f = w.run_round()
            walls.append(time.perf_counter() - t0)
            cpus.append(_cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0)
            attempted += a
            failed += f
            w.after_round()
            if len(walls) == 1:
                peak_rss_mb = peak_rss(workload)
            gc.collect()
            after = reference_sample()
            speeds.append(speed(before + after, w.speed_scaled))
            before = after
        for rep in range(1, SETUP_REPEATS):
            set_up(rep)
        if tracer:
            tracer.restore()
        problems = w.check()
    finally:
        if tracer:
            tracer.restore()
        w.close()

    for p in problems:
        print(f"modbench: {workload}: check failed: {p}", file=sys.stderr)
    run_s = statistics.median(x * f for x, f in zip(walls, speeds))
    info = {"workload": workload, "seed": seed, "rounds": len(walls), "run_s": run_s,
            "walls": [round(x, 4) for x in walls], "speeds": [round(f, 4) for f in speeds],
            **w.info}
    print("info " + json.dumps(info, default=str))
    if tracer:
        tracer.write(common.OUT_DIR / "traces" / f"{workload}-seed{seed}.json")
        metrics = layer_metrics(tracer, w, import_s)
    else:
        metrics = {"setup_s": (statistics.median(setup_s), "s"),
                   "run_s": (run_s, "s"),
                   "cpu_s": (statistics.median(x * f for x, f in zip(cpus, speeds)), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tr: Tracer, w, import_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans.  Times are medians over the units
    of work (set-up repetitions and rounds; the warm-up is left out) of the
    time spent in the layer's calls in that unit; a layer the workload
    never calls reads 0."""

    def per_unit(*names):
        return {u: v for u, v in tr.per_unit(*names).items() if u != "warmup"}

    def counts(key, *names):
        return _median(v for u, v in tr.count_per_unit(key, *names).items()
                       if u != "warmup")

    def t(*names):
        return _median(per_unit(*names).values())

    members = [i for i, s in enumerate(tr.spans)
               if s.name == "mlp.train_member" and s.unit != "warmup"]
    epochs = {i: [] for i in members}
    for s in tr.spans:
        if s.name == "mlp.nll_and_grads" and s.parent in epochs:
            epochs[s.parent].append(s.counts["flops"])
    member_time = sum(tr.spans[i].duration for i in members)
    n_epochs = sum(len(v) for v in epochs.values())
    flops = sum(sum(v) for v in epochs.values())

    batch_time = sum(per_unit("core.modulated_intervals_batch").values())
    batch_rows = sum(v for u, v in tr.count_per_unit("rows", "core.modulated_intervals_batch")
                     .items() if u != "warmup")
    scalar = ("core.outcome_interval", "core.maximize_quantile", "core.minimize_quantile")
    scalar_calls = [s.duration for s in tr.spans if s.name in scalar and s.unit != "warmup"
                    and not (s.parent >= 0 and tr.spans[s.parent].name in scalar)]

    # The search's own time: its span and the probes it made (the pipeline
    # calls), less the core, sensitivity and mlp calls inside them.
    self_times = tr.self_times()
    harness_self: dict[str, float] = {}
    probes: dict[str, int] = {}
    for i, s in enumerate(tr.spans):
        if s.unit == "warmup":
            continue
        if s.name == "evalharness.probe" and tr.has_ancestor(s, "evalharness.gamma_star_search"):
            probes[s.unit] = probes.get(s.unit, 0) + 1
        elif s.name != "evalharness.gamma_star_search":
            continue
        harness_self[s.unit] = harness_self.get(s.unit, 0.0) + self_times[i]

    ref = w.reference
    return {
        "benchgen.generate_s": (t("benchgen.generate_dataset"), "s"),
        "data.save_s": (t("data.save_dataset_csv"), "s"),
        "data.load_s": (t("data.load_dataset_csv"), "s"),
        "data.rows_written": (counts("rows", "data.save_dataset_csv"), "count"),
        "data.rows_read": (counts("rows", "data.load_dataset_csv"), "count"),
        "data.bytes_written": (counts("bytes", "data.save_dataset_csv"), "bytes"),
        "mlp.member_s": (_median(tr.spans[i].duration for i in members), "s"),
        "mlp.epoch_ms": (1e3 * member_time / n_epochs if n_epochs else 0.0, "ms"),
        "mlp.member_epochs": (_median(len(v) for v in epochs.values()), "count"),
        "mlp.propensity_s": (t("mlp.fit_propensity"), "s"),
        "mlp.train_gflops": (flops / member_time / 1e9 if member_time else 0.0, "GFLOP/s"),
        "mlp.predict_s": (t("mlp.predict_components_batch", "mlp.predict_propensity_batch"),
                          "s"),
        "mlp.model_load_s": (t("mlp.load_model", "mlp.load_propensity"), "s"),
        "mlp.valid_nll": (ref.get("mlp.valid_nll", 0.0), "nats"),
        "sensitivity.bounds_s": (t("sensitivity.msm_bounds_arrays", "sensitivity.msm_bounds"), "s"),
        "dist.build_us": (1e6 * _median(s.duration for s in tr.named("dist.build")
                                        if s.unit != "warmup"), "us"),
        "core.batch_calls": (counts("calls", "core.modulated_intervals_batch"), "count"),
        "core.batch_rows": (counts("rows", "core.modulated_intervals_batch"), "count"),
        "core.batch_s": (t("core.modulated_intervals_batch"), "s"),
        "core.row_endpoint_us": (1e6 * batch_time / batch_rows if batch_rows else 0.0, "us"),
        "core.scalar_call_us": (1e6 * _median(scalar_calls), "us"),
        "core.check_residual_max": (ref.get("core.check_residual_max", 0.0), "prob"),
        "evalharness.search_s": (t("evalharness.gamma_star_search"), "s"),
        "evalharness.probes": (_median(probes.values()), "count"),
        "evalharness.self_s": (_median(harness_self.values()), "s"),
        "evalharness.write_s": (t("evalharness.write_json", "evalharness.write_points_csv"),
                                "s"),
        "evalharness.gamma_star": (ref.get("evalharness.gamma_star", 0.0), "ratio"),
        "evalharness.coverage": (ref.get("evalharness.coverage", 0.0), "fraction"),
        "evalharness.cost_abs_std": (ref.get("evalharness.cost_abs_std", 0.0), "std"),
        "cli.import_s": (_median(import_s), "s"),
        **{f"cli.{sub}_s": (t(f"cli.{sub}"), "s")
           for sub in ("generate", "train", "intervals", "gamma_search", "report")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the run and its child processes: the vCPUs of the machine
    # the benchmark was made on differ in speed from minute to minute, and
    # the reference computation only stands for work done on its own CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
