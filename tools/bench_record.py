"""Record BENCH_<pr>.json: every benchmark workload, untraced and traced,
beside one ungated paper-scale protocol round through the CLI.

    python3 tools/bench_record.py --pr N    # writes BENCH_N.json; about six minutes on 2 cores

Each workload runs as ``python3 modbench/run.py --workload W --seed 0
--seconds 26 --trace T`` in its own process, once with ``--trace 0`` (the
end-to-end metrics) and once with ``--trace 1`` (the per-layer metrics).
The record keeps the run's ``info`` line (rounds, raw round walls and
speed factors) beside its last-line JSON result.

The protocol round runs the paper's settings in a temporary directory,
one ``python -m modens.cli`` process per step, each timed by its wall
clock: ``generate --seed 0`` (8192/2048/2048 rows); ``train`` with 16
Cauchy members, hidden (32, 32), 300 epochs and 200 warm-up epochs;
``gamma-search`` (target 0.8, alpha 0.3) and ``report`` (alpha 0.3) on the
2048 test rows; then a 16-member Gaussian-head ``train`` and its
``gamma-search`` on the same rows.  A single wall of a sub-second step
moves with the machine's noise, so every step but ``train`` runs
``REPEATS`` times, each in a fresh process, and the record keeps every
sample beside their median (``wall_s``); the answers come from the first
run, and every later run must leave every file of the round with the
same bytes (a report's ``runtime_seconds`` aside), or the record fails.
Like the benchmark, the round runs on one CPU with one BLAS thread.  It
records walls and answers; no wall gates on it.

The file also names the machine: the core count, the Python, numpy and
scipy versions, and whether numba imports.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "modbench"))
import common  # noqa: E402  (the benchmark's one-BLAS-thread environment)

WORKLOADS = ("train", "search", "scalar", "cli")
SECONDS = 26
REPEATS = 5   # samples of each protocol step but train
SEARCH = ("--target", "0.8", "--alpha", "0.3")
TRAIN = ("--members", "16", "--hidden", "32,32", "--epochs", "300", "--seed", "0")


def machine() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "numba": importlib.util.find_spec("numba") is not None,
            "platform": platform.platform()}


def workload_run(workload: str, trace: int) -> dict:
    """One benchmark run: its exit code, its ``info`` line and its result."""
    argv = [sys.executable, "modbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    info = [line[len("info "):] for line in lines if line.startswith("info ")]
    record = {"command": " ".join(["python3", *argv[1:]]), "returncode": proc.returncode,
              "info": json.loads(info[-1]) if info else None,
              "result": json.loads(lines[-1]) if proc.returncode == 0 and lines else None}
    if proc.returncode != 0 or proc.stderr:
        record["stderr_tail"] = proc.stderr.splitlines()[-20:]
    return record


def file_digests(work: Path) -> dict:
    """sha256 of every file under ``work``, by path; a report's own wall
    clock, its ``runtime_seconds``, is left out."""
    digests = {}
    for path in sorted(work.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.suffix == ".json" and b'"runtime_seconds"' in data:
                doc = json.loads(data)
                del doc["runtime_seconds"]
                data = json.dumps(doc, sort_keys=True).encode("utf-8")
            digests[str(path.relative_to(work))] = hashlib.sha256(data).hexdigest()
    return digests


def protocol_round(work: Path) -> dict:
    """The paper's protocol, one timed CLI process per step run."""
    env = common.child_env()
    steps = {}

    def cli(step: str, *args: str, repeats: int = REPEATS) -> None:
        samples = []
        for run in range(repeats):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "modens.cli", *args], cwd=work,
                                  env=env, capture_output=True, text=True)
            samples.append(round(time.perf_counter() - t0, 3))
            if proc.returncode != 0:
                raise RuntimeError(f"{step} exited {proc.returncode}: {proc.stderr}")
            if run == 0:
                first = file_digests(work)
            elif file_digests(work) != first:
                raise RuntimeError(f"{step} run {run + 1} wrote other bytes than run 1")
        steps[step] = {"wall_s": statistics.median(samples), "samples_s": samples,
                       "argv": ["modens", *args]}

    def answer(report: str) -> dict:
        doc = json.loads((work / report).read_text(encoding="utf-8"))
        manifest = json.loads((work / f"{report}.manifest.json").read_text(encoding="utf-8"))
        return {"gamma_star": doc["gamma_star"], "achieved_coverage": doc["achieved_coverage"],
                "solved_gammas": len(manifest["solved_gammas"])}

    test = ("--test", "data/test.csv")
    cli("generate", "generate", "--seed", "0", "--out-dir", "data")
    cli("train_cauchy", "train", "--data", "data/train.csv", "--head", "cauchy", *TRAIN,
        "--warmup-epochs", "200", "--out", "cauchy.json", repeats=1)
    cli("gamma_search_cauchy", "gamma-search", "--model", "cauchy.json", *test, *SEARCH,
        "--out", "cauchy-report.json")
    cli("report_cauchy", "report", "--model", "cauchy.json", *test, "--alpha", "0.3",
        "--out-dir", "curve")
    cli("train_gaussian", "train", "--data", "data/train.csv", "--head", "gaussian", *TRAIN,
        "--out", "gaussian.json", repeats=1)
    cli("gamma_search_gaussian", "gamma-search", "--model", "gaussian.json", *test, *SEARCH,
        "--out", "gaussian-report.json")
    return {"steps": steps,
            "total_s": round(sum(step["wall_s"] for step in steps.values()), 3),
            "cauchy": answer("cauchy-report.json"),
            "gaussian": answer("gaussian-report.json")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output file's name, BENCH_<pr>.json")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.pr}.json"
    record = {"machine": machine(), "seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        record["workloads"][workload] = {
            f"trace{trace}": workload_run(workload, trace) for trace in (0, 1)}
        print(f"{workload}: done", file=sys.stderr)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix="modens-protocol-") as work:
        record["protocol"] = protocol_round(Path(work))
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
