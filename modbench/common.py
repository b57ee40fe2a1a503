"""Settings shared by every script of the benchmark.

Importing this module pins BLAS/OpenMP to one thread (before numpy loads)
and puts the checkout's ``src`` directory first on ``sys.path``, so the
benchmark measures the source tree it sits in and never an installed copy.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(ONE_THREAD)
os.environ.pop("MODENS_THREADS", None)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INPUTS = BENCH_DIR / "inputs"
SEARCH_MODEL = INPUTS / "search_model.json"
SEARCH_PROPENSITY = INPUTS / "search_model.propensity.json"
SEARCH_DIGESTS = INPUTS / "digests.json"
# Everything a run leaves behind (temporary directories, traces) goes here.
OUT_DIR = ROOT / ".modbench"

if not (SRC / "modens" / "__init__.py").is_file():
    raise SystemExit(f"modbench: no modens sources under {SRC}")
sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for the child processes the benchmark measures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
