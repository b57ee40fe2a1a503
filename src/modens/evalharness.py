"""Coverage-cost evaluation protocol.

Given a pipeline mapping a sensitivity budget gamma to per-point outcome
intervals, binary-search the smallest gamma* in [1, 50] whose coverage of
the de-confounded test outcomes reaches the target (gamma*=1 when no
budget is needed; FAILURE when even gamma=50 falls short), then score the
interval size at gamma* with one of two cost functions: absolute length
scaled to the outcome standard deviation, or mass under the empirical
outcome distribution.  ``cost_relative`` compares the mean lengths of
competing methods for ``report``; no search scores with it.

Intervals travel as ``(lo, hi)`` endpoint arrays: the search turns each
probe's intervals into arrays once, the costs and ``ExperimentReport``
read arrays, and ``run_experiment`` runs the protocol on an already
loaded test set, ensemble and propensity model.

Whether row i is covered at gamma follows from the envelope masses of its
members at the outcome y_i alone, so ``run_experiment`` hands the search a
coverage prediction (``modulated_coverage``) that needs no root-finding:
one pattern matrix and two row sums per gamma.  The bisection takes
every step from it, and intervals are solved only at the gammas the
answer rests on, whose solved coverage certifies it."""

from __future__ import annotations

import enum
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import _kernels as K
from . import mlp
from .core import OutcomeInterval, modulated_intervals_batch
from .data import Dataset
from .dist import Family
from .sensitivity import PROPENSITY_CLAMP, msm_bounds_arrays

GAMMA_MAX = 50.0   # top of the gamma* search range [1, GAMMA_MAX]


class CostKind(enum.Enum):
    ABS_STD = "abs_std"        # mean length / empirical outcome std
    MASS = "mass"              # mean empirical-CDF mass inside the interval


@dataclass(frozen=True)
class EvalConfig:
    target_coverage: float
    alpha: float
    gamma_tol: float = 0.05
    arm: int = 1
    cost_kind: CostKind = CostKind.ABS_STD

    def __post_init__(self):
        # written so that NaN fails each check
        if not 0.0 < self.target_coverage <= 1.0:
            raise ValueError(f"target_coverage must be in (0, 1], got {self.target_coverage}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.gamma_tol < math.inf:
            raise ValueError("gamma_tol must be finite and > 0")
        if self.arm not in (0, 1):
            raise ValueError("arm must be 0 or 1")

    def to_dict(self) -> dict:
        return {
            "target_coverage": self.target_coverage,
            "alpha": self.alpha,
            "gamma_tol": self.gamma_tol,
            "arm": self.arm,
            "cost_kind": self.cost_kind.value,
        }


@dataclass
class ExperimentReport:
    """gamma_star is None on FAILURE (coverage at the top of the gamma range
    never reached the target); FAILURE reports carry no coverage cost.
    ``lo`` and ``hi`` are the endpoint arrays at gamma_star, or at the top
    of the gamma range on FAILURE.  ``solved_gammas`` are the gammas whose
    intervals the search solved, in order, and ``predicted_steps`` counts
    its decisions taken from predicted coverage; neither is written to the
    report files."""

    gamma_star: float | None
    achieved_coverage: float
    coverage_cost: float | None
    mean_length: float
    lo: np.ndarray
    hi: np.ndarray
    config: dict
    seed: int | None = None
    runtime_seconds: float = 0.0
    solved_gammas: tuple[float, ...] = ()
    predicted_steps: int = 0

    def __post_init__(self):
        if self.gamma_star is None and self.coverage_cost is not None:
            raise ValueError("FAILURE reports never carry a coverage_cost")

    @property
    def failed(self) -> bool:
        return self.gamma_star is None

    def to_json_dict(self) -> dict:
        doc = {
            "config": self.config,
            "gamma_star": "FAILURE" if self.failed else self.gamma_star,
            "achieved_coverage": self.achieved_coverage,
            "mean_length": self.mean_length,
            "n_points": len(self.lo),
            "seed": self.seed,
            "runtime_seconds": self.runtime_seconds,
        }
        if not self.failed:
            doc["coverage_cost"] = self.coverage_cost
        return doc

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    def write_points_csv(self, path: str | Path, outcomes: Sequence[float]) -> None:
        y = np.asarray(outcomes, dtype=np.float64)
        covered = (self.lo <= y) & (y <= self.hi)
        lines = ["index,lo,hi,y,covered"]
        for i, (lo, hi, y_i, c) in enumerate(zip(self.lo.tolist(), self.hi.tolist(),
                                                 y.tolist(), covered.tolist())):
            lines.append(f"{i},{lo!r},{hi!r},{y_i!r},{int(c)}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def coverage(lo: np.ndarray, hi: np.ndarray, outcomes: Sequence[float]) -> float:
    """Fraction of outcomes y_i inside their closed interval [lo_i, hi_i]."""
    y = np.asarray(outcomes, dtype=np.float64)
    if len(lo) != len(y):
        raise ValueError(f"{len(lo)} intervals vs {len(y)} outcomes")
    if len(y) == 0:
        raise ValueError("empty inputs")
    return int(np.count_nonzero((lo <= y) & (y <= hi))) / len(y)


def cost_abs_std(lo: np.ndarray, hi: np.ndarray, outcome_std: float) -> float:
    """Mean interval length scaled to the empirical outcome standard deviation."""
    if outcome_std <= 0.0:
        raise ValueError("outcome_std must be > 0")
    return float(np.mean(hi - lo)) / float(outcome_std)


def cost_relative(lengths_by_method: Mapping[str, float]) -> dict[str, float]:
    """Each method's mean length divided by the smallest one, so the best
    method maps to 1.  (Reports subtract 1 to express the excess.)"""
    if not lengths_by_method:
        raise ValueError("need at least one method")
    for name, length in lengths_by_method.items():
        if not length > 0.0:
            raise ValueError(f"method {name!r} has nonpositive length {length}")
    best = min(lengths_by_method.values())
    return {name: length / best for name, length in lengths_by_method.items()}


def cost_mass(lo: np.ndarray, hi: np.ndarray, test_outcomes: Sequence[float]) -> float:
    """Mean empirical-distribution mass spanned by the intervals [lo_i, hi_i].
    The empirical CDF interpolates linearly between the order statistics
    (the k-th of n at (k-1)/(n-1)) and is flat beyond the extremes; a single
    outcome gives the step CDF, 0 below it and 1 from it on."""
    ys = np.sort(np.asarray(test_outcomes, dtype=np.float64))
    if ys.size == 0:
        raise ValueError("empty outcome sample")
    if ys.size == 1:
        return float(np.mean(np.where(hi >= ys[0], 1.0, 0.0) - np.where(lo >= ys[0], 1.0, 0.0)))
    probs = np.linspace(0.0, 1.0, ys.size)
    return float(np.mean(np.interp(hi, ys, probs) - np.interp(lo, ys, probs)))


def _cost_at(lo: np.ndarray, hi: np.ndarray, outcomes: np.ndarray,
             kind: CostKind) -> float:
    if kind is CostKind.ABS_STD:
        return cost_abs_std(lo, hi, float(np.std(outcomes)))
    return cost_mass(lo, hi, outcomes)


def gamma_star_search(pipeline: Callable[[float], Sequence[OutcomeInterval]],
                      outcomes: Sequence[float], config: EvalConfig,
                      seed: int | None = None,
                      predicted_coverage: Callable[[float], float] | None = None
                      ) -> ExperimentReport:
    """Binary search for the smallest gamma in [1, 50] reaching the coverage
    target; reports the feasible (upper) endpoint of the final bracket.

    Without ``predicted_coverage`` every bisection step solves the
    pipeline's intervals at its gamma.  With it, each step is decided by
    the predicted coverage, and only the gammas the answer rests on are
    solved: both ends of the final bracket, gamma=1 alone when it already
    reaches the target, or the top of the range alone on FAILURE.  Their
    solved coverage certifies the answer; if it disagrees with the
    prediction, the search runs again on solved coverage only, so the
    report is the one the search without a prediction gives.

    Assumes the pipeline is deterministic in gamma and coverage is
    nondecreasing in gamma (guaranteed by interval nesting).
    """
    t0 = time.perf_counter()
    outcomes = np.asarray(outcomes, dtype=np.float64)
    target = config.target_coverage
    solved: dict[float, tuple[np.ndarray, np.ndarray, float]] = {}
    predicted_steps = 0

    def probe(gamma: float) -> tuple[np.ndarray, np.ndarray, float]:
        if gamma not in solved:
            intervals = list(pipeline(gamma))
            lo = np.array([iv.lo for iv in intervals], dtype=np.float64)
            hi = np.array([iv.hi for iv in intervals], dtype=np.float64)
            solved[gamma] = (lo, hi, coverage(lo, hi, outcomes))
        return solved[gamma]

    def reaches(gamma: float) -> bool:
        nonlocal predicted_steps
        if predicted_coverage is None:
            return probe(gamma)[2] >= target
        predicted_steps += 1
        return predicted_coverage(gamma) >= target

    g_lo, g_hi = 1.0, GAMMA_MAX
    while True:
        if reaches(g_lo):
            gamma_star, decided = g_lo, {g_lo: True}
        elif not reaches(g_hi):
            gamma_star, decided = None, {g_hi: False}
        else:
            lo, hi = g_lo, g_hi
            while hi - lo > config.gamma_tol:
                mid = 0.5 * (lo + hi)
                if reaches(mid):
                    hi = mid
                else:
                    lo = mid
            gamma_star, decided = hi, {lo: False, hi: True}
        if all((probe(g)[2] >= target) == d for g, d in decided.items()):
            break
        predicted_coverage = None  # a certificate disagreed: search on solved probes

    lo, hi, cov = probe(g_hi if gamma_star is None else gamma_star)
    return ExperimentReport(
        gamma_star=gamma_star, achieved_coverage=cov,
        coverage_cost=(None if gamma_star is None
                       else _cost_at(lo, hi, outcomes, config.cost_kind)),
        mean_length=float(np.mean(hi - lo)), lo=lo, hi=hi,
        config=config.to_dict(), seed=seed,
        runtime_seconds=time.perf_counter() - t0,
        solved_gammas=tuple(solved), predicted_steps=predicted_steps)


# member family codes (m,), member locations and scales (n, m), and the
# clamped propensities of the scored arm (n,)
ScoredArm = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _scored_arm(model: mlp.EnsembleModel, propensity: mlp.MlpParams,
                covariates: np.ndarray, t: np.ndarray) -> ScoredArm:
    """Member families, the (n, m) member locations and scales for arm t[i]
    of each row i, and that arm's clamped propensities."""
    t = np.asarray(t, dtype=np.int64).ravel()
    locs, scales = mlp.predict_components_batch(model, covariates, t)
    fam_code = (Family.GAUSSIAN if model.head is mlp.Head.GAUSSIAN
                else Family.CAUCHY).code
    e1 = mlp.predict_propensity_batch(propensity, covariates)
    e_t = np.clip(np.where(t == 1, e1, 1.0 - e1),
                  PROPENSITY_CLAMP, 1.0 - PROPENSITY_CLAMP)
    return np.full(model.m, fam_code, dtype=np.int64), locs, scales, e_t


def modulated_interval_arrays(model: mlp.EnsembleModel, propensity: mlp.MlpParams,
                              covariates: np.ndarray, t: np.ndarray, alpha: float, *,
                              scored: ScoredArm | None = None
                              ) -> Callable[[float], tuple[np.ndarray, np.ndarray]]:
    """Precompute member predictions and clamped propensities for arm t[i]
    of each row i (or take them from ``scored``, the ``_scored_arm`` of
    these rows), and return the gamma -> (lo, hi) endpoint-array map."""
    fam, locs, scales, e_t = scored or _scored_arm(model, propensity, covariates, t)

    def intervals(gamma: float) -> tuple[np.ndarray, np.ndarray]:
        lowers, uppers = msm_bounds_arrays(e_t, gamma)
        return modulated_intervals_batch(fam, locs, scales, lowers, uppers, alpha)

    return intervals


def modulated_coverage(model: mlp.EnsembleModel, propensity: mlp.MlpParams,
                       covariates: np.ndarray, t: np.ndarray,
                       outcomes: Sequence[float], alpha: float, *,
                       scored: ScoredArm | None = None) -> Callable[[float], float]:
    """The gamma -> coverage map of ``modulated_interval_arrays``'s
    intervals, predicted without solving them.  The (n, m) member masses
    F_j(y_i) and S_j(y_i) = 1 - F_j(y_i) are computed and sorted along rows
    once; at each gamma, ``_kernels.covered_rows`` weighs them by each
    row's rank pattern under its MSM weight bounds.  Equal to the coverage
    of the solved intervals unless an outcome lies within the solver
    tolerance of an endpoint.  ``scored`` is as in
    ``modulated_interval_arrays``."""
    fam, locs, scales, e_t = scored or _scored_arm(model, propensity, covariates, t)
    y = np.asarray(outcomes, dtype=np.float64).ravel()
    if len(y) != len(e_t):
        raise ValueError(f"{len(e_t)} rows vs {len(y)} outcomes")
    if len(y) == 0:
        raise ValueError("empty inputs")
    cdf = np.sort(K.signed_masses(fam, locs, scales, y, 1.0), axis=1)
    sf = np.sort(K.signed_masses(fam, locs, scales, y, -1.0), axis=1)

    def predicted(gamma: float) -> float:
        covered = K.covered_rows(cdf, sf, *msm_bounds_arrays(e_t, gamma), alpha)
        return int(np.count_nonzero(covered)) / len(y)

    return predicted


def modulated_pipeline(model: mlp.EnsembleModel, propensity: mlp.MlpParams,
                       test_data: Dataset, config: EvalConfig, *,
                       scored: ScoredArm | None = None
                       ) -> Callable[[float], list[OutcomeInterval]]:
    """The gamma -> intervals map used by the search, scoring arm
    ``config.arm`` on every test row; ``scored`` is as in
    ``modulated_interval_arrays``."""
    intervals = modulated_interval_arrays(
        model, propensity, test_data.covariates, np.full(test_data.n, config.arm),
        config.alpha, scored=scored)

    def pipeline(gamma: float) -> list[OutcomeInterval]:
        lo, hi = intervals(gamma)
        return [OutcomeInterval(lo=a, hi=b, alpha=config.alpha, gamma=gamma)
                for a, b in zip(lo.tolist(), hi.tolist())]

    return pipeline


def run_experiment(test_data: Dataset, eval_config: EvalConfig, *,
                   model: mlp.EnsembleModel, propensity: mlp.MlpParams, seed: int = 0,
                   report_json: str | Path | None = None,
                   points_csv: str | Path | None = None) -> ExperimentReport:
    """End-to-end protocol on loaded objects: per-point components and MSM
    bounds for the scored arm from the trained ensemble and propensity
    model, then the gamma* search guided by ``modulated_coverage``,
    optionally writing the report JSON and the per-point CSV.  The arm is
    scored once for both.  The report is the one the search without the
    prediction gives."""
    t0 = time.perf_counter()
    if test_data.potential_outcomes is None:
        raise ValueError("test data must carry y0/y1 potential-outcome columns")
    outcomes = test_data.potential_outcomes[:, eval_config.arm]
    t = np.full(test_data.n, eval_config.arm)
    scored = _scored_arm(model, propensity, test_data.covariates, t)
    pipeline = modulated_pipeline(model, propensity, test_data, eval_config, scored=scored)
    predicted = modulated_coverage(model, propensity, test_data.covariates, t, outcomes,
                                   eval_config.alpha, scored=scored)
    report = gamma_star_search(pipeline, outcomes, eval_config, seed=seed,
                               predicted_coverage=predicted)
    report.runtime_seconds = time.perf_counter() - t0
    if report_json is not None:
        report.write_json(report_json)
    if points_csv is not None:
        report.write_points_csv(points_csv, outcomes)
    return report
