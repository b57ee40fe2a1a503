"""Coverage-cost evaluation protocol.

Given a pipeline mapping a sensitivity budget gamma to per-point outcome
intervals, find the smallest gamma* in [1, 50] whose coverage of the
de-confounded test outcomes reaches the target (gamma*=1 when no budget
is needed; FAILURE when even gamma=50 falls short), then score the
interval size at gamma* with one of two cost functions: absolute length
scaled to the outcome standard deviation, or mass under the empirical
outcome distribution.  Row i is covered once gamma reaches its critical
budget, which follows in closed form from its members' masses at the
outcome y_i (``modulated_budgets``); ``run_experiment`` takes gamma* from
the budgets and solves intervals only at the gammas the answer rests on,
all of them in one stacked batch.

Intervals travel as ``(lo, hi)`` endpoint arrays: the search turns each
probe's intervals into arrays once, the costs and ``ExperimentReport``
read arrays, and ``run_experiment`` runs the protocol on an already
loaded test set, ensemble and propensity model."""

from __future__ import annotations

import enum
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import _kernels as K
from . import mlp
from .core import OutcomeInterval, check_alpha, modulated_intervals_batch
from .data import Dataset, write_table
from .dist import Family
from .sensitivity import PROPENSITY_CLAMP, msm_bounds_arrays

GAMMA_MAX = 50.0   # top of the gamma* search range [1, GAMMA_MAX]
# gamma* from budgets sits this relative step above the deciding budget, so
# that an outcome within solver tolerance of its endpoint there is covered
# (of 82 targets on small trained ensembles, no step failed 42, this one 0)
BUDGET_STEP = 1e-6


class CostKind(enum.Enum):
    ABS_STD = "abs_std"        # mean length / empirical outcome std
    MASS = "mass"              # mean empirical-CDF mass inside the interval


def check_arm(arm) -> None:
    """Reject an arm that is not a treatment arm, 0 or 1."""
    if arm not in (0, 1):
        raise ValueError(f"arm must be 0 or 1, got {arm!r}")


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
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        if not 0.0 < self.gamma_tol < math.inf:
            raise ValueError("gamma_tol must be finite and > 0")
        check_arm(self.arm)

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
    intervals the search solved, in order; they are not written to the
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
        write_table(path, {"index": range(len(y)), "lo": self.lo.tolist(),
                           "hi": self.hi.tolist(), "y": y.tolist(),
                           "covered": covered.astype(np.int64).tolist()})


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
                      seed: int | None = None, plan: BudgetPlan | None = None
                      ) -> ExperimentReport:
    """The smallest gamma in [1, 50] whose intervals reach the coverage
    target.  Without ``plan``, a bisection solves intervals at every step
    and reports the feasible (upper) end of its final bracket, at most
    ``gamma_tol`` wide or with adjacent floats as ends.  With it, the
    ``budget_plan`` of the rows' ``modulated_budgets``, the plan's gammas
    are probed in order; if the solved coverage at any of them disagrees
    with the plan, the bisection runs instead, as for any ``gamma_tol``
    below about 2 gamma* ``BUDGET_STEP``.

    Assumes the pipeline is deterministic in gamma and coverage is
    nondecreasing in gamma (guaranteed by interval nesting).
    """
    t0 = time.perf_counter()
    outcomes = np.asarray(outcomes, dtype=np.float64)
    target = config.target_coverage
    solved: dict[float, tuple[np.ndarray, np.ndarray, float]] = {}

    def reaches(gamma: float) -> bool:
        if gamma not in solved:
            intervals = list(pipeline(gamma))
            lo = np.array([iv.lo for iv in intervals], dtype=np.float64)
            hi = np.array([iv.hi for iv in intervals], dtype=np.float64)
            solved[gamma] = (lo, hi, coverage(lo, hi, outcomes))
        return solved[gamma][2] >= target

    if plan is not None:
        gamma_star, decided = plan
    if plan is None or not all(reaches(g) == d for g, d in decided.items()):
        if reaches(1.0):
            gamma_star = 1.0
        elif not reaches(GAMMA_MAX):
            gamma_star = None
        else:
            lo, hi = 1.0, GAMMA_MAX
            while hi - lo > config.gamma_tol:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:   # lo and hi are adjacent floats
                    break
                if reaches(mid):
                    hi = mid
                else:
                    lo = mid
            gamma_star = hi

    lo, hi, cov = solved[GAMMA_MAX if gamma_star is None else gamma_star]
    return ExperimentReport(
        gamma_star=gamma_star, achieved_coverage=cov,
        coverage_cost=(None if gamma_star is None
                       else _cost_at(lo, hi, outcomes, config.cost_kind)),
        mean_length=float(np.mean(hi - lo)), lo=lo, hi=hi,
        config=config.to_dict(), seed=seed,
        runtime_seconds=time.perf_counter() - t0,
        solved_gammas=tuple(solved))


# gamma* (None for FAILURE) and the gammas that certify it, in the order
# they are probed, each with whether it reaches the target
BudgetPlan = tuple[float | None, dict[float, bool]]


def budget_plan(budgets: np.ndarray, target: float, gamma_tol: float) -> BudgetPlan:
    """gamma* from the rows' critical budgets, and the gammas to solve with
    whether each reaches the target: gamma=1 alone when the deciding budget
    is 1, the top of the range alone (FAILURE) when it is above it, else
    the budget stepped up by ``BUDGET_STEP`` and half a tolerance (or a float) below."""
    n = len(budgets)
    # the fewest covered rows reaching the target, divided as ``coverage``
    # divides: ceil(target * n) can round one too high
    need = int(np.argmax(np.arange(n + 1) / n >= target))
    deciding = float(np.sort(budgets)[need - 1])
    if deciding <= 1.0:
        return 1.0, {1.0: True}
    if deciding > GAMMA_MAX:
        return None, {GAMMA_MAX: False}
    gamma_star = min(deciding * (1.0 + BUDGET_STEP), GAMMA_MAX)
    below = min(gamma_star - 0.5 * gamma_tol, math.nextafter(gamma_star, 0.0))
    return gamma_star, {gamma_star: True, max(1.0, below): False}


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
                              ) -> Callable[..., list[tuple[np.ndarray, np.ndarray]]]:
    """Precompute member predictions and clamped propensities for arm t[i]
    of each row i (or take them from ``scored``, the ``_scored_arm`` of
    these rows), and return ``intervals(*gammas)``, which gives one
    (lo, hi) endpoint-array pair per gamma (at least one).  It stacks the
    rows once per gamma, each copy under that gamma's bounds, and solves
    the stack as one ``modulated_intervals_batch`` call, in that
    function's 2048-row blocks.  Each row's endpoints depend on that row
    alone, so every pair has the bits of a call with its gamma alone."""
    fam, locs, scales, e_t = scored or _scored_arm(model, propensity, covariates, t)

    def intervals(*gammas: float) -> list[tuple[np.ndarray, np.ndarray]]:
        if not gammas:
            raise ValueError("intervals needs at least one gamma")
        bounds = [msm_bounds_arrays(e_t, gamma) for gamma in gammas]
        k = len(gammas)
        lo, hi = modulated_intervals_batch(
            fam, np.tile(locs, (k, 1)), np.tile(scales, (k, 1)),
            np.concatenate([lowers for lowers, _ in bounds]),
            np.concatenate([uppers for _, uppers in bounds]), alpha)
        return list(zip(np.split(lo, k), np.split(hi, k)))

    return intervals


def modulated_budgets(model: mlp.EnsembleModel, propensity: mlp.MlpParams,
                      covariates: np.ndarray, t: np.ndarray,
                      outcomes: Sequence[float], alpha: float, *,
                      scored: ScoredArm | None = None) -> np.ndarray:
    """Each row's critical budget, the smallest gamma >= 1 at which
    ``modulated_interval_arrays``'s interval covers its outcome y_i (+inf
    if none does), unless y_i lies within solver tolerance of an endpoint:
    the later of the ``_kernels.critical_budgets`` of the sorted member
    masses F_j(y_i) and S_j(y_i), both tails stacked in one pass.
    ``scored`` is as there."""
    fam, locs, scales, e_t = scored or _scored_arm(model, propensity, covariates, t)
    y = np.asarray(outcomes, dtype=np.float64).ravel()
    n = len(y)
    if n != len(e_t):
        raise ValueError(f"{len(e_t)} rows vs {n} outcomes")
    if n == 0:
        raise ValueError("empty inputs")
    masses = K.signed_masses(fam, np.tile(locs, (2, 1)), np.tile(scales, (2, 1)),
                             np.tile(y, 2), np.repeat([1.0, -1.0], n))
    budgets = K.critical_budgets(np.sort(masses, axis=1), np.tile(e_t, 2), alpha / 2.0)
    return np.maximum(budgets[:n], budgets[n:])


def modulated_pipeline(model: mlp.EnsembleModel, propensity: mlp.MlpParams,
                       test_data: Dataset, config: EvalConfig, *,
                       gammas: Sequence[float] = (), scored: ScoredArm | None = None
                       ) -> Callable[[float], list[OutcomeInterval]]:
    """The gamma -> intervals map used by the search, scoring arm
    ``config.arm`` on every test row; ``scored`` is as in
    ``modulated_interval_arrays``.  ``gammas`` are the gammas the caller
    plans to probe.  The first probe of a gamma that is not yet solved
    solves it together with every planned gamma not yet solved, as one
    stacked ``intervals`` call, and keeps the others' endpoints until
    they are probed; a later probe of any other gamma solves it alone."""
    intervals = modulated_interval_arrays(
        model, propensity, test_data.covariates, np.full(test_data.n, config.arm),
        config.alpha, scored=scored)
    planned = list(dict.fromkeys(gammas))
    pending: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def pipeline(gamma: float) -> list[OutcomeInterval]:
        if gamma not in pending:
            batch = [gamma, *(g for g in planned if g != gamma)]
            planned.clear()
            pending.update(zip(batch, intervals(*batch)))
        lo, hi = pending.pop(gamma)
        return [OutcomeInterval(lo=a, hi=b, alpha=config.alpha, gamma=gamma)
                for a, b in zip(lo.tolist(), hi.tolist())]

    return pipeline


def run_experiment(test_data: Dataset, eval_config: EvalConfig, *,
                   model: mlp.EnsembleModel, propensity: mlp.MlpParams, seed: int = 0
                   ) -> ExperimentReport:
    """End-to-end protocol on loaded objects: per-point components and MSM
    bounds for the scored arm from the trained ensemble and propensity
    model, then the gamma* search from the ``budget_plan`` of the rows'
    ``modulated_budgets``, whose gammas the pipeline solves as one stacked
    batch.  The arm is scored once for both.  The caller writes the report
    with ``write_json`` and ``write_points_csv``."""
    t0 = time.perf_counter()
    if test_data.potential_outcomes is None:
        raise ValueError("test data must carry y0/y1 potential-outcome columns")
    outcomes = test_data.potential_outcomes[:, eval_config.arm]
    t = np.full(test_data.n, eval_config.arm)
    scored = _scored_arm(model, propensity, test_data.covariates, t)
    budgets = modulated_budgets(model, propensity, test_data.covariates, t, outcomes,
                                eval_config.alpha, scored=scored)
    plan = budget_plan(budgets, eval_config.target_coverage, eval_config.gamma_tol)
    pipeline = modulated_pipeline(model, propensity, test_data, eval_config,
                                  gammas=tuple(plan[1]), scored=scored)
    report = gamma_star_search(pipeline, outcomes, eval_config, seed=seed, plan=plan)
    report.runtime_seconds = time.perf_counter() - t0
    return report
