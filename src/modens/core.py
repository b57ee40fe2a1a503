"""Partial identification of mixture quantiles over ensemble weights.

The admissible weights form the polytope {w : w_i in [lower, upper],
mean(w) = 1}.  At a fixed q the extremal mixture mass is attained at a
vertex that depends only on the rank order of the member masses F_j(q)
(see ``_kernels``), so each extreme quantile is one bracketed root search
on the sorted-rank envelope.  ``maximize_quantile``, ``minimize_quantile``
and ``outcome_interval`` run it on one row with the scalar kernel;
``modulated_intervals_batch`` runs it on many rows at once with the
row-lockstep kernel, whose endpoints agree with the scalar ones within
tol and depend on their own row alone.  ``brute_force_extreme_quantile``
enumerates every vertex as a test oracle, and ``check_optimality``
certifies a solution via the no-improving-pair condition.  Every solve
here runs at the one quantile tolerance tol = 1e-9 * (1 + the largest
member scale) (``dist.default_quantile_tol``) and lands within tol/2 of
the crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .dist import QUANTILE_TOL_REL, WEIGHT_MEAN_TOL, default_quantile_tol, pack_components
from .sensitivity import WeightBounds

_BOUND_SLACK = 1e-12
# a member-mass gap above this at the quantile is an improving transfer
OPTIMALITY_TOL_MASS = 1e-9


@dataclass(frozen=True)
class WeightVector:
    """Per-member modulation weights: each inside the governing bounds,
    mean exactly 1 (within 1e-9)."""

    weights: tuple[float, ...]

    def __init__(self, weights, bounds: WeightBounds | None = None):
        weights = tuple(float(w) for w in weights)
        if len(weights) == 0:
            raise ValueError("empty weight vector")
        if bounds is not None:
            for w in weights:
                if w < bounds.lower - _BOUND_SLACK or w > bounds.upper + _BOUND_SLACK:
                    raise ValueError(
                        f"weight {w} outside bounds ({bounds.lower}, {bounds.upper})")
        mean_w = math.fsum(weights) / len(weights)
        if abs(mean_w - 1.0) > WEIGHT_MEAN_TOL:
            raise ValueError(f"mean(weights) must be 1, got {mean_w!r}")
        object.__setattr__(self, "weights", weights)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)


@dataclass(frozen=True)
class OutcomeInterval:
    """Partially identified prediction interval with its miscoverage level
    and the sensitivity budget it was computed under."""

    lo: float
    hi: float
    alpha: float
    gamma: float = float("nan")

    def __post_init__(self):
        for name in ("lo", "hi", "alpha", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"lo={self.lo} exceeds hi={self.hi}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class CoverageBound:
    """Inputs of the finite-ensemble coverage diagnostic: ensemble size m,
    margin epsilon, miscoverage alpha, and a user-supplied bound on the
    expected weight-estimation error."""

    m: int
    epsilon: float
    alpha: float
    weight_error: float = 0.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.weight_error < 0.0:
            raise ValueError("weight_error must be >= 0")

    @property
    def failure_probability(self) -> float:
        return self.alpha + self.epsilon + 2.0 * self.weight_error


def empirical_coverage_bound(cb: CoverageBound) -> tuple[float, float]:
    """Coverage diagnostic pair: inner probability 1 - 2*exp(-m*eps^2/2)
    (floored at 0) that holds with outer failure probability
    alpha + eps + 2*weight_error.  Reported as-is; no estimation of the
    weight error is attempted."""
    inner = 1.0 - 2.0 * math.exp(-cb.m * cb.epsilon * cb.epsilon / 2.0)
    return max(inner, 0.0), cb.failure_probability


def _extreme_quantile(components, bounds: WeightBounds, beta: float,
                      maximize: bool) -> tuple[float, WeightVector]:
    if not isinstance(bounds, WeightBounds):
        raise ValueError("bounds must be a WeightBounds instance")
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    fam, loc, scale = pack_components(components)
    args = (fam, loc, scale, bounds.lower, bounds.upper)
    q = K.extreme_quantile_k(*args, beta, default_quantile_tol(components), maximize)
    return q, WeightVector(K.rank_weights_k(*args, q, maximize), bounds)


def maximize_quantile(components, bounds: WeightBounds, beta: float
                      ) -> tuple[float, WeightVector]:
    """Supremum of the weighted-mixture beta-quantile over admissible weight
    vectors, with the attaining weights."""
    return _extreme_quantile(components, bounds, beta, maximize=True)


def minimize_quantile(components, bounds: WeightBounds, beta: float
                      ) -> tuple[float, WeightVector]:
    """Infimum of the weighted-mixture beta-quantile over admissible weight
    vectors, with the attaining weights."""
    return _extreme_quantile(components, bounds, beta, maximize=False)


def outcome_interval(components, bounds: WeightBounds, alpha: float,
                     gamma: float = float("nan")) -> OutcomeInterval:
    """[min quantile(alpha/2), max quantile(1-alpha/2)] under the bounds."""
    if not isinstance(bounds, WeightBounds):
        raise ValueError("bounds must be a WeightBounds instance")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    fam, loc, scale = pack_components(components)
    lo, hi = K.interval_k(fam, loc, scale, bounds.lower, bounds.upper, alpha,
                          default_quantile_tol(components))
    return OutcomeInterval(lo=lo, hi=hi, alpha=alpha, gamma=gamma)


BRUTE_FORCE_MAX_M = 10


def brute_force_extreme_quantile(components, bounds: WeightBounds, beta: float,
                                 maximize: bool = True) -> float:
    """Exhaustive vertex enumeration oracle.

    Every extremal assignment puts a subset S at the upper bound, one
    component at the fractional value restoring mean 1, and the rest at the
    lower bound; all-vertex assignments that already hit the mean are
    included.  Cost grows as m * 2^m quantile solves, so m is capped.
    """
    m = len(components)
    if m > BRUTE_FORCE_MAX_M:
        raise ValueError(
            f"brute force refused: m={m} exceeds {BRUTE_FORCE_MAX_M} "
            f"(cost grows as m * 2^m)")
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    tol = default_quantile_tol(components)
    fam, loc, scale = pack_components(components)
    lower, upper = bounds.lower, bounds.upper

    best = None
    w = [0.0] * m
    for mask in range(1 << m):
        n_upper = bin(mask).count("1")
        base = n_upper * upper + (m - n_upper) * lower
        for i in range(m):
            w[i] = upper if (mask >> i) & 1 else lower
        candidates = []
        if abs(base - m) <= 1e-12 * m:
            candidates.append((-1, 0.0))  # all-vertex assignment
        for f in range(m):
            if (mask >> f) & 1:
                continue
            frac = m - (base - lower)
            if lower - 1e-12 <= frac <= upper + 1e-12:
                candidates.append((f, min(max(frac, lower), upper)))
        for f, frac in candidates:
            if f >= 0:
                saved = w[f]
                w[f] = frac
            q = K.mixture_quantile_k(fam, loc, scale, w, beta, tol)
            if f >= 0:
                w[f] = saved
            if best is None or (q > best if maximize else q < best):
                best = q
    assert best is not None
    return float(best)


def check_optimality(components, weights: WeightVector, bounds: WeightBounds,
                     beta: float) -> bool:
    """True iff no pair (j, k) with w_j > lower and w_k < upper has
    F_j(q) > F_k(q) + OPTIMALITY_TOL_MASS at the current beta-quantile q,
    i.e. no single weight transfer can push the quantile further up."""
    fam, loc, scale = pack_components(components)
    w = weights.as_array() if isinstance(weights, WeightVector) else \
        np.asarray(weights, dtype=np.float64)
    q = K.mixture_quantile_k(fam, loc, scale, w, float(beta),
                             default_quantile_tol(components))
    sender_mass = -np.inf
    receiver_mass = np.inf
    for i in range(len(w)):
        mass = K.component_cdf_s(fam[i], loc[i], scale[i], q)
        if w[i] > bounds.lower and mass > sender_mass:
            sender_mass = mass
        if w[i] < bounds.upper and mass < receiver_mass:
            receiver_mass = mass
    return not sender_mass > receiver_mass + OPTIMALITY_TOL_MASS


def modulated_intervals_batch(fam: np.ndarray, locs: np.ndarray,
                              scales: np.ndarray, lowers: np.ndarray,
                              uppers: np.ndarray, alpha: float
                              ) -> tuple[np.ndarray, np.ndarray]:
    """One outcome interval per row of (locs, scales), members in families
    ``fam`` (0 Gaussian, 1 Cauchy, one code per column), under per-row
    weight bounds, at the default quantile tolerance tol of the row's
    members.  All rows are solved together by the row-lockstep kernel
    (``_kernels.interval_rows``): row i lies within tol of
    ``outcome_interval`` on that row's members and bounds, both within
    tol/2 of the crossing, and depends on row i alone, so a row solves to
    the same bits alone or in any batch, in any row order."""
    fam = np.asarray(fam)
    locs = np.asarray(locs, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    lowers = np.asarray(lowers, dtype=np.float64)
    uppers = np.asarray(uppers, dtype=np.float64)
    n = len(lowers)
    if (fam.ndim != 1 or len(fam) == 0 or locs.shape != (n, len(fam))
            or scales.shape != locs.shape or lowers.shape != (n,) or uppers.shape != (n,)):
        raise ValueError(f"shape mismatch: fam {fam.shape}, locs {locs.shape}, "
                         f"scales {scales.shape}, lowers {lowers.shape}, "
                         f"uppers {uppers.shape}")
    # checked before solving: a NaN row fails every comparison of the
    # lockstep loop and would come back NaN without an error
    if not np.all((fam == K.GAUSSIAN) | (fam == K.CAUCHY)):
        raise ValueError(f"family codes must be {K.GAUSSIAN} (Gaussian) or "
                         f"{K.CAUCHY} (Cauchy), got {np.unique(fam).tolist()}")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not np.all(np.isfinite(locs)):
        raise ValueError("member locations must be finite")
    if not np.all((scales > 0.0) & (scales < np.inf)):
        raise ValueError("member scales must be finite and > 0")
    if not np.all((lowers > 0.0) & (lowers <= 1.0) & (uppers >= 1.0) & (uppers < np.inf)):
        raise ValueError("weight bounds must satisfy 0 < lower <= 1 <= upper < inf")
    if n == 0:
        return np.empty(0), np.empty(0)
    return K.interval_rows(fam.astype(np.int64), locs, scales, lowers, uppers, alpha,
                           QUANTILE_TOL_REL * (1.0 + scales.max(axis=1)))
