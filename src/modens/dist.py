"""Location-scale predictive distributions and weighted finite mixtures.

A ``WeightedMixture`` is the ensemble predictive law at one query point:
``F(y) = m^-1 * sum_i w_i * F_i(y)`` with nonnegative weights of mean 1,
so it stays a proper probability distribution.  Quantiles are solved by
the bracketed root-finder of ``_kernels`` (Chandrupatla's interpolation
with ITP's worst-case bound), to within half the scale-relative
tolerance of :func:`default_quantile_tol`: on the exact CDF for
beta <= 1/2, and on the exact upper-tail mass against 1 - beta above it,
where 1 - CDF would round to a multiple of ulp(1).  The mixture CDF is a
convex combination of the member CDFs, so the bracket spans the members'
own quantiles, the same rule as for the envelopes of ``core``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import _kernels as K

WEIGHT_MEAN_TOL = 1e-9
# the default quantile tolerance is this times (1 + the largest member scale)
QUANTILE_TOL_REL = 1e-9


class Family(enum.Enum):
    GAUSSIAN = "gaussian"
    CAUCHY = "cauchy"

    @property
    def code(self) -> int:
        return K.GAUSSIAN if self is Family.GAUSSIAN else K.CAUCHY


def check_beta(beta) -> float:
    """beta as a float, checked to lie in (0, 1): a quantile level."""
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    return beta


def check_weight_mean(weights) -> None:
    """Reject weights whose mean is not 1 within ``WEIGHT_MEAN_TOL``."""
    mean_w = math.fsum(weights) / len(weights)
    if abs(mean_w - 1.0) > WEIGHT_MEAN_TOL:
        raise ValueError(f"mean(weights) must be 1, got {mean_w!r}")


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ComponentDistribution:
    """One ensemble member's predictive law: a Gaussian or Cauchy with
    location/scale in outcome units.  Scale must be strictly positive;
    NaN/Inf parameters are rejected here so the per-call kernels stay
    check-free."""

    family: Family
    location: float
    scale: float

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise ValueError(f"unknown family: {self.family!r}")
        object.__setattr__(self, "location", _require_finite("location", self.location))
        object.__setattr__(self, "scale", _require_finite("scale", self.scale))
        if self.scale <= 0.0:
            raise ValueError(f"scale must be > 0, got {self.scale}")

    def cdf(self, y: float) -> float:
        y = _require_finite("y", y)
        return K.component_mass_s(self.family.code, self.location, self.scale, y)


def pack_components(components) -> tuple[list[int], list[float], list[float]]:
    """Flatten a sequence of ComponentDistribution into the parallel
    (family-code, location, scale) lists the kernels consume."""
    if len(components) == 0:
        raise ValueError("need at least one component")
    return ([c.family.code for c in components], [c.location for c in components],
            [c.scale for c in components])


@dataclass(frozen=True)
class WeightedMixture:
    """Finite mixture ``m^-1 sum_i w_i F_i`` with nonnegative weights whose
    mean is 1 (within 1e-9), so the mixture integrates to one."""

    components: tuple[ComponentDistribution, ...]
    weights: tuple[float, ...]

    def __init__(self, components, weights=None):
        components = tuple(components)
        if len(components) == 0:
            raise ValueError("mixture needs at least one component")
        if weights is None:
            weights = (1.0,) * len(components)
        weights = tuple(float(w) for w in weights)
        if len(weights) != len(components):
            raise ValueError(
                f"{len(components)} components but {len(weights)} weights")
        for w in weights:
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"weights must be finite and >= 0, got {w}")
        check_weight_mean(weights)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "weights", weights)

    def _packed(self):
        fam, loc, scale = pack_components(self.components)
        return fam, loc, scale, list(self.weights)


def default_quantile_tol(components) -> float:
    """Scale-relative quantile tolerance: 1e-9 * (1 + max component scale).
    The root-finder closes its bracket to this width and returns the
    midpoint, within tol/2 of the crossing."""
    return QUANTILE_TOL_REL * (1.0 + max(c.scale for c in components))


def mixture_pdf(mix: WeightedMixture, y: float) -> float:
    y = _require_finite("y", y)
    fam, loc, scale, w = mix._packed()
    return K.mixture_pdf_k(fam, loc, scale, w, y)


def mixture_quantile(mix: WeightedMixture, beta: float) -> float:
    beta = check_beta(beta)
    fam, loc, scale, w = mix._packed()
    return K.mixture_quantile_k(fam, loc, scale, w, beta,
                                default_quantile_tol(mix.components))
