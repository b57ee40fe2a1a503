"""Weight bounds from a causal sensitivity model.

The sensitivity model is the binary-treatment marginal sensitivity model:
a violation-of-ignorability budget ``gamma >= 1`` together with a nominal
propensity ``e`` yields the admissible modulation-weight interval

    lower = e + (1/gamma) * (1 - e),   upper = e + gamma * (1 - e),

which always straddles 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Estimated propensities are clamped away from {0, 1}: exact values would
# violate overlap and collapse the bounds spuriously.
PROPENSITY_CLAMP = 1e-3


@dataclass(frozen=True)
class SensitivityConfig:
    gamma: float

    def __post_init__(self):
        g = float(self.gamma)
        if not math.isfinite(g) or g < 1.0:
            raise ValueError(f"gamma must be finite and >= 1, got {self.gamma}")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class WeightBounds:
    """Admissible per-(t, x) modulation-weight interval, 0 < lower <= 1 <= upper."""

    lower: float
    upper: float

    def __post_init__(self):
        lo = float(self.lower)
        hi = float(self.upper)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("weight bounds must be finite")
        if not (0.0 < lo <= 1.0 <= hi):
            raise ValueError(
                f"weight bounds must satisfy 0 < lower <= 1 <= upper, got ({lo}, {hi})")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


def msm_bounds(e: float, cfg: SensitivityConfig) -> WeightBounds:
    """MSM weight bounds at nominal propensity ``e`` of the queried arm.

    ``e`` must already lie in [0, 1]; clamp estimated propensities to
    [PROPENSITY_CLAMP, 1 - PROPENSITY_CLAMP] first, away from the endpoints
    where the bounds degenerate to (1, 1).
    """
    e = float(e)
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"propensity must be in [0, 1], got {e}")
    g = cfg.gamma
    return WeightBounds(lower=e + (1.0 - e) / g, upper=e + g * (1.0 - e))


def identity_bounds() -> WeightBounds:
    """The gamma=1 / ignorability case: modulation is pinned to weight 1."""
    return WeightBounds(1.0, 1.0)


def msm_bounds_arrays(e_clamped, gamma: float):
    """Vectorized MSM bound formula on already-clamped propensities.
    Returns (lower, upper) float64 arrays."""
    import numpy as np

    e = np.asarray(e_clamped, dtype=np.float64)
    if not np.all((e >= 0.0) & (e <= 1.0)):  # NaN fails both comparisons
        raise ValueError("propensities must be in [0, 1]")
    g = float(gamma)
    if not math.isfinite(g) or g < 1.0:
        raise ValueError(f"gamma must be finite and >= 1, got {g}")
    return e + (1.0 - e) / g, e + g * (1.0 - e)
