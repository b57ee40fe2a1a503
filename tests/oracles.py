"""Independent oracles for the test suite.

Everything here goes through scipy (or plain quadrature/bisection), not
through the package's own kernels, so agreement between the two is a real
check rather than a tautology.  The one exception is
`replicated_train_member`, which trains on the n replicated bootstrap rows
through the unweighted training path: it checks the count weighting, and
c08 checks the backpropagation it shares.  The dataset CSV writer and
reader are the plain `csv` row loops the bulk implementations in
`modens.data` must match byte for byte and bit for bit.
"""

from __future__ import annotations

import csv
import functools
import math
from pathlib import Path

import numpy as np
from scipy import integrate, optimize, stats

from modens import (ComponentDistribution, Dataset, DatasetFormatError, Family,
                    SensitivityConfig, WeightBounds, msm_bounds)
from modens import benchgen, mlp


@functools.lru_cache(maxsize=4096)
def scipy_dist(c: ComponentDistribution):
    # cached: building a frozen scipy distribution costs more than the
    # cdf call that follows, and the root-finding oracles call it per member
    # at every step
    if c.family is Family.GAUSSIAN:
        return stats.norm(loc=c.location, scale=c.scale)
    return stats.cauchy(loc=c.location, scale=c.scale)


def mixture_cdf_ref(components, weights, y: float) -> float:
    m = len(components)
    return sum(w * scipy_dist(c).cdf(y) for c, w in zip(components, weights)) / m


def mixture_pdf_ref(components, weights, y: float) -> float:
    m = len(components)
    return sum(w * scipy_dist(c).pdf(y) for c, w in zip(components, weights)) / m


def mixture_quantile_ref(components, weights, beta: float, xtol: float = 1e-12) -> float:
    lo = min(scipy_dist(c).ppf(1e-13) for c in components)
    hi = max(scipy_dist(c).ppf(1.0 - 1e-13) for c in components)
    return optimize.brentq(
        lambda y: mixture_cdf_ref(components, weights, y) - beta, lo, hi, xtol=xtol)


def mixture_sf_ref(components, weights, y: float) -> float:
    m = len(components)
    return sum(w * scipy_dist(c).sf(y) for c, w in zip(components, weights)) / m


def mixture_quantile_sf_ref(components, weights, beta: float, xtol: float = 1e-12) -> float:
    """The beta-quantile (beta > 1/2) from upper-tail masses, which stay
    accurate where 1 - cdf rounds to a multiple of ulp(1): brentq on the
    weighted survival mass against 1 - beta, bracketed by the components'
    points with upper-tail mass 2(1 - beta) and (1 - beta)/2."""
    tail = 1.0 - beta
    lo = min(scipy_dist(c).isf(2.0 * tail) for c in components)
    hi = max(scipy_dist(c).isf(0.5 * tail) for c in components)
    return optimize.brentq(
        lambda y: mixture_sf_ref(components, weights, y) - tail, lo, hi, xtol=xtol)


def empirical_cdf(test_outcomes):
    """The empirical outcome CDF of `evalharness.cost_mass`, one point at a
    time: piecewise-linear between order statistics (the k-th of n at
    (k-1)/(n-1)), flat beyond the extremes, a step for a single outcome."""
    ys = np.sort(np.asarray(test_outcomes, dtype=np.float64))
    if ys.size == 1:
        y0 = float(ys[0])
        return lambda y: 0.0 if y < y0 else 1.0
    probs = np.linspace(0.0, 1.0, ys.size)
    return lambda y: float(np.interp(y, ys, probs))


def norm_quantile_by_bisection(p: float) -> float:
    """Invert the erf-based normal CDF by plain bisection."""
    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    return optimize.bisect(lambda x: cdf(x) - p, -50.0, 50.0, xtol=1e-14)


def quadrature_mass(pdf, lo: float, hi: float) -> float:
    val, _ = integrate.quad(pdf, lo, hi, limit=400)
    return val


def random_components(rng: np.random.Generator, m: int, mixed: bool = True,
                      loc_spread: float = 3.0):
    comps = []
    for _ in range(m):
        family = Family.CAUCHY if (mixed and rng.random() < 0.5) else Family.GAUSSIAN
        comps.append(ComponentDistribution(
            family=family,
            location=float(rng.normal(0.0, loc_spread)),
            scale=float(0.2 + abs(rng.normal(0.0, 1.5)))))
    return comps


def random_bounds(rng: np.random.Generator, gamma: float) -> WeightBounds:
    e = float(rng.uniform(0.05, 0.95))
    return msm_bounds(e, SensitivityConfig(gamma))


def random_feasible_weights(rng: np.random.Generator, m: int,
                            bounds: WeightBounds, tries: int = 200) -> np.ndarray:
    """A random interior point of {w in [lower, upper]^m : mean(w) = 1},
    by drawing in the box and iteratively re-projecting onto the mean-1
    plane with clipping."""
    lo, hi = bounds.lower, bounds.upper
    w = rng.uniform(lo, hi, size=m)
    for _ in range(tries):
        w = np.clip(w + (1.0 - w.mean()), lo, hi)
        if abs(w.mean() - 1.0) < 1e-12:
            break
    # final exact correction on the slackest coordinate
    resid = m * 1.0 - w.sum()
    i = int(np.argmax((hi - w) if resid > 0 else (w - lo)))
    w[i] += resid
    return w


def replicated_train_member(data, config, seed: int):
    """`mlp.train_member` as a plain bootstrap: the same RNG draws, then
    Adam on the n resampled rows, duplicates and all, with the warm-up
    ranks, the quartile map and the final NLL taken over those n rows."""
    Head = mlp.Head
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, data.n, size=data.n)
    X = mlp._outcome_design(data)[idx]
    y = data.outcomes[idx]
    sizes = (X.shape[1], *config.hidden, 2)
    params = mlp.init_params(sizes, Head.GAUSSIAN, rng)
    if config.head is Head.GAUSSIAN:
        mu_y = float(np.mean(data.outcomes))
        sd_y = max(float(np.std(data.outcomes)), 1e-12)
        params = mlp._adam_fit(params, X, (y - mu_y) / sd_y, config.epochs, config.step)
        mlp._fold_affine(params, sd_y, mu_y)
        return params
    params = mlp._adam_fit(params, X, benchgen.rank_normalize(y),
                           config.resolved_warmup_epochs(), config.step)
    out, _ = mlp._net_forward(params, X)
    q25, q50, q75 = np.percentile(y, [25.0, 50.0, 75.0])
    r25, r50, r75 = np.percentile(out[:, 0], [25.0, 50.0, 75.0])
    slope = max((q75 - q25) / max(r75 - r25, 0.05), 1e-6)
    params.weights[-1][:, 0] *= slope
    params.biases[-1][0] = params.biases[-1][0] * slope + (q50 - slope * r50)
    params.weights[-1][:, 1] = 0.0
    params.biases[-1][1] = math.log(max((q75 - q25) / 2.0, 1e-3))
    params.head = Head.CAUCHY
    return mlp._adam_fit(params, X, y, config.epochs, config.step)


def _dataset_header(d: int, with_potential: bool) -> list[str]:
    return [f"x{i}" for i in range(1, d + 1)] + ["t", "y"] + (
        ["y0", "y1"] if with_potential else [])


def reference_save_dataset_csv(ds: Dataset, path) -> None:
    """One `csv.writer` row per data row, every float through `repr`."""
    with_potential = ds.potential_outcomes is not None
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_dataset_header(ds.d, with_potential))
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.covariates[i]]
            row.append(str(int(ds.treatments[i])))
            row.append(repr(float(ds.outcomes[i])))
            if with_potential:
                row.append(repr(float(ds.potential_outcomes[i, 0])))
                row.append(repr(float(ds.potential_outcomes[i, 1])))
            writer.writerow(row)


def reference_load_dataset_csv(path) -> Dataset:
    """`csv.reader` records parsed field by field with `float()`; rows are
    numbered as records, the header being row 1 and blank records counted.
    Plain UTF-8: a byte-order mark stays in the first header name."""
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        d = 0
        while d < len(header) and header[d] == f"x{d + 1}":
            d += 1
        if d == 0:
            raise DatasetFormatError(f"{path}: header must start with x1..xd, got {header[:3]}")
        rest = header[d:]
        if rest == ["t", "y"]:
            with_potential = False
        elif rest == ["t", "y", "y0", "y1"]:
            with_potential = True
        else:
            raise DatasetFormatError(
                f"{path}: expected columns t,y[,y0,y1] after x{d}, got {rest}")
        width = len(header)

        cov_rows: list[list[float]] = []
        t_rows: list[int] = []
        y_rows: list[float] = []
        po_rows: list[tuple[float, float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DatasetFormatError(
                    f"{path}: row {lineno}: expected {width} fields, got {len(row)}")
            try:
                cov_rows.append([float(v) for v in row[:d]])
                t_val = row[d].strip()
                if t_val not in ("0", "1"):
                    raise ValueError(f"treatment must be 0 or 1, got {t_val!r}")
                t_rows.append(int(t_val))
                y_rows.append(float(row[d + 1]))
                if with_potential:
                    po_rows.append((float(row[d + 2]), float(row[d + 3])))
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: row {lineno}: {exc}") from None
    if not cov_rows:
        raise DatasetFormatError(f"{path}: no data rows")
    return Dataset(
        covariates=np.asarray(cov_rows, dtype=np.float64),
        treatments=np.asarray(t_rows, dtype=np.int64),
        outcomes=np.asarray(y_rows, dtype=np.float64),
        potential_outcomes=np.asarray(po_rows, dtype=np.float64) if with_potential else None,
    )
