"""Output checks made apart from the program.

Nothing here calls modens.  Member predictions are recomputed from the
stored weights with an own forward pass, component CDFs come from
``scipy.stats``, and the extremal mixture masses from ``scipy.optimize.linprog``.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import optimize, special, stats

GAUSSIAN, CAUCHY = 0, 1
SCALE_FLOOR = 1e-6          # smallest member scale, as documented in modens.mlp
PROPENSITY_CLAMP = 1e-3     # propensity clamp, as documented in modens.sensitivity
QUANTILE_TOL_REL = 1e-9     # endpoint bisection tolerance: 1e-9 * (1 + max scale)
LP_MASS_TOL = 1e-9          # accuracy of the LP optimum itself


# ------------------------------------------------------------ predictions

def net_forward(weights, biases, X: np.ndarray) -> np.ndarray:
    """Sigmoid hidden layers, linear output layer."""
    a = np.asarray(X, dtype=np.float64)
    for w, b in zip(weights[:-1], biases[:-1]):
        a = special.expit(a @ np.asarray(w) + np.asarray(b))
    return a @ np.asarray(weights[-1]) + np.asarray(biases[-1])


def member_components(members, X: np.ndarray, t: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(n, m) locations and scales of outcome-head members at (x, t)."""
    rows = np.column_stack([X, np.asarray(t, dtype=np.float64)])
    outs = [net_forward(w, b, rows) for w, b in members]
    locs = np.column_stack([o[:, 0] for o in outs])
    scales = np.column_stack([np.maximum(np.exp(np.minimum(o[:, 1], 300.0)), SCALE_FLOOR)
                              for o in outs])
    return locs, scales


def propensity(weights, biases, X: np.ndarray) -> np.ndarray:
    return special.expit(net_forward(weights, biases, X)[:, 0])


def read_model_json(path: Path) -> tuple[str, list[tuple[list, list]]]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return doc["head"], [(m["weights"], m["biases"]) for m in doc["members"]]


def msm_bounds(e: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Marginal sensitivity model weight bounds at clamped propensity e."""
    e = np.clip(e, PROPENSITY_CLAMP, 1.0 - PROPENSITY_CLAMP)
    return e + (1.0 - e) / gamma, e + gamma * (1.0 - e)


# ----------------------------------------------------- endpoint LP check

def component_cdf(fam: np.ndarray, loc: np.ndarray, scale: np.ndarray,
                  y: float) -> np.ndarray:
    return np.where(np.asarray(fam) == GAUSSIAN,
                    stats.norm.cdf(y, loc=loc, scale=scale),
                    stats.cauchy.cdf(y, loc=loc, scale=scale))


def extreme_mass(fam, loc, scale, lower: float, upper: float, y: float,
                 maximize: bool) -> float:
    """max (or min) over w in [lower, upper]^m with mean(w) = 1 of the
    weighted-mixture CDF m^-1 sum_j w_j F_j(y), solved as an LP."""
    F = component_cdf(fam, loc, scale, y)
    m = F.shape[0]
    c = (-F if maximize else F) / m
    res = optimize.linprog(
        c, A_eq=np.ones((1, m)), b_eq=[float(m)], bounds=[(lower, upper)] * m,
        method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                 "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return -res.fun if maximize else res.fun


def mass_tolerance(fam, scale, upper: float) -> float:
    """How far the extremal mass may stray when the endpoint is off by the
    bisection tolerance: that tolerance times the steepest weighted
    mixture density, plus the LP's own accuracy."""
    scale = np.asarray(scale, dtype=np.float64)
    peak = np.where(np.asarray(fam) == GAUSSIAN,
                    1.0 / (scale * math.sqrt(2.0 * math.pi)), 1.0 / (math.pi * scale))
    tol_q = QUANTILE_TOL_REL * (1.0 + float(scale.max()))
    return 2.0 * tol_q * upper * float(peak.max()) + LP_MASS_TOL


def endpoint_residuals(fam, loc, scale, lower: float, upper: float,
                       lo: float | None, hi: float | None, beta_lo: float,
                       beta_hi: float) -> tuple[float, float]:
    """(worst residual, its tolerance) of the optimality conditions
    max_w F_w(lo) = beta_lo and min_w F_w(hi) = beta_hi."""
    worst = 0.0
    if lo is not None:
        worst = max(worst, abs(extreme_mass(fam, loc, scale, lower, upper, lo, True)
                               - beta_lo))
    if hi is not None:
        worst = max(worst, abs(extreme_mass(fam, loc, scale, lower, upper, hi, False)
                               - beta_hi))
    return worst, mass_tolerance(fam, scale, upper)


class ResidualLog:
    """Collects endpoint residuals and the problems they reveal."""

    def __init__(self):
        self.worst = 0.0
        self.checked = 0
        self.problems: list[str] = []

    def add(self, what: str, residual: float, tol: float) -> None:
        self.checked += 1
        self.worst = max(self.worst, residual)
        if not residual <= tol:
            self.problems.append(f"{what}: LP residual {residual:.3e} > tolerance {tol:.3e}")


# ------------------------------------------------------------- search

def check_search(report, probes: list[tuple[float, np.ndarray, np.ndarray]],
                 fam: np.ndarray, locs: np.ndarray, scales: np.ndarray,
                 e_arm: np.ndarray, outcomes: np.ndarray, target: float,
                 alpha: float, gamma_tol: float, sample: np.ndarray,
                 log: ResidualLog) -> list[str]:
    """gamma* strictly inside (1, 50), coverage and cost recomputed from the
    endpoints, the bracket below gamma*, nesting across the probed gammas,
    and the LP conditions on every row at gamma* and on ``sample`` rows at
    every other probe."""
    problems = []
    gamma_star = report.gamma_star
    if gamma_star is None or not 1.0 < gamma_star < 50.0:
        return [f"gamma* = {gamma_star} is not strictly inside (1, 50)"]
    by_gamma = {g: (lo, hi) for g, lo, hi in probes}
    if gamma_star not in by_gamma:
        return [f"gamma* = {gamma_star} was never probed"]
    lo, hi = by_gamma[gamma_star]
    covered = float(np.mean((lo <= outcomes) & (outcomes <= hi)))
    if covered < target:
        problems.append(f"coverage {covered} at gamma* is below the target {target}")
    if covered != report.achieved_coverage:
        problems.append(f"reported coverage {report.achieved_coverage} != {covered}")
    cost = float(np.mean(hi - lo)) / float(np.std(outcomes))
    if not math.isclose(cost, report.coverage_cost, rel_tol=1e-12):
        problems.append(f"reported cost {report.coverage_cost} != recomputed {cost}")
    below = [g for g in by_gamma if g < gamma_star]
    if not below or gamma_star - max(below) > gamma_tol + 1e-12:
        problems.append("no probe within gamma_tol below gamma*")
    else:
        blo, bhi = by_gamma[max(below)]
        if float(np.mean((blo <= outcomes) & (outcomes <= bhi))) >= target:
            problems.append(f"gamma={max(below)} below gamma* already reaches the target")

    tol_q = QUANTILE_TOL_REL * (1.0 + scales.max(axis=1))
    ordered = sorted(by_gamma)
    for g0, g1 in zip(ordered[:-1], ordered[1:]):
        lo0, hi0 = by_gamma[g0]
        lo1, hi1 = by_gamma[g1]
        if np.any(lo1 > lo0 + 2 * tol_q) or np.any(hi1 < hi0 - 2 * tol_q):
            problems.append(f"intervals at gamma={g1} do not contain those at gamma={g0}")

    for g in ordered:
        glo, ghi = by_gamma[g]
        lower, upper = msm_bounds(e_arm, g)
        rows = range(len(glo)) if g == gamma_star else sample
        for i in rows:
            res, tol = endpoint_residuals(fam, locs[i], scales[i], lower[i], upper[i],
                                          glo[i], ghi[i], alpha / 2, 1 - alpha / 2)
            log.add(f"gamma={g} row {i}", res, tol)
    return problems + log.problems


# ------------------------------------------------------------- scalar

def check_weights(weights, lower: float, upper: float, fam, loc, scale,
                  q: float, beta: float, tol: float) -> list[str]:
    """Returned weights are admissible and put mass beta below q."""
    w = np.asarray(weights, dtype=np.float64)
    problems = []
    if w.min() < lower - 1e-12 or w.max() > upper + 1e-12:
        problems.append("weights outside their bounds")
    if abs(w.mean() - 1.0) > 1e-9:
        problems.append(f"weights have mean {w.mean()!r}")
    mass = float(np.dot(w, component_cdf(fam, loc, scale, q))) / w.shape[0]
    if abs(mass - beta) > tol:
        problems.append(f"F_w(q) = {mass!r}, expected {beta!r}")
    return problems


# -------------------------------------------------------------- train

def mixture_nll(members, X: np.ndarray, t: np.ndarray, y: np.ndarray) -> float:
    """Mean held-out negative log-likelihood of the equal-weight Cauchy
    mixture of the members."""
    locs, scales = member_components(members, X, t)
    logpdf = stats.cauchy.logpdf(y[:, None], loc=locs, scale=scales)
    return float(-np.mean(special.logsumexp(logpdf, axis=1) - math.log(locs.shape[1])))


def baseline_nll(train_y: np.ndarray, y: np.ndarray) -> float:
    """NLL of one Cauchy at the train median with half the train IQR as scale."""
    q25, q50, q75 = np.percentile(train_y, [25.0, 50.0, 75.0])
    return float(-np.mean(stats.cauchy.logpdf(y, loc=q50, scale=(q75 - q25) / 2.0)))


def log_loss(p: np.ndarray, t: np.ndarray) -> float:
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(t * np.log(p) + (1 - t) * np.log1p(-p)))


def check_train(members, prop, train, valid) -> tuple[list[str], float]:
    """(problems, held-out mixture NLL)."""
    problems = []
    nll = mixture_nll(members, valid.covariates, valid.treatments, valid.outcomes)
    base = baseline_nll(train.outcomes, valid.outcomes)
    if not nll < base:
        problems.append(f"held-out mixture NLL {nll:.4f} is not below the "
                        f"single-Cauchy baseline {base:.4f}")
    p = propensity(prop[0], prop[1], valid.covariates)
    loss = log_loss(p, valid.treatments)
    rate = float(np.mean(train.treatments))
    base_loss = log_loss(np.full(valid.n, rate), valid.treatments)
    if not loss < base_loss:
        problems.append(f"propensity log-loss {loss:.4f} is not below the "
                        f"base-rate log-loss {base_loss:.4f}")
    return problems, nll


# ---------------------------------------------------------------- cli

def read_csv_floats(path: Path) -> tuple[list[str], np.ndarray, list[str]]:
    """Header, the values as a float matrix, and every field that float()
    cannot read."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows, bad = [], []
        for lineno, row in enumerate(reader, start=2):
            values = []
            for field_ in row:
                try:
                    values.append(float(field_))
                except ValueError:
                    bad.append(f"{Path(path).name}:{lineno}: {field_!r}")
                    values.append(math.nan)
            rows.append(values)
    return header, np.asarray(rows, dtype=np.float64), bad


def check_dataset_csv(path: Path, expected) -> list[str]:
    """The CSV holds exactly (bit for bit) the expected dataset."""
    header, values, bad = read_csv_floats(path)
    if bad:
        return [f"unparseable values, first {bad[0]}"]
    d = expected.d
    problems = []
    want_header = [f"x{i}" for i in range(1, d + 1)] + ["t", "y"]
    if expected.potential_outcomes is not None:
        want_header += ["y0", "y1"]
    if header != want_header:
        return [f"{path.name}: header {header[:3]}... != {want_header[:3]}..."]
    if values.shape != (expected.n, len(want_header)):
        return [f"{path.name}: shape {values.shape}"]
    columns = [(values[:, :d], expected.covariates),
               (values[:, d], expected.treatments.astype(np.float64)),
               (values[:, d + 1], expected.outcomes)]
    if expected.potential_outcomes is not None:
        columns.append((values[:, d + 2:], expected.potential_outcomes))
    for got, want in columns:
        if not np.array_equal(got, want):
            problems.append(f"{path.name}: values differ from generate_dataset")
            break
    return problems


def check_cli_outputs(work: Path, train, valid, test, target: float) -> list[str]:
    problems = []
    for name, ds in (("train", train), ("valid", valid), ("test", test)):
        problems += check_dataset_csv(work / "data" / f"{name}.csv", ds)

    header, iv, bad = read_csv_floats(work / "intervals.csv")
    problems += [f"unparseable value {b}" for b in bad[:1]]
    if header != ["index", "t", "lo", "hi"] or iv.shape != (test.n, 4):
        problems.append(f"intervals.csv: header {header}, shape {iv.shape}")
    elif not (np.array_equal(iv[:, 0], np.arange(test.n))
              and np.array_equal(iv[:, 1], test.treatments)
              and np.all(iv[:, 2] <= iv[:, 3])):
        problems.append("intervals.csv: rows out of order, wrong arm, or lo > hi")

    header, pts, bad = read_csv_floats(work / "report.points.csv")
    problems += [f"unparseable value {b}" for b in bad[:1]]
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    y1 = test.potential_outcomes[:, 1]
    if header != ["index", "lo", "hi", "y", "covered"] or pts.shape != (test.n, 5):
        problems.append(f"report.points.csv: header {header}, shape {pts.shape}")
    else:
        covered = (pts[:, 1] <= y1) & (y1 <= pts[:, 2])
        if not np.array_equal(pts[:, 3], y1) or not np.array_equal(pts[:, 4], covered):
            problems.append("report.points.csv: y or covered disagree with test y1")
        if report["achieved_coverage"] != float(np.mean(covered)):
            problems.append(f"report.json coverage {report['achieved_coverage']} != "
                            f"recomputed {float(np.mean(covered))}")
        if report["gamma_star"] != "FAILURE" and float(np.mean(covered)) < target:
            problems.append("report.json: gamma* found but coverage below the target")

    header, curve, bad = read_csv_floats(work / "report" / "coverage_curve.csv")
    problems += [f"unparseable value {b}" for b in bad[:1]]
    if header != ["gamma", "coverage", "mean_length", "cost_mass"] or curve.shape[0] < 1:
        problems.append(f"coverage_curve.csv: header {header}")
    elif np.any(np.diff(curve[:, 1]) < 0) or np.any(np.diff(curve[:, 2]) < 0):
        problems.append("coverage_curve.csv: coverage or length falls as gamma grows")
    return problems
