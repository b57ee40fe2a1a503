"""The four workloads.  Each one builds its inputs from the seed in
``setup``, runs whole rounds of the same operations in ``run_round``, and
checks the program's outputs in ``check`` (after the timed part).

Why these workloads and these sizes is written down in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import common  # first: pins BLAS to one thread before numpy loads

import numpy as np

from modens import benchgen, cli, core, data, dist, evalharness, mlp, sensitivity
from modens.data import Dataset


def _digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _members(model: mlp.EnsembleModel) -> list[tuple[list, list]]:
    return [(p.weights, p.biases) for p in model.members]


class Workload:
    """One workload: its inputs, its round of operations and its checks.
    ``reference`` holds the per-layer figures that come from the checks
    (NLL, residuals, gamma*); ``info`` is printed but not compared."""

    name = ""
    # Whether the reported times are scaled to the reference speed (run.py).
    speed_scaled = True

    def __init__(self, seed: int, quick: bool, tracer=None):
        self.seed = seed
        self.quick = quick
        self.tracer = tracer
        self.reference: dict[str, float] = {}
        self.info: dict = {}

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        pass

    def run_round(self) -> tuple[int, int]:
        raise NotImplementedError

    def after_round(self) -> None:
        """Untimed bookkeeping after each round."""

    def check(self) -> list[str]:
        raise NotImplementedError

    def trace_points(self) -> list[tuple]:
        """(owner, attribute, span name[, counts]) of the functions the traced
        run wraps."""
        return []

    def close(self) -> None:
        pass

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


# ------------------------------------------------------------------ train

class Train(Workload):
    """16 Cauchy-head members and the propensity model on the 8192-row
    train split generated from the seed."""

    name = "train"
    # Training is BLAS and array work, which the reference computation does
    # not stand for: over ten seeds, scaling spread run_s over 0.25 of its
    # median where the raw times spread 0.13.  A reference made of the
    # same BLAS products, timed only at the ends of the 11 s rounds, did
    # no better: 0.12 scaled against 0.09 raw.
    speed_scaled = False
    MEMBER_CONFIG = mlp.TrainConfig(hidden=(32, 32), epochs=16, warmup_epochs=8,
                                    head=mlp.Head.CAUCHY)
    QUICK_MEMBER_CONFIG = mlp.TrainConfig(hidden=(32, 32), epochs=60, warmup_epochs=30,
                                          head=mlp.Head.CAUCHY)
    # At 20 epochs the propensity net was still near its initial guess: on
    # seed 25 its held-out log-loss (0.6354) was above the base rate's
    # (0.6304).  At 100 epochs it is at least 0.23 nats below the base rate
    # on seeds 1 to 79.
    PROPENSITY_CONFIG = mlp.TrainConfig(hidden=(16,), epochs=100)

    def __init__(self, seed, quick, tracer=None):
        super().__init__(seed, quick, tracer)
        self.members = 4 if quick else 16
        self.member_config = self.QUICK_MEMBER_CONFIG if quick else self.MEMBER_CONFIG
        self.generator = benchgen.GeneratorConfig(
            seed=seed, **({"n_train": 1024, "n_valid": 512, "n_test": 16} if quick else {}))
        self.digests: list[str] = []

    def setup(self):
        self.train, self.valid, _ = benchgen.generate_dataset(None, self.generator)

    def warmup(self):
        mlp.train_member(self.train, mlp.TrainConfig(hidden=(32, 32), epochs=1,
                                                     head=mlp.Head.CAUCHY), self.seed)

    def run_round(self):
        self.model = mlp.train_ensemble(self.train, self.member_config, self.seed,
                                        m=self.members)
        self.prop = mlp.fit_propensity(self.train, self.PROPENSITY_CONFIG, self.seed)
        return self.members + 1, 0

    def after_round(self):
        arrays = [a for p in (*self.model.members, self.prop)
                  for a in (*p.weights, *p.biases)]
        self.digests.append(_digest_arrays(arrays))

    def check(self):
        import checks

        problems = []
        if self.model.m != self.members:
            problems.append(f"{self.model.m} members fitted, expected {self.members}")
        if len(set(self.digests)) != 1:
            problems.append("rounds of the same training gave different models")
        found, nll = checks.check_train(_members(self.model),
                                        (self.prop.weights, self.prop.biases),
                                        self.train, self.valid)
        self.reference["mlp.valid_nll"] = nll
        self.info["model_digest"] = self.digests[0]
        return problems + found

    def trace_points(self):
        return [(mlp, "train_member", "mlp.train_member"),
                (mlp, "fit_propensity", "mlp.fit_propensity"),
                (mlp, "nll_and_grads", "mlp.nll_and_grads", _epoch_flops),
                (benchgen, "generate_dataset", "benchgen.generate_dataset")]


def _epoch_flops(args, result) -> dict:
    """Multiply-adds of one full-batch forward and backward pass, counted
    as 6 * rows * sum(fan_in * fan_out) floating-point operations."""
    params, X = args[0], args[1]
    sizes = params.layer_sizes
    return {"flops": 6.0 * X.shape[0] * sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))}


# ----------------------------------------------------------------- search

class Search(Workload):
    """The gamma* search on the stored pre-trained ensemble over a fixed
    slice of the c06 test split (generator seed 0)."""

    name = "search"
    ROWS = slice(0, 64)
    TARGET = 0.8
    ALPHA = 0.3
    LP_SAMPLE = 8

    def __init__(self, seed, quick, tracer=None):
        super().__init__(seed, quick, tracer)
        self.config = evalharness.EvalConfig(target_coverage=self.TARGET, alpha=self.ALPHA,
                                             arm=1)
        self.first = None
        self.outcomes: set[tuple] = set()
        self._probes: list[tuple[float, np.ndarray, np.ndarray]] = []
        self._original_pipeline = evalharness.modulated_pipeline
        # Records each probed gamma and its endpoints: the probe count is the
        # workload's operation count, and the endpoints are checked for nesting.
        evalharness.modulated_pipeline = self._recording_pipeline

    def _recording_pipeline(self, *args, **kwargs):
        pipeline = self._original_pipeline(*args, **kwargs)

        def probe(gamma):
            intervals = pipeline(gamma)
            self._probes.append((gamma, np.array([iv.lo for iv in intervals]),
                                 np.array([iv.hi for iv in intervals])))
            return intervals

        return probe

    def close(self):
        evalharness.modulated_pipeline = self._original_pipeline

    def setup(self):
        recorded = json.loads(common.SEARCH_DIGESTS.read_text(encoding="utf-8"))
        for path in (common.SEARCH_MODEL, common.SEARCH_PROPENSITY):
            if common.sha256_file(path) != recorded[path.name]:
                raise SystemExit(f"modbench: {path.name} does not match its recorded "
                                 f"digest; remake it with make_inputs.py")
        self.model = mlp.load_model(common.SEARCH_MODEL)
        self.prop = mlp.load_propensity(common.SEARCH_PROPENSITY)
        _, _, test = benchgen.generate_dataset(None, benchgen.GeneratorConfig(seed=0))
        rows = self.ROWS
        self.test = Dataset(test.covariates[rows], test.treatments[rows], test.outcomes[rows],
                            test.potential_outcomes[rows])

    def warmup(self):
        evalharness.modulated_interval_arrays(self.model, self.prop, self.test.covariates[:4],
                                              np.ones(4), self.ALPHA)(2.0)

    def run_round(self):
        self._probes = []
        self.report = evalharness.run_experiment(
            self.test, self.config, model=self.model, propensity=self.prop, seed=self.seed)
        return len(self._probes), 0

    def after_round(self):
        outcome = (self.report.gamma_star, self.report.achieved_coverage,
                   self.report.coverage_cost)
        if self.first is None:
            self.first = (self.report, self._probes)
        self.outcomes.add(outcome)

    def check(self):
        import checks

        report, probes = self.first
        problems = []
        if len(self.outcomes) != 1:
            problems.append("rounds of the same search disagree")
        head, members = checks.read_model_json(common.SEARCH_MODEL)
        _, prop = checks.read_model_json(common.SEARCH_PROPENSITY)
        X = self.test.covariates
        locs, scales = checks.member_components(members, X, np.ones(self.test.n))
        fam = np.full(len(members), checks.CAUCHY if head == "cauchy" else checks.GAUSSIAN)
        e1 = checks.propensity(prop[0][0], prop[0][1], X)
        sample = np.random.default_rng(self.seed).choice(
            self.test.n, size=min(self.LP_SAMPLE, self.test.n), replace=False)
        log = checks.ResidualLog()
        problems += checks.check_search(
            report, probes, fam, locs, scales, e1, self.test.potential_outcomes[:, 1],
            self.TARGET, self.ALPHA, self.config.gamma_tol, sample, log)
        self.reference.update({
            "core.check_residual_max": log.worst,
            "evalharness.gamma_star": report.gamma_star or 0.0,
            "evalharness.coverage": report.achieved_coverage,
            "evalharness.cost_abs_std": report.coverage_cost or 0.0})
        self.info.update(gamma_star=report.gamma_star, coverage=report.achieved_coverage,
                         cost_abs_std=report.coverage_cost, probes=len(probes),
                         lp_checked=log.checked)
        return problems

    def trace_points(self):
        return [(mlp, "load_model", "mlp.load_model"),
                (mlp, "load_propensity", "mlp.load_propensity"),
                (mlp, "predict_components_batch", "mlp.predict_components_batch"),
                (mlp, "predict_propensity_batch", "mlp.predict_propensity_batch"),
                (sensitivity, "msm_bounds_arrays", "sensitivity.msm_bounds_arrays"),
                (core, "modulated_intervals_batch", "core.modulated_intervals_batch",
                 _batch_rows),
                (evalharness, "gamma_star_search", "evalharness.gamma_star_search"),
                (evalharness, "modulated_pipeline", "evalharness.modulated_pipeline", None,
                 "evalharness.probe"),
                (benchgen, "generate_dataset", "benchgen.generate_dataset")]


def _batch_rows(args, result) -> dict:
    return {"rows": len(result[0])}


# ----------------------------------------------------------------- scalar

class Scalar(Workload):
    """Single-interval calls on seeded random ensembles: Gaussian and
    Cauchy members in equal shares, m from 2 to 10, varied gamma, alpha and
    quantile rank."""

    name = "scalar"
    CASES = 405
    LP_SAMPLE = 40

    def __init__(self, seed, quick, tracer=None):
        super().__init__(seed, quick, tracer)
        self.cases_n = 18 if quick else self.CASES
        self.first = None
        self.latest = None
        self.digests: list[str] = []

    def setup(self):
        # Every seed gets the same mix: m cycles through 2..10, and gamma,
        # alpha, the propensity and the quantile ranks are stratified over
        # their ranges, so the seed moves the values but not the amount of work.
        rng = np.random.default_rng(self.seed)
        n = self.cases_n

        def strata(lo, hi):
            return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n

        log_gamma = strata(0.0, math.log(20.0))
        alpha, e = strata(0.02, 0.4), strata(0.05, 0.95)
        beta_max, beta_min = strata(0.05, 0.95), strata(0.05, 0.95)
        self.cases = []
        for k in range(n):
            m = 2 + k % 9
            self.cases.append({
                "fam": rng.permutation(np.arange(m) % 2),
                "loc": rng.normal(0.0, 3.0, size=m),
                "scale": 0.2 + np.abs(rng.normal(0.0, 1.5, size=m)),
                "e": float(e[k]),
                "gamma": float(math.exp(log_gamma[k])),
                "alpha": float(alpha[k]),
                "beta_max": float(beta_max[k]),
                "beta_min": float(beta_min[k]),
            })

    def warmup(self):
        self._solve(self.cases[: min(5, len(self.cases))])

    def _solve(self, cases) -> tuple[list, int]:
        families = (dist.Family.GAUSSIAN, dist.Family.CAUCHY)
        out, failed = [], 0
        for c in cases:
            with self._span("dist.build"):
                comps = [dist.ComponentDistribution(families[f], loc, scale)
                         for f, loc, scale in zip(c["fam"].tolist(), c["loc"].tolist(),
                                                  c["scale"].tolist())]
            bounds = sensitivity.msm_bounds(c["e"], sensitivity.SensitivityConfig(c["gamma"]))
            row = []
            for call in (lambda: core.outcome_interval(comps, bounds, c["alpha"],
                                                       gamma=c["gamma"]),
                         lambda: core.maximize_quantile(comps, bounds, c["beta_max"]),
                         lambda: core.minimize_quantile(comps, bounds, c["beta_min"])):
                try:
                    row.append(call())
                except (ValueError, ArithmeticError) as exc:
                    failed += 1
                    row.append(exc)
            out.append((bounds, row))
        return out, failed

    def run_round(self):
        self.latest, failed = self._solve(self.cases)
        return 3 * len(self.cases), failed

    def after_round(self):
        # Keep the first round's results for the checks and only a digest of
        # the others, so memory does not grow with the number of rounds.
        if self.first is None:
            self.first = self.latest
        self.digests.append(self._digest(self.latest))
        self.latest = None

    @staticmethod
    def _digest(results) -> str:
        h = hashlib.sha256()
        for bounds, row in results:
            h.update(repr((bounds.lower, bounds.upper)).encode())
            for r in row:
                h.update(repr(r if isinstance(r, Exception) else
                              (r.lo, r.hi) if isinstance(r, core.OutcomeInterval) else
                              (r[0], r[1].weights)).encode())
        return h.hexdigest()

    def check(self):
        import checks

        problems = []
        if len(set(self.digests)) != 1:
            problems.append("rounds of the same calls gave different results")
        first = self.first
        log = checks.ResidualLog()
        sample = np.random.default_rng(self.seed + 1).choice(
            len(self.cases), size=min(self.LP_SAMPLE, len(self.cases)), replace=False)
        for k in sorted(sample.tolist()):
            c, (bounds, row) = self.cases[k], first[k]
            if any(isinstance(x, Exception) for x in row):
                continue
            args = (c["fam"], c["loc"], c["scale"], bounds.lower, bounds.upper)
            iv, (q_max, w_max), (q_min, w_min) = row
            res, tol = checks.endpoint_residuals(*args, iv.lo, iv.hi, c["alpha"] / 2,
                                                 1 - c["alpha"] / 2)
            log.add(f"case {k} outcome_interval", res, tol)
            res, tol = checks.endpoint_residuals(*args, None, q_max, 0.0, c["beta_max"])
            log.add(f"case {k} maximize_quantile", res, tol)
            res, tol = checks.endpoint_residuals(*args, q_min, None, c["beta_min"], 0.0)
            log.add(f"case {k} minimize_quantile", res, tol)
            for q, w, beta in ((q_max, w_max, c["beta_max"]), (q_min, w_min, c["beta_min"])):
                problems += [f"case {k}: {p}" for p in checks.check_weights(
                    w.weights, bounds.lower, bounds.upper, c["fam"], c["loc"], c["scale"],
                    q, beta, tol)]
        self.reference["core.check_residual_max"] = log.worst
        self.info["lp_checked"] = log.checked
        return problems + log.problems

    def trace_points(self):
        return [(sensitivity, "msm_bounds", "sensitivity.msm_bounds"),
                (core, "outcome_interval", "core.outcome_interval"),
                (core, "maximize_quantile", "core.maximize_quantile"),
                (core, "minimize_quantile", "core.minimize_quantile")]


# -------------------------------------------------------------------- cli

class Cli(Workload):
    """The README quick-start chain, one ``python -m modens.cli`` process
    per subcommand, in a fresh directory per round."""

    name = "cli"
    SUBCOMMANDS = ("generate", "train", "intervals", "gamma-search", "report")
    TARGET = 0.9
    OUTPUTS = ("data/train.csv", "data/valid.csv", "data/test.csv", "model.json",
               "model.propensity.json", "intervals.csv", "report.points.csv",
               "report/coverage_curve.csv")

    def __init__(self, seed, quick, tracer=None):
        super().__init__(seed, quick, tracer)
        self.base = common.OUT_DIR / "tmp" / f"cli-{seed}-{id(self):x}"
        self.round_dirs: list[Path] = []
        self.digests: list[str] = []
        self.failures: list[str] = []

    def chain(self) -> list[list[str]]:
        s = str(self.seed)
        gen = ["generate", "--seed", s, "--out-dir", "data"]
        if self.quick:
            gen += ["--config", str(self.base / "quick.json")]
        return [
            gen,
            ["train", "--seed", s, "--data", "data/train.csv", "--head", "cauchy",
             "--hidden", "8", "--epochs", "10", "--members", "2", "--out", "model.json"],
            ["intervals", "--model", "model.json", "--data", "data/test.csv",
             "--gamma", "2", "--alpha", "0.1", "--out", "intervals.csv"],
            ["gamma-search", "--model", "model.json", "--test", "data/test.csv",
             "--target", str(self.TARGET), "--cost", "abs_std", "--out", "report.json"],
            ["report", "--model", "model.json", "--test", "data/test.csv",
             "--gammas", "1,2", "--out-dir", "report"],
        ]

    QUICK_SIZES = {"n_train": 512, "n_valid": 128, "n_test": 128}

    def setup(self):
        self.base.mkdir(parents=True, exist_ok=True)
        if self.quick:
            (self.base / "quick.json").write_text(json.dumps(self.QUICK_SIZES))

    def run_round(self):
        work = self.base / f"round{len(self.round_dirs)}"
        work.mkdir()
        self.round_dirs.append(work)
        failed = 0
        for argv in self.chain():
            if failed:                     # later steps need the earlier outputs
                failed += 1
                continue
            if self.tracer:
                with self._span("cli." + argv[0].replace("-", "_")), \
                        contextlib.redirect_stdout(io.StringIO()), contextlib.chdir(work):
                    code = cli.main(argv)
                err = ""
            else:
                proc = subprocess.run([sys.executable, "-m", "modens.cli", *argv],
                                      cwd=work, env=common.child_env(),
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      text=True)
                code, err = proc.returncode, proc.stderr.strip()
            if code != 0:
                failed += 1
                self.failures.append(f"{argv[0]} exited with {code}: {err}")
        return len(self.SUBCOMMANDS), failed

    def after_round(self):
        work = self.round_dirs[-1]
        h = hashlib.sha256()
        for name in self.OUTPUTS:
            path = work / name
            h.update(path.read_bytes() if path.exists() else b"missing")
        report = work / "report.json"
        if report.exists():
            doc = json.loads(report.read_text(encoding="utf-8"))
            doc.pop("runtime_seconds", None)
            h.update(json.dumps(doc, sort_keys=True).encode())
        self.digests.append(h.hexdigest())
        if len(self.round_dirs) > 1:
            shutil.rmtree(work)

    def check(self):
        import checks

        if self.failures:
            return self.failures[:3]
        problems = []
        if len(set(self.digests)) != 1:
            problems.append("rounds of the same chain wrote different outputs")
        config = benchgen.GeneratorConfig(seed=self.seed,
                                          **(self.QUICK_SIZES if self.quick else {}))
        train, valid, test = benchgen.generate_dataset(None, config)
        problems += checks.check_cli_outputs(self.round_dirs[0], train, valid, test,
                                             self.TARGET)
        report = json.loads((self.round_dirs[0] / "report.json").read_text())
        g = report["gamma_star"]
        self.reference.update({
            "evalharness.gamma_star": 0.0 if g == "FAILURE" else g,
            "evalharness.coverage": report["achieved_coverage"],
            "evalharness.cost_abs_std": report.get("coverage_cost", 0.0)})
        self.info.update(gamma_star=g, coverage=report["achieved_coverage"])
        return problems

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)

    def trace_points(self):
        return [(benchgen, "generate_dataset", "benchgen.generate_dataset"),
                (data, "save_dataset_csv", "data.save_dataset_csv", _rows_written),
                (data, "load_dataset_csv", "data.load_dataset_csv", _rows_read),
                (mlp, "train_member", "mlp.train_member"),
                (mlp, "fit_propensity", "mlp.fit_propensity"),
                (mlp, "nll_and_grads", "mlp.nll_and_grads", _epoch_flops),
                (mlp, "load_model", "mlp.load_model"),
                (mlp, "load_propensity", "mlp.load_propensity"),
                (mlp, "predict_components_batch", "mlp.predict_components_batch"),
                (mlp, "predict_propensity_batch", "mlp.predict_propensity_batch"),
                (sensitivity, "msm_bounds_arrays", "sensitivity.msm_bounds_arrays"),
                (core, "modulated_intervals_batch", "core.modulated_intervals_batch",
                 _batch_rows),
                (evalharness, "gamma_star_search", "evalharness.gamma_star_search"),
                (evalharness, "modulated_pipeline", "evalharness.modulated_pipeline", None,
                 "evalharness.probe"),
                (evalharness.ExperimentReport, "write_json", "evalharness.write_json"),
                (evalharness.ExperimentReport, "write_points_csv",
                 "evalharness.write_points_csv")]


def _rows_written(args, result) -> dict:
    return {"rows": args[0].n, "bytes": Path(args[1]).stat().st_size}


def _rows_read(args, result) -> dict:
    return {"rows": result.n}


WORKLOADS = {w.name: w for w in (Train, Search, Scalar, Cli)}
