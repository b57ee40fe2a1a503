"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
in the terminal summary.  The heavyweight protocol criteria train real
ensembles on generated benchmark data and are budgeted by wall clock."""

import functools
import json
import math
import time

import numpy as np
import pytest

from modens import (ComponentDistribution, CostKind, CoverageBound, EvalConfig, Family,
                    GeneratorConfig, Head, SensitivityConfig, TrainConfig,
                    WeightedMixture, brute_force_extreme_quantile, check_optimality,
                    empirical_coverage_bound, fit_propensity, gamma_star_search,
                    generate_dataset, identity_bounds, maximize_quantile,
                    minimize_quantile, mixture_pdf, mixture_quantile, msm_bounds,
                    outcome_interval, predict_components_batch, train_ensemble)
from modens.core import modulated_intervals_batch
from modens.dist import default_quantile_tol
from modens.evalharness import modulated_pipeline
from modens.mlp import init_params, nll_and_grads
from modens.cli import main as cli_main

import oracles
from conftest import record_acceptance
from test_mlp import numeric_gradients


def _criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_acceptance(name, False)
                raise
            record_acceptance(name, True)

        return wrapper

    return deco


def oracle_corpus(n_instances=225):
    """Seeded corpus: m in 2..6, gamma in {1.5, 3, 10}, beta in
    {0.05, 0.5, 0.975}, Gaussian and Cauchy components mixed."""
    rng = np.random.default_rng(20240)
    corpus = []
    ms = (2, 3, 4, 5, 6)
    gammas = (1.5, 3.0, 10.0)
    betas = (0.05, 0.5, 0.975)
    i = 0
    while len(corpus) < n_instances:
        m = ms[i % len(ms)]
        gamma = gammas[(i // len(ms)) % len(gammas)]
        beta = betas[(i // (len(ms) * len(gammas))) % len(betas)]
        comps = oracles.random_components(rng, m)
        e = float(rng.uniform(0.05, 0.95))
        bounds = msm_bounds(e, SensitivityConfig(gamma))
        corpus.append((comps, bounds, beta))
        i += 1
    return corpus


@pytest.fixture(scope="module")
def corpus_results():
    """Criterion 1 corpus solved by both routes, reused by criterion 2."""
    t0 = time.perf_counter()
    results = []
    worst = 0.0
    for comps, bounds, beta in oracle_corpus():
        norm = 1.0 + max(c.scale for c in comps)
        q_max, w_max = maximize_quantile(comps, bounds, beta)
        q_min, w_min = minimize_quantile(comps, bounds, beta)
        bf_max = brute_force_extreme_quantile(comps, bounds, beta, maximize=True)
        bf_min = brute_force_extreme_quantile(comps, bounds, beta, maximize=False)
        worst = max(worst, abs(q_max - bf_max) / norm, abs(q_min - bf_min) / norm)
        results.append((comps, bounds, beta, q_max, w_max, q_min, w_min))
    return results, worst, time.perf_counter() - t0


@pytest.fixture(scope="module")
def small_trained_ensemble():
    cfg = GeneratorConfig(seed=21, n_train=400, n_valid=64, n_test=64,
                          noise_family="gaussian", noise_scale=4.0)
    train, _, test = generate_dataset(None, cfg)
    tc = TrainConfig(hidden=(8,), epochs=120, head=Head.GAUSSIAN)
    model = train_ensemble(train, tc, seed=2, m=4)
    return model, test


@_criterion("1. oracle equivalence (envelope solver vs brute force, 225 instances)")
def test_c01_oracle_equivalence(corpus_results):
    _, worst, elapsed = corpus_results
    assert worst <= 1e-6, f"max normalized deviation {worst:.3e}"
    assert elapsed < 120.0, f"corpus took {elapsed:.1f}s (budget 120s)"


@_criterion("2. optimality certificate + perturbation sensitivity")
def test_c02_optimality_certificate(corpus_results):
    results, _, _ = corpus_results
    rng = np.random.default_rng(77)
    broke = 0
    ties = 0
    trials = 0
    for comps, bounds, beta, q_max, w_max, _, _ in results:
        assert check_optimality(comps, w_max, bounds, beta), \
            "optimizer output failed the certificate"
        if bounds.upper - bounds.lower <= 1e-12:
            continue
        w = w_max.as_array().copy()
        fam_masses = np.array([c.cdf(q_max) for c in comps])
        senders = [i for i in range(len(w)) if w[i] > bounds.lower + 1e-9]
        receivers = [i for i in range(len(w)) if w[i] < bounds.upper - 1e-9]
        pairs = [(s, r) for s in senders for r in receivers
                 if s != r and fam_masses[r] > fam_masses[s]]
        if not pairs:
            continue
        s, r = pairs[int(rng.integers(len(pairs)))]
        delta = 0.5 * min(w[s] - bounds.lower, bounds.upper - w[r])
        if delta <= 1e-9:
            continue
        w[s] -= delta
        w[r] += delta
        trials += 1
        mix = WeightedMixture(comps, w)
        q_p = mixture_quantile(mix, beta)
        m_r = comps[r].cdf(q_p)
        m_s = comps[s].cdf(q_p)
        if abs(m_r - m_s) <= 1e-8:
            ties += 1
            continue
        if not check_optimality(comps, w, bounds, beta):
            broke += 1
    effective = trials - ties
    assert effective > 50
    assert broke / effective >= 0.95, f"only {broke}/{effective} perturbations detected"


@_criterion("3. gamma=1 collapse to the plain ensemble interval")
def test_c03_gamma_one_collapse(small_trained_ensemble):
    model, test = small_trained_ensemble
    locs, scales = predict_components_batch(model, test.covariates[:8], np.ones(8))
    family = Family(model.head.value)
    for alpha in (0.05, 0.1, 0.5):
        for i in range(8):
            comps = [ComponentDistribution(family, loc, scale)
                     for loc, scale in zip(locs[i].tolist(), scales[i].tolist())]
            tol = default_quantile_tol(comps)
            iv = outcome_interval(comps, identity_bounds(), alpha, gamma=1.0)
            mix = WeightedMixture(comps)
            assert iv.lo == pytest.approx(mixture_quantile(mix, alpha / 2), abs=2 * tol)
            assert iv.hi == pytest.approx(mixture_quantile(mix, 1 - alpha / 2), abs=2 * tol)


@_criterion("4. gamma-nesting of intervals (50 random ensembles)")
def test_c04_gamma_nesting():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = int(rng.integers(2, 8))
        comps = oracles.random_components(rng, m)
        e = float(rng.uniform(0.1, 0.9))
        alpha = float(rng.choice([0.02, 0.1, 0.3]))
        prev = None
        for gamma in (1.0, 2.0, 5.0, 50.0):
            iv = outcome_interval(comps, msm_bounds(e, SensitivityConfig(gamma)),
                                  alpha, gamma=gamma)
            if prev is not None:
                assert iv.lo <= prev.lo + 1e-8
                assert iv.hi >= prev.hi - 1e-8
            prev = iv


@_criterion("5. no-hidden-confounding coverage at gamma=1 (16-member ensemble)")
def test_c05_no_hidden_confounding_coverage():
    t0 = time.perf_counter()
    n_test = 2048
    cfg = GeneratorConfig(seed=1, n_train=8192, n_valid=512, n_test=n_test,
                          noise_family="gaussian", noise_scale=24.0,
                          zero_hidden=True)
    train, _, test = generate_dataset(None, cfg)
    tc = TrainConfig(hidden=(32, 32), epochs=300, head=Head.GAUSSIAN)
    model = train_ensemble(train, tc, seed=7, m=16)
    from modens.mlp import predict_components_batch

    locs, scales = predict_components_batch(model, test.covariates,
                                            np.ones(test.n))
    fam = np.zeros(model.m, dtype=np.int64)
    ones = np.ones(test.n)
    lo, hi = modulated_intervals_batch(fam, locs, scales, ones, ones, alpha=0.1)
    y1 = test.potential_outcomes[:, 1]
    cov = float(np.mean((lo <= y1) & (y1 <= hi)))
    elapsed = time.perf_counter() - t0
    half_width = 2.0 * math.sqrt(0.09 / n_test)
    assert abs(cov - 0.90) <= half_width, \
        f"coverage {cov:.4f} outside 0.90 +- {half_width:.4f}"
    assert elapsed < 600.0, f"took {elapsed:.1f}s (budget 600s)"


@_criterion("6. end-to-end protocol on Cauchy benchmark at 99% target")
def test_c06_protocol_end_to_end():
    t0 = time.perf_counter()
    cfg = GeneratorConfig(seed=0)  # the benchmark recipe defaults
    train, _, test = generate_dataset(None, cfg)
    tc = TrainConfig(hidden=(32, 32), epochs=300, warmup_epochs=200,
                     head=Head.CAUCHY)
    model = train_ensemble(train, tc, seed=0, m=16)
    prop = fit_propensity(train, TrainConfig(hidden=(16,), epochs=200,
                                             head=Head.GAUSSIAN), seed=0)
    eval_cfg = EvalConfig(target_coverage=0.99, alpha=0.01,
                          cost_kind=CostKind.ABS_STD, arm=1)
    pipeline = modulated_pipeline(model, prop, test, eval_cfg)
    outcomes = test.potential_outcomes[:, 1]
    report = gamma_star_search(pipeline, outcomes, eval_cfg, seed=0)
    assert not report.failed, "gamma* search reported FAILURE"
    assert report.achieved_coverage >= 0.99
    ivs_50 = pipeline(50.0)
    cost_50 = float(np.mean([iv.length for iv in ivs_50])) / float(np.std(outcomes))
    assert report.coverage_cost < cost_50, \
        f"cost at gamma*={report.gamma_star} not below cost at gamma=50"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200.0, f"took {elapsed:.1f}s (budget 1200s)"


@_criterion("7. Lipschitz bound on modulated density slopes (50 ensembles)")
def test_c07_lipschitz_bound():
    rng = np.random.default_rng(99)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        comps = oracles.random_components(rng, m, mixed=False)
        gamma = float(rng.uniform(1.2, 8.0))
        bounds = oracles.random_bounds(rng, gamma)
        beta = float(rng.uniform(0.05, 0.95))
        _, w = maximize_quantile(comps, bounds, beta)
        mix = WeightedMixture(comps, w.weights)
        lipschitz = max(1.0 / (c.scale ** 2 * math.sqrt(2 * math.pi * math.e))
                        for c in comps)
        smax = max(c.scale for c in comps)
        grid = np.linspace(min(c.location for c in comps) - 6 * smax,
                           max(c.location for c in comps) + 6 * smax, 3001)
        pdf = np.array([mixture_pdf(mix, float(y)) for y in grid])
        slope = np.max(np.abs(np.diff(pdf) / np.diff(grid)))
        assert slope <= bounds.upper * lipschitz + 1e-6


@_criterion("8. gradient check: backprop vs central finite differences")
def test_c08_gradient_check():
    rng = np.random.default_rng(4242)
    for head in (Head.GAUSSIAN, Head.CAUCHY, Head.PROPENSITY):
        for case in range(50):
            n = int(rng.integers(3, 9))
            d_in = int(rng.integers(2, 6))
            hidden = (int(rng.integers(3, 7)),)
            params = init_params((d_in, *hidden, head.out_dim), head,
                                 np.random.default_rng(1000 + case))
            X = rng.normal(0, 1, (n, d_in))
            if head is Head.PROPENSITY:
                target = rng.integers(0, 2, n).astype(float)
            else:
                target = rng.normal(0, 2, n)
            _, gw, gb = nll_and_grads(params, X, target)
            nw, nb = numeric_gradients(params, X, target)
            num = np.concatenate([a.ravel() for a in gw + gb])
            ref = np.concatenate([a.ravel() for a in nw + nb])
            rel = np.linalg.norm(num - ref) / max(np.linalg.norm(ref), 1e-8)
            assert rel <= 1e-4, f"{head.value} case {case}: rel err {rel:.2e}"


@_criterion("8. gradient check on the count-weighted path (bootstrap members)")
def test_c08_weighted_gradient_check():
    rng = np.random.default_rng(4343)
    for head in (Head.GAUSSIAN, Head.CAUCHY, Head.PROPENSITY):
        for case in range(50):
            n = int(rng.integers(3, 9))
            d_in = int(rng.integers(2, 6))
            hidden = (int(rng.integers(3, 7)),)
            params = init_params((d_in, *hidden, head.out_dim), head,
                                 np.random.default_rng(1000 + case))
            X = rng.normal(0, 1, (n, d_in))
            kw = {"counts": rng.integers(1, 6, n)}
            if head is Head.PROPENSITY:
                target = rng.integers(0, 2, n).astype(float)
            else:
                target = rng.normal(0, 2, n)
            if head is Head.GAUSSIAN and case % 2:
                kw["target_var"] = rng.uniform(0.0, 1.0, n)   # warm-up rank spread
            _, gw, gb = nll_and_grads(params, X, target, **kw)
            nw, nb = numeric_gradients(params, X, target, **kw)
            num = np.concatenate([a.ravel() for a in gw + gb])
            ref = np.concatenate([a.ravel() for a in nw + nb])
            rel = np.linalg.norm(num - ref) / max(np.linalg.norm(ref), 1e-8)
            assert rel <= 1e-4, f"{head.value} case {case}: rel err {rel:.2e}"


@_criterion("9. coverage-bound diagnostic and binary-search contract")
def test_c09_coverage_bound_and_search():
    rng = np.random.default_rng(5050)
    # closed form reproduced to 1e-12 against direct evaluation
    for _ in range(200):
        m = int(rng.integers(1, 10_000))
        eps = float(rng.uniform(1e-4, 1.0))
        alpha = float(rng.uniform(0.01, 0.5))
        werr = float(rng.uniform(0.0, 0.2))
        inner, outer = empirical_coverage_bound(CoverageBound(m, eps, alpha, werr))
        direct = 1.0 - 2.0 * math.exp(-m * eps * eps / 2.0)
        assert abs(inner - max(direct, 0.0)) <= 1e-12
        assert abs(outer - (alpha + eps + 2.0 * werr)) <= 1e-12
    # binary-search honors the scripted-threshold contract
    outcomes = np.linspace(4.0, 6.0, 16)
    for _ in range(100):
        thr = float(rng.uniform(1.01, 49.9))

        def pipeline(gamma, thr=thr):
            from modens import OutcomeInterval

            span = (-10.0, 10.0) if gamma >= thr else (-1.0, 1.0)
            return [OutcomeInterval(lo=span[0], hi=span[1], alpha=0.1,
                                    gamma=gamma)] * 16

        cfg = EvalConfig(target_coverage=0.9, alpha=0.1, gamma_tol=0.05)
        report = gamma_star_search(pipeline, outcomes, cfg)
        assert thr <= report.gamma_star <= thr + cfg.gamma_tol


@_criterion("10. byte-identical reproducibility of the CLI workflow")
def test_c10_reproducibility(tmp_path):
    def one_run(root):
        root.mkdir()
        data_dir = root / "data"
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"n_train": 160, "n_valid": 32, "n_test": 64,
                                   "noise_family": "gaussian", "noise_scale": 4.0}))
        assert cli_main(["generate", "--seed", "9", "--config", str(cfg),
                         "--out-dir", str(data_dir)]) == 0
        model = root / "model.json"
        assert cli_main(["train", "--seed", "9", "--data", str(data_dir / "train.csv"),
                         "--head", "gaussian", "--members", "2", "--hidden", "6",
                         "--epochs", "40", "--out", str(model)]) == 0
        report = root / "report.json"
        assert cli_main(["gamma-search", "--seed", "9", "--model", str(model),
                         "--test", str(data_dir / "test.csv"), "--target", "0.8",
                         "--cost", "mass", "--out", str(report)]) == 0
        return root

    a = one_run(tmp_path / "runA")
    b = one_run(tmp_path / "runB")
    identical = ["data/train.csv", "data/valid.csv", "data/test.csv",
                 "data/manifest.json", "model.json", "model.propensity.json",
                 "report.points.csv"]
    for rel in identical:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), f"{rel} differs"
    # the report carries a wall-clock field; mask it, then require identity
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    ra["runtime_seconds"] = rb["runtime_seconds"] = 0.0
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
