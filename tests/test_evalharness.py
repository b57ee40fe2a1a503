import dataclasses

import numpy as np
import pytest

import oracles
from modens import (CostKind, EvalConfig, OutcomeInterval, cost_abs_std, cost_mass,
                    coverage, gamma_star_search)


def iv(lo, hi, alpha=0.1, gamma=1.0):
    return OutcomeInterval(lo=lo, hi=hi, alpha=alpha, gamma=gamma)


def ends(intervals):
    """The (lo, hi) endpoint arrays of a list of intervals."""
    return (np.array([x.lo for x in intervals]), np.array([x.hi for x in intervals]))


class TestCoverage:
    def test_all_inside(self):
        ivs = [iv(0, 2)] * 5
        assert coverage(*ends(ivs), [1.0] * 5) == 1.0

    def test_none_inside(self):
        ivs = [iv(0, 2)] * 5
        assert coverage(*ends(ivs), [3.0] * 5) == 0.0

    def test_half_inside(self):
        ivs = [iv(0, 1)] * 6
        assert coverage(*ends(ivs), [0.5, 0.5, 0.5, 2, 2, 2]) == 0.5

    def test_closed_interval_endpoints_count(self):
        assert coverage(*ends([iv(0, 1)]), [1.0]) == 1.0
        assert coverage(*ends([iv(0, 1)]), [0.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            coverage(*ends([iv(0, 1)]), [0.5, 0.6])


class TestCostAbsStd:
    def test_unit_intervals(self):
        assert cost_abs_std(*ends([iv(0, 1)] * 4), 1.0) == pytest.approx(1.0)

    def test_degenerate_intervals(self):
        assert cost_abs_std(*ends([iv(0, 0)] * 3), 2.0) == 0.0

    def test_arithmetic(self):
        assert cost_abs_std(*ends([iv(0, 2), iv(0, 4)]), 2.0) == pytest.approx(1.5)

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError):
            cost_abs_std(*ends([iv(0, 1)]), 0.0)

    def test_scales_linearly_under_outcome_rescaling(self, rng):
        ivs = [iv(float(a), float(a + b)) for a, b in
               zip(rng.normal(0, 1, 10), rng.uniform(0.5, 2, 10))]
        std = 1.7
        c1 = cost_abs_std(*ends(ivs), std)
        scaled = [iv(3 * x.lo, 3 * x.hi) for x in ivs]
        assert cost_abs_std(*ends(scaled), std) == pytest.approx(3 * c1)
        assert cost_abs_std(*ends(scaled), 3 * std) == pytest.approx(c1)


class TestCostMass:
    def test_interval_spanning_all_outcomes(self, rng):
        ys = rng.normal(0, 1, 50)
        assert cost_mass(*ends([iv(ys.min() - 1, ys.max() + 1)]), ys) == pytest.approx(1.0)

    def test_degenerate_interval_at_non_atom(self, rng):
        ys = rng.normal(0, 1, 50)
        assert cost_mass(*ends([iv(10.0, 10.0)]), ys) == 0.0

    def test_lower_half_of_evenly_spaced(self):
        ys = np.linspace(0.0, 99.0, 100)
        got = cost_mass(*ends([iv(-1.0, 49.5)]), ys)
        assert got == pytest.approx(0.5, abs=0.01)

    def test_at_most_one(self, rng):
        ys = rng.normal(0, 3, 40)
        ivs = [iv(float(a), float(a + abs(b))) for a, b in
               zip(rng.normal(0, 3, 20), rng.normal(0, 5, 20))]
        assert cost_mass(*ends(ivs), ys) <= 1.0
        assert cost_mass(*ends(ivs), ys) >= 0.0

    def test_invariant_under_monotone_transform(self, rng):
        # applying the same strictly increasing map to outcomes and
        # interval endpoints leaves the mass unchanged (up to interpolation
        # error within cells, zero when knots map exactly)
        ys = np.sort(rng.normal(0, 1, 30))
        ivs = [iv(float(ys[3]), float(ys[20]))]
        before = cost_mass(*ends(ivs), ys)

        def f(v):
            return np.expm1(v)  # strictly increasing

        ivs2 = [iv(float(f(ys[3])), float(f(ys[20])))]
        assert cost_mass(*ends(ivs2), f(ys)) == pytest.approx(before, abs=1e-12)

    def test_empirical_cdf_flat_beyond_extremes(self, rng):
        ys = rng.normal(0, 1, 20)
        cdf = oracles.empirical_cdf(ys)
        assert cdf(ys.min() - 100) == 0.0
        assert cdf(ys.max() + 100) == 1.0


class TestEndpointArrays:
    """The costs on (lo, hi) arrays equal their per-interval definitions bit
    for bit (the empirical CDF's is `oracles.empirical_cdf`)."""

    @pytest.mark.parametrize("n_outcomes", [1, 2, 37])
    def test_equal_to_per_interval_definitions(self, rng, n_outcomes):
        ys = rng.standard_cauchy(n_outcomes)
        lo = rng.normal(0.0, 2.0, 50)
        hi = lo + rng.exponential(1.5, 50)
        hi[:3] = lo[:3]
        if n_outcomes == 1:
            lo[3], hi[4] = ys[0], ys[0]
        ivs = [iv(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        outcomes = rng.standard_cauchy(50)
        outcomes[:2] = lo[:2]
        cdf = oracles.empirical_cdf(ys)
        assert cost_mass(lo, hi, ys) == float(np.mean(
            [cdf(x.hi) - cdf(x.lo) for x in ivs]))
        hits = sum(1 for x, y in zip(ivs, outcomes.tolist()) if x.lo <= y <= x.hi)
        assert coverage(lo, hi, outcomes) == hits / 50
        assert cost_abs_std(lo, hi, 1.3) == float(np.mean([x.length for x in ivs])) / 1.3

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            coverage(np.zeros(2), np.ones(2), [0.5])
        with pytest.raises(ValueError):
            coverage(np.zeros(0), np.zeros(0), [])


def step_pipeline(threshold, inner=(-1.0, 1.0), outer=(-10.0, 10.0), n=20):
    """Scripted pipeline whose coverage jumps when gamma >= threshold."""

    def pipeline(gamma):
        lo, hi = outer if gamma >= threshold else inner
        return [OutcomeInterval(lo=lo, hi=hi, alpha=0.1, gamma=gamma)] * n

    return pipeline


class TestGammaStarSearch:
    def config(self, target=0.9, **kw):
        return EvalConfig(target_coverage=target, alpha=0.1, **kw)

    def test_gamma_one_when_already_covered(self):
        outcomes = np.linspace(-0.5, 0.5, 20)  # inside even the narrow interval
        report = gamma_star_search(step_pipeline(5.0), outcomes, self.config())
        assert report.gamma_star == 1.0
        assert report.achieved_coverage == 1.0

    def test_failure_when_gamma_50_insufficient(self):
        outcomes = np.full(20, 100.0)  # never covered
        report = gamma_star_search(step_pipeline(5.0), outcomes, self.config())
        assert report.failed
        assert report.gamma_star is None
        assert report.coverage_cost is None
        assert report.achieved_coverage < 0.9

    def test_step_threshold_recovered(self):
        outcomes = np.linspace(4.0, 6.0, 20)  # only the wide interval covers
        report = gamma_star_search(step_pipeline(7.0), outcomes, self.config())
        assert 7.0 <= report.gamma_star <= 7.0 + 0.05

    def test_hundred_random_thresholds(self, rng):
        outcomes = np.linspace(4.0, 6.0, 10)
        for _ in range(100):
            thr = float(rng.uniform(1.01, 49.9))
            cfg = self.config(gamma_tol=0.05)
            report = gamma_star_search(step_pipeline(thr, n=10), outcomes, cfg)
            assert not report.failed
            assert thr <= report.gamma_star <= thr + cfg.gamma_tol
            assert report.achieved_coverage >= cfg.target_coverage

    def test_cost_kind_dispatch(self):
        outcomes = np.concatenate([np.zeros(10), np.full(10, 0.5)])
        cfg = EvalConfig(target_coverage=0.9, alpha=0.1, cost_kind=CostKind.MASS)
        report = gamma_star_search(step_pipeline(3.0), outcomes, cfg)
        assert report.coverage_cost == pytest.approx(1.0)  # outer spans all

    def test_report_json_failure_has_no_cost_key(self, tmp_path):
        outcomes = np.full(20, 100.0)
        report = gamma_star_search(step_pipeline(5.0), outcomes, self.config())
        path = tmp_path / "report.json"
        report.write_json(path)
        import json

        doc = json.loads(path.read_text())
        assert doc["gamma_star"] == "FAILURE"
        assert "coverage_cost" not in doc

    def test_coverage_monotone_probe_points(self, rng):
        # scripted nested intervals: coverage curve sampled on the grid is
        # nondecreasing
        ys = rng.normal(0, 5, 200)

        def pipeline(gamma):
            half = gamma
            return [OutcomeInterval(lo=-half, hi=half, alpha=0.1, gamma=gamma)] * 200

        covs = [coverage(*ends(pipeline(g)), ys) for g in (1, 2, 5, 10, 25, 50)]
        assert all(a <= b + 1e-12 for a, b in zip(covs, covs[1:]))


    def test_points_csv_from_outcome_interval_pipeline_parses(self, tmp_path):
        # pipelines built on the scalar library API must yield artifacts that
        # read back with float(), whatever numeric types the kernels return
        from modens import SensitivityConfig, msm_bounds, outcome_interval
        from modens.dist import ComponentDistribution, Family

        comps = [ComponentDistribution(Family.GAUSSIAN, loc, 1.0)
                 for loc in (-0.3, 0.1, 0.4)]
        outcomes = np.linspace(-3.0, 3.0, 8)

        def pipeline(gamma):
            bounds = msm_bounds(0.35, SensitivityConfig(gamma))
            return [outcome_interval(comps, bounds, 0.1, gamma=gamma)] * outcomes.size

        report = gamma_star_search(pipeline, outcomes, self.config(target=0.7))
        path = tmp_path / "points.csv"
        report.write_points_csv(path, outcomes)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,lo,hi,y,covered"
        assert len(lines) == outcomes.size + 1
        for i, line in enumerate(lines[1:]):
            index, lo, hi, y, covered = line.split(",")
            assert int(index) == i and int(covered) in (0, 1)
            for field in (lo, hi, y):
                float(field)


class TestRunExperiment:
    def test_trained_models_write_artifacts(self, tmp_path):
        from modens import (GeneratorConfig, Head, TrainConfig, fit_propensity,
                            generate_dataset, run_experiment, train_ensemble)

        gen = GeneratorConfig(seed=17, n_train=200, n_valid=40, n_test=80,
                              noise_family="gaussian", noise_scale=4.0)
        train, _, test = generate_dataset(None, gen)
        cfg = EvalConfig(target_coverage=0.8, alpha=0.2, cost_kind=CostKind.MASS)
        report_path = tmp_path / "report.json"
        points_path = tmp_path / "points.csv"
        train_cfg = TrainConfig(hidden=(6,), epochs=60, head=Head.GAUSSIAN)
        report = run_experiment(
            test, cfg, model=train_ensemble(train, train_cfg, 3, m=2),
            propensity=fit_propensity(train, train_cfg, 3),
            seed=3, report_json=report_path, points_csv=points_path)
        assert len(report.lo) == len(report.hi) == test.n
        assert report_path.exists()
        lines = points_path.read_text().splitlines()
        assert lines[0] == "index,lo,hi,y,covered"
        assert len(lines) == test.n + 1
        covered = sum(int(line.split(",")[4]) for line in lines[1:])
        assert covered / test.n == pytest.approx(report.achieved_coverage)

    def test_requires_potential_outcomes(self, tmp_path):
        from modens import Dataset, EnsembleModel, Head, run_experiment
        from modens.mlp import init_params

        rng = np.random.default_rng(0)
        bare = Dataset(covariates=rng.normal(0, 1, (10, 2)),
                       treatments=rng.integers(0, 2, 10),
                       outcomes=rng.normal(0, 1, 10))
        model = EnsembleModel(members=(init_params((3, 4, 2), Head.GAUSSIAN, rng),), seed=0)
        prop = init_params((2, 4, 1), Head.PROPENSITY, rng)
        with pytest.raises(ValueError, match="y0/y1"):
            run_experiment(bare, EvalConfig(target_coverage=0.9, alpha=0.1),
                           model=model, propensity=prop)


class TestEvalConfigValidation:
    def test_bad_target(self):
        with pytest.raises(ValueError):
            EvalConfig(target_coverage=0.0, alpha=0.1)

    def test_target_one_is_accepted(self):
        assert EvalConfig(target_coverage=1.0, alpha=0.1).target_coverage == 1.0
        for bad in (1.0 + 1e-12, float("nan")):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                EvalConfig(target_coverage=bad, alpha=0.1)

    def test_bad_arm(self):
        with pytest.raises(ValueError):
            EvalConfig(target_coverage=0.9, alpha=0.1, arm=2)

    def test_alpha_whose_half_rounds_to_zero(self):
        with pytest.raises(ValueError, match="alpha"):
            EvalConfig(target_coverage=0.9, alpha=5e-324)
        assert EvalConfig(target_coverage=0.9, alpha=1e-320).alpha == 1e-320


@pytest.fixture(scope="module")
def trained():
    """Small trained ensembles on one generated split, a Cauchy head and a
    Gaussian head, with the propensity model and the test rows."""
    from modens import (GeneratorConfig, Head, TrainConfig, fit_propensity,
                        generate_dataset, train_ensemble)

    gen = GeneratorConfig(seed=17, n_train=200, n_valid=40, n_test=80,
                          noise_family="gaussian", noise_scale=4.0)
    train, _, test = generate_dataset(None, gen)
    prop = fit_propensity(train, TrainConfig(hidden=(6,), epochs=60), 3)
    return test, {head.value: (train_ensemble(train, TrainConfig(hidden=(6,), epochs=60,
                                                                 head=head), 3, m=3), prop)
                  for head in (Head.CAUCHY, Head.GAUSSIAN)}


def visited_gammas(model, prop, test, cfg):
    """Every gamma the search visits with and without the prediction."""
    from modens.evalharness import modulated_coverage, modulated_pipeline

    pipeline = modulated_pipeline(model, prop, test, cfg)
    outcomes = test.potential_outcomes[:, cfg.arm]
    predicted = modulated_coverage(model, prop, test.covariates,
                                   np.full(test.n, cfg.arm), outcomes, cfg.alpha)
    seen = list(gamma_star_search(pipeline, outcomes, cfg).solved_gammas)
    gamma_star_search(pipeline, outcomes, cfg,
                      predicted_coverage=lambda g: seen.append(g) or predicted(g))
    return sorted(set(seen)), predicted


class TestPredictedCoverage:
    """``modulated_coverage`` predicts, from envelope masses at the
    outcomes, exactly the coverage of the intervals the solver returns."""

    def assert_agrees(self, model, prop, test, alpha, extra=(1.0, 3.0, 12.0, 50.0)):
        """At every gamma a search with a target between the coverages at
        gamma 1 and 50 visits, and at ``extra``."""
        from modens.evalharness import modulated_interval_arrays

        arrays = modulated_interval_arrays(model, prop, test.covariates,
                                           np.ones(test.n), alpha)
        y = test.potential_outcomes[:, 1]
        cov_1, cov_50 = coverage(*arrays(1.0), y), coverage(*arrays(50.0), y)
        assert cov_1 < cov_50  # so the bisection runs inside the range
        cfg = EvalConfig(target_coverage=0.5 * (cov_1 + cov_50), alpha=alpha)
        gammas, predicted = visited_gammas(model, prop, test, cfg)
        assert len(gammas) > 2
        for g in [*gammas, *extra]:
            assert predicted(g) == coverage(*arrays(g), y), g

    @pytest.mark.parametrize("head", ["cauchy", "gaussian"])
    def test_trained_heads(self, trained, head):
        test, models = trained
        self.assert_agrees(*models[head], test, alpha=0.3)

    @pytest.mark.parametrize("alpha, spread", [(0.02, 3.0), (0.98, 1.0)])
    def test_extreme_alpha(self, trained, alpha, spread):
        # at alpha 0.02 the intervals cover every test outcome at gamma 1;
        # spreading the outcomes out leaves some to the bisection
        test, models = trained
        spread_test = dataclasses.replace(
            test, potential_outcomes=spread * test.potential_outcomes)
        self.assert_agrees(*models["cauchy"], spread_test, alpha=alpha)

    @pytest.mark.parametrize("head", ["cauchy", "gaussian"])
    def test_identical_members(self, trained, head):
        from modens import EnsembleModel

        test, models = trained
        model, prop = models[head]
        a, b = model.members[:2]
        pairs = EnsembleModel(members=(a, a, b, b), seed=model.seed)
        self.assert_agrees(pairs, prop, test, alpha=0.3)
        # all tied: the modulated mixture is the member, whatever the weights
        tied = EnsembleModel(members=(a,) * 4, seed=model.seed)
        from modens.evalharness import modulated_coverage, modulated_interval_arrays

        t, y = np.ones(test.n), test.potential_outcomes[:, 1]
        arrays = modulated_interval_arrays(tied, prop, test.covariates, t, 0.3)
        predicted = modulated_coverage(tied, prop, test.covariates, t, y, 0.3)
        for g in (1.0, 4.0, 50.0):
            assert predicted(g) == coverage(*arrays(g), y) == predicted(1.0), g

    def test_propensity_at_clamp_and_gamma_50(self, trained):
        from modens import PROPENSITY_CLAMP, predict_propensity_batch
        from modens.evalharness import modulated_coverage, modulated_interval_arrays

        test, models = trained
        model, prop = models["cauchy"]
        saturated = dataclasses.replace(
            prop, biases=[*prop.biases[:-1], prop.biases[-1] + 60.0])
        e1 = predict_propensity_batch(saturated, test.covariates)
        assert np.all(1.0 - e1 < PROPENSITY_CLAMP)  # arm 0 sits at the clamp
        t = np.zeros(test.n)
        y = test.potential_outcomes[:, 0]
        arrays = modulated_interval_arrays(model, saturated, test.covariates, t, 0.3)
        predicted = modulated_coverage(model, saturated, test.covariates, t, y, 0.3)
        for g in (1.0, 2.0, 49.9, 50.0):
            assert predicted(g) == coverage(*arrays(g), y), g

    def test_outcome_count_mismatch_and_empty_rejected(self, trained):
        from modens.evalharness import modulated_coverage

        test, models = trained
        with pytest.raises(ValueError, match="outcomes"):
            modulated_coverage(*models["cauchy"], test.covariates, np.ones(test.n),
                               np.zeros(test.n + 1), 0.3)
        with pytest.raises(ValueError, match="empty"):
            modulated_coverage(*models["cauchy"], test.covariates[:0], np.ones(0),
                               np.zeros(0), 0.3)


class TestPredictedSearch:
    """``run_experiment`` decides the bisection from the predicted coverage
    and reports what the search without a prediction reports."""

    @staticmethod
    def plain(model, prop, test, cfg):
        from modens.evalharness import modulated_pipeline

        return gamma_star_search(modulated_pipeline(model, prop, test, cfg),
                                 test.potential_outcomes[:, cfg.arm], cfg, seed=0)

    @staticmethod
    def assert_same_report(a, b):
        assert a.gamma_star == b.gamma_star
        assert a.achieved_coverage == b.achieved_coverage
        assert a.coverage_cost == b.coverage_cost
        assert a.mean_length == b.mean_length
        assert a.lo.tobytes() == b.lo.tobytes()
        assert a.hi.tobytes() == b.hi.tobytes()
        a_doc, b_doc = a.to_json_dict(), b.to_json_dict()
        a_doc.pop("runtime_seconds")
        b_doc.pop("runtime_seconds")
        assert a_doc == b_doc

    @pytest.mark.parametrize("head", ["cauchy", "gaussian"])
    def test_paths_match_plain_search(self, trained, head):
        from modens import run_experiment
        from modens.evalharness import modulated_interval_arrays

        test, models = trained
        model, prop = models[head]
        alpha = 0.6
        arrays = modulated_interval_arrays(model, prop, test.covariates, np.ones(test.n),
                                           alpha)
        y = test.potential_outcomes[:, 1]
        cov_1, cov_50 = coverage(*arrays(1.0), y), coverage(*arrays(50.0), y)
        assert 0.0 < cov_1 < cov_50 < 1.0
        for target, outcome in ((0.5 * (cov_1 + cov_50), "interior"), (cov_1, "gamma one"),
                                (0.5 * (cov_50 + 1.0), "failure")):
            cfg = EvalConfig(target_coverage=target, alpha=alpha)
            plain = self.plain(model, prop, test, cfg)
            fast = run_experiment(test, cfg, model=model, propensity=prop, seed=0)
            self.assert_same_report(fast, plain)
            assert fast.predicted_steps > 0 and plain.predicted_steps == 0
            if outcome == "interior":
                assert 1.0 < plain.gamma_star < 50.0 and len(plain.solved_gammas) > 2
                below = max(g for g in plain.solved_gammas if g < plain.gamma_star)
                assert fast.solved_gammas == (below, plain.gamma_star)
            elif outcome == "gamma one":
                assert plain.gamma_star == 1.0 and fast.solved_gammas == (1.0,)
            else:
                assert plain.failed and fast.solved_gammas == (50.0,)

    def test_run_experiment_scores_the_arm_once(self, trained, monkeypatch):
        from modens import mlp, run_experiment
        from modens.evalharness import modulated_coverage, modulated_pipeline

        test, models = trained
        model, prop = models["cauchy"]
        cfg = EvalConfig(target_coverage=0.76, alpha=0.2)
        y = test.potential_outcomes[:, 1]
        # the pipeline and the prediction each scoring the rows themselves
        unshared = gamma_star_search(
            modulated_pipeline(model, prop, test, cfg), y, cfg, seed=0,
            predicted_coverage=modulated_coverage(model, prop, test.covariates,
                                                  np.ones(test.n), y, 0.2))
        calls = []
        predict = mlp.predict_components_batch
        monkeypatch.setattr(mlp, "predict_components_batch",
                            lambda *args: calls.append(args) or predict(*args))
        report = run_experiment(test, cfg, model=model, propensity=prop, seed=0)
        assert len(calls) == 1
        self.assert_same_report(report, unshared)
        assert report.solved_gammas == unshared.solved_gammas
        assert report.predicted_steps == unshared.predicted_steps > 0

    @pytest.mark.parametrize("wrong", [lambda real, g: 1.0, lambda real, g: 0.0,
                                       lambda real, g: real(g + 1.0),
                                       lambda real, g: real(max(1.0, g - 1.0))],
                             ids=["always-covered", "never-covered", "shifted-down",
                                  "shifted-up"])
    def test_wrong_prediction_falls_back_to_plain_search(self, trained, wrong):
        from modens.evalharness import modulated_coverage, modulated_pipeline

        test, models = trained
        model, prop = models["cauchy"]
        cfg = EvalConfig(target_coverage=0.76, alpha=0.2)
        y = test.potential_outcomes[:, 1]
        real = modulated_coverage(model, prop, test.covariates, np.ones(test.n), y, 0.2)
        plain = self.plain(model, prop, test, cfg)
        assert 1.0 < plain.gamma_star < 50.0
        guided = gamma_star_search(modulated_pipeline(model, prop, test, cfg), y, cfg,
                                   seed=0, predicted_coverage=lambda g: wrong(real, g))
        self.assert_same_report(guided, plain)
        assert guided.predicted_steps > 0
        assert set(plain.solved_gammas) <= set(guided.solved_gammas)

    @pytest.mark.parametrize("threshold", [1.0, 7.0, 60.0])
    def test_scripted_prediction_solves_only_the_ends(self, threshold):
        outcomes = np.linspace(4.0, 6.0, 20)
        cfg = EvalConfig(target_coverage=0.9, alpha=0.1)
        plain = gamma_star_search(step_pipeline(threshold), outcomes, cfg)
        fast = gamma_star_search(step_pipeline(threshold), outcomes, cfg,
                                 predicted_coverage=lambda g: float(g >= threshold))
        TestPredictedSearch.assert_same_report(fast, plain)
        assert plain.predicted_steps == 0
        if threshold == 7.0:
            assert plain.solved_gammas[:2] == (1.0, 50.0) and len(plain.solved_gammas) == 12
            assert fast.predicted_steps == 12
            below = max(g for g in plain.solved_gammas if g < plain.gamma_star)
            assert fast.solved_gammas == (below, plain.gamma_star)
        else:
            assert fast.solved_gammas == ((1.0,) if threshold == 1.0 else (50.0,))
