import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
from conftest import returns_within
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


def planned(budgets, cfg):
    """The plan the rows' critical budgets give the search under ``cfg``."""
    from modens.evalharness import budget_plan

    return budget_plan(budgets, cfg.target_coverage, cfg.gamma_tol)


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
            seed=3)
        report.write_json(report_path)
        report.write_points_csv(points_path, test.potential_outcomes[:, cfg.arm])
        assert len(report.lo) == len(report.hi) == test.n
        assert json.loads(report_path.read_text())["n_points"] == test.n
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


def solved_at_own_gammas(model, prop, test, arm, alpha, gammas):
    """Each row's interval solved at its own gamma."""
    from modens import modulated_intervals_batch
    from modens.evalharness import _scored_arm

    fam, locs, scales, e = _scored_arm(model, prop, test.covariates, np.full(test.n, arm))
    return modulated_intervals_batch(fam, locs, scales, e + (1.0 - e) / gammas,
                                     e + gammas * (1.0 - e), alpha)


class TestPredictedCoverage:
    """The coverage the critical budgets predict at gamma, #{i : gamma_i <=
    gamma}/n, is the coverage of the intervals the solver returns there,
    and each row's budget is where its solved interval starts to cover."""

    DELTA = 1e-4

    def assert_agrees(self, model, prop, test, alpha, arm=1,
                      extra=(1.0, 3.0, 12.0, 49.9, 50.0)):
        """At every gamma the plain search visits with a target between the
        coverages at gamma 1 and 50, and at ``extra``; returns the budgets."""
        from modens.evalharness import (modulated_budgets, modulated_interval_arrays,
                                        modulated_pipeline)

        t, y = np.full(test.n, arm), test.potential_outcomes[:, arm]
        arrays = modulated_interval_arrays(model, prop, test.covariates, t, alpha)
        budgets = modulated_budgets(model, prop, test.covariates, t, y, alpha)
        cov_1, cov_50 = (coverage(lo, hi, y) for lo, hi in arrays(1.0, 50.0))
        assert cov_1 < cov_50  # so the bisection runs inside the range
        cfg = EvalConfig(target_coverage=0.5 * (cov_1 + cov_50), alpha=alpha, arm=arm)
        gammas = gamma_star_search(modulated_pipeline(model, prop, test, cfg), y,
                                   cfg).solved_gammas
        assert len(gammas) > 2
        for g in [*gammas, *extra]:
            assert np.count_nonzero(budgets <= g) / test.n == coverage(*arrays(g)[0], y), g
        self.assert_rows_cover_from_their_budgets(model, prop, test, alpha, arm, budgets)
        return budgets

    def assert_rows_cover_from_their_budgets(self, model, prop, test, alpha, arm, budgets):
        """Solved at gamma_i (1 + delta), row i covers y_i; solved at
        gamma_i (1 - delta), where that is a budget, it does not."""
        y = test.potential_outcomes[:, arm]
        finite = np.isfinite(budgets)
        assert finite.any()
        lo, hi = solved_at_own_gammas(model, prop, test, arm, alpha,
                                      np.where(finite, budgets * (1.0 + self.DELTA), 1.0))
        assert np.all(((lo <= y) & (y <= hi))[finite])
        lower = budgets * (1.0 - self.DELTA)
        inside = finite & (lower >= 1.0)
        lo, hi = solved_at_own_gammas(model, prop, test, arm, alpha,
                                      np.where(inside, lower, 1.0))
        assert not np.any(((lo <= y) & (y <= hi))[inside])

    @pytest.mark.parametrize("head", ["cauchy", "gaussian"])
    def test_trained_heads(self, trained, head):
        test, models = trained
        budgets = self.assert_agrees(*models[head], test, alpha=0.3)
        assert ((1.0 < budgets) & (budgets < 50.0)).any()

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
        from modens.evalharness import modulated_budgets, modulated_interval_arrays

        test, models = trained
        model, prop = models[head]
        a, b = model.members[:2]
        pairs = EnsembleModel(members=(a, a, b, b), seed=model.seed)
        self.assert_agrees(pairs, prop, test, alpha=0.3)
        # all tied: the modulated mixture is the member, whatever the weights,
        # so each budget is 1 or none.  Summed one by one, 16 equal masses
        # round away from 16 times one of them, which must not make the mass
        # grow with gamma.
        t, y = np.ones(test.n), test.potential_outcomes[:, 1]
        for m in (4, 16):
            tied = EnsembleModel(members=(a,) * m, seed=model.seed)
            arrays = modulated_interval_arrays(tied, prop, test.covariates, t, 0.3)
            budgets = modulated_budgets(tied, prop, test.covariates, t, y, 0.3)
            assert set(budgets.tolist()) == {1.0, math.inf}, m
            for g in (1.0, 3.0, 12.0, 49.9, 50.0):
                assert np.count_nonzero(budgets <= g) / test.n == coverage(*arrays(g)[0], y), g

    def test_propensity_at_clamp_and_gamma_50(self, trained):
        from modens import PROPENSITY_CLAMP, predict_propensity_batch

        test, models = trained
        model, prop = models["cauchy"]
        saturated = dataclasses.replace(
            prop, biases=[*prop.biases[:-1], prop.biases[-1] + 60.0])
        e1 = predict_propensity_batch(saturated, test.covariates)
        assert np.all(1.0 - e1 < PROPENSITY_CLAMP)  # arm 0 sits at the clamp
        self.assert_agrees(model, saturated, test, alpha=0.3, arm=0,
                           extra=(1.0, 2.0, 3.0, 12.0, 49.9, 50.0))

    def test_cauchy_far_tails(self, trained):
        # at alpha/2 = 1e-6 the upper ends sit where 1 - F_j rounds to
        # ulp(1); outcomes spread that far leave some to the bisection
        test, models = trained
        far_test = dataclasses.replace(
            test, potential_outcomes=3e4 * test.potential_outcomes)
        self.assert_agrees(*models["cauchy"], far_test, alpha=2e-6)

    def test_budgets_on_a_stretch_boundary(self, trained):
        # with m = 3 members, k = floor(3/(gamma+1)) drops from 1 to 0 at
        # gamma = 2: outcomes at the lower ends solved there have budgets 2
        from modens.evalharness import modulated_interval_arrays

        test, models = trained
        model, prop = models["cauchy"]
        assert model.m == 3
        (lo, _), = modulated_interval_arrays(model, prop, test.covariates, np.ones(test.n),
                                             0.3)(2.0)
        on_boundary = dataclasses.replace(
            test, potential_outcomes=np.column_stack([lo, lo]))
        budgets = self.assert_agrees(model, prop, on_boundary, alpha=0.3,
                                     extra=(1.0, 1.999, 2.001, 3.0, 12.0, 49.9, 50.0))
        assert np.allclose(budgets, 2.0, rtol=1e-6, atol=0.0)

    def test_outcome_count_mismatch_and_empty_rejected(self, trained):
        from modens.evalharness import modulated_budgets

        test, models = trained
        with pytest.raises(ValueError, match="outcomes"):
            modulated_budgets(*models["cauchy"], test.covariates, np.ones(test.n),
                              np.zeros(test.n + 1), 0.3)
        with pytest.raises(ValueError, match="empty"):
            modulated_budgets(*models["cauchy"], test.covariates[:0], np.ones(0),
                              np.zeros(0), 0.3)


class TestPredictedSearch:
    """``run_experiment`` takes gamma* from the critical budgets, solves
    intervals only at the gammas its answer rests on, and otherwise
    reports what the plain search reports."""

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

    @staticmethod
    def assert_interior(exact, plain, cfg):
        """gamma* within gamma_tol below the plain search's, solved with the
        probe half a tolerance below it, which misses the target."""
        tol = cfg.gamma_tol
        assert 1.0 < exact.gamma_star <= plain.gamma_star < exact.gamma_star + tol
        assert exact.solved_gammas == (exact.gamma_star, exact.gamma_star - tol / 2)
        assert exact.achieved_coverage >= cfg.target_coverage

    @pytest.mark.parametrize("head", ["cauchy", "gaussian"])
    def test_paths_match_plain_search(self, trained, head):
        # at gamma* = 1 and on FAILURE, bit for bit; inside the range,
        # within gamma_tol below the plain search's bracket end
        from modens import run_experiment
        from modens.evalharness import modulated_interval_arrays

        test, models = trained
        model, prop = models[head]
        alpha = 0.6
        arrays = modulated_interval_arrays(model, prop, test.covariates, np.ones(test.n),
                                           alpha)
        y = test.potential_outcomes[:, 1]
        cov_1, cov_50 = (coverage(lo, hi, y) for lo, hi in arrays(1.0, 50.0))
        assert 0.0 < cov_1 < cov_50 < 1.0
        for target, outcome in ((0.5 * (cov_1 + cov_50), "interior"), (cov_1, "gamma one"),
                                (0.5 * (cov_50 + 1.0), "failure")):
            cfg = EvalConfig(target_coverage=target, alpha=alpha)
            plain = self.plain(model, prop, test, cfg)
            exact = run_experiment(test, cfg, model=model, propensity=prop, seed=0)
            if outcome == "interior":
                self.assert_interior(exact, plain, cfg)
                (lo, hi), = arrays(exact.gamma_star)
                assert lo.tobytes() == exact.lo.tobytes() and hi.tobytes() == exact.hi.tobytes()
            elif outcome == "gamma one":
                self.assert_same_report(exact, plain)
                assert plain.gamma_star == 1.0 and exact.solved_gammas == (1.0,)
            else:
                self.assert_same_report(exact, plain)
                assert plain.failed and exact.solved_gammas == (50.0,)

    def test_run_experiment_scores_the_arm_once(self, trained, monkeypatch):
        from modens import mlp, run_experiment
        from modens.evalharness import modulated_budgets, modulated_pipeline

        test, models = trained
        model, prop = models["cauchy"]
        cfg = EvalConfig(target_coverage=0.76, alpha=0.2)
        y = test.potential_outcomes[:, 1]
        # the pipeline and the budgets each scoring the rows themselves
        unshared = gamma_star_search(
            modulated_pipeline(model, prop, test, cfg), y, cfg, seed=0,
            plan=planned(modulated_budgets(model, prop, test.covariates, np.ones(test.n), y,
                                           0.2), cfg))
        calls = []
        predict = mlp.predict_components_batch
        monkeypatch.setattr(mlp, "predict_components_batch",
                            lambda *args: calls.append(args) or predict(*args))
        report = run_experiment(test, cfg, model=model, propensity=prop, seed=0)
        assert len(calls) == 1
        self.assert_same_report(report, unshared)
        assert report.solved_gammas == unshared.solved_gammas
        self.assert_interior(report, self.plain(model, prop, test, cfg), cfg)

    @pytest.mark.parametrize("wrong", [lambda real: np.ones_like(real),
                                       lambda real: np.full_like(real, math.inf),
                                       lambda real: real / 2.0, lambda real: real * 2.0],
                             ids=["always-covered", "never-covered", "shifted-down",
                                  "shifted-up"])
    def test_wrong_prediction_falls_back_to_plain_search(self, trained, wrong):
        from modens.evalharness import modulated_budgets, modulated_pipeline

        test, models = trained
        model, prop = models["cauchy"]
        cfg = EvalConfig(target_coverage=0.76, alpha=0.2)
        y = test.potential_outcomes[:, 1]
        real = modulated_budgets(model, prop, test.covariates, np.ones(test.n), y, 0.2)
        plain = self.plain(model, prop, test, cfg)
        assert 1.0 < plain.gamma_star < 50.0
        # the pipeline solves the plan's gammas together, as run_experiment's does
        plan = planned(wrong(real), cfg)
        guided = gamma_star_search(modulated_pipeline(model, prop, test, cfg,
                                                      gammas=tuple(plan[1])),
                                   y, cfg, seed=0, plan=plan)
        self.assert_same_report(guided, plain)
        assert set(plain.solved_gammas) <= set(guided.solved_gammas)

    @pytest.mark.parametrize("threshold", [1.0, 7.0, 60.0])
    def test_scripted_prediction_solves_only_the_ends(self, threshold):
        from modens.evalharness import BUDGET_STEP

        outcomes = np.linspace(4.0, 6.0, 20)
        cfg = EvalConfig(target_coverage=0.9, alpha=0.1)
        plain = gamma_star_search(step_pipeline(threshold), outcomes, cfg)
        exact = gamma_star_search(step_pipeline(threshold), outcomes, cfg,
                                  plan=planned(np.full(20, threshold), cfg))
        if threshold == 7.0:
            assert plain.solved_gammas[:2] == (1.0, 50.0) and len(plain.solved_gammas) == 12
            assert exact.gamma_star == 7.0 * (1.0 + BUDGET_STEP)
            self.assert_interior(exact, plain, cfg)
        else:
            self.assert_same_report(exact, plain)
            assert exact.solved_gammas == ((1.0,) if threshold == 1.0 else (50.0,))

    def test_scripted_search_ends_below_float_spacing(self):
        # a tolerance below the float spacing near gamma*: both paths bisect
        # until the bracket's ends are adjacent floats; the budgets' lower
        # certificate, one float below gamma*, still reaches the target
        from modens.evalharness import BUDGET_STEP

        outcomes = np.linspace(4.0, 6.0, 16)
        cfg = EvalConfig(target_coverage=0.9, alpha=0.1, gamma_tol=1e-20)
        plain = returns_within(30, gamma_star_search, step_pipeline(7.0, n=16), outcomes, cfg)
        exact = returns_within(30, gamma_star_search, step_pipeline(7.0, n=16), outcomes, cfg,
                               plan=planned(np.full(16, 7.0), cfg))
        assert plain.gamma_star == 7.0 and math.nextafter(7.0, 0.0) in plain.solved_gammas
        self.assert_same_report(exact, plain)
        certified = 7.0 * (1.0 + BUDGET_STEP)
        assert exact.solved_gammas[:2] == (certified, math.nextafter(certified, 0.0))

    @pytest.mark.parametrize("head", ["cauchy", "gaussian"])
    def test_trained_search_ends_below_float_spacing(self, trained, head):
        from modens import run_experiment
        from modens.evalharness import modulated_interval_arrays

        test, models = trained
        model, prop = models[head]
        arrays = modulated_interval_arrays(model, prop, test.covariates, np.ones(test.n), 0.6)
        y = test.potential_outcomes[:, 1]
        cfg = EvalConfig(target_coverage=0.5 * sum(coverage(lo, hi, y)
                                                   for lo, hi in arrays(1.0, 50.0)), alpha=0.6)
        default = run_experiment(test, cfg, model=model, propensity=prop)
        self.assert_interior(default, self.plain(model, prop, test, cfg), cfg)
        fine = returns_within(30, run_experiment, test,
                              dataclasses.replace(cfg, gamma_tol=1e-20),
                              model=model, propensity=prop)
        assert fine.achieved_coverage == default.achieved_coverage
        assert fine.gamma_star == pytest.approx(default.gamma_star, rel=2e-6)
        assert len(fine.solved_gammas) > 2

    def test_budget_step_certifies_every_interior_target(self, trained):
        # every coverage reachable inside (1, 50] on both heads, three
        # alphas and both arms: no certificate falls back to the bisection
        from modens import run_experiment
        from modens.evalharness import modulated_interval_arrays

        test, models = trained
        targets = 0
        for model, prop in models.values():
            for alpha in (0.1, 0.3, 0.6):
                for arm in (0, 1):
                    arrays = modulated_interval_arrays(model, prop, test.covariates,
                                                       np.full(test.n, arm), alpha)
                    y = test.potential_outcomes[:, arm]
                    cov_1, cov_50 = (coverage(lo, hi, y) for lo, hi in arrays(1.0, 50.0))
                    for target in (k / test.n for k in range(test.n + 1)
                                   if cov_1 < k / test.n <= cov_50):
                        cfg = EvalConfig(target_coverage=target, alpha=alpha, arm=arm)
                        report = run_experiment(test, cfg, model=model, propensity=prop)
                        assert len(report.solved_gammas) == 2, (alpha, arm, target)
                        targets += 1
        assert targets > 50

    def test_need_divides_as_coverage_does(self):
        # row i covered from gamma = i + 2 on: at target 0.28 on 25 rows the
        # 7th budget decides, as 7/25 >= 0.28, though ceil(0.28 * 25) is 8
        from modens.evalharness import BUDGET_STEP

        budgets = np.arange(2.0, 27.0)
        assert math.ceil(0.28 * 25) == 8 and 7 / 25 >= 0.28

        def pipeline(gamma):
            return [iv(-1.0, 1.0, gamma=gamma) if gamma >= b else iv(1.0, 2.0, gamma=gamma)
                    for b in budgets.tolist()]

        cfg = EvalConfig(target_coverage=0.28, alpha=0.1)
        y = np.linspace(-0.5, 0.5, 25)
        exact = gamma_star_search(pipeline, y, cfg, plan=planned(budgets, cfg))
        assert exact.gamma_star == 8.0 * (1.0 + BUDGET_STEP)
        assert exact.achieved_coverage == 7 / 25
        self.assert_interior(exact, gamma_star_search(pipeline, y, cfg), cfg)


class TestStackedSolves:
    """Every gamma a caller names is solved in one stacked
    ``modulated_intervals_batch`` call, with the bits of one call per gamma."""

    @staticmethod
    def one_solve(model, prop, test, alpha, gamma):
        from modens import modulated_intervals_batch, msm_bounds_arrays
        from modens.evalharness import _scored_arm

        fam, locs, scales, e = _scored_arm(model, prop, test.covariates, np.ones(test.n))
        return modulated_intervals_batch(fam, locs, scales, *msm_bounds_arrays(e, gamma), alpha)

    def assert_one_solve_each(self, model, prop, test, alpha, gammas, pairs):
        assert len(pairs) == len(gammas)
        for gamma, (lo, hi) in zip(gammas, pairs):
            ref_lo, ref_hi = self.one_solve(model, prop, test, alpha, gamma)
            assert lo.tobytes() == ref_lo.tobytes() and hi.tobytes() == ref_hi.tobytes(), gamma

    @staticmethod
    def count_batches(monkeypatch):
        """The rows and results of each ``modulated_intervals_batch`` call
        the harness makes."""
        from modens import evalharness

        calls = []
        batch = evalharness.modulated_intervals_batch

        def counted(*args):
            result = batch(*args)
            calls.append((len(args[1]), result))
            return result

        monkeypatch.setattr(evalharness, "modulated_intervals_batch", counted)
        return calls

    @pytest.mark.parametrize("gammas", [(3.0,), (2.5, 2.5), (1.0, 2.0, 5.0, 10.0, 25.0, 50.0)],
                             ids=["one", "duplicate", "six"])
    @pytest.mark.parametrize("head", ["cauchy", "gaussian"])
    def test_intervals_of_several_gammas_equal_one_call_each(self, trained, monkeypatch,
                                                             head, gammas):
        from modens.evalharness import modulated_interval_arrays

        test, models = trained
        model, prop = models[head]
        arrays = modulated_interval_arrays(model, prop, test.covariates, np.ones(test.n), 0.3)
        calls = self.count_batches(monkeypatch)
        pairs = arrays(*gammas)
        assert [rows for rows, _ in calls] == [len(gammas) * test.n]
        self.assert_one_solve_each(model, prop, test, 0.3, gammas, pairs)

    def test_intervals_need_a_gamma(self, trained):
        from modens.evalharness import modulated_interval_arrays

        test, models = trained
        arrays = modulated_interval_arrays(*models["cauchy"], test.covariates,
                                           np.ones(test.n), 0.3)
        with pytest.raises(ValueError, match="at least one gamma"):
            arrays()

    def test_pipeline_solves_the_planned_gammas_with_the_first_probe(self, trained,
                                                                    monkeypatch):
        from modens.evalharness import modulated_pipeline

        test, models = trained
        model, prop = models["cauchy"]
        cfg = EvalConfig(target_coverage=0.8, alpha=0.3)
        pipeline = modulated_pipeline(model, prop, test, cfg, gammas=(4.0, 2.0, 4.0))
        calls = self.count_batches(monkeypatch)
        probed = [(gamma, pipeline(gamma)) for gamma in (2.0, 4.0, 3.0, 2.0)]
        # 2.0 and 4.0 together; then 3.0, unplanned, and 2.0 again, each alone
        assert [rows for rows, _ in calls] == [2 * test.n, test.n, test.n]
        self.assert_one_solve_each(model, prop, test, 0.3, [g for g, _ in probed],
                                   [ends(intervals) for _, intervals in probed])
        assert all(iv.gamma == gamma for gamma, intervals in probed for iv in intervals)

    @pytest.mark.parametrize("head", ["cauchy", "gaussian"])
    def test_budget_path_solves_its_gammas_in_one_batch(self, trained, monkeypatch, head):
        from modens import run_experiment
        from modens.evalharness import modulated_budgets, modulated_interval_arrays

        test, models = trained
        model, prop = models[head]
        alpha = 0.6
        y = test.potential_outcomes[:, 1]
        arrays = modulated_interval_arrays(model, prop, test.covariates, np.ones(test.n), alpha)
        cfg = EvalConfig(target_coverage=0.5 * sum(coverage(lo, hi, y)
                                                   for lo, hi in arrays(1.0, 50.0)), alpha=alpha)
        plan = planned(modulated_budgets(model, prop, test.covariates, np.ones(test.n), y,
                                         alpha), cfg)
        calls = self.count_batches(monkeypatch)
        report = run_experiment(test, cfg, model=model, propensity=prop, seed=0)
        assert len(calls) == 1 and calls[0][0] == 2 * test.n
        assert report.gamma_star == plan[0] and report.solved_gammas == tuple(plan[1])
        assert len(report.solved_gammas) == 2
        lo, hi = calls[0][1]
        self.assert_one_solve_each(model, prop, test, alpha, report.solved_gammas,
                                   list(zip(np.split(lo, 2), np.split(hi, 2))))
        ref_lo, ref_hi = self.one_solve(model, prop, test, alpha, report.gamma_star)
        assert report.lo.tobytes() == ref_lo.tobytes()
        assert report.hi.tobytes() == ref_hi.tobytes()
