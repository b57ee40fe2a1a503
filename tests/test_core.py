import math

import numpy as np
import pytest

from modens import (PROPENSITY_CLAMP, ComponentDistribution, CoverageBound, Family,
                    OutcomeInterval, SensitivityConfig, WeightBounds, WeightVector,
                    WeightedMixture, brute_force_extreme_quantile, check_optimality,
                    default_quantile_tol, empirical_coverage_bound,
                    maximize_quantile, minimize_quantile, mixture_quantile,
                    modulated_intervals_batch, msm_bounds, msm_bounds_arrays,
                    outcome_interval)
from modens.mlp import SCALE_FLOOR

import oracles

G = Family.GAUSSIAN
C = Family.CAUCHY


def g(loc, scale=1.0):
    return ComponentDistribution(G, loc, scale)


def c(loc, scale=1.0):
    return ComponentDistribution(C, loc, scale)


def direct_greedy_minimizer(components, bounds, beta):
    """Independent pairwise minimizer (no reflection): transfer weight toward
    components with MORE mass at the current quantile to drag it down."""
    m = len(components)
    w = np.ones(m)
    for _ in range(8 * m * m + 64):
        mix = WeightedMixture(components, w / w.mean())
        q = mixture_quantile(mix, beta)
        masses = np.array([c.cdf(q) for c in components])
        receiver = sender = -1
        for i in range(m):
            if w[i] < bounds.upper and (receiver < 0 or masses[i] > masses[receiver]):
                receiver = i
            if w[i] > bounds.lower and (sender < 0 or masses[i] < masses[sender]):
                sender = i
        if receiver < 0 or sender < 0 or masses[receiver] <= masses[sender] + 1e-9:
            break
        delta = min(bounds.upper - w[receiver], w[sender] - bounds.lower)
        w[receiver] += delta
        w[sender] -= delta
    w = w / w.mean()
    return mixture_quantile(WeightedMixture(components, w), beta), w


class TestWeightVector:
    def test_mean_one_enforced(self):
        WeightVector([0.5, 1.5])
        with pytest.raises(ValueError):
            WeightVector([0.5, 1.6])

    def test_bounds_enforced(self):
        b = WeightBounds(0.8, 1.2)
        WeightVector([0.8, 1.2], b)
        with pytest.raises(ValueError):
            WeightVector([0.5, 1.5], b)


class TestMaximizeQuantile:
    def test_identity_bounds_reduce_to_plain_quantile(self, rng):
        comps = oracles.random_components(rng, 4)
        q, w = maximize_quantile(comps, WeightBounds(1.0, 1.0), 0.8)
        assert w.weights == (1.0,) * 4
        plain = mixture_quantile(WeightedMixture(comps), 0.8)
        assert q == pytest.approx(plain, abs=2 * default_quantile_tol(comps))

    def test_single_member_forced_to_unit_weight(self):
        d = ComponentDistribution(C, 2.0, 3.0)
        q, w = maximize_quantile([d], WeightBounds(0.5, 1.5), 0.75)
        assert w.weights == (1.0,)
        assert q == pytest.approx(oracles.scipy_dist(d).ppf(0.75), abs=1e-8)

    def test_two_gaussian_frozen_example(self):
        comps = [g(0), g(4)]
        bounds = WeightBounds(0.5, 1.5)
        q, w = maximize_quantile(comps, bounds, 0.5)
        # brute-force vertex oracle value, cross-checked against bisection
        assert q == pytest.approx(3.569436680013771, abs=1e-7)
        assert np.allclose(w.weights, [0.5, 1.5])
        bf = brute_force_extreme_quantile(comps, bounds, 0.5, maximize=True)
        assert abs(q - bf) <= 2e-9 * (1 + max(c.scale for c in comps))

    def test_monotone_in_beta(self, rng):
        comps = oracles.random_components(rng, 5)
        bounds = oracles.random_bounds(rng, 4.0)
        qs = [maximize_quantile(comps, bounds, b)[0]
              for b in (0.05, 0.2, 0.5, 0.8, 0.975)]
        assert all(a <= b + 1e-7 for a, b in zip(qs, qs[1:]))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            maximize_quantile([g(0)], (0.5, 1.5), 0.5)


class TestMinimizeQuantile:
    def test_identity_bounds(self, rng):
        comps = oracles.random_components(rng, 3)
        q, w = minimize_quantile(comps, WeightBounds(1.0, 1.0), 0.3)
        assert w.weights == (1.0,) * 3
        assert q == pytest.approx(mixture_quantile(WeightedMixture(comps), 0.3),
                                  abs=2 * default_quantile_tol(comps))

    def test_mirrored_frozen_example(self):
        # mirror of the maximizer example: upweighting the left component
        # drags the median down to -3.5694...
        comps = [g(0), g(-4)]
        q, w = minimize_quantile(comps, WeightBounds(0.5, 1.5), 0.5)
        assert q == pytest.approx(-3.569436680013771, abs=1e-7)
        assert np.allclose(w.weights, [0.5, 1.5])

    def test_reflection_identity_vs_direct_greedy(self, rng):
        # an independent direct greedy minimizer must land on the same value
        for _ in range(15):
            m = int(rng.integers(2, 6))
            comps = oracles.random_components(rng, m)
            bounds = oracles.random_bounds(rng, float(rng.uniform(1.5, 8.0)))
            beta = float(rng.choice([0.1, 0.4, 0.5, 0.9]))
            q, _ = minimize_quantile(comps, bounds, beta)
            q_direct, _ = direct_greedy_minimizer(comps, bounds, beta)
            assert q == pytest.approx(q_direct, abs=1e-6 * (1 + max(c.scale for c in comps)))


class TestOutcomeInterval:
    def test_identity_bounds_single_gaussian(self):
        iv = outcome_interval([g(0)], WeightBounds(1.0, 1.0), 0.05)
        assert type(iv.lo) is float and type(iv.hi) is float
        z = oracles.norm_quantile_by_bisection(0.975)
        assert iv.lo == pytest.approx(-z, abs=1e-7)
        assert iv.hi == pytest.approx(z, abs=1e-7)

    def test_gamma_nesting_fixed_ensemble(self, rng):
        from modens import SensitivityConfig, msm_bounds

        comps = oracles.random_components(rng, 6)
        e = 0.4
        b1 = msm_bounds(e, SensitivityConfig(1.0))
        b2 = msm_bounds(e, SensitivityConfig(2.0))
        iv1 = outcome_interval(comps, b1, 0.1, gamma=1.0)
        iv2 = outcome_interval(comps, b2, 0.1, gamma=2.0)
        assert iv2.lo <= iv1.lo + 1e-8
        assert iv2.hi >= iv1.hi - 1e-8

    def test_cauchy_quartiles(self):
        iv = outcome_interval([ComponentDistribution(C, 0, 1)],
                              WeightBounds(1.0, 1.0), 0.5)
        assert iv.lo == pytest.approx(-1.0, abs=1e-8)
        assert iv.hi == pytest.approx(1.0, abs=1e-8)

    def test_interval_invariants(self):
        with pytest.raises(ValueError):
            OutcomeInterval(lo=1.0, hi=0.0, alpha=0.1)
        with pytest.raises(ValueError):
            OutcomeInterval(lo=0.0, hi=1.0, alpha=1.5)


class TestBruteForce:
    def test_identity_bounds_unique_assignment(self, rng):
        comps = oracles.random_components(rng, 3)
        q = brute_force_extreme_quantile(comps, WeightBounds(1.0, 1.0), 0.6)
        assert q == pytest.approx(mixture_quantile(WeightedMixture(comps), 0.6),
                                  abs=2 * default_quantile_tol(comps))

    def test_beats_dense_random_search(self, rng):
        # no random feasible point may beat the enumerated vertex optimum
        comps = oracles.random_components(rng, 4)
        bounds = oracles.random_bounds(rng, 3.0)
        beta = 0.8
        q_max = brute_force_extreme_quantile(comps, bounds, beta, maximize=True)
        q_min = brute_force_extreme_quantile(comps, bounds, beta, maximize=False)
        for _ in range(200):
            w = oracles.random_feasible_weights(rng, 4, bounds)
            q = mixture_quantile(WeightedMixture(comps, w), beta)
            assert q <= q_max + 1e-6 * (1 + max(c.scale for c in comps))
            assert q >= q_min - 1e-6 * (1 + max(c.scale for c in comps))

    def test_refuses_large_m(self):
        comps = [g(i) for i in range(11)]
        with pytest.raises(ValueError, match="refused"):
            brute_force_extreme_quantile(comps, WeightBounds(0.5, 1.5), 0.5)

    def test_greedy_equals_brute_force_extreme_regime(self):
        # the evaluation protocol runs at beta near the tails with budgets
        # up to gamma=50; the solver must track the oracle there too
        rng = np.random.default_rng(888)
        for _ in range(30):
            m = int(rng.integers(2, 7))
            comps = oracles.random_components(rng, m)
            gamma = float(rng.choice([25.0, 50.0]))
            beta = float(rng.choice([0.005, 0.995]))
            e = float(rng.uniform(0.05, 0.95))
            from modens import SensitivityConfig, msm_bounds

            bounds = msm_bounds(e, SensitivityConfig(gamma))
            norm = 1.0 + max(c.scale for c in comps)
            q, w = maximize_quantile(comps, bounds, beta)
            bf = brute_force_extreme_quantile(comps, bounds, beta, maximize=True)
            assert abs(q - bf) <= 1e-6 * norm
            assert check_optimality(comps, w, bounds, beta)

    def test_greedy_equals_brute_force_m4(self, rng):
        scale_hint = 0.0
        worst = 0.0
        for _ in range(40):
            comps = oracles.random_components(rng, 4)
            bounds = oracles.random_bounds(rng, float(rng.choice([1.5, 3.0, 10.0])))
            beta = float(rng.choice([0.05, 0.5, 0.975]))
            q, _ = maximize_quantile(comps, bounds, beta)
            bf = brute_force_extreme_quantile(comps, bounds, beta, maximize=True)
            norm = 1 + max(c.scale for c in comps)
            worst = max(worst, abs(q - bf) / norm)
        assert worst <= 1e-6


class TestCheckOptimality:
    def test_optimizer_output_certified(self, rng):
        for _ in range(10):
            comps = oracles.random_components(rng, 5)
            bounds = oracles.random_bounds(rng, 4.0)
            beta = float(rng.uniform(0.1, 0.9))
            _, w = maximize_quantile(comps, bounds, beta)
            assert check_optimality(comps, w, bounds, beta)

    def test_unit_weights_not_optimal_on_separated_pair(self):
        comps = [g(0), g(4)]
        bounds = WeightBounds(0.5, 1.5)
        w = WeightVector([1.0, 1.0], bounds)
        # at the unit-weight median the left component holds more mass
        assert not check_optimality(comps, w, bounds, 0.5)

    def test_degenerate_bounds_vacuously_true(self, rng):
        comps = oracles.random_components(rng, 4)
        w = WeightVector([1.0] * 4)
        assert check_optimality(comps, w, WeightBounds(1.0, 1.0), 0.5)


class TestFeasibilityPreservation:
    def test_weights_stay_feasible_and_mean_one(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 8))
            comps = oracles.random_components(rng, m)
            bounds = oracles.random_bounds(rng, float(rng.uniform(1.2, 10.0)))
            beta = float(rng.uniform(0.05, 0.95))
            _, w = maximize_quantile(comps, bounds, beta)
            arr = w.as_array()
            assert (arr >= bounds.lower - 1e-12).all()
            assert (arr <= bounds.upper + 1e-12).all()
            assert abs(arr.mean() - 1.0) <= 1e-12

    def test_vertex_structure(self, rng):
        # at most one coordinate strictly between the bounds
        for _ in range(10):
            m = int(rng.integers(2, 7))
            comps = oracles.random_components(rng, m)
            bounds = oracles.random_bounds(rng, 5.0)
            _, w = maximize_quantile(comps, bounds, 0.9)
            arr = w.as_array()
            interior = ((arr > bounds.lower + 1e-10) &
                        (arr < bounds.upper - 1e-10)).sum()
            assert interior <= 1


_MIXED = [g(-1.0, 0.5), c(0.3, 2.0), g(2.0, 1.5), c(-0.5, 0.7)]
_MID = msm_bounds(0.3, SensitivityConfig(4.0))
EDGE_CASES = {
    "beta-0.001": (_MIXED, _MID, 0.001),
    "beta-0.999": (_MIXED, _MID, 0.999),
    "gamma-50-e-low": (_MIXED, msm_bounds(PROPENSITY_CLAMP, SensitivityConfig(50.0)),
                       0.9),
    "gamma-50-e-high": (_MIXED, msm_bounds(1.0 - PROPENSITY_CLAMP, SensitivityConfig(50.0)),
                        0.9),
    "identical-members": ([g(1.0, 2.0)] * 5, msm_bounds(0.2, SensitivityConfig(10.0)), 0.8),
    "cauchy-1e4-scales": ([c(0.0, 1e-2), c(1.0, 1e2), c(-3.0, 1.0)], _MID, 0.7),
    "scale-floor": ([g(0.0, 1e-6), c(0.5, 1.0), g(-1.0, 2.0)], _MID, 0.4),
}


class TestNumericEdges:
    @pytest.mark.parametrize("name", list(EDGE_CASES))
    def test_matches_oracle_and_certificate(self, name):
        comps, bounds, beta = EDGE_CASES[name]
        tol = default_quantile_tol(comps)
        q_max, w_max = maximize_quantile(comps, bounds, beta)
        q_min, w_min = minimize_quantile(comps, bounds, beta)
        bf_max = brute_force_extreme_quantile(comps, bounds, beta, maximize=True)
        bf_min = brute_force_extreme_quantile(comps, bounds, beta, maximize=False)
        assert abs(q_max - bf_max) <= 2 * tol
        assert abs(q_min - bf_min) <= 2 * tol
        assert q_min <= q_max
        assert check_optimality(comps, w_max, bounds, beta)
        for w in (w_max, w_min):
            assert abs(w.as_array().mean() - 1.0) <= 1e-12

    def test_identical_members_collapse_to_the_member_quantile(self):
        comps, bounds, beta = EDGE_CASES["identical-members"]
        iv = outcome_interval(comps, bounds, 2 * (1 - beta))
        q = oracles.scipy_dist(comps[0]).ppf(beta)
        assert iv.hi == pytest.approx(q, abs=2 * default_quantile_tol(comps))
        assert iv.lo == pytest.approx(-q + 2.0, abs=2 * default_quantile_tol(comps))


def _batch_edges():
    """The numeric edges, each as a 10-row ``modulated_intervals_batch``
    input (fam, locs, scales, lowers, uppers, alpha)."""
    rng = np.random.default_rng(2024)
    n = 10

    def rows(fam, gamma, alpha, e=None, scales=None, tied=False):
        m = len(fam)
        locs = rng.normal(0.0, 3.0, (n, m))
        if scales is None:
            scales = 0.2 + np.abs(rng.normal(0.0, 1.5, (n, m)))
        scales = np.broadcast_to(np.asarray(scales, dtype=np.float64), (n, m))
        if tied:
            locs = np.repeat(locs[:, :1], m, axis=1)
            scales = np.repeat(scales[:, :1], m, axis=1)
        if e is None:
            e = rng.uniform(0.05, 0.95, n)
        return (np.array(fam), locs, np.ascontiguousarray(scales),
                *msm_bounds_arrays(e, gamma), alpha)

    mixed = [0, 1, 0, 1]
    return {
        "alpha-2e-6": rows(mixed, 4.0, 2e-6),
        "alpha-0.999": rows(mixed, 4.0, 0.999),
        "gamma-50-clamped-propensity": rows(
            mixed, 50.0, 0.1, e=np.resize([PROPENSITY_CLAMP, 1.0 - PROPENSITY_CLAMP], n)),
        "identical-members": rows([1] * 5, 10.0, 0.2, tied=True),
        "m-1": rows([0], 4.0, 0.3),
        "cauchy-far-tails": rows([1, 1, 1], 4.0, 2e-6),
        "scale-floor": rows(mixed, 4.0, 0.1, scales=[SCALE_FLOOR, 1e3, 1e3, 1.0]),
    }


BATCH_EDGES = _batch_edges()


def _row_components(fam, locs, scales, i, sign=1.0):
    """Row i's members, reflected about 0 when ``sign`` is -1."""
    return [ComponentDistribution(C if f else G, sign * loc, scale)
            for f, loc, scale in zip(fam.tolist(), locs[i].tolist(), scales[i].tolist())]


def _embedded(batch, seed):
    """``batch``'s rows at random positions among random rows with the same
    families, 64 rows in all; returns the bigger batch and the positions."""
    fam, locs, scales, lowers, uppers, alpha = batch
    rng = np.random.default_rng(seed)
    n, m = locs.shape
    big_locs = rng.normal(0.0, 5.0, (64, m))
    big_scales = 0.1 + np.abs(rng.normal(0.0, 2.0, (64, m)))
    big_lowers, big_uppers = msm_bounds_arrays(rng.uniform(PROPENSITY_CLAMP, 0.999, 64),
                                               float(rng.uniform(1.0, 50.0)))
    at = rng.choice(64, size=n, replace=False)
    for big, small in ((big_locs, locs), (big_scales, scales), (big_lowers, lowers),
                       (big_uppers, uppers)):
        big[at] = small
    return (fam, big_locs, big_scales, big_lowers, big_uppers, alpha), at


@pytest.mark.filterwarnings("error")
class TestBatchDriver:
    def test_rows_equal_outcome_interval(self, rng):
        # the batch kernel is not the single-row kernel: equal within tol
        n, m = 40, 6
        fam = (rng.random(m) < 0.5).astype(np.int64)
        locs = rng.normal(0, 3, (n, m))
        scales = 0.2 + np.abs(rng.normal(0, 1, (n, m)))
        lowers, uppers = msm_bounds_arrays(rng.uniform(0.2, 0.8, n), 4.0)
        lo, hi = modulated_intervals_batch(fam, locs, scales, lowers, uppers, 0.1)
        for i in range(n):
            comps = _row_components(fam, locs, scales, i)
            tol = default_quantile_tol(comps)
            iv = outcome_interval(comps, WeightBounds(lowers[i], uppers[i]), 0.1)
            assert abs(lo[i] - iv.lo) <= tol and abs(hi[i] - iv.hi) <= tol

    @pytest.mark.parametrize("name", list(BATCH_EDGES))
    def test_edges_match_outcome_interval_and_oracles(self, name):
        fam, locs, scales, lowers, uppers, alpha = BATCH_EDGES[name]
        lo, hi = modulated_intervals_batch(fam, locs, scales, lowers, uppers, alpha)
        for i in range(len(lo)):
            comps = _row_components(fam, locs, scales, i)
            bounds = WeightBounds(lowers[i], uppers[i])
            tol = default_quantile_tol(comps)
            iv = outcome_interval(comps, bounds, alpha)
            assert abs(lo[i] - iv.lo) <= tol and abs(hi[i] - iv.hi) <= tol, i
            if i >= 3:
                continue
            # the max (1-alpha/2)-quantile is minus the min alpha/2-quantile
            # of the reflected members, which keeps the tail mass exact
            ref_lo = brute_force_extreme_quantile(comps, bounds, alpha / 2, maximize=False)
            ref_hi = -brute_force_extreme_quantile(
                _row_components(fam, locs, scales, i, sign=-1.0), bounds, alpha / 2,
                maximize=False)
            assert abs(lo[i] - ref_lo) <= 2 * tol and abs(hi[i] - ref_hi) <= 2 * tol, i
            if len(set(zip(locs[i].tolist(), scales[i].tolist()))) == 1:
                member = oracles.scipy_dist(comps[0])
                assert abs(lo[i] - member.ppf(alpha / 2)) <= 2 * tol
                assert abs(hi[i] - member.isf(alpha / 2)) <= 2 * tol

    @pytest.mark.parametrize("name", list(BATCH_EDGES))
    def test_rows_do_not_depend_on_the_batch(self, name):
        batch = BATCH_EDGES[name]
        big, at = _embedded(batch, seed=len(name))
        lo, hi = modulated_intervals_batch(*big)
        fam, locs, scales, lowers, uppers, alpha = batch
        for i, j in enumerate(at.tolist()):
            alone = modulated_intervals_batch(fam, locs[i:i + 1], scales[i:i + 1],
                                              lowers[i:i + 1], uppers[i:i + 1], alpha)
            assert (alone[0][0], alone[1][0]) == (lo[j], hi[j])
        perm = np.random.default_rng(len(name)).permutation(64)
        fam, locs, scales, lowers, uppers, alpha = big
        p_lo, p_hi = modulated_intervals_batch(fam, locs[perm], scales[perm], lowers[perm],
                                               uppers[perm], alpha)
        assert p_lo.tobytes() == lo[perm].tobytes() and p_hi.tobytes() == hi[perm].tobytes()

    def test_empty_batch(self):
        lo, hi = modulated_intervals_batch([0, 1], np.empty((0, 2)), np.empty((0, 2)),
                                           [], [], 0.1)
        assert lo.shape == hi.shape == (0,)

    @pytest.mark.parametrize("field, value, match", [
        ("fam", [0, 2], "family codes"),
        ("alpha", 1.5, "alpha"),
        ("alpha", 0.0, "alpha"),
        ("alpha", math.nan, "alpha"),
        ("locs", [[math.nan, 0.0], [0.0, 0.0]], "locations"),
        ("locs", [[math.inf, 0.0], [0.0, 0.0]], "locations"),
        ("scales", [[1.0, 0.0], [1.0, 1.0]], "scales"),
        ("scales", [[1.0, math.inf], [1.0, 1.0]], "scales"),
        ("scales", [[1.0, math.nan], [1.0, 1.0]], "scales"),
        ("lowers", [1.5, 0.5], "weight bounds"),
        ("lowers", [0.0, 0.5], "weight bounds"),
        ("uppers", [0.5, 2.0], "weight bounds"),
        ("uppers", [math.inf, 2.0], "weight bounds"),
        ("uppers", [math.nan, 2.0], "weight bounds"),
    ])
    def test_rejects_invalid_inputs(self, field, value, match):
        args = {"fam": [0, 1], "locs": np.zeros((2, 2)), "scales": np.ones((2, 2)),
                "lowers": [0.5, 0.5], "uppers": [2.0, 2.0], "alpha": 0.1}
        modulated_intervals_batch(**args)
        args[field] = value
        with pytest.raises(ValueError, match=match):
            modulated_intervals_batch(**args)

    def test_rejects_mismatched_shapes(self):
        ones = np.ones((3, 4))
        bounds = (np.full(3, 0.5), np.full(3, 2.0))
        lo, hi = modulated_intervals_batch(np.zeros(4), ones, ones, *bounds, 0.1)
        assert lo.shape == hi.shape == (3,)
        for fam, scales in ((np.zeros(3), ones), (np.zeros(4), np.ones((3, 3)))):
            with pytest.raises(ValueError, match="shape mismatch"):
                modulated_intervals_batch(fam, ones, scales, *bounds, 0.1)


class TestEmpiricalCoverageBound:
    def test_large_m_saturates(self):
        inner, _ = empirical_coverage_bound(CoverageBound(10**6, 0.1, 0.05))
        assert inner == pytest.approx(1.0, abs=1e-9)

    def test_vacuous_at_tiny_epsilon(self):
        inner, _ = empirical_coverage_bound(CoverageBound(100, 1e-12, 0.05))
        assert inner == 0.0

    def test_frozen_example(self):
        inner, outer = empirical_coverage_bound(CoverageBound(800, 0.1, 0.05))
        assert inner == pytest.approx(0.9633687222225317, abs=1e-12)
        assert outer == pytest.approx(0.15, abs=1e-12)

    def test_outer_failure_includes_weight_error(self):
        _, outer = empirical_coverage_bound(CoverageBound(10, 0.2, 0.1, weight_error=0.05))
        assert outer == pytest.approx(0.1 + 0.2 + 0.1, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoverageBound(0, 0.1, 0.05)
        with pytest.raises(ValueError):
            CoverageBound(10, -0.1, 0.05)
