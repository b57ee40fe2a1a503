import math

import numpy as np
import pytest
from scipy import stats

from modens import (ComponentDistribution, Family, WeightedMixture, default_quantile_tol,
                    mixture_pdf, mixture_quantile)
from modens import _kernels as K

import oracles

G = Family.GAUSSIAN
C = Family.CAUCHY


def g(loc, scale):
    return ComponentDistribution(G, loc, scale)


def cauchy(loc, scale):
    return ComponentDistribution(C, loc, scale)


def ppf(d, p):
    return K.component_point_s(d.family.code, d.location, d.scale, p)


def pdf(d, y):
    return K.component_pdf_s(d.family.code, d.location, d.scale, y)


def mixture_mass(mix, y):
    return K.weighted_mass(mix.weights, [d.cdf(y) for d in mix.components])


class TestComponentCdf:
    def test_standard_gaussian_median(self):
        assert g(0, 1).cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_standard_cauchy_upper_quartile(self):
        # arctan(1) = pi/4
        assert cauchy(0, 1).cdf(1.0) == pytest.approx(0.75, abs=1e-15)

    def test_gaussian_symmetric_about_location(self):
        assert g(2, 3).cdf(2.0) == pytest.approx(0.5, abs=1e-15)

    def test_matches_scipy_on_grid(self):
        ys = np.linspace(-8, 8, 41)
        for d in (g(0.5, 2.0), cauchy(-1.0, 0.7)):
            ref = oracles.scipy_dist(d)
            for y in ys:
                assert d.cdf(float(y)) == pytest.approx(ref.cdf(y), abs=1e-13)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            g(0, 1).cdf(float("nan"))


class TestComponentQuantile:
    def test_cauchy_quartile(self):
        assert ppf(cauchy(0, 1), 0.75) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_median(self):
        assert ppf(g(0, 1), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_97_5_percent(self):
        # oracle: invert erf by bisection -> z = 1.959963984540054
        z = oracles.norm_quantile_by_bisection(0.975)
        assert ppf(g(1, 2), 0.975) == pytest.approx(1 + 2 * z, abs=1e-10)
        assert ppf(g(1, 2), 0.975) == pytest.approx(
            1 + 2 * 1.959963984540054, abs=1e-10)

    def test_inverse_of_cdf_within_1e12(self):
        for d in (g(0, 1), g(3, 0.5), cauchy(-2, 4)):
            for p in (0.001, 0.3, 0.5, 0.9, 0.999):
                q = ppf(d, p)
                assert d.cdf(q) == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("p", [1e-300, 1e-100, 1e-20, 1e-8, 0.3, 1 - 1e-8])
    def test_gaussian_tail_quantile(self, p):
        ref = stats.norm.ppf(p)
        assert ppf(g(0, 1), p) == pytest.approx(ref, rel=4e-15, abs=0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain_error(self, p):
        # the kernel is check-free; the public quantile of one member checks p
        with pytest.raises(ValueError):
            mixture_quantile(WeightedMixture([g(0, 1)]), p)


class TestComponentPdf:
    def test_standard_gaussian_peak(self):
        assert pdf(g(0, 1), 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_standard_cauchy_peak(self):
        assert pdf(cauchy(0, 1), 0.0) == pytest.approx(1 / math.pi, abs=1e-15)

    def test_cauchy_peak_value_scaled(self):
        # density peak is 1/(pi*s)
        assert pdf(cauchy(3, 2), 3.0) == pytest.approx(1 / (2 * math.pi), abs=1e-15)

    def test_integrates_to_one(self):
        for d in (g(1, 0.8), cauchy(0, 1.3)):
            lo, hi = (-60.0, 60.0) if d.family is G else (-1e5, 1e5)
            mass = oracles.quadrature_mass(lambda y: pdf(d, y), lo, hi)
            assert mass == pytest.approx(1.0, abs=1e-4)


class TestComponentValidation:
    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            g(0, 0.0)
        with pytest.raises(ValueError):
            g(0, -1.0)

    def test_nonfinite_params_rejected(self):
        with pytest.raises(ValueError):
            g(float("inf"), 1.0)
        with pytest.raises(ValueError):
            cauchy(0.0, float("nan"))


class TestWeightedMixture:
    def test_single_component_equals_component_cdf(self):
        d = g(1.5, 2.0)
        mix = WeightedMixture([d], [1.0])
        for y in (-3.0, 0.0, 1.5, 4.0):
            assert mixture_mass(mix, y) == pytest.approx(d.cdf(y), abs=1e-15)

    def test_symmetric_pair_midpoint(self):
        mix = WeightedMixture([g(0, 1), g(2, 1)], [1.0, 1.0])
        assert mixture_mass(mix, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_weighted_pair_frozen_value(self):
        # 0.25 * Phi(4) + 0.75 * 0.5 computed from the erf oracle
        mix = WeightedMixture([g(0, 1), g(4, 1)], [0.5, 1.5])
        assert mixture_mass(mix, 4.0) == pytest.approx(0.6249920821895417, abs=1e-13)

    def test_mean_weight_enforced(self):
        with pytest.raises(ValueError):
            WeightedMixture([g(0, 1), g(1, 1)], [0.5, 1.6])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedMixture([g(0, 1), g(1, 1)], [-0.1, 2.1])


class TestMixtureQuantile:
    def test_symmetric_pair_median(self):
        mix = WeightedMixture([g(0, 1), g(2, 1)], [1.0, 1.0])
        tol = default_quantile_tol(mix.components)
        assert mixture_quantile(mix, 0.5) == pytest.approx(1.0, abs=tol)

    def test_single_cauchy_quartile(self):
        mix = WeightedMixture([cauchy(0, 1)])
        tol = default_quantile_tol(mix.components)
        assert mixture_quantile(mix, 0.75) == pytest.approx(1.0, abs=tol)

    def test_weighted_pair_frozen_value(self):
        # solve 0.25*Phi(q) + 0.75*Phi(q-4) = 0.5 by high-precision bisection
        mix = WeightedMixture([g(0, 1), g(4, 1)], [0.5, 1.5])
        q = mixture_quantile(mix, 0.5)
        assert q == pytest.approx(3.569436680013771, abs=1e-8)
        ref = oracles.mixture_quantile_ref(mix.components, mix.weights, 0.5)
        assert q == pytest.approx(ref, abs=2 * default_quantile_tol(mix.components))

    def test_matches_brentq_oracle_on_random_mixtures(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 6))
            comps = oracles.random_components(rng, m)
            w = oracles.random_feasible_weights(
                rng, m, oracles.random_bounds(rng, 3.0))
            mix = WeightedMixture(comps, w)
            beta = float(rng.uniform(0.02, 0.98))
            tol = default_quantile_tol(comps)
            ref = oracles.mixture_quantile_ref(comps, w, beta)
            assert mixture_quantile(mix, beta) == pytest.approx(ref, abs=4 * tol)

    def test_zero_weight_matches_brentq_oracle(self):
        # a zero-weight member still widens the bracket, which stays valid:
        # the mixture CDF is a convex combination of the member CDFs
        comps = [cauchy(-3.0, 0.5), g(1.0, 2.0), cauchy(4.0, 1.0)]
        mix = WeightedMixture(comps, [0.0, 1.5, 1.5])
        tol = default_quantile_tol(comps)
        for beta in (0.01, 0.3, 0.5, 0.7, 0.99):
            ref = (oracles.mixture_quantile_ref if beta <= 0.5
                   else oracles.mixture_quantile_sf_ref)(comps, mix.weights, beta)
            assert mixture_quantile(mix, beta) == pytest.approx(ref, abs=tol)

    def test_domain_errors(self):
        mix = WeightedMixture([g(0, 1)])
        with pytest.raises(ValueError):
            mixture_quantile(mix, 0.0)


class TestMixturePdf:
    def test_single_gaussian_peak(self):
        mix = WeightedMixture([g(0, 1)])
        assert mixture_pdf(mix, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_duplicate_components_collapse(self):
        mix = WeightedMixture([g(1, 2), g(1, 2)], [1.0, 1.0])
        for y in (-1.0, 0.5, 3.0):
            assert mixture_pdf(mix, y) == pytest.approx(pdf(g(1, 2), y), abs=1e-15)

    def test_quadrature_mass_is_one(self):
        mix = WeightedMixture([g(0, 1), g(1, 1)], [0.7, 1.3])
        mass = oracles.quadrature_mass(lambda y: mixture_pdf(mix, y), -50.0, 50.0)
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestInvariants:
    def test_quantile_cdf_round_trip(self, rng):
        ps = np.arange(0.01, 1.0, 0.01)
        for _ in range(10):
            fam = C if rng.random() < 0.5 else G
            d = ComponentDistribution(fam, float(rng.normal(0, 5)),
                                      float(0.1 + rng.random() * 5))
            for p in ps:
                assert d.cdf(ppf(d, float(p))) == pytest.approx(p, abs=1e-10)

    def test_mixture_cdf_nondecreasing(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 7))
            comps = oracles.random_components(rng, m)
            w = oracles.random_feasible_weights(rng, m, oracles.random_bounds(rng, 5.0))
            mix = WeightedMixture(comps, w)
            ys = np.sort(rng.normal(0, 10, size=30))
            vals = [mixture_mass(mix, float(y)) for y in ys]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_gaussian_mixture_proper_at_bracket_extremes(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 6))
            comps = oracles.random_components(rng, m, mixed=False)
            w = oracles.random_feasible_weights(rng, m, oracles.random_bounds(rng, 3.0))
            mix = WeightedMixture(comps, w)
            smax = max(c.scale for c in comps)
            locs = [c.location for c in comps]
            assert mixture_mass(mix, min(locs) - 50 * smax) == pytest.approx(0.0, abs=1e-6)
            assert mixture_mass(mix, max(locs) + 50 * smax) == pytest.approx(1.0, abs=1e-6)

    def test_cauchy_mixture_tail_mass(self):
        mix = WeightedMixture([cauchy(0, 1), cauchy(5, 3)], [0.6, 1.4])
        assert mixture_mass(mix, -1e6) == pytest.approx(0.0, abs=1e-2)
        assert mixture_mass(mix, 1e6) == pytest.approx(1.0, abs=1e-2)

    def test_lipschitz_bound_on_modulated_gaussian_mixtures(self, rng):
        # max density slope <= omega_upper * C with C = 1/(s^2 sqrt(2 pi e))
        for _ in range(10):
            m = int(rng.integers(2, 6))
            comps = oracles.random_components(rng, m, mixed=False)
            bounds = oracles.random_bounds(rng, float(rng.uniform(1.5, 6.0)))
            w = oracles.random_feasible_weights(rng, m, bounds)
            mix = WeightedMixture(comps, w)
            lipschitz = max(1.0 / (c.scale ** 2 * math.sqrt(2 * math.pi * math.e))
                            for c in comps)
            lo = min(c.location for c in comps) - 8 * max(c.scale for c in comps)
            hi = max(c.location for c in comps) + 8 * max(c.scale for c in comps)
            grid = np.linspace(lo, hi, 4001)
            pdf = np.array([mixture_pdf(mix, float(y)) for y in grid])
            slopes = np.abs(np.diff(pdf) / np.diff(grid))
            assert slopes.max() <= bounds.upper * lipschitz + 1e-6
