import numpy as np
import pytest

from modens import (SensitivityConfig, WeightBounds, clamp_propensity,
                    identity_bounds, msm_bounds, msm_bounds_arrays)


class TestWeightBounds:
    def test_must_straddle_one(self):
        WeightBounds(0.5, 1.5)
        WeightBounds(1.0, 1.0)
        with pytest.raises(ValueError):
            WeightBounds(1.1, 1.5)
        with pytest.raises(ValueError):
            WeightBounds(0.5, 0.9)
        with pytest.raises(ValueError):
            WeightBounds(0.0, 2.0)
        with pytest.raises(ValueError):
            WeightBounds(0.5, float("inf"))


class TestSensitivityConfig:
    def test_gamma_below_one_rejected(self):
        SensitivityConfig(1.0)
        with pytest.raises(ValueError):
            SensitivityConfig(0.99)


class TestMsmBounds:
    def test_gamma_one_is_identity(self):
        b = msm_bounds(0.5, SensitivityConfig(1.0))
        assert (b.lower, b.upper) == (1.0, 1.0)

    def test_balanced_gamma_two(self):
        # lower = e + (1-e)/2, upper = e + 2(1-e) at e = 0.5
        b = msm_bounds(0.5, SensitivityConfig(2.0))
        assert b.lower == pytest.approx(0.75, abs=1e-15)
        assert b.upper == pytest.approx(1.5, abs=1e-15)

    def test_no_counterfactual_mass_at_e_one(self):
        b = msm_bounds(1.0, SensitivityConfig(50.0))
        assert (b.lower, b.upper) == (1.0, 1.0)

    def test_domain_error_outside_unit_interval(self):
        with pytest.raises(ValueError):
            msm_bounds(-0.01, SensitivityConfig(2.0))
        with pytest.raises(ValueError):
            msm_bounds(1.01, SensitivityConfig(2.0))


class TestIdentityBounds:
    def test_value(self):
        b = identity_bounds()
        assert (b.lower, b.upper) == (1.0, 1.0)

    def test_equals_msm_at_gamma_one(self):
        for e in (0.0, 0.2, 0.5, 0.9, 1.0):
            b = msm_bounds(e, SensitivityConfig(1.0))
            assert (b.lower, b.upper) == (identity_bounds().lower, identity_bounds().upper)


class TestInvariants:
    def test_monotone_in_gamma(self):
        for e in np.linspace(0.0, 1.0, 11):
            prev = msm_bounds(float(e), SensitivityConfig(1.0))
            for gamma in (1.5, 2.0, 5.0, 20.0, 50.0):
                cur = msm_bounds(float(e), SensitivityConfig(gamma))
                assert cur.lower <= prev.lower + 1e-15
                assert cur.upper >= prev.upper - 1e-15
                prev = cur

    def test_straddle_grid(self):
        for e in np.linspace(0.0, 1.0, 21):
            for gamma in (1.0, 1.3, 3.0, 10.0, 50.0):
                b = msm_bounds(float(e), SensitivityConfig(gamma))
                assert 0.0 < b.lower <= 1.0 <= b.upper

    def test_budget_vanishes_linearly_as_e_to_one(self):
        gamma = 4.0
        for e in (0.0, 0.25, 0.5, 0.75, 1.0):
            b = msm_bounds(e, SensitivityConfig(gamma))
            assert b.upper - 1.0 == pytest.approx((gamma - 1.0) * (1.0 - e), abs=1e-12)
            assert 1.0 - b.lower == pytest.approx((1.0 - 1.0 / gamma) * (1.0 - e), abs=1e-12)


class TestHelpers:
    def test_clamp(self):
        assert clamp_propensity(0.0) == pytest.approx(1e-3)
        assert clamp_propensity(1.0) == pytest.approx(0.999)
        assert clamp_propensity(0.4) == 0.4

    def test_array_bounds_match_scalar(self):
        e = np.array([0.1, 0.5, 0.9])
        lo, hi = msm_bounds_arrays(e, 3.0)
        for i, ei in enumerate(e):
            b = msm_bounds(float(ei), SensitivityConfig(3.0))
            assert lo[i] == pytest.approx(b.lower, abs=1e-15)
            assert hi[i] == pytest.approx(b.upper, abs=1e-15)

    @pytest.mark.parametrize("gamma", [0.99, float("inf"), float("nan")])
    def test_array_bounds_reject_gamma_like_scalar(self, gamma):
        with pytest.raises(ValueError):
            SensitivityConfig(gamma)
        with pytest.raises(ValueError):
            msm_bounds_arrays(np.array([0.5]), gamma)

    @pytest.mark.parametrize("e", [float("nan"), -0.01, 1.01, float("inf")])
    def test_array_bounds_reject_propensity_like_scalar(self, e):
        with pytest.raises(ValueError):
            msm_bounds(e, SensitivityConfig(2.0))
        with pytest.raises(ValueError):
            msm_bounds_arrays(np.array([e, 0.5]), 2.0)
