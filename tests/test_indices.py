import math

import numpy as np
import pytest

from phibvp import (CATALOG_DESCRIPTORS, Homeomorphism, HypothesisVerdict,
                    IndexEstimate, LimitClass, check_delta2,
                    check_phi_conditions, classify_limit, duality_check,
                    estimate_indices, growth_ratio, hypothesis_advisor,
                    make_catalog_entry, make_power)

# Frozen battery targets: fitted exponent pair and doubling constant per
# catalog entry, plus whether the two-sided power sandwich is certifiable.
BATTERY = {
    "power:2": dict(alpha=2.0, beta=2.0, k_hat=4.0, sandwich=True),
    "sum-powers:3,1.5": dict(alpha=1.5, beta=3.0, k_hat=8.0, sandwich=True),
    "ratio:2,0.5": dict(alpha=1.5, beta=2.0, k_hat=4.0, sandwich=True),
    "xlog": dict(alpha=0.96, beta=1.04, k_hat=3.39, sandwich=True),
    "x-log1p": dict(alpha=1.0, beta=2.0, k_hat=4.0, sandwich=True),
    "logpow:2": dict(alpha=0.0, beta=2.0, k_hat=4.0, sandwich=False),
    "arcsinh": dict(alpha=0.0, beta=1.0, k_hat=2.0, sandwich=False),
    "loglog": dict(alpha=0.0, beta=1.0, k_hat=2.0, sandwich=False),
}

_ENTRIES = {d: make_catalog_entry(d) for d in CATALOG_DESCRIPTORS}
_ESTIMATES = {}


def entry_for(descriptor):
    return _ENTRIES[descriptor]


def estimate_for(descriptor):
    if descriptor not in _ESTIMATES:
        _ESTIMATES[descriptor] = estimate_indices(_ENTRIES[descriptor])
    return _ESTIMATES[descriptor]


class TestGrowthRatio:
    def test_unit_scale_gives_one(self):
        assert growth_ratio(make_power(2.0), 1.0) == 1.0

    def test_sum_powers_decade(self):
        phi = make_catalog_entry("sum-powers:3,1.5")
        grid = np.geomspace(1e-8, 1e8, 2000)
        assert growth_ratio(phi, 10.0, grid) == pytest.approx(1e3, rel=2e-2)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_scale_rejected(self, bad):
        with pytest.raises(ValueError):
            growth_ratio(make_power(2.0), bad)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            growth_ratio(make_power(2.0), 2.0, x_grid=[0.0, 1.0])


class TestIndexEstimates:
    @pytest.mark.parametrize("descriptor", sorted(BATTERY))
    def test_battery_targets(self, descriptor):
        target = BATTERY[descriptor]
        est = estimate_for(descriptor)
        assert abs(est.alpha_hat - target["alpha"]) <= 0.05
        assert abs(est.beta_hat - target["beta"]) <= 0.05

    @pytest.mark.parametrize("descriptor", sorted(BATTERY))
    def test_closed_form_exponents_recovered(self, descriptor):
        phi = entry_for(descriptor)
        est = estimate_for(descriptor)
        if phi.known_alpha is not None:
            assert abs(est.alpha_hat - phi.known_alpha) <= 0.05
        if phi.known_beta is not None:
            assert abs(est.beta_hat - phi.known_beta) <= 0.05

    def test_pure_power_fit_is_sharp(self):
        est = estimate_for("power:2")
        assert est.fit_residual <= 1e-6
        assert est.alpha_hat == pytest.approx(2.0, abs=1e-6)

    def test_exponential_map_reports_unbounded_upper_exponent(self):
        phi = Homeomorphism("expm1", np.expm1, np.log1p)
        est = estimate_indices(phi)
        assert math.isinf(est.beta_hat)

    def test_ordering_invariant_enforced(self):
        with pytest.raises(ValueError):
            IndexEstimate(alpha_hat=3.0, beta_hat=1.0,
                          t_small_range=(0.1, 0.5), t_large_range=(2.0, 8.0),
                          fit_residual=0.0)
        with pytest.raises(ValueError):
            IndexEstimate(alpha_hat=-0.5, beta_hat=1.0,
                          t_small_range=(0.1, 0.5), t_large_range=(2.0, 8.0),
                          fit_residual=0.0)


class TestDoubling:
    @pytest.mark.parametrize("descriptor", sorted(BATTERY))
    def test_catalog_doubles(self, descriptor):
        res = check_delta2(entry_for(descriptor))
        assert res.holds
        assert res.k_hat == pytest.approx(BATTERY[descriptor]["k_hat"],
                                          rel=2e-2)

    def test_exponential_map_fails(self):
        phi = Homeomorphism("expm1", np.expm1, np.log1p)
        assert not check_delta2(phi).holds

    @pytest.mark.parametrize("descriptor", sorted(BATTERY))
    def test_doubling_matches_finite_upper_exponent(self, descriptor):
        # The doubling property and a finite fitted upper exponent are two
        # readings of the same growth cap; they must agree on the catalog.
        res = check_delta2(entry_for(descriptor))
        est = estimate_for(descriptor)
        assert res.holds == bool(np.isfinite(est.beta_hat))


class TestPowerSandwich:
    @pytest.mark.parametrize("descriptor", sorted(BATTERY))
    def test_certifiable_exactly_when_exponents_are_pinned(self, descriptor):
        report = check_phi_conditions(entry_for(descriptor),
                                      estimate=estimate_for(descriptor))
        assert report.phi_cond == BATTERY[descriptor]["sandwich"]
        assert report.phi_prime_cond == report.phi_cond

    def test_certified_constants_are_modest(self):
        for descriptor, target in BATTERY.items():
            if not target["sandwich"]:
                continue
            report = check_phi_conditions(entry_for(descriptor),
                                          estimate=estimate_for(descriptor))
            assert 1.0 <= report.constant <= 10.0
            assert report.p <= report.q


class TestDuality:
    @pytest.mark.parametrize("descriptor", sorted(BATTERY))
    def test_inverse_exponents_are_reciprocal(self, descriptor):
        res = duality_check(entry_for(descriptor))
        assert res.passed
        assert res.beta_residual <= 0.05
        assert res.alpha_residual <= 0.05
        assert res.estimate == estimate_for(descriptor)

    @pytest.mark.parametrize("descriptor", ["power:2", "x-log1p", "logpow:2"])
    def test_inverse_lower_exponent_is_sharp(self, descriptor):
        # All three maps grow like y^2 near 0, so their inverses' lower
        # exponent is 1/2.  A growth grid reaching into the subnormals
        # inverts quantized targets and misses it by up to 2e-4.
        res = duality_check(entry_for(descriptor))
        assert res.inverse_estimate.alpha_hat == pytest.approx(0.5, abs=1e-5)


class TestClassifyLimit:
    def test_power_fixtures(self):
        phi = make_power(2.0)
        assert classify_limit(phi, 3.0, "zero_plus") is LimitClass.ZERO
        assert classify_limit(phi, 1.0, "zero_plus") is LimitClass.INFINITE
        assert classify_limit(phi, 2.0, "zero_plus") is LimitClass.FINITE_POSITIVE
        assert classify_limit(phi, 3.0, "infinity") is LimitClass.INFINITE
        assert classify_limit(phi, 1.0, "infinity") is LimitClass.ZERO

    def test_logarithmic_fixtures(self):
        assert classify_limit(entry_for("logpow:2"), 1.0,
                              "zero_plus") is LimitClass.INFINITE
        assert classify_limit(entry_for("x-log1p"), 2.0,
                              "infinity") is LimitClass.INFINITE

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            classify_limit(make_power(2.0), 1.0, "left")
        with pytest.raises(ValueError):
            classify_limit(make_power(2.0), 0.0, "zero_plus")

    @pytest.mark.parametrize("descriptor", sorted(BATTERY))
    def test_limits_below_and_above_the_fitted_window(self, descriptor):
        # Strictly below the lower exponent the quotient must blow up at
        # zero; strictly above the upper exponent it must blow up at
        # infinity.
        phi = entry_for(descriptor)
        est = estimate_for(descriptor)
        if est.alpha_hat > 0.05:
            assert classify_limit(phi, 0.5 * est.alpha_hat,
                                  "zero_plus") is LimitClass.INFINITE
        if np.isfinite(est.beta_hat):
            assert classify_limit(phi, 2.0 * est.beta_hat,
                                  "infinity") is LimitClass.INFINITE


class TestHypothesisAdvisor:
    def test_power_all_settled_by_index(self):
        report = hypothesis_advisor(make_power(2.0), q=1.0, r1=3.0, r2=3.0)
        assert report.f_verdict is HypothesisVerdict.HOLDS_BY_INDEX
        assert report.g1_verdict is HypothesisVerdict.HOLDS_BY_INDEX
        assert report.g2_verdict is HypothesisVerdict.HOLDS_BY_INDEX

    def test_flat_lower_exponent_falls_back_to_the_limit(self):
        report = hypothesis_advisor(entry_for("logpow:2"), q=1.0, r1=3.0,
                                    r2=3.0, estimate=estimate_for("logpow:2"))
        assert report.f_verdict is HypothesisVerdict.HOLDS_BY_LIMIT_CHECK

    def test_failing_hypothesis_is_reported(self):
        report = hypothesis_advisor(make_power(2.0), q=3.0, r1=3.0, r2=3.0)
        assert report.f_verdict is HypothesisVerdict.FAILS_BY_LIMIT_CHECK

    def test_inconclusive_band_stays_undecided(self):
        report = hypothesis_advisor(entry_for("xlog"), q=0.96, r1=3.0,
                                    r2=3.0, estimate=estimate_for("xlog"))
        assert report.f_verdict is HypothesisVerdict.UNDECIDED

    def test_boundary_exponent_never_claims_index_certainty(self):
        # r2 equal to the fitted upper exponent sits inside the safety
        # band, so the verdict must come from the direct limit.
        est = estimate_for("logpow:2")
        report = hypothesis_advisor(entry_for("logpow:2"), q=1.0, r1=3.0,
                                    r2=est.beta_hat, estimate=est)
        assert report.g2_verdict is HypothesisVerdict.HOLDS_BY_LIMIT_CHECK
