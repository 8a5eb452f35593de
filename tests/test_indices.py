import math
import re
import tracemalloc

import numpy as np
import pytest

from phibvp import (CATALOG_DESCRIPTORS, Homeomorphism, HypothesisVerdict,
                    IndexEstimate, LimitClass, UnboundedInputError, check_delta2,
                    check_phi_conditions, classify_limit, duality_check,
                    estimate_indices, growth_ratio, hypothesis_advisor,
                    inverse_homeomorphism, make_catalog_entry, make_power)
from phibvp import homeomorphisms, orlicz
from phibvp.orlicz import (_dyadic_ratios, _escaping_sup, _octave_extension,
                           representable_x_grid)

_TINY = float(np.finfo(float).tiny)

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
# Maps whose ratios leave the float range: expm1's numerators overflow, and
# power:40's ratios are exactly 0 or inf at the deep shifts, with phi
# underflowing and overflowing at the grid ends.
_RANGE_EDGE_MAPS = {"expm1": Homeomorphism("expm1", np.expm1, np.log1p),
                    "power:40": make_power(40.0)}
# Maps that grow faster than any power, so their growth ratio escapes.
_ESCAPING_MAPS = [
    _RANGE_EDGE_MAPS["expm1"],
    Homeomorphism("expm1-sqrt", lambda z: np.expm1(np.sqrt(z)),
                  lambda y: np.log1p(y) ** 2),
    Homeomorphism("exp-inv-sqrt", lambda z: np.exp(-1.0 / np.sqrt(z)),
                  lambda y: np.log(y) ** -2),
    Homeomorphism("expm1-log1p-sq", lambda z: np.expm1(np.log1p(z) ** 2),
                  lambda y: np.expm1(np.sqrt(np.log1p(y)))),
] + [inverse_homeomorphism(make_catalog_entry(d))
     for d in ("logpow:2", "arcsinh", "loglog")]


def entry_for(descriptor):
    return _ENTRIES[descriptor]


def estimate_for(descriptor):
    if descriptor not in _ESTIMATES:
        _ESTIMATES[descriptor] = estimate_indices(_ENTRIES[descriptor])
    return _ESTIMATES[descriptor]


def _counted(descriptor):
    """A map with descriptor's forward values that records the size of
    each forward call, and the list it records into."""
    base = make_catalog_entry(descriptor)
    calls = []

    def counting(y):
        calls.append(np.size(y))
        return base._forward_pos(y)

    return Homeomorphism("counted", counting), calls


def _octave_points(grid):
    """The points per octave m of a dyadic grid."""
    return int(np.count_nonzero(grid < 2.0 * grid[0]))


def _traced_peak(fn, *args, **kwargs):
    """Peak bytes that tracemalloc sees while fn(*args, **kwargs) runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGrowthRatio:
    def test_unit_scale_gives_one(self):
        assert growth_ratio(make_power(2.0), 1.0) == 1.0

    def test_sum_powers_decade(self):
        phi = make_catalog_entry("sum-powers:3,1.5")
        assert growth_ratio(phi, 10.0) == pytest.approx(1e3, rel=2e-2)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_scale_rejected(self, bad):
        with pytest.raises(ValueError):
            growth_ratio(make_power(2.0), bad)

    @pytest.mark.parametrize("r, span", [(1000.0, "[1, 1]"),
                                         (300.0, "[0.1, 10]")])
    def test_map_finite_over_too_few_octaves_rejected(self, r, span):
        # power:1000 is finite and positive on one probe, power:300 on
        # about 7 octaves; the fit shifts x by up to 40.
        phi = make_power(r)
        with pytest.raises(UnboundedInputError, match=re.escape(span)):
            estimate_indices(phi)
        with pytest.raises(UnboundedInputError, match="40 octaves"):
            growth_ratio(phi, 2.0)

    def test_estimate_evaluates_phi_on_its_grid_once(self):
        # One forward call builds the probe ladder and one evaluates phi on
        # the x grid extended by 40 octaves on each side; all 24 dyadic
        # samples of the ratio are slices of that one evaluation.
        counted, calls = _counted("sum-powers:3,1.5")
        estimate = estimate_indices(counted)
        grid = representable_x_grid(counted)
        assert len(calls) == 2
        assert calls[1] == grid.size + 80 * _octave_points(grid)
        assert estimate == estimate_for("sum-powers:3,1.5")

    @pytest.mark.parametrize("check", [
        lambda phi: check_phi_conditions(
            phi, estimate=estimate_for("sum-powers:3,1.5")),
        check_delta2,
    ], ids=["phi_conditions", "delta2"])
    def test_checks_evaluate_phi_on_the_same_grid_once(self, check):
        # The power sandwich and the doubling test read the fit's span,
        # the grid extended by 40 octaves on each side, even where they
        # shift it less: one forward call each after the probe ladder's.
        counted, calls = _counted("sum-powers:3,1.5")
        check(counted)
        grid = representable_x_grid(counted)
        assert len(calls) == 2
        assert calls[1] == grid.size + 80 * _octave_points(grid)

    @pytest.mark.parametrize("descriptor", ["sum-powers:3,1.5", "power:0.5"])
    def test_span_is_evaluated_once_per_map(self, descriptor):
        # The fit and both checks of one indices run slice one evaluation
        # of phi, at the span's normal arguments only: power:0.5's span
        # reaches below the smallest normal float, sum-powers' does not.
        counted, calls = _counted(descriptor)
        estimate = estimate_indices(counted)
        check_delta2(counted)
        check_phi_conditions(counted, estimate=estimate)
        grid = representable_x_grid(counted)
        ext, _ = _octave_extension(grid)
        assert len(calls) == 2
        assert calls[1] == np.count_nonzero(ext >= _TINY)
        assert (calls[1] < ext.size) == (descriptor == "power:0.5")
        assert estimate == estimate_indices(make_catalog_entry(descriptor))

    @pytest.mark.parametrize("descriptor", ["sum-powers:3,1.5", "ratio:2,0.5",
                                            "xlog", "x-log1p"])
    def test_inverse_engine_sees_only_normal_targets(self, descriptor,
                                                     monkeypatch):
        # Through the inverse map, the growth layer's arguments are the
        # engine's targets.  None lies below the smallest normal float, so
        # none falls back to the bracketed search for being quantized; the
        # fallback runs only at xlog's flat point, x = 1.
        targets, fallback_roots = [], []
        invert, lane_root = (homeomorphisms._invert_positive,
                             homeomorphisms._lane_root)

        def counted_invert(phi, y, out_of_range):
            targets.append(float(np.min(y)))
            return invert(phi, y, out_of_range)

        def counted_lane_root(*args):
            out = lane_root(*args)
            fallback_roots.extend(out[1].tolist())
            return out

        monkeypatch.setattr(homeomorphisms, "_invert_positive", counted_invert)
        monkeypatch.setattr(homeomorphisms, "_lane_root", counted_lane_root)
        phi = make_catalog_entry(descriptor)
        duality_check(phi)
        check_delta2(phi)
        check_phi_conditions(phi)
        assert targets and min(targets) >= _TINY
        assert set(fallback_roots) <= ({1.0} if descriptor == "xlog"
                                       else set())

    def test_span_is_built_once_per_map(self, monkeypatch):
        # The fit and both checks of one indices run share the span, kept
        # read-only on the map.
        built = []
        dyadic_grid = orlicz._dyadic_grid

        def counted(lo, hi):
            built.append((lo, hi))
            return dyadic_grid(lo, hi)

        monkeypatch.setattr(orlicz, "_dyadic_grid", counted)
        phi = make_catalog_entry("sum-powers:3,1.5")
        estimate = estimate_indices(phi)
        check_delta2(phi)
        check_phi_conditions(phi, estimate=estimate)
        grid = representable_x_grid(phi)
        assert len(built) == 1
        assert not grid.flags.writeable
        assert estimate == estimate_for("sum-powers:3,1.5")

    @pytest.mark.parametrize("descriptor",
                             sorted(BATTERY) + sorted(_RANGE_EDGE_MAPS))
    @pytest.mark.parametrize("side", ["map", "inverse"])
    def test_octave_shift_is_direct_evaluation(self, descriptor, side):
        # Shifting the dyadic grid by k octaves is x * 2^k bit for bit, so
        # each sliced ratio is the ratio sampled directly at t = 2^k, with
        # the same lanes dropped: an argument below the smallest normal
        # float, or a value that is not finite and normal.  At t > 1 it
        # passes the same escape test.
        phi = _RANGE_EDGE_MAPS.get(descriptor) or entry_for(descriptor)
        if side == "inverse":
            phi = inverse_homeomorphism(phi)
        grid = representable_x_grid(phi)
        ext, m = _octave_extension(grid)
        ks = [k for k in range(-40, 41) if abs(k) >= 29 or k == 1]
        with np.errstate(over="ignore"):
            for k in ks:
                start = (40 + k) * m
                np.testing.assert_array_equal(ext[start:start + grid.size],
                                              grid * 2.0 ** k)

        def kept(args):
            vals = np.asarray(phi.forward(args), dtype=float)
            return np.where((args >= _TINY) & np.isfinite(vals)
                            & (vals >= _TINY), vals, np.nan)

        den = kept(grid)
        direct = []
        with np.errstate(over="ignore"):
            for k in ks:
                quotient = kept(grid * 2.0 ** k) / den
                direct.append(_escaping_sup(grid, quotient) if k > 0
                              else growth_ratio(phi, 2.0 ** k))
                if k < 0:
                    assert direct[-1] == np.fmax.reduce(quotient)
        assert list(_dyadic_ratios(phi, ks)) == direct


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

    @pytest.mark.parametrize("r, t_lost", [(27.0, 40), (30.0, 36),
                                           (40.0, 29)])
    def test_underflowing_ratio_rejected(self, r, t_lost):
        # M(2^-k) = 2^(-k r) underflows to 0 once k r > 1074; the fit
        # needs its logarithm down to k = 40, and samples k from 29 up.
        with pytest.raises(UnboundedInputError,
                           match=re.escape("underflows to 0 at t = 2^-%d;"
                                           % t_lost)):
            estimate_indices(make_power(r))

    def test_deepest_ratio_still_normal_fits(self):
        # Its M(2^40) = 2^1040 overflows, so the upper fit reads inf.
        est = estimate_indices(make_power(26.0))
        assert est.alpha_hat == pytest.approx(26.0, rel=1e-12)
        assert math.isinf(est.beta_hat)

    @pytest.mark.parametrize("r", [8.4, 12.0, 20.0, 25.5])
    def test_steep_power_reads_its_exponent(self, r):
        # M(2^40) = 2^(40 r) lies above 1e100 for these r, yet the ratio
        # is t^r over the whole kept span and does not escape.
        phi = make_power(r)
        assert estimate_indices(phi).beta_hat == pytest.approx(r, rel=1e-9)
        assert check_delta2(phi).holds

    def test_small_lower_slope_snaps_to_zero(self):
        # A lower slope under 0.02 cannot be told from the logarithmic
        # corrections of a zero-exponent map; one of 0.05 can.
        assert estimate_indices(make_power(0.02)).alpha_hat == 0.0
        assert estimate_indices(make_power(0.05)).alpha_hat == pytest.approx(
            0.05, abs=1e-5)

    @pytest.mark.parametrize("r", [0.5, 0.05])
    def test_small_power_exponent_is_sharp(self, r):
        # Near 0 the span of a power map below 1 runs down to the smallest
        # normal float; the lane rule drops the quantized t x below it.
        est = estimate_indices(make_power(r))
        assert est.alpha_hat == pytest.approx(r, abs=1e-12)
        assert est.beta_hat == pytest.approx(r, abs=1e-12)

    @pytest.mark.parametrize("r", [2.0, 3.0, 20.0])
    def test_inverse_power_exponents_are_reciprocal(self, r):
        # power:r's inverse is t^(1/r) in closed form; its span runs down
        # to the smallest normal float, where each quantized argument
        # would read the rounding of t x, not the map.
        est = estimate_indices(inverse_homeomorphism(make_power(r)))
        assert est.alpha_hat == pytest.approx(1.0 / r, abs=1e-12)
        assert est.beta_hat == pytest.approx(1.0 / r, abs=1e-12)

    @pytest.mark.parametrize("descriptor, alpha", [
        ("sum-powers:0.1,0.02", 0.02), ("sum-powers:0.05,0.02", 0.02)])
    def test_smallest_exponent_of_a_sum_is_read(self, descriptor, alpha):
        # The lower slope of y^p1 + y^p2 is p2 down at the smallest normal
        # float; quantized arguments below it would flatten it to 0.
        est = estimate_indices(make_catalog_entry(descriptor))
        assert est.alpha_hat == pytest.approx(alpha, abs=1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "a slowly superpower ratio climbs by less than 2x over the last two "
        "octaves of the span, so it does not escape: these read beta 3.51 "
        "and 6.59"))
    @pytest.mark.parametrize("phi", [
        Homeomorphism("expm1-log1p-pow",
                      lambda z: np.expm1(np.log1p(z) ** 1.2)),
        Homeomorphism("x-pow-loglog",
                      lambda z: z ** (1.0 + np.log1p(np.log1p(z)))),
    ], ids=lambda phi: phi.label)
    def test_slowly_superpower_map_reads_inf(self, phi):
        assert math.isinf(estimate_indices(phi).beta_hat)

    @pytest.mark.parametrize("phi", _ESCAPING_MAPS, ids=lambda phi: phi.label)
    def test_escaping_map_reads_inf_and_fails_doubling(self, phi):
        assert math.isinf(estimate_indices(phi).beta_hat)
        assert check_delta2(phi) == (False, math.inf)

    @pytest.mark.parametrize("descriptor", ["sum-powers:3,1.5", "xlog"])
    @pytest.mark.parametrize("side", ["map", "inverse"])
    def test_estimate_holds_no_table_of_shifts(self, descriptor, side):
        # One quotient buffer serves all 24 shifts: about 2.3 MB at most,
        # where a 24-row table of them would add 2 MB.
        phi = entry_for(descriptor)
        if side == "inverse":
            phi = inverse_homeomorphism(phi)
        estimate_indices(phi)
        assert _traced_peak(estimate_indices, phi) < 4 * 2 ** 20

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

    @pytest.mark.parametrize("r", [37, 38, 40, 50, 300, 333, 408, 409])
    def test_steep_powers_double(self, r):
        # (2x)^r overflows on the span; those lanes are dropped, not
        # read as an infinite doubling constant, and 2^r stays 2^r over
        # the span that is left, even past 1e100.
        res = check_delta2(make_power(float(r)))
        assert res.holds
        assert res.k_hat == pytest.approx(2.0 ** r, rel=1e-12)

    @pytest.mark.parametrize("phi", [
        inverse_homeomorphism(make_catalog_entry("logpow:2")),
        Homeomorphism("expm1-sqrt", lambda z: np.expm1(np.sqrt(z)),
                      lambda y: np.log1p(y) ** 2),
        Homeomorphism("exp-inv-sqrt", lambda z: np.exp(-1.0 / np.sqrt(z)),
                      lambda y: np.log(y) ** -2),
        make_power(410.0),
    ], ids=lambda phi: phi.label)
    def test_span_cut_short_by_the_float_range_is_not_certified(self, phi):
        # The first three ratios escape, yet stay below 1e100 up to where
        # phi(2x) overflows or phi(x) leaves the normal range; they must
        # still read as escaping.
        # power:410 keeps fewer than four octaves, too few to test growth.
        assert check_delta2(phi) == (False, math.inf)

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

    @pytest.mark.parametrize("descriptor", sorted(
        d for d, target in BATTERY.items() if target["sandwich"])
        + ["power:20"])
    def test_row_by_row_matches_the_full_table(self, descriptor):
        # The comparison constant and verdicts from the whole 81-row table
        # of phi(t x) / phi(x), t = 2^-40, ..., 2^40, on the map's span, as
        # one 2-D array with a lane kept where both factors are finite and
        # normal.
        phi = _ENTRIES.get(descriptor) or make_catalog_entry(descriptor)
        est = estimate_indices(phi)
        report = check_phi_conditions(phi, estimate=est)
        p, q = est.alpha_hat - 0.05, est.beta_hat + 0.05
        t, x = 2.0 ** np.arange(-40.0, 41.0), representable_x_grid(phi)
        tiny = np.finfo(float).tiny
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            num = np.asarray(phi.forward(t[:, None] * x[None, :]), dtype=float)
            den = np.asarray(phi.forward(x), dtype=float)[None, :]
            kept = ((num >= tiny) & np.isfinite(num)
                    & (den >= tiny) & np.isfinite(den))
            ratio = np.where(kept, num / den, np.nan)
        row_max = np.fmax.reduce(ratio, axis=1)
        row_min = np.fmin.reduce(ratio, axis=1)
        assert np.all(np.isfinite(row_max)) and np.all(row_min > 0.0)
        tp, tq = t ** p, t ** q
        c_upper = float(np.max(row_max / np.maximum(tp, tq)))
        c_lower = float(np.max(np.minimum(tp, tq) / row_min))
        constant = max(c_upper, c_lower, 1.0)
        assert (report.p, report.q) == (p, q)
        assert report.constant == constant
        assert report.phi_cond == (constant <= 1e6)
        assert report.phi_prime_cond == (max(c_lower, 1.0) <= 1e6)

    @pytest.mark.parametrize("r", [12.0, 16.0, 20.0, 25.0])
    def test_steep_powers_certify(self, r):
        # Lanes where t x or x leave the normal range are dropped, so the
        # powers whose fit reads a finite upper exponent are sandwiched by
        # their own t^r.
        report = check_phi_conditions(make_power(r))
        assert report.phi_cond and report.phi_prime_cond
        assert report.constant == 1.0

    def test_phi_conditions_hold_no_full_table(self):
        # Taken row by row, the check never holds the 81 x 10^4 table of
        # ratios (6.5 MB a copy).
        peak = _traced_peak(check_phi_conditions, entry_for("xlog"),
                            estimate=estimate_for("xlog"))
        assert peak < 8 * 2 ** 20

    def test_non_finite_ratio_fails_at_once(self):
        # power:40's ratios over the 2^+-40 shifts underflow to 0 and
        # overflow to inf, so no constant is sought.
        est = IndexEstimate(alpha_hat=40.0, beta_hat=40.0,
                            t_small_range=(2.0 ** -40, 2.0 ** -12),
                            t_large_range=(2.0 ** 12, 2.0 ** 40),
                            fit_residual=0.0)
        report = check_phi_conditions(make_power(40.0), estimate=est)
        assert report == (False, None, None, False, math.inf,
                          40.0 - 0.05, 40.0 + 0.05)

    @pytest.mark.parametrize("descriptor, p", [
        ("power:0.03", -0.02), ("power:0.05", 0.0),
        ("sum-powers:0.1,0.02", -0.03), ("sum-powers:0.1,0.05", 0.0)])
    def test_nonpositive_lower_power_is_not_a_pair(self, descriptor, p):
        # With p = alpha_hat - 0.05 <= 0, min(t^p, t^q) is not increasing,
        # so no pair is reported, as for a zero lower estimate.  A lower
        # exponent of 0.05 gives no pair whichever way its fit rounds:
        # sum-powers:0.1,0.05 reads p = 6.2e-17.
        phi = make_catalog_entry(descriptor)
        est = estimate_indices(phi)
        assert est.alpha_hat - 0.05 == pytest.approx(p, abs=1e-12)
        report = check_phi_conditions(phi, estimate=est)
        assert report[:5] == (False, None, None, False, math.inf)
        assert math.isnan(report.p) and math.isnan(report.q)

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
        # exponent is 1/2.  Inverting quantized targets below the smallest
        # normal float would miss it by up to 2e-4; the lane rule drops
        # them.
        res = duality_check(entry_for(descriptor))
        assert res.inverse_estimate.alpha_hat == pytest.approx(0.5, abs=1e-12)


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
                                    r2=3.0)
        assert report.f_verdict is HypothesisVerdict.HOLDS_BY_LIMIT_CHECK

    def test_failing_hypothesis_is_reported(self):
        report = hypothesis_advisor(make_power(2.0), q=3.0, r1=3.0, r2=3.0)
        assert report.f_verdict is HypothesisVerdict.FAILS_BY_LIMIT_CHECK

    def test_inconclusive_band_stays_undecided(self):
        report = hypothesis_advisor(entry_for("xlog"), q=0.96, r1=3.0,
                                    r2=3.0)
        assert report.f_verdict is HypothesisVerdict.UNDECIDED

    def test_boundary_exponent_never_claims_index_certainty(self):
        # r2 equal to the fitted upper exponent sits inside the safety
        # band, so the verdict must come from the direct limit.
        est = estimate_for("logpow:2")
        report = hypothesis_advisor(entry_for("logpow:2"), q=1.0, r1=3.0,
                                    r2=est.beta_hat)
        assert report.g2_verdict is HypothesisVerdict.HOLDS_BY_LIMIT_CHECK
