import math

import numpy as np
import pytest

from phibvp import (CATALOG_DESCRIPTORS, Homeomorphism, UnboundedInputError,
                    inverse_homeomorphism, inverse_saturating,
                    make_catalog_entry, make_power, numeric_inverse)

ALL_ENTRIES = [make_catalog_entry(d) for d in CATALOG_DESCRIPTORS]


def _bounded():
    # Range (-1, 1) and no closed-form inverse: the engine decides every
    # entry, and targets of size 1 or more are past the range.
    return Homeomorphism("bounded", lambda y: y / (1.0 + y))


@pytest.fixture(params=CATALOG_DESCRIPTORS, ids=lambda d: d)
def entry(request):
    return make_catalog_entry(request.param)


class TestCatalogParsing:
    def test_every_descriptor_builds(self):
        assert len(ALL_ENTRIES) == 8
        labels = {phi.label for phi in ALL_ENTRIES}
        assert len(labels) == 8

    def test_logpow_accepts_exponent(self):
        phi = make_catalog_entry("logpow:2")
        assert phi.forward(math.e - 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(ValueError):
            make_catalog_entry("spline:3")

    @pytest.mark.parametrize("bad", [
        "power", "power:1,2", "sum-powers:3", "ratio", "logpow",
        "xlog:1", "arcsinh:2", "loglog:0.5",
    ])
    def test_malformed_arguments_rejected(self, bad):
        with pytest.raises(ValueError):
            make_catalog_entry(bad)

    def test_make_power_validates_exponent(self):
        with pytest.raises(ValueError):
            make_power(0.0)
        with pytest.raises(ValueError):
            make_power(-1.0)

    def test_known_indices_metadata(self):
        by_label = {phi.label: phi for phi in ALL_ENTRIES}
        assert by_label["power:2"].known_alpha == 2.0
        assert by_label["power:2"].known_beta == 2.0
        assert by_label["sum-powers:3,1.5"].known_alpha == 1.5
        assert by_label["sum-powers:3,1.5"].known_beta == 3.0
        assert by_label["ratio:2,0.5"].known_alpha == 1.5
        assert by_label["ratio:2,0.5"].known_beta == 2.0
        assert by_label["logpow:2"].known_alpha == 0.0
        assert by_label["logpow:2"].known_beta == 2.0


class TestOddStructure:
    def test_origin_fixed(self, entry):
        assert entry.forward(0.0) == 0.0
        assert entry.inverse(0.0) == 0.0

    def test_oddness_exact(self, entry):
        y = np.array([1e-6, 0.037, 1.0, 12.5])
        assert np.array_equal(entry.forward(-y), -entry.forward(y))

    def test_strictly_increasing(self, entry):
        y = np.geomspace(1e-8, 1e8, 400)
        z = entry.forward(y)
        assert np.all(np.isfinite(z))
        assert np.all(np.diff(z) > 0)

    def test_scalar_in_scalar_out(self, entry):
        z = entry.forward(1.0)
        assert np.ndim(z) == 0


class TestInversion:
    def test_roundtrip_positive(self, entry):
        y = np.geomspace(1e-6, 1e4, 60)
        back = entry.inverse(entry.forward(y))
        assert np.allclose(back, y, rtol=1e-10)

    def test_roundtrip_negative(self, entry):
        y = -np.geomspace(1e-3, 10.0, 20)
        back = entry.inverse(entry.forward(y))
        assert np.allclose(back, y, rtol=1e-10)

    def test_numeric_inverse_matches_closed_form(self):
        phi = make_power(3.0)
        z = np.geomspace(1e-6, 1e6, 40)
        assert np.allclose(numeric_inverse(phi, z), z ** (1.0 / 3.0), rtol=1e-10)

    def test_inverse_saturating_caps_flat_maps(self):
        # ratio:2,0.5 tends to a finite ceiling only in its first factor;
        # the genuinely bounded-range test is arcsinh composed with itself
        # far beyond float range, so use a custom bounded forward branch.
        phi = _bounded()
        assert inverse_saturating(phi, 2.0) == math.inf
        assert inverse_saturating(phi, 0.5) == pytest.approx(1.0, rel=1e-9)

    def test_inverse_saturating_matches_inverse_in_range(self, entry):
        z = entry.forward(np.array([0.5, 2.0]))
        assert np.allclose(inverse_saturating(entry, z),
                           [0.5, 2.0], rtol=1e-9)

    @pytest.mark.parametrize("y", [1.0 - 1e-6, 1.0 + 1e-6])
    def test_numeric_inverse_near_flat_point(self, y):
        # xlog has phi'(1-) = 0, so a root that only meets the residual
        # test can sit far from y; the x-side bracket check pins it.
        phi = make_catalog_entry("xlog")
        assert numeric_inverse(phi, phi.forward(y)) == pytest.approx(y, rel=1e-8)

    def test_numeric_inverse_forward_call_budget(self):
        # Only the first call builds the probe ladder; after it a call costs
        # a few secant sweeps and one certification, not 64 bisection steps.
        base = make_catalog_entry("sum-powers:3,1.5")
        calls = []

        def counting(y):
            calls.append(np.size(y))
            return base._forward_pos(y)

        phi = Homeomorphism("counted", counting)
        z = np.geomspace(1e-6, 1e6, 1000)
        numeric_inverse(phi, z)
        warm_up = len(calls)
        calls.clear()
        roots = numeric_inverse(phi, z)
        assert len(calls) < warm_up
        assert len(calls) <= 12
        assert np.allclose(base.forward(roots), z, rtol=1e-12)

    def test_numeric_inverse_near_top_of_float_range(self):
        # Roots above half the largest float must not overflow to inf.
        phi = make_catalog_entry("x-log1p")
        z = np.array([9.5e307, 1e308])
        assert np.allclose(numeric_inverse(phi, z), z, rtol=1e-12)
        assert np.allclose(inverse_saturating(phi, z), z, rtol=1e-12)

    def test_numeric_inverse_rejects_unreachable_target(self):
        phi = _bounded()
        with pytest.raises(UnboundedInputError):
            numeric_inverse(phi, 2.0)
        with pytest.raises(UnboundedInputError):
            numeric_inverse(phi, np.array([0.5, -2.0]))


_NO_CLOSED_FORM = {"sum-powers:3,1.5", "ratio:2,0.5", "xlog", "x-log1p",
                   "bounded"}


@pytest.fixture(params=CATALOG_DESCRIPTORS + ("bounded",), ids=lambda d: d)
def any_map(request):
    if request.param == "bounded":
        return _bounded()
    return make_catalog_entry(request.param)


def _three_inverses(phi):
    return {"inverse": phi.inverse,
            "inverse_saturating": lambda z: inverse_saturating(phi, z),
            "numeric_inverse": lambda z: numeric_inverse(phi, z)}


class TestInverseEntries:
    """``phi.inverse``, ``inverse_saturating`` and ``numeric_inverse`` follow
    one rule: odd, 0 to 0, NaN to NaN, a float for a scalar."""

    def test_agree_in_range(self, any_map):
        z = any_map.forward(np.geomspace(1e-3, 1e3, 40))
        z = np.concatenate((z, -z))
        exact = any_map.inverse(z)
        assert np.array_equal(inverse_saturating(any_map, z), exact)
        assert np.allclose(numeric_inverse(any_map, z), exact, rtol=1e-10)

    def test_odd_zero_nan_and_scalar(self, any_map):
        z = any_map.forward(np.array([1e-5, 0.3, 2.0, 40.0]))
        for name, inv in _three_inverses(any_map).items():
            assert np.array_equal(inv(-z), -inv(z)), name
            out = inv(np.array([0.0, -0.0, np.nan]))
            assert out[0] == 0.0 and out[1] == 0.0 and np.isnan(out[2]), name
            for scalar in (0.5, -0.5, 0.0, -0.0):
                assert type(inv(scalar)) is float, name
            assert math.isnan(inv(math.nan)), name

    def test_saturating_inverse_is_odd(self, any_map):
        z = any_map.forward(np.array([0.01, 1.0, 7.0]))
        assert np.all(inverse_saturating(any_map, -z) < 0.0)
        assert np.array_equal(inverse_saturating(any_map, -z),
                              -inverse_saturating(any_map, z))

    def test_past_the_range(self, any_map):
        # The largest float lies above every map's largest finite image on
        # the probe ladder, so the engine raises or saturates there; a
        # closed form answers for itself.
        top = np.finfo(float).max
        past = np.array([top, -top, math.inf, -math.inf])
        for z in past:
            with pytest.raises(UnboundedInputError):
                numeric_inverse(any_map, z)
        if any_map.label in _NO_CLOSED_FORM:
            for z in past:
                with pytest.raises(UnboundedInputError):
                    any_map.inverse(z)
            assert np.array_equal(inverse_saturating(any_map, past),
                                  np.sign(past) * math.inf)
        else:
            assert np.array_equal(inverse_saturating(any_map, past),
                                  any_map.inverse(past))
            assert any_map.inverse(math.inf) == math.inf
            assert any_map.inverse(-math.inf) == -math.inf


class TestXMinusLog1p:
    def test_relative_error_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        y = np.geomspace(1e-8, 10.0, 2001)
        with mpmath.workdps(40):
            exact = np.array([float(mpmath.mpf(v) - mpmath.log1p(mpmath.mpf(v)))
                              for v in y])
        got = make_catalog_entry("x-log1p").forward(y)
        assert np.max(np.abs(got - exact) / exact) <= 1e-14

    def test_strictly_increasing_at_fine_spacing(self):
        phi = make_catalog_entry("x-log1p")
        y = np.geomspace(1e-6, 1.0, 20001)
        at = phi.forward(y)
        assert np.all(phi.forward(y * (1.0 - 1e-13)) < at)
        assert np.all(at < phi.forward(y * (1.0 + 1e-13)))


class TestInverseHomeomorphism:
    def test_power_inverse_is_reciprocal_power(self):
        phi = make_power(2.0)
        inv = inverse_homeomorphism(phi)
        y = np.geomspace(1e-4, 1e4, 30)
        assert np.allclose(inv.forward(y), np.sqrt(y), rtol=1e-12)
        assert inv.known_alpha == pytest.approx(0.5)
        assert inv.known_beta == pytest.approx(0.5)

    def test_roundtrip_through_inverse_entry(self, entry):
        inv = inverse_homeomorphism(entry)
        y = np.geomspace(1e-3, 1e3, 25)
        assert np.allclose(inv.forward(entry.forward(y)), y, rtol=1e-8)
