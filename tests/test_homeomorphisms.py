import math

import numpy as np
import pytest

from phibvp import (CATALOG_DESCRIPTORS, ConvergenceError, Homeomorphism,
                    UnboundedInputError, inverse_homeomorphism,
                    inverse_saturating, make_catalog_entry, make_power,
                    numeric_inverse)
from phibvp import homeomorphisms
from phibvp.homeomorphisms import (_FINE_PER_DECADE, _RESIDUAL_TOL,
                                   _RETRY_STEPS, _InverseTable, _lane_root,
                                   _odd, _odd_inverse_fn, _probes,
                                   _rough_inverse, _secant_roots)

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
        "ratio:inf,1", "sum-powers:inf,1", "logpow:inf", "ratio:2,nan",
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


def _old_odd(fn):
    """The sign-product odd extension, kept verbatim as the oracle."""
    def odd(y):
        return np.where(y == 0.0, 0.0, np.sign(y) * fn(np.abs(y)))
    return odd


def _same_bits(a, b):
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def _odd_samples():
    rng = np.random.default_rng(17)
    tiny = np.finfo(float).tiny
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                        tiny / 3.0, -tiny / 3.0, 1e-300, -1e-300, 1e300,
                        -1e300, 1.0, -1.0])
    random = (rng.choice([-1.0, 1.0], 10 ** 5)
              * 10.0 ** rng.uniform(-320.0, 308.0, 10 ** 5))
    return np.concatenate((special, random, rng.standard_normal(1000)))


@pytest.mark.parametrize("descriptor", CATALOG_DESCRIPTORS + ("power:1",))
def test_odd_extension_matches_the_sign_product_bit_for_bit(descriptor):
    # Every odd extension, the copysign wrapper and the direct call of a
    # closed form odd on the reals alike, and the inverse table's exact
    # path on nonnegative arguments, against the old extension: the same
    # bits everywhere, and NaN at the same places.
    phi = make_catalog_entry(descriptor)
    assert phi._odd_on_reals == (descriptor in ("power:1", "arcsinh"))
    y = _odd_samples()
    pairs = [(phi._forward_pos, phi.forward),
             (phi._forward_pos, _odd(phi._forward_pos))]
    if phi._inverse_pos is not None:
        pairs += [(phi._inverse_pos, _odd_inverse_fn(phi, "inf")),
                  (phi._inverse_pos, phi.inverse),
                  (phi._inverse_pos, _odd(phi._inverse_pos))]
    with np.errstate(all="ignore"):
        for pos, odd in pairs:
            assert _same_bits(odd(y), _old_odd(pos)(y))
        if phi._inverse_pos is not None:
            z = np.append(np.abs(y), -0.0)
            assert _same_bits(_InverseTable(phi, 1.0)(z),
                              _old_odd(phi._inverse_pos)(z))


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
        # Only the first call builds the fine probe ladder, once per map and
        # not the decade one; after it a call costs three secant sweeps and
        # one certification.
        base = make_catalog_entry("sum-powers:3,1.5")
        calls = []

        def counting(y):
            calls.append(np.size(y))
            return base._forward_pos(y)

        phi = Homeomorphism("counted", counting)
        ladder_size = _probes(_FINE_PER_DECADE).size
        z = np.geomspace(1e-6, 1e6, 1000)
        numeric_inverse(phi, z)
        assert calls.count(ladder_size) == 1
        assert list(phi._ladders) == [_FINE_PER_DECADE]
        calls.clear()
        roots = numeric_inverse(phi, z)
        assert len(calls) <= 4
        assert ladder_size not in calls
        assert np.allclose(base.forward(roots), z, rtol=1e-12)

    def test_nan_target_costs_no_forward_calls(self):
        # A NaN comes back as NaN without entering the secant or the
        # bisection loop, so it leaves the other roots and the call count
        # as they are.
        base = make_catalog_entry("sum-powers:3,1.5")
        calls = []

        def counting(y):
            calls.append(np.size(y))
            return base._forward_pos(y)

        phi = Homeomorphism("counted", counting)
        z = np.geomspace(1e-6, 1e6, 1000)
        clean = numeric_inverse(phi, z)
        calls.clear()
        numeric_inverse(phi, z)
        without_nan = len(calls)
        z[500] = np.nan
        calls.clear()
        roots = numeric_inverse(phi, z)
        assert len(calls) == without_nan
        assert np.isnan(roots[500])
        keep = np.arange(z.size) != 500
        assert np.array_equal(roots[keep], clean[keep])

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

    def test_root_below_the_smallest_float_underflows_to_zero(self):
        # phi(5e-324) = 3.4e-7: a smaller target has its root below every
        # positive float, so it reads 0, as power:0.02's closed form does.
        phi = make_catalog_entry("sum-powers:0.05,0.02")
        assert phi.inverse(1e-7) == 0.0
        assert phi.inverse(-1e-7) == 0.0
        x = phi.inverse(1e-6)
        assert 0.0 < x < 1e-299
        assert abs(phi.forward(x) - 1e-6) <= _RESIDUAL_TOL
        # Just above phi(5e-324) the two smallest floats' images are 1.4%
        # apart, and a miss there still raises.
        with pytest.raises(ConvergenceError, match="missed its tolerance"):
            phi.inverse(1.005 * phi.forward(5e-324))


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


_NUMERIC_CATALOG = [d for d in CATALOG_DESCRIPTORS if d in _NO_CLOSED_FORM]


def test_numeric_inverse_properties():
    # The certified engine on the catalog maps without a closed-form
    # inverse: odd to the bit, monotone, and phi(phi^{-1}(y)) within the
    # engine's residual tolerance, on magnitudes from 1e-300 to 1e300.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    assert len(_NUMERIC_CATALOG) == 4

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(descriptor=st.sampled_from(_NUMERIC_CATALOG),
                      exponents=st.lists(st.floats(-300.0, 300.0), min_size=2,
                                         max_size=2))
    def check(descriptor, exponents):
        phi = make_catalog_entry(descriptor)
        y = np.sort(10.0 ** np.array(exponents))
        x = numeric_inverse(phi, np.concatenate((y, -y)))
        assert np.array_equal(x[2:], -x[:2])
        assert 0.0 < x[0] <= x[1]
        back = phi.forward(x[:2])
        assert np.all(np.abs(back - y) <= _RESIDUAL_TOL * (1.0 + y))

    check()


@pytest.mark.parametrize("descriptor", _NUMERIC_CATALOG)
def test_plateau_targets_get_the_smallest_reaching_float(descriptor):
    # Subnormal images are coarse, so phi equals each of these targets on a
    # stretch of floats wider than the certification window; the bracketed
    # search returns the smallest float x with phi(x) >= y.
    phi = make_catalog_entry(descriptor)
    y = np.geomspace(1e-321, 1e-315, 60)
    x = numeric_inverse(phi, y)
    assert np.all(phi.forward(x) >= y)
    assert np.all(phi.forward(np.nextafter(x, 0.0)) < y)


@pytest.mark.parametrize("descriptor", CATALOG_DESCRIPTORS + ("bounded",))
def test_rough_inverse_steers_like_the_certified_one(descriptor):
    # The closed form where there is one; else the engine's log-log start,
    # within 0.5% of the certified root, saturating where it saturates.
    phi = (_bounded() if descriptor == "bounded"
           else make_catalog_entry(descriptor))
    z = np.concatenate((-np.geomspace(1e-6, 1e6, 50), [0.0, 2.0, 1e300],
                        np.geomspace(1e-6, 1e6, 50)))
    rough = _rough_inverse(phi, z)
    exact = inverse_saturating(phi, z)
    if phi._inverse_pos is not None:
        assert _same_bits(rough, exact)
    else:
        assert np.array_equal(np.isinf(rough), np.isinf(exact))
        assert np.array_equal(np.sign(rough), np.sign(exact))
        finite = np.isfinite(exact)
        assert np.allclose(rough[finite], exact[finite], rtol=5e-3, atol=0.0)


def test_roots_do_not_depend_on_the_batch(monkeypatch):
    # Shooting lanes rely on an inverse whose root for a target is the same
    # whatever else shares the call.  Each root of one call on 200 mixed
    # targets equals that target inverted alone, bit for bit, on the four
    # numeric catalog maps.  The subnormal targets go to the fallback and
    # xlog's targets near 1 to the further sweeps.  The numeric inverse of
    # inverse(sum-powers) sees rounding noise in its own forward map, which
    # sends secant steps out of their bracket, so the midpoint safeguard runs.
    ran = {"fallback": 0, "retry": 0}
    lane_root, secant = homeomorphisms._lane_root, homeomorphisms._secant_roots

    def counted_lane_root(*args):
        ran["fallback"] += 1
        return lane_root(*args)

    def counted_secant(forward_pos, targets, state, steps):
        ran["retry"] += steps == _RETRY_STEPS
        return secant(forward_pos, targets, state, steps)

    monkeypatch.setattr(homeomorphisms, "_lane_root", counted_lane_root)
    monkeypatch.setattr(homeomorphisms, "_secant_roots", counted_secant)
    rng = np.random.default_rng(20)
    near_one = 1.0 + np.concatenate((np.geomspace(1e-9, 1e-3, 24),
                                     -np.geomspace(1e-9, 1e-3, 24),
                                     [1e-6, -1e-6]))
    y = rng.permutation(np.concatenate((
        10.0 ** rng.uniform(-300.0, 300.0, 120),
        np.geomspace(1e-321, 1e-315, 30),
        make_catalog_entry("xlog").forward(near_one))))
    assert y.size == 200
    cases = [(make_catalog_entry(d), y) for d in _NUMERIC_CATALOG]
    cases.append((inverse_homeomorphism(make_catalog_entry("sum-powers:3,1.5")),
                  10.0 ** rng.uniform(-310.0, -296.0, 40)))
    for phi, targets in cases:
        batch = numeric_inverse(phi, targets)
        alone = np.array([numeric_inverse(phi, v) for v in targets])
        assert np.array_equal(batch, alone), phi.label
    assert ran["fallback"] > 0 and ran["retry"] > 0


def test_secant_step_out_of_bracket_takes_the_midpoint():
    # A log-log secant step that leaves the running bracket is replaced by
    # the bracket's geometric midpoint; an unchanged image gives a zero step.
    phi = make_catalog_entry("sum-powers:3,1.5")
    y = np.array([3.0, 3.0])
    x = np.array([1.0, 1.0])
    g = np.log(phi.forward(x) / y)
    # Entry 0's secant through the two images steps far past hi; entry 1's
    # previous image equals its current one.
    state = (x, np.array([0.5, 0.5]), np.array([4.0, 4.0]),
             np.array([g[0] - 1e-3, g[1]]), np.array([1.0, 1.0]))
    with np.errstate(invalid="ignore", divide="ignore"):
        out, lo, hi, _, step = _secant_roots(phi._forward_pos, y, state, 1)
    assert (lo[0], hi[0]) == (1.0, 4.0)
    assert out[0] == 2.0 and step[0] == math.log(2.0)
    assert out[1] == 1.0 and step[1] == 0.0


def test_decade_ladder_does_not_move():
    # The decade ladder brackets the growth grids, the inverse table and the
    # comparison constants; it is built exactly as before the fine ladder
    # was added, for every catalog map and its inverse map, and every 16th
    # fine probe is its decade probe.
    def reference(forward_pos):
        probes = 10.0 ** np.arange(-320, 309)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.asarray(forward_pos(probes), dtype=float)
        valid = np.isfinite(vals) & (vals > 0.0)
        px, pv = probes[valid], vals[valid]
        keep = np.concatenate(([True], np.diff(pv) > 0.0))
        return px[keep], pv[keep]

    assert np.array_equal(_probes(_FINE_PER_DECADE)[::_FINE_PER_DECADE],
                          10.0 ** np.arange(-320, 309))
    assert np.array_equal(_probes(1), 10.0 ** np.arange(-320, 309))
    for phi in ALL_ENTRIES:
        for m in (phi, inverse_homeomorphism(phi)):
            fresh = Homeomorphism(m.label, m._forward_pos, m._inverse_pos)
            got, want = fresh._probe_ladder(), reference(m._forward_pos)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), m.label


def _bisection_steps(fn, lo, hi):
    """Midpoint steps plain bisection takes from [lo, hi] to adjacent floats."""
    steps = 0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * lo + 0.5 * hi
        if fn(np.array([mid]))[0] < 0.0:
            lo = mid
        else:
            hi = mid
        steps += 1
    return steps


def test_lane_root_properties():
    # The one bracketed root-finder: every lane ends on adjacent floats
    # with f(lo) < 0 <= f(hi), equals its run alone, and stays within
    # about twice bisection's steps on a plateau function, where the
    # secant steps gain little.  Lanes are a x^p - y on a bracket from 0
    # to past the root, the same quantised to multiples of 1/8, the same
    # reading +inf past twice the root, and the same reading -inf below
    # zero on a bracket that starts below zero.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    lane = st.tuples(st.floats(0.1, 10.0), st.floats(0.3, 4.0),
                     st.floats(1e-6, 1e6), st.floats(1.0, 1e3),
                     st.sampled_from(["power", "plateau", "inf-hi", "inf-lo"]))

    def lane_fn(a, p, y, kind):
        if kind == "plateau":
            return lambda x: np.floor((a * x ** p - y) * 8.0) / 8.0
        if kind == "inf-hi":
            # Past twice the root the map saturates, as an inverse does.
            cut = 2.0 * (y / a) ** (1.0 / p)
            return lambda x: np.where(x > cut, np.inf, a * x ** p - y)
        if kind == "inf-lo":
            # Below zero the map reads -inf.
            return lambda x: np.where(x < 0.0, -np.inf,
                                      a * np.abs(x) ** p - y)
        return lambda x: a * x ** p - y

    def bracket(a, p, y, stretch, kind):
        root = (y / a) ** (1.0 / p)
        lo = -root if kind == "inf-lo" else 0.0
        return lo, root * (1.0 + stretch)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(lanes=st.lists(lane, min_size=1, max_size=6))
    def check(lanes):
        fns = [lane_fn(a, p, y, kind) for a, p, y, _, kind in lanes]
        ends = np.array([bracket(*spec) for spec in lanes])
        lo, hi = ends[:, 0], ends[:, 1]
        f_lo = np.array([f(np.array([x]))[0] for f, x in zip(fns, lo)])
        f_hi = np.array([f(np.array([x]))[0] for f, x in zip(fns, hi)])

        def fn(x):
            return np.array([f(x[i:i + 1])[0] for i, f in enumerate(fns)])

        out = _lane_root(fn, lo, hi, f_lo, f_hi)
        r_lo, r_hi, v_lo, v_hi = out
        assert np.array_equal(np.nextafter(r_lo, np.inf), r_hi)
        assert np.all(v_lo < 0.0) and np.all(v_hi >= 0.0)
        for i, f in enumerate(fns):
            calls = []

            def alone(x, f=f):
                calls.append(1)
                return f(x)

            single = _lane_root(alone, lo[i:i + 1], hi[i:i + 1],
                                f_lo[i:i + 1], f_hi[i:i + 1])
            assert all(np.array_equal(a[i:i + 1], b)
                       for a, b in zip(out, single))
            if lanes[i][4] == "plateau":
                # The midpoint rule halves the bracket from the third step
                # on, at least every other step.
                assert len(calls) <= 2 * _bisection_steps(f, lo[i], hi[i]) + 2

    check()


class TestInverseTable:
    def test_exact_path_maps_zero_to_zero(self):
        # The inverse of xlog's inverse is xlog's positive branch, which
        # reads NaN at 0; the table sends 0 and -0.0 to 0 all the same.
        table = _InverseTable(inverse_homeomorphism(make_catalog_entry("xlog")),
                              1.0)
        out = table(np.array([0.0, -0.0, 1.0]))
        assert _same_bits(out, np.array([0.0, 0.0, 1.0]))

    def test_identity_path_leaves_its_argument(self):
        # power:1's inverse returns its argument, so the table zeroes a
        # copy of it, not the caller's array.
        z = np.array([-0.0, 0.0, 2.0])
        out = _InverseTable(make_power(1.0), 1.0)(z)
        assert _same_bits(out, np.array([0.0, 0.0, 2.0]))
        assert _same_bits(z, np.array([-0.0, 0.0, 2.0]))

    @pytest.mark.parametrize("descriptor", _NUMERIC_CATALOG)
    @pytest.mark.parametrize("z_max", [1e-2, 1.0, 1e4])
    def test_table_stays_below_the_certified_inverse(self, descriptor, z_max):
        # phi^{-1} increases, so it is at least t_k from z_k = phi(t_k) up,
        # and the table reaches t_k only at z_{k+1}.  The grid runs from
        # below the table's floor to past its top, and densely across
        # xlog's vertical tangent at z = 1.
        phi = make_catalog_entry(descriptor)
        table = _InverseTable(phi, z_max)
        z = np.concatenate((np.geomspace(1e-300, 2.0 * z_max, 40001),
                            np.linspace(0.9, 1.1, 20001)))
        assert np.all(table(z) <= numeric_inverse(phi, z))

    @pytest.mark.parametrize("descriptor", _NUMERIC_CATALOG)
    @pytest.mark.parametrize("z_max", [1e-2, 1.0, 1e4])
    def test_table_is_within_two_nodes_of_the_inverse(self, descriptor, z_max):
        # On [z_k, z_{k+1}] the table is at least t_{k-1} and phi^{-1} at
        # most t_{k+1}: two steps of the grid ratio rho apart.  The nodes
        # span 16 decades, so the working range stays that tight.
        phi = make_catalog_entry(descriptor)
        table = _InverseTable(phi, z_max)
        nodes = table._t[1:]
        assert nodes[-1] / nodes[0] <= 1e16
        rho = 10.0 ** (16.0 / 4095.0)
        z = np.geomspace(1e-12 * z_max, z_max, 20001)
        assert np.all(table(z) >= numeric_inverse(phi, z) / rho ** 2)
