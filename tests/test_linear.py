import bisect
import math
import sys
import threading

import numpy as np
import pytest

from phibvp import (CATALOG_DESCRIPTORS, ConvergenceError, Grid,
                    GridFunction, Homeomorphism, UnboundedInputError,
                    check_cone_membership, cone_lower_bound, corpus,
                    envelope_bounds, estimate_comparison_constant,
                    inverse_saturating, make_catalog_entry, make_power,
                    monotone_check, solve_linear, sup_norm,
                    sup_norm_lower_bound, support_data,
                    verify_comparison_constant)
from phibvp import homeomorphisms
from phibvp import linear
from phibvp.linear import (_certificate, _Certificate, _forward_root_constant,
                           _RefinedCumulative)

# Closed-form peak of the solution of -phi(u')' = 1 on (0, 1) with zero
# boundary values, phi the odd power with exponent r:
#   ||u|| = (r / (r + 1)) * (1 / 2) ** ((r + 1) / r)
PEAK_BY_EXPONENT = {
    0.5: 0.041666666666666664,
    1.0: 0.125,
    2.0: 0.23570226039551584,
    3.0: 0.29763769724403744,
}


def constant_one(n=257):
    g = Grid.uniform(0.0, 1.0, n)
    return GridFunction(g, np.ones(n))


class TestPowerOracles:
    @pytest.mark.parametrize("r", sorted(PEAK_BY_EXPONENT))
    def test_peak_matches_closed_form(self, r):
        profile = solve_linear(make_power(r), constant_one(4097))
        expected = PEAK_BY_EXPONENT[r]
        assert sup_norm(profile.u) == pytest.approx(expected, rel=1e-6)

    # The trapezoid rule on the endpoint singularity (c - H)^(1/r), where
    # u' changes sign at the peak, converges at order 1 + 1/r for r > 1.
    @pytest.mark.parametrize("r, order", [(0.5, 2.0), (2.0, 1.5),
                                          (3.0, 4.0 / 3.0)])
    def test_peak_converges_at_the_expected_order(self, r, order):
        errors = np.array([
            abs(sup_norm(solve_linear(make_power(r), constant_one(n)).u)
                - PEAK_BY_EXPONENT[r])
            for n in (65, 129, 257, 513, 1025)])
        observed = np.log2(errors[:-1] / errors[1:])
        assert np.all(np.abs(observed - order) <= 0.1), observed

    @pytest.mark.parametrize("r", sorted(PEAK_BY_EXPONENT))
    def test_flux_constant_is_half_total_mass(self, r):
        # Symmetric forcing pins phi(u') = c - H with c = H(b) / 2.
        profile = solve_linear(make_power(r), constant_one(1025))
        assert profile.c_star == pytest.approx(0.5, abs=1e-12)

    def test_boundary_values_exact_zero(self):
        profile = solve_linear(make_power(2.0), constant_one(513))
        assert profile.u.values[0] == 0.0
        assert profile.u.values[-1] == 0.0

    def test_residual_small(self):
        profile = solve_linear(make_power(2.0), constant_one(513))
        assert profile.residual < 1e-10

    def test_homogeneity_of_power_solves(self):
        # For the odd power, scaling the forcing by kappa scales the
        # solution by kappa ** (1 / r).
        r, kappa = 3.0, 5.0
        h = constant_one(513)
        scaled = GridFunction(h.grid, kappa * h.values)
        base = solve_linear(make_power(r), h)
        big = solve_linear(make_power(r), scaled)
        assert np.allclose(big.u.values,
                           kappa ** (1.0 / r) * base.u.values, atol=1e-8)

    def test_zero_forcing_gives_zero_solution(self):
        g = Grid.uniform(0.0, 1.0, 129)
        profile = solve_linear(make_power(2.0), GridFunction(g, np.zeros(129)))
        assert sup_norm(profile.u) == 0.0

    def test_absurd_tolerance_raises(self):
        with pytest.raises(ConvergenceError):
            solve_linear(make_power(2.0), constant_one(65), tol=1e-300)

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            solve_linear(make_power(2.0), constant_one(65), tol=0.0)


def _bisected_flux_constant(phi, h):
    """The flux constant by plain bisection, as an oracle for the solver.

    It shares only the discrete boundary functional with ``solve_linear``:
    the trapezoid integral of phi^{-1}(c - H) on the refined partition.
    Bisection keeps F(lo) < 0 <= F(hi) down to a two-ulp bracket and takes
    the end with the smaller |F|.  Returns ``(c, residual)``.
    """
    rc = _RefinedCumulative(h.grid, h.values)

    def defect(c):
        g = phi.inverse(c - rc.cell_H)
        return float(np.sum(rc.integrate_cells(g))), g

    lo, hi = float(np.min(rc.cell_H)), float(np.max(rc.cell_H))
    while hi - lo > 2.0 * np.spacing(max(abs(lo), abs(hi))):
        mid = 0.5 * (lo + hi)
        if defect(mid)[0] < 0.0:
            lo = mid
        else:
            hi = mid
    (F_lo, g_lo), (F_hi, g_hi) = defect(lo), defect(hi)
    c, F, g = (lo, F_lo, g_lo) if abs(F_lo) <= abs(F_hi) else (hi, F_hi, g_hi)
    span = h.grid.b - h.grid.a
    return c, abs(F) / (span * (1.0 + float(np.max(np.abs(g)))))


def _counted_square_root_map(calls):
    """power:2 with a closed-form inverse that counts its calls."""
    def inverse_pos(z):
        calls.append(np.size(z))
        return np.sqrt(z)

    return Homeomorphism("counted-power:2", lambda y: y * y, inverse_pos)


def _bounded():
    # y / (1 + y): range (-1, 1) and no closed-form inverse.
    return Homeomorphism("bounded", lambda y: y / (1.0 + y))


class TestFluxConstant:
    CASES = corpus(seed=0, count=40)

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_root_matches_plain_bisection(self, index):
        _, phi, h = self.CASES[index]
        profile = solve_linear(phi, h)
        c, residual = _bisected_flux_constant(phi, h)
        assert abs(profile.c_star - c) <= 2.0 * np.spacing(abs(c))
        assert profile.residual <= residual

    NUMERIC = [case for case in CASES if case[1]._inverse_pos is None]
    NUMERIC_MAPS = [phi for phi in map(make_catalog_entry,
                                       CATALOG_DESCRIPTORS)
                    if phi._inverse_pos is None]
    CONSTANT_FORCINGS = [GridFunction(Grid.uniform(0.0, 1.0, 129),
                                      np.full(129, height))
                         for height in (0.3, 1.0, 2.5)]

    @pytest.mark.parametrize("index", range(len(NUMERIC)))
    def test_root_straddles_the_sign_change(self, index):
        # The seeded search reads F roughly at the bracket ends; whatever
        # it returns must be certified.  Against F through phi.inverse on
        # the cells, c and the adjacent float across the root straddle the
        # sign change, and c has the smaller |F|, the lower c on a tie.
        _, phi, h = self.NUMERIC[index]
        rc = _RefinedCumulative(h.grid, h.values)

        def F(c):
            return float(np.sum(rc.integrate_cells(phi.inverse(c - rc.cell_H))))

        c = solve_linear(phi, h).c_star
        F_c = F(c)
        if F_c < 0.0:
            F_up = F(np.nextafter(c, np.inf))
            assert F_up >= 0.0 and abs(F_c) <= abs(F_up)
        else:
            F_down = F(np.nextafter(c, -np.inf))
            assert F_down < 0.0 and abs(F_c) < abs(F_down)

    def test_certified_call_budget(self, monkeypatch):
        # Engine calls per solve on the maps without a closed-form inverse:
        # the bracket ends cost none, and Newton probes from the first
        # certified evaluation land across the root.
        calls = []
        engine = homeomorphisms._invert_positive

        def counted(*args):
            calls.append(1)
            return engine(*args)

        monkeypatch.setattr(homeomorphisms, "_invert_positive", counted)

        def count(phi, h):
            calls.clear()
            solve_linear(phi, h)
            return len(calls)

        for phi in self.NUMERIC_MAPS:
            for h in self.CONSTANT_FORCINGS:
                assert count(phi, h) <= 4, phi
        assert np.mean([count(phi, h) for _, phi, h in self.NUMERIC]) <= 9.0

    def test_underflowing_inverse_solves(self):
        # phi^{-1} underflows to 0 for targets below phi(5e-324) = 3.4e-7,
        # which c - H reaches next to the root.
        phi = make_catalog_entry("sum-powers:0.05,0.02")
        h = self.CONSTANT_FORCINGS[1]
        profile = solve_linear(phi, h)
        assert abs(profile.c_star - 0.5) <= 4.0 * np.spacing(0.5)

    def test_inverse_call_budget(self):
        calls = []
        phi = _counted_square_root_map(calls)
        per_solve = []
        for _, _, h in self.CASES:
            calls.clear()
            solve_linear(phi, h)
            per_solve.append(len(calls))
        # Plain bisection needs about 55 evaluations of F for each solve.
        assert np.mean(per_solve) <= 13.0
        assert max(per_solve) <= 57

    @pytest.mark.parametrize("height", [1.2, 1.4, 1.9])
    def test_bounded_map_solvable_forcing(self, height):
        # c* = height / 2 and |c* - H| <= height / 2 < 1, inside the range
        # of phi, although the bracket [0, height] is not.
        g = Grid.uniform(0.0, 1.0, 257)
        h = GridFunction(g, np.full(257, height))
        phi = _bounded()
        profile = solve_linear(phi, h)
        assert profile.c_star == pytest.approx(0.5 * height, rel=1e-9)
        assert np.all(np.isfinite(profile.du.values))
        flux = phi.forward(profile.du.values) + height * g.nodes
        assert np.max(np.abs(flux - profile.c_star)) <= 1e-9

    def test_bounded_map_unsolvable_forcing_raises(self):
        # A mass of 2.5 needs |c - H| >= 1.25 somewhere for every c.
        g = Grid.uniform(0.0, 1.0, 257)
        with pytest.raises(UnboundedInputError, match="flux constant"):
            solve_linear(_bounded(), GridFunction(g, np.full(257, 2.5)))


def test_scaled_bump_property():
    # For a nonnegative bump h and scales t1 <= t2 in [0.1, 10], each solve
    # meets its tolerance with zero boundary values, and the solutions
    # keep the order of the forcings.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    grid = Grid.uniform(0.0, 1.0, 129)
    x = grid.nodes

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(descriptor=st.sampled_from(CATALOG_DESCRIPTORS),
                      center=st.floats(0.1, 0.9),
                      half_width=st.floats(0.025, 0.25),
                      amplitude=st.floats(0.3, 3.0),
                      floor=st.floats(0.0, 0.5),
                      scales=st.lists(st.floats(0.1, 10.0), min_size=2,
                                      max_size=2))
    def check(descriptor, center, half_width, amplitude, floor, scales):
        phi = make_catalog_entry(descriptor)
        bump = np.maximum(0.0, 1.0 - np.abs(x - center) / half_width)
        h = amplitude * bump + floor
        t1, t2 = sorted(scales)
        tol = 1e-10
        u1, u2 = (solve_linear(phi, GridFunction(grid, t * h), tol=tol)
                  for t in (t1, t2))
        for profile in (u1, u2):
            assert profile.residual <= tol
            assert profile.u.values[0] == 0.0 and profile.u.values[-1] == 0.0
        assert np.all(u1.u.values <= u2.u.values + 1e-8)

    check()


class TestOrderAndEnvelopes:
    def test_monotone_in_forcing(self):
        g = Grid.uniform(0.0, 1.0, 257)
        x = g.nodes
        h1 = GridFunction(g, 0.5 + 0.25 * np.sin(6.0 * x) ** 2)
        h2 = GridFunction(g, h1.values + 0.3 * x)
        assert monotone_check(make_catalog_entry("xlog"), h1, h2)

    def test_monotone_check_rejects_unordered_inputs(self):
        g = Grid.uniform(0.0, 1.0, 65)
        h1 = GridFunction(g, np.ones(65))
        h2 = GridFunction(g, 1.0 - g.nodes)
        with pytest.raises(ValueError):
            monotone_check(make_power(2.0), h1, h2)

    @pytest.mark.parametrize("descriptor", ["power:2", "sum-powers:3,1.5",
                                            "arcsinh"])
    def test_solution_between_envelopes(self, descriptor):
        phi = make_catalog_entry(descriptor)
        g = Grid.uniform(0.0, 1.0, 513)
        x = g.nodes
        h = GridFunction(g, np.where((x > 0.2) & (x < 0.7), 1.5, 0.1))
        profile = solve_linear(phi, h)
        lower, upper = envelope_bounds(phi, h)
        slack = 1e-8 * (1.0 + sup_norm(profile.u))
        assert np.all(profile.u.values >= lower.values - slack)
        assert np.all(profile.u.values <= upper.values + slack)

    def test_cone_bound_holds_for_constant_forcing(self):
        assert cone_lower_bound(make_power(2.0), constant_one(513),
                                slack=1e-10)

    def test_sup_norm_lower_bound_is_a_lower_bound(self):
        phi = make_catalog_entry("ratio:2,0.5")
        g = Grid.uniform(0.0, 1.0, 513)
        x = g.nodes
        h = GridFunction(g, np.maximum(0.0, np.sin(3.0 * x)))
        lb = sup_norm_lower_bound(phi, h)
        profile = solve_linear(phi, h)
        assert 0.0 < lb <= sup_norm(profile.u) + 1e-10


# A tent on three nodes and a forcing at the left edge on five.
_COARSE_FORCINGS = {"tent-3": [0.0, 1.0, 0.0], "edge-5": [1.0, 0.0, 0.0, 0.0, 0.0]}


class TestComparisonConstant:
    # Identity phi with unit forcing admits the closed-form optimum
    # c = (1 / 2) ** (3 / 2): the one-sided integral is M / 8 and the
    # right-hand side is c ** 2 * M.
    OPTIMUM = 0.3535533905932738

    def test_identity_constant_near_optimum(self):
        c = estimate_comparison_constant(make_power(1.0), constant_one(513))
        assert 0.99 * self.OPTIMUM <= c <= self.OPTIMUM * (1.0 + 1e-9)

    def test_returned_constant_verifies_on_finer_grid(self):
        phi = make_catalog_entry("xlog")
        h = constant_one(257)
        c = estimate_comparison_constant(phi, h)
        assert c > 0.0
        fine = np.geomspace(1e-4, 1e4, 331)
        assert verify_comparison_constant(phi, h, c, fine)

    def test_oversized_constant_fails_verification(self):
        phi = make_power(1.0)
        h = constant_one(257)
        assert not verify_comparison_constant(phi, h, 2.0 * self.OPTIMUM,
                                              np.geomspace(1e-4, 1e4, 33))

    def test_singleton_M_grid_widens_the_constant(self):
        # Fewer constraints can only raise the certified constant.
        phi = make_catalog_entry("sum-powers:3,1.5")
        h = constant_one(257)
        c_wide = estimate_comparison_constant(phi, h)
        c_single = estimate_comparison_constant(phi, h, M_grid=[1.0])
        assert c_single >= c_wide * (1.0 - 1e-9)

    def test_overflowing_target_still_bounds_the_constant(self):
        # arcsinh with a finite LHS whose product L M overflows: the lane
        # still limits c, since c phi^{-1}(c M) is inf once c M passes
        # phi(max float), about 709.9.  A bump forcing met this lane at
        # M = 7153.9 with LHS = 4.08e307, and the estimate then failed its
        # own check.
        phi = make_catalog_entry("arcsinh")
        lhs, M = np.array([4.08e307, 1.0]), np.array([7153.9, 1.0])
        c = _forward_root_constant(phi, lhs, M)
        assert 0.0 < c < 709.9 / 7153.9
        assert _holds(phi, lhs, 0.999 * c, M)

    def test_invalid_M_grid_rejected(self):
        with pytest.raises(ValueError):
            estimate_comparison_constant(make_power(1.0), constant_one(65),
                                         M_grid=[0.0, 1.0])

    @pytest.mark.parametrize("descriptor", CATALOG_DESCRIPTORS)
    @pytest.mark.parametrize("shape", _COARSE_FORCINGS)
    def test_coarse_grid_keeps_the_constant(self, descriptor, shape):
        # The forcing is piecewise linear on the coarse grid, so the same
        # function on 257 nodes has the same one-sided integrals.  A lower
        # sum with one cell per grid cell counted 0 on the tent's sides.
        values = np.array(_COARSE_FORCINGS[shape])
        coarse = Grid.uniform(0.0, 1.0, values.size)
        fine = Grid.uniform(0.0, 1.0, 257)
        phi = make_catalog_entry(descriptor)
        c = estimate_comparison_constant(phi, GridFunction(coarse, values))
        c_fine = estimate_comparison_constant(
            phi, GridFunction(fine, np.interp(fine.nodes, coarse.nodes, values)))
        assert abs(c / c_fine - 1.0) <= 0.01


_FINE_M = np.geomspace(1e-4, 1e4, 331)
_NUMERIC_MAPS = ("sum-powers:3,1.5", "ratio:2,0.5", "xlog", "x-log1p")


def _fresh(descriptor):
    """A new map object, which no memo entry can hold."""
    return make_catalog_entry(descriptor)


def _outside_memo(phi, h):
    """A certificate for (phi, h) that the memo does not hold."""
    return _Certificate(phi, h, key=None)


def _holds(phi, lhs, c, M):
    with np.errstate(over="ignore"):
        return bool(np.all(lhs >= c * inverse_saturating(phi, c * M)))


def _bisected_comparison_constant(phi, h):
    """The comparison constant by bisection on c: 60 halvings of
    [1e-12, 1e6] against the estimate's own tabulated LHS on the 33-point
    M grid and its 331-point refinement together, then the 0.999 shave.
    Returns the constant before and after the shave and the two grids with
    their LHS."""
    M = np.geomspace(1e-4, 1e4, 33)
    fine = np.geomspace(1e-4, 1e4, 331)
    cert = _outside_memo(phi, h)
    lhs, lhs_fine = cert.lhs(M, M[-1]), cert.lhs(fine, M[-1])
    both_M, both_lhs = np.concatenate((M, fine)), np.concatenate((lhs, lhs_fine))
    lo, hi = 1e-12, 1e6
    if _holds(phi, both_lhs, hi, both_M):
        lo = hi
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _holds(phi, both_lhs, mid, both_M):
                lo = mid
            else:
                hi = mid
    return lo, lo * 0.999, (M, lhs), (fine, lhs_fine)


def _exact_lhs(phi, h, M):
    """The comparison LHS with the certified inverse in place of the table,
    on the same cells of the lower sum."""
    wl, dl, wr, dr, _ = _outside_memo(phi, h).cells
    return np.minimum(phi.inverse(M[:, None] * dl) @ wl,
                      phi.inverse(M[:, None] * dr) @ wr)


def _chain(phi, h):
    profile = solve_linear(phi, h)
    slack = 1e-8 * (1.0 + sup_norm(profile.u))
    lower, upper = envelope_bounds(phi, h)
    cone = cone_lower_bound(phi, h, slack)
    half = sup_norm_lower_bound(phi, h)
    c = estimate_comparison_constant(phi, h)
    recheck = verify_comparison_constant(phi, h, c, _FINE_M)
    return profile, (lower, upper), cone, half, c, recheck, slack


class TestComparisonCertificate:
    CASES = corpus(seed=0, count=40)

    def test_memo_is_invisible(self):
        # Every call below on a fresh map object misses the memo, so it
        # computes from scratch what the chain read from it.
        for descriptor, phi, h in self.CASES:
            _, (lower, upper), cone, half, c, recheck, slack = _chain(phi, h)
            fresh_lower, fresh_upper = envelope_bounds(_fresh(descriptor), h)
            assert np.array_equal(fresh_lower.values, lower.values)
            assert np.array_equal(fresh_upper.values, upper.values)
            assert sup_norm_lower_bound(_fresh(descriptor), h) == half
            assert estimate_comparison_constant(_fresh(descriptor), h) == c
            assert verify_comparison_constant(_fresh(descriptor), h, c,
                                              _FINE_M) == recheck
            assert cone_lower_bound(_fresh(descriptor), h, slack) == cone

    def test_one_certificate_per_chain(self, monkeypatch):
        # At the parent of this design the chain ran support_data four
        # times, built the clamped cumulative three times and evaluated the
        # exact one-sided integrals twice.  For h >= 0 the solve and the
        # bounds share one refined cumulative.
        descriptor, _, h = self.CASES[5]
        assert np.all(h.values >= 0.0)
        supports, cumulatives, exact = [], [], []
        support_fn, cumulative = linear.support_data, linear._RefinedCumulative
        inverse = Homeomorphism.inverse

        def counted_support(*args):
            supports.append(1)
            return support_fn(*args)

        def counted_cumulative(grid, values):
            cumulatives.append(1)
            return cumulative(grid, values)

        def counted_inverse(self, z):
            if np.size(z) > 1:
                exact.append(1)
            return inverse(self, z)

        monkeypatch.setattr(linear, "support_data", counted_support)
        monkeypatch.setattr(linear, "_RefinedCumulative", counted_cumulative)
        monkeypatch.setattr(Homeomorphism, "inverse", counted_inverse)
        _chain(_fresh(descriptor), h)
        assert len(supports) == 1
        assert len(cumulatives) == 1
        # One evaluation is two array calls, one per side.
        assert len(exact) == 2

    def test_cone_test_is_shared_with_branch_profiles(self):
        # check_cone_membership reads the cone with slack 1e-8 (1 + ||u||).
        for _, phi, h in self.CASES[:10]:
            profile = solve_linear(phi, h)
            slack = 1e-8 * (1.0 + sup_norm(profile.u))
            assert (check_cone_membership(profile, h)
                    == cone_lower_bound(phi, h, slack))

    def test_memo_misses_another_map_object(self):
        _, phi, h = self.CASES[0]
        entry = _certificate(phi, h)
        assert _certificate(phi, h) is entry
        other = _certificate(_fresh(self.CASES[0][0]), h)
        assert other is not entry and other.lhs_by_grid == {}

    def test_memo_misses_a_forcing_changed_in_place(self):
        descriptor, _, h0 = self.CASES[1]
        h = GridFunction(h0.grid, h0.values)
        phi = _fresh(descriptor)
        c_before = estimate_comparison_constant(phi, h)
        entry = _certificate(phi, h)
        h.values.setflags(write=True)
        h.values[:] *= 3.0
        assert _certificate(phi, h) is not entry
        c_after = estimate_comparison_constant(phi, h)
        assert c_after != c_before
        assert c_after == estimate_comparison_constant(_fresh(descriptor), h)

    def test_memo_misses_another_M_grid(self):
        descriptor, phi, h = self.CASES[2]
        c = 0.5 * estimate_comparison_constant(phi, h)
        same_ceiling = np.geomspace(1e-4, 1e4, 34)
        narrow = np.geomspace(1e-2, 1e2, 33)
        expected = [verify_comparison_constant(_fresh(descriptor), h, c, M)
                    for M in (same_ceiling, narrow)]
        estimate_comparison_constant(phi, h)
        entry = _certificate(phi, h)
        grids = set(entry.lhs_by_grid)
        assert same_ceiling.tobytes() not in grids
        # The same ceiling keeps the table; a new grid gets its own LHS.
        assert verify_comparison_constant(phi, h, c, same_ceiling) == expected[0]
        assert _certificate(phi, h) is entry
        assert set(entry.lhs_by_grid) == grids | {same_ceiling.tobytes()}
        # A new ceiling replaces the table and every LHS built on it.
        assert verify_comparison_constant(phi, h, c, narrow) == expected[1]
        assert set(entry.lhs_by_grid) == {narrow.tobytes()}

    def test_threads_keep_their_own_entries(self):
        # Threads share one map and one forcing but not a ceiling, so an
        # entry shared across threads would hand one thread's table to
        # another.
        descriptor, phi, h = next(case for case in self.CASES
                                  if case[0] == "xlog")
        grids = [None, np.geomspace(1e-2, 1e2, 33)] * 3
        expected = [estimate_comparison_constant(_fresh(descriptor), h, M)
                    for M in grids]
        results = [[] for _ in grids]

        def work(i):
            for _ in range(5):
                results[i].append(estimate_comparison_constant(phi, h, grids[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(grids))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[c] * 5 for c in expected]

    def test_mutated_profile_does_not_reach_the_cone_bound(self):
        descriptor, phi, h = self.CASES[3]
        profile = solve_linear(phi, h)
        # A spike at the first interior node puts every other node below
        # the cone's floor.
        profile.u.values.setflags(write=True)
        profile.u.values[:] = 0.0
        profile.u.values[1] = 1.0
        assert cone_lower_bound(phi, h, 1e-8)
        assert cone_lower_bound(_fresh(descriptor), h, 1e-8)

    def test_root_constant_against_bisection(self):
        passed = 0
        for descriptor, phi, h in self.CASES:
            c_bis, c_bis_final, (M, lhs), (fine, lhs_fine) = \
                _bisected_comparison_constant(_fresh(descriptor), h)
            both_M = np.concatenate((M, fine))
            both_lhs = np.concatenate((lhs, lhs_fine))
            c_root = min(_forward_root_constant(phi, both_lhs, both_M), 1e6)
            if _holds(phi, both_lhs, c_root, both_M):
                passed += 1
                assert c_root >= c_bis * (1.0 - 1e-12)
            c = estimate_comparison_constant(phi, h)
            assert _holds(phi, lhs, c, M)
            assert _holds(phi, lhs_fine, c, fine)
            assert c >= c_bis_final * (1.0 - 1e-12)
        # The root misses the grids only by rounding at the binding lane,
        # which the 0.999 shave absorbs: the estimate passes both.
        assert passed >= 0.75 * len(self.CASES)

    def test_fewer_inverse_calls(self, monkeypatch):
        calls = []
        engine = homeomorphisms._invert_positive

        def counting(*args):
            calls.append(1)
            return engine(*args)

        monkeypatch.setattr(homeomorphisms, "_invert_positive", counting)
        per_case = []
        for descriptor, _, h in self.CASES:
            phi = _fresh(descriptor)
            if phi._inverse_pos is not None:
                continue
            calls.clear()
            c = estimate_comparison_constant(phi, h)
            verify_comparison_constant(phi, h, c, _FINE_M)
            per_case.append(len(calls))
        # Bisecting c took over 60 engine calls per case.  The estimate
        # takes one for the table's top, one for its 1e-12 pre-check and one
        # for its check on both grids; the verification takes the fourth.
        assert per_case and max(per_case) <= 4

    def test_lhs_makes_one_table_call_per_side(self, monkeypatch):
        # The per-M loop made two table calls for each of the 331 M values;
        # the fine partition would pass about 16 times the points.
        descriptor, _, h = next(case for case in self.CASES
                                if case[0] == "sum-powers:3,1.5")
        sizes = []
        call = homeomorphisms._InverseTable.__call__

        def counted(self, z):
            sizes.append(np.size(z))
            return call(self, z)

        monkeypatch.setattr(homeomorphisms._InverseTable, "__call__", counted)
        _outside_memo(_fresh(descriptor), h).lhs(_FINE_M, float(_FINE_M[-1]))
        assert len(sizes) == 2
        assert max(sizes) <= _FINE_M.size * (h.grid.count + 1)

    def test_table_lhs_below_exact_lhs_on_numeric_maps(self):
        M = np.geomspace(1e-4, 1e4, 33)
        counts = dict.fromkeys(_NUMERIC_MAPS, 0)
        for descriptor, phi, h in corpus(seed=0, count=200):
            if descriptor in counts:
                counts[descriptor] += 1
                table_lhs = _outside_memo(phi, h).lhs(M, M[-1])
                assert np.all(table_lhs <= _exact_lhs(phi, h, M))
        assert counts == {"sum-powers:3,1.5": 26, "ratio:2,0.5": 26,
                          "xlog": 25, "x-log1p": 21}


class TestLowerSumOracle:
    """The comparison LHS against adaptive quadrature of the exact
    one-sided integrals of phi^{-1}(M * mass), which shares no code with
    the package: the cumulative of max(h, 0) in closed form, a quadratic on
    each cell, and phi^{-1} in closed form or by Brent's method on phi.
    The support midpoint is an input to both."""

    # 20 cases; Brent's method makes xlog's the slow ones.
    COUNTS = {"power:2": 8, "arcsinh": 8, "xlog": 4}

    @staticmethod
    def _cumulative(h):
        x = [float(t) for t in h.grid.nodes]
        v = [max(float(t), 0.0) for t in h.values]
        H = [0.0]
        for j in range(len(x) - 1):
            H.append(H[-1] + 0.5 * (x[j + 1] - x[j]) * (v[j] + v[j + 1]))

        def at(t):
            j = min(max(bisect.bisect_right(x, t) - 1, 0), len(x) - 2)
            s, slope = t - x[j], (v[j + 1] - v[j]) / (x[j + 1] - x[j])
            return H[j] + v[j] * s + 0.5 * slope * s * s

        return at

    @staticmethod
    def _inverses():
        pytest.importorskip("scipy")
        from scipy.optimize import brentq

        def xlog_inverse(z):
            # phi(t) >= t, so the root lies in (0, max(z, 1)].
            if z == 0.0:
                return 0.0
            return brentq(lambda t: t * (abs(math.log(t)) + 1.0) - z,
                          5e-324, max(z, 1.0), xtol=1e-300)

        return {"power:2": math.sqrt,
                "arcsinh": lambda z: math.sinh(z) if z < 710.0 else math.inf,
                "xlog": xlog_inverse}

    def _assert_tight_lower_bound(self, cases):
        from scipy.integrate import quad

        inverses = self._inverses()
        M = np.geomspace(1e-4, 1e4, 33)
        compared = 0
        for descriptor, phi, h in cases:
            inverse, H = inverses[descriptor], self._cumulative(h)
            theta = support_data(h).theta_bar
            H_mid = H(theta)
            lhs = _outside_memo(phi, h).lhs(M, M[-1])
            for m, value in zip(M, lhs):
                if value == math.inf:
                    # sinh(M * mass) past the float range, in both.
                    continue
                left = quad(lambda t: inverse(m * max(H_mid - H(t), 0.0)),
                            h.grid.a, theta, limit=200, epsabs=0.0, epsrel=1e-6)
                right = quad(lambda t: inverse(m * max(H(t) - H_mid, 0.0)),
                             theta, h.grid.b, limit=200, epsabs=0.0, epsrel=1e-6)
                oracle = min(left[0], right[0])
                assert value <= oracle
                # Where phi^{-1} grows exponentially, as sinh at large M, a
                # cell of width w changes the integrand by a factor of about
                # exp(M h w), and the lower sum falls short by about as much.
                if descriptor != "arcsinh" or m <= 10.0:
                    assert value >= 0.97 * oracle
                compared += 1
        assert compared >= 0.9 * len(M) * len(cases)

    def test_lhs_is_a_tight_lower_bound(self):
        self._inverses()
        cases, taken = [], dict.fromkeys(self.COUNTS, 0)
        for descriptor, phi, h in corpus(seed=0, count=200):
            if taken.get(descriptor, 0) < self.COUNTS.get(descriptor, 0):
                taken[descriptor] += 1
                cases.append((descriptor, phi, h))
        assert taken == self.COUNTS
        self._assert_tight_lower_bound(cases)

    def test_coarse_grid_lhs_is_a_tight_lower_bound(self):
        # Each side of the tent on three nodes spans one grid cell, and the
        # edge forcing on five nodes leaves half a cell left of theta_bar.
        self._inverses()
        cases = [(descriptor, make_catalog_entry(descriptor),
                  GridFunction(Grid.uniform(0.0, 1.0, len(values)),
                               np.array(values)))
                 for descriptor in self.COUNTS
                 for values in _COARSE_FORCINGS.values()]
        self._assert_tight_lower_bound(cases)
