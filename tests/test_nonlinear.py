import math
from dataclasses import replace

import numpy as np
import pytest

from phibvp import (CATALOG_DESCRIPTORS, ConstructionError, FConstants,
                    G1Constants, G2Constants, Grid, GridFunction, Homeomorphism,
                    ProblemSpec, SolutionProfile, build_subsolution, build_supersolution,
                    make_catalog_entry, make_power, make_sub_super_pair, scan_shooting, shoot,
                    solve_between, solve_linear, sup_norm, verify_subsolution,
                    verify_supersolution, with_lambda)
from phibvp import nonlinear
from phibvp.homeomorphisms import _odd_inverse_fn
from phibvp.nonlinear import (_BLOWUP_FLUX, _BLOWUP_STATE, _CONFIRM,
                              _REFINE_EIGHTHS, _REFINE_GRADES, _cell_means,
                              _refine_brackets, _shoot_batch)
from phibvp.problems import rhs


def reference_spec(lam=0.5, n_nodes=257):
    """Identity flux, unit weights, f(t) = sqrt(t), g(t) = t^2 on (0, 1)."""
    g = Grid.uniform(0.0, 1.0, n_nodes)
    ones = GridFunction(g, np.ones(n_nodes))
    return ProblemSpec(
        grid=g, phi=make_power(1.0), m=ones, n=ones, lam=lam, mu=1.0,
        f=lambda t: np.sqrt(t), g=lambda t: t ** 2,
        f_constants=FConstants(1.0, 1.0, 0.5),
        g1_constants=G1Constants(1.0, 1.0, 2.0),
        g2_constants=G2Constants(1.0, 1.0, 2.0),
    )


def zero_rhs_spec(n_nodes=513):
    g = Grid.uniform(0.0, 1.0, n_nodes)
    ones = GridFunction(g, np.ones(n_nodes))
    return ProblemSpec(
        grid=g, phi=make_power(1.0), m=ones, n=ones, lam=1.0, mu=1.0,
        f=lambda t: np.zeros_like(t), g=lambda t: np.zeros_like(t))


def constant_rhs_spec(n_nodes=513):
    """Forcing identically one, independent of the state."""
    g = Grid.uniform(0.0, 1.0, n_nodes)
    ones = GridFunction(g, np.ones(n_nodes))
    return ProblemSpec(
        grid=g, phi=make_power(1.0), m=ones, n=ones, lam=1.0, mu=1.0,
        f=lambda t: np.ones_like(t), g=lambda t: np.zeros_like(t))


def cubic_spec(phi, lam, n_nodes=129, f=np.sqrt, c0=1.0):
    """Unit weights, g(t) = t^3 and the given f on (0, 1): with f = sqrt(t)
    this is the problem of every catalog map in the sandwich benchmark."""
    g = Grid.uniform(0.0, 1.0, n_nodes)
    ones = GridFunction(g, np.ones(n_nodes))
    return ProblemSpec(
        grid=g, phi=make_catalog_entry(phi), m=ones, n=ones, lam=lam, mu=1.0,
        f=f, g=lambda t: t ** 3, f_constants=FConstants(c0, 1.0, 0.5),
        g1_constants=G1Constants(1.0, 1.0, 3.0),
        g2_constants=G2Constants(1.0, 1.0, 3.0))


def plain_picard(spec, v, w, tol):
    """Clamped Picard from v until consecutive iterates differ by less than
    tol: the oracle for ``solve_between``, sharing none of its loop."""
    lo, hi = v.u.values, w.u.values
    u = lo
    for _ in range(1000):
        clamped = np.maximum(np.minimum(np.maximum(u, lo), hi), 0.0)
        nxt = solve_linear(spec.phi,
                           rhs(spec, GridFunction(spec.grid, clamped))).u.values
        if np.max(np.abs(nxt - u)) < tol:
            return nxt
        u = nxt
    raise AssertionError("plain Picard did not reach tol %g" % tol)


def splice(pieces, take_first):
    """Profile that follows pieces[0] where take_first holds, else pieces[1]."""
    u = np.where(take_first, pieces[0].u.values, pieces[1].u.values)
    du = np.where(take_first, pieces[0].du.values, pieces[1].du.values)
    grid = pieces[0].grid
    return SolutionProfile(u=GridFunction(grid, u), du=GridFunction(grid, du),
                           c_star=float(pieces[0].c_star), residual=0.0)


def crossing_pieces(spec):
    """Solved profiles of two indicator forcings, one left and one right;
    they cross once, so a min or max splice of them has one corner."""
    x = spec.grid.nodes
    left = solve_linear(spec.phi, GridFunction(spec.grid,
                                               (x <= 0.35).astype(float)))
    right = solve_linear(spec.phi, GridFunction(spec.grid,
                                                (x >= 0.55).astype(float)))
    diff = left.u.values - right.u.values
    assert np.count_nonzero(diff[:-1] * diff[1:] < 0.0) == 1
    return left, right


def _midpoint(lo, hi):
    """``0.5 * (lo + hi)``, halving each end first where the sum overflows."""
    mid = 0.5 * (lo + hi)
    return np.where(np.isfinite(mid), mid, 0.5 * lo + 0.5 * hi)


def _bisect(below, lo, hi, steps):
    """Halve every lane's bracket ``[lo, hi]`` ``steps`` times.

    ``below(mid)`` maps the lanes' midpoints to a boolean array: True moves
    a lane's lower end up to its midpoint, False moves its upper end down.
    Returns the final ``(lo, hi)``.
    """
    for _ in range(steps):
        mid = _midpoint(lo, hi)
        up = below(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return lo, hi


def _sign_product_odd(fn):
    """The odd extension as it was before the copysign form."""
    def odd(y):
        return np.where(y == 0.0, 0.0, np.sign(y) * fn(np.abs(y)))
    return odd


def _reference_march(spec, s_values, lam=None):
    """The march as it was before the stacked state: u and z stepped
    separately, the crossings noted cell by cell during the march, and
    every bisection step a full RK4 step.  Kept verbatim, with the
    bisection it used, as the oracle the march must reproduce bit for bit
    in U, Z, crossed and blown.  A seventh output holds each crossed lane's
    final bisection bracket in x (NaN elsewhere), inside which the march's
    own crossing must lie.  A closed form goes through the sign-product odd
    extension it had then, so a map the package calls directly is checked
    against it."""
    grid = spec.grid
    x = grid.nodes
    widths = grid.cell_widths
    phi = spec.phi
    mu = spec.mu
    f, g = spec.f, spec.g
    m_c = _cell_means(spec.m.values)
    n_c = _cell_means(spec.n.values)

    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    lanes = s.size
    lam = np.broadcast_to(np.asarray(spec.lam if lam is None else lam,
                                     dtype=float), s.shape)
    u = np.zeros(lanes)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = _sign_product_odd(phi._forward_pos)(s)

    U = np.empty((lanes, grid.count))
    Z = np.empty((lanes, grid.count))
    U[:, 0] = u
    Z[:, 0] = z
    crossed = np.zeros(lanes, dtype=bool)
    x_cross = np.full(lanes, np.nan)
    bracket = np.full((2, lanes), np.nan)
    blown = np.zeros(lanes, dtype=bool)
    # Per lane: the cell in which it first crosses zero, and its state at
    # the start of that cell.
    cross_at = np.zeros(lanes, dtype=int)
    cross_u = np.empty(lanes)
    cross_z = np.empty(lanes)

    # Bound once, outside the public entries: their per-call scalar
    # handling and error state would dominate the per-stage cost on small
    # lane counts, and the loop below already runs under one errstate.
    inv_odd = _odd_inverse_fn(phi, "inf")
    if phi._inverse_pos is not None:
        inv_odd = _sign_product_odd(phi._inverse_pos)

    def derivs(u_, z_, mc, nc):
        up = np.maximum(u_, 0.0)
        du_ = inv_odd(z_)
        dz_ = -(mc * np.asarray(f(up), dtype=float)
                + nc * np.asarray(g(up), dtype=float))
        return du_, dz_

    def rk4(u_, z_, h, mc, nc):
        k1u, k1z = derivs(u_, z_, mc, nc)
        k2u, k2z = derivs(u_ + 0.5 * h * k1u, z_ + 0.5 * h * k1z, mc, nc)
        k3u, k3z = derivs(u_ + 0.5 * h * k2u, z_ + 0.5 * h * k2z, mc, nc)
        k4u, k4z = derivs(u_ + h * k3u, z_ + h * k3z, mc, nc)
        u_new = u_ + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        z_new = z_ + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        return u_new, z_new

    mn = mu * n_c

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(grid.count - 1):
            u1, z1 = rk4(u, z, widths[i], lam * m_c[i], mn[i])
            bad = (~blown) & (~np.isfinite(u1) | ~np.isfinite(z1)
                              | (np.abs(u1) > _BLOWUP_STATE)
                              | (np.abs(z1) > _BLOWUP_FLUX))
            blown = blown | bad

            hits = (~blown) & (~crossed) & (u >= 0.0) & (u1 < 0.0)
            if np.any(hits):
                cross_at[hits] = i
                cross_u[hits] = u[hits]
                cross_z[hits] = z[hits]
                crossed |= hits
            u = np.where(blown, u, u1)
            z = np.where(blown, z, z1)
            U[:, i + 1] = u
            Z[:, i + 1] = z

        idx = np.flatnonzero(crossed)
        if idx.size:
            cell = cross_at[idx]
            h = widths[cell]
            u0, z0 = cross_u[idx], cross_z[idx]
            mc, nc = lam[idx] * m_c[cell], mn[cell]
            t_lo, t_hi = _bisect(
                lambda mid: rk4(u0, z0, mid * h, mc, nc)[0] >= 0.0,
                np.zeros(idx.size), np.ones(idx.size), 45)
            x_cross[idx] = x[cell] + _midpoint(t_lo, t_hi) * h
            bracket[:, idx] = x[cell] + t_lo * h, x[cell] + t_hi * h

    terminal = np.where(crossed, -(grid.b - x_cross), u)
    return terminal, U, Z, crossed, x_cross, blown, bracket


class TestSupersolutionConstruction:
    def test_reference_constants(self):
        res = build_supersolution(reference_spec(lam=0.5))
        assert res.lambda0 == pytest.approx(1.0, rel=1e-9)
        assert res.kappa_lambda == pytest.approx(0.5, rel=1e-9)

    def test_reference_profile_is_parabola(self):
        # Identity flux with forcing kappa (m + n) = 1 gives x (1 - x) / 2.
        res = build_supersolution(reference_spec(lam=0.5))
        x = res.w.grid.nodes
        assert np.allclose(res.w.u.values, 0.5 * x * (1.0 - x), atol=1e-12)
        assert sup_norm(res.w.u) == pytest.approx(0.125, abs=1e-12)

    def test_verifies_as_supersolution(self):
        spec = reference_spec(lam=0.5)
        res = build_supersolution(spec)
        report = verify_supersolution(spec, res.w)
        assert report.passed
        assert report.max_violation <= 1e-6

    def test_lambda_at_or_above_threshold_rejected(self):
        spec = reference_spec(lam=0.5)
        res = build_supersolution(spec)
        with pytest.raises(ConstructionError):
            build_supersolution(with_lambda(spec, 2.0 * res.lambda0))

    def test_norm_shrinks_with_lambda(self):
        spec = reference_spec(lam=0.5)
        norms = [sup_norm(build_supersolution(with_lambda(spec, lam)).w.u)
                 for lam in (0.1, 0.01, 0.001)]
        assert norms[0] > norms[1] > norms[2]


class TestSubsolutionConstruction:
    def test_reference_epsilon_scale(self):
        spec = reference_spec(lam=0.5)
        pair = make_sub_super_pair(spec)
        assert pair.epsilon == pytest.approx(0.01564, rel=2e-2)
        assert pair.lambda0 == pytest.approx(1.0, rel=1e-9)

    def test_pair_is_ordered_and_verified(self):
        spec = reference_spec(lam=0.5)
        pair = make_sub_super_pair(spec)
        assert np.all(pair.sub.u.values <= pair.super.u.values + 1e-12)
        assert verify_subsolution(spec, pair.sub).passed
        assert verify_supersolution(spec, pair.super).passed

    def test_epsilon_stable_under_refinement(self):
        eps_coarse = make_sub_super_pair(reference_spec(n_nodes=257)).epsilon
        eps_fine = make_sub_super_pair(reference_spec(n_nodes=513)).epsilon
        assert eps_fine == pytest.approx(eps_coarse, rel=5e-2)

    def test_subsolution_below_given_upper_profile(self):
        spec = reference_spec(lam=0.5)
        sup = build_supersolution(spec)
        pair = make_sub_super_pair(spec)
        sub = build_subsolution(spec, comparison_constant=0.3, upper=sup.w)
        assert np.all(sub.v.u.values <= sup.w.u.values + 1e-12)
        assert verify_subsolution(spec, sub.v).passed
        assert pair.epsilon > 0.0


class TestVerifiers:
    def test_subsolution_fails_as_supersolution(self):
        spec = reference_spec(lam=0.5)
        pair = make_sub_super_pair(spec)
        report = verify_supersolution(spec, pair.sub)
        assert not report.passed
        assert report.max_violation > 0.0

    def test_negative_boundary_is_a_supersolution_violation(self):
        spec = zero_rhs_spec(65)
        flat = SolutionProfile(
            u=GridFunction(spec.grid, np.full(65, -0.1)),
            du=GridFunction(spec.grid, np.zeros(65)),
            c_star=0.0, residual=0.0)
        report = verify_supersolution(spec, flat)
        assert not report.passed
        assert report.max_violation == pytest.approx(0.1, abs=1e-12)

    # A verifier reads a corner through the difference quotient of its
    # cell: a favorable flux jump there only helps, an unfavorable one fails.
    def test_min_splice_passes_as_supersolution(self):
        spec = zero_rhs_spec()
        left, right = crossing_pieces(spec)
        lower = splice((left, right), left.u.values <= right.u.values)
        assert verify_supersolution(spec, lower).passed

    def test_max_splice_fails_as_supersolution(self):
        spec = zero_rhs_spec()
        left, right = crossing_pieces(spec)
        upper = splice((left, right), left.u.values >= right.u.values)
        assert not verify_supersolution(spec, upper).passed

    def test_max_splice_passes_as_subsolution_under_dominating_rhs(self):
        # With forcing one everywhere, each piece satisfies the subsolution
        # cell inequality and the upward slope jump is the right corner sign.
        spec = constant_rhs_spec()
        left, right = crossing_pieces(spec)
        upper = splice((left, right), left.u.values >= right.u.values)
        assert verify_subsolution(spec, upper).passed


class TestSolveBetween:
    def test_reference_solution(self):
        spec = reference_spec(lam=0.5)
        pair = make_sub_super_pair(spec)
        history = []
        sol = solve_between(spec, pair.sub, pair.super, tol=1e-8,
                            history=history)
        assert len(history) <= 40
        assert sol.residual < 1e-6
        assert sup_norm(sol.u) == pytest.approx(0.0031407, rel=1e-3)
        assert np.all(pair.sub.u.values <= sol.u.values + 1e-9)
        assert np.all(sol.u.values <= pair.super.u.values + 1e-9)

    def test_state_independent_forcing_converges_immediately(self):
        spec = constant_rhs_spec(257)
        fixed = solve_linear(spec.phi, GridFunction(spec.grid,
                                                    np.ones(spec.grid.count)))
        history = []
        sol = solve_between(spec, fixed, fixed, history=history)
        assert len(history) == 1
        assert np.array_equal(sol.u.values, fixed.u.values)

    def test_unordered_pair_rejected(self):
        spec = reference_spec(lam=0.5)
        pair = make_sub_super_pair(spec)
        with pytest.raises(ValueError):
            solve_between(spec, pair.super, pair.sub)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_nonpositive_tol_rejected(self, tol):
        # No gap falls below the first three, so all 200 steps would run and
        # end in a ConvergenceError for an iteration that did converge; every
        # gap falls below inf, so the first solve would come back unconverged.
        spec = constant_rhs_spec(65)
        fixed = solve_linear(spec.phi, GridFunction(spec.grid,
                                                    np.ones(spec.grid.count)))
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_between(spec, fixed, fixed, tol=tol)

    @pytest.mark.parametrize("entry", CATALOG_DESCRIPTORS)
    def test_matches_plain_picard_at_tight_tol(self, entry):
        # The benchmark's sandwich problem at 0.4 lambda0: the mixed
        # iteration at tol 1e-8 against plain Picard run to 1e-13.  Plain
        # Picard needs 12-18 solves to reach tol 1e-8 on these problems.
        template = cubic_spec(entry, lam=1e-9)
        lambda0 = build_supersolution(template).lambda0
        spec = with_lambda(template, 0.4 * lambda0)
        pair = make_sub_super_pair(spec)
        history = []
        sol = solve_between(spec, pair.sub, pair.super, tol=1e-8,
                            history=history)
        reference = plain_picard(spec, pair.sub, pair.super, tol=1e-13)
        assert np.max(np.abs(sol.u.values - reference)) <= 1e-8
        assert len(history) <= 8

    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.4])
    @pytest.mark.parametrize("entry", ["power:1", "power:2", "xlog"])
    def test_converges_with_the_clamp_active(self, entry, lam):
        # f oscillates, so G is not monotone and the clamp binds.  Plain
        # Picard fails to converge on power:2, and mixing without the
        # restart cycles on power:1 and xlog.
        spec = cubic_spec(entry, lam, c0=0.1,
                          f=lambda t: np.sqrt(t) * (1.0 + 0.9 * np.sin(400.0 * t)))
        pair = make_sub_super_pair(spec)
        sol = solve_between(spec, pair.sub, pair.super)
        assert sol.residual < 1e-6
        assert np.all(pair.sub.u.values <= sol.u.values)
        assert np.all(sol.u.values <= pair.super.u.values)


class TestShooting:
    def test_constant_forcing_terminal_closed_form(self):
        # u'' = -1 from slope s gives u(1) = s - 1/2, with an interior
        # zero crossing at x = 2 s when s < 1/2.
        spec = constant_rhs_spec(257)
        high = shoot(spec, 0.8)
        assert not high.crossed
        assert high.terminal == pytest.approx(0.3, abs=1e-9)
        low = shoot(spec, 0.2)
        assert low.crossed
        assert low.terminal == pytest.approx(-0.6, abs=1e-9)

    def test_batched_crossings_match_closed_form(self):
        # One batch whose lanes cross zero at x = 2 s in 24 different
        # cells; RK4 is exact on the quadratic, so every terminal
        # -(1 - 2 s) is limited only by the crossing bisection.
        slopes = np.linspace(0.021, 0.479, 24)
        terminal, _, _, crossed, x_cross, blown = _shoot_batch(
            constant_rhs_spec(129), slopes)
        assert np.all(crossed) and not np.any(blown)
        assert np.unique(np.floor(x_cross * 128.0)).size == slopes.size
        assert np.max(np.abs(terminal + (1.0 - 2.0 * slopes))) <= 1e-9

    def test_crossings_cost_one_bisection_per_march(self):
        # Four inverse calls per RK4 step, one step per cell.  The bracket
        # search that locates every lane's crossing runs once per march and
        # its steps share one first stage, so each costs the three later
        # stages.  Lanes that cross in their first cell start it at u = 0
        # exactly and bisect until the lower end moves, so the search takes
        # under half the 45 halvings it replaced.
        calls = []

        def inverse_pos(z):
            calls.append(1)
            return z

        spec = replace(reference_spec(lam=11.0, n_nodes=129),
                       phi=Homeomorphism("counted-power:1", lambda y: y,
                                         inverse_pos))
        _, _, _, crossed, x_cross, _ = _shoot_batch(
            spec, np.geomspace(1e-10, 100.0, 60))
        cells = spec.grid.count - 1
        assert np.unique(np.floor(x_cross[crossed] * cells)).size > 1
        steps, rest = divmod(len(calls) - (4 * cells + 1), 3)
        assert rest == 0 and 0 < steps <= 20

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_lambda_lanes_match_marches_alone(self, r):
        # Each lambda as its own lanes of one march, against the march of
        # with_lambda at that lambda: the same bits in every output.
        spec = replace(reference_spec(n_nodes=129), phi=make_power(r))
        slopes = np.append(np.geomspace(1e-10, 100.0, 12), 1e13)
        lams = np.array([0.05, 0.5, 11.0, 11.5, 30.0])
        lanes = _shoot_batch(spec, np.tile(slopes, lams.size),
                             np.repeat(lams, slopes.size))
        alone = [_shoot_batch(with_lambda(spec, lam), slopes) for lam in lams]
        for lane_out, alone_out in zip(lanes, zip(*alone)):
            assert np.array_equal(lane_out, np.concatenate(alone_out),
                                  equal_nan=True)
        crossed, blown = lanes[3], lanes[5]
        assert np.any(crossed) and not np.all(crossed) and np.any(blown)

    @pytest.mark.parametrize("case", ["power:1", "power:2", "lanes:power:1",
                                      "lanes:power:2", "constant-rhs",
                                      "sum-powers:3,1.5", "arcsinh"])
    def test_march_matches_reference(self, case):
        # Against the march kept verbatim in _reference_march: U, Z,
        # crossed and blown bit for bit, every crossing inside the final
        # bracket of the reference's 45 halvings, and every other terminal
        # bit for bit.  Each case has crossed lanes; on the reference
        # problem the lanes at slope 1e13, and only they, blow up.
        slopes = np.append(np.geomspace(1e-10, 100.0, 60), 1e13)
        lams = None
        if case == "constant-rhs":
            spec = constant_rhs_spec(129)
            slopes = np.linspace(0.021, 0.479, 24)
        elif case == "sum-powers:3,1.5":
            spec = replace(reference_spec(lam=11.0, n_nodes=33),
                           phi=make_catalog_entry(case))
            slopes = np.array([1e-3, 0.1, 1.0, 10.0])
        elif case == "arcsinh":
            spec = replace(reference_spec(lam=11.0, n_nodes=129),
                           phi=make_catalog_entry(case))
        else:
            spec = replace(reference_spec(n_nodes=129),
                           phi=make_power(float(case[-1])))
            if case.startswith("lanes:"):
                lams = np.repeat([0.05, 0.5, 11.0, 11.5, 30.0], slopes.size)
                slopes = np.tile(slopes, 5)
        new = _shoot_batch(spec, slopes, lams)
        *old, (x_lo, x_hi) = _reference_march(spec, slopes, lams)
        for i, name in ((1, "U"), (2, "Z"), (3, "crossed"), (5, "blown")):
            assert np.array_equal(new[i], old[i]), name
        terminal, crossed, x_cross = new[0], new[3], new[4]
        assert np.all((x_lo <= x_cross) & (x_cross <= x_hi) | ~crossed)
        assert np.array_equal(np.isnan(x_cross), ~crossed)
        assert np.array_equal(terminal, np.where(
            crossed, -(spec.grid.b - x_cross), old[0]))
        assert np.any(new[3])
        if case == "constant-rhs":
            assert np.unique(np.floor(new[4] * 128.0)).size == 24
        elif case != "sum-powers:3,1.5":
            assert np.array_equal(new[5], slopes == 1e13)

    def test_nonpositive_slope_rejected(self):
        with pytest.raises(ValueError):
            shoot(constant_rhs_spec(65), 0.0)

    def test_scan_recovers_the_parabola(self):
        spec = constant_rhs_spec(257)
        found = scan_shooting(spec, s_max=10.0, count=40)
        assert len(found) == 1
        assert sup_norm(found[0].u) == pytest.approx(0.125, rel=1e-6)
        assert found[0].c_star == pytest.approx(0.5, rel=1e-6)

    def test_reference_instance_has_two_positive_solutions(self):
        spec = reference_spec(lam=0.5)
        found = scan_shooting(spec, s_max=100.0, count=60)
        assert len(found) == 2
        norms = sorted(sup_norm(p.u) for p in found)
        assert norms[0] == pytest.approx(0.0031407, rel=1e-3)
        assert norms[1] == pytest.approx(11.5947, rel=1e-3)
        for p in found:
            # The integrated-form defect is a discretization measure; on
            # this 257-node grid the steep upper branch sits near 5e-5.
            assert p.residual < 1e-4
            assert np.all(p.u.values[1:-1] > 0.0)
            assert p.du.values[0] > 0.0 > p.du.values[-1]

    def test_scan_parameters_validated(self):
        with pytest.raises(ValueError):
            scan_shooting(constant_rhs_spec(65), s_max=0.0)
        # An infinite s_max once scanned nothing and returned [].
        with pytest.raises(ValueError, match="finite s_max > 0"):
            scan_shooting(constant_rhs_spec(65), s_max=np.inf)


def _counted_marches(monkeypatch, blank_continued=False):
    """Record the slopes of every ``_shoot_batch`` call; with
    ``blank_continued`` set, every march reports a NaN continued terminal."""
    marches = []
    march = nonlinear._shoot_batch

    def counted(spec, s_values, lam=None):
        marches.append(np.atleast_1d(np.asarray(s_values, dtype=float)))
        out = march(spec, s_values, lam)
        if blank_continued:
            out[1][:, -1] = np.nan
        return out

    monkeypatch.setattr(nonlinear, "_shoot_batch", counted)
    return marches


# The 60 slopes of a scan up to s_max = 100, over twelve decades.
SCAN_SLOPES = np.geomspace(1e-10, 100.0, 60)


class TestBracketRefinement:
    def test_one_lambda_march_budget(self, monkeypatch):
        # One detection march, then the refinement passes of both brackets
        # and one march of the two roots: at most five after the detection,
        # where sixteen-fold narrowing per pass took eight.  No march is
        # wider than the detection's 60 lanes.
        marches = _counted_marches(monkeypatch)
        found = scan_shooting(reference_spec(0.5, 129), s_max=100.0, count=60)
        assert len(found) == 2
        assert len(marches) - 1 <= 5
        assert max(s.size for s in marches) == 60

    @pytest.mark.parametrize("descriptor, lam", [
        ("power:1", 0.3), ("power:1", 2.0), ("power:1", 8.0),
        ("power:2", 0.5), ("sum-powers:3,1.5", 0.5)])
    def test_slopes_match_a_brentq_oracle(self, descriptor, lam):
        # scipy's brentq on the terminal of ``shoot`` in log s, over the
        # two scan slopes either side of each returned slope.
        optimize = pytest.importorskip("scipy.optimize")
        spec = replace(reference_spec(lam, 129),
                       phi=make_catalog_entry(descriptor))
        found = scan_shooting(spec, s_max=100.0, count=60)
        assert found

        def terminal(log_s):
            return shoot(spec, math.exp(log_s)).terminal

        for profile in found:
            s = float(profile.du.values[0])
            i = int(np.searchsorted(SCAN_SLOPES, s))
            assert SCAN_SLOPES[i - 1] < s < SCAN_SLOPES[i]
            root = math.exp(optimize.brentq(
                terminal, math.log(SCAN_SLOPES[i - 1]),
                math.log(SCAN_SLOPES[i]), xtol=1e-14, rtol=1e-15))
            assert abs(s - root) <= 1e-7 * root, (s, root)

    @pytest.mark.parametrize("v_lo, v_hi, blank", [
        (np.inf, np.inf, False), (np.nan, -1.0, False),
        (1.0, -np.inf, False), (np.nan, np.nan, True)])
    def test_non_finite_continued_values_fall_back_to_the_midpoint(
            self, monkeypatch, v_lo, v_hi, blank):
        # The upper-branch bracket of the reference problem at lambda = 0.5.
        # Without finite continued end values the first pass probes the
        # eighths and the cluster graded toward the midpoint, every pass
        # narrows the bracket at least eightfold, and the root confirmed is
        # the one finite values give.  ``blank`` keeps every continued
        # value NaN, so every pass falls back.  (1.0, -inf) would put the
        # regula-falsi estimate at the lower end.
        spec = reference_spec(0.5, 129)
        terminal, U = _shoot_batch(spec, SCAN_SLOPES)[:2]
        i = np.flatnonzero(terminal[:-1] * terminal[1:] < 0.0)[-1]
        ends = np.array([i]), np.array([i + 1])
        defect_tol = 1e-10
        args = (spec, np.array([0.5]), np.array([0]), SCAN_SLOPES[ends[0]],
                SCAN_SLOPES[ends[1]], terminal[ends[0]], terminal[ends[1]])
        s_finite, f_finite, _ = _refine_brackets(
            *args, U[ends[0], -1], U[ends[1], -1], defect_tol, False)

        passes = _counted_marches(monkeypatch, blank)
        s_fall, f_fall, _ = _refine_brackets(
            *args, np.array([v_lo]), np.array([v_hi]), defect_tol, False)

        def midpoint_layout(lo, width):
            return lo + width * np.sort(np.concatenate(
                (_REFINE_EIGHTHS, 0.5 + _REFINE_GRADES)))

        lo, hi = np.log(SCAN_SLOPES[i:i + 2])
        assert np.allclose(np.log(passes[0]), midpoint_layout(lo, hi - lo),
                           rtol=0.0, atol=1e-12)
        # A pass's probes span 3/4 of its bracket about the midpoint, and
        # 3/4 to all of it about another estimate: an eightfold narrowing
        # shrinks the span eightfold in the first case, sixfold at worst.
        spans = [np.ptp(np.log(s)) for s in passes]
        for slopes, wide, narrow in zip(passes[1:], spans, spans[1:]):
            if wide <= 1e-6:
                break
            if blank:
                width = narrow / 0.75
                lo = np.log(slopes[0]) - width / 8.0
                assert np.allclose(np.log(slopes), midpoint_layout(lo, width),
                                   rtol=0.0, atol=1e-12)
            assert narrow <= wide / (8.0 if blank else 6.0) * (1.0 + 1e-6)
        for s, f in ((s_finite, f_finite), (s_fall, f_fall)):
            assert abs(f[0]) <= _CONFIRM * defect_tol
        assert s_fall[0] == pytest.approx(s_finite[0], rel=1e-7)


class TestConvergenceOrder:
    def test_picard_against_shooting_is_second_order(self):
        # Both discretizations converge to the small branch at lambda = 0.5;
        # the sup-norm gap between them shrinks fourfold per grid halving.
        gaps = []
        for n_nodes in (129, 257, 513, 1025):
            spec = reference_spec(lam=0.5, n_nodes=n_nodes)
            pair = make_sub_super_pair(spec)
            picard = solve_between(spec, pair.sub, pair.super, tol=1e-13)
            shot = min(scan_shooting(spec, s_max=100.0, count=60),
                       key=lambda p: sup_norm(p.u))
            gaps.append(float(np.max(np.abs(picard.u.values
                                            - shot.u.values))))
        orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        assert np.all((orders >= 1.8) & (orders <= 2.2)), orders
