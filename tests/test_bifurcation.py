import math
from dataclasses import replace

import numpy as np
import pytest

from phibvp import (ConstructionError, FConstants, G1Constants, G2Constants,
                    Grid, GridFunction, ProblemSpec, SolutionProfile,
                    check_cone_membership, compute_lambda1,
                    lambda_star_bisect, make_power, scan_shooting,
                    solve_linear, sup_norm, sweep, with_lambda)
from phibvp import bifurcation, nonlinear
from phibvp.bifurcation import _existence, _next_midpoint
from phibvp.nonlinear import _scan

LAMBDA_STAR = 11.398896
# Both sides of the fold, and within 6e-4 of it.
EXISTENCE_LAMBDAS = np.concatenate([
    np.geomspace(0.05, 30.0, 12),
    LAMBDA_STAR * np.linspace(1.0 - 6e-4, 1.0 + 1e-4, 12)])
# A branch_diagram-style sweep: one lambda below lambda0, then a bracket
# of the fold 3e-3 of it wide, with the fold at 0.4 of the bracket.
FOLD_WIDTH = 3e-3 * LAMBDA_STAR
FOLD_SWEEP = [0.5, LAMBDA_STAR - 0.4 * FOLD_WIDTH,
              LAMBDA_STAR + 0.6 * FOLD_WIDTH]


def reference_spec(lam=0.5, n_nodes=257):
    g = Grid.uniform(0.0, 1.0, n_nodes)
    ones = GridFunction(g, np.ones(n_nodes))
    return ProblemSpec(
        grid=g, phi=make_power(1.0), m=ones, n=ones, lam=lam, mu=1.0,
        f=lambda t: np.sqrt(t), g=lambda t: t ** 2,
        f_constants=FConstants(1.0, 1.0, 0.5),
        g1_constants=G1Constants(1.0, 1.0, 2.0),
        g2_constants=G2Constants(1.0, 1.0, 2.0),
    )


class TestConeMembership:
    def test_parabola_lies_in_the_full_support_cone(self):
        g = Grid.uniform(0.0, 1.0, 257)
        ones = GridFunction(g, np.ones(257))
        profile = solve_linear(make_power(1.0), ones)
        assert check_cone_membership(profile, ones)

    def test_quartic_bump_leaves_the_cone(self):
        # x^2 (1 - x)^2 vanishes quadratically at the boundary, so no
        # linear tent scaled by its peak can stay below it.
        g = Grid.uniform(0.0, 1.0, 257)
        x = g.nodes
        profile = SolutionProfile(
            u=GridFunction(g, x ** 2 * (1.0 - x) ** 2),
            du=GridFunction(g, 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)),
            c_star=0.0, residual=0.0)
        assert not check_cone_membership(profile,
                                         GridFunction(g, np.ones(257)))


class TestLambda1:
    def test_reference_threshold_closed_form(self):
        # With unit envelope constants and the interval halved to 1/2, the
        # margin condition gives t_under = 2, rho = 1/2, and
        # lambda1 = (phi(1) - 1/4) / max f on [0, 4] = 0.375.
        lambda1, rho = compute_lambda1(reference_spec(), R=4.0)
        assert rho == pytest.approx(0.5, rel=1e-12)
        assert lambda1 == pytest.approx(0.375, rel=1e-12)

    def test_oversized_norm_cap_warns(self):
        with pytest.warns(UserWarning):
            compute_lambda1(reference_spec(), R=1e6)

    def test_envelopes_required(self):
        spec = reference_spec()
        bare = ProblemSpec(grid=spec.grid, phi=spec.phi, m=spec.m, n=spec.n,
                           lam=spec.lam, mu=spec.mu, f=spec.f, g=spec.g)
        with pytest.raises(ConstructionError):
            compute_lambda1(bare, R=4.0)

    def test_dominant_g_term_is_named(self):
        # mu t^2 outgrows phi(2 t) = 2 t already at t = 1e-12.
        spec = replace(reference_spec(n_nodes=65), mu=1e30)
        with pytest.raises(ConstructionError, match="g-term"):
            compute_lambda1(spec, R=0.5)


class TestLambdaStarBisect:
    def test_bad_bracket_orientation_rejected(self):
        with pytest.raises(ValueError):
            lambda_star_bisect(reference_spec(), lo=2.0, hi=1.0)

    def test_lower_end_must_carry_a_solution(self):
        with pytest.raises(ValueError, match="lower bracket end"):
            lambda_star_bisect(reference_spec(n_nodes=129), lo=20.0, hi=30.0,
                               s_max=100.0, count=40)

    def test_upper_end_must_be_past_the_fold(self):
        with pytest.raises(ValueError, match="upper bracket end"):
            lambda_star_bisect(reference_spec(n_nodes=129), lo=0.5, hi=2.0,
                               s_max=100.0, count=40)

    def test_locates_the_fold(self):
        estimate = lambda_star_bisect(reference_spec(n_nodes=129), lo=8.0,
                                      hi=25.0, tol=1e-2, s_max=100.0,
                                      count=60)
        assert 10.5 < estimate < 12.5


@pytest.fixture(scope="module")
def batched_existence():
    """One existence call with every lambda of EXISTENCE_LAMBDAS as lanes."""
    found = _existence(reference_spec(n_nodes=129), EXISTENCE_LAMBDAS,
                       100.0, 60)
    return dict(zip(EXISTENCE_LAMBDAS, found))


class TestExistence:
    # The existence check stops each lambda at its first confirmed
    # bracketed root; it must still agree with the full scan.
    @pytest.mark.parametrize("lam", EXISTENCE_LAMBDAS)
    def test_matches_the_full_scan(self, lam, batched_existence):
        spec = reference_spec(n_nodes=129)
        full = scan_shooting(with_lambda(spec, lam), s_max=100.0, count=60)
        assert batched_existence[lam] == bool(full)


class TestSweep:
    def test_two_branches_below_the_fold(self):
        diagram = sweep(reference_spec(n_nodes=129), [0.05, 0.5],
                        s_max=100.0, count=60)
        assert len(diagram.points) == 2
        assert [p.lam for p in diagram.points] == [0.05, 0.5]
        for point in diagram.points:
            assert len(point.solutions) == 2
            norms = sorted(s.sup_norm for s in point.solutions)
            assert norms[0] < 0.01
            assert norms[1] > 10.0
            assert all(s.in_cone for s in point.solutions)
            assert all(s.initial_slope > 0.0 for s in point.solutions)
        assert math.isnan(diagram.lambda_star_estimate)

    def test_lower_branch_norm_grows_with_lambda(self):
        diagram = sweep(reference_spec(n_nodes=129), [0.05, 0.2, 0.5],
                        s_max=100.0, count=60)
        lower = [min(s.sup_norm for s in p.solutions)
                 for p in diagram.points]
        assert lower[0] < lower[1] < lower[2]

    def test_fold_estimated_when_the_grid_crosses_it(self):
        diagram = sweep(reference_spec(n_nodes=129), [8.0, 25.0],
                        s_max=100.0, count=60)
        assert len(diagram.points[0].solutions) == 2
        assert len(diagram.points[1].solutions) == 0
        assert 10.5 < diagram.lambda_star_estimate < 12.5

    def test_empty_or_nonpositive_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(reference_spec(n_nodes=129), [], s_max=10.0)
        with pytest.raises(ValueError):
            sweep(reference_spec(n_nodes=129), [0.0, 1.0], s_max=10.0)

    def test_infinite_s_max_rejected(self):
        # It once read as no solution at every lambda.
        with pytest.raises(ValueError, match="finite s_max > 0"):
            sweep(reference_spec(n_nodes=129), [1.0, 8.0], s_max=math.inf)


def exists_alone(spec, lam, count=60):
    """Existence at one lambda, from a scan of that lambda alone."""
    return bool(_scan(spec, [lam], 100.0, count, stop_at_first=True)[0])


def sequential_fold(spec, lo, hi, tol):
    """The fold bisection one midpoint at a time, with its spot checks."""
    while hi - lo > tol * lo:
        mid = 0.5 * (lo + hi)
        if exists_alone(spec, mid):
            lo = mid
        else:
            hi = mid
    estimate = 0.5 * (lo + hi)
    for frac in (0.7, 0.3, 0.1, 0.03, 0.01):
        lam = estimate * frac
        assert exists_alone(spec, lam) or exists_alone(spec, lam, 240)
    return estimate


def solutions_alone(spec, lam, count=60):
    """The branch solutions at one lambda, from a scan of it alone."""
    found = scan_shooting(with_lambda(spec, lam), s_max=100.0, count=count)
    return tuple((sup_norm(p.u), float(p.du.values[0]),
                  check_cone_membership(p, spec.n)) for p in found)


def sequential_sweep(spec, lams):
    """(lambda, solutions) per point and the fold, from one-lambda scans."""
    points = [(lam, solutions_alone(spec, lam)) for lam in lams]
    counts = [len(sols) for _, sols in points]
    nonempty = [i for i, c in enumerate(counts) if c > 0]
    estimate = math.nan
    if nonempty and nonempty[-1] + 1 < len(points):
        i = nonempty[-1]
        estimate = sequential_fold(spec, lams[i], lams[i + 1], 1e-3)
    return points, estimate


class TestBatchedFold:
    # Lambda lanes change no result: every diagram and estimate is the one
    # the one-lambda-at-a-time scans and bisection give.
    @pytest.mark.parametrize("lams", [[0.05, 0.5], [0.05, 0.2, 0.5],
                                      [8.0, 25.0], FOLD_SWEEP],
                             ids=["below", "three-below", "across", "bracket"])
    def test_sweep_matches_one_lambda_scans(self, lams):
        spec = reference_spec(n_nodes=129)
        diagram = sweep(spec, lams, s_max=100.0, count=60)
        points, estimate = sequential_sweep(spec, lams)
        assert [(p.lam, p.solutions) for p in diagram.points] == points
        if math.isnan(estimate):
            assert math.isnan(diagram.lambda_star_estimate)
        else:
            assert diagram.lambda_star_estimate == estimate

    @pytest.mark.parametrize("lo, hi, tol", [(8.0, 25.0, 1e-2),
                                             (*FOLD_SWEEP[1:], 1e-3)],
                             ids=["wide", "bracket"])
    def test_bisection_matches_one_lambda_scans(self, lo, hi, tol):
        spec = reference_spec(n_nodes=129)
        assert exists_alone(spec, lo) and not exists_alone(spec, hi)
        assert (lambda_star_bisect(spec, lo, hi, tol=tol, s_max=100.0,
                                   count=60)
                == sequential_fold(spec, lo, hi, tol))

    def test_fold_sweep_march_budget(self, monkeypatch):
        # Three lambda lanes per scan march, one pass for both bisection
        # steps, one batched call for the spot checks, and refinement
        # passes graded toward a regula-falsi estimate: at most 16 marches,
        # where sixteen-fold narrowing per pass took 20 and one lambda at a
        # time 57 to 60.
        calls = []
        march = nonlinear._shoot_batch

        def counted(*args):
            calls.append(1)
            return march(*args)

        monkeypatch.setattr(nonlinear, "_shoot_batch", counted)
        diagram = sweep(reference_spec(n_nodes=129), FOLD_SWEEP, s_max=100.0,
                        count=60)
        assert [len(p.solutions) for p in diagram.points] == [2, 2, 0]
        assert len(calls) <= 16

    def test_interior_gaps_are_retried_together(self, monkeypatch):
        # Hide every solution of the 60-slope scan at the middle lambdas:
        # one retry scan with 240 slopes takes them all, and a lambda it
        # still misses warns.
        scans = []
        scan = bifurcation._scan

        def hiding(spec, lams, s_max, count, stop_at_first=False):
            found = scan(spec, lams, s_max, count, stop_at_first)
            scans.append((list(lams), count))
            if count == 60:
                return [[] if lam in (0.2, 0.3) else sols
                        for lam, sols in zip(lams, found)]
            return [[] if lam == 0.3 else sols for lam, sols in zip(lams, found)]

        monkeypatch.setattr(bifurcation, "_scan", hiding)
        spec = reference_spec(n_nodes=129)
        with pytest.warns(UserWarning, match="lambda = 0.3 "):
            diagram = sweep(spec, [0.05, 0.2, 0.3, 0.5], s_max=100.0,
                            count=60)
        assert scans == [([0.05, 0.2, 0.3, 0.5], 60), ([0.2, 0.3], 240)]
        assert [len(p.solutions) for p in diagram.points] == [2, 2, 0, 2]
        assert diagram.points[1].solutions == solutions_alone(spec, 0.2, 240)


class TestBisectionTolerance:
    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
    def test_nonpositive_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            lambda_star_bisect(reference_spec(n_nodes=129), lo=8.0, hi=25.0,
                               tol=tol)

    def test_midpoint_rounding_onto_an_end_stops(self):
        # Once the bracket is one ulp wide its midpoint rounds onto lo.
        assert 0.5 * (1.0 + (1.0 + 2.0 ** -52)) == 1.0
        assert _next_midpoint(1.0, 1.0 + 2.0 ** -52, 1e-300) is None
        assert _next_midpoint(1.0, 1.0 + 2.0 ** -51, 1e-300) \
            == 1.0 + 2.0 ** -52

    def test_tolerance_below_one_ulp_terminates(self):
        lo, hi = FOLD_SWEEP[1:]
        estimate = lambda_star_bisect(reference_spec(n_nodes=129), lo, hi,
                                      tol=1e-20, s_max=100.0, count=60)
        assert lo < estimate < hi


# The fold of the reference problem by the time map, at 25 digits.
TIME_MAP_LAMBDA_STAR = 11.645220247731


class TimeMap:
    """Laetsch's time map (Indiana Univ. Math. J. 20, 1970) of the reference
    problem, which shares no code with the package.

    With F(u) = (2/3) lam u^(3/2) + u^3 / 3, the primitive of
    lam sqrt(u) + u^2, a positive solution of height rho exists exactly when
    T(rho) = integral over (0, rho) of du / sqrt(2 (F(rho) - F(u))) is 1/2,
    half the interval.  The substitution u = rho (1 - s^2) removes the
    endpoint singularity.  T vanishes at both ends of (0, inf), so below
    the fold it crosses 1/2 once either side of its maximum.
    """

    def __init__(self):
        scipy = pytest.importorskip("scipy")
        import scipy.integrate
        import scipy.optimize
        self.quad = scipy.integrate.quad
        self.opt = scipy.optimize

    def period(self, rho, lam):
        def primitive(u):
            return (2.0 / 3.0) * lam * u ** 1.5 + u ** 3 / 3.0

        def integrand(s):
            drop = primitive(rho) - primitive(rho * (1.0 - s * s))
            return 2.0 * rho * s / math.sqrt(2.0 * drop)

        return self.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13,
                         limit=200)[0]

    def heights(self, lam):
        """The two heights rho with T(rho) = 1/2 at a lambda below the fold."""
        top = self.opt.minimize_scalar(
            lambda rho: -self.period(rho, lam), bounds=(1e-3, 20.0),
            method="bounded", options={"xatol": 1e-10}).x
        return [self.opt.brentq(lambda rho: self.period(rho, lam) - 0.5,
                                a, b, xtol=1e-15, rtol=1e-15)
                for a, b in ((1e-8, top), (top, 1e3))]

    def lambda_star(self):
        """The largest lambda at which some height solves T = 1/2."""
        def lam_of(rho):
            return self.opt.brentq(lambda lam: self.period(rho, lam) - 0.5,
                                   1e-3, 100.0, xtol=1e-15, rtol=1e-15)

        return -self.opt.minimize_scalar(
            lambda rho: -lam_of(rho), bounds=(1.0, 10.0), method="bounded",
            options={"xatol": 1e-8}).fun


class TestTimeMapOracle:
    @pytest.mark.parametrize("lam", [2.0, 5.0, 10.0])
    def test_scan_finds_both_time_map_heights(self, lam):
        heights = TimeMap().heights(lam)
        found = scan_shooting(reference_spec(lam=lam, n_nodes=1025),
                              s_max=100.0)
        assert len(found) == 2
        norms = [sup_norm(p.u) for p in found]
        assert np.allclose(norms, heights, rtol=1e-7, atol=0.0)

    def test_time_map_fold(self):
        assert TimeMap().lambda_star() == pytest.approx(TIME_MAP_LAMBDA_STAR,
                                                        rel=1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "the 60-slope scan misses the narrow window of positive terminals "
        "just below the fold, so the bisection stops near 11.3987"))
    def test_fold_bisection_meets_the_time_map(self):
        estimate = lambda_star_bisect(reference_spec(n_nodes=257), lo=8.0,
                                      hi=25.0, tol=1e-4, s_max=100.0)
        assert estimate == pytest.approx(TIME_MAP_LAMBDA_STAR, rel=1e-3)
