import math
from dataclasses import replace

import numpy as np
import pytest

from phibvp import (ConstructionError, FConstants, G1Constants, G2Constants,
                    Grid, GridFunction, ProblemSpec, SolutionProfile,
                    check_cone_membership, compute_lambda1,
                    lambda_star_bisect, make_power, solve_linear, sweep)


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


def state_free_spec(n_nodes=129):
    g = Grid.uniform(0.0, 1.0, n_nodes)
    ones = GridFunction(g, np.ones(n_nodes))
    return ProblemSpec(
        grid=g, phi=make_power(1.0), m=ones, n=ones, lam=1.0, mu=1.0,
        f=lambda t: np.ones_like(t), g=lambda t: np.zeros_like(t))


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

    def test_thread_pool_matches_serial(self, monkeypatch):
        spec = state_free_spec()
        lams = [0.5, 1.0, 2.0]
        serial = sweep(spec, lams, s_max=10.0, count=30)
        monkeypatch.setenv("PHI_BVP_THREADS", "0")
        pooled = sweep(spec, lams, s_max=10.0, count=30)
        assert serial.points == pooled.points
