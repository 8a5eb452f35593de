"""Tests of the benchmark's own checks and span arithmetic.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import spans  # noqa: E402

X = np.linspace(0.0, 1.0, 129)


def test_exact_linear_profile_passes_and_a_perturbed_one_fails():
    # -u'' = 1 on (0, 1): u = x (1 - x) / 2, u' = 1/2 - x, H = x, c* = 1/2.
    h = np.ones_like(X)
    u = 0.5 * X * (1.0 - X)
    du = 0.5 - X
    identity = checks.FORWARD["power:1"]
    assert checks.linear_profile(identity, X, h, u, du, 0.5) == []

    bent = du.copy()
    bent[40] += 1e-6
    assert any("flux identity" in p
               for p in checks.linear_profile(identity, X, h, u, bent, 0.5))
    assert checks.linear_profile(identity, X, h, u, du, 0.5 + 1e-6) != []
    lifted = u.copy()
    lifted[-1] = 1e-12
    assert checks.linear_profile(identity, X, h, lifted, du, 0.5) != []


def test_a_shifted_flux_constant_fails_the_integral_check():
    # u' = phi^-1(c - H) for a wrong c satisfies the flux identity for that
    # c, but no longer integrates to 0 over (0, 1).
    h = np.ones_like(X)
    u = 0.5 * X * (1.0 - X)
    identity = checks.FORWARD["power:1"]
    for c in (0.5 + 1e-3, 0.5 - 1e-3):
        shifted = c - X
        assert checks.flux_identity_gap(identity, X, h, shifted, c) <= checks.FLUX_TOL
        assert checks.integral(X, u, shifted) != []
        assert any("integral" in p
                   for p in checks.linear_profile(identity, X, h, u, shifted, c))
    assert checks.integral(X, u, 0.5 - X) == []


def test_flux_identity_uses_the_forward_map():
    # phi = power:2 and -phi(u')' = 1: phi(u') = 1/2 - x, so
    # u = (2/3) ((1/2)^(3/2) - |1/2 - x|^(3/2)).
    h = np.ones_like(X)
    du = np.sign(0.5 - X) * np.sqrt(np.abs(0.5 - X))
    u = (2.0 / 3.0) * (0.5 ** 1.5 - np.abs(0.5 - X) ** 1.5)
    u[[0, -1]] = 0.0
    assert checks.linear_profile(checks.FORWARD["power:2"], X, h, u, du, 0.5) == []
    assert checks.linear_profile(checks.FORWARD["power:1"], X, h, u, du, 0.5) != []


def test_discrete_equation_on_an_exact_solution_and_a_perturbed_one():
    # -u'' = pi^2 u with u = sin(pi x).
    u = np.sin(np.pi * X)
    du = np.pi * np.cos(np.pi * X)
    identity = checks.FORWARD["power:1"]
    hermite = checks.hermite_cell_means(X, u, du, lambda v: np.pi ** 2 * v)
    trapezoid = checks.trapezoid_cell_means(np.pi ** 2 * u)
    assert checks.discrete_equation_gap(identity, X, du, hermite) < 1e-6
    assert (checks.discrete_equation_gap(identity, X, du, trapezoid)
            < checks.PICARD_EQUATION_TOL)

    bent = du.copy()
    bent[64] += 1e-3 * np.max(np.abs(du))
    assert (checks.discrete_equation_gap(identity, X, bent, hermite)
            > checks.SHOOTING_EQUATION_TOL)
    assert (checks.discrete_equation_gap(identity, X, bent, trapezoid)
            > checks.PICARD_EQUATION_TOL)


def test_order_and_exponent_checks():
    u = np.sin(np.pi * X)
    assert checks.ordered(0.5 * u, u, 2.0 * u) == []
    assert checks.ordered(0.5 * u, u, 0.9 * u) != []
    assert checks.exponents("ratio:2,0.5", 1.52, 1.97) == []
    assert checks.exponents("ratio:2,0.5", 1.44, 2.0) != []
    assert checks.exponents("xlog", 0.96, 1.04) == []


def test_self_times_on_a_hand_built_span_tree():
    # item [0, 10] holds sweep [1, 9], which holds lambda_star [2, 8] with
    # two scans [3, 4] and [5, 7]; a second item [10, 12] holds one scan.
    tree = [
        ["item", 0.0, 10.0, -1, 0],
        ["bifurcation.sweep", 1.0, 9.0, 0, 0],
        ["bifurcation.lambda_star", 2.0, 8.0, 1, 0],
        ["nonlinear.scan_shooting", 3.0, 4.0, 2, 0],
        ["nonlinear.scan_shooting", 5.0, 7.0, 2, 0],
        ["item", 10.0, 12.0, -1, 1],
        ["nonlinear.scan_shooting", 10.5, 11.0, 5, 1],
    ]
    assert spans.self_times(tree) == [2.0, 2.0, 3.0, 1.0, 2.0, 1.5, 0.5]
    metrics = spans.layer_metrics(tree, {})
    assert metrics["bench.unattributed_s"] == 3.5
    assert metrics["bifurcation.sweep_s"] == 2.0
    assert metrics["bifurcation.lambda_star_s"] == 3.0
    assert metrics["nonlinear.scan_shooting_s"] == 3.5
    assert metrics["nonlinear.scan_shooting_calls"] == 3
    assert metrics["bifurcation.lambda_star_scans"] == 2
    assert metrics["linear.solve_linear_s"] == 0.0


def test_nested_inverse_entries_count_once():
    tracer = spans.Tracer()
    inner = tracer.wrap(spans.INVERSE, lambda phi, y: y, points_arg=1)
    outer = tracer.wrap(spans.INVERSE, lambda phi, y: inner(phi, y), points_arg=1)
    outer(None, np.zeros(5))
    inner(None, 2.0)
    assert tracer.counts[spans.INVERSE_CALLS] == 2
    assert tracer.counts[spans.INVERSE_POINTS] == 6
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]


def test_instrument_traces_and_restores_the_package():
    import phibvp

    original = phibvp.linear.solve_linear
    grid = phibvp.Grid.uniform(0.0, 1.0, 33)
    h = phibvp.GridFunction(grid, np.ones(33))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        phibvp.cone_lower_bound(phibvp.make_catalog_entry("sum-powers:3,1.5"), h)
    assert phibvp.linear.solve_linear is original
    assert phibvp.nonlinear.solve_linear is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "linear.bound_checks"
    assert names[1] == "linear.solve_linear"
    assert spans.INVERSE in names
    assert tracer.counts[spans.FORWARD_POINTS] > 0
    first = dict(tracer.counts)

    again = spans.Tracer()
    with spans.instrument(again):
        phibvp.cone_lower_bound(phibvp.make_catalog_entry("sum-powers:3,1.5"), h)
    assert dict(again.counts) == first
