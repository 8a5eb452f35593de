"""End-to-end acceptance checks with one printed pass/fail line each.

Each test exercises one guaranteed behavior of the package at its stated
tolerance, prints a single summary line (bypassing capture so the line is
visible in any run mode), and then asserts the individual conditions.
"""

import time

import numpy as np
import pytest

from phibvp import (CATALOG_DESCRIPTORS, FConstants, G1Constants, G2Constants,
                    Grid, GridFunction, HypothesisVerdict, LimitClass,
                    ProblemSpec, build_supersolution, check_delta2,
                    check_phi_conditions, classify_limit, compute_lambda1,
                    cone_lower_bound, corpus, duality_check,
                    envelope_bounds, estimate_comparison_constant,
                    estimate_indices, hypothesis_advisor, lambda_star_bisect,
                    make_catalog_entry, make_power, make_sub_super_pair,
                    monotone_check, pointwise_leq, random_forcing,
                    scan_shooting, solve_between, solve_linear, sup_norm,
                    sup_norm_lower_bound, sweep, verify_comparison_constant,
                    verify_subsolution, verify_supersolution, with_lambda)


@pytest.fixture
def report(capsys):
    """One-line verdict printer that stays visible under output capture."""

    def emit(label, ok, detail):
        line = "%s: %s (%s)" % (label, "PASS" if ok else "FAIL", detail)
        with capsys.disabled():
            print(line, flush=True)
        print(line)

    return emit


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


def test_1_linear_power_oracle(report):
    grid = Grid.uniform(0.0, 1.0, 4097)
    ones = GridFunction(grid, np.ones(4097))
    worst_rel = 0.0
    worst_time = 0.0
    for r in (0.5, 1.0, 2.0, 3.0):
        expected = (r / (r + 1.0)) * 0.5 ** ((r + 1.0) / r)
        start = time.monotonic()
        profile = solve_linear(make_power(r), ones)
        elapsed = time.monotonic() - start
        rel = abs(sup_norm(profile.u) - expected) / expected
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, elapsed)
    ok = worst_rel <= 1e-6 and worst_time < 1.0
    report("acceptance 1, closed-form power peaks", ok,
            "worst rel err %.3g, slowest solve %.3g s" % (worst_rel, worst_time))
    assert worst_rel <= 1e-6
    assert worst_time < 1.0


def test_2_randomized_bound_chains(report):
    cases = corpus(seed=0, count=200, grid_size=257)
    fine_M = np.geomspace(1e-4, 1e4, 331)
    start = time.monotonic()
    failures = []
    for index, (descriptor, phi, h) in enumerate(cases):
        profile = solve_linear(phi, h)
        unorm = sup_norm(profile.u)
        slack = 1e-8 * (1.0 + unorm)
        lower, upper = envelope_bounds(phi, h)
        sandwich = (pointwise_leq(lower, profile.u, slack)
                    and pointwise_leq(profile.u, upper, slack))
        cone = cone_lower_bound(phi, h, slack)
        bracket = 0.5 * sup_norm_lower_bound(phi, h) <= unorm + slack
        c = estimate_comparison_constant(phi, h)
        recheck = c > 0.0 and verify_comparison_constant(phi, h, c, fine_M)
        if not (sandwich and cone and bracket and recheck):
            failures.append((index, descriptor, sandwich, cone, bracket, recheck))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    report("acceptance 2, randomized bound chains", ok,
            "%d/200 cases clean in %.1f s" % (200 - len(failures), elapsed))
    assert failures == []
    assert elapsed < 60.0


def test_3_order_preservation(report):
    rng = np.random.default_rng(1)
    grid = Grid.uniform(0.0, 1.0, 257)
    violations = 0
    for _ in range(100):
        phi = make_catalog_entry(
            CATALOG_DESCRIPTORS[int(rng.integers(0, len(CATALOG_DESCRIPTORS)))])
        h1 = random_forcing(rng, grid)
        bump = random_forcing(rng, grid)
        h2 = GridFunction(grid, h1.values + bump.values)
        if not monotone_check(phi, h1, h2):
            violations += 1
    ok = violations == 0
    report("acceptance 3, order preservation", ok,
            "%d/100 ordered pairs preserved" % (100 - violations))
    assert violations == 0


def test_4_two_branch_structure(report):
    start = time.monotonic()
    coarse = reference_spec(n_nodes=2049)
    fine = reference_spec(n_nodes=4097)

    star_coarse = lambda_star_bisect(coarse, lo=0.1, hi=40.0, tol=1e-4,
                                     s_max=100.0, count=60)
    star_fine = lambda_star_bisect(fine, lo=0.1, hi=40.0, tol=1e-4,
                                   s_max=100.0, count=60)
    star_drift = abs(star_fine - star_coarse) / star_coarse

    lam_grid = [1e-4 * star_coarse, 1e-3 * star_coarse, 1e-2 * star_coarse]
    diagram = sweep(coarse, lam_grid, s_max=100.0, count=60)
    counts = [len(p.solutions) for p in diagram.points]
    two_solutions = counts[1] == 2 and counts[2] == 2
    none_above = scan_shooting(with_lambda(coarse, 2.0 * star_coarse),
                               s_max=100.0, count=60) == []

    lower = [min(s.sup_norm for s in p.solutions) for p in diagram.points]
    upper = [max(s.sup_norm for s in p.solutions) for p in diagram.points]
    lower_decreasing = lower[0] < lower[1] < lower[2]
    lower_small = lower[0] < 1e-2

    lambda1, rho = compute_lambda1(coarse, R=4.0)
    swept_below = [u for lam, u in zip(lam_grid, upper) if lam < lambda1]
    upper_exceeds_rho = all(u > rho for u in swept_below) and swept_below

    elapsed = time.monotonic() - start
    ok = (two_solutions and none_above and lower_decreasing and lower_small
          and bool(upper_exceeds_rho) and star_drift <= 1e-3
          and elapsed < 300.0)
    report("acceptance 4, fold structure of the branch diagram", ok,
            "threshold %.4f, drift %.2e, counts %s, %.0f s"
            % (star_coarse, star_drift, counts, elapsed))
    assert two_solutions
    assert none_above
    assert lower_decreasing
    assert lower_small
    assert upper_exceeds_rho
    assert star_drift <= 1e-3
    assert elapsed < 300.0


def test_5_small_lambda_sandwich(report):
    spec_half = reference_spec(lam=0.5, n_nodes=257)
    pair = make_sub_super_pair(spec_half)
    sub_report = verify_subsolution(spec_half, pair.sub)
    sup_report = verify_supersolution(spec_half, pair.super)
    ordered = bool(np.all(pair.sub.u.values <= pair.super.u.values + 1e-12))

    history = []
    solution = solve_between(spec_half, pair.sub, pair.super, tol=1e-8,
                             history=history)
    sandwiched = (np.all(pair.sub.u.values <= solution.u.values + 1e-9)
                  and np.all(solution.u.values <= pair.super.u.values + 1e-9))

    lam0 = pair.lambda0
    norms = [sup_norm(build_supersolution(
        with_lambda(spec_half, lam0 * 10.0 ** (-k))).w.u)
        for k in range(1, 7)]
    decade_drops = [norms[i] / norms[i + 1] for i in range(5)]
    shrinks = all(ratio >= 10.0 * (1.0 - 1e-9) for ratio in decade_drops)

    ok = (sub_report.passed and sup_report.passed
          and sub_report.max_violation <= 1e-6
          and sup_report.max_violation <= 1e-6
          and ordered and len(history) <= 200 and solution.residual < 1e-6
          and bool(sandwiched) and shrinks)
    report("acceptance 5, certified sandwich at small lambda", ok,
            "violations %.2g/%.2g, %d iterations, residual %.2g, "
            "min decade drop %.3f"
            % (sub_report.max_violation, sup_report.max_violation,
               len(history), solution.residual, min(decade_drops)))
    assert sub_report.passed and sub_report.max_violation <= 1e-6
    assert sup_report.passed and sup_report.max_violation <= 1e-6
    assert ordered
    assert len(history) <= 200
    assert solution.residual < 1e-6
    assert sandwiched
    assert shrinks


def test_6_growth_index_battery(report):
    start = time.monotonic()
    entries = {d: make_catalog_entry(d) for d in CATALOG_DESCRIPTORS}
    estimates = {d: estimate_indices(phi) for d, phi in entries.items()}

    index_errors = {}
    for r in (0.5, 2.0, 3.0):
        est = estimate_indices(make_power(r))
        index_errors["power:%g" % r] = max(abs(est.alpha_hat - r),
                                           abs(est.beta_hat - r))
    targets = {"sum-powers:3,1.5": (1.5, 3.0), "ratio:2,0.5": (1.5, 2.0)}
    for d, (a, b) in targets.items():
        est = estimates[d]
        index_errors[d] = max(abs(est.alpha_hat - a), abs(est.beta_hat - b))
    log_est = estimates["logpow:2"]
    index_errors["logpow:2"] = max(log_est.alpha_hat,
                                   abs(log_est.beta_hat - 2.0))
    targets_ok = all(err <= 0.05 for err in index_errors.values())

    duality_ok = all(duality_check(phi).passed for phi in entries.values())

    doubling_ok = all(
        check_delta2(phi).holds == bool(np.isfinite(estimates[d].beta_hat))
        for d, phi in entries.items())

    pinned = {d for d, est in estimates.items()
              if est.alpha_hat > 0.0 and np.isfinite(est.beta_hat)}
    flat_entries = {"logpow:2", "arcsinh", "loglog"}
    conditions_ok = all(
        check_phi_conditions(entries[d], estimate=estimates[d]).phi_cond
        == (d in pinned)
        for d in entries) and not (pinned & flat_entries)

    elapsed = time.monotonic() - start
    ok = (targets_ok and duality_ok and doubling_ok and conditions_ok
          and elapsed < 120.0)
    report("acceptance 6, growth index battery", ok,
            "worst exponent error %.3f, %.1f s"
            % (max(index_errors.values()), elapsed))
    assert targets_ok, index_errors
    assert duality_ok
    assert doubling_ok
    assert conditions_ok
    assert elapsed < 120.0


def test_7_limit_classification(report):
    entries = {d: make_catalog_entry(d) for d in CATALOG_DESCRIPTORS}
    mismatches = []
    for d, phi in entries.items():
        est = estimate_indices(phi)
        if est.alpha_hat > 0.0:
            got = classify_limit(phi, 0.5 * est.alpha_hat, "zero_plus")
            if got is not LimitClass.INFINITE:
                mismatches.append((d, "zero_plus", got))
        if np.isfinite(est.beta_hat):
            got = classify_limit(phi, 2.0 * est.beta_hat, "infinity")
            if got is not LimitClass.INFINITE:
                mismatches.append((d, "infinity", got))

    boundary_est = estimate_indices(entries["logpow:2"])
    advisor = hypothesis_advisor(entries["logpow:2"], q=1.0, r1=3.0,
                                 r2=boundary_est.beta_hat)
    boundary_has_verdict = advisor.g2_verdict in (
        HypothesisVerdict.HOLDS_BY_LIMIT_CHECK,
        HypothesisVerdict.FAILS_BY_LIMIT_CHECK,
        HypothesisVerdict.UNDECIDED)
    no_index_claim = advisor.g2_verdict is not HypothesisVerdict.HOLDS_BY_INDEX

    ok = not mismatches and boundary_has_verdict and no_index_claim
    report("acceptance 7, limit classification against fitted exponents", ok,
            "%d mismatches, boundary verdict %s"
            % (len(mismatches), advisor.g2_verdict.name))
    assert mismatches == []
    assert boundary_has_verdict
    assert no_index_claim
