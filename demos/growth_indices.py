"""Growth diagnostics for the catalog of odd increasing homeomorphisms.

For each map phi the script fits lower and upper growth exponents from
log-log slopes of the quotient M(t) = sup_{x>0} phi(tx)/phi(x), checks
the doubling property phi(2t) <= k phi(t), tries to certify a two-sided
power sandwich on phi and its difference quotient, and cross-checks the
fitted exponents against the conjugate map.  A final section shows how the
limit classifier turns those indices into verdicts for hypothesis-style
ratio conditions.
"""

import numpy as np

from phibvp import (CATALOG_DESCRIPTORS, Homeomorphism, check_delta2,
                    check_phi_conditions, classify_limit, duality_check,
                    estimate_indices, hypothesis_advisor, make_catalog_entry)


def main():
    entries = [make_catalog_entry(d) for d in CATALOG_DESCRIPTORS]
    estimates = {e.label: estimate_indices(e) for e in entries}

    print("%-16s %8s %8s %10s %10s %10s" % ("phi", "alpha", "beta",
                                            "doubling", "sandwich",
                                            "dual resid"))
    for entry in entries:
        est = estimates[entry.label]
        d2 = check_delta2(entry)
        cond = check_phi_conditions(entry, estimate=est)
        dual = duality_check(entry)
        print("%-16s %8.3f %8.3f %10s %10s %10.4f"
              % (entry.label, est.alpha_hat, est.beta_hat,
                 "k=%.2f" % d2.k_hat if d2.holds else "fails",
                 "yes" if cond.phi_cond else "no",
                 max(dual.alpha_residual, dual.beta_residual)))

    print()
    print("Every catalog map is of power type, so doubling holds throughout;")
    print("the sandwich certificate additionally needs a positive lower index.")
    print("An exponential-type map fails the doubling gate:")
    expm1 = Homeomorphism("expm1", np.expm1, np.log1p)
    d2 = check_delta2(expm1)
    est = estimate_indices(expm1)
    print("  %-14s alpha %.3f, beta %s, doubling holds: %s"
          % (expm1.label, est.alpha_hat, est.beta_hat, d2.holds))

    # Limit classification: does t^q/phi(t) vanish, converge, or blow up?
    entry = dict((e.label, e) for e in entries)["logpow:2"]
    print()
    print("limit classifier on %s (alpha=0, beta=2):" % entry.label)
    for q, end in ((1.0, "zero_plus"), (3.0, "infinity"), (1.0, "infinity")):
        verdict = classify_limit(entry, q, end)
        print("  t^%.1f / phi(t) as t -> %-9s : %s" % (q, end, verdict.value))

    # The advisor combines both tools: index margins decide when they can,
    # the classifier breaks ties at the boundary, and a genuinely ambiguous
    # case is reported rather than guessed.
    print()
    est = estimates[entry.label]
    report = hypothesis_advisor(entry, q=1.0, r1=3.0, r2=est.beta_hat)
    for name in ("f", "g1", "g2"):
        verdict = getattr(report, name + "_verdict")
        print("  hypothesis %-2s : %s" % (name, verdict.value))


if __name__ == "__main__":
    main()
