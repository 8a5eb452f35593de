"""Certified pointwise bounds for solutions of -phi(u')' = h.

Three bound chains come with every solve of a nonnegative forcing:

  * an envelope sandwich: theta * B * delta(x) <= u(x) <= phi^{-1}(total
    mass) * delta(x), with delta the distance to the boundary and B a
    lower Riemann sum of the smaller one-sided integral of phi^{-1} of the
    mass around the support midpoint of h: equal cells, each read at its
    end nearer the midpoint through the certified inverse, and the sum
    shaved by a relative 1e-12, so B never exceeds the integral;
  * a cone bound: u(x) >= theta * ||u|| * delta(x), which pins the whole
    profile once its peak is known;
  * a comparison constant c with min one-sided integral of
    phi^{-1}(M dH) >= c phi^{-1}(c M) across a grid of scalings M, the
    quantitative engine behind small-parameter existence thresholds.

This script draws a random forcing, prints the margins of each chain, and
shows the comparison constant surviving a tenfold finer re-check.
"""

import numpy as np

from phibvp import (Grid, cone_lower_bound, envelope_bounds,
                    estimate_comparison_constant, make_catalog_entry,
                    random_forcing, solve_linear, sup_norm, support_data,
                    verify_comparison_constant)


def main():
    rng = np.random.default_rng(42)
    grid = Grid.uniform(0.0, 1.0, 513)
    phi = make_catalog_entry("sum-powers:3,1.5")
    h = random_forcing(rng, grid)

    sd = support_data(h)
    print("random forcing: support [%.3f, %.3f], midpoint %.3f, "
          "cone constant %.3f" % (sd.alpha_h, sd.beta_h, sd.theta_bar,
                                  sd.theta_under))

    profile = solve_linear(phi, h)
    lower, upper = envelope_bounds(phi, h)
    gap_low = np.min(profile.u.values - lower.values)
    gap_high = np.min(upper.values - profile.u.values)
    print("solution sup norm %.6f" % sup_norm(profile.u))
    print("envelope margins: lower %.3e, upper %.3e (both must be >= 0)"
          % (gap_low, gap_high))

    print("cone bound holds: %s" % cone_lower_bound(phi, h, slack=1e-10))

    c = estimate_comparison_constant(phi, h)
    fine = np.geomspace(1e-4, 1e4, 331)
    print("comparison constant c = %.6f, fine-grid re-check: %s"
          % (c, verify_comparison_constant(phi, h, c, fine)))

    # The constant is maximal up to the built-in safety shave: pushing it
    # a few percent higher breaks the inequality somewhere on the grid.
    print("c * 1.05 still certified: %s"
          % verify_comparison_constant(phi, h, 1.05 * c, fine))


if __name__ == "__main__":
    main()
