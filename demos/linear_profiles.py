"""Solve -phi(u')' = h with zero boundary values for several flux maps.

The solver works in the integrated form phi(u') = c - H(x): it bisects the
flux constant c until the rebuilt profile lands on zero at the right
endpoint.  For the odd power phi(y) = |y|^(r-1) y with constant forcing the
peak has the closed form (r / (r + 1)) (1/2)^((r+1)/r), which makes a handy
sanity row in the table below.
"""

import numpy as np

from phibvp import (Grid, GridFunction, make_catalog_entry, make_power,
                    solve_linear, sup_norm)


def main():
    grid = Grid.uniform(0.0, 1.0, 1025)
    ones = GridFunction(grid, np.ones(grid.count))

    print("constant forcing h = 1 on (0, 1), 1025 nodes")
    print()
    print("%-18s %12s %12s %12s" % ("phi", "sup norm", "exact", "flux c*"))
    for r in (0.5, 1.0, 2.0, 3.0):
        profile = solve_linear(make_power(r), ones)
        exact = (r / (r + 1.0)) * 0.5 ** ((r + 1.0) / r)
        print("%-18s %12.8f %12.8f %12.6f"
              % ("power:%g" % r, sup_norm(profile.u), exact, profile.c_star))

    # The same solver runs unchanged for maps without a closed-form
    # inverse; the inverse is then computed by the certified numeric engine.
    print()
    print("%-18s %12s %12s" % ("phi", "sup norm", "residual"))
    for descriptor in ("sum-powers:3,1.5", "ratio:2,0.5", "xlog", "arcsinh"):
        profile = solve_linear(make_catalog_entry(descriptor), ones)
        print("%-18s %12.8f %12.2e"
              % (descriptor, sup_norm(profile.u), profile.residual))

    # A lopsided forcing moves the peak; the flux constant tracks the
    # accumulated mass at the peak location.
    x = grid.nodes
    lopsided = GridFunction(grid, np.where(x < 0.3, 4.0, 0.1))
    profile = solve_linear(make_power(2.0), lopsided)
    peak_at = float(x[np.argmax(profile.u.values)])
    print()
    print("lopsided forcing (4 on the left third, 0.1 elsewhere):")
    print("  peak %.6f at x = %.4f, flux constant %.6f"
          % (sup_norm(profile.u), peak_at, profile.c_star))


if __name__ == "__main__":
    main()
