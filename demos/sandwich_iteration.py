"""Existence by barriers: build a subsolution/supersolution pair, iterate.

The model problem couples a concave term and a convex term,

    -phi(u')' = lambda m(x) sqrt(u) + n(x) u^2,  u(0) = u(1) = 0,

here with phi the identity and unit weights.  For lambda below an explicit
threshold lambda0 the package constructs a supersolution w (a solve against
a constant forcing, scaled so both nonlinear terms stay under it) and a
subsolution v (a scaled solve against m delta^q, shrunk until it passes its
verifier and slips under w).  A clamped fixed-point iteration started at v
then converges to a solution between the barriers.  After a first Picard
step, each step mixes the last two solves (depth-1 Anderson mixing), so the
iterates need not climb monotonically; when the gap between a solve and the
point it was solved at fails to fall, the step is plain Picard and the
mixing starts afresh.  The iteration stops when that gap falls below the
absolute tolerance, and the returned profile is always a linear solve.
"""

import numpy as np

from phibvp import (FConstants, G1Constants, G2Constants, Grid, GridFunction,
                    ProblemSpec, make_power, make_sub_super_pair,
                    solve_between, sup_norm, verify_subsolution,
                    verify_supersolution)


def build_problem(lam, n_nodes=257):
    grid = Grid.uniform(0.0, 1.0, n_nodes)
    ones = GridFunction(grid, np.ones(n_nodes))
    return ProblemSpec(
        grid=grid, phi=make_power(1.0), m=ones, n=ones, lam=lam, mu=1.0,
        f=lambda t: np.sqrt(t), g=lambda t: t ** 2,
        f_constants=FConstants(1.0, 1.0, 0.5),
        g1_constants=G1Constants(1.0, 1.0, 2.0),
        g2_constants=G2Constants(1.0, 1.0, 2.0),
    )


def main():
    spec = build_problem(lam=0.5)
    pair = make_sub_super_pair(spec)

    print("threshold lambda0 = %.6f, running at lambda = %.3f"
          % (pair.lambda0, spec.lam))
    print("supersolution sup norm %.6f (scale kappa = %.4f)"
          % (sup_norm(pair.super.u), pair.kappa_lambda))
    print("subsolution   sup norm %.6f (scale epsilon = %.5f)"
          % (sup_norm(pair.sub.u), pair.epsilon))
    print("verifier margins: sub %.2e, super %.2e"
          % (verify_subsolution(spec, pair.sub).max_violation,
             verify_supersolution(spec, pair.super).max_violation))

    history = []
    solution = solve_between(spec, pair.sub, pair.super, tol=1e-8,
                             history=history)

    print()
    print("Solves of the mixed iteration (sup norms):")
    for i, norm in enumerate(history, start=1):
        marker = "  <- converged" if i == len(history) else ""
        if i <= 6 or i == len(history):
            print("  %3d  %.8f%s" % (i, norm, marker))
        elif i == 7:
            print("  ...")
    print("solution sup norm %.8f, residual %.2e, %d iterations"
          % (sup_norm(solution.u), solution.residual, len(history)))

    inside = (np.all(pair.sub.u.values <= solution.u.values + 1e-12)
              and np.all(solution.u.values <= pair.super.u.values + 1e-12))
    print("solution between the barriers: %s" % inside)

    # The barriers shrink with lambda, squeezing the solution toward zero.
    print()
    print("%10s %14s" % ("lambda", "solution sup"))
    for lam in (0.5, 0.05, 0.005):
        spec_lam = build_problem(lam)
        pair_lam = make_sub_super_pair(spec_lam)
        sol = solve_between(spec_lam, pair_lam.sub, pair_lam.super, tol=1e-10)
        print("%10.3f %14.3e" % (lam, sup_norm(sol.u)))


if __name__ == "__main__":
    main()
