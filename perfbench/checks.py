"""Output checks that do not trust the solver.

Every function here uses numpy and the benchmark's own formulas only: the
catalog maps are re-derived from their definitions, cumulative integrals
are the benchmark's own trapezoid sums, and each check either compares a
profile with the equation it must satisfy or tests a property the method
is proven to have.  Each returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import numpy as np


def _odd(positive_branch):
    def forward(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(y == 0.0, 0.0, np.sign(y) * positive_branch(np.abs(y)))
    return forward


# The forward maps of the catalog, written from their definitions.
FORWARD = {
    "power:1": _odd(lambda y: y),
    "power:2": _odd(lambda y: y ** 2),
    "sum-powers:3,1.5": _odd(lambda y: y ** 3 + y ** 1.5),
    "ratio:2,0.5": _odd(lambda y: y ** 2 / (1.0 + y ** 0.5)),
    "xlog": _odd(lambda y: y * (np.abs(np.log(y)) + 1.0)),
    "x-log1p": _odd(lambda y: y - np.log1p(y)),
    "logpow:2": _odd(lambda y: np.log1p(y) ** 2),
    "arcsinh": _odd(np.arcsinh),
    "loglog": _odd(lambda y: np.log1p(np.log1p(y))),
}

# Growth exponents (alpha, beta) known in closed form.
EXPONENTS = {
    "power:2": (2.0, 2.0),
    "sum-powers:3,1.5": (1.5, 3.0),
    "ratio:2,0.5": (1.5, 2.0),
    "x-log1p": (1.0, 2.0),
    "logpow:2": (0.0, 2.0),
    "arcsinh": (0.0, 1.0),
}
EXPONENT_TOL = 0.05

# phi(u') + H = c* holds to the inverse engine's residual (1e-12 relative)
# plus summation-order rounding; the scale is 1 + |c*| + max |H|.
FLUX_TOL = 1e-9
# u against the benchmark's trapezoid integral of u', relative to max |u|.
# phi^-1 has a cusp where u' = 0, which limits the trapezoid rule: at most
# 4.5e-4 seen on solve_linear profiles at 257 nodes, 6.4e-4 on Picard
# profiles at 129 nodes.  A c* shifted by 1e-3 of 1 + |c*| leaves the flux
# identity intact but makes the integral of u' miss u(b) = 0 by at least
# 4.4e-3 of max |u| on every map in the first two bound_chain items of
# seeds 1 to 3.
INTEGRAL_TOL = 2.5e-3
# Largest cellwise defect of -d phi(u')/dx against the cell mean of the
# right-hand side, relative to the largest cell mean.  A Picard profile
# solves its linear problem exactly, so its defect against the trapezoid
# cell means is the iteration gap carried through f and g: at most 4e-5
# seen.  A shooting profile follows the ODE, so it is compared with the
# cell means of rhs(u) along the Hermite interpolant of u: at most 1e-5
# seen inside, 4.7e-3 in the two boundary cells, where sqrt(u) is not
# smooth.  Each tolerance is about four to ten times the worst seen.
PICARD_EQUATION_TOL = 5e-4
SHOOTING_EQUATION_TOL = 2e-2
# Picard and shooting solve different discretizations of the same
# problem.  ROADMAP records a sup-norm gap of 3.3e-7 at 129 nodes and
# lambda = 0.5, i.e. 1.05e-4 of the small solution's sup-norm 3.14e-3;
# the gap is about that fraction of the norm for every lambda below
# lambda0, so three times it is the tolerance.
PICARD_SHOOTING_REL_TOL = 3.2e-4


def cumulative_trapezoid(x, values):
    """Cumulative trapezoid sums of nodal values, starting at 0."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * np.diff(x) * (values[:-1] + values[1:]))
    return out


def flux_identity_gap(forward, x, h, du, c_star):
    """Relative defect of phi(u') + H = c* at the nodes, H the cumulative of h."""
    H = cumulative_trapezoid(x, h)
    gap = np.abs(forward(du) + H - c_star)
    scale = 1.0 + abs(c_star) + float(np.max(np.abs(H)))
    return float(np.max(gap)) / scale


def boundary_and_positivity(u):
    """u vanishes at both ends and is positive inside."""
    u = np.asarray(u, dtype=float)
    problems = []
    if u[0] != 0.0 or u[-1] != 0.0:
        problems.append("boundary values %g, %g are not 0" % (u[0], u[-1]))
    if not np.all(u[1:-1] > 0.0):
        problems.append("profile is not positive inside (min %g)"
                        % float(np.min(u[1:-1])))
    return problems


def integral(x, u, du):
    """u is the trapezoid integral of u' from a, relative to max |u|.

    Since u(a) = u(b) = 0, this also tests that u' integrates to 0, which
    is the condition that fixes c*."""
    u = np.asarray(u, dtype=float)
    gap = (float(np.max(np.abs(cumulative_trapezoid(x, du) - u)))
           / float(np.max(np.abs(u))))
    if not gap <= INTEGRAL_TOL:
        return ["u differs from the integral of u' by %.3g of max |u|" % gap]
    return []


def linear_profile(forward, x, h, u, du, c_star):
    """Checks on a solve_linear profile for the forcing h."""
    problems = boundary_and_positivity(u)
    gap = flux_identity_gap(forward, x, h, du, c_star)
    if not gap <= FLUX_TOL:
        problems.append("flux identity defect %.3g exceeds %.1g" % (gap, FLUX_TOL))
    return problems + integral(x, u, du)


def bound_chain_verdicts(u, lower, upper, slack, cone, half_bracket, constant,
                         recheck):
    """Every link of the bound chain is a theorem, so every verdict must hold."""
    u = np.asarray(u, dtype=float)
    problems = []
    if not np.all(np.asarray(lower, dtype=float) <= u + slack):
        problems.append("lower envelope exceeds the solution")
    if not np.all(u <= np.asarray(upper, dtype=float) + slack):
        problems.append("solution exceeds the upper envelope")
    if not cone:
        problems.append("cone lower bound fails")
    if not 0.5 * half_bracket <= float(np.max(np.abs(u))) + slack:
        problems.append("half of the sup-norm lower bound exceeds the sup-norm")
    if not (constant > 0.0 and recheck):
        problems.append("comparison constant %g fails its re-check" % constant)
    return problems


def trapezoid_cell_means(rhs):
    """Cell means of the piecewise-linear interpolant of nodal values."""
    rhs = np.asarray(rhs, dtype=float)
    return 0.5 * (rhs[:-1] + rhs[1:])


_GAUSS_T, _GAUSS_W = np.polynomial.legendre.leggauss(8)


def hermite_cell_means(x, u, du, rhs):
    """Cell means of rhs(u(x)), with u the cubic Hermite interpolant of the
    nodal values and slopes, by 8-point Gauss-Legendre on each cell."""
    x, u, du = (np.asarray(a, dtype=float) for a in (x, u, du))
    w = np.diff(x)[:, None]
    s = 0.5 * (_GAUSS_T + 1.0)[None, :]
    h00 = 2 * s ** 3 - 3 * s ** 2 + 1
    h10 = s ** 3 - 2 * s ** 2 + s
    h01 = -2 * s ** 3 + 3 * s ** 2
    h11 = s ** 3 - s ** 2
    ui = (h00 * u[:-1, None] + h10 * w * du[:-1, None]
          + h01 * u[1:, None] + h11 * w * du[1:, None])
    return 0.5 * rhs(np.maximum(ui, 0.0)) @ _GAUSS_W


def discrete_equation_gap(forward, x, du, cell_rhs):
    """Largest cellwise |-(phi(u'_{i+1}) - phi(u'_i)) / dx - cell_rhs_i|,
    relative to max |cell_rhs|."""
    lhs = -np.diff(forward(du)) / np.diff(x)
    cell_rhs = np.asarray(cell_rhs, dtype=float)
    return (float(np.max(np.abs(lhs - cell_rhs)))
            / float(np.max(np.abs(cell_rhs))))


def ordered(sub, solution, sup):
    """sub <= solution <= super at every node, up to rounding."""
    sub, solution, sup = (np.asarray(a, dtype=float) for a in (sub, solution, sup))
    slack = 1e-12 * (1.0 + float(np.max(np.abs(sup))))
    problems = []
    if not np.all(sub <= solution + slack):
        problems.append("subsolution exceeds the solution")
    if not np.all(solution <= sup + slack):
        problems.append("solution exceeds the supersolution")
    return problems


def exponents(descriptor, alpha_hat, beta_hat):
    """Fitted exponents within EXPONENT_TOL of their closed-form values."""
    if descriptor not in EXPONENTS:
        return []
    alpha, beta = EXPONENTS[descriptor]
    if abs(alpha_hat - alpha) <= EXPONENT_TOL and abs(beta_hat - beta) <= EXPONENT_TOL:
        return []
    return ["%s exponents (%.4g, %.4g) are not within %g of (%g, %g)"
            % (descriptor, alpha_hat, beta_hat, EXPONENT_TOL, alpha, beta)]
