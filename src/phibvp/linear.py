"""Exact solution operator for the two-point problem -phi(u')' = h, u(a)=u(b)=0.

In one dimension the problem integrates exactly: phi(u'(x)) = c - H(x) with
H the antiderivative of h, and the constant c is pinned by the boundary
condition through the scalar equation

    F(c) = integral of phi^{-1}(c - H) over (a, b) = 0.

F is nondecreasing and continuous and changes sign on [min H, max H], so a
bracketed root finder pins c.  The sign of F at those ends is known, so
the search starts without evaluating it there: the first probe is the
bracket's midpoint, Newton steps from each certified evaluation,
lengthened to land across the root, seed a tight bracket, and a
safeguarded Illinois iteration reaches the last bit from it.  Every value
of F the search reads is certified.
The module also evaluates the two-sided envelope of the solution, its cone
lower bound, the monotonicity of the solution operator, and a numeric
comparison constant c with

    min of the two one-sided integrals of phi^{-1}(M * mass) >= c phi^{-1}(cM)

at every M of a grid and of its tenfold refinement.  The left-hand side
and the lower bound on the solution's peak are one lower Riemann sum, on
equal cells either side of the support midpoint, as many as the grid
cells a side spans and at least 128: the integrand falls toward the
midpoint from a and rises from it toward b, so the value at each cell's
end nearer the midpoint is the cell's smallest, and the sum is at most
the integral.  The left-hand side reads an inverse table below phi^{-1};
the peak's bound takes M = 1 through the certified inverse, shaved by a
relative 1e-12 for the inverse's certificate and the rounding.
The largest such c on each M comes from a monotone forward equation, with
no inverse evaluations; c is the smallest of them, shaved by 0.999 and
checked once.  A bound chain runs several of these on one forcing, and
each of them reads one certificate per forcing, kept in a one-entry memo:
the support data, the distance to the boundary, the refined cumulative of
h (shared with that of max(h, 0) when h >= 0), the cells of the lower
sum, the peak's bound, the inverse table with the left-hand sides by M
grid, and the last solution.  Each piece is built on first use.  The memo
holds one map and one forcing at a time (per thread), and every result
equals a fresh computation bit for bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConvergenceError, UnboundedInputError
from .grids import (Grid, GridFunction, SupportData, _cell_trapezoids,
                    cumulative_trapezoid_values, dist_to_boundary,
                    require_same_grid, support_data)
from .homeomorphisms import (Homeomorphism, _InverseTable, _lane_root,
                             inverse_saturating)

DEFAULT_TOL = 1e-10
_REFINE = 16
# Fewest cells on each side of the bound chain's lower sum.
_LOWER_SUM_CELLS = 128
# Relative shave of the sup-norm bound's lower sum.  It covers the numeric
# engine's 1e-13 x-side certificate, the few-ulp error of the closed-form
# inverses and the rounding of the sum.
_BRACKET_SHAVE = 1e-12
# Absolute slack ``monotone_check`` allows between the two solutions.
_MONOTONE_SLACK = 1e-8
# Most certified probes that seed the flux search before ``_lane_root``.
_NEWTON_PROBES = 3
# Relative offset of the central difference that gives phi'.
_SLOPE_REL = 1e-6
# Newton steps are lengthened by this factor to land across the root.
_NEWTON_OVERSHOOT = 1.001


@dataclass(frozen=True)
class SolutionProfile:
    """A solved profile: u, its derivative, the flux constant, and a residual.

    ``c_star`` is the constant with phi(u'(x)) = c_star - H(x).  ``residual``
    is the producer's verified defect measure; for the exact linear solver it
    is the right boundary value of u relative to the interval length times
    the slope scale.
    """

    u: GridFunction
    du: GridFunction
    c_star: float
    residual: float

    @property
    def grid(self) -> Grid:
        return self.u.grid


class _RefinedCumulative:
    """Cumulative integral of a piecewise-linear integrand, refined in-cell.

    Within each grid cell the cumulative of the linear interpolant is an
    exact quadratic; sampling it on ``_REFINE`` uniform subintervals per
    cell gives the fine partition of the solve, on which the cumulative
    agrees with the plain nodal trapezoid rule at the nodes themselves.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        w = grid.cell_widths
        node_H = cumulative_trapezoid_values(grid, v)

        s = np.linspace(0.0, 1.0, _REFINE + 1)
        offs = w[:, None] * s[None, :]
        slope = (v[1:] - v[:-1]) / w
        cell_H = node_H[:-1, None] + v[:-1, None] * offs + 0.5 * slope[:, None] * offs ** 2
        cell_H[:, -1] = node_H[1:]

        self.grid = grid
        self.values = v
        self.node_H = node_H
        self.slope = slope
        self.cell_H = cell_H
        self.sub_w = w / _REFINE
        self.fine_H = np.concatenate(([0.0], cell_H[:, 1:].ravel()))

    def value_at(self, x):
        """Exact cumulative at a point or an array of points of [a, b]."""
        nodes = self.grid.nodes
        j = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0,
                    nodes.size - 2)
        s = x - nodes[j]
        return self.node_H[j] + self.values[j] * s + 0.5 * self.slope[j] * s * s

    def integrate_cells(self, g_cells: np.ndarray) -> np.ndarray:
        """Composite trapezoid of fine samples, one integral per cell."""
        return _cell_trapezoids(g_cells, self.sub_w)


def solve_linear(phi: Homeomorphism, h: GridFunction,
                 tol: float = DEFAULT_TOL) -> SolutionProfile:
    """Solve -phi(u')' = h with zero boundary values.

    H is sampled exactly on 16 uniform subintervals per grid cell.  The
    flux constant is found to the last representable bit on the bracket
    [min H, max H], on which the discrete boundary functional F changes
    sign: F <= 0 at min H and F >= 0 at max H, so the search starts from
    those signs without evaluating F there.  Probes from the bracket's
    midpoint (see ``_newton_seed``) shrink the bracket until both of its
    ends are certified, and a safeguarded Illinois iteration on one lane
    (see ``homeomorphisms._lane_root``) closes it; when no probe reads
    F < 0, F(min H) decides first whether F changes sign at all.  Of the
    two adjacent floats it ends on, certified either way, c is the one with
    the smaller |F|, the lower on a tie.  That pair depends on the probes
    only where the computed F changes sign more than once, which happens
    within a few ulps of the root through the numeric inverse.  ``tol`` is
    the acceptance threshold on the remaining relative defect of u(b) = 0,
    not a target the iteration aims for.  Raises
    ``ConvergenceError`` when even the closed bracket cannot meet it, which
    signals a tolerance too tight for the grid, and ``UnboundedInputError``
    when phi^{-1}(c - H) leaves the range of phi for every flux constant c.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    cert = _certificate(phi, h)
    rc = cert.cumulative
    grid = h.grid
    span = grid.b - grid.a

    def boundary_defect(c):
        # phi^{-1}(c - H) on the fine points; the cells share their ends.
        # Where it saturates F is read as +-inf, so the search can pass
        # flux constants that no solution has.
        g = inverse_saturating(phi, c - rc.fine_H)
        up, down = g.max() == np.inf, g.min() == -np.inf
        if up and down:
            raise UnboundedInputError(
                "no flux constant solves the problem: at c = %g, "
                "phi^{-1}(c - H) leaves the range of phi at both signs" % c)
        if up or down:
            return (np.inf if up else -np.inf), g, None
        cell_int = rc.integrate_cells(_cells(g))
        return float(np.sum(cell_int)), g, cell_int

    # The latest certified (c, F, g, cell_int) on each side of the root, by
    # F < 0: the search's two ends, so the chosen one is not evaluated again.
    ends = {}

    def defect(c):
        end = (c, *boundary_defect(c))
        ends[end[1] < 0.0] = end
        return end[1]

    lo = float(np.min(rc.fine_H))
    hi = float(np.max(rc.fine_H))
    f_lo = f_hi = 0.0
    if hi > lo:
        lo, hi, f_lo, f_hi = _newton_seed(phi, rc, defect, ends, lo, hi)
    if f_hi == 0.0 and True not in ends:
        # lo == hi, or F reads 0 and no probe has read F < 0: F(lo) decides
        # whether F changes sign (it reads 0 on the whole bracket when
        # phi^{-1} underflows there).
        f_lo = defect(lo)
    if f_lo < 0.0 and hi > lo:
        lo, hi, _, _ = _lane_root(lambda x: np.array([defect(float(x[0]))]),
                                  [lo], [hi], [f_lo], [f_hi])
        # An end no probe moved was never evaluated: certify it.
        for below, x in ((True, lo), (False, hi)):
            if below not in ends:
                defect(float(x[0]))
    # The smaller |F|, and on a tie the lower c: which end was evaluated
    # last must not decide.
    c, F_c, g, cell_int = min(ends.values(),
                              key=lambda end: (abs(end[1]), end[0]))
    if not np.isfinite(F_c):
        raise UnboundedInputError(
            "no flux constant solves the problem: at c = %g, phi^{-1}(c - H) "
            "leaves the range of phi" % c)

    scale = span * (1.0 + float(np.max(np.abs(g))))
    residual = abs(F_c) / scale
    if residual > tol:
        raise ConvergenceError(
            "boundary defect %g exceeds tol %g; tolerance too tight for this grid"
            % (residual, tol), gap=residual)

    u_values = np.empty(grid.count)
    u_values[0] = 0.0
    np.cumsum(cell_int, out=u_values[1:])
    # The boundary values are data; the leftover defect of the flux
    # constant stays in ``residual`` rather than polluting the profile.
    u_values[-1] = 0.0
    # GridFunction copies its values, so the memo's array is its own.
    cert.solved = (tol, u_values)
    return SolutionProfile(
        u=GridFunction(grid, u_values),
        du=GridFunction(grid, g[::_REFINE]),
        c_star=float(c),
        residual=residual,
    )


def _cells(v: np.ndarray) -> np.ndarray:
    """Fine samples as one read-only row of _REFINE + 1 per grid cell, the
    rows sharing their ends: a strided view, no copy."""
    step = v.strides[0]
    return as_strided(v, shape=((v.size - 1) // _REFINE, _REFINE + 1),
                      strides=(_REFINE * step, step), writeable=False)


def _newton_seed(phi, rc, defect, ends, lo, hi):
    """A tight bracket of the flux constant from a few certified probes.

    The ends enter with the known signs of F, read as -inf at ``lo`` and
    +inf at ``hi``.  The first probe is their midpoint; each later one is a
    Newton step from the last, lengthened by ``_NEWTON_OVERSHOOT`` so that
    it lands across the root, with F'(c) the cell trapezoid of 1/phi'(g)
    and phi' a central difference of the forward map (non-finite entries,
    where phi'(0) = 0, are dropped).  A step that rounds onto c takes the
    adjacent float.  An end no probe moved comes back infinite.  The
    probes stop once both ends are certified, after a probe that would
    leave the bracket or whose slope reads 0 (phi^{-1} underflows at every
    fine point), or after ``_NEWTON_PROBES``.  ``defect`` certifies
    F and records it in ``ends``; returns ``(lo, hi, f_lo, f_hi)``.
    """
    forward = phi._forward_pos
    f_lo, f_hi = -math.inf, math.inf
    c = min(max(0.5 * lo + 0.5 * hi, np.nextafter(lo, hi)),
            np.nextafter(hi, lo))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_NEWTON_PROBES):
            if not lo < c < hi:
                break
            F = defect(c)
            if F < 0.0:
                lo, f_lo = c, F
            else:
                hi, f_hi = c, F
            if len(ends) == 2 or not math.isfinite(F):
                break
            a = np.abs(ends[F < 0.0][2])
            z = np.asarray(forward(np.concatenate(
                (a * (1.0 + _SLOPE_REL), a * (1.0 - _SLOPE_REL)))), dtype=float)
            w = (2.0 * _SLOPE_REL) * a / (z[:a.size] - z[a.size:])
            w[~np.isfinite(w)] = 0.0
            slope = float(np.sum(rc.integrate_cells(_cells(w))))
            if not slope > 0.0:
                break
            nxt = c - F / slope * _NEWTON_OVERSHOOT
            c = float(np.nextafter(c, lo if F >= 0.0 else hi) if nxt == c
                      else nxt)
    return lo, hi, f_lo, f_hi


def monotone_check(phi: Homeomorphism, h1: GridFunction, h2: GridFunction) -> bool:
    """True when the solution operator preserves the order h1 <= h2, up to
    an absolute slack of 1e-8 on the solutions."""
    require_same_grid(h1, h2)
    scale = 1.0 + float(np.max(np.abs(h2.values)))
    if not np.all(h1.values <= h2.values + 1e-12 * scale):
        raise ValueError("h1 must lie below h2 pointwise")
    u1 = solve_linear(phi, h1)
    u2 = solve_linear(phi, h2)
    return bool(np.all(u1.u.values <= u2.u.values + _MONOTONE_SLACK))


def sup_norm_lower_bound(phi: Homeomorphism, h: GridFunction) -> float:
    """A strictly positive lower bound for the solution's sup-norm.

    The solution's peak dominates its value at the midpoint of the support
    of h, which in turn dominates the smaller of the two one-sided integrals
    of phi^{-1} of the accumulated mass.  The bound is the comparison's
    lower sum on its equal cells at M = 1, through the certified
    ``phi.inverse`` and shaved by a relative 1e-12, so it is at most that
    integral by construction.
    """
    return _certificate(phi, h).bracket


def envelope_bounds(phi: Homeomorphism, h: GridFunction):
    """Pointwise envelopes of the solution for a nonnegative forcing.

    Returns ``(lower, upper)`` with

        lower = theta_under * min(one-sided integrals) * delta
        upper = phi^{-1}(total mass of h) * delta

    where delta is the distance to the boundary and the minimum is
    ``sup_norm_lower_bound``'s lower sum.  The solution of the problem with
    forcing h lies between them at every node.
    """
    cert = _certificate(phi, h)
    lower_scale = cert.support.theta_under * cert.bracket
    upper_scale = float(phi.inverse(float(cert.clamped.node_H[-1])))
    return (GridFunction(h.grid, lower_scale * cert.delta),
            GridFunction(h.grid, upper_scale * cert.delta))


def _in_cone(u: np.ndarray, delta: np.ndarray, theta_under: float,
             slack=None) -> bool:
    """Whether u >= theta_under * ||u|| * delta - slack at every node; the
    slack defaults to 1e-8 * (1 + ||u||)."""
    norm = float(np.max(np.abs(u)))
    if slack is None:
        slack = 1e-8 * (1.0 + norm)
    return bool(np.all(u >= theta_under * norm * delta - slack))


def cone_lower_bound(phi: Homeomorphism, h: GridFunction,
                     slack: float = 0.0) -> bool:
    """Check u >= theta_under * ||u|| * delta pointwise for u solving with h.

    u is the solution ``solve_linear(phi, h)`` gives with its default
    arguments; when the caller has just computed it, it comes from the memo.
    """
    cert = _certificate(phi, h)
    tol, u = cert.solved
    if tol != DEFAULT_TOL:
        u = solve_linear(phi, h).u.values
    return _in_cone(u, cert.delta, cert.support.theta_under, slack)


def _lower_sum_cells(rc, end, x_mid, H_mid, sign):
    """The cells of a one-sided lower sum: ``(widths, d, reach)``, each
    cell's width and its mass difference d = max(sign * (H - H_mid), 0) at
    its end nearer theta_bar, and d at the boundary, the largest.

    [end, x_mid] is cut into equal cells, as many as the grid cells it
    spans and at least ``_LOWER_SUM_CELLS``, with H from ``rc``'s exact
    cumulative; ``end`` is a or b and ``sign`` is -1 on [a, theta_bar] and
    +1 on [theta_bar, b], so that d falls from ``end`` toward x_mid.  A
    side's sum falls short of its integral by at most its widest cell times
    its largest value, so a coarse grid or a short side loses no fixed
    share of the integral; the cell that ends at theta_bar counts 0.
    """
    nodes = rc.grid.nodes
    lo, hi = sorted((end, x_mid))
    spanned = int(np.searchsorted(nodes, hi, side="left")
                  - np.searchsorted(nodes, lo, side="right")) + 1
    pts = np.linspace(end, x_mid, max(spanned, _LOWER_SUM_CELLS) + 1)
    d = np.maximum(sign * (rc.value_at(pts) - H_mid), 0.0)
    return np.abs(np.diff(pts)), d[1:], float(d[0])


class _Certificate:
    """What the bound chain derives from one map and one forcing.

    ``solve_linear`` makes an entry for every forcing it solves, signed ones
    and the bracketed iterates included, so every piece is built on first use:
    ``support`` (support data; raises on a signed forcing), ``delta`` (the
    distance to the boundary), ``cumulative`` (the refined cumulative of h),
    ``clamped`` (that of max(h, 0), the same object when h has no negative
    entry), ``cells`` (the lower sum's equal cells either side of the
    support midpoint theta_bar, see ``_lower_sum_cells``), ``bracket``, the
    inverse table for one ceiling with the left-hand sides it gave by M
    grid (a new ceiling replaces both), and ``solved``, the ``(tol, u)`` of
    the last ``solve_linear``.

    Both bounds are ``lower_sum`` over the cells: the mass difference
    falls toward theta_bar on either side and inv increases, so the value
    at each cell's end nearer theta_bar is the least on the cell.  ``lhs``
    takes inv the table, below phi^{-1}, one call per side for a whole M
    grid; ``bracket`` takes M = 1 and the certified ``phi.inverse``, shaved
    by a relative ``_BRACKET_SHAVE``.  Each is at most its integral of
    phi^{-1}(M * mass).
    """

    def __init__(self, phi: Homeomorphism, h: GridFunction, key: tuple):
        self.phi = phi
        self.h = h
        self.key = key
        self.ceiling = None
        self.table = None
        self.lhs_by_grid = {}
        self.solved = (None, None)

    @cached_property
    def support(self) -> SupportData:
        return support_data(self.h)

    @cached_property
    def delta(self) -> np.ndarray:
        return dist_to_boundary(self.h.grid).values

    @cached_property
    def cumulative(self) -> _RefinedCumulative:
        return _RefinedCumulative(self.h.grid, self.h.values)

    @cached_property
    def clamped(self) -> _RefinedCumulative:
        if not np.any(self.h.values < 0.0):
            return self.cumulative
        return _RefinedCumulative(self.h.grid, np.maximum(self.h.values, 0.0))

    @cached_property
    def cells(self):
        """The lower sum's cells either side of theta_bar:
        ``(wl, dl, wr, dr, reach)``, each cell's width and the mass
        difference at its end nearer theta_bar, and the largest mass
        difference, the one at a or b (see ``_lower_sum_cells``)."""
        rc, theta = self.clamped, self.support.theta_bar
        H_mid = float(rc.value_at(theta))
        wl, dl, reach_l = _lower_sum_cells(rc, rc.grid.a, theta, H_mid, -1.0)
        wr, dr, reach_r = _lower_sum_cells(rc, rc.grid.b, theta, H_mid, 1.0)
        return wl, dl, wr, dr, max(reach_l, reach_r)

    def lower_sum(self, inverse, M):
        """min(inverse(M dl) @ wl, inverse(M dr) @ wr) over the cells, for
        a scalar M or, one call per side, a grid of M."""
        wl, dl, wr, dr, _ = self.cells
        return np.minimum(inverse(np.multiply.outer(M, dl)) @ wl,
                          inverse(np.multiply.outer(M, dr)) @ wr)

    @cached_property
    def bracket(self) -> float:
        value = float(self.lower_sum(self.phi.inverse, 1.0))
        return value * (1.0 - _BRACKET_SHAVE)

    def lhs(self, M: np.ndarray, ceiling: float) -> np.ndarray:
        """The comparison LHS on the grid M, with the table up to ``ceiling``."""
        if ceiling != self.ceiling:
            self.table = _InverseTable(self.phi, ceiling * self.cells[-1])
            self.ceiling = ceiling
            self.lhs_by_grid = {}
        key = M.tobytes()
        if key not in self.lhs_by_grid:
            self.lhs_by_grid[key] = self.lower_sum(self.table, M)
        return self.lhs_by_grid[key]


# One entry per thread, so that no two threads share an entry's table.
_memo = threading.local()


def _certificate(phi: Homeomorphism, h: GridFunction) -> _Certificate:
    """The memo's entry for ``(phi, h)``, replacing the entry when the map
    is another object or the bytes of h's nodes or values differ."""
    key = (h.grid.nodes.tobytes(), h.values.tobytes())
    entry = getattr(_memo, "entry", None)
    if entry is None or entry.phi is not phi or entry.key != key:
        entry = _memo.entry = _Certificate(phi, h, key)
    return entry


def _refined_M_grid(M_grid: np.ndarray) -> np.ndarray:
    lo, hi = float(M_grid[0]), float(M_grid[-1])
    if hi == lo:
        return np.full(10 * M_grid.size + 1, lo)
    return np.geomspace(lo, hi, 10 * M_grid.size + 1)


def _comparison_holds(phi, lhs, c, M_values) -> bool:
    with np.errstate(over="ignore"):
        rhs = c * inverse_saturating(phi, c * M_values)
    return bool(np.all(lhs >= rhs))


def _normalized_M_grid(M_grid) -> np.ndarray:
    if M_grid is None:
        return np.geomspace(1e-4, 1e4, 33)
    arr = np.unique(np.asarray(M_grid, dtype=float))
    if arr.size == 0 or not np.all(arr > 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("M_grid must be a nonempty positive sequence")
    return arr


def _forward_root_constant(phi, lhs, M_values) -> float:
    """The largest c with c phi^{-1}(c M) <= LHS(M) on every lane (one pair
    of M and LHS(M), from any number of grids), from forward calls only;
    inf when no lane constrains c.

    c phi^{-1}(c M) = L holds exactly when t phi(t) = L M and c = phi(t) / M,
    and t phi(t) increases.  Each lane's t is bracketed on the probe ladder,
    whose products px * pv increase, then on 8 steps per decade, and closed
    on t phi(t) - L M to adjacent floats by ``_lane_root``.  The lower end,
    whose product stays below L M, gives the lane's c, so c is exact up to
    rounding: c phi^{-1}(c M) can exceed L by a few ulps at the binding
    lane, far less than the estimate's 0.999 shave.  A lane whose LHS is
    not finite does not constrain c; one whose target L M lies past the
    ladder's last finite product is held to that product, which keeps
    phi^{-1}(c M) and c phi^{-1}(c M) finite.
    """
    forward = phi._forward_pos
    px, pv = phi._probe_ladder()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pp = px * pv
        usable = np.isfinite(pp) & (pp > 0.0)
        px, pp = px[usable], pp[usable]
        bound = np.isfinite(lhs)
        if not np.any(bound):
            return math.inf
        M_values = M_values[bound]
        target = np.minimum(lhs[bound] * M_values, pp[-1])
        # Over an eighth of a decade t phi(t) is near enough to a line for
        # the secant steps; over a decade the slowest lane takes 30 steps.
        idx = np.searchsorted(pp, target, side="left")
        first, last = max(int(idx.min()) - 1, 0), int(idx.max())
        t = np.geomspace(px[first], px[last], 8 * (last - first) + 1)
        tt = t * np.asarray(forward(t), dtype=float)
        idx = np.searchsorted(tt, target, side="left")
        below = np.maximum(idx - 1, 0)
        lo, _, _, _ = _lane_root(
            lambda t: t * np.asarray(forward(t), dtype=float) - target,
            np.where(idx == 0, 0.0, t[below]), t[idx],
            np.where(idx == 0, 0.0, tt[below]) - target, tt[idx] - target)
        return float(np.min(np.asarray(forward(lo), dtype=float) / M_values))


def estimate_comparison_constant(phi: Homeomorphism, h: GridFunction,
                                 M_grid=None) -> float:
    """Largest c in (1e-12, 1e6], shaved by 0.999, with
    LHS(M) >= c * phi^{-1}(c M) on the grid and its tenfold refinement.

    LHS(M) is the smaller of the two one-sided integrals of
    phi^{-1}(M * accumulated mass of h) around the support midpoint, taken
    as a lower Riemann sum through an inverse table below phi^{-1}, on
    equal cells, as many on each side as the grid cells it spans and at
    least 128: each cell takes the integrand at its end nearer the
    midpoint, where the monotone integrand is least, so LHS(M) never
    exceeds the integral.  The largest c on each M of both grids
    solves a monotone forward equation (see ``_forward_root_constant``); c
    is the smallest of them, clamped into [1e-12, 1e6] and shaved by 0.999,
    which leaves room for rounding since c phi^{-1}(c M) increases with c,
    then checked once on both grids.  Raises ``ValueError`` when 1e-12 fails
    the grid or c fails that check.
    """
    M = _normalized_M_grid(M_grid)
    ceiling = float(M[-1])
    cert = _certificate(phi, h)
    lhs = cert.lhs(M, ceiling)

    lo, hi = 1e-12, 1e6
    if not _comparison_holds(phi, lhs, lo, M):
        raise ValueError("no comparison constant in (1e-12, 1e6] certifies the bound")
    fine = _refined_M_grid(M)
    both_M = np.concatenate((M, fine))
    both_lhs = np.concatenate((lhs, cert.lhs(fine, ceiling)))
    c = min(max(lo, _forward_root_constant(phi, both_lhs, both_M)), hi) * 0.999
    if not _comparison_holds(phi, both_lhs, c, both_M):
        raise ValueError("comparison constant failed its check on the M grid "
                         "and its tenfold refinement")
    return float(c)


def verify_comparison_constant(phi: Homeomorphism, h: GridFunction, c: float,
                               M_grid) -> bool:
    """Re-check the comparison inequality for a given constant on a given grid."""
    M = _normalized_M_grid(M_grid)
    lhs = _certificate(phi, h).lhs(M, float(M[-1]))
    return _comparison_holds(phi, lhs, c, M)
