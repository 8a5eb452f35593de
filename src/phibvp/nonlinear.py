"""Sub/supersolution construction, verification, bracketing iteration, shooting.

The supersolution is the solved profile of a constant multiple of m + n; the
subsolution is the solved profile of a small multiple of m times a power of
the distance to the boundary.  Both are verified against the discrete form
of the differential inequality.  Between an ordered verified pair, a clamped
fixed-point iteration converges to a solution: Picard steps accelerated by
depth-1 Anderson mixing, with a plain step whenever the gap fails to fall,
so the iterates need not be monotone.  Independently, a shooting
integrator turns every positive solution into a root of the terminal-defect
map s -> u(b; s), which a scanning routine brackets and refines.  The
integrator marches many slopes and lambda values at once, as lanes of one
stacked RK4 state (u, phi(u')), and locates zero crossings after the march.
Each refinement pass marches, for every bracket at once, its eighths and a
cluster of probes graded toward a regula-falsi estimate of the root on the
continued terminal, the marched u(b) that runs on linearly past a zero
crossing, so the brackets shrink quadratically and at least eightfold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConstructionError, ConvergenceError, ZeroWeightError
from .grids import (GridFunction, _cell_trapezoids, cumulative_trapezoid_values,
                    dist_to_boundary, integral, sup_norm)
from .homeomorphisms import _lane_root, _odd_inverse_fn, inverse_saturating
from .linear import (SolutionProfile, estimate_comparison_constant, solve_linear,
                     verify_comparison_constant)
from .problems import ProblemSpec, rhs, with_lambda

# Largest violation (in each check's units) that the two verifiers pass.
_VERIFY_SLACK = 1e-9
# Steps (one linear solve each) ``solve_between`` takes before it gives up.
_PICARD_STEPS = 200
# Subintervals per cell of the quadrature in ``_integrated_defect``.
_DEFECT_REFINE = 16

class VerifyResult(NamedTuple):
    passed: bool
    max_violation: float


class SupersolutionResult(NamedTuple):
    w: SolutionProfile
    kappa_lambda: float
    lambda0: float


class SubsolutionResult(NamedTuple):
    v: SolutionProfile
    epsilon: float


class ShootResult(NamedTuple):
    terminal: float
    profile: SolutionProfile
    crossed: bool


@dataclass(frozen=True)
class SubSuperPair:
    """An ordered, verified subsolution/supersolution pair with its constants."""

    sub: SolutionProfile
    super: SolutionProfile
    kappa_lambda: float
    epsilon: float
    lambda0: float


def _cell_means(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values[:-1] + values[1:])


def _verify_profile(spec: ProblemSpec, profile: SolutionProfile,
                    sense: int) -> VerifyResult:
    """Shared body of the two verifiers; sense +1 checks a supersolution."""
    grid = spec.grid
    widths = grid.cell_widths
    u = profile.u.values

    plus = GridFunction(grid, np.maximum(u, 0.0))
    forcing = rhs(spec, plus).values
    cell_rhs = _cell_means(forcing)

    p = spec.phi.forward(profile.du.values)
    ode_lhs = -np.diff(p) / widths
    if sense > 0:
        cell_viol = cell_rhs - ode_lhs
        boundary_viol = max(-u[0], -u[-1])
    else:
        cell_viol = ode_lhs - cell_rhs
        boundary_viol = max(u[0], u[-1])

    raw = max(float(np.max(cell_viol)), boundary_viol)
    return VerifyResult(passed=raw <= _VERIFY_SLACK,
                        max_violation=raw if raw > 0.0 else 0.0)


def verify_supersolution(spec: ProblemSpec, w: SolutionProfile) -> VerifyResult:
    """Check the discrete supersolution inequalities for a profile.

    Cellwise, the decrease of phi(w') across each cell must dominate the
    cell-averaged right-hand side evaluated at w, and the boundary values
    must be nonnegative.  The result reports the worst violation in natural
    units (defect per unit length for cells, value for boundaries); it
    passes up to 1e-9.
    """
    return _verify_profile(spec, w, sense=+1)


def verify_subsolution(spec: ProblemSpec, v: SolutionProfile) -> VerifyResult:
    """Mirror image of ``verify_supersolution`` with all inequalities reversed."""
    return _verify_profile(spec, v, sense=-1)


def _largest_prefix_valid(grid_points: np.ndarray, margin, what: str) -> float:
    """Largest point of a log grid below the first failure of a condition,
    sharpened by ``_lane_root`` between the last pass and the first failure.

    ``margin`` maps an array of positive candidates to the condition's
    signed margin, which is >= 0 exactly where the condition holds.  The
    grid test and the search read it through the same ``excess``, the
    float below -margin, which is negative exactly there.  The searched
    conditions are limit statements that hold near zero, so the feasible
    set is treated as a prefix of the grid.
    """
    def excess(t):
        return np.nextafter(-np.asarray(margin(t), dtype=float), -np.inf)

    e = excess(grid_points)
    ok = e < 0.0
    if not ok[0]:
        raise ConstructionError("no feasible %s even at the bottom of the scan range"
                                % what)
    fails = np.flatnonzero(~ok)
    if fails.size == 0:
        return float(grid_points[-1])
    j = int(fails[0])
    lo, _, _, _ = _lane_root(excess, grid_points[j - 1:j], grid_points[j:j + 1],
                             e[j - 1:j], e[j:j + 1])
    return float(lo[0])


def build_supersolution(spec: ProblemSpec) -> SupersolutionResult:
    """Construct the supersolution profile together with its constants.

    Uses the near-zero envelope of g.  With c the half-length of the
    interval, K0 caps the forcing scale so the profile stays below t1, K1
    caps it so the g-term stays below its share, and lambda0 = min(K0, K1)
    divided by the peak of f on [0, t1] is the largest parameter the recipe
    covers.  Requires spec.lam < lambda0; the returned profile solves the
    linear problem with forcing kappa_lambda * (m + n).
    """
    if spec.g1_constants is None:
        raise ConstructionError("supersolution recipe needs the near-zero envelope of g")
    c1, t1, r1 = spec.g1_constants
    grid = spec.grid
    c_om = 0.5 * (grid.b - grid.a)
    weight = GridFunction(grid, spec.m.values + spec.n.values)
    rho = integral(weight)
    if rho <= 0.0:
        raise ZeroWeightError("m + n carries no mass")

    K0 = spec.phi.forward(t1 / c_om) / rho
    eps = 1.0 / (c1 * spec.mu * c_om ** r1)

    def small_enough(kappa):
        return kappa * eps - inverse_saturating(spec.phi, kappa * rho) ** r1

    K1 = _largest_prefix_valid(np.geomspace(1e-16, K0, 400), small_enough,
                               "supersolution scale")

    t_samples = np.linspace(0.0, t1, 2001)
    C = float(np.max(np.asarray(spec.f(t_samples), dtype=float)))
    if not (C > 0.0 and np.isfinite(C)):
        raise ConstructionError("f vanishes on [0, t1]; no scale available")
    lambda0 = min(K0, K1) / C
    if spec.lam >= lambda0:
        raise ConstructionError(
            "supersolution construction not applicable at lambda = %g "
            "(needs lambda < %g)" % (spec.lam, lambda0))

    kappa = spec.lam * C
    w = solve_linear(spec.phi, GridFunction(grid, kappa * weight.values))
    return SupersolutionResult(w=w, kappa_lambda=kappa, lambda0=lambda0)


def build_subsolution(spec: ProblemSpec, comparison_constant: float,
                      upper: SolutionProfile) -> SubsolutionResult:
    """Construct the subsolution profile v solving with forcing eps * m * delta^q.

    Uses the near-zero envelope of f and a comparison constant certified for
    the weight m * delta^q.  The scale eps is half the smaller of two caps:
    eps0 keeps the profile below t0, eps1 keeps the inverse-growth condition
    [phi^{-1}(eps * rho')]^q >= M eps with M = 1/(lam c0 c^q).  When the
    certificate does not cover the M actually needed, the constant is
    re-estimated on a grid around that M (a few rounds at most).  Then eps
    is halved until the profile lies below ``upper``.
    """
    if spec.f_constants is None:
        raise ConstructionError("subsolution recipe needs the near-zero envelope of f")
    c0, t0, q = spec.f_constants
    grid = spec.grid
    c_om = 0.5 * (grid.b - grid.a)
    delta = dist_to_boundary(grid)
    h_base = GridFunction(grid, spec.m.values * delta.values ** q)
    rho_p = integral(h_base)
    if rho_p <= 0.0:
        raise ZeroWeightError("m * delta^q carries no mass")

    c = float(comparison_constant)
    M = 1.0 / (spec.lam * c0 * c ** q)
    for _ in range(5):
        grid_M = np.unique(np.append(np.geomspace(M / 10.0, M * 10.0, 33), M))
        if verify_comparison_constant(spec.phi, h_base, c, grid_M):
            break
        c = estimate_comparison_constant(spec.phi, h_base, grid_M)
        M = 1.0 / (spec.lam * c0 * c ** q)
    else:
        raise ConstructionError("comparison constant could not be certified at the "
                                "scale the subsolution needs")

    eps0 = spec.phi.forward(t0 / c_om) / rho_p

    def steep_enough(e):
        return inverse_saturating(spec.phi, e * rho_p) ** q - M * e

    eps1 = _largest_prefix_valid(np.geomspace(1e-16, max(eps0, 1.0) * 10.0, 400),
                                 steep_enough, "subsolution scale")
    eps = 0.5 * min(eps0, eps1)

    v = solve_linear(spec.phi, GridFunction(grid, eps * h_base.values))
    for _ in range(50):
        if np.all(v.u.values <= upper.u.values):
            break
        eps *= 0.5
        v = solve_linear(spec.phi, GridFunction(grid, eps * h_base.values))
    else:
        raise ConstructionError("could not order the subsolution below the "
                                "given profile by halving its scale")
    return SubsolutionResult(v=v, epsilon=eps)


def make_sub_super_pair(spec: ProblemSpec) -> SubSuperPair:
    """Build, order, and verify a subsolution/supersolution pair."""
    sup = build_supersolution(spec)
    q = spec.f_constants[2]
    delta = dist_to_boundary(spec.grid)
    h_base = GridFunction(spec.grid, spec.m.values * delta.values ** q)
    sub = build_subsolution(spec, estimate_comparison_constant(spec.phi, h_base),
                            upper=sup.w)
    ok_sub = verify_subsolution(spec, sub.v)
    ok_sup = verify_supersolution(spec, sup.w)
    if not (ok_sub.passed and ok_sup.passed):
        raise ConstructionError(
            "constructed pair failed verification (violations %g / %g)"
            % (ok_sub.max_violation, ok_sup.max_violation))
    return SubSuperPair(sub=sub.v, super=sup.w, kappa_lambda=sup.kappa_lambda,
                        epsilon=sub.epsilon, lambda0=sup.lambda0)


def solve_between(spec: ProblemSpec, v: SolutionProfile, w: SolutionProfile,
                  tol: float = 1e-8, history: Optional[list] = None) -> SolutionProfile:
    """Clamped fixed-point iteration, with Anderson mixing, between v and w.

    G(x) solves the linear problem with the right-hand side evaluated at x
    clamped into [v, w].  Each step solves once, at x_k, and its gap is the
    sup norm of r_k = G(x_k) - x_k.  The first step is plain Picard from
    x_0 = v; later ones mix the last two solves (depth-1 Anderson mixing;
    Walker & Ni, SIAM J. Numer. Anal. 49, 2011): x_{k+1} is G(x_k) -
    gamma (G(x_k) - G(x_{k-1})) clamped into [v, w], with gamma =
    <r_k, dr> / <dr, dr> for dr = r_k - r_{k-1}, or plain when dr = 0.
    When the gap has not fallen below the previous one, the step is plain
    and the history, that gap included, is dropped, so the next step is
    plain too.  The iterates need not be monotone, even when f and g are
    nondecreasing.  Stops when the gap falls below ``tol`` (absolute) and
    the integrated-form defect (the change in the cumulative right-hand
    side from x_k to G(x_k)) below 10 * tol, and returns that G(x_k), a
    linear solve, with the defect as its residual.  ``history``, when
    given, collects the sup norm of every solve.  Raises
    ``ConvergenceError``, carrying the last solve, after 200 steps.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    lo = v.u.values
    hi = w.u.values
    scale = 1.0 + float(np.max(np.abs(hi)))
    if np.any(lo > hi + 1e-12 * scale):
        raise ValueError("the profile pair is not ordered: v must lie below w")

    grid = spec.grid

    def clamped_forcing(values):
        clipped = np.minimum(np.maximum(values, lo), hi)
        return rhs(spec, GridFunction(grid, np.maximum(clipped, 0.0)))

    x = lo
    forcing = clamped_forcing(x)
    last = None  # (r, G(x), gap) of the previous solve; None after a restart
    for _ in range(_PICARD_STEPS):
        nxt = solve_linear(spec.phi, forcing)
        gx = nxt.u.values
        r = gx - x
        gap = float(np.max(np.abs(r)))
        next_forcing = clamped_forcing(gx)
        defect = float(np.max(np.abs(
            cumulative_trapezoid_values(grid, next_forcing.values)
            - cumulative_trapezoid_values(grid, forcing.values))))
        if history is not None:
            history.append(sup_norm(nxt.u))
        if gap < tol and defect < 10.0 * tol:
            return replace(nxt, residual=max(nxt.residual, defect))
        x, forcing = gx, next_forcing
        if last is not None and not gap < last[2]:
            last = None
            continue
        if last is not None:
            dr = r - last[0]
            dd = float(dr @ dr)
            if dd > 0.0:
                x = np.minimum(np.maximum(
                    gx - float(r @ dr) / dd * (gx - last[1]), lo), hi)
                forcing = clamped_forcing(x)
        last = (r, gx, gap)
    raise ConvergenceError(
        "bracketed iteration did not converge in %d steps (gap %g)"
        % (_PICARD_STEPS, gap), gap=gap, iterations=_PICARD_STEPS, profile=nxt)


_BLOWUP_STATE = 1e12
_BLOWUP_FLUX = 1e300
# The overflow guard on the stacked state (u, z), one bound per row.
_GUARD = np.array([[_BLOWUP_STATE], [_BLOWUP_FLUX]])


def _shoot_batch(spec: ProblemSpec, s_values, lam=None):
    """March the shooting system for a batch of initial slopes at once.

    Returns (terminal, U, Z, crossed, x_cross, blown).  U and Z hold the
    state and the flux phi(u') at every grid node per lane.  A lane that
    hits zero keeps integrating (the clamped right-hand side vanishes below
    zero), but its first crossing location is recorded and its terminal
    value becomes -(b - x_cross).  Lanes whose state leaves the overflow
    guard (|u| <= 1e12 and |z| <= 1e300, which NaN and inf fail) freeze at
    their last state inside it.

    ``lam``, when given, is each lane's lambda (default ``spec.lam``).  A
    lane's f-weight in a cell is the product lam * m_c of its own lambda
    and the cell mean of m, so every lane is bit for bit the march of
    ``with_lambda(spec, lam)`` alone.

    One RK4 step per cell on the stacked state y = (u, z), one (2, lanes)
    array, recorded into one (2, lanes, nodes) array whose planes are U
    and Z.  A frozen lane repeats its state, so the first node pair of a
    record that goes from u >= 0 to u < 0 is the lane's first crossing
    cell; the crossings are located after the march, in one batch:
    ``_lane_root`` closes each cell fraction [0, 1] to adjacent floats, one
    RK4 step over every crossed lane per step, and the upper float, where
    u < 0 first, is the crossing.  The first RK4 stage does not depend on
    the step length, so it is evaluated once at the cell start.
    """
    grid = spec.grid
    x = grid.nodes
    widths = grid.cell_widths
    f, g = spec.f, spec.g
    m_c = _cell_means(spec.m.values)
    mn = spec.mu * _cell_means(spec.n.values)

    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    lanes = s.size
    lam = np.broadcast_to(np.asarray(spec.lam if lam is None else lam,
                                     dtype=float), s.shape)
    record = np.empty((2, lanes, grid.count))
    y = np.zeros((2, lanes))
    y[1] = spec.phi.forward(s)
    record[:, :, 0] = y
    blown = np.zeros(lanes, dtype=bool)

    # Bound once, outside the public entries: their per-call scalar
    # handling and error state would dominate the per-stage cost on small
    # lane counts, and the march below already runs under one errstate.
    inv_odd = _odd_inverse_fn(spec.phi, "inf")

    def derivs(y_, mc, nc, out):
        up = np.maximum(y_[0], 0.0)
        out[0] = inv_odd(y_[1])
        np.negative(mc * np.asarray(f(up), dtype=float)
                    + nc * np.asarray(g(up), dtype=float), out=out[1])

    def rk4(y_, h, mc, nc, k):
        # k[0] already holds the first stage, the derivatives at y_.
        derivs(y_ + 0.5 * h * k[0], mc, nc, k[1])
        derivs(y_ + 0.5 * h * k[1], mc, nc, k[2])
        derivs(y_ + h * k[2], mc, nc, k[3])
        return y_ + (h / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k = np.empty((4, 2, lanes))
        for i in range(grid.count - 1):
            mc = lam * m_c[i]
            derivs(y, mc, mn[i], k[0])
            y1 = rk4(y, widths[i], mc, mn[i], k)
            ok = np.abs(y1) <= _GUARD
            if not ok.all():
                blown |= ~(ok[0] & ok[1])
            y = np.where(blown, y, y1) if blown.any() else y1
            record[:, :, i + 1] = y

        U, Z = record
        flips = (U[:, :-1] >= 0.0) & (U[:, 1:] < 0.0)
        cross_at = np.argmax(flips, axis=1)
        crossed = flips[np.arange(lanes), cross_at]
        x_cross = np.full(lanes, np.nan)
        idx = np.flatnonzero(crossed)
        if idx.size:
            cell = cross_at[idx]
            h = widths[cell]
            y0 = record[:, idx, cell]
            mc, nc = lam[idx] * m_c[cell], mn[cell]
            k = np.empty((4, 2, idx.size))
            derivs(y0, mc, nc, k[0])
            # The float below -u, at the cell's ends to start with, is
            # negative exactly where u >= 0: every lane starts from u = 0.
            # A cell that starts at u = 0 exactly would read -5e-324 there,
            # and secants from it creep up from theta = 5e-324; -inf makes
            # such a lane bisect until its lower end moves.
            ends = np.nextafter(-record[0, idx, cell + [[0], [1]]], -np.inf)
            ends[0, y0[0] == 0.0] = -np.inf
            _, theta, _, _ = _lane_root(
                lambda th: np.nextafter(-rk4(y0, th * h, mc, nc, k)[0], -np.inf),
                np.zeros(idx.size), np.ones(idx.size), *ends)
            x_cross[idx] = x[cell] + theta * h

    terminal = np.where(crossed, -(grid.b - x_cross), y[0])
    return terminal, U, Z, crossed, x_cross, blown


def _integrated_defect(spec: ProblemSpec, u_nodes: np.ndarray,
                       z_nodes: np.ndarray) -> float:
    """Defect of the flux identity z(x) - z(a) + integral of the right-hand
    side, normalized by 1 + |z(a)|.

    The integral is taken over a per-cell refinement of the linear
    interpolant of u, with the same frozen cell weights the integrator used.
    """
    grid = spec.grid
    widths = grid.cell_widths
    m_c = _cell_means(spec.m.values)
    n_c = _cell_means(spec.n.values)
    frac = np.linspace(0.0, 1.0, _DEFECT_REFINE + 1)
    u_cells = u_nodes[:-1, None] + (np.diff(u_nodes))[:, None] * frac[None, :]
    up = np.maximum(u_cells, 0.0)
    vals = (spec.lam * m_c[:, None] * np.asarray(spec.f(up), dtype=float)
            + spec.mu * n_c[:, None] * np.asarray(spec.g(up), dtype=float))
    cell_int = _cell_trapezoids(vals, widths / _DEFECT_REFINE)
    Q = np.concatenate(([0.0], np.cumsum(cell_int)))
    defect = float(np.max(np.abs(z_nodes - z_nodes[0] + Q)))
    return defect / (1.0 + abs(float(z_nodes[0])))


def _profile_from_shot(spec: ProblemSpec, u_nodes, z_nodes) -> SolutionProfile:
    du = inverse_saturating(spec.phi, z_nodes)
    residual = _integrated_defect(spec, u_nodes, z_nodes)
    return SolutionProfile(
        u=GridFunction(spec.grid, u_nodes),
        du=GridFunction(spec.grid, du),
        c_star=float(z_nodes[0]),
        residual=residual,
    )


def shoot(spec: ProblemSpec, s: float) -> ShootResult:
    """Integrate from the left endpoint with initial slope s.

    The state system is u' = phi^{-1}(z), z' = -(lam m f(u+) + mu n g(u+))
    with the weights frozen per cell at their endpoint mean, one classical
    fourth-order step per grid cell.  The terminal value is u(b) when the
    lane stays nonnegative, otherwise the negated distance from the first
    zero crossing to b.
    """
    if not s > 0.0:
        raise ValueError("initial slope must be positive")
    terminal, U, Z, crossed, _, blown = _shoot_batch(spec, [s])
    if blown[0]:
        raise ConvergenceError("shooting state exceeded the overflow guard")
    profile = _profile_from_shot(spec, U[0], Z[0])
    return ShootResult(terminal=float(terminal[0]), profile=profile,
                       crossed=bool(crossed[0]))


def _positive_row(spec, terminal, u_nodes, z_nodes, crossed, blown,
                  accept_tol) -> bool:
    """Whether one marched lane is a positive solution.

    The acceptance rule of every scan: the lane stayed inside the overflow
    guard, is positive on the interior and has inward end slopes.  A lane
    that crosses zero passes only when the crossing sits within
    ``accept_tol`` of the right endpoint, since a refined root may land a
    hair on the crossing side.
    """
    if blown or (crossed and abs(float(terminal)) > accept_tol):
        return False
    du_a, du_b = inverse_saturating(spec.phi, z_nodes[[0, -1]])
    return bool(np.all(u_nodes[1:-1] > 0.0)) and du_a > 0.0 > du_b


# Probes of one refinement pass, as fractions of its bracket's width w in
# log s: the eighths k/8 (k = 1..7), which narrow every bracket at least
# eightfold, then offsets from the regula-falsi estimate of the root, 0 and
# +/- 8^-k (k = 1..9), graded toward it so that a good estimate narrows the
# bracket to about its own error.
_REFINE_EIGHTHS = np.arange(1, 8) / 8.0
_REFINE_GRADES = np.concatenate(([0.0], 8.0 ** -np.arange(1, 10),
                                 -(8.0 ** -np.arange(1, 10))))
_REFINE_PROBES = _REFINE_EIGHTHS.size + _REFINE_GRADES.size
# A bracket stops refining once its best terminal is within this multiple
# of the interval length.
_DEFECT_TOL_REL = 1e-10
# A refined root is confirmed when its terminal is within _CONFIRM times
# the refinement's defect tolerance.
_CONFIRM = 1e3
# Most lanes one march holds; wider batches are marched in groups, so the
# per-node record, one (2, lanes, nodes) array whose planes are U and Z
# (the same bytes as two separate records), stays at most _LANE_CAP lanes.
_LANE_CAP = 1024


def _marches(spec, s, lam):
    """``_shoot_batch`` over the lanes (s, lam) in groups of at most
    ``_LANE_CAP``; yields each group's first lane index and its outputs."""
    for start in range(0, s.size, _LANE_CAP):
        part = slice(start, start + _LANE_CAP)
        yield start, _shoot_batch(spec, s[part], lam[part])


def _refine_brackets(spec, lams, which, s_lo, s_hi, f_lo, f_hi, v_lo, v_hi,
                     defect_tol, stop_at_first):
    """Shrink sign-change brackets in log-s space, batched across brackets.

    Bracket i belongs to lambda ``lams[which[i]]``; ``f_lo``/``f_hi`` are
    its end terminals and ``v_lo``/``v_hi`` its end values of the continued
    terminal, the marched u(b) (``U[:, -1]``).  Below zero the clamped
    right-hand side vanishes, so a lane runs on linearly past its crossing
    and u(b) stays smooth in log s across the root, with the sign of the
    terminal, where the terminal itself has a kink.  Each pass marches the
    ``_REFINE_PROBES`` probes of every active bracket, of every lambda, in
    a single march (its cost is the cell loop, not the lane count): the
    eighths of the bracket, and a cluster graded toward the regula-falsi
    estimate of the root on the continued terminal (the midpoint where an
    end value or the estimate is not finite), clipped to the bracket.  The
    first sub-interval where the terminal changes sign is kept, at least
    eightfold narrower, and as narrow as the estimate's error when the
    estimate is good, so the passes converge quadratically.  A bracket
    stops once its best probe is within ``defect_tol``.

    Returns (best_s, best_f, first), ``first`` holding one entry per
    lambda.  With ``stop_at_first`` set, every pass also screens its
    probes, all of which lie inside sign-change brackets: the first one of
    a lambda within the confirmation threshold ``_CONFIRM * defect_tol``
    whose marched row ``_positive_row`` accepts ends the search of that
    lambda's brackets, and its ``first`` entry is that row's profile.
    Every other entry is None.
    """
    accept_tol = _CONFIRM * defect_tol
    la = np.log(s_lo)
    lb = np.log(s_hi)
    fa = f_lo.copy()
    fb = f_hi.copy()
    va = np.array(v_lo, dtype=float)
    vb = np.array(v_hi, dtype=float)
    best_s = np.where(np.abs(fa) <= np.abs(fb), s_lo, s_hi)
    best_f = np.where(np.abs(fa) <= np.abs(fb), fa, fb)
    active = np.ones(la.size, dtype=bool)
    first = [None] * len(lams)

    for _ in range(60):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        lo, hi = la[idx, None], lb[idx, None]
        v0, v1 = va[idx, None], vb[idx, None]
        width = hi - lo
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            guess = lo + width * (v0 / (v0 - v1))
        finite = np.isfinite(v0) & np.isfinite(v1) & np.isfinite(guess)
        guess = np.where(finite, guess, lo + 0.5 * width)
        lc = np.sort(np.clip(np.concatenate(
            [lo + width * _REFINE_EIGHTHS, guess + width * _REFINE_GRADES],
            axis=1), lo, hi), axis=1)
        s_c = np.exp(lc)
        lane_of = np.repeat(which[idx], _REFINE_PROBES)
        f_c = np.empty(s_c.shape)
        v_c = np.empty(s_c.shape)
        for start, (terminal, U, Z, crossed, _, blown) in _marches(
                spec, s_c.ravel(), lams[lane_of]):
            f_c.flat[start:start + terminal.size] = terminal
            v_c.flat[start:start + terminal.size] = U[:, -1]
            if not stop_at_first:
                continue
            for j in np.flatnonzero(np.abs(terminal) <= accept_tol):
                k = lane_of[start + j]
                if first[k] is None and _positive_row(
                        spec, terminal[j], U[j], Z[j], crossed[j], blown[j],
                        accept_tol):
                    first[k] = _profile_from_shot(with_lambda(spec, lams[k]),
                                                  U[j], Z[j])

        # Chain endpoint values onto the probe values, then keep the first
        # sign-change cell of each chain as the new bracket.
        chain_l = np.concatenate([la[idx, None], lc], axis=1)
        chain_r = np.concatenate([lc, lb[idx, None]], axis=1)
        chain_fl = np.concatenate([fa[idx, None], f_c], axis=1)
        chain_fr = np.concatenate([f_c, fb[idx, None]], axis=1)
        chain_vl = np.concatenate([va[idx, None], v_c], axis=1)
        chain_vr = np.concatenate([v_c, vb[idx, None]], axis=1)
        flips = chain_fl * chain_fr <= 0.0
        has_flip = np.any(flips, axis=1)
        cut = np.argmax(flips, axis=1)
        rows = np.arange(idx.size)

        la[idx] = chain_l[rows, cut]
        fa[idx] = chain_fl[rows, cut]
        lb[idx] = chain_r[rows, cut]
        fb[idx] = chain_fr[rows, cut]
        va[idx] = chain_vl[rows, cut]
        vb[idx] = chain_vr[rows, cut]

        flat_best = np.argmin(np.abs(f_c), axis=1)
        cand_f = f_c[rows, flat_best]
        cand_s = s_c[rows, flat_best]
        improved = np.abs(cand_f) < np.abs(best_f[idx])
        best_s[idx] = np.where(improved, cand_s, best_s[idx])
        best_f[idx] = np.where(improved, cand_f, best_f[idx])

        found = np.array([first[k] is not None for k in which[idx]], dtype=bool)
        done = (found | ~has_flip
                | (np.abs(best_f[idx]) < defect_tol)
                | (np.abs(lb[idx] - la[idx]) < 1e-14))
        active[idx[done]] = False

    return best_s, best_f, first


def scan_shooting(spec: ProblemSpec, s_max: float, count: int = 60) -> list:
    """Find all positive solutions visible to a log-spaced slope scan.

    Evaluates the terminal defect on ``count`` slopes spread over twelve
    decades up to ``s_max`` (one RK4 step per grid cell), refines every
    sign change to a terminal within 1e-10 times the interval length, drops
    refinements whose terminal stayed above 1e3 times that (tangency
    artifacts), merges near-duplicate roots, and keeps only profiles
    positive on the interior with inward boundary slopes.  Sorted by
    sup-norm; an empty list is a valid outcome.  This is the one-lambda
    case of the scan that sweeps and fold searches run over many lambda
    values at once, each lambda a set of lanes of the same marches.
    """
    return _scan(spec, [spec.lam], s_max, count)[0]


def _scan(spec, lams, s_max, count, stop_at_first=False):
    """Body of ``scan_shooting`` for every lambda of ``lams`` at once.

    Returns one profile list per lambda, each what ``scan_shooting`` of
    ``with_lambda(spec, lam)`` returns: the lambda values are lanes of the
    same marches, bit for bit as if marched alone.  With ``stop_at_first``
    set it serves existence checks: a lambda's refinement ends at its first
    confirmed bracketed root, whose profile comes back alone.  A lambda
    that confirms no probe during the refinement finishes as
    ``scan_shooting`` does.  With no lambda there is nothing to march, and
    the result is empty."""
    if not (0.0 < s_max < math.inf and count >= 2):
        raise ValueError("need a finite s_max > 0 and count >= 2")
    lams = np.asarray(lams, dtype=float)
    if not lams.size:
        return []
    defect_tol = _DEFECT_TOL_REL * (spec.grid.b - spec.grid.a)
    accept_tol = _CONFIRM * defect_tol

    s_grid = np.geomspace(s_max * 1e-12, s_max, count)
    terminal = np.empty((lams.size, count))
    continued = np.empty((lams.size, count))
    for start, out in _marches(spec, np.tile(s_grid, lams.size),
                               np.repeat(lams, count)):
        terminal.flat[start:start + out[0].size] = out[0]
        continued.flat[start:start + out[0].size] = out[1][:, -1]

    which, lo_idx = np.nonzero(terminal[:, :-1] * terminal[:, 1:] < 0.0)
    roots = [list(s_grid[row == 0.0]) for row in terminal]
    first = [None] * lams.size
    if which.size:
        best_s, best_f, first = _refine_brackets(
            spec, lams, which, s_grid[lo_idx], s_grid[lo_idx + 1],
            terminal[which, lo_idx], terminal[which, lo_idx + 1],
            continued[which, lo_idx], continued[which, lo_idx + 1],
            defect_tol, stop_at_first)
        confirmed = np.abs(best_f) <= accept_tol
        for k, r in zip(which[confirmed], best_s[confirmed]):
            roots[k].append(r)

    # Near-duplicate roots merged per lambda; one lane per remaining root.
    lane_s, lane_of = [], []
    for k, found in enumerate(roots):
        if first[k] is not None:
            continue
        for r in sorted(float(r) for r in found):
            if (lane_of and lane_of[-1] == k
                    and abs(r - lane_s[-1]) <= 1e-6 * max(r, lane_s[-1])):
                continue
            lane_s.append(r)
            lane_of.append(k)

    profiles = [[] if p is None else [p] for p in first]
    lane_s, lane_of = np.asarray(lane_s), np.asarray(lane_of, dtype=int)
    for start, (final_term, U, Z, crossed, _, blown) in _marches(
            spec, lane_s, lams[lane_of]):
        for row in range(final_term.size):
            k = lane_of[start + row]
            if _positive_row(spec, final_term[row], U[row], Z[row],
                             crossed[row], blown[row], accept_tol):
                profiles[k].append(_profile_from_shot(
                    with_lambda(spec, lams[k]), U[row], Z[row]))
    for found in profiles:
        found.sort(key=lambda p: sup_norm(p.u))
    return profiles
