"""Sub/supersolution construction, verification, bracketing iteration, shooting.

The supersolution is the solved profile of a constant multiple of m + n; the
subsolution is the solved profile of a small multiple of m times a power of
the distance to the boundary.  Both are verified against the discrete form
of the differential inequality.  Between an ordered verified pair, a clamped
Picard iteration converges to a solution.  Independently, a shooting
integrator turns every positive solution into a root of the terminal-defect
map s -> u(b; s), which a scanning routine brackets and refines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConstructionError, ConvergenceError, ZeroWeightError
from .grids import (GridFunction, cumulative_trapezoid_values, dist_to_boundary,
                    integral, sup_norm)
from .homeomorphisms import _odd_inverse_fn, inverse_saturating
from .linear import SolutionProfile, solve_linear
from .problems import ProblemSpec, rhs


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
    corner_set: tuple = ()


def _cell_means(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values[:-1] + values[1:])


def _verify_profile(spec: ProblemSpec, profile: SolutionProfile, slack: float,
                    corners, sense: int) -> VerifyResult:
    """Shared body of the two verifiers; sense +1 checks a supersolution."""
    grid = spec.grid
    x = grid.nodes
    widths = grid.cell_widths
    u = profile.u.values
    du = profile.du.values

    plus = GridFunction(grid, np.maximum(u, 0.0))
    forcing = rhs(spec, plus).values
    cell_rhs = _cell_means(forcing)

    p = spec.phi.forward(du)
    ode_lhs = -np.diff(p) / widths
    if sense > 0:
        cell_viol = cell_rhs - ode_lhs
        boundary_viol = max(-u[0], -u[-1])
    else:
        cell_viol = ode_lhs - cell_rhs
        boundary_viol = max(u[0], u[-1])

    corner_viol = 0.0
    corner_cells = []
    for tau in corners:
        j = int(np.clip(np.searchsorted(x, tau) - 1, 0, grid.count - 2))
        corner_cells.append(j)
        jump = du[j + 1] - du[j]
        corner_viol = max(corner_viol, sense * jump)
    # A corner-bearing cell carries a flux jump of the favorable sign, so
    # the plain difference quotient on it still bounds the defect; the cell
    # check stays active there on purpose.

    raw = max(float(np.max(cell_viol)), boundary_viol, corner_viol)
    return VerifyResult(passed=raw <= slack,
                        max_violation=raw if raw > 0.0 else 0.0)


def verify_supersolution(spec: ProblemSpec, w: SolutionProfile,
                         slack: float = 1e-9, corners=()) -> VerifyResult:
    """Check the discrete supersolution inequalities for a profile.

    Cellwise, the decrease of phi(w') across each cell must dominate the
    cell-averaged right-hand side evaluated at w; the boundary values must
    be nonnegative; and at each corner location the slope must drop.  The
    result reports the worst violation in natural units (defect per unit
    length for cells, value for boundaries, slope gap for corners).
    """
    return _verify_profile(spec, w, slack, corners, sense=+1)


def verify_subsolution(spec: ProblemSpec, v: SolutionProfile,
                       slack: float = 1e-9, corners=()) -> VerifyResult:
    """Mirror image of ``verify_supersolution`` with all inequalities reversed."""
    return _verify_profile(spec, v, slack, corners, sense=-1)


def _largest_prefix_valid(grid_points: np.ndarray, cond, what: str) -> float:
    """Largest point of a log grid below the first failure of ``cond``,
    sharpened by bisection between the last pass and the first failure.

    ``cond`` maps an array of positive candidates to a boolean array.  The
    searched conditions are limit statements that hold near zero, so the
    feasible set is treated as a prefix of the grid.
    """
    ok = np.asarray(cond(grid_points), dtype=bool)
    if not ok[0]:
        raise ConstructionError("no feasible %s even at the bottom of the scan range"
                                % what)
    fails = np.flatnonzero(~ok)
    if fails.size == 0:
        return float(grid_points[-1])
    j = int(fails[0])
    lo, hi = float(grid_points[j - 1]), float(grid_points[j])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bool(cond(np.asarray([mid]))[0]):
            lo = mid
        else:
            hi = mid
    return lo


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
        lhs = inverse_saturating(spec.phi, kappa * rho) ** r1
        return lhs <= kappa * eps

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
                      upper: Optional[SolutionProfile] = None) -> SubsolutionResult:
    """Construct the subsolution profile v solving with forcing eps * m * delta^q.

    Uses the near-zero envelope of f and a comparison constant certified for
    the weight m * delta^q.  The scale eps is half the smaller of two caps:
    eps0 keeps the profile below t0, eps1 keeps the inverse-growth condition
    [phi^{-1}(eps * rho')]^q >= M eps with M = 1/(lam c0 c^q).  When the
    certificate does not cover the M actually needed, the constant is
    re-estimated on a grid around that M (a few rounds at most).  If
    ``upper`` is given, eps is halved until the profile lies below it.
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

    from .linear import estimate_comparison_constant, verify_comparison_constant

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
        lhs = inverse_saturating(spec.phi, e * rho_p) ** q
        return lhs >= M * e

    eps1 = _largest_prefix_valid(np.geomspace(1e-16, max(eps0, 1.0) * 10.0, 400),
                                 steep_enough, "subsolution scale")
    eps = 0.5 * min(eps0, eps1)

    v = solve_linear(spec.phi, GridFunction(grid, eps * h_base.values))
    if upper is not None:
        for _ in range(50):
            if np.all(v.u.values <= upper.u.values):
                break
            eps *= 0.5
            v = solve_linear(spec.phi, GridFunction(grid, eps * h_base.values))
        else:
            raise ConstructionError("could not order the subsolution below the "
                                    "given profile by halving its scale")
    return SubsolutionResult(v=v, epsilon=eps)


def make_sub_super_pair(spec: ProblemSpec,
                        comparison_constant: Optional[float] = None) -> SubSuperPair:
    """Build, order, and verify a subsolution/supersolution pair."""
    from .linear import estimate_comparison_constant

    sup = build_supersolution(spec)
    if comparison_constant is None:
        c0, t0, q = spec.f_constants
        delta = dist_to_boundary(spec.grid)
        h_base = GridFunction(spec.grid, spec.m.values * delta.values ** q)
        comparison_constant = estimate_comparison_constant(spec.phi, h_base)
    sub = build_subsolution(spec, comparison_constant, upper=sup.w)
    ok_sub = verify_subsolution(spec, sub.v)
    ok_sup = verify_supersolution(spec, sup.w)
    if not (ok_sub.passed and ok_sup.passed):
        raise ConstructionError(
            "constructed pair failed verification (violations %g / %g)"
            % (ok_sub.max_violation, ok_sup.max_violation))
    return SubSuperPair(sub=sub.v, super=sup.w, kappa_lambda=sup.kappa_lambda,
                        epsilon=sub.epsilon, lambda0=sup.lambda0)


def solve_between(spec: ProblemSpec, v: SolutionProfile, w: SolutionProfile,
                  max_iter: int = 200, tol: float = 1e-8,
                  history: Optional[list] = None) -> SolutionProfile:
    """Picard iteration clamped to an ordered profile pair.

    Each step solves the linear problem with the right-hand side evaluated
    at the previous iterate clamped into [v, w]; the start is v itself.
    When f and g are nondecreasing the clamp never activates and the
    iterates increase monotonically.  Stops when the sup-norm gap between
    consecutive iterates falls below ``tol`` and the integrated-form defect
    (the change in the cumulative right-hand side between the last two
    iterates) falls below 10 * tol; that defect becomes the profile's
    residual.  ``history``, when given, collects the iterate sup-norms.
    Raises ``ConvergenceError`` carrying the last iterate otherwise.
    """
    lo = v.u.values
    hi = w.u.values
    scale = 1.0 + float(np.max(np.abs(hi)))
    if np.any(lo > hi + 1e-12 * scale):
        raise ValueError("the profile pair is not ordered: v must lie below w")

    grid = spec.grid

    def clamped_forcing(values):
        clipped = np.minimum(np.maximum(values, lo), hi)
        return rhs(spec, GridFunction(grid, np.maximum(clipped, 0.0)))

    current = v
    forcing = clamped_forcing(current.u.values)
    gap = math.inf
    for iteration in range(1, max_iter + 1):
        nxt = solve_linear(spec.phi, forcing)
        gap = float(np.max(np.abs(nxt.u.values - current.u.values)))
        next_forcing = clamped_forcing(nxt.u.values)
        defect = float(np.max(np.abs(
            cumulative_trapezoid_values(grid, next_forcing.values)
            - cumulative_trapezoid_values(grid, forcing.values))))
        if history is not None:
            history.append(sup_norm(nxt.u))
        if gap < tol and defect < 10.0 * tol:
            return replace(nxt, residual=max(nxt.residual, defect))
        current, forcing = nxt, next_forcing
    raise ConvergenceError(
        "bracketed iteration did not converge in %d steps (gap %g)"
        % (max_iter, gap), gap=gap, iterations=max_iter, profile=current)


_BLOWUP_STATE = 1e12
_BLOWUP_FLUX = 1e300


def _shoot_batch(spec: ProblemSpec, s_values, step: Optional[float] = None):
    """March the shooting system for a batch of initial slopes at once.

    Returns (terminal, U, Z, crossed, x_cross, blown).  U and Z hold the
    state and the flux phi(u') at every grid node per lane.  A lane that
    hits zero keeps integrating (the clamped right-hand side vanishes below
    zero), but its first crossing location is recorded and its terminal
    value becomes -(b - x_cross).  Lanes whose state leaves the overflow
    guard freeze at their last finite state.
    """
    grid = spec.grid
    x = grid.nodes
    widths = grid.cell_widths
    phi = spec.phi
    lam, mu = spec.lam, spec.mu
    f, g = spec.f, spec.g
    m_c = _cell_means(spec.m.values)
    n_c = _cell_means(spec.n.values)

    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    lanes = s.size
    u = np.zeros(lanes)
    z = np.atleast_1d(np.asarray(phi.forward(s), dtype=float)).copy()

    U = np.empty((lanes, grid.count))
    Z = np.empty((lanes, grid.count))
    U[:, 0] = u
    Z[:, 0] = z
    crossed = np.zeros(lanes, dtype=bool)
    x_cross = np.full(lanes, np.nan)
    blown = np.zeros(lanes, dtype=bool)

    if step is None:
        n_sub = 1
    else:
        n_sub = max(1, int(math.ceil(float(np.max(widths)) / step)))

    # Bound once, outside the public entries: their per-call scalar
    # handling and error state would dominate the per-stage cost on small
    # lane counts, and the loop below already runs under one errstate.
    inv_odd = _odd_inverse_fn(phi, "inf")

    def derivs(u_, z_, mc, nc):
        up = np.maximum(u_, 0.0)
        du_ = inv_odd(z_)
        dz_ = -(mc * np.asarray(f(up), dtype=float)
                + nc * np.asarray(g(up), dtype=float))
        return du_, dz_

    def rk4(u_, z_, h, mc, nc):
        k1u, k1z = derivs(u_, z_, mc, nc)
        k2u, k2z = derivs(u_ + 0.5 * h * k1u, z_ + 0.5 * h * k1z, mc, nc)
        k3u, k3z = derivs(u_ + 0.5 * h * k2u, z_ + 0.5 * h * k2z, mc, nc)
        k4u, k4z = derivs(u_ + h * k3u, z_ + h * k3z, mc, nc)
        u_new = u_ + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        z_new = z_ + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        return u_new, z_new

    lm = lam * m_c
    mn = mu * n_c

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(grid.count - 1):
            h_sub = widths[i] / n_sub
            mc, nc = lm[i], mn[i]
            for k in range(n_sub):
                u0 = u
                z0 = z
                u1, z1 = rk4(u0, z0, h_sub, mc, nc)
                bad = (~blown) & (~np.isfinite(u1) | ~np.isfinite(z1)
                                  | (np.abs(u1) > _BLOWUP_STATE)
                                  | (np.abs(z1) > _BLOWUP_FLUX))
                keep = blown | bad
                u = np.where(keep, u0, u1)
                z = np.where(keep, z0, z1)
                blown = blown | bad

                hits = (~blown) & (~crossed) & (u0 >= 0.0) & (u < 0.0)
                if np.any(hits):
                    idx = np.flatnonzero(hits)
                    lo = np.zeros(idx.size)
                    hi = np.ones(idx.size)
                    for _ in range(45):
                        mid = 0.5 * (lo + hi)
                        um, _ = rk4(u0[idx], z0[idx], mid * h_sub, mc, nc)
                        above = um >= 0.0
                        lo = np.where(above, mid, lo)
                        hi = np.where(above, hi, mid)
                    theta = 0.5 * (lo + hi)
                    x_cross[idx] = x[i] + k * h_sub + theta * h_sub
                    crossed[idx] = True
            U[:, i + 1] = u
            Z[:, i + 1] = z

    terminal = np.where(crossed, -(grid.b - x_cross), u)
    return terminal, U, Z, crossed, x_cross, blown


def _integrated_defect(spec: ProblemSpec, u_nodes: np.ndarray,
                       z_nodes: np.ndarray, refine: int = 16) -> float:
    """Defect of the flux identity z(x) - z(a) + integral of the right-hand
    side, normalized by 1 + |z(a)|.

    The integral is taken over a per-cell refinement of the linear
    interpolant of u, with the same frozen cell weights the integrator used.
    """
    grid = spec.grid
    widths = grid.cell_widths
    m_c = _cell_means(spec.m.values)
    n_c = _cell_means(spec.n.values)
    frac = np.linspace(0.0, 1.0, refine + 1)
    u_cells = u_nodes[:-1, None] + (np.diff(u_nodes))[:, None] * frac[None, :]
    up = np.maximum(u_cells, 0.0)
    vals = (spec.lam * m_c[:, None] * np.asarray(spec.f(up), dtype=float)
            + spec.mu * n_c[:, None] * np.asarray(spec.g(up), dtype=float))
    inner = np.sum(vals, axis=1) - 0.5 * (vals[:, 0] + vals[:, -1])
    cell_int = (widths / refine) * inner
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


def shoot(spec: ProblemSpec, s: float, step: Optional[float] = None) -> ShootResult:
    """Integrate from the left endpoint with initial slope s.

    The state system is u' = phi^{-1}(z), z' = -(lam m f(u+) + mu n g(u+))
    with the weights frozen per cell at their endpoint mean, one classical
    fourth-order step per cell (or uniform substeps of size at most
    ``step``).  The terminal value is u(b) when the lane stays nonnegative,
    otherwise the negated distance from the first zero crossing to b.
    """
    if not s > 0.0:
        raise ValueError("initial slope must be positive")
    terminal, U, Z, crossed, _, blown = _shoot_batch(spec, [s], step)
    if blown[0]:
        raise ConvergenceError("shooting state exceeded the overflow guard")
    profile = _profile_from_shot(spec, U[0], Z[0])
    return ShootResult(terminal=float(terminal[0]), profile=profile,
                       crossed=bool(crossed[0]))


def _terminal_only(spec, s_array, step):
    terminal, _, _, _, _, _ = _shoot_batch(spec, s_array, step)
    return terminal


_REFINE_PROBES = 15


def _refine_brackets(spec, s_lo, s_hi, f_lo, f_hi, defect_tol, step):
    """Shrink sign-change brackets in log-s space, batched across brackets.

    Each round integrates a batch of interior probes for every active
    bracket in a single marching pass (the pass cost is dominated by the
    cell loop, not by the lane count) and keeps the sub-interval where the
    terminal value changes sign, narrowing every bracket by a factor of
    ``_REFINE_PROBES + 1`` per pass.
    """
    la = np.log(s_lo)
    lb = np.log(s_hi)
    fa = f_lo.copy()
    fb = f_hi.copy()
    best_s = np.where(np.abs(fa) <= np.abs(fb), s_lo, s_hi)
    best_f = np.where(np.abs(fa) <= np.abs(fb), fa, fb)
    active = np.ones(la.size, dtype=bool)
    frac = np.arange(1, _REFINE_PROBES + 1) / (_REFINE_PROBES + 1.0)

    for _ in range(60):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        lc = la[idx, None] + (lb - la)[idx, None] * frac[None, :]
        s_c = np.exp(lc)
        f_c = _terminal_only(spec, s_c.ravel(), step).reshape(s_c.shape)

        # Chain endpoint values onto the probe values, then keep the first
        # sign-change cell of each chain as the new bracket.
        chain_l = np.concatenate([la[idx, None], lc], axis=1)
        chain_r = np.concatenate([lc, lb[idx, None]], axis=1)
        chain_fl = np.concatenate([fa[idx, None], f_c], axis=1)
        chain_fr = np.concatenate([f_c, fb[idx, None]], axis=1)
        flips = chain_fl * chain_fr <= 0.0
        has_flip = np.any(flips, axis=1)
        first = np.argmax(flips, axis=1)
        rows = np.arange(idx.size)

        la[idx] = chain_l[rows, first]
        fa[idx] = chain_fl[rows, first]
        lb[idx] = chain_r[rows, first]
        fb[idx] = chain_fr[rows, first]

        flat_best = np.argmin(np.abs(f_c), axis=1)
        cand_f = f_c[rows, flat_best]
        cand_s = s_c[rows, flat_best]
        improved = np.abs(cand_f) < np.abs(best_f[idx])
        best_s[idx] = np.where(improved, cand_s, best_s[idx])
        best_f[idx] = np.where(improved, cand_f, best_f[idx])

        done = (~has_flip
                | (np.abs(best_f[idx]) < defect_tol)
                | (np.abs(lb[idx] - la[idx]) < 1e-14))
        active[idx[done]] = False

    return best_s, best_f


def scan_shooting(spec: ProblemSpec, s_max: float, count: int = 60,
                  defect_tol: Optional[float] = None,
                  step: Optional[float] = None) -> list:
    """Find all positive solutions visible to a log-spaced slope scan.

    Evaluates the terminal defect on ``count`` slopes spread over twelve
    decades up to ``s_max``, refines every sign change, drops refinements
    whose defect stayed large (tangency artifacts), merges near-duplicate
    roots, and keeps only profiles positive on the interior with inward
    boundary slopes.  Sorted by sup-norm; an empty list is a valid outcome.
    """
    if not (s_max > 0.0 and count >= 2):
        raise ValueError("need s_max > 0 and count >= 2")
    span = spec.grid.b - spec.grid.a
    if defect_tol is None:
        defect_tol = 1e-10 * span

    s_grid = np.geomspace(s_max * 1e-12, s_max, count)
    terminal = _terminal_only(spec, s_grid, step)

    sign_change = terminal[:-1] * terminal[1:] < 0.0
    lo_idx = np.flatnonzero(sign_change)
    roots = list(s_grid[np.flatnonzero(terminal == 0.0)])
    if lo_idx.size:
        best_s, best_f = _refine_brackets(
            spec, s_grid[lo_idx], s_grid[lo_idx + 1],
            terminal[lo_idx], terminal[lo_idx + 1], defect_tol, step)
        confirmed = np.abs(best_f) <= 1e3 * defect_tol
        roots.extend(best_s[confirmed])

    roots = sorted(float(r) for r in roots)
    deduped = []
    for r in roots:
        if deduped and abs(r - deduped[-1]) <= 1e-6 * max(r, deduped[-1]):
            continue
        deduped.append(r)
    if not deduped:
        return []

    final_term, U, Z, crossed, _, blown = _shoot_batch(spec, np.asarray(deduped), step)
    profiles = []
    for row, (u_nodes, z_nodes) in enumerate(zip(U, Z)):
        if blown[row]:
            continue
        # A refined root may land a hair on the crossing side; keep it when
        # the crossing sits within the acceptance tolerance of the endpoint.
        if crossed[row] and abs(float(final_term[row])) > 1e3 * defect_tol:
            continue
        profile = _profile_from_shot(spec, u_nodes, z_nodes)
        du = profile.du.values
        interior_positive = bool(np.all(u_nodes[1:-1] > 0.0))
        if interior_positive and du[0] > 0.0 > du[-1]:
            profiles.append(profile)
    profiles.sort(key=lambda p: sup_norm(p.u))
    return profiles
