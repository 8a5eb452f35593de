"""Parameter sweeps: counting positive solutions across a lambda range.

For each parameter value a shooting scan collects the positive solutions;
the sweep assembles them into branches, estimates where existence stops,
and reports cone membership of every profile.  A separate routine computes
an explicit parameter threshold below which the scan must see a solution
of small norm, which the acceptance checks use as a cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, ConvergenceError
from .grids import GridFunction, dist_to_boundary, integral, sup_norm, support_data
from .homeomorphisms import inverse_saturating
from .linear import SolutionProfile, _in_cone, estimate_comparison_constant
from .nonlinear import _largest_prefix_valid, _scan
from .problems import ProblemSpec


class BranchSolution(NamedTuple):
    sup_norm: float
    initial_slope: float
    in_cone: bool


class BranchPoint(NamedTuple):
    lam: float
    solutions: tuple


@dataclass(frozen=True)
class BranchDiagram:
    """Solutions found per parameter value, plus the estimated threshold."""

    points: tuple
    lambda_star_estimate: float
    spec_snapshot: ProblemSpec


def check_cone_membership(profile: SolutionProfile, n: GridFunction) -> bool:
    """Whether a profile lies in the cone pinned to the support of n.

    The cone condition asks u(x) >= theta * ||u|| * dist(x, boundary), with
    theta the reciprocal-distance constant of the support of n.  Checked
    nodewise with an absolute slack of 1e-8 * (1 + ||u||).
    """
    return _in_cone(profile.u.values, dist_to_boundary(profile.u.grid).values,
                    support_data(n).theta_under)


def compute_lambda1(spec: ProblemSpec, R: float):
    """Explicit threshold below which a positive solution of norm < R exists.

    Requires both envelope triples of g.  Builds the cone-restricted weight
    c2 mu theta^r2 n delta^r2, certifies a comparison constant for it, finds
    the largest t at which the steepness condition phi^{-1}(c t^r2) >= 2t/c
    first takes hold and persists, and warns when R is not safely below that
    onset together with t2.  Returns (lambda1, rho) with rho the norm scale
    at which the balance is struck.
    """
    if not 0.0 < R < math.inf:
        raise ValueError("R must be positive and finite, got %g" % R)
    if spec.g1_constants is None or spec.g2_constants is None:
        raise ConstructionError("threshold computation needs both envelopes of g")
    c1, t1, r1 = spec.g1_constants
    c2, t2, r2 = spec.g2_constants
    grid = spec.grid
    c_om = 0.5 * (grid.b - grid.a)

    data = support_data(spec.n)
    delta = dist_to_boundary(grid)
    h_cone = GridFunction(
        grid,
        c2 * spec.mu * data.theta_under ** r2 * spec.n.values * delta.values ** r2)
    c = estimate_comparison_constant(spec.phi, h_cone)

    t_probe = np.geomspace(1e-8, 1e8, 400)
    holds = inverse_saturating(spec.phi, c * t_probe ** r2) >= 2.0 * t_probe / c
    persistent = np.flatnonzero(holds & (np.cumsum(~holds[::-1])[::-1] == 0))
    t_bar = float(t_probe[persistent[0]]) if persistent.size else math.inf
    if not R <= max(t2, t_bar):
        warnings.warn(
            "norm cap R = %g exceeds both t2 = %g and the steepness onset %g; "
            "the threshold below may not certify existence" % (R, t2, t_bar),
            stacklevel=2)

    N = c1 * integral(spec.n)
    M = integral(spec.m)
    t_samples = np.linspace(0.0, R, 2001)
    C = float(np.max(np.asarray(spec.f(t_samples), dtype=float)))
    if not (C > 0.0 and np.isfinite(C)):
        raise ConstructionError("f carries no positive values below R")

    def margin_holds(t):
        # The float below the difference: >= 0 exactly where phi wins strictly.
        return np.nextafter(spec.phi.forward(t / c_om) - spec.mu * N * t ** r1,
                            -np.inf)

    t_under = _largest_prefix_valid(np.geomspace(1e-12, 1e12, 400),
                                    margin_holds,
                                    "scale at which phi beats the g-term")

    rho = 0.5 * min(t_under, R / 2.0, t1)
    lambda1 = (spec.phi.forward(rho / c_om) - spec.mu * N * rho ** r1) / (M * C)
    if not lambda1 > 0.0:
        raise ConstructionError("threshold came out nonpositive")
    return lambda1, rho


# Relative bracket width at which the fold bisection stops by default.
_FOLD_TOL = 1e-3
# Bisection steps one fold pass looks ahead: the midpoints those steps may
# visit are the lanes of one batched existence scan.
_FOLD_DEPTH = 3
# Fractions of the threshold at which the range below it is spot-checked.
_SPOT_FRACS = (0.7, 0.3, 0.1, 0.03, 0.01)


def _existence(spec_template: ProblemSpec, lams, s_max: float,
               count: int) -> list:
    """Whether ``scan_shooting`` finds a positive solution at each lambda,
    answered by one batched scan that stops each lambda at its first
    confirmed bracketed root."""
    return [bool(found) for found in
            _scan(spec_template, lams, s_max, count, stop_at_first=True)]


def _next_midpoint(lo, hi, tol):
    """The midpoint the bisection visits from (lo, hi), or None once the
    bracket is within ``tol`` relative width or its midpoint rounds onto
    an end."""
    if not hi - lo > tol * lo:
        return None
    mid = 0.5 * (lo + hi)
    return mid if lo < mid < hi else None


def _fold_subtree(lo, hi, tol, depth):
    """Every midpoint the bisection may visit from (lo, hi) in its next
    ``depth`` steps."""
    mid = _next_midpoint(lo, hi, tol) if depth else None
    if mid is None:
        return []
    return [mid, *_fold_subtree(lo, mid, tol, depth - 1),
            *_fold_subtree(mid, hi, tol, depth - 1)]


def _locate_fold(spec_template: ProblemSpec, lo, hi, tol: float,
                 s_max: float, count: int):
    """Bisect a bracket whose ends are known to hold a solution (lo) and
    none (hi), and spot-check the range below the estimate.

    Each pass checks existence at every midpoint of the next
    ``_FOLD_DEPTH`` bisection steps in one batched scan and then takes
    those steps, so the estimate is that of a one-midpoint-at-a-time
    bisection.  A pass after which no midpoint can remain (the bisection
    one step deeper has none either) also carries the spot checks, at
    ``_SPOT_FRACS`` times its lower end: that end holds a solution and
    lies within a relative 2^``_FOLD_DEPTH`` tol of the estimate.  When
    the bisection ends without such a pass (a bracket already within tol
    runs none), the spot checks at those fractions of the estimate get
    their own scan.  Missed spots are retried together at four times the
    slope count.
    """
    spots = []
    while mids := _fold_subtree(lo, hi, tol, _FOLD_DEPTH):
        if len(_fold_subtree(lo, hi, tol, _FOLD_DEPTH + 1)) == len(mids):
            spots = [lo * frac for frac in _SPOT_FRACS]
        found = _existence(spec_template, mids + spots, s_max, count)
        exists = dict(zip(mids, found))
        for _ in range(_FOLD_DEPTH):
            mid = _next_midpoint(lo, hi, tol)
            if mid is None:
                break
            if exists[mid]:
                lo = mid
            else:
                hi = mid
    estimate = 0.5 * (lo + hi)

    if not spots:
        spots = [estimate * frac for frac in _SPOT_FRACS]
        found = _existence(spec_template, spots, s_max, count)
    missed = [lam for lam, hit in zip(spots, found[-len(spots):]) if not hit]
    for lam, found in zip(missed, _existence(spec_template, missed, s_max,
                                             4 * count)):
        if not found:
            raise ConvergenceError(
                "existence gap at lambda = %g below the estimated threshold %g"
                % (lam, estimate))
    return estimate


def lambda_star_bisect(spec_template: ProblemSpec, lo: float, hi: float,
                       tol: float = _FOLD_TOL, s_max: float = 100.0,
                       count: int = 60) -> float:
    """Bisect the existence boundary of the positive-solution set.

    Needs a bracket: the scan must find a solution at ``lo`` and none at
    ``hi``.  Bisection narrows the bracket to relative width ``tol`` (which
    must be positive), or until its midpoint rounds onto an end; the
    estimate is the midpoint.  Both ends must be finite.  The parameter
    range below the estimate is spot-checked for gaps at 0.7, 0.3, 0.1,
    0.03 and 0.01 times the lower end of the last bisection pass, which
    lies within a relative 8 tol of the estimate (a failed probe is
    retried with a four times denser scan before being treated as fatal).
    Every existence check is a scan that stops at its first confirmed
    bracketed root.  The checks run as lambda lanes of batched scans: both
    bracket ends at once, the midpoints of three bisection steps at once
    (in the last pass together with the five spot checks), and the
    retries at once.  A bracket already within ``tol`` takes no step, and
    its spot checks, at those fractions of the estimate, run alone.
    """
    if not (0.0 < lo < hi < math.inf):
        raise ValueError("need 0 < lo < hi < inf")
    if not tol > 0.0:
        raise ValueError("need tol > 0")
    at_lo, at_hi = _existence(spec_template, [lo, hi], s_max, count)
    if not at_lo:
        raise ValueError("no solution found at the lower bracket end lo = %g" % lo)
    if at_hi:
        raise ValueError("a solution still exists at the upper bracket end hi = %g"
                         % hi)
    return _locate_fold(spec_template, lo, hi, tol, s_max, count)


def _branch_point(lam, profiles, n):
    sols = tuple(
        BranchSolution(
            sup_norm=sup_norm(p.u),
            initial_slope=float(p.du.values[0]),
            in_cone=check_cone_membership(p, n),
        )
        for p in profiles)
    return BranchPoint(lam=lam, solutions=sols)


def sweep(spec_template: ProblemSpec, lambda_grid, s_max: float,
          count: int = 60) -> BranchDiagram:
    """Scan every parameter value and assemble the branch diagram.

    All parameter values are scanned together, as lambda lanes of the same
    marches, each with the result ``scan_shooting`` gives at that value.
    When the solution count drops to zero and stays there, the existence
    boundary inside the last transition step is located as
    ``lambda_star_bisect`` locates it (relative width 1e-3, the same spot
    checks riding in its last bisection pass), without checking again the
    two ends the sweep has just scanned.  Interior zero-solution points
    (gaps) are re-tried together with a four times denser scan and
    reported as a warning if they persist.  Every lambda must be positive
    and finite.
    """
    lams = np.sort(np.asarray(lambda_grid, dtype=float))
    if lams.size == 0 or not np.all((lams > 0.0) & (lams < math.inf)):
        raise ValueError("lambda grid must be nonempty, positive and finite")

    n = spec_template.n
    points = [_branch_point(lam, found, n) for lam, found in
              zip(lams, _scan(spec_template, lams, s_max, count))]

    counts = [len(p.solutions) for p in points]
    nonempty = [i for i, c in enumerate(counts) if c > 0]

    lambda_star = math.nan
    if nonempty and nonempty[-1] + 1 < len(points):
        i = nonempty[-1]
        lambda_star = _locate_fold(spec_template, points[i].lam,
                                   points[i + 1].lam, _FOLD_TOL, s_max, count)

    gaps = [i for i in range(nonempty[0], nonempty[-1])
            if counts[i] == 0] if nonempty else []
    for i, found in zip(gaps, _scan(spec_template, lams[gaps], s_max,
                                    4 * count)):
        if found:
            points[i] = _branch_point(lams[i], found, n)
        else:
            warnings.warn(
                "no solution found at lambda = %g although neighbors "
                "have some; scan resolution may be too coarse"
                % points[i].lam, stacklevel=2)

    return BranchDiagram(points=tuple(points), lambda_star_estimate=lambda_star,
                         spec_snapshot=spec_template)
