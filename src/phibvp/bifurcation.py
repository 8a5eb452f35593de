"""Parameter sweeps: counting positive solutions across a lambda range.

For each parameter value a shooting scan collects the positive solutions;
the sweep assembles them into branches, estimates where existence stops,
and reports cone membership of every profile.  A separate routine computes
an explicit parameter threshold below which the scan must see a solution
of small norm, which the acceptance checks use as a cross-check.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConstructionError, ConvergenceError
from .grids import GridFunction, dist_to_boundary, integral, sup_norm, support_data
from .homeomorphisms import inverse_saturating
from .linear import SolutionProfile, estimate_comparison_constant
from .nonlinear import _largest_prefix_valid, scan_shooting
from .problems import ProblemSpec, with_lambda


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


def check_cone_membership(profile: SolutionProfile, n: GridFunction,
                          slack: Optional[float] = None) -> bool:
    """Whether a profile lies in the cone pinned to the support of n.

    The cone condition asks u(x) >= theta * ||u|| * dist(x, boundary), with
    theta the reciprocal-distance constant of the support of n.  Checked
    nodewise with an absolute slack (default 1e-8 * (1 + ||u||)).
    """
    data = support_data(n)
    norm = sup_norm(profile.u)
    if slack is None:
        slack = 1e-8 * (1.0 + norm)
    delta = dist_to_boundary(profile.u.grid)
    floor = data.theta_under * norm * delta.values
    return bool(np.all(profile.u.values >= floor - slack))


def compute_lambda1(spec: ProblemSpec, R: float):
    """Explicit threshold below which a positive solution of norm < R exists.

    Requires both envelope triples of g.  Builds the cone-restricted weight
    c2 mu theta^r2 n delta^r2, certifies a comparison constant for it, finds
    the largest t at which the steepness condition phi^{-1}(c t^r2) >= 2t/c
    first takes hold and persists, and warns when R is not safely below that
    onset together with t2.  Returns (lambda1, rho) with rho the norm scale
    at which the balance is struck.
    """
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
        return spec.phi.forward(t / c_om) > spec.mu * N * t ** r1

    t_under = _largest_prefix_valid(np.geomspace(1e-12, 1e12, 400),
                                    margin_holds,
                                    "scale at which phi beats the g-term")

    rho = 0.5 * min(t_under, R / 2.0, t1)
    lambda1 = (spec.phi.forward(rho / c_om) - spec.mu * N * rho ** r1) / (M * C)
    if not lambda1 > 0.0:
        raise ConstructionError("threshold came out nonpositive")
    return lambda1, rho


def _exists(spec_template: ProblemSpec, lam: float, s_max: float,
            count: int) -> bool:
    return bool(scan_shooting(with_lambda(spec_template, lam), s_max, count))


def lambda_star_bisect(spec_template: ProblemSpec, lo: float, hi: float,
                       tol: float = 1e-3, s_max: float = 100.0,
                       count: int = 60) -> float:
    """Bisect the existence boundary of the positive-solution set.

    Needs a bracket: the scan must find a solution at ``lo`` and none at
    ``hi``.  Bisection narrows the bracket to relative width ``tol``; the
    estimate is the midpoint.  The parameter range below the estimate is
    then spot-checked for gaps (a failed probe is retried with a four times
    denser scan before being treated as fatal).
    """
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    if not _exists(spec_template, lo, s_max, count):
        raise ValueError("no solution found at the lower bracket end lo = %g" % lo)
    if _exists(spec_template, hi, s_max, count):
        raise ValueError("a solution still exists at the upper bracket end hi = %g"
                         % hi)
    while hi - lo > tol * lo:
        mid = 0.5 * (lo + hi)
        if _exists(spec_template, mid, s_max, count):
            lo = mid
        else:
            hi = mid
    estimate = 0.5 * (lo + hi)

    for frac in (0.7, 0.3, 0.1, 0.03, 0.01):
        lam = estimate * frac
        if _exists(spec_template, lam, s_max, count):
            continue
        if _exists(spec_template, lam, s_max, 4 * count):
            continue
        raise ConvergenceError(
            "existence gap at lambda = %g below the estimated threshold %g"
            % (lam, estimate))
    return estimate


def _scan_point(spec_template, lam, s_max, count):
    spec = with_lambda(spec_template, lam)
    profiles = scan_shooting(spec, s_max, count)
    sols = tuple(
        BranchSolution(
            sup_norm=sup_norm(p.u),
            initial_slope=float(p.du.values[0]),
            in_cone=check_cone_membership(p, spec.n),
        )
        for p in profiles)
    return BranchPoint(lam=lam, solutions=sols)


def sweep(spec_template: ProblemSpec, lambda_grid, s_max: float,
          count: int = 60) -> BranchDiagram:
    """Scan every parameter value and assemble the branch diagram.

    Points are scanned in ascending lambda order (optionally in a thread
    pool sized by the PHI_BVP_THREADS environment variable; results are
    merged in order either way).  When the solution count drops to zero and
    stays there, the existence boundary inside the last transition step is
    located by bisection; interior zero-solution points (gaps) are re-tried
    with a denser scan and reported as a warning if they persist.
    """
    lams = np.sort(np.asarray(lambda_grid, dtype=float))
    if lams.size == 0 or not np.all(lams > 0.0):
        raise ValueError("lambda grid must be nonempty and positive")

    threads = int(os.environ.get("PHI_BVP_THREADS", "1") or "1")
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            points = list(pool.map(
                lambda lam: _scan_point(spec_template, lam, s_max, count), lams))
    else:
        points = [_scan_point(spec_template, lam, s_max, count) for lam in lams]

    counts = [len(p.solutions) for p in points]
    nonempty = [i for i, c in enumerate(counts) if c > 0]

    lambda_star = math.nan
    if nonempty and nonempty[-1] + 1 < len(points):
        i = nonempty[-1]
        lambda_star = lambda_star_bisect(
            spec_template, points[i].lam, points[i + 1].lam,
            s_max=s_max, count=count)

    if nonempty:
        first, last = nonempty[0], nonempty[-1]
        for i in range(first, last + 1):
            if counts[i] == 0:
                retry = _scan_point(spec_template, points[i].lam, s_max, 4 * count)
                if retry.solutions:
                    points[i] = retry
                else:
                    warnings.warn(
                        "no solution found at lambda = %g although neighbors "
                        "have some; scan resolution may be too coarse"
                        % points[i].lam, stacklevel=2)

    return BranchDiagram(points=tuple(points), lambda_star_estimate=lambda_star,
                         spec_snapshot=spec_template)
