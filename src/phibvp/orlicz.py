"""Growth-index estimation for homeomorphisms.

The central object is the growth ratio M(t) = sup over x > 0 of
phi(t x) / phi(x).  Its logarithmic slopes as t tends to 0 and to infinity
are the lower and upper growth exponents; they control doubling behavior,
two-sided power comparisons, and the limits t^q / phi(t) at both ends of
the line.  Everything here works on fixed, documented discretizations so
results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .homeomorphisms import (Homeomorphism, _reciprocal_index,
                             inverse_homeomorphism)

_GRID_POINTS = 10 ** 4
_LN2 = math.log(2.0)
# A finite ratio this large is read as an escaping supremum: genuine
# power-type maps never get near it on dyadic t up to 2**40.
_SATURATION_RATIO = 1e100
_BIG = math.log(1e6)
_TINY_NORMAL = float(np.finfo(float).tiny)


class LimitClass(Enum):
    ZERO = "zero"
    INFINITE = "infinite"
    FINITE_POSITIVE = "finite_positive"
    INDETERMINATE = "indeterminate"


class HypothesisVerdict(Enum):
    HOLDS_BY_INDEX = "holds_by_index"
    HOLDS_BY_LIMIT_CHECK = "holds_by_limit_check"
    FAILS_BY_LIMIT_CHECK = "fails_by_limit_check"
    UNDECIDED = "undecided"


def representable_x_grid(phi: Homeomorphism, points: int = _GRID_POINTS) -> np.ndarray:
    """Log-spaced grid spanning the decades where phi is finite and positive,
    starting no lower than the smallest normal float: below it x itself is
    quantized, and for an inverse map so are the targets it inverts."""
    px, _ = phi._probe_ladder()
    return np.geomspace(max(float(px[0]), _TINY_NORMAL), px[-1], points)


def growth_ratio(phi: Homeomorphism, t: float, x_grid=None) -> float:
    """Largest sampled value of phi(t x) / phi(x); equals 1 at t = 1.

    Lanes whose numerator is not finite are dropped (they reflect float
    range, not the map), and so are lanes where either factor lands in the
    subnormal range, where quantization can inflate a ratio by a factor of
    two and poison the supremum.  A ratio that overflows with both factors
    finite and normal is kept as inf, since it is genuine evidence of an
    escaping supremum.  Returns inf when no lane is usable at all.
    """
    t = float(t)
    if not (t > 0.0 and np.isfinite(t)):
        raise ValueError("growth ratio needs a positive finite t")
    if x_grid is None:
        x_grid = representable_x_grid(phi)
    x = np.asarray(x_grid, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("x_grid must be positive and finite")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num = np.asarray(phi.forward(t * x), dtype=float)
        den = np.asarray(phi.forward(x), dtype=float)
        valid = (np.isfinite(num) & ((num == 0.0) | (num >= _TINY_NORMAL))
                 & np.isfinite(den) & (den >= _TINY_NORMAL))
        if not np.any(valid):
            return math.inf
        return float(np.max(num[valid] / den[valid]))


@dataclass(frozen=True)
class IndexEstimate:
    """Fitted growth exponents with the dyadic ranges and fit quality used.

    ``beta_hat`` may be ``inf``: that is a reported state meaning the
    large-t slope sequence escapes, and downstream comparisons treat it as
    larger than every finite exponent.
    """

    alpha_hat: float
    beta_hat: float
    t_small_range: tuple
    t_large_range: tuple
    fit_residual: float

    def __post_init__(self):
        if not self.alpha_hat >= 0.0:
            raise ValueError("lower exponent estimate must be nonnegative")
        if self.alpha_hat > self.beta_hat + 2.0 * self.fit_residual + 1e-9:
            raise ValueError("exponent estimates are out of order beyond fit slack")


def _ls_slope(x: np.ndarray, y: np.ndarray):
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), rms


def estimate_indices(phi: Homeomorphism, k_min: int = 12, k_max: int = 40,
                     fit_points: int = 12) -> IndexEstimate:
    """Estimate both growth exponents from dyadic samples of the growth ratio.

    The lower exponent is the least-squares slope of ln M(t) against ln t
    over t = 2^-k for the deepest ``fit_points`` values of k; the upper
    exponent is fitted the same way over t = 2^k.  The upper one is
    reported as inf when the ratio saturates (a non-finite or absurdly
    large sample) or when the slope still grows across the window, both of
    which signal faster-than-power growth.  A lower slope under 0.02 is
    snapped to exactly 0: at that size it is indistinguishable from the
    logarithmic corrections of a zero-exponent map.
    """
    if not (k_min >= 1 and k_max > k_min and fit_points >= 2):
        raise ValueError("need 1 <= k_min < k_max and at least two fit points")
    fit_points = min(fit_points, k_max - k_min + 1)
    grid = representable_x_grid(phi)
    ks = np.arange(k_min, k_max + 1)

    m_small = np.array([growth_ratio(phi, 2.0 ** (-k), grid) for k in ks])
    m_large = np.array([growth_ratio(phi, 2.0 ** k, grid) for k in ks])

    ln_t_small = -ks * _LN2
    alpha_raw, alpha_rms = _ls_slope(ln_t_small[-fit_points:],
                                     np.log(m_small[-fit_points:]))
    alpha_hat = 0.0 if alpha_raw < 0.02 else alpha_raw

    saturated = bool(np.any(~np.isfinite(m_large))
                     or np.any(m_large > _SATURATION_RATIO))
    if saturated:
        beta_hat, beta_rms = math.inf, 0.0
    else:
        ln_t_large = ks * _LN2
        ln_m = np.log(m_large)
        half = ks.size // 2
        slope_early, _ = _ls_slope(ln_t_large[:half], ln_m[:half])
        slope_late_full, _ = _ls_slope(ln_t_large[half:], ln_m[half:])
        if slope_late_full - slope_early > 0.5:
            beta_hat, beta_rms = math.inf, 0.0
        else:
            beta_hat, beta_rms = _ls_slope(ln_t_large[-fit_points:],
                                           ln_m[-fit_points:])

    return IndexEstimate(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        t_small_range=(2.0 ** (-k_max), 2.0 ** (-k_min)),
        t_large_range=(2.0 ** k_min, 2.0 ** k_max),
        fit_residual=max(alpha_rms, beta_rms),
    )


class Delta2Result(NamedTuple):
    holds: bool
    k_hat: float


def _doubling_sup(phi: Homeomorphism, x: np.ndarray) -> float:
    """Supremum of phi(2x)/phi(x) with overflow kept as inf on purpose."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num = np.asarray(phi.forward(2.0 * x), dtype=float)
        den = np.asarray(phi.forward(x), dtype=float)
    valid = np.isfinite(den) & (den > 0.0) & ~np.isnan(num)
    if not np.any(valid):
        return math.inf
    return float(np.max(num[valid] / den[valid]))


def check_delta2(phi: Homeomorphism, x_grid=None) -> Delta2Result:
    """Test the doubling condition phi(2x) <= k phi(x).

    The doubling constant is sampled on the grid and again on a grid whose
    range is extended tenfold at both ends; the condition is reported to
    hold when both samples are finite and the extension grows the constant
    by less than a factor of two.  Exponential-type maps blow past both
    gates; power-log maps settle immediately.
    """
    if x_grid is None:
        x_grid = np.geomspace(1e-8, 1e8, _GRID_POINTS)
    x = np.asarray(x_grid, dtype=float)
    base = _doubling_sup(phi, x)
    ext = np.geomspace(x[0] / 10.0, x[-1] * 10.0, x.size)
    k_ext = _doubling_sup(phi, ext)
    holds = bool(np.isfinite(base) and np.isfinite(k_ext) and k_ext <= 2.0 * base)
    return Delta2Result(holds=holds, k_hat=k_ext if np.isfinite(k_ext) else math.inf)


class PhiConditionReport(NamedTuple):
    phi_cond: bool
    psi1: Optional[str]
    psi2: Optional[str]
    phi_prime_cond: bool
    constant: float
    p: float
    q: float


def check_phi_conditions(phi: Homeomorphism, x_grid=None, t_grid=None,
                         estimate: Optional[IndexEstimate] = None) -> PhiConditionReport:
    """Search for a two-sided power comparison around phi.

    With exponent estimates 0 < alpha_hat <= beta_hat < inf, sets
    p = alpha_hat - 0.05 and q = beta_hat + 0.05 and looks for the least
    constant C <= 1e6 with

        min(t^p, t^q) phi(x) / C  <=  phi(t x)  <=  C max(t^p, t^q) phi(x)

    over the sampled (t, x) pairs.  Success returns the comparison pair as
    descriptor strings; a zero lower estimate or an unbounded upper one
    reports failure immediately, since no power pair can work.

    ``phi_prime_cond`` is the relaxed variant that keeps the power-pair
    lower inequality but only asks for some finite majorant on the upper
    side, namely the tabulated supremum of the ratio itself; the two
    verdicts are expected to agree on honest power-comparable maps.
    """
    est = estimate if estimate is not None else estimate_indices(phi)
    a, b = est.alpha_hat, est.beta_hat
    # The ordering check tolerates rounding at the last digit of the fits;
    # anything beyond that genuinely disqualifies a power comparison.
    if not (a > 0.0 and np.isfinite(b) and a <= b + 1e-9):
        return PhiConditionReport(False, None, None, False, math.inf,
                                  math.nan, math.nan)
    p = a - 0.05
    q = b + 0.05
    if x_grid is None:
        x_grid = np.geomspace(1e-8, 1e8, _GRID_POINTS)
    if t_grid is None:
        t_grid = 2.0 ** np.linspace(-40.0, 40.0, 161)
    x = np.asarray(x_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num = np.asarray(phi.forward(t[:, None] * x[None, :]), dtype=float)
        den = np.asarray(phi.forward(x), dtype=float)[None, :]
        ratio = num / den
    if not bool(np.all(np.isfinite(ratio)) and np.all(ratio > 0.0)):
        return PhiConditionReport(False, None, None, False, math.inf, p, q)

    tp = t ** p
    tq = t ** q
    lo_unit = np.minimum(tp, tq)[:, None]
    hi_unit = np.maximum(tp, tq)[:, None]
    c_upper = float(np.max(ratio / hi_unit))
    c_lower = float(np.max(lo_unit / ratio))
    constant = max(c_upper, c_lower, 1.0)
    ok = constant <= 1e6
    majorant_finite = bool(np.all(np.isfinite(np.max(ratio, axis=1))))
    prime_ok = bool(max(c_lower, 1.0) <= 1e6 and majorant_finite)
    psi1 = "min(t^%.4g, t^%.4g) / %.6g" % (p, q, constant)
    psi2 = "%.6g * max(t^%.4g, t^%.4g)" % (constant, p, q)
    return PhiConditionReport(ok, psi1, psi2, prime_ok, constant, p, q)


def classify_limit(phi: Homeomorphism, q: float, end: str,
                   k_min: int = 8, k_max: int = 100) -> LimitClass:
    """Classify the limit of t^q / phi(t) at one end of the half-line.

    ``end`` is "zero_plus" or "infinity".  The quotient is tracked in log
    space along dyadic t ordered toward the limit; a monotone log-sequence
    ending beyond 1e6 (or below 1e-6) is called infinite (or zero), a tail
    pinned within 10 percent with negligible drift is called finite
    positive, and anything else is left indeterminate rather than guessed.
    """
    if not q > 0.0:
        raise ValueError("exponent q must be positive")
    if end not in ("zero_plus", "infinity"):
        raise ValueError("end must be 'zero_plus' or 'infinity'")
    sign = -1.0 if end == "zero_plus" else 1.0
    ks = np.arange(k_min, k_max + 1, dtype=float)
    ln_t = sign * ks * _LN2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(phi.forward(np.exp(ln_t)), dtype=float)
    valid = np.isfinite(vals) & (vals > 0.0)
    if int(np.count_nonzero(valid)) < 15:
        return LimitClass.INDETERMINATE
    L = q * ln_t[valid] - np.log(vals[valid])

    diffs = np.diff(L)
    tail = L[-10:]
    if bool(np.all(diffs >= -1e-9)) and L[-1] > _BIG:
        return LimitClass.INFINITE
    if bool(np.all(diffs <= 1e-9)) and L[-1] < -_BIG:
        return LimitClass.ZERO
    spread = float(np.max(tail) - np.min(tail))
    drift = abs(float(np.mean(np.diff(tail))))
    if spread <= math.log(1.1) and drift <= math.log(1.1) / 20.0:
        return LimitClass.FINITE_POSITIVE
    return LimitClass.INDETERMINATE


def _identity_residual(lhs: float, rhs: float) -> float:
    if math.isinf(lhs) and math.isinf(rhs):
        return 0.0
    if math.isinf(lhs) or math.isinf(rhs):
        return math.inf
    return abs(lhs - rhs)


@dataclass(frozen=True)
class DualityResult:
    """Outcome of the reciprocal-exponent identities between phi and its
    inverse, with the index estimates of both sides."""

    passed: bool
    beta_residual: float
    alpha_residual: float
    estimate: IndexEstimate
    inverse_estimate: IndexEstimate

    def __bool__(self):
        return self.passed


def duality_check(phi: Homeomorphism, tol: float = 0.05) -> DualityResult:
    """Check that the exponents of the inverse are reciprocals of phi's.

    Estimates indices on both sides and compares beta(phi) with
    1/alpha(inverse) and alpha(phi) with 1/beta(inverse), reading 1/0 as
    inf and 1/inf as 0.  Residuals between one finite and one infinite
    side are infinite, so a genuine mismatch can never sneak under ``tol``.
    """
    est = estimate_indices(phi)
    inv_est = estimate_indices(inverse_homeomorphism(phi))
    beta_residual = _identity_residual(est.beta_hat,
                                       _reciprocal_index(inv_est.alpha_hat))
    alpha_residual = _identity_residual(est.alpha_hat,
                                        _reciprocal_index(inv_est.beta_hat))
    return DualityResult(
        passed=bool(beta_residual <= tol and alpha_residual <= tol),
        beta_residual=beta_residual,
        alpha_residual=alpha_residual,
        estimate=est,
        inverse_estimate=inv_est,
    )


class AdvisorReport(NamedTuple):
    f_verdict: HypothesisVerdict
    g1_verdict: HypothesisVerdict
    g2_verdict: HypothesisVerdict
    alpha_hat: float
    beta_hat: float


def hypothesis_advisor(phi: Homeomorphism, q: float, r1: float, r2: float,
                       estimate: Optional[IndexEstimate] = None) -> AdvisorReport:
    """Per-hypothesis verdicts for the three growth limits a problem needs.

    The three limits are: t^q / phi(t) -> inf at zero, t^r1 / phi(t) -> 0
    at zero, and t^r2 / phi(t) -> inf at infinity.  Each verdict first tries
    the index comparison with a 0.1 safety band (q strictly below the lower
    exponent, or r strictly above the upper one, settles the limit outright);
    inside the band the indices genuinely do not determine the limit, so the
    advisor falls back to direct classification and reports UNDECIDED when
    that too is inconclusive, never an index-based guess.
    """
    est = estimate if estimate is not None else estimate_indices(phi)

    def from_class(cls: LimitClass, wanted: LimitClass) -> HypothesisVerdict:
        if cls is wanted:
            return HypothesisVerdict.HOLDS_BY_LIMIT_CHECK
        if cls is LimitClass.INDETERMINATE:
            return HypothesisVerdict.UNDECIDED
        return HypothesisVerdict.FAILS_BY_LIMIT_CHECK

    if est.alpha_hat > 0.0 and q < est.alpha_hat - 0.1:
        f_verdict = HypothesisVerdict.HOLDS_BY_INDEX
    else:
        f_verdict = from_class(classify_limit(phi, q, "zero_plus"),
                               LimitClass.INFINITE)

    if np.isfinite(est.beta_hat) and r1 > est.beta_hat + 0.1:
        g1_verdict = HypothesisVerdict.HOLDS_BY_INDEX
    else:
        g1_verdict = from_class(classify_limit(phi, r1, "zero_plus"),
                                LimitClass.ZERO)

    if np.isfinite(est.beta_hat) and r2 > est.beta_hat + 0.1:
        g2_verdict = HypothesisVerdict.HOLDS_BY_INDEX
    else:
        g2_verdict = from_class(classify_limit(phi, r2, "infinity"),
                                LimitClass.INFINITE)

    return AdvisorReport(f_verdict=f_verdict, g1_verdict=g1_verdict,
                         g2_verdict=g2_verdict, alpha_hat=est.alpha_hat,
                         beta_hat=est.beta_hat)
