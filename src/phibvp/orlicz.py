"""Growth-index estimation for homeomorphisms.

The central object is the growth ratio M(t) = sup over x > 0 of
phi(t x) / phi(x).  Its logarithmic slopes as t tends to 0 and to infinity
are the lower and upper growth exponents; they control doubling behavior,
two-sided power comparisons, and the limits t^q / phi(t) at both ends of
the line.  The exponent fit, the doubling test and the power comparison
all read one documented span per map, ``representable_x_grid``, under
one lane rule, so results are reproducible and depend on the map rather
than on a fixed window.  phi is evaluated on that span once per map,
shifted by the 40 octaves each way the checks reach (``_span_values``),
and only at normal arguments: a subnormal argument is quantized, and for
an inverse map so is the target it inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import UnboundedInputError
from .homeomorphisms import (Homeomorphism, _reciprocal_index,
                             inverse_homeomorphism)

_GRID_POINTS = 10 ** 4
_LN2 = math.log(2.0)
_BIG = math.log(1e6)
_TINY_NORMAL = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)
# The deepest shift 2^+-40 of the growth fit and the power comparison, the
# fit's 12 shifts on each side, and the duality pass threshold; each
# docstring states the values it uses.
_K_MAX, _FIT_POINTS = 40, 12
_LIMIT_K = np.arange(8, 101, dtype=float)
_DUALITY_TOL = 0.05


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


def _dyadic_grid(lo: float, hi: float) -> np.ndarray:
    """Log-spaced x in [lo, hi] at m points per octave, built so that
    doubling a grid point is a shift by m indices.

    x_j = ldexp(block[j % m], j // m), where block holds the m points of the
    first octave and m = ceil(10^4 / octaves), so the grid has at least
    10^4 points.
    """
    octaves = math.log2(hi) - math.log2(lo)
    m = math.ceil(_GRID_POINTS / octaves)
    j = np.arange(math.floor(octaves * m) + 1)
    block = lo * 2.0 ** (np.arange(m) / m)
    with np.errstate(over="ignore"):
        x = np.ldexp(block[j % m], j // m)
    return x[x <= hi]


def _octave_extension(x: np.ndarray):
    """A dyadic grid x extended by 40 octaves on each side, and its points
    per octave m.

    Entry 40*m + i of the extension is x[i], and entry (40 + k)*m + i is
    x[i] * 2^k rounded once, bit for bit, up to the overflow end.  Entries
    below the smallest normal float are quantized; ``_lane_rule`` drops
    them without evaluating phi there.
    """
    m = int(np.searchsorted(x, 2.0 * x[0]))
    j = np.arange(-_K_MAX * m, x.size + _K_MAX * m)
    with np.errstate(over="ignore"):
        return np.ldexp(x[j % m], j // m), m


def _ladder_range(phi: Homeomorphism):
    """Where phi's decade probe ladder is finite and positive.  The ladder
    starts at the smallest normal float: below it x itself is quantized,
    and for an inverse map so are the targets it inverts."""
    px, _ = phi._probe_ladder()
    return float(px[0]), float(px[-1])


def representable_x_grid(phi: Homeomorphism) -> np.ndarray:
    """The one span the growth layer samples: the dyadic grid (see
    ``_dyadic_grid``) over ``_ladder_range(phi)`` widened by one decade on
    each side and clipped to [smallest normal float, largest float], so
    the lanes ``_lane_rule`` keeps run on to where phi leaves the normal
    range rather than stop at the last probe.  Built on first use and kept,
    read-only, on the map next to its probe ladders."""
    x = phi._ladders.get("x_grid")
    if x is None:
        lo, hi = _ladder_range(phi)
        x = _dyadic_grid(max(lo / 10.0, _TINY_NORMAL), min(hi * 10.0, _HUGE))
        x.flags.writeable = False
        phi._ladders["x_grid"] = x
    return x


def _fit_grid(phi: Homeomorphism) -> np.ndarray:
    """``representable_x_grid(phi)``, or ``UnboundedInputError`` when
    ``_ladder_range(phi)`` spans fewer than the 40 octaves by which the
    growth fit shifts x: past it every ratio is lost."""
    lo, hi = _ladder_range(phi)
    if not math.log2(hi) - math.log2(lo) >= _K_MAX:
        raise UnboundedInputError(
            "%s is finite and positive only on [%g, %g], fewer than the %d "
            "octaves the growth fit needs" % (phi.label, lo, hi, _K_MAX))
    return representable_x_grid(phi)


def _lane_rule(phi: Homeomorphism, args: np.ndarray) -> np.ndarray:
    """phi at the increasing ``args``, NaN where a lane is dropped.

    A lane of phi(t x) / phi(x) is kept when both factors pass, so the
    quotient is NaN exactly on dropped lanes.  A factor fails where its
    argument is below the smallest normal float, and phi is not evaluated
    there: the argument is quantized, and for an inverse map so is the
    target it inverts, so its value measures the rounding, not the map.  It
    fails too where its value is not finite and normal: a value that
    overflowed or underflowed reflects float range, not the map, and a
    subnormal one can inflate a ratio by a factor of two.  A quotient of
    two kept factors that overflows or underflows is evidence about the
    map, and stays.
    """
    vals = np.full(args.shape, np.nan)
    first = int(np.searchsorted(args, _TINY_NORMAL))
    if first < args.size:
        got = np.asarray(phi.forward(args[first:]), dtype=float)
        vals[first:] = np.where(np.isfinite(got) & (got >= _TINY_NORMAL),
                                got, np.nan)
    return vals


def growth_ratio(phi: Homeomorphism, t: float) -> float:
    """Largest value of phi(t x) / phi(x) over the lanes ``_lane_rule``
    keeps on ``representable_x_grid(phi)``; equals 1 at t = 1.  Where t x
    is below the smallest normal float, phi is not evaluated and the lane
    is dropped, as in the dyadic samples of ``_octave_quotients``.

    Returns inf when no lane is kept.  Raises ``UnboundedInputError``, as
    ``estimate_indices`` does, when phi's ladder range spans fewer than 40
    octaves.
    """
    t = float(t)
    if not (t > 0.0 and np.isfinite(t)):
        raise ValueError("growth ratio needs a positive finite t")
    x = _fit_grid(phi)
    with np.errstate(over="ignore"):
        sup = float(np.fmax.reduce(
            _lane_rule(phi, t * x) / _lane_rule(phi, x)))
    return math.inf if math.isnan(sup) else sup


def _span_values(phi: Homeomorphism):
    """phi under ``_lane_rule`` on ``representable_x_grid(phi)`` extended
    by 40 octaves on each side (``_octave_extension``), and the grid's
    points per octave m: the growth layer's one evaluation of phi per map.
    Built on first use and kept, read-only, on the map next to the grid."""
    span = phi._ladders.get("x_span")
    if span is None:
        ext, m = _octave_extension(representable_x_grid(phi))
        vals = _lane_rule(phi, ext)
        vals.flags.writeable = False
        span = phi._ladders["x_span"] = vals, m
    return span


def _escaping_sup(x: np.ndarray, quotient: np.ndarray) -> float:
    """The largest ratio of ``quotient``, sampled at the increasing x with
    NaN on the lanes the lane rule drops, or inf where it escapes.

    The supremum escapes when no lane is kept, when it overflows, or when it
    is more than twice the supremum over the kept span pulled in by two
    octaves at both ends, the kept lanes with x in [4 x_first, x_last / 4];
    with no lane left there it escapes too.  A ratio that climbs toward
    where the float range cuts the span, as expm1's does where phi(t x)
    overflows and exp(-1/sqrt x)'s where phi(x) leaves the normal range,
    therefore escapes, while a power map keeps t^r over the whole span.
    """
    dropped = np.isnan(quotient)
    first = int(dropped.argmin())
    if dropped[first]:
        return math.inf
    last = dropped.size - 1 - int(dropped[::-1].argmin())
    lo = np.searchsorted(x, 4.0 * x[first])
    hi = np.searchsorted(x, x[last] / 4.0, side="right")
    sup = float(np.fmax.reduce(quotient))
    inner = np.fmax.reduce(quotient[lo:hi]) if lo < hi else math.nan
    return sup if sup <= 2.0 * inner else math.inf


def _octave_quotients(phi: Homeomorphism, ks):
    """Yield phi(2^k x) / phi(x) on ``representable_x_grid(phi)`` for each
    integer k in ks, |k| <= 40, NaN on the lanes ``_lane_rule`` drops.
    Each is sliced from the map's one span evaluation (``_span_values``),
    with no further call of phi, and is one division into a reused buffer,
    under the caller's ``np.errstate``.
    """
    vals, m = _span_values(phi)
    n = representable_x_grid(phi).size
    den = vals[_K_MAX * m:_K_MAX * m + n]
    quotient = np.empty(n)
    for k in ks:
        start = (_K_MAX + int(k)) * m
        yield np.divide(vals[start:start + n], den, out=quotient)


def _dyadic_ratios(phi: Homeomorphism, ks) -> np.ndarray:
    """The largest sampled ratio at t = 2^k for each integer k in ks, from
    ``_octave_quotients``; a shift with no lane left reads inf.

    At k > 0 an escaping supremum (``_escaping_sup``) reads inf.  Below
    t = 1 the ratio of an increasing map is at most 1, and nothing escapes.
    """
    grid = representable_x_grid(phi)
    sups = np.empty(len(ks))
    with np.errstate(over="ignore"):
        for j, (k, quotient) in enumerate(zip(ks, _octave_quotients(phi, ks))):
            sups[j] = (_escaping_sup(grid, quotient) if k > 0
                       else np.fmax.reduce(quotient))
    sups[np.isnan(sups)] = math.inf
    return sups


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


def estimate_indices(phi: Homeomorphism) -> IndexEstimate:
    """Estimate both growth exponents from dyadic samples of the growth ratio.

    The ratio is sampled at t = 2^-k and t = 2^k for k = 29, ..., 40, on
    the dyadic ``representable_x_grid`` (at least 10^4 log-spaced x) under
    ``growth_ratio``'s lane rule, all sliced from the map's one span
    evaluation (``_span_values``), which holds no value of phi at a
    subnormal argument.  The lower exponent is the least-squares slope
    of ln M(t) against ln t over the 12 values of t = 2^-k; the upper
    exponent is fitted the same way over the 12 values of t = 2^k, and is
    reported as inf when one of them escapes (``_escaping_sup``, the rule
    ``check_delta2`` applies too), which signals faster-than-power growth;
    a power map of exponent 25.6 or more escapes because its M(2^40)
    overflows.  A lower slope under 0.02 is snapped to exactly 0:
    at that size it is indistinguishable from the logarithmic corrections
    of a zero-exponent map, so power:0.02 reads 0 while power:0.05 reads
    0.05.

    Raises ``UnboundedInputError`` when phi's ladder range spans fewer
    than 40 octaves, and, naming the t, when a fitted small-t sample
    underflows to 0 (power maps of exponent 27 and up do by t = 2^-40):
    the lower fit needs every logarithm finite.
    """
    ks = np.arange(_K_MAX - _FIT_POINTS + 1, _K_MAX + 1)
    _fit_grid(phi)  # raises on a ladder range under 40 octaves
    ratios = _dyadic_ratios(phi, np.concatenate((-ks, ks)))
    m_small, m_large = ratios[:ks.size], ratios[ks.size:]
    lost = np.flatnonzero(m_small == 0.0)
    if lost.size:
        raise UnboundedInputError(
            "the growth ratio of %s underflows to 0 at t = 2^-%d; the "
            "growth fit needs it positive down to t = 2^-%d"
            % (phi.label, ks[lost[0]], _K_MAX))

    alpha_raw, alpha_rms = _ls_slope(-ks * _LN2, np.log(m_small))
    alpha_hat = 0.0 if alpha_raw < 0.02 else alpha_raw

    if np.all(np.isfinite(m_large)):
        beta_hat, beta_rms = _ls_slope(ks * _LN2, np.log(m_large))
    else:
        beta_hat, beta_rms = math.inf, 0.0

    return IndexEstimate(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        t_small_range=(2.0 ** -_K_MAX, 2.0 ** -int(ks[0])),
        t_large_range=(2.0 ** int(ks[0]), 2.0 ** _K_MAX),
        fit_residual=max(alpha_rms, beta_rms),
    )


class Delta2Result(NamedTuple):
    holds: bool
    k_hat: float


def check_delta2(phi: Homeomorphism) -> Delta2Result:
    """Test the doubling condition phi(2x) <= k phi(x).

    The doubling constant is the supremum of phi(2x) / phi(x) over the lanes
    ``growth_ratio`` keeps (both factors finite and normal) on
    ``representable_x_grid(phi)``, read by ``_dyadic_ratios`` at t = 2 from
    the map's one span evaluation, the one-octave shift a slice of it.
    The condition holds when that supremum does not escape
    (``_escaping_sup``, the rule of the growth fit): it must be finite and
    within a factor of two of its value over the kept span pulled in by two
    octaves at both ends.  That catches expm1 and expm1(sqrt x), whose
    ratios climb to about 3e153 and 2e90 where phi(2x) overflows, and
    exp(-1/sqrt x), whose ratio climbs to 9e89 where phi(x) leaves the
    normal range; a power map keeps its constant 2^r over the whole kept
    span, which is more than four octaves up to r = 409.  ``k_hat`` is the
    constant, and inf when the condition fails.
    """
    k_hat = float(_dyadic_ratios(phi, [1])[0])
    return Delta2Result(holds=k_hat < math.inf, k_hat=k_hat)


class PhiConditionReport(NamedTuple):
    phi_cond: bool
    psi1: Optional[str]
    psi2: Optional[str]
    phi_prime_cond: bool
    constant: float
    p: float
    q: float


def check_phi_conditions(phi: Homeomorphism,
                         estimate: Optional[IndexEstimate] = None) -> PhiConditionReport:
    """Search for a two-sided power comparison around phi.

    With exponent estimates 0 < alpha_hat <= beta_hat < inf, sets
    p = alpha_hat - 0.05 and q = beta_hat + 0.05 and looks for the least
    constant C <= 1e6 with

        min(t^p, t^q) phi(x) / C  <=  phi(t x)  <=  C max(t^p, t^q) phi(x)

    over the sampled pairs: t = 2^j for the 81 integers j in [-40, 40],
    and the x of ``representable_x_grid(phi)``, keeping the lanes of
    ``growth_ratio``'s rule (both arguments and both factors normal, the
    factors finite).  Each t x is that grid shifted by j octaves, so the
    ratios are slices of the map's one span evaluation
    (``_octave_quotients``), taken one t at a time.  Success returns the
    comparison pair as descriptor strings.  A lower exponent p <= 0
    (alpha_hat <= 0.05, which makes min(t^p, t^q) no longer increasing) or
    an unbounded upper estimate reports failure immediately, with p and q
    NaN, since no power pair can work; so does a sampled ratio that is not
    finite and positive, with p and q set.

    ``phi_prime_cond`` is the relaxed variant that keeps the power-pair
    lower inequality but only asks for some finite majorant on the upper
    side, namely the tabulated supremum of the ratio itself; the two
    verdicts are expected to agree on honest power-comparable maps.
    """
    est = estimate if estimate is not None else estimate_indices(phi)
    a, b = est.alpha_hat, est.beta_hat
    p = a - 0.05
    q = b + 0.05
    # The ordering check tolerates rounding at the last digit of the fits;
    # anything beyond that genuinely disqualifies a power comparison.
    if not (p > 0.0 and np.isfinite(b) and a <= b + 1e-9):
        return PhiConditionReport(False, None, None, False, math.inf,
                                  math.nan, math.nan)
    js = np.arange(-_K_MAX, _K_MAX + 1)
    t = 2.0 ** js
    c_upper = c_lower = -math.inf
    with np.errstate(over="ignore"):
        lo_unit = np.minimum(t ** p, t ** q)
        hi_unit = np.maximum(t ** p, t ** q)
        for j, ratio in enumerate(_octave_quotients(phi, js)):
            # Correctly rounded division is monotone, so the largest
            # ratio / hi and lo / ratio come from the extremes.  A shift
            # with no lane kept reads NaN and fails too.
            r_min, r_max = np.fmin.reduce(ratio), np.fmax.reduce(ratio)
            if not (r_min > 0.0 and r_max < math.inf):
                return PhiConditionReport(False, None, None, False,
                                          math.inf, p, q)
            c_upper = max(c_upper, float(r_max / hi_unit[j]))
            c_lower = max(c_lower, float(lo_unit[j] / r_min))
    constant = max(c_upper, c_lower, 1.0)
    ok = constant <= 1e6
    # Every sampled ratio is finite here, so is their tabulated supremum.
    prime_ok = max(c_lower, 1.0) <= 1e6
    psi1 = "min(t^%.4g, t^%.4g) / %.6g" % (p, q, constant)
    psi2 = "%.6g * max(t^%.4g, t^%.4g)" % (constant, p, q)
    return PhiConditionReport(ok, psi1, psi2, prime_ok, constant, p, q)


def classify_limit(phi: Homeomorphism, q: float, end: str) -> LimitClass:
    """Classify the limit of t^q / phi(t) at one end of the half-line.

    ``end`` is "zero_plus" or "infinity".  The quotient is tracked in log
    space along dyadic t = 2^-k (at zero) or 2^k (at infinity) for
    k = 8, ..., 100, ordered toward the limit; a monotone log-sequence
    ending beyond 1e6 (or below 1e-6) is called infinite (or zero), a tail
    pinned within 10 percent with negligible drift is called finite
    positive, and anything else is left indeterminate rather than guessed.
    """
    if not q > 0.0:
        raise ValueError("exponent q must be positive")
    if end not in ("zero_plus", "infinity"):
        raise ValueError("end must be 'zero_plus' or 'infinity'")
    sign = -1.0 if end == "zero_plus" else 1.0
    ln_t = sign * _LIMIT_K * _LN2
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


def duality_check(phi: Homeomorphism) -> DualityResult:
    """Check that the exponents of the inverse are reciprocals of phi's.

    Estimates indices on both sides and compares beta(phi) with
    1/alpha(inverse) and alpha(phi) with 1/beta(inverse), reading 1/0 as
    inf and 1/inf as 0.  Residuals between one finite and one infinite
    side are infinite, so a genuine mismatch can never sneak under the
    pass threshold of 0.05 on each residual.
    """
    est = estimate_indices(phi)
    inv_est = estimate_indices(inverse_homeomorphism(phi))
    beta_residual = _identity_residual(est.beta_hat,
                                       _reciprocal_index(inv_est.alpha_hat))
    alpha_residual = _identity_residual(est.alpha_hat,
                                        _reciprocal_index(inv_est.beta_hat))
    return DualityResult(
        passed=bool(beta_residual <= _DUALITY_TOL
                    and alpha_residual <= _DUALITY_TOL),
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


def hypothesis_advisor(phi: Homeomorphism, q: float, r1: float,
                       r2: float) -> AdvisorReport:
    """Per-hypothesis verdicts for the three growth limits a problem needs.

    The three limits are: t^q / phi(t) -> inf at zero, t^r1 / phi(t) -> 0
    at zero, and t^r2 / phi(t) -> inf at infinity.  Each verdict first tries
    the index comparison with a 0.1 safety band (q strictly below the lower
    exponent, or r strictly above the upper one, settles the limit outright);
    inside the band the indices genuinely do not determine the limit, so the
    advisor falls back to direct classification and reports UNDECIDED when
    that too is inconclusive, never an index-based guess.
    """
    est = estimate_indices(phi)

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
