"""Odd increasing homeomorphisms of the real line.

A problem's flux nonlinearity is an odd, strictly increasing bijection of the
reals.  We store only its positive branch together with an optional analytic
inverse; the odd extension is applied by sign arithmetic, which keeps oddness
exact in floating point.  Every evaluation of the inverse, public or inside
the solvers, takes its callable from ``_odd_inverse_fn``: the closed form
when there is one, else the certified numeric engine.  A catalog of
standard examples is exposed through short descriptor strings such as
``"power:2"`` or ``"sum-powers:3,1.5"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, UnboundedInputError


def _odd(fn):
    """The odd extension of a positive-branch map as an array callable.

    0 and -0.0 map to 0 and NaN to NaN, and the sign of the argument is
    carried over exactly, so oddness holds bit for bit.
    """
    def odd(y):
        return np.where(y == 0.0, 0.0, np.sign(y) * fn(np.abs(y)))
    return odd


def _evaluate(odd, y):
    """Apply an odd array callable to a scalar or an array, with overflow
    warnings off; a scalar comes back as a Python float."""
    arr = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = odd(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class Homeomorphism:
    """Odd increasing homeomorphism given by its positive branch.

    ``known_alpha`` and ``known_beta`` record the lower and upper growth
    exponents when they are known in closed form (``None`` means unknown,
    ``math.inf`` is allowed).  They are metadata only; nothing in the
    numerics consumes them.
    """

    label: str
    _forward_pos: Callable[[np.ndarray], np.ndarray]
    _inverse_pos: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_alpha: Optional[float] = None
    known_beta: Optional[float] = None
    _ladder: Optional[tuple] = field(default=None, init=False, repr=False)

    def forward(self, y):
        return _evaluate(_odd(self._forward_pos), y)

    def inverse(self, z):
        """phi^{-1}(z): the closed form when there is one, else the certified
        numeric engine; raises ``UnboundedInputError`` for a target the
        engine cannot reach."""
        return _evaluate(_odd_inverse_fn(self, "raise"), z)

    def _probe_ladder(self):
        """Positive decade probes and their images, filtered to the finite,
        strictly increasing part usable for bracketing.

        Built on first use and kept on the instance, so repeated inversions
        pay for it once and the cache dies with the map.
        """
        if self._ladder is None:
            probes = 10.0 ** _PROBE_EXPONENTS
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                vals = np.asarray(self._forward_pos(probes), dtype=float)
            valid = np.isfinite(vals) & (vals > 0.0)
            px, pv = probes[valid], vals[valid]
            if px.size == 0:
                raise ConvergenceError(
                    "map produced no finite positive values on the probe ladder")
            keep = np.concatenate(([True], np.diff(pv) > 0.0))
            object.__setattr__(self, "_ladder", (px[keep], pv[keep]))
        return self._ladder

    def __repr__(self):
        return "Homeomorphism(%r)" % self.label


_PROBE_EXPONENTS = np.arange(-320, 309)

# Secant steps tried before an entry falls back to bisection.  From a decade
# bracket the log-log secant reaches the last bit in about six steps on the
# catalog maps; entries near a flat point of the map (xlog just below 1)
# converge only linearly and are the ones left to the fallback.
_SECANT_STEPS = 10
# Relative half-width of the x-side bracket that certifies a secant root.
_BRACKET_REL = 1e-13
# Residual a numeric root must meet: |phi(x) - y| <= _RESIDUAL_TOL (1 + y).
_RESIDUAL_TOL = 1e-12


def _secant_roots(forward_pos, targets, lo, hi, f_lo, f_hi):
    """Safeguarded secant for ``forward_pos(x) = targets`` in log-log form.

    Works on g = log(forward_pos(x) / target) against s = log x, starting
    from log-log interpolation inside the bracket ``lo < root <= hi`` (with
    images ``f_lo < target <= f_hi``).  Iterates move multiplicatively, so
    they resolve x to its last bit at any magnitude; a step that leaves the
    running bracket is replaced by the bracket's geometric midpoint.  Each
    entry stops on its own (a sub-ulp step, or an image equal to the
    previous one), so a root does not depend on which other targets share
    the call.
    """
    root = np.empty_like(targets)
    act = np.arange(targets.size)
    g_prev = np.log(f_lo / targets)
    ds = np.log(hi / lo) * (g_prev / (g_prev - np.log(f_hi / targets)))
    x = lo * np.exp(ds)
    for _ in range(_SECANT_STEPS):
        g = np.log(np.asarray(forward_pos(x), dtype=float) / targets)
        lo = np.where(g < 0.0, x, lo)
        hi = np.where(g >= 0.0, x, hi)
        step = g * ds / (g_prev - g)
        x_new = x * np.exp(step)
        stray = ~((x_new >= lo) & (x_new <= hi))
        if np.any(stray):
            mid = lo[stray] * np.sqrt(hi[stray] / lo[stray])
            step[stray] = np.log(mid / x[stray])
            x_new[stray] = mid
        # An image equal to the previous one means x sits on the map's
        # rounding floor; a sub-ulp step (zero when g is) means converged.
        flat = g == g_prev
        done = flat | (np.abs(step) <= 4.5e-16)
        root[act] = np.where(flat, x, x_new)
        if np.all(done):
            break
        if np.any(done):
            keep = ~done
            act, targets, lo, hi = act[keep], targets[keep], lo[keep], hi[keep]
            x_new, g, step = x_new[keep], g[keep], step[keep]
        x, g_prev, ds = x_new, g, step
    return root


def _certified(forward_pos, roots, targets):
    """Entries of ``roots`` that pass both acceptance checks: the residual
    ``|phi(x) - y| <= 1e-12 (1 + y)`` and the x-side bracket
    ``phi(x (1 - 1e-13)) < y <= phi(x (1 + 1e-13))``.

    The bracket puts x within 1e-13 of the smallest float whose image
    reaches y, the root bisection converges to.  Where the map is flat to
    rounding over a wider span (near a zero derivative, or at subnormal
    images) the strict left test fails and bisection decides instead.
    """
    n = roots.size
    vals = np.asarray(forward_pos(np.concatenate(
        (roots, roots * (1.0 - _BRACKET_REL), roots * (1.0 + _BRACKET_REL)))),
        dtype=float)
    at, below, above = vals[:n], vals[n:2 * n], vals[2 * n:]
    return ((np.abs(at - targets) <= _RESIDUAL_TOL * (1.0 + targets))
            & (below < targets) & (targets <= above))


def _midpoint(lo, hi):
    """``0.5 * (lo + hi)``, halving each end first where the sum overflows."""
    mid = 0.5 * (lo + hi)
    return np.where(np.isfinite(mid), mid, 0.5 * lo + 0.5 * hi)


def _invert_positive(phi, targets, out_of_range):
    """Vectorized inverse of the positive branch of ``phi``.

    ``targets`` must be a positive 1-D array.  Each target is bracketed
    between two points of the probe ladder cached on ``phi``, guessed by
    log-log interpolation and polished by a safeguarded log-log secant.  A
    root is accepted only when ``|phi(x) - y| <= 1e-12 * (1 + y)`` and
    ``phi(x (1 - 1e-13)) < y <= phi(x (1 + 1e-13))`` both hold; every
    other entry (including targets below the ladder's first image) is
    redone by 64 bisection steps on its ladder bracket, and
    ``ConvergenceError`` is raised if that still misses the residual
    check.  Targets above every representable image either raise
    ``UnboundedInputError`` (``out_of_range="raise"``) or come back as
    ``inf`` (``"inf"``).
    """
    forward_pos = phi._forward_pos
    targets = np.asarray(targets, dtype=float)
    px, pv = phi._probe_ladder()

    overflow = targets > pv[-1]
    if np.any(overflow):
        if out_of_range == "raise":
            raise UnboundedInputError(
                "target %g exceeds the largest representable image %g"
                % (float(np.max(targets)), pv[-1]))
        targets = np.where(overflow, pv[-1], targets)

    idx = np.minimum(np.searchsorted(pv, targets, side="left"), px.size - 1)
    lo = np.where(idx == 0, 0.0, px[np.maximum(idx - 1, 0)])
    hi = px[idx]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        root = np.zeros_like(targets)
        fallback = idx == 0
        sec = np.flatnonzero(~fallback)
        if sec.size:
            i = idx[sec]
            root[sec] = _secant_roots(forward_pos, targets[sec], lo[sec],
                                      hi[sec], pv[i - 1], pv[i])
            fallback[sec] = ~_certified(forward_pos, root[sec], targets[sec])

        bis = np.flatnonzero(fallback)
        if bis.size:
            b_lo, b_hi, b_y = lo[bis], hi[bis], targets[bis]
            for _ in range(64):
                mid = _midpoint(b_lo, b_hi)
                below = np.asarray(forward_pos(mid), dtype=float) < b_y
                b_lo = np.where(below, mid, b_lo)
                b_hi = np.where(below, b_hi, mid)
            b_root = _midpoint(b_lo, b_hi)
            res = np.abs(np.asarray(forward_pos(b_root), dtype=float) - b_y)
            bad = (res > _RESIDUAL_TOL * (1.0 + b_y)) & ~overflow[bis]
            if np.any(bad):
                raise ConvergenceError(
                    "numeric inverse missed its tolerance (worst residual %g)"
                    % float(np.max(res[bad])))
            root[bis] = b_root
    if np.any(overflow):
        root = np.where(overflow, np.inf, root)
    return root


def _odd_inverse_fn(phi, out_of_range):
    """The odd inverse of ``phi`` as one array callable.

    This is the one place that decides how phi is inverted: by its closed
    form when it has one, else by the certified numeric engine, where a
    target above the largest representable image raises
    ``UnboundedInputError`` (``out_of_range="raise"``) or maps to inf
    (``"inf"``).  Either way 0 and -0.0 map to 0, NaN to NaN, and the sign
    of the argument is carried over exactly.  The callable takes a float
    array and sets no floating-point error state: the public entries wrap
    each call in ``np.errstate``, and the shooting march binds the callable
    once and runs its whole loop under one.
    """
    if phi._inverse_pos is None:
        return _numeric_odd_inverse(phi, out_of_range)
    return _odd(phi._inverse_pos)


def _numeric_odd_inverse(phi, out_of_range):
    """The odd inverse of ``phi`` by the certified numeric engine."""
    def inverse(z):
        out = np.zeros_like(z)
        mask = z != 0.0
        if np.any(mask):
            roots = _invert_positive(phi, np.abs(z[mask]), out_of_range)
            out[mask] = np.sign(z[mask]) * roots
        return out
    return inverse


def numeric_inverse(phi: Homeomorphism, y):
    """Invert ``phi`` by the certified numeric engine, even when it has a
    closed-form inverse, which makes this the reference against one.

    Handles scalars and arrays and applies the odd extension by sign.  Each
    magnitude is bracketed on a decade probe ladder (built once per map and
    cached on it), guessed by log-log interpolation and polished by a few
    log-log secant steps.  A root is accepted only when both
    ``|phi(root) - y| <= 1e-12 * (1 + |y|)`` and the x-side bracket
    ``phi(root (1 - 1e-13)) < |y| <= phi(root (1 + 1e-13))`` hold; any
    other entry is redone by bisection on its ladder bracket, and
    ``ConvergenceError`` is raised if that still misses the residual
    check.  A magnitude above the largest representable image raises
    ``UnboundedInputError``.
    """
    return _evaluate(_numeric_odd_inverse(phi, "raise"), y)


def inverse_saturating(phi: "Homeomorphism", z):
    """``phi.inverse(z)`` that saturates to +-inf past the representable
    range instead of raising.

    Odd like ``phi.inverse``, for scalars and arrays.  Useful inside
    feasibility scans where an off-scale value simply means the scanned
    condition fails or holds trivially.
    """
    return _evaluate(_odd_inverse_fn(phi, "inf"), z)


class _InverseTable:
    """Fast monotone approximation of a positive-branch inverse.

    When the homeomorphism carries an explicit inverse, calls defer to it
    (saturating to inf past the representable range).  Otherwise this
    tabulates the forward map on a geometric grid spanning the probe ladder,
    up to the certified numeric root of ``z_max`` (secant with residual and
    x-bracket checks, else bisection), and interpolates the inverse in
    log-log coordinates.  The approximation is itself increasing,
    so order relations survive; arguments below the table floor clamp to 0
    and arguments above the table ceiling clamp to the top entry, which
    under-estimates the true inverse and keeps certified bounds
    conservative.  Used only inside inner loops where one certified root
    solve per evaluation would dominate the runtime.
    """

    def __init__(self, phi: Homeomorphism, z_max: float, points: int = 4096):
        self._exact = None
        if phi._inverse_pos is not None:
            self._exact = _odd_inverse_fn(phi, "inf")
            return
        px, _ = phi._probe_ladder()
        t_hi = inverse_saturating(phi, float(z_max)) * 1.001
        if not np.isfinite(t_hi) or t_hi <= 0.0:
            t_hi = float(px[-1])
        t_lo = min(float(px[0]), t_hi * 1e-16)
        t = np.geomspace(t_lo, t_hi, points)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            z = np.asarray(phi._forward_pos(t), dtype=float)
        good = np.isfinite(z) & (z > 0.0)
        t, z = t[good], z[good]
        keep = np.concatenate(([True], np.diff(z) > 0.0))
        t, z = t[keep], z[keep]
        if t.size < 2:
            raise ValueError("forward map not tabulable on the requested range")
        self._log_t = np.log(t)
        self._log_z = np.log(z)
        self._z_floor = z[0]

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self._exact is not None:
                return self._exact(z)
            out = np.zeros_like(z)
            mask = z > self._z_floor
            if np.any(mask):
                out[mask] = np.exp(
                    np.interp(np.log(z[mask]), self._log_z, self._log_t))
        return out


def make_power(r: float) -> Homeomorphism:
    """The odd power map with exponent ``r > 0``; ``r = 1`` is the identity."""
    if not (r > 0.0 and np.isfinite(r)):
        raise ValueError("power exponent must be positive and finite")
    r = float(r)
    inv = 1.0 / r
    return Homeomorphism(
        label="power:%g" % r,
        _forward_pos=lambda y: y ** r,
        _inverse_pos=lambda z: z ** inv,
        known_alpha=r,
        known_beta=r,
    )


def _make_sum_powers(p1: float, p2: float) -> Homeomorphism:
    if not (p1 >= p2 > 0.0):
        raise ValueError("sum-powers needs p1 >= p2 > 0")
    return Homeomorphism(
        label="sum-powers:%g,%g" % (p1, p2),
        _forward_pos=lambda y: y ** p1 + y ** p2,
        _inverse_pos=None,
        known_alpha=p2,
        known_beta=p1,
    )


def _make_ratio(p1: float, p2: float) -> Homeomorphism:
    if not (p1 > p2 > 0.0):
        raise ValueError("ratio needs p1 > p2 > 0")

    def forward(y):
        # Split at 1 so neither branch overflows prematurely.
        y = np.asarray(y, dtype=float)
        small = y <= 1.0
        out = np.empty_like(y)
        ys = y[small]
        out[small] = ys ** p1 / (1.0 + ys ** p2)
        yl = y[~small]
        out[~small] = yl ** (p1 - p2) / (1.0 + yl ** (-p2))
        return out

    return Homeomorphism(
        label="ratio:%g,%g" % (p1, p2),
        _forward_pos=forward,
        _inverse_pos=None,
        known_alpha=p1 - p2,
        known_beta=p1,
    )


def _xlog_forward(y):
    return y * (np.abs(np.log(y)) + 1.0)


def _x_minus_log1p_series(y):
    """y - log(1+y) summed from its series y^2 (1/2 - y/3 + y^2/4 - ...)
    through y^13, within 2.6e-16 relative for 0 <= y < 0.05.  The
    Horner steps run in place, since growth scans evaluate the map on large
    2-D grids."""
    acc = np.full_like(y, 1.0 / 13.0)
    for k in range(12, 1, -1):
        acc *= y
        np.subtract(1.0 / k, acc, out=acc)
    acc *= y
    acc *= y
    return acc


def _x_minus_log1p_forward(y):
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    # The direct difference cancels digits near 0.  From 0.05 up it loses at
    # most a factor 2/y, which keeps it within 4e-15 relative.
    small = y < 0.05
    out[small] = _x_minus_log1p_series(y[small])
    yl = y[~small]
    out[~small] = yl - np.log1p(yl)
    return out


def _make_logpow(p: float) -> Homeomorphism:
    if not (p > 0.0):
        raise ValueError("logpow needs a positive exponent")
    return Homeomorphism(
        label="logpow:%g" % p,
        _forward_pos=lambda y: np.log1p(y) ** p,
        _inverse_pos=lambda z: np.expm1(z ** (1.0 / p)),
        known_alpha=0.0,
        known_beta=p,
    )


def make_catalog_entry(descriptor: str) -> Homeomorphism:
    """Build a homeomorphism from a short descriptor string.

    Recognized forms::

        power:r            odd power with exponent r
        sum-powers:p1,p2   y^p1 + y^p2 with p1 >= p2 > 0
        ratio:p1,p2        y^p1 / (1 + y^p2) with p1 > p2 > 0
        xlog               y (|ln y| + 1)
        x-log1p            y - ln(1 + y)
        logpow:p           ln(1 + y)^p with p > 0
        arcsinh            ln(y + sqrt(1 + y^2))
        loglog             ln(1 + ln(1 + y))
    """
    name, _, argstr = descriptor.partition(":")
    name = name.strip()
    args = [float(s) for s in argstr.split(",")] if argstr else []

    if name == "power":
        if len(args) != 1:
            raise ValueError("power descriptor needs exactly one exponent")
        return make_power(args[0])
    if name == "sum-powers":
        if len(args) != 2:
            raise ValueError("sum-powers descriptor needs two exponents")
        return _make_sum_powers(args[0], args[1])
    if name == "ratio":
        if len(args) != 2:
            raise ValueError("ratio descriptor needs two exponents")
        return _make_ratio(args[0], args[1])
    if name == "logpow":
        if len(args) != 1:
            raise ValueError("logpow descriptor needs exactly one exponent")
        return _make_logpow(args[0])
    if args:
        raise ValueError("descriptor %r takes no arguments" % name)
    if name == "xlog":
        return Homeomorphism("xlog", _xlog_forward, None,
                             known_alpha=1.0, known_beta=None)
    if name == "x-log1p":
        return Homeomorphism("x-log1p", _x_minus_log1p_forward, None,
                             known_alpha=1.0, known_beta=None)
    if name == "arcsinh":
        return Homeomorphism("arcsinh", np.arcsinh, np.sinh,
                             known_alpha=None, known_beta=None)
    if name == "loglog":
        return Homeomorphism(
            "loglog",
            lambda y: np.log1p(np.log1p(y)),
            lambda z: np.expm1(np.expm1(z)),
            known_alpha=None, known_beta=None)
    raise ValueError("unknown homeomorphism descriptor %r" % descriptor)


CATALOG_DESCRIPTORS = (
    "power:2",
    "sum-powers:3,1.5",
    "ratio:2,0.5",
    "xlog",
    "x-log1p",
    "logpow:2",
    "arcsinh",
    "loglog",
)


def _reciprocal_index(v):
    if v is None:
        return None
    if v == 0.0:
        return math.inf
    if math.isinf(v):
        return 0.0
    return 1.0 / v


def inverse_homeomorphism(phi: Homeomorphism) -> Homeomorphism:
    """The inverse map as a homeomorphism in its own right.

    Growth exponents of the inverse are the reciprocals of the original's
    (with 1/0 read as infinity).  The new forward map evaluates phi^{-1} as
    ``inverse_saturating`` does: by the closed form when there is one, else
    by the certified numeric engine, with targets beyond the representable
    range saturating to ``inf`` instead of raising, so growth scans can
    treat them as off-scale.
    """
    return Homeomorphism(
        label="inverse(%s)" % phi.label,
        _forward_pos=_odd_inverse_fn(phi, "inf"),
        _inverse_pos=phi._forward_pos,
        known_alpha=_reciprocal_index(phi.known_beta),
        known_beta=_reciprocal_index(phi.known_alpha),
    )
