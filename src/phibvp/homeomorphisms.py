"""Odd increasing homeomorphisms of the real line.

A problem's flux nonlinearity is an odd, strictly increasing bijection of the
reals.  We store only its positive branch together with an optional analytic
inverse; the odd extension is applied by copying the argument's sign, which
keeps oddness exact in floating point.  A map whose closed forms are already
odd on the whole line (the identity of power:1, the Laplacian case, and
arcsinh with sinh) says so when it is built, and is then evaluated directly,
at the cost of the map alone.  Every evaluation of the inverse, public or
inside the solvers, takes its callable from ``_odd_inverse_fn``: the closed
form when there is one, else the certified numeric engine.  A catalog of
standard examples is exposed through short descriptor strings such as
``"power:2"`` or ``"sum-powers:3,1.5"``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, UnboundedInputError


def _odd(fn, odd_on_reals=False):
    """The odd extension of a positive-branch map as an array callable.

    0 and -0.0 map to 0 and NaN to NaN, and the sign of the argument is
    carried over exactly, so oddness holds bit for bit.  The zero fix is
    needed because a positive branch need not be defined at 0 (xlog's reads
    NaN there).  A closed form that is already odd on the reals
    (``odd_on_reals``) is called on the argument itself; adding 0.0 maps
    its -0.0 to 0, and nothing else changes.
    """
    if odd_on_reals:
        return lambda y: fn(y) + 0.0

    def odd(y):
        out = np.copysign(fn(np.abs(y)), y)
        out[y == 0.0] = 0.0
        return out
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
    numerics consumes them.  ``_odd_on_reals`` is set by the catalog
    constructors whose closed forms are odd on the whole line, which are
    then called without the odd extension.
    """

    label: str
    _forward_pos: Callable[[np.ndarray], np.ndarray]
    _inverse_pos: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_alpha: Optional[float] = None
    known_beta: Optional[float] = None
    _odd_on_reals: bool = False
    _ladders: dict = field(default_factory=dict, init=False, repr=False)

    def forward(self, y):
        return _evaluate(_odd(self._forward_pos, self._odd_on_reals), y)

    def inverse(self, z):
        """phi^{-1}(z): the closed form when there is one, else the certified
        numeric engine; raises ``UnboundedInputError`` for a target the
        engine cannot reach."""
        return _evaluate(_odd_inverse_fn(self, "raise"), z)

    def _probe_ladder(self, per_decade=1):
        """Probes 10^(k / per_decade) and their images, filtered to the
        finite, strictly increasing part usable for bracketing.

        The decade ladder (``per_decade=1``) brackets the growth grids, the
        inverse table and the forward root constant; only the numeric inverse
        engine asks for the fine one.  Each is built on first use and kept on
        the instance, so repeated inversions pay for it once and the cache
        dies with the map.
        """
        ladder = self._ladders.get(per_decade)
        if ladder is None:
            probes = _probes(per_decade)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                vals = np.asarray(self._forward_pos(probes), dtype=float)
            valid = np.isfinite(vals) & (vals > 0.0)
            px, pv = probes[valid], vals[valid]
            if px.size == 0:
                raise ConvergenceError(
                    "map produced no finite positive values on the probe ladder")
            keep = np.concatenate(([True], np.diff(pv) > 0.0))
            ladder = self._ladders[per_decade] = (px[keep], pv[keep])
        return ladder

    def __repr__(self):
        return "Homeomorphism(%r)" % self.label


@functools.lru_cache(maxsize=None)
def _probes(per_decade):
    """The finite probes 10^(k / per_decade), shared by every map
    (read-only).  The fine ones run from 1e-320 to 10^308.25, so the engine
    brackets roots down in the subnormals.  The decade ones start at the
    smallest normal float and run on from 1e-307 to 1e308: their readers
    need no quantized x, and an inverse map's ladder then inverts no
    subnormal target.  From 1e-307 up every 16th fine probe equals its
    decade probe bit for bit."""
    with np.errstate(over="ignore"):
        probes = 10.0 ** (np.arange(-320 * per_decade, 309 * per_decade)
                          / per_decade)
    probes = probes[np.isfinite(probes)]
    if per_decade == 1:
        probes = np.concatenate(([_SMALLEST_NORMAL],
                                 probes[probes > _SMALLEST_NORMAL]))
    probes.flags.writeable = False
    return probes


# Probes per decade of the ladder that brackets the inverse engine's targets.
_FINE_PER_DECADE = 16

# Secant sweeps every target takes.  From a bracket 1/16 of a decade wide the
# log-log interpolation starts within 1e-3 of the root on the catalog maps
# (typically 1e-5), and three steps reach the last bits except near a flat
# point.
_SECANT_STEPS = 3
# Further sweeps for a root the certificate rejects while its last step still
# moved it: the secant converges only linearly near a flat point of the map
# (xlog just below 1), and these few sweeps are far cheaper than the fallback.
_RETRY_STEPS = 8
# Relative half-width of the x-side bracket that certifies a secant root.
_BRACKET_REL = 1e-13
# Residual a numeric root must meet: |phi(x) - y| <= _RESIDUAL_TOL (1 + y).
_RESIDUAL_TOL = 1e-12
# The smallest positive float; a target below its image has no float root.
_SMALLEST_FLOAT = 5e-324
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def _secant_start(targets, lo, hi, f_lo, f_hi):
    """The log-log interpolation guess inside the bracket ``lo < root <= hi``
    (images ``f_lo < target <= f_hi``), as the state ``_secant_roots``
    steps: (x, lo, hi, g at the previous point, the last step in log x)."""
    g_lo = np.log(f_lo / targets)
    ds = np.log(hi / lo) * (g_lo / (g_lo - np.log(f_hi / targets)))
    return lo * np.exp(ds), lo, hi, g_lo, ds


def _secant_roots(forward_pos, targets, state, steps):
    """Safeguarded secant for ``forward_pos(x) = targets`` in log-log form.

    Works on g = log(forward_pos(x) / target) against s = log x and takes
    ``steps`` sweeps over the whole batch from ``state`` (see
    ``_secant_start``); returns the state after them, its x the roots.
    Iterates move multiplicatively, so they resolve x to its last bit at any
    magnitude.  A step that leaves the running bracket is replaced by the
    bracket's geometric midpoint, and an image equal to the previous one
    (x on the map's rounding floor, or converged) gives a zero step, after
    which the entry stays put.  Every entry runs elementwise, so a root does
    not depend on which other targets share the call; once every step is
    zero the remaining sweeps would change nothing and are skipped.
    """
    x, lo, hi, g_prev, ds = state
    for _ in range(steps):
        g = np.log(np.asarray(forward_pos(x), dtype=float) / targets)
        lo = np.where(g < 0.0, x, lo)
        hi = np.where(g >= 0.0, x, hi)
        step = g * ds / (g_prev - g)
        step[g == g_prev] = 0.0
        x_new = x * np.exp(step)
        stray = ~((x_new >= lo) & (x_new <= hi))
        if np.any(stray):
            mid = lo[stray] * np.sqrt(hi[stray] / lo[stray])
            step[stray] = np.log(mid / x[stray])
            x_new[stray] = mid
        x, g_prev, ds = x_new, g, step
        if not np.any(step):
            break
    return x, lo, hi, g_prev, ds


def _certified(forward_pos, roots, targets):
    """Entries of ``roots`` that pass both acceptance checks: the residual
    ``|phi(x) - y| <= 1e-12 (1 + y)`` and the x-side bracket
    ``phi(x (1 - 1e-13)) < y <= phi(x (1 + 1e-13))``.

    The bracket puts x within 1e-13 of the smallest float whose image
    reaches y, the root the bracketed search converges to.  Where the map
    is flat to rounding over a wider span (near a zero derivative, or at
    subnormal images) the strict left test fails and that search decides.
    """
    n = roots.size
    vals = np.asarray(forward_pos(np.concatenate(
        (roots, roots * (1.0 - _BRACKET_REL), roots * (1.0 + _BRACKET_REL)))),
        dtype=float)
    at, below, above = vals[:n], vals[n:2 * n], vals[2 * n:]
    return ((np.abs(at - targets) <= _RESIDUAL_TOL * (1.0 + targets))
            & (below < targets) & (targets <= above))


# Steps allowed to one bracket search, enough for about 200 halvings.
_ROOT_STEPS = 400
# Steps a lane may probe the float below an upper value of 0 before it
# halves instead.  At the root of ``solve_linear``'s boundary functional
# F reads 0 on stretches of up to 4 floats (corpus(0, 200)); on phi's
# plateaus at subnormal images the stretches are far longer.
_FLAT_PROBES = 4
# Row k of a stacked (lo, hi) pair is kept by a step whose value's sign
# test ``f < 0`` equals _KEEP[k]: lo where f >= 0, hi where f < 0.
_KEEP = np.array([[False], [True]])


def _lane_root(fn, lo, hi, f_lo, f_hi):
    """Bracketed roots of nondecreasing lanes, to adjacent floats.

    ``fn`` maps an array with one point per lane to the lanes' values; each
    lane keeps ``lo < hi`` with ``f(lo) < 0 <= f(hi)``.  A step is an
    Illinois step (Dowell & Jarratt, BIT 11, 1971): a secant through the
    ends, with the value of an end that stayed put while the other moved
    twice in a row halved.  A midpoint replaces it where an end's value is
    infinite, where the upper value has read 0 for more than _FLAT_PROBES
    steps (through a 0 the secant only probes the float below hi), and
    where after k steps the bracket is wider than
    width0 * 2^-floor((k - 1) / 2).  Every point is clamped one float
    inside the bracket, and a lane stops for good at adjacent floats, so
    it ends as it would alone.  Returns ``(lo, hi, f_lo, f_hi)``: ``hi`` is
    the smallest float found with f >= 0, ``lo`` the largest with f < 0.
    """
    ends = np.array([lo, hi], dtype=float)
    vals = np.array([f_lo, f_hi], dtype=float)
    weights, width0 = vals.copy(), ends[1] - ends[0]
    stay = np.zeros(ends.shape, dtype=bool)
    zeros = np.zeros(ends.shape[1], dtype=int)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(_ROOT_STEPS):
            inner = np.nextafter(ends, ends[::-1])
            lo, hi = ends
            done = inner[0] >= hi
            if done.all():
                break
            width = hi - lo
            drop = weights[0] - weights[1]
            zeros = np.where(vals[1] == 0.0, zeros + 1, 0)
            secant = ((width <= width0 * 0.5 ** ((k - 1) // 2))
                      & (drop > -np.inf) & (zeros <= _FLAT_PROBES))
            c = lo + width * (weights[0] / drop)
            every = secant.all()
            if not every:
                c = np.where(secant, c, 0.5 * lo + 0.5 * hi)
            c = np.fmin(np.fmax(c, inner[0]), inner[1])
            f = fn(c)
            keep = ((f < 0.0) == _KEEP) | done
            weights = np.where(keep, weights, f)
            np.multiply(weights, 0.5, out=weights, where=keep & stay)
            ends = np.where(keep, ends, c)
            vals = np.where(keep, vals, f)
            # A midpoint step restarts its lane's weights.
            stay = keep & secant
            if not every:
                weights = np.where(secant, weights, vals)
    return ends[0], ends[1], vals[0], vals[1]


def _invert_positive(phi, targets, out_of_range):
    """Vectorized inverse of the positive branch of ``phi``.

    ``targets`` must be a positive 1-D array.  Each target is bracketed
    between two points of the fine probe ladder (16 per decade) cached on
    ``phi``, guessed by log-log interpolation and polished by three sweeps
    of a safeguarded log-log secant over the whole batch.  A root is
    accepted only when ``|phi(x) - y| <= 1e-12 * (1 + y)`` and
    ``phi(x (1 - 1e-13)) < y <= phi(x (1 + 1e-13))`` both hold.  An entry
    that fails while its last step still moved it takes up to
    ``_RETRY_STEPS`` more sweeps and is certified again.  Every other entry
    (including targets below the ladder's first image) is redone by
    ``_lane_root`` on phi(x) - y over its ladder bracket, whose upper end,
    the smallest float found with phi(x) >= y, is the root;
    ``ConvergenceError`` is raised if that misses the residual check,
    unless the root is subnormal and its bracket is adjacent floats.
    Targets above every image on the ladder either raise
    ``UnboundedInputError`` (``out_of_range="raise"``) or come back as
    ``inf`` (``"inf"``); targets below phi(5e-324), whose roots underflow,
    come back as 0.  Which path an entry takes depends on its target
    alone, so a root does not depend on the other targets in the call.
    """
    forward_pos = phi._forward_pos
    targets = np.asarray(targets, dtype=float)
    px, pv = phi._probe_ladder(_FINE_PER_DECADE)

    overflow = targets > pv[-1]
    if np.any(overflow):
        if out_of_range == "raise":
            raise UnboundedInputError(
                "target %g exceeds the largest representable image %g"
                % (float(np.max(targets)), pv[-1]))
        targets = np.where(overflow, pv[-1], targets)

    idx = np.minimum(np.searchsorted(pv, targets, side="left"), px.size - 1)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        root = np.zeros_like(targets)
        fallback = idx == 0
        sec = np.flatnonzero(~fallback)
        if sec.size:
            y, i = targets[sec], idx[sec]
            state = _secant_roots(forward_pos, y, _secant_start(
                y, px[i - 1], px[i], pv[i - 1], pv[i]), _SECANT_STEPS)
            ok = _certified(forward_pos, state[0], y)
            again = np.flatnonzero(~ok & (state[4] != 0.0))
            if again.size:
                more = _secant_roots(forward_pos, y[again],
                                     [part[again] for part in state],
                                     _RETRY_STEPS)
                state[0][again] = more[0]
                ok[again] = _certified(forward_pos, more[0], y[again])
            root[sec] = state[0]
            fallback[sec] = ~ok

        bis = np.flatnonzero(fallback)
        if bis.size:
            b_y, i = targets[bis], idx[bis]
            first = i == 0
            b_lo, b_root, _, _ = _lane_root(
                lambda x: np.asarray(forward_pos(x), dtype=float) - b_y,
                np.where(first, 0.0, px[i - 1]), px[i],
                np.where(first, 0.0, pv[i - 1]) - b_y, pv[i] - b_y)
            res = np.abs(np.asarray(forward_pos(b_root), dtype=float) - b_y)
            bad = (res > _RESIDUAL_TOL * (1.0 + b_y)) & ~overflow[bis]
            if np.any(bad):
                # Below phi(5e-324) the root lies under the smallest positive
                # float, where no float meets the residual: it underflows to 0.
                under = b_y < float(np.asarray(
                    forward_pos(np.array([_SMALLEST_FLOAT])), dtype=float)[0])
                b_root[bad & under] = 0.0
                # Subnormal floats may be too sparse for any of them to meet
                # the residual; a subnormal root stands when its bracket is
                # adjacent floats, phi(previous float) < y <= phi(root).
                bad &= ~under & ~((b_root < _SMALLEST_NORMAL)
                                  & (np.nextafter(b_lo, b_root) == b_root))
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
    of the argument is carried over exactly.  A closed form that is odd on
    the reals (power:1's identity, arcsinh's sinh) is called directly, with
    no odd extension around it, which is most of the shooting march's cost
    per stage otherwise.  The callable takes a float array and sets no
    floating-point error state: the public entries wrap each call in
    ``np.errstate``, and the shooting march binds the callable once and
    runs its whole loop under one.
    """
    if phi._inverse_pos is None:
        return _numeric_odd_inverse(phi, out_of_range)
    return _odd(phi._inverse_pos, phi._odd_on_reals)


def _numeric_odd_inverse(phi, out_of_range):
    """The odd inverse of ``phi`` by the certified numeric engine."""
    def inverse(z):
        # NaN maps to NaN without entering the root loops.
        out = np.where(np.isnan(z), np.nan, 0.0)
        mask = np.abs(z) > 0.0
        if np.any(mask):
            roots = _invert_positive(phi, np.abs(z[mask]), out_of_range)
            out[mask] = np.sign(z[mask]) * roots
        return out
    return inverse


def numeric_inverse(phi: Homeomorphism, y):
    """Invert ``phi`` by the certified numeric engine, even when it has a
    closed-form inverse, which makes this the reference against one.

    Handles scalars and arrays and applies the odd extension by sign.  Each
    magnitude is bracketed on a probe ladder of 16 points per decade (built
    once per map, the first time the engine inverts it, and cached on it),
    guessed by log-log interpolation and polished by three log-log secant
    sweeps.  A root is accepted only when both
    ``|phi(root) - y| <= 1e-12 * (1 + |y|)`` and the x-side bracket
    ``phi(root (1 - 1e-13)) < |y| <= phi(root (1 + 1e-13))`` hold; a root
    still moving gets a few more sweeps first, and any other entry is redone
    by a bracketed search on its ladder bracket down to adjacent floats.
    ``ConvergenceError`` is raised if that still misses the residual check,
    except below phi(5e-324), where the root underflows to 0, and at a
    subnormal root whose bracket is adjacent floats, which stands.  A
    magnitude above the largest image on the ladder raises
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


def _rough_inverse(phi: "Homeomorphism", z):
    """An uncertified estimate of ``inverse_saturating(phi, z)``, for a
    search that only needs it to steer.

    The closed form when there is one, else the numeric engine's start
    without its sweeps or certificate: the log-log interpolation of
    ``_secant_start`` on the fine probe ladder, 0 below the ladder's first
    image and inf above its last.  Odd like ``phi.inverse``.
    """
    if phi._inverse_pos is not None:
        return inverse_saturating(phi, z)
    px, pv = phi._probe_ladder(_FINE_PER_DECADE)

    def start(y):
        i = np.searchsorted(pv, y, side="left")
        out = np.where(y > pv[-1], np.inf, 0.0)
        inside = (i > 0) & (i < px.size)
        j = i[inside]
        out[inside] = _secant_start(y[inside], px[j - 1], px[j], pv[j - 1],
                                    pv[j])[0]
        return out
    return _evaluate(_odd(start), z)


# Nodes of the table's geometric t grid, which spans 16 decades below the
# table's top node.
_TABLE_POINTS = 4096


class _InverseTable:
    """Fast increasing under-estimate of a positive-branch inverse.

    When the homeomorphism carries an explicit inverse, calls defer to its
    positive branch (saturating to inf past the representable range), with
    no odd extension: the table only sees nonnegative arguments, M times a
    mass, and only 0 needs the extension's fix.  Otherwise this
    tabulates z_k = phi(t_k) on a geometric grid t_0 < ... < t_{n-1} over
    the 16 decades below ``t_hi``, a little above the certified root of
    ``z_max``, and returns on [z_k, z_{k+1}] the linear interpolation
    between t_{k-1} and t_k: 0 below z_0, t_{n-2} from z_{n-1} up.  It lies
    below phi^{-1} because phi^{-1} increases: z >= phi(t_k) gives
    phi^{-1}(z) >= t_k, which the table reaches only at z_{k+1}, and the
    one-node shift absorbs the rounding of z_k.  It lies above
    rho^{-2} phi^{-1} on the tabulated range, rho being the grid's ratio
    (10^(16/4095) for the full span).  Used only inside inner loops where
    one certified root solve per evaluation would dominate the runtime.
    """

    def __init__(self, phi: Homeomorphism, z_max: float):
        self._exact = phi._inverse_pos
        if self._exact is not None:
            return
        px, _ = phi._probe_ladder()
        t_hi = inverse_saturating(phi, float(z_max)) * 1.001
        if not np.isfinite(t_hi) or t_hi <= 0.0:
            t_hi = float(px[-1])
        t = np.geomspace(max(float(px[0]), t_hi * 1e-16), t_hi, _TABLE_POINTS)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            z = np.asarray(phi._forward_pos(t), dtype=float)
        good = np.isfinite(z) & (z > 0.0)
        t, z = t[good], z[good]
        keep = np.concatenate(([True], np.diff(z) > 0.0))
        t, z = t[keep], z[keep]
        if t.size < 2:
            raise ValueError("forward map not tabulable on the requested range")
        self._z = z
        self._t = np.concatenate(([0.0], t[:-1]))

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        if self._exact is not None:
            # Zeroed in place; the identity of power:1 returns its input.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                t = np.asarray(self._exact(z), dtype=float)
            if np.may_share_memory(t, z):
                t = t.copy()
            t[z == 0.0] = 0.0
            return t
        return np.interp(z, self._z, self._t, left=0.0)


def _identity(y):
    return y


def make_power(r: float) -> Homeomorphism:
    """The odd power map with exponent ``r > 0``; ``r = 1`` is the identity,
    the Laplacian, which is odd on the reals and skips the odd extension."""
    if not (r > 0.0 and np.isfinite(r)):
        raise ValueError("power exponent must be positive and finite")
    r = float(r)
    if r == 1.0:
        return Homeomorphism("power:1", _identity, _identity, known_alpha=r,
                             known_beta=r, _odd_on_reals=True)
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
    if not all(math.isfinite(arg) for arg in args):
        raise ValueError("descriptor exponents must be finite, got %r" % argstr)

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
                             known_alpha=None, known_beta=None,
                             _odd_on_reals=True)
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
