"""Problem-file parsing and deterministic report serialization.

A problem file is a JSON object with the keys

    interval    [a, b] with a < b
    grid_size   node count, at least 3
    phi         catalog descriptor string, e.g. "power:2"
    m, n        weight descriptors or explicit node/value tables
    lambda, mu  positive scalars
    f, g        nonlinearity blocks

Weight descriptors are products of factors joined by "*", each factor one
of "constant:c", "power:p" (meaning (x - a)^p), or "indicator:l,r".  An
explicit weight is {"nodes": [...], "values": [...]} covering the interval
and is sampled onto the problem grid by linear interpolation.

A nonlinearity block holds "expr", either "power:q" or "table" (with "t"
and "values" arrays, extended linearly past the last segment and clamped
at zero).  The f block may carry an "F" sub-block with c0, t0, q; the g
block may carry "G1" (c1, t1, r1) and "G2" (c2, t2, r2).  Unknown keys
are rejected at every level, and constraint violations are reported by
naming the constraint, e.g. "mu > 0".

Linear problem files use the keys interval, grid_size, phi, h.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ProblemFileError
from .grids import Grid, GridFunction
from .homeomorphisms import Homeomorphism, make_catalog_entry
from .problems import FConstants, G1Constants, G2Constants, ProblemSpec

_PROBLEM_KEYS = {"interval", "grid_size", "phi", "m", "n", "lambda", "mu", "f", "g"}
_LINEAR_KEYS = {"interval", "grid_size", "phi", "h"}
_WEIGHT_TABLE_KEYS = {"nodes", "values"}
_F_BLOCK_KEYS = {"expr", "t", "values", "F"}
_G_BLOCK_KEYS = {"expr", "t", "values", "G1", "G2"}


def _fail(message: str) -> None:
    raise ProblemFileError("problem file violates %s" % message)


def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise ProblemFileError("%s must be a JSON object" % where)
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ProblemFileError("%s has unknown key(s): %s" % (where, ", ".join(unknown)))
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ProblemFileError("%s is missing key(s): %s" % (where, ", ".join(missing)))


def _finite_float(value, what):
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ProblemFileError("%s must be a number, got %r" % (what, value)) from None
    if not math.isfinite(out):
        raise ProblemFileError("%s must be finite" % what)
    return out


def _float_array(value, what):
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ProblemFileError("%s must be an array of numbers" % what) from None
    if out.ndim != 1 or out.size == 0 or not np.all(np.isfinite(out)):
        raise ProblemFileError("%s must be a nonempty 1-D array of finite numbers" % what)
    return out


def _parse_interval(value):
    arr = _float_array(value, "interval")
    if arr.size != 2:
        raise ProblemFileError("interval must be a pair [a, b]")
    a, b = float(arr[0]), float(arr[1])
    if not a < b:
        _fail("interval a < b")
    return a, b


def _parse_grid_size(value, override):
    if override is not None:
        value = override
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            as_float = float(value)
        except (TypeError, ValueError):
            raise ProblemFileError("grid_size must be an integer") from None
        if not math.isfinite(as_float) or as_float != int(as_float):
            raise ProblemFileError("grid_size must be an integer")
        value = int(as_float)
    if value < 3:
        _fail("grid_size >= 3")
    return value


def _parse_phi(value) -> Homeomorphism:
    if not isinstance(value, str):
        raise ProblemFileError("phi must be a descriptor string")
    try:
        return make_catalog_entry(value)
    except ValueError as exc:
        raise ProblemFileError("phi: %s" % exc) from exc


def _weight_factor(factor: str, grid: Grid, where: str) -> np.ndarray:
    name, _, arg = factor.strip().partition(":")
    x = grid.nodes
    if name == "constant":
        c = _finite_float(arg, "%s constant factor" % where)
        if c < 0.0:
            _fail("%s constant factor >= 0" % where)
        return np.full(grid.count, c)
    if name == "power":
        p = _finite_float(arg, "%s power exponent" % where)
        if p <= 0.0:
            _fail("%s power exponent > 0" % where)
        return (x - grid.a) ** p
    if name == "indicator":
        parts = arg.split(",")
        if len(parts) != 2:
            raise ProblemFileError("%s indicator needs two endpoints l,r" % where)
        lo = _finite_float(parts[0], "%s indicator left endpoint" % where)
        hi = _finite_float(parts[1], "%s indicator right endpoint" % where)
        if not (grid.a <= lo < hi <= grid.b):
            _fail("%s indicator a <= l < r <= b" % where)
        return ((x >= lo) & (x <= hi)).astype(float)
    raise ProblemFileError("%s has unknown weight factor %r" % (where, name))


def _parse_weight(value, grid: Grid, where: str) -> GridFunction:
    if isinstance(value, str):
        values = np.ones(grid.count)
        for factor in value.split("*"):
            values = values * _weight_factor(factor, grid, where)
        return GridFunction(grid, values)
    _require_keys(value, _WEIGHT_TABLE_KEYS, _WEIGHT_TABLE_KEYS, "weight %s" % where)
    nodes = _float_array(value["nodes"], "weight %s nodes" % where)
    vals = _float_array(value["values"], "weight %s values" % where)
    if nodes.size != vals.size:
        raise ProblemFileError("weight %s nodes and values must have equal length" % where)
    if nodes.size < 2 or np.any(np.diff(nodes) <= 0.0):
        _fail("weight %s nodes strictly increasing" % where)
    if not (nodes[0] <= grid.a and nodes[-1] >= grid.b):
        _fail("weight %s nodes cover [a, b]" % where)
    if np.any(vals < 0.0):
        _fail("weight %s >= 0" % where)
    return GridFunction(grid, np.interp(grid.nodes, nodes, vals))


def _power_callable(q: float):
    def evaluate(t):
        return np.asarray(t, dtype=float) ** q
    return evaluate


def _table_callable(ts: np.ndarray, vs: np.ndarray):
    slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, ts, vs)
        above = t > ts[-1]
        if np.any(above):
            out = np.where(above, np.maximum(vs[-1] + slope * (t - ts[-1]), 0.0), out)
        return out

    return evaluate


def _parse_expr(block, which):
    expr = block.get("expr")
    if not isinstance(expr, str):
        raise ProblemFileError("%s.expr must be a string" % which)
    if expr.startswith("power:"):
        if "t" in block or "values" in block:
            raise ProblemFileError("%s: power form takes no t/values arrays" % which)
        q = _finite_float(expr.partition(":")[2], "%s power exponent" % which)
        if q <= 0.0:
            _fail("%s power exponent > 0" % which)
        return _power_callable(q)
    if expr == "table":
        if "t" not in block or "values" not in block:
            raise ProblemFileError("%s: table form needs t and values arrays" % which)
        ts = _float_array(block["t"], "%s.t" % which)
        vs = _float_array(block["values"], "%s.values" % which)
        if ts.size != vs.size or ts.size < 2:
            raise ProblemFileError("%s: t and values must have equal length >= 2" % which)
        if ts[0] != 0.0 or np.any(np.diff(ts) <= 0.0):
            _fail("%s table abscissae start at 0 and increase" % which)
        if np.any(vs < 0.0):
            _fail("%s table values >= 0" % which)
        return _table_callable(ts, vs)
    raise ProblemFileError("%s.expr must be 'power:q' or 'table'" % which)


def _parse_constants(block, keys, maker, where):
    if block is None:
        return None
    _require_keys(block, keys, keys, where)
    return maker(*(_finite_float(block[k], "%s.%s" % (where, k)) for k in keys))


def _load_json(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ProblemFileError("cannot read problem file: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError("invalid JSON at line %d column %d: %s"
                               % (exc.lineno, exc.colno, exc.msg)) from exc
    if not isinstance(data, dict):
        raise ProblemFileError("top level must be a JSON object")
    return data


def parse_problem(path, grid_size: int | None = None) -> ProblemSpec:
    """Read a nonlinear problem file; ``grid_size`` overrides the file's."""
    data = _load_json(path)
    _require_keys(data, _PROBLEM_KEYS, _PROBLEM_KEYS, "problem")
    a, b = _parse_interval(data["interval"])
    count = _parse_grid_size(data["grid_size"], grid_size)
    grid = Grid.uniform(a, b, count)
    phi = _parse_phi(data["phi"])
    m = _parse_weight(data["m"], grid, "m")
    n = _parse_weight(data["n"], grid, "n")
    lam = _finite_float(data["lambda"], "lambda")
    if lam <= 0.0:
        _fail("lambda > 0")
    mu = _finite_float(data["mu"], "mu")
    if mu <= 0.0:
        _fail("mu > 0")

    f_block = data["f"]
    _require_keys(f_block, _F_BLOCK_KEYS, {"expr"}, "f")
    f = _parse_expr(f_block, "f")
    f_constants = _parse_constants(f_block.get("F"), ("c0", "t0", "q"), FConstants, "f.F")

    g_block = data["g"]
    _require_keys(g_block, _G_BLOCK_KEYS, {"expr"}, "g")
    g = _parse_expr(g_block, "g")
    g1 = _parse_constants(g_block.get("G1"), ("c1", "t1", "r1"), G1Constants, "g.G1")
    g2 = _parse_constants(g_block.get("G2"), ("c2", "t2", "r2"), G2Constants, "g.G2")

    try:
        return ProblemSpec(grid=grid, phi=phi, m=m, n=n, lam=lam, mu=mu, f=f, g=g,
                           f_constants=f_constants, g1_constants=g1, g2_constants=g2)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc


def parse_linear_problem(path, grid_size: int | None = None):
    """Read a linear problem file; returns (phi, h)."""
    data = _load_json(path)
    _require_keys(data, _LINEAR_KEYS, _LINEAR_KEYS, "linear problem")
    a, b = _parse_interval(data["interval"])
    count = _parse_grid_size(data["grid_size"], grid_size)
    grid = Grid.uniform(a, b, count)
    phi = _parse_phi(data["phi"])
    h = _parse_weight(data["h"], grid, "h")
    return phi, h


def _format_float(value: float) -> str:
    return "%.17g" % value


def write_profile_csv(path, profile) -> None:
    """Write ``x,u,du`` rows, one per grid node."""
    x = profile.grid.nodes
    with open(path, "w", newline="\n") as handle:
        handle.write("x,u,du\n")
        for xi, ui, di in zip(x, profile.u.values, profile.du.values):
            handle.write("%s,%s,%s\n" % (_format_float(xi), _format_float(ui),
                                         _format_float(di)))


def write_diagram_csv(path, diagram) -> None:
    """One row per found branch solution, in sweep order."""
    with open(path, "w", newline="\n") as handle:
        handle.write("lambda,branch_index,sup_norm,initial_slope,in_cone\n")
        for point in diagram.points:
            for index, sol in enumerate(point.solutions):
                handle.write("%s,%d,%s,%s,%d\n"
                             % (_format_float(point.lam), index,
                                _format_float(sol.sup_norm),
                                _format_float(sol.initial_slope),
                                1 if sol.in_cone else 0))


def _json_ready(value):
    """Recursively coerce to JSON-safe types; non-finite floats to strings."""
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        out = float(value)
        if math.isnan(out):
            return "nan"
        if math.isinf(out):
            return "inf" if out > 0 else "-inf"
        return out
    return value


def write_json_report(path, payload: dict) -> None:
    """Stable serialization: sorted keys, two-space indent, trailing newline."""
    text = json.dumps(_json_ready(payload), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", newline="\n") as handle:
        handle.write(text + "\n")
