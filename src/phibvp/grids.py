"""Grids, piecewise-linear grid functions, quadrature, and support geometry.

Everything downstream works with functions sampled at the nodes of a fixed
partition of a closed interval [a, b] and interpreted as piecewise linear
between nodes.  This module owns that representation: the grid itself, the
value container, trapezoid quadrature and cumulative integrals, sup-norm and
comparison helpers, and the support quantities (first and last points of
positive mass, their midpoint, and the associated cone constant) used by the
positivity machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ZeroWeightError


def _frozen_array(values):
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Strictly increasing finite nodes spanning a closed interval [a, b]."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1:
            raise ValueError("grid nodes must be one-dimensional")
        if nodes.size < 3:
            raise ValueError("a grid needs at least 3 nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", _frozen_array(nodes))

    @classmethod
    def uniform(cls, a: float, b: float, count: int) -> "Grid":
        """Equispaced grid with ``count`` nodes from ``a`` to ``b``."""
        if count < 3:
            raise ValueError("a grid needs at least 3 nodes")
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError("interval endpoints must be finite with a < b")
        return cls(np.linspace(float(a), float(b), int(count)))

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @property
    def count(self) -> int:
        return int(self.nodes.size)

    @property
    def cell_widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return np.array_equal(self.nodes, other.nodes)

    def __hash__(self):
        return hash((self.nodes.size, self.nodes[0], self.nodes[-1],
                     float(self.nodes[self.nodes.size // 2])))


@dataclass(frozen=True)
class GridFunction:
    """Nodal values on a grid, read as a piecewise-linear function."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must have one entry per grid node")
        object.__setattr__(self, "values", _frozen_array(values))

    def __call__(self, x):
        """Piecewise-linear interpolation at point(s) ``x``."""
        return np.interp(x, self.grid.nodes, self.values)

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.grid, self.values.tobytes()))


def require_same_grid(*functions: GridFunction) -> Grid:
    """Return the common grid of the arguments or raise ``GridMismatchError``."""
    grid = functions[0].grid
    for fn in functions[1:]:
        if fn.grid != grid:
            raise GridMismatchError("grid functions live on different grids")
    return grid


def sup_norm(fn: GridFunction) -> float:
    """Max of |values| over the nodes."""
    return float(np.max(np.abs(fn.values)))


def pointwise_leq(lo: GridFunction, hi: GridFunction, slack: float = 0.0) -> bool:
    """True when ``lo <= hi + slack`` holds at every node."""
    require_same_grid(lo, hi)
    return bool(np.all(lo.values <= hi.values + slack))


def cumulative_trapezoid_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of nodal ``values``, zero at the left endpoint."""
    widths = grid.cell_widths
    cell_masses = 0.5 * widths * (values[:-1] + values[1:])
    out = np.empty_like(np.asarray(values, dtype=float))
    out[0] = 0.0
    np.cumsum(cell_masses, out=out[1:])
    return out


def _cell_trapezoids(samples: np.ndarray, sub_widths: np.ndarray) -> np.ndarray:
    """Composite trapezoid per cell: row i of ``samples`` holds equispaced
    samples across cell i, ``sub_widths[i]`` apart, ends included."""
    inner = np.sum(samples, axis=1) - 0.5 * (samples[:, 0] + samples[:, -1])
    return sub_widths * inner


def integral(fn: GridFunction) -> float:
    """Trapezoid integral of ``fn`` over the whole interval."""
    widths = fn.grid.cell_widths
    return float(np.sum(0.5 * widths * (fn.values[:-1] + fn.values[1:])))


def dist_to_boundary(grid: Grid) -> GridFunction:
    """The tent function delta(x) = min(x - a, b - x) on the grid."""
    x = grid.nodes
    return GridFunction(grid, np.minimum(x - grid.a, grid.b - x))


@dataclass(frozen=True)
class SupportData:
    """Geometry of where a nonnegative weight carries its mass.

    ``alpha_h`` is the last point before any mass accumulates, ``beta_h`` the
    first point after which none remains, ``theta_bar`` their midpoint, and
    ``theta_under`` the cone constant min(1 / (beta_h - a), 1 / (b - alpha_h)).
    """

    alpha_h: float
    beta_h: float
    theta_bar: float
    theta_under: float


def _invert_cell_quadratic(x0, w, v0, v1, target):
    """Point inside [x0, x0 + w] where the running integral of the linear
    interpolant between v0 and v1 first reaches ``target`` (relative to x0).

    The cumulative within the cell, v0 s + slope s^2 / 2, is exactly
    quadratic, and its root s = 2 T / (v0 + sqrt(v0^2 + 2 slope T)) has no
    cancellation: v0, v1 >= 0 keep the radicand at least min(v0, v1)^2.
    A target that rounded to 0 or below gives x0, and one past the cell's
    mass gives its right end.
    """
    if not target > 0.0:
        return x0
    slope = (v1 - v0) / w
    s = 2.0 * target / (v0 + math.sqrt(max(v0 * v0 + 2.0 * slope * target, 0.0)))
    return x0 + min(s, w)


_SUPPORT_TOL_REL = 1e-12


def support_data(h: GridFunction) -> SupportData:
    """Locate the support of a nonnegative weight and its cone constant.

    Mass is treated as zero while the cumulative mass stays at or below
    1e-12 times the total mass.  Raises ``ZeroWeightError`` when the weight
    carries no mass at all.
    """
    grid = h.grid
    values = h.values
    if np.any(values < -1e-13 * (1.0 + np.max(np.abs(values)))):
        raise ValueError("weight must be nonnegative")
    values = np.maximum(values, 0.0)

    H = cumulative_trapezoid_values(grid, values)
    total = H[-1]
    tol = _SUPPORT_TOL_REL * total
    if not (total > tol) or total <= 0.0:
        raise ZeroWeightError("weight carries no positive mass")

    x = grid.nodes
    widths = grid.cell_widths

    # alpha: largest point with cumulative mass <= tol, found by locating the
    # cell where H crosses tol and solving the exact in-cell quadratic.
    i = int(np.searchsorted(H, tol, side="right")) - 1
    i = min(max(i, 0), grid.count - 2)
    if H[i + 1] <= tol:
        alpha = float(x[i + 1])
    elif H[i] >= tol:
        alpha = float(x[i])
    else:
        alpha = _invert_cell_quadratic(x[i], widths[i], values[i], values[i + 1],
                                       tol - H[i])

    # beta: the mirror image, the remaining mass accumulated from b and the
    # in-cell quadratic solved from the cell's right node.  At a right
    # support edge, where h falls to 0, the cumulative from the left is flat
    # and its root ill-conditioned; the mirrored one rises there.
    R = np.append(np.cumsum((0.5 * widths * (values[:-1] + values[1:]))[::-1])[::-1],
                  0.0)
    j = int(np.searchsorted(-R, -tol, side="left"))
    j = min(max(j, 1), grid.count - 1)
    if R[j - 1] <= tol:
        beta = float(x[j - 1])
    elif R[j] >= tol:
        beta = float(x[j])
    else:
        beta = x[j] - _invert_cell_quadratic(0.0, widths[j - 1], values[j],
                                             values[j - 1], tol - R[j])

    if beta < alpha:
        alpha = beta = 0.5 * (alpha + beta)

    theta_bar = 0.5 * (alpha + beta)
    theta_under = min(1.0 / (beta - grid.a), 1.0 / (grid.b - alpha))
    return SupportData(alpha_h=float(alpha), beta_h=float(beta),
                       theta_bar=float(theta_bar), theta_under=float(theta_under))
