"""Randomized nonnegative forcing corpus for the bound suites.

Each case pairs a catalog homeomorphism with a forcing assembled from a
few wide bumps and an optional constant offset.  Bumps are at least five
percent of the interval wide with amplitudes of order one, so every case
keeps a well-separated support midpoint and nondegenerate one-sided mass
integrals; the checks downstream then run at tight slack without relying
on luck.
"""

from __future__ import annotations

import numpy as np

from .grids import Grid, GridFunction
from .homeomorphisms import CATALOG_DESCRIPTORS, make_catalog_entry

_MIN_WIDTH_FRACTION = 0.05
_AMPLITUDE_RANGE = (0.3, 3.0)
_PIECE_KINDS = ("block", "ramp", "hat")


def _bump(kind: str, x: np.ndarray, lo: float, hi: float, amp: float) -> np.ndarray:
    t = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    if kind == "block":
        profile = ((x >= lo) & (x <= hi)).astype(float)
    elif kind == "ramp":
        profile = t * ((x >= lo) & (x <= hi))
    else:
        profile = 1.0 - np.abs(2.0 * t - 1.0)
    return amp * profile


def random_forcing(rng: np.random.Generator, grid: Grid) -> GridFunction:
    """One to three wide bumps plus, half the time, a constant floor."""
    x = grid.nodes
    span = grid.b - grid.a
    values = np.zeros_like(x)
    for _ in range(int(rng.integers(1, 4))):
        width = float(rng.uniform(_MIN_WIDTH_FRACTION, 0.5)) * span
        lo = grid.a + float(rng.uniform(0.0, 1.0)) * (span - width)
        amp = float(rng.uniform(*_AMPLITUDE_RANGE))
        kind = _PIECE_KINDS[int(rng.integers(0, len(_PIECE_KINDS)))]
        values += _bump(kind, x, lo, lo + width, amp)
    if rng.uniform() < 0.5:
        values += float(rng.uniform(0.05, 0.5))
    return GridFunction(grid, values)


def random_case(rng: np.random.Generator, grid_size: int):
    """A (descriptor, homeomorphism, forcing) triple on the unit interval."""
    descriptor = CATALOG_DESCRIPTORS[int(rng.integers(0, len(CATALOG_DESCRIPTORS)))]
    grid = Grid.uniform(0.0, 1.0, grid_size)
    return descriptor, make_catalog_entry(descriptor), random_forcing(rng, grid)


def corpus(seed: int, count: int, grid_size: int = 257) -> list:
    """A reproducible list of cases; the seed fixes everything."""
    rng = np.random.default_rng(seed)
    return [random_case(rng, grid_size) for _ in range(count)]
