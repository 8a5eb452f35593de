import numpy as np
import pytest

from phibvp import (Grid, GridFunction, SolutionProfile, ZeroWeightError,
                    corpus, dist_to_boundary, integral, pointwise_leq,
                    sup_norm, support_data, write_profile_csv)
from phibvp.errors import GridMismatchError
from phibvp.grids import (_invert_cell_quadratic, cumulative_trapezoid_values,
                          require_same_grid)


def unit_grid(n=257):
    return Grid.uniform(0.0, 1.0, n)


class TestGrid:
    def test_uniform_endpoints_exact(self):
        g = Grid.uniform(-1.5, 2.5, 101)
        assert g.a == -1.5 and g.b == 2.5
        assert g.count == 101
        assert np.all(g.cell_widths > 0)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            Grid.uniform(0.0, 1.0, 2)

    def test_rejects_decreasing_nodes(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 0.5, 0.4, 1.0]))

    def test_equality_and_hash(self):
        g1 = unit_grid(65)
        g2 = unit_grid(65)
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != unit_grid(129)


class TestGridFunction:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(unit_grid(65), np.zeros(64))

    def test_require_same_grid(self):
        g = unit_grid(65)
        f1 = GridFunction(g, np.zeros(65))
        f2 = GridFunction(unit_grid(129), np.zeros(129))
        with pytest.raises(GridMismatchError):
            require_same_grid(f1, f2)

    def test_call_interpolates(self):
        g = unit_grid(1025)
        f = GridFunction(g, 3.0 * g.nodes)
        assert f(0.3125) == pytest.approx(0.9375, abs=1e-14)


class TestCalculus:
    def test_cumulative_linear_integrand_exact(self):
        # The trapezoid rule is exact on piecewise-linear data, so the
        # running integral of h(x) = 2x must reach exactly 1.
        g = unit_grid(1025)
        h = GridFunction(g, 2.0 * g.nodes)
        H = cumulative_trapezoid_values(g, h.values)
        assert H[0] == 0.0
        assert H[-1] == pytest.approx(1.0, abs=1e-12)
        assert integral(h) == pytest.approx(1.0, abs=1e-12)

    def test_cumulative_is_linear_in_data(self):
        g = unit_grid(129)
        rng = np.random.default_rng(3)
        a = GridFunction(g, rng.uniform(0.0, 1.0, g.count))
        b = GridFunction(g, rng.uniform(0.0, 1.0, g.count))
        lhs = cumulative_trapezoid_values(g, 2.0 * a.values + 0.5 * b.values)
        rhs = (2.0 * cumulative_trapezoid_values(g, a.values)
               + 0.5 * cumulative_trapezoid_values(g, b.values))
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_sup_norm_and_pointwise_leq(self):
        g = unit_grid(65)
        f = GridFunction(g, np.linspace(-2.0, 1.0, 65))
        assert sup_norm(f) == 2.0
        lo = GridFunction(g, f.values - 1.0)
        assert pointwise_leq(lo, f)
        assert not pointwise_leq(f, lo)
        assert pointwise_leq(f, lo, slack=1.5)

    def test_dist_to_boundary_tent(self):
        g = unit_grid(101)
        d = dist_to_boundary(g)
        assert d.values[0] == 0.0 and d.values[-1] == 0.0
        assert np.max(d.values) == pytest.approx(0.5, abs=1e-15)
        assert d(0.25) == pytest.approx(0.25, abs=1e-15)


class TestSupportData:
    def test_full_support_constant(self):
        g = unit_grid(257)
        sd = support_data(GridFunction(g, np.ones(g.count)))
        assert sd.alpha_h == pytest.approx(0.0, abs=1e-9)
        assert sd.beta_h == pytest.approx(1.0, abs=1e-9)
        assert sd.theta_bar == pytest.approx(0.5, abs=1e-9)
        assert sd.theta_under == pytest.approx(1.0, rel=1e-9)

    def test_interior_indicator(self):
        g = unit_grid(257)
        x = g.nodes
        h = GridFunction(g, ((x >= 0.25) & (x <= 0.5)).astype(float))
        sd = support_data(h)
        # The detected edges sit inside the one-cell ramps of the
        # piecewise-linear extension of the nodal indicator.
        assert sd.alpha_h == pytest.approx(0.25, abs=5e-3)
        assert sd.beta_h == pytest.approx(0.5, abs=5e-3)
        assert sd.theta_bar == pytest.approx(0.375, abs=5e-3)
        assert sd.theta_under == pytest.approx(4.0 / 3.0, rel=1e-2)

    def test_left_anchored_indicator(self):
        g = unit_grid(257)
        x = g.nodes
        h = GridFunction(g, (x <= 0.5).astype(float))
        sd = support_data(h)
        assert sd.theta_under == pytest.approx(1.0, rel=1e-2)

    def test_zero_weight_raises(self):
        g = unit_grid(65)
        with pytest.raises(ZeroWeightError):
            support_data(GridFunction(g, np.zeros(g.count)))

    def test_cell_quadratic_closed_form(self):
        # A target that rounded to 0 or just below, in a cell where h starts
        # at 0, gives the cell's left end rather than 0/0.
        assert _invert_cell_quadratic(0.25, 0.5, 0.0, 2.0, 0.0) == 0.25
        assert _invert_cell_quadratic(0.25, 0.5, 0.0, 2.0, -1e-300) == 0.25
        # v0 s + (v1 - v0) s^2 / (2 w) = T on rising, falling and flat cells.
        for v0, v1 in ((0.0, 2.0), (3.0, 1.0), (1.0, 1.0), (2.0, 0.0)):
            for s in (1e-9, 0.1, 0.37):
                T = v0 * s + (v1 - v0) * s * s
                assert _invert_cell_quadratic(0.25, 0.5, v0, v1, T) == \
                    pytest.approx(0.25 + s, abs=1e-15)
        # The whole cell's mass, or more, reaches its right end.
        assert _invert_cell_quadratic(0.25, 0.5, 1.0, 3.0, 1.0) == 0.75
        assert _invert_cell_quadratic(0.25, 0.5, 1.0, 1.0, 2.0) == 0.75

    def test_edges_against_exact_arithmetic(self):
        # Both edges of the 200 forcings of corpus(0, 200), against the
        # exact edges of the same float data: the trapezoid masses of the
        # nodal values over the cell widths, summed exactly from a for
        # alpha and from b for beta, and the exact root of the in-cell
        # quadratic, anchored at the cell's left node for alpha and at
        # its right node for beta.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.prec = 120

        def cell_root(v0, v1, w, T):
            # v0 s + (v1 - v0) s^2 / (2 w) = T, without cancellation.
            a, b = (mp.mpf(v1) - v0) / (2 * mp.mpf(w)), mp.mpf(v0)
            return 2 * T / (b + mp.sqrt(b * b + 4 * a * T))

        def ulps(value, exact):
            return float(abs(value - exact) / np.spacing(abs(float(exact))))

        worst = 0.0
        for _, _, h in corpus(0, 200):
            x, w = h.grid.nodes, h.grid.cell_widths
            v = np.maximum(h.values, 0.0)
            tol = mp.mpf(1e-12 * cumulative_trapezoid_values(h.grid, v)[-1])
            mass = [mp.mpf(w[k]) * (mp.mpf(v[k]) + v[k + 1]) / 2
                    for k in range(w.size)]
            H = np.cumsum([mp.mpf(0)] + mass)
            R = np.cumsum([mp.mpf(0)] + mass[::-1])[::-1]
            i = int(np.flatnonzero(H <= tol)[-1])
            j = int(np.flatnonzero(R <= tol)[0])
            alpha = mp.mpf(x[i])
            if i < w.size:
                alpha += cell_root(v[i], v[i + 1], w[i], tol - H[i])
            beta = mp.mpf(x[j])
            if j > 0:
                beta -= cell_root(v[j], v[j - 1], w[j - 1], tol - R[j])
            sd = support_data(h)
            worst = max(worst, ulps(sd.alpha_h, alpha), ulps(sd.beta_h, beta))
        assert worst <= 1.0

    def test_midpoint_always_interior(self):
        rng = np.random.default_rng(11)
        g = unit_grid(129)
        x = g.nodes
        for _ in range(20):
            lo = rng.uniform(0.0, 0.8)
            hi = lo + rng.uniform(0.05, 1.0 - lo - 0.01)
            h = GridFunction(g, ((x >= lo) & (x <= hi)).astype(float)
                             * rng.uniform(0.3, 3.0))
            sd = support_data(h)
            assert g.a < sd.theta_bar < g.b
            # The cone constant keeps the tent above one half at the peak.
            assert sd.theta_under * np.max(dist_to_boundary(g).values) >= 0.5 - 1e-12


def _profile(n):
    g = unit_grid(n)
    t = np.linspace(0.0, 3.0, n)
    return SolutionProfile(u=GridFunction(g, np.sin(t)),
                           du=GridFunction(g, np.cos(t) / 3.0),
                           c_star=0.25, residual=0.0)


def _read_profile(path):
    """The x, u and du columns of a profile CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


class TestCsvRoundTrip:
    def test_write_read_exact(self, tmp_path):
        profile = _profile(97)
        path = tmp_path / "solution.csv"
        write_profile_csv(path, profile)
        x, u, du = _read_profile(path)
        assert np.array_equal(x, profile.grid.nodes)
        assert np.array_equal(u, profile.u.values)
        assert np.array_equal(du, profile.du.values)
        grid = Grid(x)
        again = tmp_path / "again.csv"
        write_profile_csv(again, SolutionProfile(
            GridFunction(grid, u), GridFunction(grid, du), profile.c_star,
            profile.residual))
        assert again.read_bytes() == path.read_bytes()

    def test_reads_back_what_the_profile_writer_wrote(self, tmp_path):
        profile = _profile(17)
        path = tmp_path / "solution.csv"
        write_profile_csv(path, profile)
        assert path.read_text().splitlines()[0] == "x,u,du"
        x, u, _ = _read_profile(path)
        assert np.array_equal(x, profile.grid.nodes)
        assert np.array_equal(u, profile.u.values)
