"""The four workloads: seeded inputs, the timed item, and its checks.

Each workload is a closed loop of items in one single-threaded process.
``run`` is the timed part and calls only phibvp; ``collect`` reads what an
item wrote; ``check`` runs the independent checks of ``checks`` and may
call phibvp again outside the timed and traced regions.  Inputs come from
the benchmark's own generator: the bump recipe below copies the one in
``phibvp.corpus`` but does not call it, so a change there cannot change a
workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import phibvp
from phibvp import cli

import checks

CATALOG = ("power:2", "sum-powers:3,1.5", "ratio:2,0.5", "xlog", "x-log1p",
           "logpow:2", "arcsinh", "loglog")
NODES_LINEAR = 257
NODES_NONLINEAR = 129
FINE_M = np.geomspace(1e-4, 1e4, 331)
S_MAX, S_COUNT = 100.0, 60

# Fold of the reference problem as its 60-slope scan sees it at 129 nodes
# (lambda_star_bisect to 1e-6); existence switches off between
# LAMBDA_STAR (1 - 5e-4) and LAMBDA_STAR.
LAMBDA_STAR = 11.398896
# lambda0 of the reference problem, where the sandwich construction stops.
REFERENCE_LAMBDA0 = 1.0
# lambda0 of each catalog map with f = sqrt(t), g = t^3, m = n = 1 on (0, 1).
SANDWICH_LAMBDA0 = {
    "power:2": 2.0, "sum-powers:3,1.5": 5.414, "ratio:2,0.5": 0.6451,
    "xlog": 1.693, "x-log1p": 0.1947, "logpow:2": 0.4181,
    "arcsinh": 0.6610, "loglog": 0.3090,
}


class OperationFailed(Exception):
    """A phibvp command reported failure."""


def _bump(kind, x, lo, hi, amp):
    t = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    if kind == "block":
        profile = ((x >= lo) & (x <= hi)).astype(float)
    elif kind == "ramp":
        profile = t * ((x >= lo) & (x <= hi))
    else:
        profile = 1.0 - np.abs(2.0 * t - 1.0)
    return amp * profile


def random_forcing(rng, x):
    """One to three wide bumps on [0, 1] plus, half the time, a constant floor."""
    values = np.zeros_like(x)
    for _ in range(int(rng.integers(1, 4))):
        width = float(rng.uniform(0.05, 0.5))
        lo = float(rng.uniform(0.0, 1.0)) * (1.0 - width)
        amp = float(rng.uniform(0.3, 3.0))
        kind = ("block", "ramp", "hat")[int(rng.integers(0, 3))]
        values += _bump(kind, x, lo, lo + width, amp)
    if rng.uniform() < 0.5:
        values += float(rng.uniform(0.05, 0.5))
    return values


def _call_cli(argv):
    """phibvp.cli.main in-process; its diagnostics go to a buffer."""
    buffer = io.StringIO()
    with contextlib.redirect_stderr(buffer):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed("phibvp %s exited %d: %s"
                              % (" ".join(argv), code, buffer.getvalue().strip()))


def _read_profile(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


def _read_bytes(directory, names):
    out = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


def reference_spec(lam, nodes):
    """phi = power:1, m = n = 1, f = sqrt(t), g = t^2, mu = 1 on (0, 1)."""
    grid = phibvp.Grid.uniform(0.0, 1.0, nodes)
    ones = phibvp.GridFunction(grid, np.ones(nodes))
    return phibvp.ProblemSpec(
        grid=grid, phi=phibvp.make_power(1.0), m=ones, n=ones, lam=lam,
        mu=1.0, f=np.sqrt, g=np.square,
        f_constants=phibvp.FConstants(1.0, 1.0, 0.5),
        g1_constants=phibvp.G1Constants(1.0, 1.0, 2.0),
        g2_constants=phibvp.G2Constants(1.0, 1.0, 2.0))


class Workload:
    """Base: a pool of seeded items, a warm-up, and the item's three steps."""

    name = ""
    pool_size = 24     # items made at set-up; a longer run cycles through them
    trace_items = 2    # items in the traced round

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.pool = []

    def rng(self, *keys):
        return np.random.default_rng([self.seed, *keys])

    def make_inputs(self):
        self.pool = [self.make_item(k) for k in range(self.pool_size)]

    def make_item(self, k):
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def collect(self, item, output):
        return output

    def check(self, index, item, result):
        raise NotImplementedError

    def layer_counts(self, results):
        return {}


class BoundChain(Workload):
    """One case per catalog map: a fresh map, a random bump forcing on 257
    nodes, and the full bound chain of the solution operator."""

    name = "bound_chain"
    pool_size = 48
    trace_items = 3

    def make_inputs(self):
        self.grid = phibvp.Grid.uniform(0.0, 1.0, NODES_LINEAR)
        super().make_inputs()

    def make_item(self, k):
        rng = self.rng(0, k)
        return [(d, random_forcing(rng, self.grid.nodes)) for d in CATALOG]

    def warm_up(self):
        grid = phibvp.Grid.uniform(0.0, 1.0, 33)
        h = phibvp.GridFunction(grid, np.ones(33))
        for d in ("power:2", "sum-powers:3,1.5"):
            self._chain(phibvp.make_catalog_entry(d), h)

    @staticmethod
    def _chain(phi, h):
        profile = phibvp.solve_linear(phi, h)
        slack = 1e-8 * (1.0 + float(np.max(np.abs(profile.u.values))))
        lower, upper = phibvp.envelope_bounds(phi, h)
        cone = phibvp.cone_lower_bound(phi, h, slack)
        half = phibvp.sup_norm_lower_bound(phi, h)
        c = phibvp.estimate_comparison_constant(phi, h)
        recheck = phibvp.verify_comparison_constant(phi, h, c, FINE_M)
        return profile, lower, upper, slack, cone, half, c, recheck

    def run(self, item):
        return [self._chain(phibvp.make_catalog_entry(d),
                            phibvp.GridFunction(self.grid, values))
                for d, values in item]

    def check(self, index, item, result):
        x = self.grid.nodes
        problems = []
        for (d, h), (profile, lower, upper, slack, cone, half, c, recheck) \
                in zip(item, result):
            found = checks.linear_profile(
                checks.FORWARD[d], x, h, profile.u.values, profile.du.values,
                profile.c_star)
            found += checks.bound_chain_verdicts(
                profile.u.values, lower.values, upper.values, slack, cone,
                half, c, recheck)
            problems += ["%s: %s" % (d, p) for p in found]
        return problems


class BranchDiagram(Workload):
    """One sweep of the reference problem at 129 nodes over three lambdas:
    one below lambda0 and a bracket of the fold.

    The bracket is 2.6e-3 to 3.4e-3 of the fold wide, with the fold at 0.30
    to 0.45 of it, so lambda_star_bisect always takes two steps with the
    same outcomes (no solution, then solutions).
    """

    name = "branch_diagram"

    def make_item(self, k):
        rng = self.rng(1, k)
        lam_small = float(rng.uniform(0.2, 0.8)) * REFERENCE_LAMBDA0
        width = float(rng.uniform(2.6e-3, 3.4e-3)) * LAMBDA_STAR
        lo = LAMBDA_STAR - float(rng.uniform(0.30, 0.45)) * width
        return (lam_small, lo, lo + width)

    def warm_up(self):
        phibvp.sweep(reference_spec(0.5, 33), [0.5], s_max=S_MAX, count=S_COUNT)

    def run(self, item):
        spec = reference_spec(item[0], NODES_NONLINEAR)
        return phibvp.sweep(spec, list(item), s_max=S_MAX, count=S_COUNT)

    def check(self, index, item, diagram):
        lam_small, lo, hi = item
        problems = []
        counts = [len(p.solutions) for p in diagram.points]
        if counts != [2, 2, 0]:
            problems.append("solution counts %s, expected [2, 2, 0]" % counts)
        if not lo < diagram.lambda_star_estimate < hi:
            problems.append("lambda* estimate %r outside its bracket (%r, %r)"
                            % (diagram.lambda_star_estimate, lo, hi))
        template = reference_spec(lam_small, NODES_NONLINEAR)
        x = template.grid.nodes
        for point in diagram.points:
            spec = phibvp.with_lambda(template, point.lam)
            shots = []
            for sol in point.solutions:
                profile = phibvp.shoot(spec, sol.initial_slope).profile
                u, du = profile.u.values, profile.du.values
                shots.append(u)
                norm = float(np.max(u))
                if abs(norm - sol.sup_norm) > 1e-9 * norm:
                    problems.append("lambda %g: reported sup-norm %r, profile %r"
                                    % (point.lam, sol.sup_norm, norm))
                if not (abs(u[-1]) <= 1e-7 and np.all(u[1:-1] > 0.0)):
                    problems.append("lambda %g: profile is not a positive "
                                    "solution (u(b) = %g)" % (point.lam, u[-1]))
                cell_rhs = checks.hermite_cell_means(
                    x, u, du, lambda v, lam=point.lam: lam * np.sqrt(v) + v ** 2)
                gap = checks.discrete_equation_gap(checks.FORWARD["power:1"],
                                                   x, du, cell_rhs)
                if not gap <= checks.SHOOTING_EQUATION_TOL:
                    problems.append("lambda %g: discrete equation defect %.3g"
                                    % (point.lam, gap))
                if not sol.in_cone:
                    problems.append("lambda %g: solution outside the cone"
                                    % point.lam)
            if point.lam == lam_small and shots:
                pair = phibvp.make_sub_super_pair(spec)
                picard = phibvp.solve_between(spec, pair.sub, pair.super, tol=1e-8)
                small = shots[0]
                gap = float(np.max(np.abs(picard.u.values - small)))
                if not gap <= checks.PICARD_SHOOTING_REL_TOL * float(np.max(small)):
                    problems.append("lambda %g: small branch differs from the "
                                    "Picard solution by %.3g" % (point.lam, gap))
        return problems


def _problem(descriptor, lam, nodes):
    """A solve-nonlinear problem file: f = sqrt(t), g = t^3, m = n = 1."""
    return {
        "interval": [0.0, 1.0], "grid_size": nodes, "phi": descriptor,
        "m": "constant:1", "n": "constant:1", "lambda": lam, "mu": 1.0,
        "f": {"expr": "power:0.5", "F": {"c0": 1.0, "t0": 1.0, "q": 0.5}},
        "g": {"expr": "power:3", "G1": {"c1": 1.0, "t1": 1.0, "r1": 3.0},
              "G2": {"c2": 1.0, "t2": 1.0, "r2": 3.0}},
    }


class Sandwich(Workload):
    """One ``phibvp solve-nonlinear`` run per catalog map at 129 nodes, at
    lambda between 0.35 and 0.45 of that map's lambda0.  g = t^3 because the
    construction's hypotheses hold with it for every map; with g = t^2 it
    rightly finds no supersolution scale for x-log1p."""

    name = "sandwich"
    OUTPUTS = ("report.json", "solution.csv", "sub.csv", "super.csv")

    def make_item(self, k):
        rng = self.rng(2, k)
        item = []
        for j, d in enumerate(CATALOG):
            lam = float(rng.uniform(0.35, 0.45)) * SANDWICH_LAMBDA0[d]
            path = os.path.join(self.workdir, "problem-%d-%d.json" % (k, j))
            with open(path, "w") as handle:
                json.dump(_problem(d, lam, NODES_NONLINEAR), handle)
            item.append((d, lam, path, os.path.join(self.workdir, "out-%d" % j)))
        return item

    def warm_up(self):
        path = os.path.join(self.workdir, "warm-up.json")
        with open(path, "w") as handle:
            json.dump(_problem("power:2", 0.5, 33), handle)
        _call_cli(["solve-nonlinear", path, "--out-dir",
                   os.path.join(self.workdir, "warm-up")])

    def run(self, item):
        for _, _, path, out in item:
            _call_cli(["solve-nonlinear", path, "--out-dir", out])

    def collect(self, item, output):
        return [_read_bytes(out, self.OUTPUTS) for _, _, _, out in item]

    def check(self, index, item, result):
        problems = []
        for (d, lam, _, _), files in zip(item, result):
            problems += ["%s: %s" % (d, p) for p in self._check_run(d, lam, files)]
        # Repeat one run per item, a different map each time, and compare bytes.
        j = (self.seed + index) % len(item)
        d, _, path, _ = item[j]
        again = os.path.join(self.workdir, "repeat")
        _call_cli(["solve-nonlinear", path, "--out-dir", again])
        if _read_bytes(again, self.OUTPUTS) != result[j]:
            problems.append("%s: a repeated run wrote different bytes" % d)
        return problems

    @staticmethod
    def _check_run(d, lam, files):
        report = json.loads(files["report.json"])
        x, u, du = _read_profile(io.BytesIO(files["solution.csv"]))
        sub = _read_profile(io.BytesIO(files["sub.csv"]))[1]
        sup = _read_profile(io.BytesIO(files["super.csv"]))[1]
        problems = checks.ordered(sub, u, sup)
        problems += checks.boundary_and_positivity(u)
        problems += checks.integral(x, u, du)
        plus = np.maximum(u, 0.0)
        cell_rhs = checks.trapezoid_cell_means(lam * np.sqrt(plus) + plus ** 3)
        gap = checks.discrete_equation_gap(checks.FORWARD[d], x, du, cell_rhs)
        if not gap <= checks.PICARD_EQUATION_TOL:
            problems.append("discrete equation defect %.3g" % gap)
        if report["sup_norm"] != float(np.max(np.abs(u))):
            problems.append("report sup_norm disagrees with solution.csv")
        if not (report["iterations"] >= 1 and report["residual"] < 1e-6
                and report["interior_positive"] and report["inward_slopes"]
                and report["in_cone"]):
            problems.append("report flags a bad solution: %s" % report)
        return problems

    def layer_counts(self, results):
        return {"nonlinear.picard_iterations": sum(
            json.loads(files["report.json"])["iterations"]
            for result in results for files in result)}


class GrowthIndices(Workload):
    """One ``phibvp indices`` call per catalog map, in a seeded order."""

    name = "growth_indices"

    def make_item(self, k):
        order = self.rng(3, k).permutation(len(CATALOG))
        return [(CATALOG[j], os.path.join(self.workdir, "indices-%d" % j))
                for j in order]

    def warm_up(self):
        _call_cli(["indices", "power:2", "--out-dir",
                   os.path.join(self.workdir, "warm-up")])

    def run(self, item):
        for d, out in item:
            _call_cli(["indices", d, "--out-dir", out])

    def collect(self, item, output):
        result = []
        for _, out in item:
            with open(os.path.join(out, "indices.json")) as handle:
                result.append(json.load(handle))
        return result

    def check(self, index, item, result):
        problems = []
        for (d, _), report in zip(item, result):
            if report["entry"] != d:
                problems.append("%s: report is for %s" % (d, report["entry"]))
            problems += checks.exponents(d, report["alpha_hat"], report["beta_hat"])
            if not report["duality"]["passed"]:
                problems.append("%s: duality check fails" % d)
        return problems


WORKLOADS = {w.name: w for w in (BoundChain, BranchDiagram, Sandwich, GrowthIndices)}
