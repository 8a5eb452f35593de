"""In-memory spans and counts at the public functions of each phibvp layer.

``instrument`` wraps the functions listed in SPANS (and the two map
factories, for forward-point counts) in every phibvp module that binds
them, and puts the originals back on exit; the package source is not
touched.  A span is (name, start, end, parent index, item id); a layer's
time is its spans' self time, the span minus its direct child spans.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import sys
import time

import numpy as np

INVERSE = "homeomorphisms.inverse"
ITEM = "item"

# Span name -> (module, function) pairs wrapped under that name.
SPANS = {
    INVERSE: [("homeomorphisms", "numeric_inverse"),
              ("homeomorphisms", "inverse_saturating")],
    "linear.solve_linear": [("linear", "solve_linear")],
    "linear.comparison_constant": [("linear", "estimate_comparison_constant"),
                                   ("linear", "verify_comparison_constant")],
    "linear.bound_checks": [("linear", "envelope_bounds"),
                            ("linear", "cone_lower_bound"),
                            ("linear", "sup_norm_lower_bound")],
    "nonlinear.scan_shooting": [("nonlinear", "scan_shooting")],
    "nonlinear.sub_super": [("nonlinear", "make_sub_super_pair"),
                            ("nonlinear", "build_supersolution"),
                            ("nonlinear", "build_subsolution"),
                            ("nonlinear", "verify_subsolution"),
                            ("nonlinear", "verify_supersolution")],
    "nonlinear.solve_between": [("nonlinear", "solve_between")],
    "bifurcation.sweep": [("bifurcation", "sweep")],
    "bifurcation.lambda_star": [("bifurcation", "lambda_star_bisect")],
    "orlicz.estimate_indices": [("orlicz", "estimate_indices")],
    "orlicz.duality_check": [("orlicz", "duality_check")],
    "orlicz.phi_conditions": [("orlicz", "check_phi_conditions")],
    "orlicz.delta2": [("orlicz", "check_delta2")],
    "problem_io.parse": [("problem_io", "parse_problem"),
                         ("problem_io", "parse_linear_problem")],
    "problem_io.write": [("problem_io", "write_profile_csv"),
                         ("problem_io", "write_diagram_csv"),
                         ("problem_io", "write_json_report")],
    "cli.command": [("cli", "main")],
}

FORWARD_POINTS = "homeomorphisms.forward_points"
INVERSE_CALLS = "homeomorphisms.inverse_calls"
INVERSE_POINTS = "homeomorphisms.inverse_points"
GROWTH_RATIO_CALLS = "orlicz.growth_ratio_calls"


class Tracer:
    """Spans kept in memory, plus counts made at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.item = -1
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.item]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, points_arg=None):
        """``fn`` inside a span; with ``points_arg``, an inverse-engine entry
        that is not nested in another one adds a call and its point count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if points_arg is not None and not self._inside(name):
                self.counts[INVERSE_CALLS] += 1
                self.counts[INVERSE_POINTS] += int(np.size(args[points_arg]))
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _inside(self, name):
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _time_metric(name):
    return "bench.unattributed_s" if name == ITEM else name + "_s"


def layer_metrics(spans, counts):
    """Per-layer self times (s) and counts from one traced pass; the self
    time of a span named N is reported as N_s."""
    out = {_time_metric(name): 0.0 for name in [*SPANS, ITEM]}
    for record, own in zip(spans, self_times(spans)):
        out[_time_metric(record[0])] += own
    scans = [i for i, record in enumerate(spans)
             if record[0] == "nonlinear.scan_shooting"]
    out["nonlinear.scan_shooting_calls"] = len(scans)
    out["bifurcation.lambda_star_scans"] = sum(
        _has_ancestor(spans, i, "bifurcation.lambda_star") for i in scans)
    out["linear.solve_linear_calls"] = sum(
        record[0] == "linear.solve_linear" for record in spans)
    for name in (INVERSE_CALLS, INVERSE_POINTS, FORWARD_POINTS,
                 GROWTH_RATIO_CALLS):
        out[name] = counts.get(name, 0)
    return out


def write_spans(path, spans, origin):
    """One CSV row per span, times in seconds from ``origin``."""
    with open(path, "w", newline="\n") as handle:
        handle.write("name,start,end,parent,item\n")
        for name, start, end, parent, item in spans:
            handle.write("%s,%.9f,%.9f,%d,%d\n"
                         % (name, start - origin, end - origin, parent, item))


@contextlib.contextmanager
def instrument(tracer):
    """Wrap phibvp's layer functions for the duration of the block."""
    import phibvp
    import phibvp.cli  # noqa: F401  (not imported by the package itself)

    modules = [module for name, module in sorted(sys.modules.items())
               if name == "phibvp" or name.startswith("phibvp.")]
    patched = []

    def rebind(original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def counting_forward(phi):
        forward = phi._forward_pos

        def counted(y):
            tracer.counts[FORWARD_POINTS] += int(np.size(y))
            return forward(y)

        counted.counted = True
        if not getattr(forward, "counted", False):
            object.__setattr__(phi, "_forward_pos", counted)
        return phi

    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return counting_forward(fn(*args, **kwargs))
        return wrapper

    def inverse_map(fn):
        # The inverse map's forward is an evaluation of phi^{-1}, so it is
        # traced as an inverse-engine entry, not counted as a forward point.
        @functools.wraps(fn)
        def wrapper(phi):
            inv = fn(phi)
            object.__setattr__(inv, "_forward_pos",
                               tracer.wrap(INVERSE, inv._forward_pos, 0))
            return inv
        return wrapper

    def counter(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    homeo = phibvp.homeomorphisms
    method = homeo.Homeomorphism.inverse
    try:
        for span_name, targets in SPANS.items():
            for module_name, fn_name in targets:
                original = getattr(getattr(phibvp, module_name), fn_name)
                points_arg = 1 if span_name == INVERSE else None
                rebind(original, tracer.wrap(span_name, original, points_arg))
        homeo.Homeomorphism.inverse = tracer.wrap(INVERSE, method, 1)
        rebind(homeo.make_catalog_entry, factory(homeo.make_catalog_entry))
        rebind(homeo.make_power, factory(homeo.make_power))
        rebind(homeo.inverse_homeomorphism,
               inverse_map(homeo.inverse_homeomorphism))
        rebind(phibvp.orlicz.growth_ratio,
               counter(phibvp.orlicz.growth_ratio, GROWTH_RATIO_CALLS))
        yield tracer
    finally:
        homeo.Homeomorphism.inverse = method
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
