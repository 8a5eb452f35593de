"""Benchmark of the phibvp package: one workload per run, one JSON result.

Usage, from the root of a checkout that holds ``src/phibvp``::

    python3 perfbench/run.py --workload bound_chain --seed 1 --seconds 24 --trace 0

With ``--trace 0`` the run sets up, then runs items of the workload one
after another until ``--seconds`` have been spent in them, checks every
item's outputs between items, and prints the end-to-end metrics.  With ``--trace 1`` it
runs a fixed round of items twice, untraced and then with spans at every
layer's public functions, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is the result; it is
also written to ``perfbench/out/``, next to the traced run's spans.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
# Pin the process to one thread and keep the sweep's optional thread pool
# off, so that what is measured is the single-threaded code path.
ENVIRONMENT = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the inputs, warm up, print the "
                             "monotonic clock and exit")
    return parser.parse_args(argv)


def set_up(name, seed, workdir):
    """Import phibvp, build the workload's inputs and warm it up; returns
    the workload and the three phase times measured from process start."""
    sys.path.insert(0, SRC)
    import phibvp
    if os.path.dirname(os.path.abspath(phibvp.__file__)) != os.path.join(SRC, "phibvp"):
        raise RuntimeError("phibvp was imported from %s, not from %s"
                           % (phibvp.__file__, SRC))
    import workloads
    t_import = time.perf_counter()
    if name not in workloads.WORKLOADS:
        raise SystemExit("error: unknown workload %r; one of: %s"
                         % (name, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.make_inputs()
    t_inputs = time.perf_counter()
    workload.warm_up()
    t_warm = time.perf_counter()
    return workload, (t_import - START, t_inputs - t_import, t_warm - t_inputs)


def setup_seconds(args):
    """Time from spawning a fresh process to the end of its set-up.

    The child prints the system-wide monotonic clock when its set-up ends,
    so the child's exit and the parent's wait do not count.
    """
    begin = time.clock_gettime(time.CLOCK_MONOTONIC)
    child = subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", "0", "--setup-only"],
                           check=True, timeout=120, stdout=subprocess.PIPE, text=True)
    return float(child.stdout) - begin


class Tally:
    """Item times, attempts, failures and check problems of one pass;
    ``busy`` is the time spent in items, failed ones included."""

    def __init__(self):
        self.times = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def items_per_s(self):
        return len(self.times) / self.busy if self.times else 0.0


def attempt(workload, index, item, tally, tracer=None):
    """Run one item; returns its collected outputs, or None if it failed."""
    tally.attempted += 1
    begin = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(item)
        else:
            tracer.item = index
            with tracer.span("item"):
                output = workload.run(item)
    except Exception:  # an item that raises counts as failed; the run goes on
        tally.failed += 1
        tally.busy += time.perf_counter() - begin
        traceback.print_exc()
        return None
    elapsed = time.perf_counter() - begin
    tally.times.append(elapsed)
    tally.busy += elapsed
    return workload.collect(item, output)


def check(workload, index, item, result, tally):
    found = workload.check(index, item, result)
    for problem in found:
        print("check failed, item %d: %s" % (index, problem), file=sys.stderr)
    tally.problems += found


def timed_run(workload, args):
    """Items one after another until ``args.seconds`` have been spent in
    them; returns the tally and the median of SETUP_REPEATS set-up times.

    The set-ups run between items, spread evenly over the run, so that a
    slow phase of the host moves only some of them.  They and the checks
    between items do not count against the run length.
    """
    tally = Tally()
    setups = [setup_seconds(args)]
    index = 0
    while index == 0 or tally.busy < args.seconds:
        item = workload.pool[index % len(workload.pool)]
        result = attempt(workload, index, item, tally)
        if result is not None:
            check(workload, index, item, result, tally)
        index += 1
        # One more set-up each time another 1/SETUP_REPEATS of the run is
        # spent; once the run is over, the rest.
        while (len(setups) < SETUP_REPEATS
               and (len(setups) - 1) * args.seconds < SETUP_REPEATS * tally.busy):
            setups.append(setup_seconds(args))
    return tally, statistics.median(setups)


def traced_run(workload, args):
    """The fixed round untraced, then traced; checks run outside the trace."""
    import spans

    items = workload.pool[:workload.trace_items]
    plain = Tally()
    for index, item in enumerate(items):
        result = attempt(workload, index, item, plain)
        if result is not None:
            check(workload, index, item, result, plain)

    traced = Tally()
    tracer = spans.Tracer()
    results = []
    origin = time.perf_counter()
    with spans.instrument(tracer):
        for index, item in enumerate(items):
            results.append(attempt(workload, index, item, traced, tracer))
    for index, (item, result) in enumerate(zip(items, results)):
        if result is not None:
            check(workload, index, item, result, traced)
    spans.write_spans(os.path.join(OUT, "trace-%s-seed%d.csv"
                                   % (args.workload, args.seed)),
                      tracer.spans, origin)

    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    metrics["nonlinear.picard_iterations"] = 0
    metrics.update(workload.layer_counts([r for r in results if r is not None]))
    base = plain.items_per_s()
    metrics["trace.overhead_pct"] = (
        100.0 * (base - traced.items_per_s()) / base if base else 0.0)
    metrics["trace.spans"] = len(tracer.spans)
    return plain, traced, metrics


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "phibvp", "__init__.py")):
        print("error: %s holds no phibvp package; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    os.environ.pop("PHI_BVP_THREADS", None)
    os.environ.update(ENVIRONMENT)
    sys.path.insert(0, HERE)
    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        workload, phases = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(time.clock_gettime(time.CLOCK_MONOTONIC))
            return 0
        if args.trace:
            plain, tally, metrics = traced_run(workload, args)
            tally.problems += plain.problems
            metrics.update(zip(("bench.import_s", "bench.inputs_s",
                                "bench.warmup_s"), phases))
        else:
            tally, setup = timed_run(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not tally.times:
        print("error: every item failed", file=sys.stderr)
        return 1
    if not args.trace:
        metrics = {
            "items_per_s": tally.items_per_s(),
            "item_p50_s": statistics.median(tally.times),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(metrics) != {name for name, _ in declared}:
        raise RuntimeError("measured metrics %s differ from BENCHMARK.json"
                           % sorted(set(metrics) ^ {name for name, _ in declared}))
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared},
    }
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as handle:
        json.dump(dict(result, item_seconds=tally.times), handle)
        handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
