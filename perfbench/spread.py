"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10

Runs ``run.py`` for ``run_seconds`` once per workload of ``BENCHMARK.json``
and seed, one run at a time, cycling through the workloads for each seed,
and prints for every workload and metric the median, the quartiles and the spread, which is the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as
a share of the median.  The raw results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]

    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            begin = time.perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - begin
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit("%s seed %d exited %d" % (name, seed, done.returncode))
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            runs[name].append(result)
            print("%s seed %d: %.1f s wall, correct %s, %d/%d failed, %s"
                  % (name, seed, wall, result["correct"], result["failed"],
                     result["attempted"],
                     ", ".join("%s %.4g" % (k, v["value"])
                               for k, v in result["metrics"].items())),
                  flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "spread-%d.json" % int(time.time()))
    with open(path, "w") as handle:
        json.dump(runs, handle, indent=1)
    print("raw results in %s" % path)
    for name, results in runs.items():
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs, failed shares %s, all correct %s"
              % (name, len(results), shares, all(r["correct"] for r in results)))
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print("  %-12s median %10.4g  q1 %10.4g  q3 %10.4g  spread %.4f"
                  % (metric, median, q1, q3, (q3 - q1) / median))


if __name__ == "__main__":
    main()
