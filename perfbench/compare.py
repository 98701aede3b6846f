#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is a result written by `main.exe suite --json PATH` (run.py keeps
the last one in BENCH_perfbench.json). For every (workload, end-to-end
metric) the set medians are compared and the change is reported as
"better", "within bound", "worse" or "unresolved": unresolved when the base
set's own spread (quartile distance over median) is wider than the bound,
unless every run of one set beats every run of the other; otherwise the
median change decides against the bound. Between runs of equal seed it
also lists every deterministic per-layer count that changed: two sets of
one commit must show none, while a change to the code may move them on
purpose. Exits 1 on any "worse" or any rise in the failed share.
"""

import argparse
import json
import os
import statistics
import sys

# Per-layer metrics that are counts of work, deterministic per seed.
EXACT_SUFFIXES = ("hit_ratio", "bypasses", "appends_per_op", "bytes_per_op",
                  "events_per_op", "messages_per_op", "calls_per_op", "reloads",
                  "p99_sim_s")


def load(paths):
    """{workload: [(seed, outcome), ...]} over the given result files."""
    runs = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        for name, outcome in result["workloads"].items():
            runs.setdefault(name, []).append((result["seed"], outcome))
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric, base, new):
    """Classify new against base; positive `worse_by` means worse."""
    b, n = statistics.median(base), statistics.median(new)
    worse_by = (n - b) / b if metric["better"] == "lower" else (b - n) / b
    bound = metric["bound"]
    if metric["better"] == "lower":
        separated_better = max(new) < min(base)
        separated_worse = min(new) > max(base)
    else:
        separated_better = min(new) > max(base)
        separated_worse = max(new) < min(base)
    if separated_better or separated_worse or spread(base) <= bound:
        if abs(worse_by) <= bound:
            label = "within bound"
        else:
            label = "worse" if worse_by > 0 else "better"
    else:
        label = "unresolved"
    return label, b, n, worse_by


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)

    bad = 0
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = [o["metrics"][name]["value"] for _, o in b_runs if name in o["metrics"]]
            nv = [o["metrics"][name]["value"] for _, o in n_runs if name in o["metrics"]]
            if not bv or not nv:
                continue
            label, b, n, worse_by = verdict(metric, bv, nv)
            bad += label == "worse"
            print("%-8s %-14s %-12s base %.6g  new %.6g  (%+.1f%% %s, bound %.0f%%)"
                  % (workload, name, label, b, n, 100 * worse_by,
                     "worse" if worse_by > 0 else "better", 100 * metric["bound"]))

        def failed_share(runs):
            return (sum(o["failed"] for _, o in runs)
                    / max(1, sum(o["attempted"] for _, o in runs)))

        fb, fn = failed_share(b_runs), failed_share(n_runs)
        if fn > fb:
            bad += 1
            print("%-8s %-14s worse        base %.6g  new %.6g"
                  % (workload, "failed_share", fb, fn))

        by_seed = {seed: o for seed, o in b_runs}
        changed = []
        for seed, o in n_runs:
            if seed not in by_seed:
                continue
            for name, m in o["metrics"].items():
                other = by_seed[seed]["metrics"].get(name)
                if name.endswith(EXACT_SUFFIXES) and other and other["value"] != m["value"]:
                    changed.append("%s (seed %d: %s -> %s)"
                                   % (name, seed, other["value"], m["value"]))
        for c in changed:
            print("%-8s changed count %s" % (workload, c))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
