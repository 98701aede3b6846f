#!/usr/bin/env python3
"""Build the callout-path benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload submit --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". With --trace 0 the metrics
are the end-to-end metrics listed in BENCHMARK.json; with --trace 1 they
are its per-layer metrics, and the spans of the layer-by-layer replay are
written to BENCH_trace.json. The full result of the suite, every metric
with its unit, is kept in BENCH_perfbench.json. The exit code is 0 only
when every answer agreed with the reference evaluator.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT = "BENCH_perfbench.json"
TRACE = "BENCH_trace.json"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run(command, timeout):
    """Run a child with its output on our stderr; wait for it to end."""
    try:
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(command)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project and lib/ are missing")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    # Build in the checkout only: no shared dune cache, no user config.
    if run(["dune", "build", "--root", ".", "--cache=disabled", "--no-config",
            "--require-dune-project-file", "--display=quiet",
            "perfbench/main.exe"], BUILD_TIMEOUT_S) != 0:
        fail("build failed")

    for stale in (RESULT, TRACE):
        if os.path.exists(stale):
            os.remove(stale)
    command = [EXE, "suite", "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--json", RESULT]
    if args.trace:
        command += ["--trace", TRACE]
    status = run(command + [args.workload], RUN_TIMEOUT_S)
    if not os.path.exists(RESULT):
        fail("the suite wrote no result (exit code %d)" % status)
    with open(RESULT) as f:
        outcome = json.load(f)["workloads"][args.workload]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = outcome["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            fail("metric %s missing from the suite's result" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    correct = status == 0 and outcome["failed"] == 0
    if outcome["first_failure"]:
        print("first failure: " + outcome["first_failure"], file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
