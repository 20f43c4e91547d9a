#!/usr/bin/env python3
"""Fire drill: prove the workloads isolate their layers.

Runs every workload with and without DDP_PERTURB_WORKER (the parallel
worker's busy-spin hook: each chunk's processing time is inflated by the
given fraction), alternating the two sides, and prints for each
end-to-end metric the change of the median against the metric's bound
in BENCHMARK.json.  The traced live-parallel run is compared too, for
the worker's cost per event, its busy share of the wall, and the share
of chunk pushes that found its queue full.

Only live-parallel runs the parallel worker, so only it may move;
dag-exact and daemon-replay bypass the worker and must stay within
their bounds.

Usage, from the root of a source tree:

    python3 perfbench/fire_drill.py [--runs 3] [--seconds 25] [--perturb 0.10]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


TRACED = [
    "parallel_profiler.worker_ns_per_event",
    "parallel_profiler.worker_busy_frac",
    "spsc_queue.push_fail_ratio",
]


def run(workload, seed, seconds, trace, perturb):
    env = dict(os.environ)
    env.pop("DDP_PERTURB_WORKER", None)
    if perturb:
        env["DDP_PERTURB_WORKER"] = str(perturb)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        env=env, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"fire_drill: {workload} seed {seed} failed:\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--perturb", type=float, default=0.10)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    jobs = [(w["name"], 0) for w in bench["workloads"]] + [("live-parallel", 1)]
    for workload, trace in jobs:
        sides = {False: {}, True: {}}
        for i in range(args.runs):
            for perturbed in ((False, True) if i % 2 == 0 else (True, False)):
                ms = run(workload, 1000 + i, args.seconds, trace, args.perturb if perturbed else 0)
                for k, v in ms.items():
                    sides[perturbed].setdefault(k, []).append(v["value"])
        print(f"== {workload} (trace {trace}), {args.runs} runs a side, perturb {args.perturb}")
        names = list(bounds) if trace == 0 else TRACED
        for k in names:
            base = statistics.median(sides[False][k])
            pert = statistics.median(sides[True][k])
            change = (pert - base) / base if base else 0.0
            worse = change if bounds.get(k, {}).get("better", "lower") == "lower" else -change
            if k in bounds:
                verdict = "MOVED past bound" if worse > bounds[k]["bound"] else "within bound"
                print(f"  {k:40s} {base:12.5g} -> {pert:12.5g}  {change:+.1%}  bound {bounds[k]['bound']:.0%}: {verdict}")
            else:
                print(f"  {k:40s} {base:12.5g} -> {pert:12.5g}  {change:+.1%}")


if __name__ == "__main__":
    main()
