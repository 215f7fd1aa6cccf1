#!/usr/bin/env python3
"""Steadiness tool: do two independent sets of runs agree?

    python3 perfbench/steady.py                      # every workload
    python3 perfbench/steady.py --traced --json out.json
    python3 perfbench/steady.py --from out.json      # re-judge saved runs

Each workload in BENCHMARK.json runs as set A (seeds 1..10) and then set
B (seeds 1001..1010), every run through run.py at BENCHMARK.json's
run_seconds. Per end-to-end metric it prints each set's median and
quartiles (statistics.quantiles, n=4), each set's spread
(Q3 - Q1) / median, and the gap between the two medians as a share of
set A's median, signed so that positive means set B is worse. A row is
flagged FAIL when a spread or the gap's size exceeds the metric's
bound, and "warn" when a spread exceeds a third of it. The
failed-operation share of the two sets must match exactly.

--traced adds one traced run per workload and prints its traced.*
numbers beside set A's medians: the cost of the spans.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SET_SEEDS = (1, 1001)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d trace %d (exit %d)"
                 % (workload, seed, trace, proc.returncode))
    return json.loads(lines[-1])


def collect(workloads, seconds, traced_run):
    raw = {}
    for workload in workloads:
        sets = [[run_once(workload, first + i, seconds, 0)
                 for i in range(RUNS)] for first in SET_SEEDS]
        traced = (run_once(workload, 1, seconds, 1)["metrics"]
                  if traced_run else {})
        raw[workload] = {"seconds": seconds, "sets": sets, "traced": traced}
    return raw


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def judge(workload, result, metrics):
    """Print one workload's table; return False on any FAIL."""
    sets, traced = result["sets"], result["traced"]
    print("\n== %s: %d sets x %d runs of %d s"
          % (workload, len(sets), len(sets[0]), result["seconds"]))
    ok = True
    shares = {sum(r["failed"] for r in runs) /
              sum(r["attempted"] for r in runs) for runs in sets}
    print("failed/attempted: %s%s" % (
        ", ".join("%d/%d" % (sum(r["failed"] for r in runs),
                             sum(r["attempted"] for r in runs))
                  for runs in sets),
        "" if len(shares) == 1 else "  FAIL"))
    ok = ok and len(shares) == 1
    print("%-16s %6s | %12s %12s %12s %7s | %12s %12s %12s %7s | %7s  %s"
          % ("metric", "bound", "A median", "A q1", "A q3", "spread",
             "B median", "B q1", "B q3", "spread", "gap", "flag"))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        stats = [summarize([r["metrics"][name]["value"] for r in runs])
                 for runs in sets]
        cells, flag = [], ""
        for st in stats:
            cells.append("%12.5g %12.5g %12.5g %6.1f%%"
                         % (st["median"], st["q1"], st["q3"],
                            100 * st["spread"]))
            if st["spread"] > bound:
                flag = "FAIL"
            elif st["spread"] > bound / 3 and not flag:
                flag = "warn"
        gap = (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
        if m["better"] == "higher":
            gap = -gap
        if abs(gap) > bound:
            flag = "FAIL"
        ok = ok and flag != "FAIL"
        print("%-16s %5.0f%% | %s | %s | %6.1f%%  %s"
              % (name, 100 * bound, cells[0], cells[1], 100 * gap, flag))
        key = "traced." + name
        if key in traced:
            print("%-16s        traced run: %.5g (%+.1f%% vs A median)"
                  % ("", traced[key]["value"],
                     100 * (traced[key]["value"] / stats[0]["median"] - 1)))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--json", default="", help="also write raw results here")
    ap.add_argument("--from", dest="source", default="",
                    help="judge raw results saved by --json; run nothing")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.source:
        with open(args.source) as f:
            raw = json.load(f)
    else:
        raw = collect([w["name"] for w in spec["workloads"]],
                      spec["run_seconds"], args.traced)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f)
    ok = all([judge(w, raw[w], spec["end_to_end"]) for w in raw])
    print("\nsteadiness: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
