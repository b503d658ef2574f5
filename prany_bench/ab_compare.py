#!/usr/bin/env python3
"""Paired A/B comparison of two prany_bench binaries.

    python3 prany_bench/ab_compare.py --parent PARENT_BIN --change CHANGE_BIN
        [--pairs 10] [--workloads W1,W2] [--seconds S] [--seed 1000]

Build each side with `python3 prany_bench/run.py --smoke` (or any run) in
its own checkout and pass the two .bench_build/cmake/prany_bench paths.
Both binaries run from this checkout's root, with the same settings.

Each pair runs both sides on one fresh seed, alternating which side goes
first. For every end-to-end metric of BENCHMARK.json and every workload it
prints each side's median and quartiles, the change's win rate (ties count
for neither side) and a verdict, by the choosing-metrics rules:

  improved      the change wins at least 90% of the pairs and its median
                is better than the parent's by more than the parent's
                interquartile range;
  unresolved    the parent's own spread (IQR / median) is wider than the
                metric's bound, and not every change run beats every
                parent run;
  regressed     the change's median is worse than the parent's by more
                than the bound;
  within bound  otherwise.
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the launcher next to this file)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(parent, change, lower_is_better, bound):
    def better(a, b):  # is a better than b
        return a < b if lower_is_better else a > b

    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    iqr = q3 - q1
    gap = (med_p - med_c) if lower_is_better else (med_c - med_p)
    worse_frac = -gap / med_p if med_p else 0.0
    spread = iqr / med_p if med_p else float("inf")
    all_better = all(better(c, p) for c in change for p in parent)
    if wins >= 0.9 * len(parent) and gap > iqr:
        return wins, "improved"
    if spread > bound and not all_better:
        return wins, "unresolved"
    if worse_frac > bound:
        return wins, "regressed"
    return wins, "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent prany_bench")
    parser.add_argument("--change", required=True, help="changed prany_bench")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", help="comma list; default: all of "
                        "BENCHMARK.json")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=1000,
                        help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("at least 10 pairs are needed for a verdict")
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    for workload in workloads:
        values = {"parent": {}, "change": {}}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                code, stdout = run.launch(sides[side], workload, seed, seconds,
                                          0, capture=True, tag=side,
                                          source=sides[side])
                result = run.last_json(stdout) if code == 0 else None
                if result is None or not result["correct"]:
                    raise SystemExit("%s run of %s (seed %d) failed: exit %d"
                                     % (side, workload, seed, code))
                for name, m in result["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
            print("%s: pair %d/%d done" % (workload, i + 1, args.pairs),
                  file=sys.stderr, flush=True)
        print("\n== %s: %d pairs, %g s per run ==" % (workload, args.pairs,
                                                      seconds))
        print("%-22s %-34s %-34s %7s %6s  %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "change", "wins", "verdict"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent, change = values["parent"][name], values["change"][name]
            wins, word = verdict(parent, change, metric["better"] == "lower",
                                 metric["bound"])
            pq, cq = quartiles(parent), quartiles(change)
            print("%-22s %-34s %-34s %+6.1f%% %3d/%-2d  %s" % (
                name,
                "%.6g [%.6g, %.6g]" % (pq[1], pq[0], pq[2]),
                "%.6g [%.6g, %.6g]" % (cq[1], cq[0], cq[2]),
                100.0 * (cq[1] / pq[1] - 1.0) if pq[1] else 0.0,
                wins, len(parent), word))
    return 0


if __name__ == "__main__":
    sys.exit(main())
