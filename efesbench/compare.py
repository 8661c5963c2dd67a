#!/usr/bin/env python3
"""Compares two result sets of the EFES benchmark, per workload and metric.

    python3 efesbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines `run.py --out FILE` appends, one per run. For
every workload and end-to-end metric the medians of the two sets are
compared with the metric's bound from BENCHMARK.json:

  worse       the new median is worse than the base median by more than
              the bound;
  unresolved  the base set's own spread (quartile distance over median)
              exceeds the bound, and not every new run beats every base run;
  better      the new median is better by more than the base spread and
              the new set wins at least 9 in 10 of the run pairs;
  same        otherwise.

A workload whose new set has more failed operations than its base set
gets no `better`: such a row reads `same+failed` instead, since a gain
does not count when more operations fail.

Per-layer metrics (runs made with --trace 1) have no bound; their medians
are listed side by side. `gain` is the relative change of the median,
positive when the new set is better. Exits 1 when any metric is worse or
any workload has more failed operations in the new set, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PROVENANCE_KEYS = ("build_type", "compiler", "nproc", "threads", "seconds")


def load(path):
    """{(workload, trace): [record, ...]} from one result file."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                tags = record["provenance"]
                runs.setdefault((tags["workload"], tags["trace"]),
                                []).append(record)
    return runs


def spread(values):
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(base, new, better, bound):
    sign = -1.0 if better == "lower" else 1.0
    base_median = statistics.median(base)
    change = sign * (statistics.median(new) - base_median) / base_median
    base_spread = spread(base)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if change < -bound:
        return "worse", change
    if base_spread > bound and not all_better:
        return "unresolved", change
    if change > base_spread and pairs and wins >= 0.9 * len(pairs):
        return "better", change
    return "same", change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)

    worse = more_failed = 0
    print("%-18s %-24s %14s %14s %8s %8s  %s" % (
        "workload", "metric", "base median", "new median", "gain",
        "bound", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]),
                               (1, spec["per_layer"])):
            base_runs = base.get((workload, trace), [])
            new_runs = new.get((workload, trace), [])
            if not base_runs or not new_runs:
                continue
            for key in PROVENANCE_KEYS:
                b = {r["provenance"][key] for r in base_runs}
                n = {r["provenance"][key] for r in new_runs}
                if b != n:
                    print("warning: %s %s differs: %s vs %s"
                          % (workload, key, sorted(b), sorted(n)))
            failed = sum(r["failed"] for r in new_runs)
            base_failed = sum(r["failed"] for r in base_runs)
            if failed > base_failed:
                more_failed += 1
                print("error: %s: %d failed operations in the new set, %d "
                      "in the base set" % (workload, failed, base_failed))
            for metric in metrics:
                name = metric["name"]
                b = [r["metrics"][name]["value"] for r in base_runs]
                n = [r["metrics"][name]["value"] for r in new_runs]
                b_median, n_median = statistics.median(b), statistics.median(n)
                if "bound" not in metric:
                    print("%-18s %-24s %14.4f %14.4f" % (
                        workload, name, b_median, n_median))
                    continue
                result, change = verdict(b, n, metric["better"],
                                         metric["bound"])
                worse += result == "worse"
                if failed > base_failed and result == "better":
                    result = "same+failed"
                print("%-18s %-24s %14.4f %14.4f %+7.1f%% %7.0f%%  %s" % (
                    workload, name, b_median, n_median, 100 * change,
                    100 * metric["bound"], result))
    return 1 if worse or more_failed else 0


if __name__ == "__main__":
    sys.exit(main())
