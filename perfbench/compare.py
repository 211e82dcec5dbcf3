#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE CHANGE
    python3 perfbench/compare.py RUNS

BASE and CHANGE are files (or directories of *.jsonl files) of the records
`run.py --out` appends.  For every workload and metric the script prints
each side's median and quartiles (statistics.quantiles, n=4) and a label:

  better      the change wins at least 9 in 10 of the paired runs (ties
              count for neither side) and the medians differ by more than
              the base's own quartile spread, in the metric's good direction;
  worse       the same rule, in the bad direction;
  unresolved  neither.

With one argument it prints each metric's median and quartile spread (q3 - q1
as a share of the median, the figure each bound must stay above) instead.

Runs are paired by seed when both sides ran the same seeds, else in order.
End-to-end metrics also show whether the change's median stays within the
bound BENCHMARK.json fixes for them.  Traced and untraced runs are compared
separately.
"""

import glob
import json
import os
import statistics
import sys


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.jsonl"))) if os.path.isdir(path) else [path]
    runs = {}
    for name in files:
        with open(name) as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    fp = rec["fingerprint"]
                    runs.setdefault((fp["workload"], bool(fp["trace"])), []).append(rec)
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def pairs(base, change):
    bs = {r["fingerprint"]["seed"]: r for r in base}
    cs = {r["fingerprint"]["seed"]: r for r in change}
    common = sorted(set(bs) & set(cs))
    if len(common) == min(len(base), len(change)) and common:
        return [(bs[s], cs[s]) for s in common]
    return list(zip(base, change))


def label(metric, base_vals, change_vals, paired, better):
    sign = 1 if better == "higher" else -1
    wins = losses = 0
    for b, c in paired:
        d = sign * (c["result"]["metrics"][metric]["value"] - b["result"]["metrics"][metric]["value"])
        wins += d > 0
        losses += d < 0
    q1, bmed, q3 = quartiles(base_vals)
    cmed = statistics.median(change_vals)
    diff = sign * (cmed - bmed)
    n = len(paired)
    if n and wins >= 0.9 * n and diff > q3 - q1:
        return "better"
    if n and losses >= 0.9 * n and -diff > q3 - q1:
        return "worse"
    return "unresolved"


def spread(runs, meta):
    for (workload, traced), rs in sorted(runs.items()):
        print("%s (%s): %d runs" % (workload, "traced" if traced else "untraced", len(rs)))
        for name, m in rs[0]["result"]["metrics"].items():
            vals = [r["result"]["metrics"][name]["value"] for r in rs]
            q1, med, q3 = quartiles(vals)
            share = (q3 - q1) / abs(med) if med else float("nan")
            bound = meta.get(name, {}).get("bound")
            note = "" if bound is None else "bound %.2f, spread/bound %.2f" % (bound, share / bound)
            print("  %-30s %-6s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  %s" % (
                name, m["unit"], med, q1, q3, share, note))
        fails = sorted(set("%d/%d" % (r["result"]["failed"], r["result"]["attempted"]) for r in rs))
        print("  failed/attempted: %s; correct: %s" % (
            " ".join(fails), all(r["result"]["correct"] for r in rs)))


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    if len(sys.argv) == 2:
        spread(load(sys.argv[1]), meta)
        return
    base, change = load(sys.argv[1]), load(sys.argv[2])
    for key in sorted(set(base) & set(change)):
        workload, traced = key
        b_runs, c_runs = base[key], change[key]
        print("%s (%s): %d base runs, %d change runs" % (
            workload, "traced" if traced else "untraced", len(b_runs), len(c_runs)))
        print("  %-30s %-9s %33s   %33s  %-10s %s" % (
            "metric", "unit", "base q1 / median / q3", "change q1 / median / q3", "label", "bound"))
        metrics = b_runs[0]["result"]["metrics"]
        paired = pairs(b_runs, c_runs)
        for name, m in metrics.items():
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            better = meta.get(name, {}).get("better", "lower")
            bq, cq = quartiles(bv), quartiles(cv)
            verdict = label(name, bv, cv, paired, better)
            bound = meta.get(name, {}).get("bound")
            within = ""
            if bound is not None and bq[1] != 0:
                worse_by = (cq[1] - bq[1]) / abs(bq[1]) * (1 if better == "lower" else -1)
                within = "%+.1f%% (%s %.0f%%)" % (
                    100 * worse_by, "within" if worse_by <= bound else "BEYOND", 100 * bound)
            print("  %-30s %-9s %10.4g / %10.4g / %10.4g   %10.4g / %10.4g / %10.4g  %-10s %s" % (
                name, m["unit"], bq[0], bq[1], bq[2], cq[0], cq[1], cq[2], verdict, within))
        fails = [(r["result"]["failed"], r["result"]["attempted"]) for r in b_runs + c_runs]
        print("  failed/attempted per run: %s" % ", ".join("%d/%d" % f for f in fails))
        print()


if __name__ == "__main__":
    main()
