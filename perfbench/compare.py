#!/usr/bin/env python3
"""Compares two result sets of the whole-run benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records run.py writes (--results DIR), from
runs of the same benchmark code and settings on the parent commit and on
the change. For every workload x end-to-end metric it prints each side's
median and quartiles over the untraced runs and a verdict against the
metric's bound in BENCHMARK.json:

  better      the change wins at least 9 of 10 runs paired by seed, and
              the medians differ by more than the parent's quartile spread
  no worse    the change's median is within the bound of the parent's
  worse       the change's median is worse than the parent's by more
              than the bound
  unresolved  either side's quartile spread, as a share of its median,
              exceeds the bound, and not every change run beats every
              parent run

It then prints, per workload, the per-layer deltas between the traced
runs of the two sides (medians when a side has several).
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{trace: {workload: {seed: {metric: value}}}} from run records."""
    runs = {0: defaultdict(dict), 1: defaultdict(dict)}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        runs[rec["trace"]][rec["workload"]][rec["seed"]] = metrics
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, parent, change):
    """parent/change: {seed: value}. Returns (verdict, row fields)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    pv, cv = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)

    def beats(a, b):  # a reads better than b
        return a < b if lower else a > b

    worse_share = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(beats(change[s], parent[s]) for s in seeds)
    clear_win = (len(seeds) > 0 and wins >= 0.9 * len(seeds)
                 and abs(cm - pm) > (p3 - p1) and beats(cm, pm))
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    every_run_better = all(beats(c, p) for c in cv for p in pv)
    if spread > bound and not every_run_better:
        v = "unresolved"
    elif clear_win:
        v = "better"
    elif worse_share > bound:
        v = "worse"
    else:
        v = "no worse"
    return v, (p1, pm, p3, c1, cm, c3, worse_share, f"{wins}/{len(seeds)}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(sys.argv[1]), load(sys.argv[2])

    print(f"{'workload':<14}{'metric':<13}{'parent q1/med/q3':>36}"
          f"{'change q1/med/q3':>36}{'worse by':>10}{'wins':>7}  verdict")
    for workload in sorted(set(parent[0]) | set(change[0])):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = {s: m[name] for s, m in parent[0].get(workload, {}).items()}
            c = {s: m[name] for s, m in change[0].get(workload, {}).items()}
            if not p or not c:
                print(f"{workload:<14}{name:<13}  missing on one side")
                continue
            v, (p1, pm, p3, c1, cm, c3, ws, wins) = verdict(metric, p, c)
            print(f"{workload:<14}{name:<13}"
                  f"{p1:>12.5g}{pm:>12.5g}{p3:>12.5g}"
                  f"{c1:>12.5g}{cm:>12.5g}{c3:>12.5g}"
                  f"{ws:>+10.2%}{wins:>7}  {v}")

    print()
    print(f"{'workload':<14}{'per-layer metric':<36}{'parent':>16}"
          f"{'change':>16}{'delta':>10}")
    for workload in sorted(set(parent[1]) & set(change[1])):
        for metric in spec["per_layer"]:
            name = metric["name"]
            pv = [m[name] for m in parent[1][workload].values() if name in m]
            cv = [m[name] for m in change[1][workload].values() if name in m]
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            delta = f"{(cm - pm) / abs(pm):+.2%}" if pm else (
                "same" if cm == pm else "new")
            print(f"{workload:<14}{name:<36}{pm:>16.6g}{cm:>16.6g}{delta:>10}")


if __name__ == "__main__":
    main()
