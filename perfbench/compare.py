#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are directories (or single files) of results written by
`run.py --save DIR`. For each workload, trace mode and metric the script
prints each side's median and quartiles over its runs, the change of the
medians, and a flag:

  WORSE   the new median is worse than the old by more than the metric's
          bound from BENCHMARK.json (end-to-end metrics only);
  MOVED   the medians differ by more than the spread of either side's runs
          (the distance between its quartiles);
  -       neither.

When a set holds traced and untraced runs of one workload, the tracing
overhead (untraced ops_per_s over traced) is printed for each side. Exits
1 if any metric is WORSE, else 0.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = {}
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        runs.setdefault((r["workload"], int(r["trace"])), []).append(r)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update({m["name"]: m for m in bench["per_layer"]})
    return specs


def overhead(runs, workload):
    plain, traced = runs.get((workload, 0)), runs.get((workload, 1))
    if not plain or not traced:
        return None
    a = statistics.median(r["result"]["metrics"]["ops_per_s"]["value"] for r in plain)
    b = statistics.median(r["result"]["metrics"]["trace.ops_per_s"]["value"] for r in traced)
    return a / b - 1 if b else None


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    old, new = load(sys.argv[1]), load(sys.argv[2])
    specs = metric_specs()
    worse = 0
    for key in sorted(set(old) | set(new)):
        workload, trace = key
        a, b = old.get(key, []), new.get(key, [])
        print(f"\n{workload} (trace {trace}): {len(a)} old run(s), {len(b)} new run(s)")
        if not a or not b:
            continue
        loops = [r["host"]["arith_loop_before_s"] for r in a + b] + \
                [r["host"]["arith_loop_after_s"] for r in a + b]
        print(f"  host loop {min(loops):.3f}-{max(loops):.3f} s "
              f"(old rev {a[0]['host']['git_rev']}, new rev {b[0]['host']['git_rev']})")
        print(f"  {'metric':32s} {'old median [q1, q3]':>34s} "
              f"{'new median [q1, q3]':>34s} {'change':>8s}  flag")
        for name in a[0]["result"]["metrics"]:
            va = [r["result"]["metrics"][name]["value"]
                  for r in a if name in r["result"]["metrics"]]
            vb = [r["result"]["metrics"][name]["value"]
                  for r in b if name in r["result"]["metrics"]]
            if not va or not vb:
                continue
            ma, qa1, qa3 = summary(va)
            mb, qb1, qb3 = summary(vb)
            spec = specs.get(name, {})
            change = (mb - ma) / ma if ma else 0.0
            bad = -change if spec.get("better") == "higher" else change
            flag = "-"
            if abs(mb - ma) > max(qa3 - qa1, qb3 - qb1):
                flag = "MOVED"
            if "bound" in spec and bad > spec["bound"]:
                flag = "WORSE"
                worse += 1
            print(f"  {name:32s} {ma:12.4g} [{qa1:9.4g}, {qa3:9.4g}] "
                  f"{mb:12.4g} [{qb1:9.4g}, {qb3:9.4g}] {change:+8.1%}  {flag}")
    for workload in sorted({w for w, _ in set(old) | set(new)}):
        for side, runs in (("old", old), ("new", new)):
            o = overhead(runs, workload)
            if o is not None:
                print(f"tracing overhead on {workload} ({side}): {o:+.1%} ops_per_s")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
