#!/usr/bin/env python3
"""The benchmark's own test: every workload at its tiny size.

    python3 perfbench/test.py

For each workload it checks that a run
  - exits 0 with a correct result, no failed operation and every metric
    that BENCHMARK.json names, end-to-end metrics all above 0;
  - reports the same program counters twice for the same seed (traced);
  - exits 1 with "correct": false when one resolved value is flipped
    (--tamper), so the answer checker is not vacuous.
Takes about a minute; exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    return out.returncode, (json.loads(lines[-1]) if lines else None), out.stderr


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in [x["name"] for x in bench["workloads"]]:
        code, res, err = run(w, 0)
        check(code == 0 and res is not None, f"{w}: exits 0 ({err.strip()[-200:]})")
        check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
              f"{w}: correct, {res['attempted']} attempted, none failed")
        check(list(res["metrics"]) == e2e, f"{w}: reports every end-to-end metric")
        check(all(v["value"] > 0 for v in res["metrics"].values()),
              f"{w}: every end-to-end metric is above 0")
        runs = [run(w, 1) for _ in range(2)]
        for code, res, err in runs:
            check(code == 0 and res["correct"] and list(res["metrics"]) == list(layers),
                  f"{w}: traced run reports every per-layer metric")
        counters = [{k: v["value"] for k, v in res["metrics"].items()
                     if layers[k] in ("count", "B", "words")} for _, res, _ in runs]
        check(counters[0] == counters[1], f"{w}: program counters repeat for one seed")
        code, res, err = run(w, 0, "--tamper")
        check(code == 1 and res is not None and not res["correct"] and "WRONG ANSWER" in err,
              f"{w}: a flipped answer is rejected")
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
