#!/usr/bin/env python3
"""Build the resolver and run one benchmark workload.

    python3 perfbench/run.py --workload batch|deep|stream --seed N \
        --seconds S --trace 0|1 [--size full|tiny] [--tamper] [--save DIR]

Run from the root of a source tree. The script builds perfbench.exe and
crsolved.exe with dune (output goes to stderr), then runs the workload.
Its standard output is the benchmark's: the last line is the result
object, the line before it the host fingerprint and run details. With
--save DIR both lines are also written to DIR as one JSON file, the input
of compare.py. The exit code is the benchmark's (1 on a wrong answer).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CRSOLVED = os.path.join("_build", "default", "bin", "crsolved.exe")


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["batch", "deep", "stream"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--tamper", action="store_true",
                    help="corrupt one resolved value; the run must then fail")
    ap.add_argument("--save", metavar="DIR", help="also write the result to DIR")
    args = ap.parse_args()

    for need in ("dune-project", os.path.join("lib", "crcore"), os.path.join("bin", "crsolved.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.stderr.write(f"perfbench: {need} not found; run from a source tree\n")
            return 2
    build = subprocess.run(["dune", "build", "--root", ".", "./" + EXE, "./" + CRSOLVED],
                           cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2

    # The run, daemon included, gets one CPU: a stream request's round trip
    # is then a context switch on that CPU rather than a wake-up on the
    # other one, whose cost swings by half with the host's load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cmd = [os.path.join(ROOT, EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--crsolved", CRSOLVED, "--git-rev", git_rev()]
    if args.tamper:
        cmd.append("--tamper")
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if args.save and run.returncode == 0:
        lines = run.stdout.strip().splitlines()
        saved = json.loads(lines[-2])["record"]
        saved["result"] = json.loads(lines[-1])
        os.makedirs(args.save, exist_ok=True)
        name = f"{args.workload}-t{args.trace}-s{args.seed}.json"
        with open(os.path.join(args.save, name), "w") as f:
            json.dump(saved, f, indent=1)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
