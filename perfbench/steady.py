#!/usr/bin/env python3
"""Runs one workload N times with different seeds and shows how well the runs agree.

    python3 perfbench/steady.py --workload serve_mixed --runs 10 [--first-seed 1]
        [--seconds S] [--trace 0|1]

Run from the repository root.  Uses the command and run_seconds of
BENCHMARK.json.  For every metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median; for
end-to-end metrics it also prints the bound and flags a spread above a third
of it.  Exits non-zero if any run failed or was incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values, ok = {}, True
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"] and result["failed"] == 0
        figures = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {figures}", file=sys.stderr, flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "  <-- above bound/3" if bound is not None and spread > bound / 3 else ""
        btxt = f"{bound:>6.2f}" if bound is not None else " " * 6
        print(f"{name:<34} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} {btxt}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
