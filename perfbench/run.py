#!/usr/bin/env python3
"""The end-to-end benchmark's command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        [--serve-edit-rate r] [--serve-read-rate r] [--fleet-edit-rate r] [--fleet-view-rate r]

Run from the repository root.  Builds the measuring program from source into
.bench_build (first run only; later runs are incremental), runs one workload,
and prints as the last line of stdout one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics;
a per-layer metric of a layer the workload does not exercise reads 0.
Exits non-zero on any correctness mismatch or failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spans  # noqa: E402

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "sfcp_perfbench")
WORKLOADS = ("solve_cold", "serve_mixed", "fleet_zipf")
LAYERS = ("serve", "fleet", "inc", "core", "graph", "prim", "pram")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(2)


def metric_table():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for rate in ("serve-edit-rate", "serve-read-rate", "fleet-edit-rate", "fleet-view-rate"):
        ap.add_argument("--" + rate, type=float, default=0.0)
    args = ap.parse_args()

    end_to_end, per_layer = metric_table()
    build()

    work_dir = os.path.join(BUILD_DIR, "work-" + args.workload)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir,
           "--serve-edit-rate", str(args.serve_edit_rate),
           "--serve-read-rate", str(args.serve_read_rate),
           "--fleet-edit-rate", str(args.fleet_edit_rate),
           "--fleet-view-rate", str(args.fleet_view_rate)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: the measuring program timed out")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("run.py: the measuring program printed no result (exit %d)" % proc.returncode)
        return 3
    result = json.loads(lines[-1])
    measured = result["metrics"]

    wanted = end_to_end if args.trace == 0 else per_layer
    if args.trace == 1:
        dump = spans.load(os.path.join(work_dir, "spans.jsonl"))
        self_ms = spans.layer_self_ms(dump)
        for layer in LAYERS:
            measured["layer.%s_self_ms" % layer] = {"value": self_ms.get(layer, 0.0), "unit": "ms"}
        spans.report(dump, measured.get("trace.overhead_pct", {}).get("value"), out=sys.stderr)

    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if args.trace == 0:
                log("run.py: end-to-end metric %s was not measured" % m["name"])
                return 3
            got = {"value": 0.0, "unit": m["unit"]}  # layer not exercised by this workload
        if got["unit"] != m["unit"]:
            log("run.py: %s measured in %s, registered in %s" % (m["name"], got["unit"], m["unit"]))
            return 3
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
