#!/usr/bin/env python3
"""Self time per layer from a traced run's span dump.

A traced run of the benchmark writes one JSON object per span
(name, id, parent, start_ns, end_ns) to <work dir>/spans.jsonl.  A span's
name is "<layer>.<call>"; a layer's self time is the time its spans cover
minus the part their child spans cover.

    python3 perfbench/spans.py .bench_build/work-solve_cold/spans.jsonl

prints self time per layer and per span name.  perfbench/run.py uses
layer_self_ms() for the layer.*_self_ms metrics of a traced run.
"""

import json
import sys
from collections import defaultdict


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_ns(spans):
    """Span id -> its duration minus the durations of its direct children."""
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


def layer_of(name):
    return name.split(".", 1)[0]


def layer_self_ms(spans):
    """Layer -> total self time in ms."""
    own = self_ns(spans)
    out = defaultdict(float)
    for s in spans:
        out[layer_of(s["name"])] += own[s["id"]] / 1e6
    return dict(out)


def report(spans, overhead_pct=None, out=sys.stdout):
    own = self_ns(spans)
    by_name = defaultdict(lambda: [0, 0.0])
    for s in spans:
        by_name[s["name"]][0] += 1
        by_name[s["name"]][1] += own[s["id"]] / 1e6
    layers = layer_self_ms(spans)
    total = sum(layers.values()) or 1.0
    print(f"{'layer':<10} {'self ms':>12} {'share':>7}", file=out)
    for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"{layer:<10} {ms:>12.3f} {100 * ms / total:>6.1f}%", file=out)
    print(f"\n{'span':<34} {'count':>9} {'self ms':>12}", file=out)
    for name, (count, ms) in sorted(by_name.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:<34} {count:>9} {ms:>12.3f}", file=out)
    if overhead_pct is not None:
        print(f"\ntracing overhead (traced minus untraced, end to end): {overhead_pct:.2f}%",
              file=out)


def main(argv):
    if len(argv) not in (2, 3):
        print("usage: spans.py <spans.jsonl> [overhead_pct]", file=sys.stderr)
        return 2
    report(load(argv[1]), float(argv[2]) if len(argv) == 3 else None)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
