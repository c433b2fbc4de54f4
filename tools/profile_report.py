#!/usr/bin/env python3
"""Per-phase roofline report over bench `--json` profile objects.

SFCP_PROFILE builds attach a flattened phase profile to every JSONL bench
record (src/util/bench_json.hpp):

    {"name":"BM_Sfcp","...","ms":1.2,
     "profile":{"solve/tree_label":{"ns":900000,"count":8,"flops":0,
                "bytes":73728},...}}

This tool renders those profiles as indented trees with total/self time and
achieved GB/s / GFLOP/s per phase, against a measured machine peak:

    tools/profile_report.py solve.json [peak.json ...]
                            [--peak <GB/s>] [--top <k>]

The peak comes from (first match wins): --peak, or any "machine_peak"
record in the given files (written by bench_machine_peak, whose `n` field
is bytes-per-pass).  Without either, the %peak column is omitted.

Semantics to read the table with: a parent's total already includes
same-thread children (the scope physically spans them), but NOT scopes
opened on pram::parallel_for worker threads, whose summed time can exceed
the parent's wall time — self time is clamped at zero there.  GB/s and
GFLOP/s divide a phase's OWN charged traffic by its own wall time (charges
are not rolled up into ancestors).

`--selftest` runs the built-in checks and exits (used by ctest).
"""

import argparse
import json
import os
import sys
import tempfile


def load(paths):
    """paths -> (profiles, peak_gbps|None).

    profiles: list of (label, {path: {ns,count,flops,bytes}}) in file order,
    one entry per record that carried a non-empty profile, merged across
    repeated records of the same benchmark key (ns/count/flops/bytes sum).
    """
    merged = {}   # key -> {path: stats}
    order = []
    peak = None
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SystemExit(f"{path}:{lineno}: not a JSON record: {exc}")
                if rec.get("name") == "machine_peak" and peak is None:
                    ns = float(rec["ms"]) * 1e6
                    if ns > 0:
                        peak = float(rec.get("n", 0)) / ns  # bytes/ns == GB/s
                prof = rec.get("profile")
                if not prof:
                    continue
                key = (rec.get("name", "?"), rec.get("strategy", ""),
                       int(rec.get("n", 0)), int(rec.get("threads", 0)))
                if key not in merged:
                    merged[key] = {}
                    order.append(key)
                dst = merged[key]
                for phase, st in prof.items():
                    acc = dst.setdefault(phase,
                                         {"ns": 0, "count": 0, "flops": 0, "bytes": 0})
                    for field in acc:
                        acc[field] += int(st.get(field, 0))
    labels = []
    for key in order:
        name, strategy, n, threads = key
        parts = [name]
        if strategy:
            parts.append(strategy)
        if n:
            parts.append(f"n={n}")
        if threads:
            parts.append(f"t={threads}")
        labels.append((" ".join(parts), merged[key]))
    return labels, peak


def self_ns(phases, path):
    """Own ns minus maximal recorded descendants' ns, clamped at zero.

    Paths may skip levels ("a/b/c/d" recorded without "a/b/c"), so the
    subtraction covers every recorded descendant that has no OTHER recorded
    ancestor between itself and `path` — each nanosecond is subtracted once.
    """
    prefix = path + "/"
    child = 0
    skip = None
    for p in sorted(p for p in phases if p.startswith(prefix)):
        if skip and p.startswith(skip):
            continue
        child += phases[p]["ns"]
        skip = p + "/"
    return max(phases[path]["ns"] - child, 0)


def render(label, phases, peak, top=0, out=sys.stdout):
    out.write(f"== {label} ==\n")
    header = (f"{'phase':<36}{'count':>9}{'total ms':>12}{'ms/call':>12}"
              f"{'self ms':>12}{'GB/s':>9}{'GFLOP/s':>10}")
    if peak:
        header += f"{'%peak':>8}"
    out.write(header + "\n")
    paths = sorted(phases)
    # Indent each phase under its nearest RECORDED ancestor; the label keeps
    # any skipped levels ("inc/dirty_region" under "serve/epoch_apply").
    # Ancestors sort before descendants, so one pass fills the depth map.
    depth_of, label_of = {}, {}
    for path in paths:
        depth_of[path], label_of[path] = 0, path
        pos = path.rfind("/")
        while pos > 0:
            anc = path[:pos]
            if anc in depth_of:
                depth_of[path] = depth_of[anc] + 1
                label_of[path] = path[pos + 1:]
                break
            pos = path.rfind("/", 0, pos)
    if top:
        keep = sorted(paths, key=lambda p: -self_ns(phases, p))[:top]
        paths = [p for p in paths if p in set(keep)]
    for path in paths:
        st = phases[path]
        depth = depth_of[path]
        leaf = label_of[path]
        total_ms = st["ns"] / 1e6
        per_call = total_ms / st["count"] if st["count"] else 0.0
        row = (f"{'  ' * depth + leaf:<36}{st['count']:>9}{total_ms:>12.3f}"
               f"{per_call:>12.4f}{self_ns(phases, path) / 1e6:>12.3f}")
        gbps = st["bytes"] / st["ns"] if st["ns"] and st["bytes"] else None
        row += f"{gbps:>9.2f}" if gbps is not None else f"{'-':>9}"
        gflops = st["flops"] / st["ns"] if st["ns"] and st["flops"] else None
        row += f"{gflops:>10.2f}" if gflops is not None else f"{'-':>10}"
        if peak:
            row += (f"{100.0 * gbps / peak:>7.1f}%" if gbps is not None
                    else f"{'-':>8}")
        out.write(row + "\n")
    out.write("\n")


def selftest():
    rec = {"name": "BM_X", "n": 256, "strategy": "localized", "threads": 4, "ms": 2.0,
           "profile": {
               "serve": {"ns": 4_000_000, "count": 2, "flops": 0, "bytes": 0},
               "serve/epoch_apply": {"ns": 3_000_000, "count": 2, "flops": 1_000_000,
                                     "bytes": 6_000_000},
               "serve/notify": {"ns": 500_000, "count": 2, "flops": 0, "bytes": 0}}}
    peak_rec = {"name": "machine_peak", "n": 201326592, "strategy": "triad",
                "threads": 4, "ms": 10.0}  # 201326592 B / 10 ms = 20.13 GB/s
    plain = {"name": "BM_Y", "n": 1, "strategy": "", "threads": 1, "ms": 0.1}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.json")
        with open(path, "w", encoding="utf-8") as fh:
            for r in (rec, rec, peak_rec, plain):  # rec twice: merge must sum
                fh.write(json.dumps(r) + "\n")
        labels, peak = load([path])
        assert peak is not None and abs(peak - 20.1326592) < 1e-6, peak
        assert len(labels) == 1, labels  # the profile-less record contributes nothing
        label, phases = labels[0]
        assert label == "BM_X localized n=256 t=4", label
        assert phases["serve"]["ns"] == 8_000_000, phases  # merged across records
        # self of "serve" = 8ms - (6ms apply + 1ms notify) = 1ms
        assert self_ns(phases, "serve") == 1_000_000, self_ns(phases, "serve")
        assert self_ns(phases, "serve/epoch_apply") == 6_000_000
        # achieved GB/s of epoch_apply = 12MB / 6ms = 2 GB/s
        assert abs(phases["serve/epoch_apply"]["bytes"] /
                   phases["serve/epoch_apply"]["ns"] - 2.0) < 1e-9
        import io
        buf = io.StringIO()
        render(label, phases, peak, out=buf)
        text = buf.getvalue()
        assert "%peak" in text and "epoch_apply" in text and "GB/s" in text, text
        assert "  epoch_apply" in text, "child must be indented under serve"
        # Skipped levels: "serve/epoch_apply/inc/repair" without a recorded
        # ".../inc" hangs off epoch_apply (depth 2, compound label) and is
        # subtracted from epoch_apply's self time exactly once.
        phases["serve/epoch_apply/inc/repair"] = {
            "ns": 2_000_000, "count": 9, "flops": 0, "bytes": 0}
        phases["serve/epoch_apply/inc/repair/sigmap"] = {
            "ns": 500_000, "count": 9, "flops": 0, "bytes": 0}
        assert self_ns(phases, "serve/epoch_apply") == 4_000_000
        assert self_ns(phases, "serve") == 1_000_000  # grandchildren not double-counted
        buf = io.StringIO()
        render(label, phases, peak, out=buf)
        assert "    inc/repair" in buf.getvalue(), buf.getvalue()
        # Cross-thread oversubscription clamps, never goes negative.
        phases["serve/epoch_apply"]["ns"] = 1_000_000
        assert self_ns(phases, "serve/epoch_apply") == 0
    print("profile_report selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="bench --json record files")
    parser.add_argument("--peak", type=float, default=None,
                        help="machine peak GB/s (overrides machine_peak records)")
    parser.add_argument("--top", type=int, default=0,
                        help="only the k phases with the largest self time (0 = all)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in checks and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.files:
        parser.error("at least one record file is required (or --selftest)")

    labels, file_peak = load(args.files)
    peak = args.peak if args.peak else file_peak
    if peak:
        print(f"machine peak: {peak:.2f} GB/s (STREAM triad)")
    else:
        print("machine peak: unknown — run bench_machine_peak --json into the same "
              "file, or pass --peak")
    print()
    if not labels:
        print("no profile objects found — build with -DSFCP_PROFILE=ON and rerun "
              "the bench with --json")
        return 0
    for label, phases in labels:
        render(label, phases, peak, top=args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
