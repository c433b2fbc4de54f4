#!/usr/bin/env python3
"""Perf-trajectory diff for BENCH_*.json records.

Every bench/table target in this repo appends JSON-lines records of the form

    {"name":"BM_FleetZipfEdits","n":0,"strategy":"zipf","threads":1,"ms":1.23}

via `--json <path>` (src/util/bench_json.hpp); CI uploads one file per
target per commit.  This tool compares two such files:

    tools/bench_diff.py OLD.json NEW.json [--threshold 20]

Records are keyed by (name, n, strategy, threads); repeated measurements of
one key reduce to the minimum ms (best-of, robust to scheduler noise).  For
every key present in both files a delta is printed; keys present in only one
file are listed but never fail the run.  Exit status is 1 iff any common
benchmark regressed by more than --threshold percent (default 20), making it
usable as a CI gate or an advisory step.

Records from SFCP_PROFILE builds additionally carry a `profile` object
(src/util/bench_json.hpp); when both sides have one for a common key, the
top-level phase times (aggregated by first path segment, e.g. "serve",
"inc", "fleet") are diffed too — WARN-ONLY: phase shifts are diagnostic
breadcrumbs, never a gate, and never affect the exit status.

Records may also carry a `counters` object (google-benchmark UserCounters;
bench_fleet exports warm/warm_bytes/evictions/faults this way to document
its bounded warm-set claim).  Counter drift beyond the threshold is
reported the same way — warn-only, never a gate.

Pool threads-scaling keys (strategies carrying a /t<k> thread-width
segment; today only BENCH_fleet.json's BM_FleetConcurrentEdits, e.g.
"zipf/t4") additionally get a scaling report computed WITHIN the new
record: for each family the t1 lane anchors speedup = t1_ms / tN_ms per
width.  Reported warn-only by default; `--min-pool-speedup X` turns it
into a gate requiring the widest lane of every family to reach at least X
(exit 1 otherwise).  Note this is
a same-run ratio, not a cross-commit diff — a one-core runner will sit
near 1x, which is why the gate is opt-in.

`--selftest` runs the built-in checks and exits (used by ctest).
"""

import argparse
import json
import os
import re
import sys
import tempfile


def load_records(path):
    """path -> ({key: best_ms}, {key: {top_phase: ns}}, {key: {counter: v}}).

    The phase and counter maps hold the profile/counters of the best-of
    record (when it carried them); phases aggregate by the first path
    segment — the top-level phases.
    """
    best = {}
    profiles = {}
    counters = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}:{lineno}: not a JSON record: {exc}")
            try:
                key = (rec["name"], int(rec.get("n", 0)), rec.get("strategy", ""),
                       int(rec.get("threads", 0)))
                ms = float(rec["ms"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SystemExit(f"{path}:{lineno}: missing/invalid field: {exc}")
            if key not in best or ms < best[key]:
                best[key] = ms
                profiles.pop(key, None)
                counters.pop(key, None)
                prof = rec.get("profile")
                if prof:
                    top = {}
                    for phase, st in prof.items():
                        seg = phase.split("/", 1)[0]
                        top[seg] = top.get(seg, 0) + int(st.get("ns", 0))
                    profiles[key] = top
                ctr = rec.get("counters")
                if ctr:
                    counters[key] = {k: float(v) for k, v in ctr.items()}
    return best, profiles, counters


def key_str(key):
    name, n, strategy, threads = key
    parts = [name]
    if strategy:
        parts.append(strategy)
    if n:
        parts.append(f"n={n}")
    if threads:
        parts.append(f"t={threads}")
    return " ".join(parts)


def diff(old, new, threshold, old_prof=None, new_prof=None,
         old_ctr=None, new_ctr=None):
    """Returns (lines, regressions) for the report."""
    lines = []
    regressions = []
    old_prof = old_prof or {}
    new_prof = new_prof or {}
    old_ctr = old_ctr or {}
    new_ctr = new_ctr or {}
    common = sorted(set(old) & set(new))
    width = max((len(key_str(k)) for k in common), default=10)
    for key in common:
        o, n = old[key], new[key]
        delta = (n - o) / o * 100.0 if o > 0 else 0.0
        flag = ""
        if delta > threshold:
            flag = "  REGRESSION"
            regressions.append(key)
        elif delta < -threshold:
            flag = "  improved"
        lines.append(f"{key_str(key):<{width}}  {o:>10.3f}ms -> {n:>10.3f}ms  "
                     f"{delta:>+7.1f}%{flag}")
        # Profile phase drift: warn-only breadcrumbs, never a regression.
        op, np = old_prof.get(key), new_prof.get(key)
        if op and np:
            for phase in sorted(set(op) & set(np)):
                po, pn = op[phase], np[phase]
                if po <= 0:
                    continue
                pdelta = (pn - po) / po * 100.0
                if abs(pdelta) > threshold:
                    lines.append(f"  phase {phase}: {po / 1e6:.3f}ms -> "
                                 f"{pn / 1e6:.3f}ms  {pdelta:+.1f}% (warn-only)")
        # Counter drift (e.g. bench_fleet's warm_bytes): warn-only too.
        co, cn = old_ctr.get(key), new_ctr.get(key)
        if co and cn:
            for name in sorted(set(co) & set(cn)):
                vo, vn = co[name], cn[name]
                if vo <= 0:
                    continue
                cdelta = (vn - vo) / vo * 100.0
                if abs(cdelta) > threshold:
                    lines.append(f"  counter {name}: {vo:g} -> {vn:g}  "
                                 f"{cdelta:+.1f}% (warn-only)")
    for key in sorted(set(old) - set(new)):
        lines.append(f"{key_str(key)}: only in old record (skipped)")
    for key in sorted(set(new) - set(old)):
        lines.append(f"{key_str(key)}: new benchmark (no baseline)")
    if not common:
        lines.append("no common benchmarks between the two records")
    return lines, regressions


POOL_SEG = re.compile(r"(?:^|/)t(\d+)(?=/|$)")


def pool_families(records):
    """{key: ms} -> {family: {width: ms}} for keys whose strategy carries a
    /t<k> thread-width segment.  The family key is the record key with that
    segment removed, so zipf/t1/burst .. zipf/t8/burst collapse into one
    family keyed by (name, n, "zipf/burst", threads)."""
    fams = {}
    for key, ms in records.items():
        name, n, strategy, threads = key
        m = POOL_SEG.search(strategy)
        if not m:
            continue
        width = int(m.group(1))
        family = (name, n, POOL_SEG.sub("", strategy).strip("/"), threads)
        fams.setdefault(family, {})[width] = ms
    return fams


def pool_scaling(records, min_speedup=None):
    """Returns (lines, failures): speedup-vs-t1 per family, computed within
    one record file.  With min_speedup set, the WIDEST lane of each family
    must reach it; narrower lanes are always informational."""
    lines = []
    failures = []
    for family, widths in sorted(pool_families(records).items()):
        if widths.get(1, 0) <= 0 or len(widths) < 2:
            continue
        base = widths[1]
        widest = max(widths)
        for width in sorted(widths):
            if width == 1:
                continue
            speedup = base / widths[width] if widths[width] > 0 else 0.0
            gated = min_speedup is not None and width == widest
            flag = ""
            if gated and speedup < min_speedup:
                flag = f"  BELOW FLOOR (< {min_speedup:.2f}x)"
                failures.append((family, width))
            lines.append(f"{key_str(family)} t{width}: {base:.3f}ms / "
                         f"{widths[width]:.3f}ms = {speedup:.2f}x vs t1{flag}")
    return lines, failures


def selftest():
    def record(name, ms, strategy="s", n=64, threads=2, profile=None,
               counters=None):
        rec = {"name": name, "n": n, "strategy": strategy,
               "threads": threads, "ms": ms}
        if profile is not None:
            rec["profile"] = profile
        if counters is not None:
            rec["counters"] = counters
        return json.dumps(rec)

    def phases(apply_ns, fsync_ns):
        return {"serve/epoch_apply": {"ns": apply_ns, "count": 1, "flops": 0,
                                      "bytes": 0},
                "serve/journal_fsync": {"ns": fsync_ns, "count": 1, "flops": 0,
                                        "bytes": 0},
                "inc/repair": {"ns": 1000, "count": 1, "flops": 0, "bytes": 0}}

    def fleet_phases(route_ns, evict_ns):
        return {"fleet/route": {"ns": route_ns, "count": 4, "flops": 0,
                                "bytes": 0},
                "fleet/evict": {"ns": evict_ns, "count": 2, "flops": 0,
                                "bytes": 0}}

    with tempfile.TemporaryDirectory() as tmp:
        old_path = os.path.join(tmp, "old.json")
        new_path = os.path.join(tmp, "new.json")
        with open(old_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([
                record("a", 10.0), record("a", 12.0),   # best-of -> 10.0
                record("b", 5.0, profile=phases(1_000_000, 1_000_000)),
                # A BENCH_fleet.json-shaped record: fleet/* phases + exported
                # UserCounters (the bounded-warm-set evidence).
                record("BM_FleetZipfEdits", 3.0, strategy="zipf",
                       profile=fleet_phases(2_000_000, 1_000_000),
                       counters={"warm": 1024.0, "warm_bytes": 1_000_000.0,
                                 "evictions": 100.0}),
                record("gone", 1.0),
            ]) + "\n")
        with open(new_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([
                record("a", 11.0),                       # +10% — within threshold
                # +80% ms — regression; serve phase +150% — warn-only
                record("b", 9.0, profile=phases(4_000_000, 1_000_000)),
                # Same wall time, but warm_bytes +150% — warn-only, no gate.
                record("BM_FleetZipfEdits", 3.0, strategy="zipf",
                       profile=fleet_phases(2_000_000, 1_000_000),
                       counters={"warm": 1024.0, "warm_bytes": 2_500_000.0,
                                 "evictions": 110.0}),
                record("fresh", 2.0),
            ]) + "\n")

        (old, old_prof, old_ctr), (new, new_prof, new_ctr) = (
            load_records(old_path), load_records(new_path))
        assert old[("a", 64, "s", 2)] == 10.0, "best-of reduction failed"
        bkey = ("b", 64, "s", 2)
        # Top-level aggregation: serve = apply + fsync, inc kept separate,
        # fleet/* rolls up under "fleet".
        assert old_prof[bkey] == {"serve": 2_000_000, "inc": 1000}, old_prof
        fkey = ("BM_FleetZipfEdits", 64, "zipf", 2)
        assert old_prof[fkey] == {"fleet": 3_000_000}, old_prof
        assert old_ctr[fkey]["warm_bytes"] == 1_000_000.0, old_ctr
        assert bkey not in old_prof or ("a", 64, "s", 2) not in old_prof
        lines, regressions = diff(old, new, 20.0, old_prof, new_prof,
                                  old_ctr, new_ctr)
        assert len(regressions) == 1 and regressions[0][0] == "b", regressions
        assert any("REGRESSION" in l for l in lines)
        assert any("only in old" in l for l in lines)
        assert any("no baseline" in l for l in lines)
        warn = [l for l in lines if "warn-only" in l]
        # Exactly two warn lines: the warm_bytes counter shift and the serve
        # phase shift; evictions +10% stays under threshold.
        assert len(warn) == 2 and "counter warm_bytes" in warn[0], lines
        assert "phase serve" in warn[1], lines
        assert not any("counter evictions" in l for l in lines), lines
        # Phase/counter drift alone must never regress the run (warn-only):
        flat = {k: 5.0 for k in old}
        _, none = diff(flat, flat, 20.0, old_prof, new_prof, old_ctr, new_ctr)
        assert none == [], "profile/counter drift must not gate"
        _, none = diff(old, new, threshold=100.0)
        assert none == [], "threshold not respected"
        _, empty = diff({}, new, threshold=20.0)
        assert empty == [], "disjoint records must not regress"

        # Pool threads-scaling: a mid-strategy /t1..t8 segment collapses the
        # lanes into one family; speedup anchors on t1; only the widest lane
        # gates.
        pool = {("BM_PoolEdits", 0, "zipf/t1/burst", 8): 8.0,
                ("BM_PoolEdits", 0, "zipf/t2/burst", 8): 5.0,
                ("BM_PoolEdits", 0, "zipf/t8/burst", 8): 2.0,
                ("BM_Edits", 0, "zipf/burst", 8): 3.0}  # no /t — ignored
        fams = pool_families(pool)
        assert list(fams) == [("BM_PoolEdits", 0, "zipf/burst", 8)], fams
        assert fams[("BM_PoolEdits", 0, "zipf/burst", 8)] == \
            {1: 8.0, 2: 5.0, 8: 2.0}, fams
        plines, pfail = pool_scaling(pool)
        assert len(plines) == 2 and pfail == [], (plines, pfail)
        assert "t8: 8.000ms / 2.000ms = 4.00x" in plines[1], plines
        _, pfail = pool_scaling(pool, min_speedup=3.0)
        assert pfail == [], "4x widest lane must pass a 3x floor"
        plines, pfail = pool_scaling(pool, min_speedup=5.0)
        assert len(pfail) == 1, "4x widest lane must fail a 5x floor"
        assert any("BELOW FLOOR" in l for l in plines), plines
        # t2 at 1.6x never gates, even under a floor it misses.
        assert not any("t2" in l and "BELOW FLOOR" in l for l in plines)
        # A family with no t1 anchor is skipped, not divided by zero.
        plines, pfail = pool_scaling(
            {("x", 0, "k8/t2/burst", 8): 1.0, ("x", 0, "k8/t4/burst", 8): 0.5},
            min_speedup=3.0)
        assert plines == [] and pfail == [], (plines, pfail)

        # Fleet warm-fan keys (BENCH_fleet.json: BM_FleetConcurrentEdits/
        # {zipf,uniform}/t<k>) group the same way: the /t<k> segment is the
        # family splitter and the id-distribution segment keeps the zipf and
        # uniform streams in separate families, each with its own t1 anchor.
        fleet = {("BM_FleetConcurrentEdits", 0, "zipf/t1", 1): 10.0,
                 ("BM_FleetConcurrentEdits", 0, "zipf/t4", 1): 4.0,
                 ("BM_FleetConcurrentEdits", 0, "uniform/t1", 1): 14.0,
                 ("BM_FleetConcurrentEdits", 0, "uniform/t4", 1): 10.0}
        ffams = pool_families(fleet)
        assert set(ffams) == {("BM_FleetConcurrentEdits", 0, "zipf", 1),
                              ("BM_FleetConcurrentEdits", 0, "uniform", 1)}, ffams
        flines, ffail = pool_scaling(fleet)
        assert ffail == [] and len(flines) == 2, (flines, ffail)
        assert any("zipf" in l and "= 2.50x" in l for l in flines), flines
        assert any("uniform" in l and "= 1.40x" in l for l in flines), flines
    print("bench_diff selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", help="baseline BENCH_*.json")
    parser.add_argument("new", nargs="?", help="candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="regression threshold in percent (default 20)")
    parser.add_argument("--min-pool-speedup", type=float, default=None,
                        metavar="X",
                        help="gate: the widest /t<k> lane of every pool "
                             "family in NEW must reach X speedup over its "
                             "t1 lane (default: report-only)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in checks and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.old or not args.new:
        parser.error("OLD and NEW record files are required (or --selftest)")

    old, old_prof, old_ctr = load_records(args.old)
    new, new_prof, new_ctr = load_records(args.new)
    lines, regressions = diff(old, new, args.threshold, old_prof, new_prof,
                              old_ctr, new_ctr)
    print(f"bench_diff: {args.old} -> {args.new} (threshold {args.threshold:.0f}%)")
    for line in lines:
        print(f"  {line}")
    pool_lines, pool_failures = pool_scaling(new, args.min_pool_speedup)
    if pool_lines:
        print("bench_diff: pool threads-scaling (within new record)")
        for line in pool_lines:
            print(f"  {line}")
    status = 0
    if regressions:
        print(f"bench_diff: {len(regressions)} benchmark(s) regressed "
              f"by more than {args.threshold:.0f}%")
        status = 1
    if pool_failures:
        print(f"bench_diff: {len(pool_failures)} pool family(ies) below the "
              f"{args.min_pool_speedup:.2f}x scaling floor")
        status = 1
    if status == 0:
        print("bench_diff: no regressions beyond threshold")
    return status


if __name__ == "__main__":
    sys.exit(main())
