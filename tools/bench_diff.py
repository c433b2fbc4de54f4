#!/usr/bin/env python3
"""Diff two bench/table `--json` runs.

Every bench/table target in this repo appends JSON-lines records of the form

    {"name":"BM_Sfcp","n":16384,"strategy":"parallel","threads":1,"ms":1.23}

via `--json <path>` (src/util/bench_json.hpp).  This tool compares two such
files, e.g. one run before and one after a local change:

    tools/bench_diff.py OLD.json NEW.json [--threshold 20]

Records are keyed by (name, n, strategy, threads); repeated measurements of
one key reduce to the minimum ms (best-of, robust to scheduler noise).  For
every key present in both files a delta is printed; keys present in only one
file are listed but never fail the run.  Exit status is 1 iff any common
benchmark regressed by more than --threshold percent (default 20).  This is
a local microbench comparison; end-to-end performance is perfbench's to
measure.

Records from SFCP_PROFILE builds additionally carry a `profile` object
(src/util/bench_json.hpp); when both sides have one for a common key, the
top-level phase times (aggregated by first path segment, e.g. "solve",
"machine_peak") are diffed too — WARN-ONLY: phase shifts are diagnostic
breadcrumbs, never a gate, and never affect the exit status.

`--selftest` runs the built-in checks and exits (used by ctest).
"""

import argparse
import json
import os
import sys
import tempfile


def load_records(path):
    """path -> ({key: best_ms}, {key: {top_phase: ns}}).

    The phase map holds the profile of the best-of record (when it carried
    one), aggregated by the first path segment — the top-level phases.
    """
    best = {}
    profiles = {}
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
                prof = rec.get("profile")
                if prof:
                    top = {}
                    for phase, st in prof.items():
                        seg = phase.split("/", 1)[0]
                        top[seg] = top.get(seg, 0) + int(st.get("ns", 0))
                    profiles[key] = top
    return best, profiles


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


def diff(old, new, threshold, old_prof=None, new_prof=None):
    """Returns (lines, regressions) for the report."""
    lines = []
    regressions = []
    old_prof = old_prof or {}
    new_prof = new_prof or {}
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
    for key in sorted(set(old) - set(new)):
        lines.append(f"{key_str(key)}: only in old record (skipped)")
    for key in sorted(set(new) - set(old)):
        lines.append(f"{key_str(key)}: new benchmark (no baseline)")
    if not common:
        lines.append("no common benchmarks between the two records")
    return lines, regressions


def selftest():
    def record(name, ms, strategy="s", n=64, threads=2, profile=None):
        rec = {"name": name, "n": n, "strategy": strategy,
               "threads": threads, "ms": ms}
        if profile is not None:
            rec["profile"] = profile
        return json.dumps(rec)

    def phases(apply_ns, fsync_ns):
        return {"serve/epoch_apply": {"ns": apply_ns, "count": 1, "flops": 0,
                                      "bytes": 0},
                "serve/journal_fsync": {"ns": fsync_ns, "count": 1, "flops": 0,
                                        "bytes": 0},
                "inc/repair": {"ns": 1000, "count": 1, "flops": 0, "bytes": 0}}

    with tempfile.TemporaryDirectory() as tmp:
        old_path = os.path.join(tmp, "old.json")
        new_path = os.path.join(tmp, "new.json")
        with open(old_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([
                record("a", 10.0), record("a", 12.0),   # best-of -> 10.0
                record("b", 5.0, profile=phases(1_000_000, 1_000_000)),
                record("gone", 1.0),
            ]) + "\n")
        with open(new_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([
                record("a", 11.0),                       # +10% — within threshold
                # +80% ms — regression; serve phase +150% — warn-only
                record("b", 9.0, profile=phases(4_000_000, 1_000_000)),
                record("fresh", 2.0),
            ]) + "\n")

        (old, old_prof), (new, new_prof) = load_records(old_path), load_records(new_path)
        assert old[("a", 64, "s", 2)] == 10.0, "best-of reduction failed"
        bkey = ("b", 64, "s", 2)
        # Top-level aggregation: serve = apply + fsync, inc kept separate.
        assert old_prof[bkey] == {"serve": 2_000_000, "inc": 1000}, old_prof
        assert ("a", 64, "s", 2) not in old_prof
        lines, regressions = diff(old, new, 20.0, old_prof, new_prof)
        assert len(regressions) == 1 and regressions[0][0] == "b", regressions
        assert any("REGRESSION" in l for l in lines)
        assert any("only in old" in l for l in lines)
        assert any("no baseline" in l for l in lines)
        warn = [l for l in lines if "warn-only" in l]
        assert len(warn) == 1 and "phase serve" in warn[0], lines
        # Phase drift alone must never regress the run (warn-only):
        flat = {k: 5.0 for k in old}
        _, none = diff(flat, flat, 20.0, old_prof, new_prof)
        assert none == [], "profile drift must not gate"
        _, none = diff(old, new, threshold=100.0)
        assert none == [], "threshold not respected"
        _, empty = diff({}, new, threshold=20.0)
        assert empty == [], "disjoint records must not regress"
    print("bench_diff selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", help="baseline --json record file")
    parser.add_argument("new", nargs="?", help="candidate --json record file")
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="regression threshold in percent (default 20)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in checks and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.old or not args.new:
        parser.error("OLD and NEW record files are required (or --selftest)")

    old, old_prof = load_records(args.old)
    new, new_prof = load_records(args.new)
    lines, regressions = diff(old, new, args.threshold, old_prof, new_prof)
    print(f"bench_diff: {args.old} -> {args.new} (threshold {args.threshold:.0f}%)")
    for line in lines:
        print(f"  {line}")
    if regressions:
        print(f"bench_diff: {len(regressions)} benchmark(s) regressed "
              f"by more than {args.threshold:.0f}%")
        return 1
    print("bench_diff: no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
