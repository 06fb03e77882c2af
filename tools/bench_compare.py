#!/usr/bin/env python3
"""Compare fresh google-benchmark JSON runs against committed baselines.

Usage:
    tools/bench_compare.py FRESH.json [FRESH2.json ...]
        [--baselines bench/baselines] [--baseline FILE]
        [--tolerance 1.5] [--update]

Each FRESH.json (as produced by `bench_x --benchmark_format=json`) is
matched against the baseline of the same basename inside --baselines,
unless --baseline names one file explicitly (only valid with a single
fresh file). A benchmark regresses when

    fresh_real_time > tolerance * baseline_real_time

Tracked user counters ride along under the same tolerance: a throughput
counter (items_per_second) regresses when it *drops* below
baseline / tolerance, and latency-quantile counters (p50_us, p99_us —
the serve load benchmark) regress when they *grow* beyond
tolerance * baseline. Counters present on only one side are ignored.

Aggregate rows (`*_BigO`, `*_RMS`, mean/median/stddev) are skipped. The
check is strict about coverage: a fresh file without a baseline, or a
benchmark row present on only one side, fails it just like a regression
— adding or retiring benchmarks means refreshing the baseline with
--update in the same change.

With --update, each fresh run is first compared (so the delta is on
record), then written over its baseline file verbatim (creating it when
missing) — the workflow for refreshing committed baselines after a perf
PR (see bench/baselines/README.md). --update never fails on regressions
or coverage mismatches; it reports them and rewrites anyway, since the
point is to pin the new truth.

Exit status: 0 all within tolerance (or --update), 1 at least one
regression, missing baseline or one-sided row, 2 bad invocation or
unreadable files.

Baselines are machine-dependent (see bench/baselines/README.md): run the
comparison on the machine that produced the baselines, and keep the
tolerance generous — the default 1.5x absorbs normal scheduler noise
while still catching order-of-magnitude rots.
"""

import argparse
import json
import os
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# User counters compared alongside real_time, with the direction that
# counts as a regression: "higher" is better for throughput, "lower" for
# latency quantiles.
_TRACKED_COUNTERS = {
    "items_per_second": "higher",
    "p50_us": "lower",
    "p99_us": "lower",
}


def load_benchmarks(path):
    """Returns {name: (real_time_ns, {counter: value})} for the
    comparable rows of one run."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_compare: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for row in doc.get("benchmarks", []):
        name = row.get("name", "")
        if row.get("run_type") == "aggregate":
            continue
        if name.endswith("_BigO") or name.endswith("_RMS"):
            continue
        if "real_time" not in row:
            continue
        counters = {c: row[c] for c in _TRACKED_COUNTERS
                    if isinstance(row.get(c), (int, float))}
        out[name] = (
            row["real_time"] * _UNIT_NS.get(row.get("time_unit", "ns"), 1.0),
            counters,
        )
    return out


def human(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:.2f}{unit}"
    return f"{ns:.0f}ns"


def human_counter(counter, value):
    if counter == "items_per_second":
        return f"{value:,.0f}/s"
    return f"{value:.4g}"


def compare(fresh_path, baseline_path, tolerance):
    fresh = load_benchmarks(fresh_path)
    base = load_benchmarks(baseline_path)
    regressions = []
    print(f"== {os.path.basename(fresh_path)} vs {baseline_path} "
          f"(tolerance {tolerance:.2f}x)")
    for name in sorted(set(fresh) | set(base)):
        if name not in fresh or name not in base:
            side = "baseline" if name not in fresh else "fresh run"
            print(f"  {name:44s} only in {side}  MISSING")
            regressions.append((name, f"only in {side}"))
            continue
        fresh_ns, fresh_counters = fresh[name]
        base_ns, base_counters = base[name]
        ratio = fresh_ns / base_ns if base_ns else float("inf")
        status = "ok"
        if ratio > tolerance:
            status = "REGRESSED"
            regressions.append((name, f"x{ratio:.2f}"))
        elif ratio < 1.0 / tolerance:
            status = "faster"
        print(f"  {name:44s} {human(base_ns):>10s} -> "
              f"{human(fresh_ns):>10s}  x{ratio:5.2f}  {status}")
        for counter, direction in _TRACKED_COUNTERS.items():
            if counter not in fresh_counters or counter not in base_counters:
                continue
            b, f = base_counters[counter], fresh_counters[counter]
            # Normalize so >1 always means worse, whatever the direction.
            worse = (b / f if direction == "higher" else f / b) \
                if b and f else float("inf")
            cstatus = "ok"
            if worse > tolerance:
                cstatus = "REGRESSED"
                regressions.append((f"{name}[{counter}]", f"x{worse:.2f}"))
            elif worse < 1.0 / tolerance:
                cstatus = "better"
            print(f"    {counter:42s} {human_counter(counter, b):>10s} -> "
                  f"{human_counter(counter, f):>10s}  x{worse:5.2f}  "
                  f"{cstatus}")
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("fresh", nargs="+", help="fresh benchmark JSON file(s)")
    ap.add_argument("--baselines", default="bench/baselines",
                    help="directory of committed BENCH_*.json baselines")
    ap.add_argument("--baseline", default=None,
                    help="explicit baseline file (single fresh file only)")
    ap.add_argument("--tolerance", type=float, default=1.5,
                    help="allowed fresh/baseline real_time ratio (default 1.5)")
    ap.add_argument("--update", action="store_true",
                    help="after comparing, rewrite each baseline from its "
                         "fresh run (never fails on regressions)")
    args = ap.parse_args()
    if args.baseline and len(args.fresh) != 1:
        ap.error("--baseline requires exactly one fresh file")

    all_regressions = []
    for fresh_path in args.fresh:
        baseline_path = args.baseline or os.path.join(
            args.baselines, os.path.basename(fresh_path))
        if not os.path.exists(baseline_path):
            print(f"== {os.path.basename(fresh_path)}: no baseline "
                  f"{baseline_path}  MISSING")
            all_regressions.append((baseline_path, "no baseline"))
        else:
            all_regressions += compare(fresh_path, baseline_path,
                                       args.tolerance)
        if args.update:
            # Validate before writing: a truncated fresh run must never
            # clobber a good baseline.
            rows = load_benchmarks(fresh_path)
            if not rows:
                print(f"bench_compare: {fresh_path} has no comparable "
                      f"benchmarks; not updating {baseline_path}",
                      file=sys.stderr)
                sys.exit(2)
            with open(fresh_path, "r", encoding="utf-8") as src:
                content = src.read()
            with open(baseline_path, "w", encoding="utf-8") as dst:
                dst.write(content)
            print(f"  updated {baseline_path} ({len(rows)} benchmarks)")

    if args.update:
        if all_regressions:
            print(f"bench_compare: {len(all_regressions)} regression(s) or "
                  f"coverage change(s) baked into the refreshed baselines — "
                  f"intended only after a reviewed perf change",
                  file=sys.stderr)
        return 0
    if all_regressions:
        print(f"bench_compare: {len(all_regressions)} failure(s):",
              file=sys.stderr)
        for name, what in all_regressions:
            print(f"  {name}: {what}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
