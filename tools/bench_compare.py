#!/usr/bin/env python3
"""Run every bench binary of a build and compare it with its baseline.

Usage:
    tools/bench_compare.py BUILD_DIR [--baselines bench/baselines]
        [--tolerance 1.5] [--update]

Every executable `bench_X` in BUILD_DIR is run once, `bench_scaling`
first, as

    bench_X --benchmark_format=json --benchmark_min_time=0.1

and its JSON is compared with `BENCH_X.json` in --baselines. A benchmark
regresses when

    fresh_real_time > tolerance * baseline_real_time

Tracked user counters ride along under the same tolerance: a throughput
counter (items_per_second) regresses when it *drops* below
baseline / tolerance. Counters present on only one side are ignored.

Aggregate rows (`*_BigO`, `*_RMS`, mean/median/stddev) are skipped. The
check is strict about coverage: a binary without a baseline, a baseline
without a binary, or a benchmark row present on only one side fails it
just like a regression, so adding or retiring a bench re-pins the
baselines in the same change.

With --update, the same comparison is printed first (so the delta is on
record), then every baseline is rewritten verbatim from its fresh run, and
baselines without a binary are deleted. --update refuses, before writing
anything, a fresh run with no comparable benchmarks and fresh runs whose
`context` disagrees on `num_cpus` or on the calendar date: the baselines
come from one box in one sitting. It never fails on regressions.

Exit status: 0 all within tolerance (or --update done), 1 at least one
regression or coverage mismatch, 2 bad invocation, a binary that failed,
or a refused --update.

Baselines are machine-dependent (see bench/baselines/README.md): run the
comparison on the machine that produced the baselines, and keep the
tolerance generous: the default 1.5x absorbs normal scheduler noise
while still catching order-of-magnitude rots.
"""

import argparse
import json
import os
import subprocess
import sys

# One minimum time per benchmark, for comparing and for re-pinning alike.
MIN_TIME = "0.1"

# Runs first, before the other binaries have loaded the box: its
# BM_Scaling_Pipeline/2 and /4 rows are gated at 1.1x (ROADMAP item 5).
FIRST = "bench_scaling"

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Throughput counters compared alongside real_time: higher is better.
_TRACKED_COUNTERS = ("items_per_second",)


def fail(message):
    print(f"bench_compare: {message}", file=sys.stderr)
    sys.exit(2)


def parse_rows(doc):
    """Returns {name: (real_time_ns, {counter: value})} for the
    comparable rows of one run."""
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


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {path}: {err}")


def bench_binaries(build_dir):
    """The bench binaries built in build_dir, FIRST ahead of the rest."""
    try:
        names = os.listdir(build_dir)
    except OSError as err:
        fail(f"cannot list {build_dir}: {err}")
    found = [n for n in names
             if n.startswith("bench_") and "." not in n
             and os.path.isfile(os.path.join(build_dir, n))
             and os.access(os.path.join(build_dir, n), os.X_OK)]
    return sorted(found, key=lambda n: (n != FIRST, n))


def run_binary(path):
    """Runs one bench binary; returns (raw JSON text, parsed document)."""
    proc = subprocess.run(
        [path, "--benchmark_format=json", f"--benchmark_min_time={MIN_TIME}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        fail(f"{path} exited with status {proc.returncode}")
    try:
        return proc.stdout, json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        fail(f"{path} printed no JSON document: {err}")


def human(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:.2f}{unit}"
    return f"{ns:.0f}ns"


def compare(label, fresh, base, tolerance):
    """Prints the row-by-row table of one binary; returns its failures."""
    regressions = []
    print(f"== {label} (tolerance {tolerance:.2f}x)")
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
        for counter in _TRACKED_COUNTERS:
            if counter not in fresh_counters or counter not in base_counters:
                continue
            b, f = base_counters[counter], fresh_counters[counter]
            worse = b / f if b and f else float("inf")
            cstatus = "ok"
            if worse > tolerance:
                cstatus = "REGRESSED"
                regressions.append((f"{name}[{counter}]", f"x{worse:.2f}"))
            elif worse < 1.0 / tolerance:
                cstatus = "better"
            print(f"    {counter:42s} {b:>10,.0f}/s -> {f:>10,.0f}/s  "
                  f"x{worse:5.2f}  {cstatus}")
    return regressions


def check_one_sitting(runs):
    """Refuses fresh runs that are empty or not from one box and day."""
    for binary, (_, doc) in runs.items():
        if not parse_rows(doc):
            fail(f"{binary} has no comparable benchmarks; "
                 f"no baseline updated")
    stamps = {binary: (doc.get("context", {}).get("num_cpus"),
                       str(doc.get("context", {}).get("date", ""))[:10])
              for binary, (_, doc) in runs.items()}
    if len(set(stamps.values())) > 1:
        for binary, (cpus, date) in sorted(stamps.items()):
            print(f"  {binary}: num_cpus={cpus} date={date}",
                  file=sys.stderr)
        fail("fresh runs disagree on num_cpus or date; "
             "no baseline updated")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("build_dir", help="build directory holding bench_*")
    ap.add_argument("--baselines", default="bench/baselines",
                    help="directory of committed BENCH_*.json baselines")
    ap.add_argument("--tolerance", type=float, default=1.5,
                    help="allowed fresh/baseline real_time ratio (default 1.5)")
    ap.add_argument("--update", action="store_true",
                    help="after comparing, rewrite every baseline from its "
                         "fresh run (never fails on regressions)")
    args = ap.parse_args()

    binaries = bench_binaries(args.build_dir)
    if not binaries:
        fail(f"no bench_* binary in {args.build_dir}")
    runs = {b: run_binary(os.path.join(args.build_dir, b)) for b in binaries}

    def baseline_path(binary):
        return os.path.join(args.baselines,
                            "BENCH_" + binary[len("bench_"):] + ".json")

    failures = []
    for binary, (_, doc) in runs.items():
        path = baseline_path(binary)
        if not os.path.exists(path):
            print(f"== {binary}: no baseline {path}  MISSING")
            failures.append((binary, "no baseline"))
            continue
        failures += compare(f"{binary} vs {path}", parse_rows(doc),
                            parse_rows(load_json(path)), args.tolerance)
    expected = {os.path.basename(baseline_path(b)) for b in binaries}
    orphans = sorted(n for n in os.listdir(args.baselines)
                     if n.startswith("BENCH_") and n.endswith(".json")
                     and n not in expected)
    for name in orphans:
        print(f"== {name}: no binary in {args.build_dir}  MISSING")
        failures.append((name, "no binary"))

    if args.update:
        check_one_sitting(runs)
        for binary, (text, doc) in runs.items():
            with open(baseline_path(binary), "w", encoding="utf-8") as dst:
                dst.write(text)
            print(f"  updated {baseline_path(binary)} "
                  f"({len(parse_rows(doc))} benchmarks)")
        for name in orphans:
            os.remove(os.path.join(args.baselines, name))
            print(f"  removed {os.path.join(args.baselines, name)}")
        if failures:
            print(f"bench_compare: {len(failures)} regression(s) or "
                  f"coverage change(s) baked into the refreshed baselines: "
                  f"intended only after a reviewed perf change",
                  file=sys.stderr)
        return 0
    if failures:
        print(f"bench_compare: {len(failures)} failure(s):", file=sys.stderr)
        for name, what in failures:
            print(f"  {name}: {what}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
