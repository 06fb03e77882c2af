#!/usr/bin/env bash
# Tier-1 verify, as run by CI (.github/workflows/ci.yml) and locally.
# Usage: tools/ci.sh [build-dir]   (default: build-ci)
#
# VIFC_SANITIZE=address,undefined (or address / undefined / thread) builds
# the whole tree with -fsanitize and runs the same suite under it; the
# bench steps are skipped there (sanitized timings mean nothing).
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"
SANITIZE="${VIFC_SANITIZE:-}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DVIFC_WERROR=ON \
  -DVIFC_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# The benchmark's own build (perfbench/CMakeLists.txt: this tree with tests,
# benches and examples off, plus perfbench_layers), so a library-layout
# change that breaks it fails here rather than in the benchmark.
cmake -B "$BUILD_DIR/perfbench" -S perfbench -DVIFC_WERROR=ON
cmake --build "$BUILD_DIR/perfbench" -j"$(nproc)"
echo "perfbench build passed"

# Differential fuzz smoke straight through the CLI (ctest's
# vifc_fuzz_smoke covers seeds 1-200; this fixed range extends it and
# proves the reproducer interface works from a shell).
"$BUILD_DIR/vifc-fuzz" --mode all --start 1000 --count 100 --mutants 2 \
  --quiet
echo "fuzz smoke passed"

# Serve smoke: the long-lived mode must answer line-delimited vifc.v1
# requests with a cache hit on the repeated one (full protocol coverage
# lives in ctest's vifc_serve_smoke and tests/serve_test.cpp).
serve_out=$(printf '%s\n%s\n' \
  '{"schema":"vifc.v1","id":1,"command":"flows","path":"tests/inputs/smoke.vhd"}' \
  '{"schema":"vifc.v1","id":2,"command":"flows","path":"tests/inputs/smoke.vhd"}' \
  | "$BUILD_DIR/vifc" serve)
echo "$serve_out" | grep -q '"schema":"vifc.v1"' \
  && echo "$serve_out" | grep -q '"cacheHit":true' \
  || { echo "serve smoke failed:"; echo "$serve_out"; exit 1; }
echo "serve smoke passed"

# Store smoke: two invocations sharing a --store directory. The second
# must be a pure hit — its stderr summary reports one load served and
# nothing solved or written — and stdout must be byte-identical.
store_dir=$(mktemp -d)
store_out1=$("$BUILD_DIR/vifc" flows --store "$store_dir" \
  tests/inputs/smoke.vhd 2>"$store_dir/err1")
store_out2=$("$BUILD_DIR/vifc" flows --store "$store_dir" \
  tests/inputs/smoke.vhd 2>"$store_dir/err2")
[ "$store_out1" = "$store_out2" ] \
  && grep -q '1 hit(s), 0 miss(es), 0 write(s)' "$store_dir/err2" \
  || { echo "store smoke failed:"; cat "$store_dir/err1" "$store_dir/err2"
       exit 1; }
rm -rf "$store_dir"
echo "store smoke passed"

# Concurrent serve smoke: N TCP clients against a spawned server with a
# worker pool — request/response pairing, stats balance, clean shutdown
# (tools/serve_load_smoke.py).
if command -v python3 >/dev/null; then
  python3 tools/serve_load_smoke.py --vifc "$BUILD_DIR/vifc" \
    --clients 4 --requests 8 --workers 4
  echo "concurrent serve smoke passed"
else
  echo "python3 not found; skipping concurrent serve smoke"
fi

# Wire-format drift check: every emitted JSON field must be documented in
# docs/SCHEMA.md (tools/schema_check.py).
if command -v python3 >/dev/null; then
  python3 tools/schema_check.py
else
  echo "python3 not found; skipping schema check"
fi

# Bench smoke: the perf binaries must keep running end-to-end so they can't
# silently rot between perf PRs. Committed baselines live in
# bench/baselines/ (see bench/baselines/README.md for how to regenerate).
# Skipped under sanitizers: instrumented timings are meaningless.
if [ -n "$SANITIZE" ]; then
  echo "sanitized build ($SANITIZE); skipping bench smoke and compare"
elif [ -x "$BUILD_DIR/bench_fig5" ]; then
  "$BUILD_DIR/bench_fig5" --benchmark_min_time=0.01x >/dev/null
  echo "bench smoke passed (bench_fig5)"
else
  echo "bench_fig5 not built (Google Benchmark absent); skipping bench smoke"
fi

# Opt-in bench regression check: VIFC_BENCH_COMPARE=1 re-runs the key
# binaries and diffs them against bench/baselines/ via
# tools/bench_compare.py. Off by default — baselines are machine-
# dependent, so this only means something on the machine that produced
# them. Override bench_compare.py's default allowed slowdown with
# VIFC_BENCH_TOLERANCE (ratio).
if [ -z "$SANITIZE" ] && [ "${VIFC_BENCH_COMPARE:-0}" = "1" ] &&
   [ -x "$BUILD_DIR/bench_fig5" ]; then
  mkdir -p "$BUILD_DIR/bench-json"
  for b in bench_fig5 bench_scaling bench_alfp bench_ablation \
           bench_bitset bench_serve bench_query bench_incremental; do
    name=$(sed -e 's/bench_fig5/BENCH_closure/' -e 's/bench_/BENCH_/' <<<"$b")
    "$BUILD_DIR/$b" --benchmark_format=json --benchmark_min_time=0.1 \
      2>/dev/null > "$BUILD_DIR/bench-json/$name.json"
  done
  python3 tools/bench_compare.py "$BUILD_DIR"/bench-json/*.json \
    --baselines bench/baselines \
    ${VIFC_BENCH_TOLERANCE:+--tolerance "$VIFC_BENCH_TOLERANCE"}
  echo "bench compare passed"
fi
