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

# The figures ROADMAP's quality aim tracks: C++ lines under src/, source
# lines under tools/, and the option bits folded into the session-cache
# key (foreachOptionBit in src/driver/SessionCache.cpp).
src_lines=$(find src -type f \( -name '*.cpp' -o -name '*.h' \) -print0 \
  | xargs -0 cat | wc -l)
tools_lines=$(find tools -type f \( -name '*.cpp' -o -name '*.h' \
  -o -name '*.py' -o -name '*.sh' \) -print0 | xargs -0 cat | wc -l)
option_bits=$(sed -n '/^void foreachOptionBit/,/^}/p' \
  src/driver/SessionCache.cpp | grep -c 'Fn(O\.')
echo "tracked: src_lines=$src_lines tools_lines=$tools_lines" \
  "option_bits=$option_bits"

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

# The chunked JSON writer end to end: the benchmark's chain/1024 input
# (524 800 edges, a 42 MB document, hundreds of 64 KB chunks) must parse
# and list the same edge sequence as the text output.
if command -v python3 >/dev/null; then
  chain_dir=$(mktemp -d)
  "$BUILD_DIR/perfbench/perfbench_layers" gen "$chain_dir" >/dev/null
  "$BUILD_DIR/vifc" flows --json --statements "$chain_dir/chain1024.vhd" \
    > "$chain_dir/chain.json"
  "$BUILD_DIR/vifc" flows --statements "$chain_dir/chain1024.vhd" \
    > "$chain_dir/chain.txt"
  python3 - "$chain_dir" <<'PY'
import json
import sys

d = sys.argv[1]
with open(d + "/chain.json") as f:
    doc = json.load(f)
edges = [(e["from"], e["to"])
         for e in doc["designs"][0]["graph"]["edgeList"]]
with open(d + "/chain.txt") as f:
    text = [tuple(line.split(" -> ")) for line in f.read().splitlines()[1:]]
assert len(edges) == 524800, "chain1024: %d edges" % len(edges)
assert edges == text, "chain1024: JSON and text edge sequences differ"
PY
  rm -rf "$chain_dir"
  echo "chain1024 JSON check passed"
else
  echo "python3 not found; skipping chain1024 JSON check"
fi

# Both Table 4/5 paths agree on the benchmark's inputs: a cold CLI run
# (no artifact table: nothing keyed, every process solved) must print the
# v1b frame that `vifc serve --store` (per-process artifact table) sends
# for the same file, on a first request, a repeat and a one-stage edit of
# pipeline/256. Requests carry no id, so frames have no IDNT section.
if command -v python3 >/dev/null; then
  paths_dir=$(mktemp -d)
  "$BUILD_DIR/perfbench/perfbench_layers" gen "$paths_dir" >/dev/null
  python3 - "$BUILD_DIR/vifc" "$paths_dir" <<'PY'
import json
import struct
import subprocess
import sys

vifc, d = sys.argv[1], sys.argv[2]
pipe, aes, edit = d + "/pipeline256.vhd", d + "/aes1.vhd", d + "/edit.vhd"
with open(pipe) as f:
    base = f.read()
old = "\n    s_100 <= s_99;\n"
assert base.count(old) == 1, "pipeline256: stage 100 not found"
with open(edit, "w") as f:
    f.write(base.replace(old, "\n    s_100 <= s_99 and s_3 and s_7;\n"))
paths = [pipe, pipe, edit, aes, aes]
lines = b"".join(json.dumps({"schema": "vifc.v1", "command": "flows",
                             "path": p, "format": "v1b"}).encode() + b"\n"
                 for p in paths)
out = subprocess.run([vifc, "serve", "--store", d + "/store"], input=lines,
                     stdout=subprocess.PIPE, check=True).stdout
off = 0
for i, p in enumerate(paths):
    assert out[off:off + 4] == b"VIFB", "request %d: no v1b frame" % i
    n = struct.unpack_from("<Q", out, off + 8)[0]
    frame, off = out[off:off + n], off + n + 1
    cold = subprocess.run([vifc, "flows", "--format", "v1b", p],
                          stdout=subprocess.PIPE, check=True).stdout
    assert frame == cold, "request %d (%s): serve and cold frames differ" % (
        i, p)
PY
  rm -rf "$paths_dir"
  echo "cold and table paths agree"
else
  echo "python3 not found; skipping the cold/table path check"
fi

# Differential fuzz smoke straight through the CLI (ctest's
# vifc_fuzz_smoke covers seeds 1-200; this fixed range extends it and
# proves the reproducer interface works from a shell).
"$BUILD_DIR/vifc-fuzz" --mode all --start 1000 --count 100 --mutants 2 \
  --quiet
echo "fuzz smoke passed"

# Serve smoke: the long-lived mode must answer line-delimited vifc.v1
# requests with a cache hit on the repeated one (full protocol coverage
# lives in ctest's vifc_serve_smoke and tests/serve_test.cpp). A reader
# that closed stdout before its response makes `vifc serve` exit 1 with a
# write error, not die of SIGPIPE.
serve_out=$(printf '%s\n%s\n' \
  '{"schema":"vifc.v1","id":1,"command":"flows","path":"tests/inputs/smoke.vhd"}' \
  '{"schema":"vifc.v1","id":2,"command":"flows","path":"tests/inputs/smoke.vhd"}' \
  | "$BUILD_DIR/vifc" serve)
echo "$serve_out" | grep -q '"schema":"vifc.v1"' \
  && echo "$serve_out" | grep -q '"cacheHit":true' \
  || { echo "serve smoke failed:"; echo "$serve_out"; exit 1; }
if command -v python3 >/dev/null; then
  python3 - "$BUILD_DIR/vifc" <<'PY'
import os
import subprocess
import sys

r, w = os.pipe()
os.close(r)
p = subprocess.run([sys.argv[1], "serve"], input=b'{"command":"ping"}\n',
                   stdout=w, stderr=subprocess.PIPE)
assert p.returncode == 1 and b"error: write: " in p.stderr, \
    "serve with a closed reader: rc %d, %r" % (p.returncode, p.stderr)
PY
fi
echo "serve smoke passed"

# Store smoke: two invocations sharing a --store directory. The second
# must be a pure hit — its stderr summary reports one load served and
# nothing solved or written — and stdout must be byte-identical. Then
# `query --store` twice: the restart serves both the design and the query
# index from disk.
store_dir=$(mktemp -d)
store_out1=$("$BUILD_DIR/vifc" flows --store "$store_dir" \
  tests/inputs/smoke.vhd 2>"$store_dir/err1")
store_out2=$("$BUILD_DIR/vifc" flows --store "$store_dir" \
  tests/inputs/smoke.vhd 2>"$store_dir/err2")
[ "$store_out1" = "$store_out2" ] \
  && grep -q '1 hit(s), 0 miss(es), 0 write(s)' "$store_dir/err2" \
  || { echo "store smoke failed:"; cat "$store_dir/err1" "$store_dir/err2"
       exit 1; }
for run in 1 2; do
  "$BUILD_DIR/vifc" query --store "$store_dir/q" --from sel --to q \
    tests/inputs/smoke.vhd >/dev/null 2>"$store_dir/qerr$run"
done
grep -q '2 hit(s), 0 miss(es), 0 write(s)' "$store_dir/qerr2" \
  || { echo "store smoke failed (query):"; cat "$store_dir/qerr1" \
         "$store_dir/qerr2"; exit 1; }
rm -rf "$store_dir"
echo "store smoke passed"

# Large-matrix store step: pipeline/256 (66 560 RMgl entries, nearly all of
# them Table 8 rows) through `vifc rm --store`. The restart must be a pure
# hit with byte-identical stdout, so the RMGL section decodes back into the
# same matrix; the --json entry count must match the text's RMgl lines.
# The design blob holds the rows as words, so it stays within 160 KB (it
# was 877 KB as 9-byte entries). Then the AES core (890 814 RMgl entries)
# through `vifc flows --store`: its restart must be a pure hit too. Each
# priming run persists the design blob and nothing per process: it
# reports one write and leaves one dsgn file and no actv/rdpr file.
expect_one_design_blob() { # <store dir> <priming stderr> <what>
  grep -q ', 1 write(s),' "$2" \
    && [ "$(ls "$1" | grep -c '^dsgn-.*\.bin$')" = 1 ] \
    && ! ls "$1" | grep -q '^\(actv\|rdpr\)-' \
    || { echo "large-matrix store step failed ($3): priming did not write" \
           "exactly one design blob:"; cat "$2"; ls "$1"; exit 1; }
}
store_dir=$(mktemp -d)
"$BUILD_DIR/perfbench/perfbench_layers" gen "$store_dir" >/dev/null
"$BUILD_DIR/vifc" rm --store "$store_dir/s" "$store_dir/pipeline256.vhd" \
  >"$store_dir/out1" 2>"$store_dir/err1"
"$BUILD_DIR/vifc" rm --store "$store_dir/s" "$store_dir/pipeline256.vhd" \
  >"$store_dir/out2" 2>"$store_dir/err2"
cmp -s "$store_dir/out1" "$store_dir/out2" \
  && grep -q '1 hit(s), 0 miss(es), 0 write(s)' "$store_dir/err2" \
  || { echo "large-matrix store step failed:"
       cat "$store_dir/err1" "$store_dir/err2"; exit 1; }
expect_one_design_blob "$store_dir/s" "$store_dir/err1" pipeline256
dsgn_bytes=$(cat "$store_dir"/s/dsgn-*.bin | wc -c)
[ "$dsgn_bytes" -le $((160 * 1024)) ] \
  || { echo "large-matrix store step failed: pipeline256 dsgn blob is" \
         "$dsgn_bytes bytes"; exit 1; }
for run in 1 2; do
  "$BUILD_DIR/vifc" flows --store "$store_dir/a" "$store_dir/aes1.vhd" \
    >"$store_dir/aesout$run" 2>"$store_dir/aeserr$run"
done
cmp -s "$store_dir/aesout1" "$store_dir/aesout2" \
  && grep -q '1 hit(s), 0 miss(es), 0 write(s)' "$store_dir/aeserr2" \
  || { echo "large-matrix store step failed (AES core):"
       cat "$store_dir/aeserr1" "$store_dir/aeserr2"; exit 1; }
expect_one_design_blob "$store_dir/a" "$store_dir/aeserr1" "AES core"
# chain/1024 through `vifc flows --statements --format v1b --store`: the
# restart decodes a 524 800-edge GRPH section, and its frame must equal
# the priming run's and a run's without --store, byte for byte.
for run in 1 2; do
  "$BUILD_DIR/vifc" flows --statements --format v1b --store "$store_dir/c" \
    "$store_dir/chain1024.vhd" >"$store_dir/chainout$run" \
    2>"$store_dir/chainerr$run"
done
"$BUILD_DIR/vifc" flows --statements --format v1b \
  "$store_dir/chain1024.vhd" >"$store_dir/chainout0"
cmp -s "$store_dir/chainout0" "$store_dir/chainout1" \
  && cmp -s "$store_dir/chainout1" "$store_dir/chainout2" \
  && grep -q '1 hit(s), 0 miss(es), 0 write(s)' "$store_dir/chainerr2" \
  || { echo "large-matrix store step failed (chain/1024):"
       cat "$store_dir/chainerr1" "$store_dir/chainerr2"; exit 1; }
rmgl_lines=$(sed -n '/^== RMgl/,$p' "$store_dir/out1" | grep -vc '^== ')
# One FILE and two FILEs print the same RMgl lines per design.
rmgl_block() { awk '/^== RMgl/ { on = 1; next } /^(== |--$)/ { on = 0 } on' "$1"; }
"$BUILD_DIR/vifc" rm "$store_dir/pipeline256.vhd" "$store_dir/pipeline256.vhd" \
  >"$store_dir/out3"
cmp -s <(rmgl_block "$store_dir/out1"; rmgl_block "$store_dir/out1") \
  <(rmgl_block "$store_dir/out3") \
  || { echo "large-matrix store step failed: one-FILE and two-FILE rm" \
         "print different RMgl lines"; exit 1; }
if command -v python3 >/dev/null; then
  "$BUILD_DIR/vifc" rm --json "$store_dir/pipeline256.vhd" \
    | python3 -c 'import json, sys
n = json.load(sys.stdin)["designs"][0]["matrices"]["rmgl"]
assert n == int(sys.argv[1]) == 66560, "rmgl: %d json, %s text" % (n, sys.argv[1])' \
      "$rmgl_lines"
fi
rm -rf "$store_dir"
echo "large-matrix store step passed"

# Memory guards: a cold `vifc flows --json --jobs 1` on the
# benchmark's AES core (834 KB, one process) must peak at no more than
# 17.5 MB and 4 600 minor faults (15.9 MB and ~4 190 measured, plus under
# 10%). Elaboration adopts the parse tree's arena, and Tables 4-6 and the
# Table 8 copy graph are flat rows; a second copy of the ~5 MB tree, or a
# heap object per label or per copy edge again, would push the run over
# both bounds. A direct child's peak RSS starts at the interpreter's image
# at exec, so the RSS is read through perfbench_layers spawn; its fault
# count is its own, so a direct child's wait4 reads that. Skipped under
# sanitizers, whose shadow memory changes both figures.
if [ -z "$SANITIZE" ] && command -v python3 >/dev/null; then
  mem_dir=$(mktemp -d)
  "$BUILD_DIR/perfbench/perfbench_layers" gen "$mem_dir" >/dev/null
  # wait4 reads this one child's usage; RUSAGE_CHILDREN would also count
  # whatever the interpreter reaped before the script ran.
  python3 - "$BUILD_DIR/vifc" "$mem_dir/aes1.vhd" \
    "$BUILD_DIR/perfbench/perfbench_layers" <<'PY'
import os
import subprocess
import sys

vifc, aes, spawner = sys.argv[1:4]
args = [vifc, "flows", "--json", "--jobs", "1", aes]
out = subprocess.run([spawner, "spawn", os.devnull, os.devnull] + args,
                     stdout=subprocess.PIPE, check=True).stdout.split()
assert out[0] == b"0", "AES core: vifc failed"
mb = int(out[2]) / 1024.0
p = subprocess.Popen(args, stdout=subprocess.DEVNULL)
_, status, ru = os.wait4(p.pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, "AES core: vifc failed"
print("AES core: peak RSS %.1f MB, %d minor faults" % (mb, ru.ru_minflt))
assert mb <= 17.5, "AES core: peak RSS %.1f MB is over 17.5 MB" % mb
assert ru.ru_minflt <= 4600, \
    "AES core: %d minor faults is over 4 600" % ru.ru_minflt
PY
  # The same guard on the benchmark's chain/1024 statement program (524 800
  # edges): at most 12 MB and 2 300 minor faults (11.1 MB and ~2 030
  # measured). The flow graph is extracted already in storage order and
  # its name order is built row by row; a sorting pass over an edge-sized
  # buffer again would push the run over both bounds. RSS and faults are
  # read as for the AES core.
  python3 - "$BUILD_DIR/vifc" "$mem_dir/chain1024.vhd" \
    "$BUILD_DIR/perfbench/perfbench_layers" <<'PY'
import os
import subprocess
import sys

vifc, chain, spawner = sys.argv[1:4]
args = [vifc, "flows", "--json", "--jobs", "1", "--statements", chain]
out = subprocess.run([spawner, "spawn", os.devnull, os.devnull] + args,
                     stdout=subprocess.PIPE, check=True).stdout.split()
assert out[0] == b"0", "chain/1024: vifc failed"
mb = int(out[2]) / 1024.0
p = subprocess.Popen(args, stdout=subprocess.DEVNULL)
_, status, ru = os.wait4(p.pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, "chain/1024: vifc failed"
print("chain/1024: peak RSS %.1f MB, %d minor faults" % (mb, ru.ru_minflt))
assert mb <= 12, "chain/1024: peak RSS %.1f MB is over 12 MB" % mb
assert ru.ru_minflt <= 2300, \
    "chain/1024: %d minor faults is over 2 300" % ru.ru_minflt
PY
  # The same guard on a warm server: 25 distinct one-stage edits of the
  # benchmark's pipeline/256, fed to `vifc serve --store` over stdio, must
  # peak at no more than 19 MB (17.5 MB measured; 27.2 MB while every
  # cached session kept its program, CFG, matrices and RD tier). Each edit
  # stays cached, so a session that kept its work tier after the flow
  # graph was built again would push the run over the bound.
  python3 - "$BUILD_DIR/vifc" "$mem_dir" \
    "$BUILD_DIR/perfbench/perfbench_layers" <<'PY'
import json
import os
import subprocess
import sys

vifc, d, spawner = sys.argv[1:4]
with open(d + "/pipeline256.vhd") as f:
    base = f.read()
with open(d + "/edits.txt", "w") as f:
    for stage in range(3, 253, 10):
        old = "\n    s_%d <= s_%d;\n" % (stage, stage - 1)
        assert base.count(old) == 1, "pipeline256: stage %d not found" % stage
        src = base.replace(old, "\n    s_%d <= s_%d and s_%d;\n" % (
            stage, stage - 1, stage - 2))
        f.write(json.dumps({"command": "flows", "source": src,
                            "format": "v1b"}) + "\n")
with open(d + "/edits.txt") as f:
    out = subprocess.run([spawner, "spawn", os.devnull, os.devnull, vifc,
                          "serve", "--store", d + "/store"],
                         stdin=f, stdout=subprocess.PIPE,
                         check=True).stdout.split()
assert out[0] == b"0", "serve edits: vifc failed"
mb = int(out[2]) / 1024.0
print("serve edits: peak RSS %.1f MB" % mb)
assert mb <= 19, "serve edits: peak RSS %.1f MB is over 19 MB" % mb
PY
  rm -rf "$mem_dir"
  echo "memory guards passed"
fi

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

# Bench smoke: every bench binary must keep running end to end, so none
# can silently rot between perf PRs. Committed baselines live in
# bench/baselines/ (see bench/baselines/README.md for how to regenerate).
# Skipped under sanitizers: instrumented timings are meaningless. A bare
# number of seconds is the --benchmark_min_time form every Google
# Benchmark release accepts; 1.7 rejects a suffixed one.
benches=("$BUILD_DIR"/bench_*)
if [ -n "$SANITIZE" ]; then
  echo "sanitized build ($SANITIZE); skipping bench smoke and compare"
elif [ -x "${benches[0]}" ]; then
  for b in "${benches[@]}"; do
    "$b" --benchmark_min_time=0.01 >/dev/null
  done
  echo "bench smoke passed (${#benches[@]} binaries)"
else
  echo "no bench binary built (Google Benchmark absent); skipping bench smoke"
fi

# Opt-in bench regression check: VIFC_BENCH_COMPARE=1 runs every bench
# binary and diffs it against bench/baselines/ via tools/bench_compare.py.
# Off by default: baselines are machine-dependent, so this only means
# something on the machine that produced them. Override bench_compare.py's
# default allowed slowdown with VIFC_BENCH_TOLERANCE (ratio).
if [ -z "$SANITIZE" ] && [ "${VIFC_BENCH_COMPARE:-0}" = "1" ] &&
   [ -x "${benches[0]}" ]; then
  python3 tools/bench_compare.py "$BUILD_DIR" \
    ${VIFC_BENCH_TOLERANCE:+--tolerance "$VIFC_BENCH_TOLERANCE"}
  echo "bench compare passed"
fi
