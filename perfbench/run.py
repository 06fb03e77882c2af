#!/usr/bin/env python3
"""The vifc benchmark: cold CLI runs, a warm `vifc serve`, and the edit loop.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload cold-aes1 --seed 1 --seconds 15 --trace 0

The first run builds `vifc` and the per-layer harness (perfbench/layers.cpp)
from source into .bench_build/. Scratch files go to .bench_out/ and are
removed at the end of the run, except the result record, the span file of a
traced run and the build log. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with `--trace 0`, the per-layer ones with `--trace 1`). The lines
before it are the human report.

Other modes:
    --regenerate   recompute perfbench/expected.json through the reference
                   solvers (never the dense path under test)
    --self-check   check that each request stream is a pure function of
                   the seed

perfbench/README.md describes the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import random
import re
import select
import selectors
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
EXPECTED_PATH = os.path.join(BENCH, "expected.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ["cold-aes1", "cold-pipeline256", "cold-chain1024",
             "serve-warm", "serve-edit"]
# Cold workloads: the input each one runs and whether it is a statement
# program (`--statements`).
COLD_INPUT = {
    "cold-aes1": ("aes1", False),
    "cold-pipeline256": ("pipeline256", False),
    "cold-chain1024": ("chain1024", True),
}
GEN_DESIGNS = ["gen%02d" % i for i in range(1, 17)]
SETUP_REPEATS = 31       # set-ups per run; setup_s is their median
WARM_SETUP_REPEATS = 5   # serve-warm's set-up analyzes 18 designs (~1.5 s)
SERVE_WORKERS = 2
WARM_CONNECTIONS = 2
LARGE_SHARE = 0.05       # serve-warm: share of subbytes16 requests
QUERY_SHARE = 0.10       # serve-warm: share of point queries
RESTART_EVERY = 25       # serve-edit: edits between server restarts
FRESH_STARTS = 10        # serve-warm: extra fresh servers timed to a first
                         # response, besides the set-ups
EDIT_STAGES = 256
TIMEOUT_S = 30           # per request, per spawn, per shutdown

# The layer spans that make up one cold `vifc flows --json` run.
CLI_PATH_MS = ["parse.ms", "sema.elaborate_ms", "cfg.build_ms", "ifa.rmlo_ms",
               "rd.t4_ms", "rd.t5_killgen_ms", "rd.t5_fixpoint_ms",
               "ifa.compose_ms"]


class BenchError(Exception):
    """A failure of the benchmark itself: no result is printed."""


def report(line):
    print(line, flush=True)


# --------------------------------------------------------------------------
# Build, build record and guard
# --------------------------------------------------------------------------

def build():
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "build.log"), "ab") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "vifc",
                      "perfbench_layers", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log, cwd=ROOT,
                              timeout=850).returncode != 0:
                raise BenchError("build failed (%s); see .bench_out/build.log"
                                 % " ".join(cmd[:2]))
    return os.path.join(BUILD, "vifc"), os.path.join(BUILD, "perfbench_layers")


def cmake_cache():
    entries = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z0-9_]+):[A-Z_]+=(.*)$", line.rstrip("\n"))
            if m:
                entries[m.group(1)] = m.group(2)
    return entries


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "cmake", "src", "tools"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode() + b"\0")
            with open(name, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def build_record():
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        r = subprocess.run([compiler, "--version"], capture_output=True,
                           text=True)
        version = (r.stdout.splitlines() or [""])[0]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "commit": source_commit(),
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "vifc_sanitize": cache.get("VIFC_SANITIZE", "")}


def guard(record):
    if record["build_type"] != "Release" or record["vifc_sanitize"]:
        raise BenchError(
            "refusing to measure a %r build with VIFC_SANITIZE=%r; "
            "reconfigure .bench_build/perfbench as Release without "
            "sanitizers" % (record["build_type"], record["vifc_sanitize"]))


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

CHILDREN = set()
SPAWNER = None   # perfbench_layers, once built


def spawn(args, stdout_path, stderr_path, report_path):
    """Starts `args` through `perfbench_layers spawn`, which writes the exit
    code, wall time and peak RSS of the program to report_path. A child's
    peak RSS starts at its parent's RSS at exec, so the program is never
    this (larger) process's direct child."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, report_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
    pid = os.posix_spawn(SPAWNER, [SPAWNER, "spawn", stdout_path,
                                   stderr_path] + args, os.environ,
                         file_actions=actions)
    CHILDREN.add(pid)
    return pid


def reap(pid, report_path, timeout):
    """Waits for a spawn (killing it, and so the program, after timeout);
    returns the program's (exit code, wall ms, peak RSS MB), or None when
    it was killed."""
    fd = os.pidfd_open(pid)
    try:
        if not select.select([fd], [], [], timeout)[0]:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(fd)
    os.wait4(pid, 0)
    CHILDREN.discard(pid)
    with open(report_path) as f:
        fields = f.read().split()
    if len(fields) != 3:
        return None
    # ru_maxrss is in KiB on Linux.
    return int(fields[0]), float(fields[1]), int(fields[2]) / 1024.0


def kill_children():
    for pid in list(CHILDREN):
        try:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        CHILDREN.discard(pid)


# --------------------------------------------------------------------------
# Expected answers and response checks
# --------------------------------------------------------------------------

def digest_lines(lines):
    return hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()


def edge_digest(pairs):
    """Order-independent digest of an edge set: sha256 of sorted lines."""
    return digest_lines("%s\t%s\n" % p for p in pairs)


def load_expected():
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def graph_matches(expected, name, nodes, pairs):
    exp = expected["inputs"][name]
    return (nodes == exp["nodes"] and len(pairs) == exp["edges"]
            and edge_digest(pairs) == exp["digest"])


def parse_v1b(frame):
    """Decodes the sections of one v1b frame (docs/SCHEMA.md)."""
    if frame[:4] != b"VIFB" or struct.unpack_from("<I", frame, 4)[0] != 1:
        return None
    length, count = struct.unpack_from("<QI", frame, 8)
    if length != len(frame):
        return None
    off, out = 20, {}
    for _ in range(count):
        tag = frame[off:off + 4].decode()
        size = struct.unpack_from("<Q", frame, off + 4)[0]
        out[tag] = frame[off + 12:off + 12 + size]
        off += 12 + size
    return out


def v1b_graph(frame):
    """(status ok, node names, edge name pairs) of a v1b flows frame."""
    sec = parse_v1b(frame)
    if sec is None or "META" not in sec or "NODE" not in sec:
        return False, [], []
    ok = sec["META"][2] == 1
    node, names, off = sec["NODE"], [], 4
    for _ in range(struct.unpack_from("<I", node, 0)[0]):
        n = struct.unpack_from("<I", node, off)[0]
        names.append(node[off + 4:off + 4 + n].decode())
        off += 4 + n
    edge = sec["EDGE"]
    count = struct.unpack_from("<Q", edge, 0)[0]
    ids = struct.unpack_from("<%dI" % (2 * count), edge, 8)
    pairs = [(names[ids[i]], names[ids[i + 1]]) for i in range(0, len(ids), 2)]
    return ok, names, pairs


def check_v1b_flows(expected, name, frame):
    try:
        ok, names, pairs = v1b_graph(frame)
    except (struct.error, KeyError, IndexError, UnicodeDecodeError):
        return False
    return ok and graph_matches(expected, name, len(names), pairs)


def check_json_design(expected, name, design):
    try:
        g = design["graph"]
        pairs = [(e["from"], e["to"]) for e in g["edgeList"]]
    except (KeyError, TypeError):
        return False
    return (design.get("status") == "ok" and g.get("edges") == len(pairs)
            and graph_matches(expected, name, g.get("nodes"), pairs))


def check_query(expected, doc, edges):
    """A serve `query` response against the BFS expectation; witness steps
    must be edges of the verified graph."""
    exp, q = expected["query"], doc.get("query") or {}
    if doc.get("status") != "ok" or q.get("reaches") != exp["reaches"]:
        return False
    steps = [s["node"] for s in q.get("witness", [])]
    if exp["reaches"] and (
            len(steps) != exp["witness_edges"] + 1 or steps[0] != exp["from"]
            or steps[-1] != exp["to"]
            or any((a, b) not in edges for a, b in zip(steps, steps[1:]))):
        return False
    fwd, back = q.get("reachableFrom", []), q.get("whatReaches", [])
    return (len(fwd) == exp["reachable_from"]["count"]
            and digest_lines(n + "\n" for n in fwd)
            == exp["reachable_from"]["digest"]
            and len(back) == exp["what_reaches"]["count"]
            and digest_lines(n + "\n" for n in back)
            == exp["what_reaches"]["digest"])


def invariant_part(response):
    """The bytes of a JSON serve response that repeat across identical
    requests: everything from the program shape up to the timings."""
    i = response.find(b'"processes"')
    j = response.find(b',"timings"', i)
    return response[i:j] if i >= 0 and j >= 0 else None


# --------------------------------------------------------------------------
# Inputs and request streams (pure functions of the seed)
# --------------------------------------------------------------------------

def gen_inputs(layers, work):
    d = os.path.join(work, "inputs")
    os.makedirs(d, exist_ok=True)
    r = subprocess.run([layers, "gen", d], capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError("input generation failed: " + r.stderr.strip())
    return d


def read_input(inputs, name):
    with open(os.path.join(inputs, name + ".vhd")) as f:
        return f.read()


def edit_stage(base, stage, reads):
    """Stage `stage`'s assignment also reading the earlier signals `reads`;
    a pipeline's graph already has every s_i -> s_j (i < j), so the edit
    leaves the expected graph unchanged."""
    old = "\n    s_%d <= s_%d;\n" % (stage, stage - 1)
    new = "\n    s_%d <= s_%d%s;\n" % (
        stage, stage - 1, "".join(" and s_%d" % r for r in reads))
    if base.count(old) != 1:
        raise BenchError("stage %d not found in the pipeline" % stage)
    return base.replace(old, new)


def edit_stream(base, seed, stages):
    """Distinct one-stage edits of a pipeline, forever, as request lines."""
    rng = random.Random("serve-edit/%d" % seed)
    seen = set()
    while True:
        stage = rng.randint(3, stages)
        reads = tuple(sorted(rng.sample(range(stage - 1), 2)))
        if (stage, reads) in seen:
            continue
        seen.add((stage, reads))
        yield request("flows", source=edit_stage(base, stage, reads),
                      fmt="v1b")


def request(command, source=None, content_key=None, fmt=None,
            options=None, path=None):
    r = {"command": command}
    if path is not None:
        r["path"] = path
    if source is not None:
        r["source"] = source
    if content_key is not None:
        r["contentKey"] = content_key
    if options:
        r["options"] = options
    if fmt:
        r["format"] = fmt
    return json.dumps(r, separators=(",", ":")).encode()


class WarmMix:
    """The serve-warm request mix: per connection, a seeded stream of
    indices into a fixed table of request lines."""

    def __init__(self, inputs, seed):
        self.seed = seed
        self.lines, self.kinds, self.names = [], [], []
        for name in GEN_DESIGNS + ["pipeline64"]:
            src = read_input(inputs, name)
            for fmt in ("json", "v1b"):
                self.add(fmt, name, request(
                    "flows", source=src, fmt="v1b" if fmt == "v1b" else None))
        self.flows = list(range(len(self.lines)))
        self.query = self.add("query", "pipeline64", request(
            "query", source=read_input(inputs, "pipeline64"),
            options={"from": "s_0", "to": "s_64"}))
        self.large_inline = self.add("large_inline", "subbytes16", request(
            "flows", source=read_input(inputs, "subbytes16"),
            options={"statements": True}))
        self.large_key = None  # set once the server echoed the key

    def add(self, kind, name, line):
        self.lines.append(line)
        self.kinds.append(kind)
        self.names.append(name)
        return len(self.lines) - 1

    def share(self, idx):
        """The probability that stream() yields request line idx."""
        if idx in (self.large_inline, self.large_key):
            return LARGE_SHARE / 2
        if idx == self.query:
            return QUERY_SHARE
        return (1 - LARGE_SHARE - QUERY_SHARE) / len(self.flows)

    def set_content_key(self, key):
        self.large_key = self.add("large_key", "subbytes16", request(
            "flows", content_key=key, options={"statements": True}))

    def stream(self, conn):
        rng = random.Random("serve-warm/%d/%d" % (self.seed, conn))
        while True:
            x = rng.random()
            if x < LARGE_SHARE:
                yield self.large_inline if rng.random() < 0.5 \
                    else self.large_key
            elif x < LARGE_SHARE + QUERY_SHARE:
                yield self.query
            else:
                yield rng.choice(self.flows)


def stream_fingerprint(lines, n=64):
    h = hashlib.sha256()
    for _, line in zip(range(n), lines):
        h.update(line + b"\n")
    return h.hexdigest()


def self_check_streams(inputs, seed):
    """One seed gives a byte-identical request stream twice; two seeds
    differ. Returns a list of failures."""
    failures = []
    base = read_input(inputs, "pipeline256")
    edits = [stream_fingerprint(edit_stream(base, s, EDIT_STAGES))
             for s in (seed, seed, seed + 1)]
    mixes = []
    for s in (seed, seed, seed + 1):
        mix = WarmMix(inputs, s)
        mix.set_content_key("0" * 16)
        mixes.append(stream_fingerprint(
            mix.lines[i] for i in mix.stream(0)))
    for what, (a, b, c) in (("serve-edit", edits), ("serve-warm", mixes)):
        if a != b:
            failures.append(what + " stream differs for one seed")
        if a == c:
            failures.append(what + " stream is the same for two seeds")
    return failures


# --------------------------------------------------------------------------
# The serve child and its connections
# --------------------------------------------------------------------------

class Conn:
    """One client connection speaking the serve line protocol: JSON lines,
    or v1b frames followed by a newline."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.scanned = 0

    def send(self, line):
        self.sock.sendall(line + b"\n")

    def take(self):
        """A complete response from the buffer, or None."""
        b = self.buf
        if len(b) < 4 and b"VIFB".startswith(bytes(b)):
            return None
        if b[:4] == b"VIFB":
            if len(b) < 16:
                return None
            n = struct.unpack_from("<Q", b, 8)[0]
            if len(b) < n + 1:
                return None
            out = bytes(b[:n])
            del b[:n + 1]
            return out
        i = b.find(b"\n", self.scanned)
        if i < 0:
            self.scanned = len(b)
            return None
        out = bytes(b[:i])
        del b[:i + 1]
        self.scanned = 0
        return out

    def feed(self):
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise BenchError("server closed the connection")
        self.buf += chunk

    def call(self, line):
        self.send(line)
        while True:
            out = self.take()
            if out is not None:
                return out
            self.feed()

    def close(self):
        self.sock.close()


class ServeChild:
    """`vifc serve --listen 0` as a child process. The bound port is read
    from its stderr; stop() sends `shutdown`, reaps it with wait4 and kills
    it on timeout."""

    def __init__(self, vifc, work, tag, extra=()):
        self.err = os.path.join(work, "serve-%s.err" % tag)
        self.spawn_report = os.path.join(work, "serve-%s.spawn" % tag)
        for stale in (self.err, self.spawn_report):
            if os.path.exists(stale):
                os.unlink(stale)
        self.start = time.perf_counter()
        self.pid = spawn([vifc, "serve", "--listen", "0", "--workers",
                          str(SERVE_WORKERS)] + list(extra),
                         os.devnull, self.err, self.spawn_report)
        self.port = self.read_port()

    def read_port(self):
        deadline = time.monotonic() + TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                with open(self.err, "rb") as f:
                    m = re.search(rb"listening on 127\.0\.0\.1:(\d+)",
                                  f.read())
            except FileNotFoundError:
                m = None
            if m:
                return int(m.group(1))
            if os.wait4(self.pid, os.WNOHANG)[0] == self.pid:
                CHILDREN.discard(self.pid)
                raise BenchError("vifc serve exited before listening")
            time.sleep(0.0002)
        raise BenchError("vifc serve did not announce its port")

    def stop(self, conn):
        """Shuts the server down; returns its peak RSS in MB."""
        try:
            ok = b'"status":"ok"' in conn.call(request("shutdown"))
        except (OSError, BenchError):
            ok = False
        conn.close()
        done = reap(self.pid, self.spawn_report, TIMEOUT_S)
        if not ok or done is None or done[0] != 0:
            raise BenchError("vifc serve did not shut down cleanly (%s)"
                             % (done,))
        return done[2]


def stats(conn):
    return json.loads(conn.call(request("stats")))


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, -(-p * len(v) // 100) - 1)]


def tail_label(n):
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            return p
    return None


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self, args, tools, work):
        self.args = args
        self.vifc, self.layers = tools
        self.work = work
        self.expected = load_expected()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_s = []
        self.detail = {}          # per-input and per-kind report figures
        self.layer = {}           # per-layer metrics (traced run)

    def fail(self, why):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(why)


class ColdCli:
    """Spawn `vifc flows --json --jobs 1 FILE`; time spawn to exit and
    read peak RSS from wait4."""

    def __init__(self, run):
        self.run = run
        self.name, self.statements = COLD_INPUT[run.args.workload]
        self.verified = None      # bytes before "timings" of a checked doc

    def setup(self):
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            self.inputs = gen_inputs(self.run.layers, self.run.work)
            self.run.setup_s.append(time.perf_counter() - t)
        self.path = os.path.join(self.inputs, self.name + ".vhd")
        self.out = os.path.join(self.run.work, "flows.json")
        self.spawn_report = os.path.join(self.run.work, "spawn.txt")

    def once(self):
        r = self.run
        args = [r.vifc, "flows", "--json", "--jobs", "1"]
        if self.statements:
            args.append("--statements")
        args.append(os.path.relpath(self.path, ROOT))
        done = reap(spawn(args, self.out, os.devnull, self.spawn_report),
                    self.spawn_report, 170)
        r.attempted += 1
        if done is None or done[0] != 0 or not self.check():
            r.fail("%s: wrong or failed `vifc flows` output" % self.name)
            return None
        return done[1], done[2]

    def check(self):
        with open(self.out, "rb") as f:
            data = f.read()
        cut = data.rfind(b'"timings"')
        if cut < 0 or b'"failed": 0' not in data[cut:]:
            return False
        if data[:cut] == self.verified:
            return True
        try:
            design = json.loads(data)["designs"][0]
        except (ValueError, KeyError, IndexError, TypeError):
            return False
        if not check_json_design(self.run.expected, self.name, design):
            return False
        self.verified = data[:cut]
        return True

    def measure(self):
        r = self.run
        ms, rss = [], []
        end = time.perf_counter() + r.args.seconds
        while not ms or time.perf_counter() + statistics.median(ms) / 1000 \
                <= end:
            res = self.once()
            if res is None:
                if r.failed > 3:
                    break
                continue
            ms.append(res[0])
            rss.append(res[1])
        if not ms:
            raise BenchError("no successful run of `vifc flows`")
        self.ms = ms
        # Gated latencies are lower quartiles: on a host whose speed drifts
        # they track the program's own cost more steadily than medians.
        p25 = percentile(ms, 25)
        d = r.detail
        d["%s_cold_ms" % self.name] = (statistics.median(ms), "ms")
        d["%s_rss_mb" % self.name] = (statistics.median(rss), "MB")
        d["ops_per_s"] = (len(ms) / (sum(ms) / 1000), "1/s")
        d["samples"] = (len(ms), "count")
        return {"p25_ms": p25, "first_response_ms": p25,
                "peak_rss_mb": statistics.median(rss)}

    def trace(self, spans, layers_store):
        req = os.path.join(self.run.work, "requests.txt")
        with open(req, "wb") as f:
            f.write(request("flows", path=os.path.relpath(self.path, ROOT),
                            options={"statements": True}
                            if self.statements else None) + b"\n")
        extra = ["--statements"] if self.statements else []
        if self.name.startswith("pipeline"):
            extra += ["--edited", write_first_edit(self.run, self.inputs,
                                                   self.name)]
        m = run_layers(self.run, self.path, req, spans, layers_store, extra)
        layer_ms = sum(m[k] for k in CLI_PATH_MS) + m["driver.json_us"] / 1000
        m["trace.coverage"] = layer_ms / statistics.median(self.ms)
        share = (m["rd.t5_killgen_ms"] + m["rd.t5_fixpoint_ms"]) / layer_ms
        report("# trace: Table 5 (kill/gen + fixpoint) is %.1f%% of the "
               "layer time" % (100 * share))
        share = (m["ifa.compose_ms"] + m["driver.json_us"] / 1000) / layer_ms
        report("# trace: ifa.compose + driver.json is %.1f%% of the layer "
               "time" % (100 * share))
        return m


def write_first_edit(run, inputs, name):
    """The first edit of this seed's stream, as a source file."""
    base = read_input(inputs, name)
    line = next(edit_stream(base, run.args.seed, int(name[8:])))
    path = os.path.join(run.work, "edited.vhd")
    with open(path, "w") as f:
        f.write(json.loads(line)["source"])
    return path


def run_layers(run, source, requests, spans, store, extra):
    args = [run.layers, "trace", "--source", source, "--requests", requests,
            "--spans", spans, "--store", store] + extra
    r = subprocess.run(args, capture_output=True, text=True, cwd=ROOT,
                       timeout=170)
    if r.returncode != 0:
        raise BenchError("layer harness failed: " + r.stderr.strip()[-500:])
    return json.loads(r.stdout.strip().splitlines()[-1])


class ServeWarm:
    """One `vifc serve --workers 2`; two closed-loop connections send a
    seeded mix of warm requests, every session cached before timing."""

    def __init__(self, run):
        self.run = run
        self.memo = {}        # request index -> verified response bytes
        self.edges64 = None   # the verified pipeline64 edge set

    def setup(self):
        r = self.run
        for i in range(WARM_SETUP_REPEATS):
            if i:
                for c in self.conns[1:]:
                    c.close()
                self.server.stop(self.conns[0])
            t = time.perf_counter()
            self.inputs = gen_inputs(r.layers, r.work)
            self.mix = WarmMix(self.inputs, r.args.seed)
            self.server = ServeChild(r.vifc, r.work, "warm-%d" % i)
            self.conns = [Conn(self.server.port)
                          for _ in range(WARM_CONNECTIONS)]
            first = None
            warm = []
            for idx in range(len(self.mix.lines)):
                warm.append((idx, self.conns[0].call(self.mix.lines[idx])))
                if first is None:
                    first = time.perf_counter() - self.server.start
            key = re.search(rb'"contentKey":"([0-9a-f]{16})"', warm[-1][1])
            if not key:
                raise BenchError("serve-warm: no contentKey echoed")
            self.mix.set_content_key(key.group(1).decode())
            idx = self.mix.large_key
            warm.append((idx, self.conns[0].call(self.mix.lines[idx])))
            r.setup_s.append(time.perf_counter() - t)
            r.detail.setdefault("_first", []).append(first * 1000)
        self.memo.clear()
        for idx, resp in warm:
            r.attempted += 1
            if not self.verify(idx, resp, warm=True):
                r.fail("warm-up response to request %d is wrong" % idx)
        self.warm_cache = stats(self.conns[0])["cache"]

    def verify(self, idx, resp, warm=False):
        """Checks one response: a byte compare against an earlier verified
        response to the same request, else a full check."""
        mix, kind = self.mix, self.mix.kinds[idx]
        if kind == "v1b":
            if self.memo.get(idx) == resp:
                return True
            ok = check_v1b_flows(self.run.expected, mix.names[idx], resp)
            if ok:
                self.memo[idx] = resp
            return ok
        if b'"status":"ok"' not in resp or (
                not warm and b'"cacheHit":true' not in resp):
            return False
        part = invariant_part(resp)
        if part is not None and self.memo.get(idx) == part:
            return True
        try:
            doc = json.loads(resp)
        except ValueError:
            return False
        if kind == "query":
            ok = self.edges64 is not None and check_query(
                self.run.expected, doc, self.edges64)
        else:
            ok = check_json_design(self.run.expected, mix.names[idx], doc)
            if ok and mix.names[idx] == "pipeline64":
                self.edges64 = {(e["from"], e["to"])
                                for e in doc["graph"]["edgeList"]}
        if ok:
            self.memo[idx] = part
        return ok

    def measure(self):
        r = self.run
        sel = selectors.DefaultSelector()
        streams, pending = [], {}
        lat = [[] for _ in self.mix.lines]   # per request line, in us
        for n, c in enumerate(self.conns):
            streams.append(self.mix.stream(n))
            sel.register(c.sock, selectors.EVENT_READ, n)
        start = time.perf_counter()
        end = start + r.args.seconds

        def issue(n):
            idx = next(streams[n])
            pending[n] = (idx, time.perf_counter())
            self.conns[n].send(self.mix.lines[idx])

        for n in range(len(self.conns)):
            issue(n)
        while pending:
            events = sel.select(TIMEOUT_S)
            if not events:
                raise BenchError("serve-warm: no response within %d s"
                                 % TIMEOUT_S)
            for key, _ in events:
                n, c = key.data, self.conns[key.data]
                c.feed()
                resp = c.take()
                if resp is None:
                    continue
                done = time.perf_counter()
                idx, sent = pending.pop(n)
                r.attempted += 1
                if self.verify(idx, resp):
                    lat[idx].append((done - sent) * 1e6)
                else:
                    r.fail("serve-warm: wrong response to request %d" % idx)
                if done < end:
                    issue(n)
        elapsed = time.perf_counter() - start
        sel.close()
        st = stats(self.conns[0])
        self.server_stats = st
        if st["cache"]["misses"] != self.warm_cache["misses"]:
            r.fail("serve-warm: a session was computed after warm-up")
        for c in self.conns[1:]:
            c.close()
        rss = self.server.stop(self.conns[0])
        self.fresh_starts()
        every = [v for vs in lat for v in vs]
        if not every:
            raise BenchError("serve-warm: no successful request")
        by_kind = {}
        for idx, v in enumerate(lat):
            by_kind.setdefault(self.mix.kinds[idx], []).extend(v)
        d = r.detail
        for kind in ("json", "v1b"):
            v = by_kind[kind]
            d["warm_%s_us_p50" % kind] = (statistics.median(v), "us")
            p = tail_label(len(v))
            if p:
                d["warm_%s_us_p%d" % (kind, p)] = (percentile(v, p), "us")
        for kind in ("query", "large_inline", "large_key"):
            if by_kind.get(kind):
                d["warm_%s_us_p50" % kind] = (statistics.median(by_kind[kind]),
                                              "us")
        d["warm_rps"] = (len(every) / elapsed, "1/s")
        d["server_rss_mb"] = (rss, "MB")
        d["samples"] = (len(every), "count")
        self.p50_us = statistics.median(every)
        # Each request line's lower quartile, weighted by the line's share
        # of the mix: every kind of request feeds the gated figure, where
        # one quartile over the whole pool would land on the small designs.
        timed = [idx for idx, v in enumerate(lat) if v]
        p25_us = sum(self.mix.share(i) * percentile(lat[i], 25)
                     for i in timed) / sum(self.mix.share(i) for i in timed)
        return {"p25_ms": p25_us / 1000,
                "first_response_ms": percentile(d.pop("_first"), 25),
                "peak_rss_mb": rss}

    def fresh_starts(self):
        """Spawn to first answer of fresh servers, on a small design."""
        r = self.run
        for i in range(FRESH_STARTS):
            server = ServeChild(r.vifc, r.work, "fresh-%d" % i)
            conn = Conn(server.port)
            resp = conn.call(self.mix.lines[0])
            first = (time.perf_counter() - server.start) * 1000
            server.stop(conn)
            r.attempted += 1
            if b'"status":"ok"' in resp and check_json_design(
                    r.expected, self.mix.names[0], json.loads(resp)):
                r.detail["_first"].append(first)
            else:
                r.fail("serve-warm: wrong first answer of a fresh server")

    def trace(self, spans, layers_store):
        r, mix = self.run, self.mix
        req = os.path.join(r.work, "requests.txt")
        stream = mix.stream(0)
        with open(req, "wb") as f:
            f.write(mix.lines[mix.large_inline] + b"\n")
            for _ in range(2000):
                f.write(mix.lines[next(stream)] + b"\n")
        src = os.path.join(self.inputs, "pipeline64.vhd")
        m = run_layers(r, src, req, spans, layers_store,
                       ["--edited", write_first_edit(r, self.inputs,
                                                     "pipeline64")])
        # Cache figures of the timed phase only: warm-up misses by design.
        end, warm = self.server_stats["cache"], self.warm_cache
        hits = end["hits"] - warm["hits"]
        misses = end["misses"] - warm["misses"]
        m["driver.cache_hit_ratio"] = hits / max(1, hits + misses)
        m["driver.cache_evictions"] = end["evictions"] - warm["evictions"]
        m["driver.store_bytes_written"] = 0  # no --store on this workload
        m["trace.coverage"] = m["driver.handle_us_p50"] / self.p50_us
        report("# trace: cache misses after warm-up: %d (no rd/ifa work)"
               % misses)
        return m


class ServeEdit:
    """`vifc serve --workers 2 --store DIR`, one connection: each request is
    a distinct one-stage edit of pipeline/256 as a v1b `flows` request.
    Every RESTART_EVERY edits the server is shut down and respawned over
    the same store; the respawn's first request, the last edit again, is
    timed as a restart."""

    def __init__(self, run):
        self.run = run
        self.verified = None
        self.totals = {"hits": 0, "misses": 0, "evictions": 0, "bytes": 0}

    def setup(self):
        """Spawns the server over an empty store. The first edit then pays
        the cold analysis and fills the store: store writes are file-system
        bound and vary too much between runs to sit in setup_s."""
        r = self.run
        for i in range(SETUP_REPEATS):
            if i:
                self.stop_server()
                shutil.rmtree(self.store, ignore_errors=True)
            t = time.perf_counter()
            self.inputs = gen_inputs(r.layers, r.work)
            self.base = read_input(self.inputs, "pipeline256")
            self.store = os.path.join(r.work, "store")
            os.makedirs(self.store)
            self.start_server("edit-%d" % i)
            r.setup_s.append(time.perf_counter() - t)
        self.base_line = request("flows", source=self.base, fmt="v1b")
        self.stream = edit_stream(self.base, r.args.seed, EDIT_STAGES)

    def start_server(self, tag):
        self.server = ServeChild(self.run.vifc, self.run.work, tag,
                                 ["--store", self.store])
        self.conn = Conn(self.server.port)

    def stop_server(self):
        st = stats(self.conn)
        for k, v in (("hits", st["cache"]["hits"]),
                     ("misses", st["cache"]["misses"]),
                     ("evictions", st["cache"]["evictions"]),
                     ("bytes", st["store"]["bytesWritten"])):
            self.totals[k] += v
        return self.server.stop(self.conn)

    def check(self, resp):
        if resp == self.verified:
            return True
        ok = check_v1b_flows(self.run.expected, "pipeline256", resp)
        if ok:
            self.verified = resp
        return ok

    def measure(self):
        r = self.run
        edits, restarts, rss = [], [], []
        start = time.perf_counter()
        end = start + r.args.seconds
        since_restart = 0
        line = None
        while time.perf_counter() < end:
            # A restart re-asks for the last edit, as an editor reconnecting
            # would: the answer comes from the store's whole-design blob.
            restart = since_restart == RESTART_EVERY
            if restart:
                rss.append(self.stop_server())
                self.start_server("edit-restart-%d" % len(restarts))
                since_restart = 0
            else:
                line = next(self.stream)
            t = time.perf_counter()
            resp = self.conn.call(line)
            done = time.perf_counter()
            since_restart += 1
            r.attempted += 1
            if not self.check(resp):
                r.fail("serve-edit: wrong answer to an edit")
                continue
            if restart:
                restarts.append((done - self.server.start) * 1000)
            elif not edits and not restarts:
                self.first_ms = (done - self.server.start) * 1000
                edits.append((done - t) * 1000)
            else:
                edits.append((done - t) * 1000)
        elapsed = time.perf_counter() - start
        rss.append(self.stop_server())
        if not edits:
            raise BenchError("serve-edit: no successful edit")
        d = r.detail
        d["edit_ms_p50"] = (statistics.median(edits), "ms")
        p = tail_label(len(edits))
        if p:
            d["edit_ms_p%d" % p] = (percentile(edits, p), "ms")
        if restarts:
            d["restart_ms"] = (statistics.median(restarts), "ms")
        d["server_rss_mb"] = (max(rss), "MB")
        d["samples"] = (len(edits), "count")
        d["restarts"] = (len(restarts), "count")
        d["ops_per_s"] = ((len(edits) + len(restarts)) / elapsed, "1/s")
        self.p50_ms = statistics.median(edits)
        # Without a restart in the run, the first response is the first
        # edit's, over the empty store.
        first = percentile(restarts, 25) if restarts else self.first_ms
        return {"p25_ms": percentile(edits, 25), "first_response_ms": first,
                "peak_rss_mb": max(rss)}

    def trace(self, spans, layers_store):
        r = self.run
        warm = os.path.join(r.work, "warmup.txt")
        with open(warm, "wb") as f:
            f.write(self.base_line + b"\n")
        req = os.path.join(r.work, "requests.txt")
        stream = edit_stream(self.base, r.args.seed + 1, EDIT_STAGES)
        with open(req, "wb") as f:
            for _ in range(100):
                f.write(next(stream) + b"\n")
        src = os.path.join(self.inputs, "pipeline256.vhd")
        m = run_layers(r, src, req, spans, layers_store,
                       ["--edited", write_first_edit(r, self.inputs,
                                                     "pipeline256"),
                        "--edit-loop", warm])
        t = self.totals
        m["driver.cache_hit_ratio"] = t["hits"] / max(1, t["hits"]
                                                      + t["misses"])
        m["driver.cache_evictions"] = t["evictions"]
        m["driver.store_bytes_written"] = t["bytes"]
        m["trace.coverage"] = m["driver.handle_us_p50"] / 1000 / self.p50_ms
        return m


WORKLOAD_CLASS = {"cold-aes1": ColdCli, "cold-pipeline256": ColdCli,
                  "cold-chain1024": ColdCli, "serve-warm": ServeWarm,
                  "serve-edit": ServeEdit}


# --------------------------------------------------------------------------
# Modes
# --------------------------------------------------------------------------

def metric_units(kind):
    """Name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` list."""
    with open(BENCHMARK_PATH) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def run_workload(args, tools, record):
    work = os.path.join(OUT, "%s-%d-%d" % (args.workload, args.seed,
                                           os.getpid()))
    os.makedirs(work)
    try:
        run = Run(args, tools, work)
        w = WORKLOAD_CLASS[args.workload](run)
        # Flush what earlier runs left to write back (serve-edit writes
        # ~0.5 GB of store blobs a run), so it does not land in this one.
        os.sync()
        w.setup()
        for why in self_check_streams(w.inputs, args.seed):
            run.fail("self-check: " + why)
        e2e = w.measure()
        e2e["setup_s"] = statistics.median(run.setup_s)
        if args.trace:
            stamp = "%s-%d" % (args.workload, args.seed)
            spans = os.path.join(OUT, "trace-%s.json" % stamp)
            store = os.path.join(work, "layer-store")
            os.makedirs(store)
            run.layer = w.trace(spans, store)
            report("# spans: %s" % os.path.relpath(spans, ROOT))
    finally:
        kill_children()
        shutil.rmtree(work, ignore_errors=True)

    report("# workload %s seed %d seconds %s trace %d"
           % (args.workload, args.seed, args.seconds, args.trace))
    report("# build: %s" % json.dumps(record, sort_keys=True))
    for name, (value, unit) in sorted(run.detail.items()):
        report("%-24s %14.6g %s" % (name, value, unit))
    e2e_units = metric_units("end_to_end")
    for name in sorted(e2e_units):
        report("%-24s %14.6g %s" % (name, e2e[name], e2e_units[name]))
    report("%-24s %14.6g (%d failed of %d attempted)"
           % ("error_rate", run.failed / max(1, run.attempted), run.failed,
              run.attempted))
    for why in run.problems:
        report("# failed: " + why)
    if args.trace:
        units = metric_units("per_layer")
        metrics = {k: run.layer[k] for k in units}
        for name in sorted(metrics):
            report("%-28s %16.8g %s" % (name, metrics[name], units[name]))
    else:
        units = e2e_units
        metrics = {k: e2e[k] for k in units}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in sorted(metrics.items())}}
    stamp = "%s-%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, "result-%s.json" % stamp), "w") as f:
        json.dump({"build": record, "detail": run.detail, **result}, f,
                  indent=1)
    print(json.dumps(result), flush=True)


def regenerate(tools):
    """Recomputes expected.json through the reference solvers."""
    work = os.path.join(OUT, "regenerate-%d" % os.getpid())
    os.makedirs(work)
    try:
        inputs = gen_inputs(tools[1], work)
        proc = subprocess.Popen([tools[1], "expect", inputs],
                                stdout=subprocess.PIPE, text=True)
        graphs, query, fwd, back = {}, {}, [], []
        current = None
        for line in proc.stdout:
            f = line.rstrip("\n").split("\t")
            if f[0] == "I":
                current = graphs[f[1]] = {"nodes": int(f[2]), "lines": []}
            elif f[0] == "E":
                current["lines"].append("%s\t%s\n" % (f[1], f[2]))
            elif f[0] == "Q":
                query = {"input": "pipeline64", "from": f[1], "to": f[2],
                         "reaches": f[3] == "1", "witness_edges": int(f[4])}
            elif f[0] == "F":
                fwd.append(f[1] + "\n")
            elif f[0] == "B":
                back.append(f[1] + "\n")
        if proc.wait() != 0:
            raise BenchError("perfbench_layers expect failed")
    finally:
        kill_children()
        shutil.rmtree(work, ignore_errors=True)
    query["reachable_from"] = {"count": len(fwd), "digest": digest_lines(fwd)}
    query["what_reaches"] = {"count": len(back), "digest": digest_lines(back)}
    doc = {"about": "Expected flow graphs, computed by `run.py --regenerate` "
                    "through the reference solvers. digest: sha256 of the "
                    "sorted 'from<TAB>to<LF>' edge lines.",
           "inputs": {name: {"nodes": g["nodes"], "edges": len(g["lines"]),
                             "digest": digest_lines(g["lines"])}
                      for name, g in sorted(graphs.items())},
           "query": query}
    with open(EXPECTED_PATH, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for name, g in sorted(doc["inputs"].items()):
        report("%-12s %6d nodes %8d edges %s" % (name, g["nodes"], g["edges"],
                                                 g["digest"][:16]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--regenerate", action="store_true")
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if not (args.workload or args.regenerate or args.self_check):
        p.error("give --workload, --regenerate or --self-check")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    global SPAWNER
    try:
        tools = build()
        SPAWNER = tools[1]
        record = build_record()
        guard(record)
        if args.regenerate:
            regenerate(tools)
        elif args.self_check:
            work = os.path.join(OUT, "self-check-%d" % os.getpid())
            os.makedirs(work)
            try:
                failures = self_check_streams(gen_inputs(tools[1], work),
                                              args.seed)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            for why in failures:
                report("self-check failed: " + why)
            report("self-check %s" % ("failed" if failures else "passed"))
            return 1 if failures else 0
        else:
            run_workload(args, tools, record)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        kill_children()
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
