//===- perfbench/layers.cpp - Benchmark inputs and the traced layer run ---===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled half of the benchmark (perfbench/run.py drives it):
///
///   perfbench_layers gen DIR
///       Writes every benchmark input into DIR as NAME.vhd.
///   perfbench_layers expect DIR
///       Analyzes each input of DIR through the retained reference solvers
///       (ReachingDefsOptions::ReferenceSolver + IFAOptions::
///       ReferenceClosure, never the dense path under test) and prints the
///       flow graphs as tab-separated lines; run.py digests them into
///       expected.json. The query expectation is a plain BFS.
///   perfbench_layers spawn OUT ERR PROGRAM ARGS...
///       Runs PROGRAM with stdout to OUT and stderr to ERR, waits for it
///       with wait4 and prints "<exit code> <wall ms> <peak RSS KiB>". A
///       child's peak RSS starts at its parent's RSS at exec time, so the
///       benchmark spawns through this small process rather than directly.
///   perfbench_layers trace --source FILE --requests FILE --spans OUT
///       --store DIR [--statements] [--edited FILE] [--edit-loop WARMUP]
///       Calls each layer's public functions on FILE in pipeline order,
///       timing every call as one span, then replays the request lines
///       through an in-process Server::handleLine for about a second.
///       With --edit-loop the lines are an edit stream: the server is
///       backed by an artifact store, warmed up with WARMUP's lines, and
///       replays each line once. Prints the per-layer metrics as one JSON
///       object and writes the spans as Chrome trace-event JSON (loadable
///       in Perfetto).
///
//===----------------------------------------------------------------------===//

#include "driver/ArtifactStore.h"
#include "driver/Batch.h"
#include "driver/Serve.h"
#include "driver/SessionCache.h"
#include "driver/V1b.h"
#include "gen/Generator.h"
#include "ifa/LocalDeps.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cerrno>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace vif;

namespace {

using Clock = std::chrono::steady_clock;

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

struct InputSpec {
  std::string Name;
  bool Statements;
  std::function<std::string()> Make;
};

/// Every input any workload uses. The sixteen generated designs are fixed
/// (generator seeds 1..16); a workload's seed only orders requests over
/// them, so every expected answer can be committed.
std::vector<InputSpec> allInputs() {
  std::vector<InputSpec> In = {
      {"aes1", false, [] { return workloads::aesCoreDesign(1); }},
      {"pipeline256", false, [] { return workloads::pipelineDesign(256); }},
      {"chain1024", true, [] { return workloads::chainStatements(1024); }},
      {"pipeline64", false, [] { return workloads::pipelineDesign(64); }},
      {"subbytes16", true, [] { return workloads::subBytesStatements(16); }},
  };
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    char Name[16];
    std::snprintf(Name, sizeof(Name), "gen%02u", static_cast<unsigned>(Seed));
    In.push_back({Name, false, [Seed] { return gen::generateDesign(Seed); }});
  }
  return In;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

std::vector<std::string> readLines(const std::string &Path) {
  std::vector<std::string> Lines;
  std::ifstream In(Path);
  std::string L;
  while (std::getline(In, L))
    if (!L.empty())
      Lines.push_back(L);
  return Lines;
}

int cmdGen(const std::string &Dir) {
  for (const InputSpec &S : allInputs()) {
    std::string Path = Dir + "/" + S.Name + ".vhd";
    std::ofstream Out(Path, std::ios::binary);
    Out << S.Make();
    if (!Out) {
      std::cerr << "perfbench_layers: cannot write " << Path << '\n';
      return 1;
    }
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Spawning the program under test
//===----------------------------------------------------------------------===//

int cmdSpawn(int Argc, char **Argv) {
  if (Argc < 5) {
    std::cerr << "usage: perfbench_layers spawn OUT ERR PROGRAM ARGS...\n";
    return 2;
  }
  auto Start = Clock::now();
  pid_t Pid = fork();
  if (Pid < 0)
    return 1;
  if (Pid == 0) {
    // Die with this process, so killing it never orphans the program.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    int Out = open(Argv[2], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int Err = open(Argv[3], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Out < 0 || Err < 0 || dup2(Out, 1) < 0 || dup2(Err, 2) < 0)
      _exit(127);
    close(Out);
    close(Err);
    execv(Argv[4], Argv + 4);
    _exit(127);
  }
  int Status = 0;
  struct rusage RU {};
  while (wait4(Pid, &Status, 0, &RU) < 0)
    if (errno != EINTR)
      return 1;
  double Ms =
      std::chrono::duration<double, std::milli>(Clock::now() - Start).count();
  int Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
  std::printf("%d %.6f %ld\n", Code, Ms, RU.ru_maxrss);
  return 0;
}

//===----------------------------------------------------------------------===//
// Expected answers through the reference solvers
//===----------------------------------------------------------------------===//

/// Nodes reachable from \p From along >= 1 edge (plain BFS over the
/// adjacency), and the length in edges of a shortest path to \p To
/// (0 when unreachable).
void bfs(const Digraph &G, Digraph::NodeId From, Digraph::NodeId To,
         std::vector<bool> &Seen, size_t &Dist) {
  std::vector<std::vector<Digraph::NodeId>> Succ(G.numNodes());
  G.forEachEdgeId([&](Digraph::NodeId A, Digraph::NodeId B) {
    Succ[A].push_back(B);
  });
  Seen.assign(G.numNodes(), false);
  std::vector<size_t> Depth(G.numNodes(), 0);
  std::deque<Digraph::NodeId> Work;
  for (Digraph::NodeId S : Succ[From])
    if (!Seen[S]) {
      Seen[S] = true;
      Depth[S] = 1;
      Work.push_back(S);
    }
  while (!Work.empty()) {
    Digraph::NodeId N = Work.front();
    Work.pop_front();
    for (Digraph::NodeId S : Succ[N])
      if (!Seen[S]) {
        Seen[S] = true;
        Depth[S] = Depth[N] + 1;
        Work.push_back(S);
      }
  }
  Dist = Seen[To] ? Depth[To] : 0;
}

int cmdExpect(const std::string &Dir) {
  for (const InputSpec &S : allInputs()) {
    std::string Src;
    if (!readFile(Dir + "/" + S.Name + ".vhd", Src)) {
      std::cerr << "perfbench_layers: missing input " << S.Name << '\n';
      return 1;
    }
    driver::SessionOptions Opts;
    Opts.Statements = S.Statements;
    Opts.Ifa.RD.ReferenceSolver = true;
    Opts.Ifa.ReferenceClosure = true;
    driver::AnalysisSession Session =
        driver::AnalysisSession::fromSource(S.Name, Src, Opts);
    const IFAResult *R = Session.ifa();
    if (!R) {
      std::cerr << "perfbench_layers: " << S.Name << " failed:\n"
                << Session.diagnostics().str();
      return 1;
    }
    const Digraph &G = R->Graph;
    std::cout << "I\t" << S.Name << '\t' << G.numNodes() << '\n';
    G.forEachSortedEdge([](std::string_view From, std::string_view To) {
      std::cout << "E\t" << From << '\t' << To << '\n';
    });
    if (S.Name == "pipeline64") {
      // The serve-warm point query, answered by BFS both ways.
      Digraph::NodeId From = G.id("s_0"), To = G.id("s_64");
      std::vector<bool> Fwd;
      size_t Dist = 0;
      bfs(G, From, To, Fwd, Dist);
      std::cout << "Q\ts_0\ts_64\t" << (Fwd[To] ? 1 : 0) << '\t' << Dist
                << '\n';
      for (Digraph::NodeId N = 0; N < G.numNodes(); ++N) {
        if (Fwd[N])
          std::cout << "F\t" << G.name(N) << '\n';
        std::vector<bool> Back;
        size_t Unused = 0;
        bfs(G, N, To, Back, Unused);
        if (Back[To])
          std::cout << "B\t" << G.name(N) << '\n';
      }
    }
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory spans: name (the metric stem), start, end, parent and op id.
/// Written once, at the end, as Chrome trace-event JSON.
class Trace {
public:
  struct Span {
    std::string Name;
    double StartUs = 0, EndUs = 0;
    int Parent = -1;
    int Op = 0;
  };

  int open(std::string Name, int Op) {
    Span S;
    S.Name = std::move(Name);
    S.StartUs = nowUs();
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Op = Op;
    Spans.push_back(std::move(S));
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
    return Stack.back();
  }
  /// Ends span \p Id (the innermost open one) and returns its duration in
  /// microseconds.
  double close(int Id) {
    Span &S = Spans[Id];
    S.EndUs = nowUs();
    Stack.pop_back();
    return S.EndUs - S.StartUs;
  }

  bool write(const std::string &Path) const {
    std::vector<double> ChildUs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildUs[S.Parent] += S.EndUs - S.StartUs;
    std::ofstream Out(Path);
    Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      double Dur = S.EndUs - S.StartUs;
      Out << (I ? ",\n" : "\n") << "{\"name\":\"" << jsonEscape(S.Name)
          << "\",\"cat\":\"" << layerOf(S.Name) << "\",\"ph\":\"X\",\"pid\":1"
          << ",\"tid\":" << S.Op + 1 << ",\"ts\":" << S.StartUs
          << ",\"dur\":" << Dur << ",\"args\":{\"id\":" << I
          << ",\"parent\":" << S.Parent << ",\"op\":" << S.Op
          << ",\"self_us\":" << Dur - ChildUs[I] << "}}";
    }
    Out << "\n]}\n";
    return static_cast<bool>(Out);
  }

private:
  static std::string layerOf(const std::string &Name) {
    return Name.substr(0, Name.find('.'));
  }
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - T0)
        .count();
  }

  Clock::time_point T0 = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// One span around a scope; close() ends it early and returns milliseconds.
class SpanScope {
public:
  SpanScope(Trace &T, std::string Name, int Op)
      : T(T), Id(T.open(std::move(Name), Op)) {}
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  ~SpanScope() {
    if (Open)
      T.close(Id);
  }
  double closeMs() {
    Open = false;
    return T.close(Id) / 1000.0;
  }

private:
  Trace &T;
  int Id;
  bool Open = true;
};

/// Repeats \p Fn for at least 20 ms and three calls, all inside one span;
/// returns the mean cost of one call in microseconds.
template <typename F>
double meanUs(Trace &T, const char *Name, int Op, F &&Fn) {
  constexpr double MinMs = 20;
  constexpr size_t MinReps = 3;
  SpanScope S(T, Name, Op);
  auto Start = Clock::now();
  size_t Reps = 0;
  double Ms = 0;
  do {
    Fn();
    ++Reps;
    Ms = std::chrono::duration<double, std::milli>(Clock::now() - Start)
             .count();
  } while (Ms < MinMs || Reps < MinReps);
  S.closeMs();
  return Ms * 1000.0 / static_cast<double>(Reps);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(P * static_cast<double>(V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

//===----------------------------------------------------------------------===//
// The traced run
//===----------------------------------------------------------------------===//

struct TraceArgs {
  std::string Source, Edited, Requests, Spans, Store;
  /// Set for an edit stream (--edit-loop): the warm-up lines. Each request
  /// line is then a distinct design, replayed once against a server backed
  /// by an artifact store, as `vifc serve --store`.
  std::string EditLoopWarmup;
  bool Statements = false;
};

/// How long the request lines are cycled through the in-process server.
constexpr double ReplaySeconds = 1;

using Metrics = std::map<std::string, double>;

struct FrontEnd {
  std::optional<DesignFile> Design;
  std::optional<StatementProgram> Stmts;
  std::optional<ElaboratedProgram> Program;
  std::optional<ProgramCFG> CFG;
};

/// Parses, elaborates and builds the CFG of \p Src. With \p T, each step
/// is one span and its time goes into \p M.
bool runFrontEnd(const std::string &Src, bool Statements, FrontEnd &F,
                 DiagnosticEngine &Diags, Trace *T = nullptr,
                 Metrics *M = nullptr) {
  auto step = [&](const char *Span, const char *Metric, auto &&Fn) {
    if (!T) {
      Fn();
      return;
    }
    SpanScope S(*T, Span, 0);
    Fn();
    (*M)[Metric] = S.closeMs();
  };
  step("parse", "parse.ms", [&] {
    if (Statements)
      F.Stmts.emplace(parseStatementProgram(Src, Diags));
    else
      F.Design.emplace(parseDesign(Src, Diags));
  });
  if (Diags.hasErrors())
    return false;
  step("sema.elaborate", "sema.elaborate_ms", [&] {
    std::optional<ElaboratedProgram> P =
        Statements
            ? elaborateStatements(*F.Stmts->Body, Diags, &F.Stmts->Decls)
            : elaborateDesign(*F.Design, Diags);
    if (P)
      F.Program.emplace(std::move(*P));
  });
  if (!F.Program || Diags.hasErrors())
    return false;
  step("cfg.build", "cfg.build_ms",
       [&] { F.CFG.emplace(ProgramCFG::build(*F.Program)); });
  return true;
}

/// The CLI's cold `flows` path, one public call per span, then every other
/// layer the workloads exercise on the same input.
bool traceLayers(const TraceArgs &A, const std::string &Src, Trace &T,
                 Metrics &M) {
  const int Op = 0;
  SpanScope Whole(T, "input", Op);
  DiagnosticEngine Diags;
  FrontEnd F;
  M["parse.bytes"] = static_cast<double>(Src.size());
  if (!runFrontEnd(Src, A.Statements, F, Diags, &T, &M)) {
    std::cerr << "perfbench_layers: front end failed:\n" << Diags.str();
    return false;
  }
  const ElaboratedProgram &P = *F.Program;
  const ProgramCFG &C = *F.CFG;
  M["cfg.labels"] = static_cast<double>(C.numLabels());
  M["cfg.processes"] = static_cast<double>(C.processes().size());

  IFAOptions Opts; // the CLI default: no Table 9, one solver thread
  ResourceMatrix RMlo;
  {
    SpanScope S(T, "ifa.rmlo", Op);
    RMlo = computeLocalDeps(P, C);
    M["ifa.rmlo_ms"] = S.closeMs();
  }
  M["ifa.rmlo_entries"] = static_cast<double>(RMlo.size());
  ActiveSignalsResult Active;
  {
    SpanScope S(T, "rd.t4", Op);
    Active = analyzeActiveSignals(P, C, 1);
    M["rd.t4_ms"] = S.closeMs();
  }
  M["rd.t4_iterations"] = static_cast<double>(Active.Iterations);

  // Table 5 exactly as analyzeReachingDefs runs it, split at the seam
  // between kill/gen materialization and the per-process fixpoints.
  ReachingDefsResult RD;
  {
    ReachingDefsKillGen KG;
    {
      SpanScope S(T, "rd.t5_killgen", Op);
      KG = computeReachingDefsKillGen(C, Active, Opts.RD);
      M["rd.t5_killgen_ms"] = S.closeMs();
    }
    size_t KillPairs = 0, GenPairs = 0;
    for (const PairSet &K : KG.Kill)
      KillPairs += K.size();
    for (const PairSet &G : KG.Gen)
      GenPairs += G.size();
    M["rd.t5_kill_pairs"] = static_cast<double>(KillPairs);
    M["rd.t5_gen_pairs"] = static_cast<double>(GenPairs);
    SpanScope S(T, "rd.t5_fixpoint", Op);
    RD.Entry.resize(C.numLabels() + 1);
    RD.Exit.resize(C.numLabels() + 1);
    for (const ProcessCFG &Proc : C.processes()) {
      RdProcessArtifact Art = solveProcessRd(C, Proc, KG.Kill, KG.Gen);
      RD.Iterations += Art.Iterations;
      installProcessRd(RD, C, Proc, Art);
    }
    M["rd.t5_fixpoint_ms"] = S.closeMs();
  }
  M["rd.t5_iterations"] = static_cast<double>(RD.Iterations);
  M["rd.t5_result_bytes"] = static_cast<double>(RD.memoryBytes());

  std::optional<IFAResult> R;
  {
    SpanScope S(T, "ifa.compose", Op);
    R.emplace(composeInformationFlow(P, C, Opts, std::move(RMlo),
                                     std::move(Active), std::move(RD)));
    M["ifa.compose_ms"] = S.closeMs();
  }
  M["ifa.rmgl_entries"] = static_cast<double>(R->RMgl.size());
  M["ifa.graph_nodes"] = static_cast<double>(R->Graph.numNodes());
  M["ifa.graph_edges"] = static_cast<double>(R->Graph.numEdges());
  M["ifa.result_bytes"] = static_cast<double>(R->memoryBytes());

  // Serialization of the design result the CLI prints (JSON) and serve
  // frames (v1b). The first pass pays the lazy sorted-edge views, as the
  // CLI does.
  driver::DesignResult D;
  D.Name = A.Source;
  D.Ok = true;
  D.NumProcesses = P.Processes.size();
  D.NumSignals = P.Signals.size();
  D.NumVariables = P.Variables.size();
  D.NumNodes = R->Graph.numNodes();
  D.NumEdges = R->Graph.numEdges();
  D.Graph = &R->Graph;
  driver::BatchOptions B;
  B.Mode = driver::BatchMode::Flows;
  B.CaptureRenderedText = false;
  B.Session.Statements = A.Statements;
  {
    driver::BatchResult BR;
    BR.Designs.push_back(D);
    BR.NumOk = 1;
    // Into a file, as the CLI's stdout is in the cold workloads.
    std::ofstream OS(A.Store + "/flows.json", std::ios::binary);
    SpanScope S(T, "driver.json", Op);
    driver::printBatchJson(OS, BR, B);
    OS.flush();
    M["driver.json_us"] = S.closeMs() * 1000;
    M["driver.json_bytes"] = static_cast<double>(OS.tellp());
  }
  {
    std::string Frame;
    M["driver.v1b_us"] = meanUs(T, "driver.v1b", Op, [&] {
      Frame.clear();
      driver::writeV1bDesign(Frame, D, B);
    });
    M["driver.v1b_bytes"] = static_cast<double>(Frame.size());
  }

  // The query index over the flow graph, and point probes against it.
  std::optional<query::FlowQueryEngine> E;
  {
    SpanScope S(T, "query.build", Op);
    E.emplace(R->Graph);
    M["query.build_ms"] = S.closeMs();
  }
  {
    std::vector<std::string_view> Names(R->Graph.nodes().begin(),
                                        R->Graph.nodes().end());
    size_t N = Names.size(), I = 0, Hits = 0;
    M["query.reaches_ns"] = 1000 * meanUs(T, "query.reaches", Op, [&] {
      for (int K = 0; K < 1000; ++K, ++I)
        Hits += E->reaches(Names[(I * 7919) % N], Names[(I * 104729 + 1) % N]);
    }) / 1000;
    std::vector<std::pair<std::string_view, std::string_view>> Pairs;
    for (size_t J = 0; J < 64 * N && Pairs.size() < 64; ++J) {
      std::string_view From = Names[(J * 7919) % N],
                       To = Names[(J * 104729 + 1) % N];
      if (E->reaches(From, To))
        Pairs.emplace_back(From, To);
    }
    size_t Steps = 0;
    M["query.witness_us"] =
        Pairs.empty() ? 0
                      : meanUs(T, "query.witness", Op, [&] {
                          for (const auto &[From, To] : Pairs)
                            Steps += E->witnessPath(From, To)->size();
                        }) / static_cast<double>(Pairs.size());
    if (Hits + Steps == 0)
      std::cerr << "perfbench_layers: no reachable pair to probe\n";
  }

  // The incremental tier: slice hashes, then one re-analysis against a
  // table that is warm except for the edited process (or empty, when
  // there is no edited variant — a one-process design is all edited).
  {
    std::vector<uint64_t> Hashes;
    M["rd.slice_hash_ms"] = meanUs(T, "rd.slice_hash", Op, [&] {
      Hashes = hashProcessSlices(P, C);
    }) / 1000;
    ProcessArtifactTable Table;
    const ElaboratedProgram *IP = &P;
    const ProgramCFG *IC = &C;
    FrontEnd EF;
    if (!A.Edited.empty()) {
      ActiveSignalsResult WA;
      ReachingDefsResult WR;
      analyzeIncremental(P, C, Opts.RD, Table, WA, WR);
      std::string EditedSrc;
      DiagnosticEngine EDiags;
      if (!readFile(A.Edited, EditedSrc) ||
          !runFrontEnd(EditedSrc, A.Statements, EF, EDiags)) {
        std::cerr << "perfbench_layers: bad edited source\n" << EDiags.str();
        return false;
      }
      IP = &*EF.Program;
      IC = &*EF.CFG;
    }
    ActiveSignalsResult IA;
    ReachingDefsResult IR;
    IncrementalStats St;
    SpanScope S(T, "rd.incr", Op);
    analyzeIncremental(*IP, *IC, Opts.RD, Table, IA, IR, &St);
    M["rd.incr_ms"] = S.closeMs();
    M["rd.incr_solved"] = static_cast<double>(St.ActiveSolved + St.RdSolved);
    M["rd.incr_reused"] = static_cast<double>(St.ActiveReused + St.RdReused);
  }

  // The artifact store codecs and file I/O for this design's blobs.
  {
    driver::ArtifactStore Store(A.Store);
    uint64_t Key = driver::sessionCacheKey(Src, B.Session);
    std::string Dsgn, Qidx;
    {
      SpanScope S(T, "driver.store_encode", Op);
      Dsgn = driver::encodeDesignArtifact(*R);
      Qidx = driver::encodeQueryIndex(*E);
      M["driver.store_encode_ms"] = S.closeMs();
    }
    M["driver.store_blob_bytes"] =
        static_cast<double>(Dsgn.size() + Qidx.size());
    {
      SpanScope S(T, "driver.store_write", Op);
      Store.store("dsgn", Key, Dsgn);
      Store.store("qidx", Key, Qidx);
      M["driver.store_write_ms"] = S.closeMs();
    }
    std::string LD, LQ;
    bool Loaded;
    {
      SpanScope S(T, "driver.store_load", Op);
      Loaded = Store.load("dsgn", Key, LD) && Store.load("qidx", Key, LQ);
      M["driver.store_load_ms"] = S.closeMs();
    }
    IFAResult Back;
    bool Decoded;
    {
      SpanScope S(T, "driver.store_decode", Op);
      Decoded = driver::decodeDesignArtifact(LD, Back.RMlo, Back.RMgl,
                                             Back.Graph) &&
                driver::decodeQueryIndex(LQ, Back.Graph).has_value();
      M["driver.store_decode_ms"] = S.closeMs();
    }
    if (!Loaded || !Decoded ||
        Back.Graph.numEdges() != R->Graph.numEdges()) {
      std::cerr << "perfbench_layers: store round trip failed\n";
      return false;
    }
  }

  // The session cache's key and a warm acquire.
  {
    uint64_t Sink = 0;
    M["driver.cache_key_us"] = meanUs(T, "driver.cache_key", Op, [&] {
      Sink += driver::sessionCacheKey(Src, B.Session);
    });
    driver::SessionCache Cache;
    { auto Warm = Cache.acquire("in", Src, B.Session); }
    M["driver.cache_acquire_us"] = meanUs(T, "driver.cache_acquire", Op, [&] {
      auto Ref = Cache.acquire("in", Src, B.Session);
      Sink += Ref.hit();
    });
    if (Sink == 0)
      std::cerr << "perfbench_layers: cache never hit\n";
  }
  return true;
}

/// Replays the workload's request lines through an in-process server:
/// JSON parse cost per line, then handleLine after a warm-up pass.
bool traceHandle(const TraceArgs &A, Trace &T, Metrics &M) {
  const int Op = 1;
  std::vector<std::string> Lines = readLines(A.Requests);
  if (Lines.empty()) {
    std::cerr << "perfbench_layers: no request lines in " << A.Requests
              << '\n';
    return false;
  }
  SpanScope Whole(T, "requests", Op);
  {
    size_t Members = 0;
    M["support.jsonparse_us"] =
        meanUs(T, "support.jsonparse", Op, [&] {
          for (const std::string &L : Lines)
            Members += parseJson(L).has_value();
        }) / static_cast<double>(Lines.size());
    if (Members == 0)
      return false;
  }
  const bool EditLoop = !A.EditLoopWarmup.empty();
  driver::ServeOptions SO;
  if (EditLoop)
    SO.StoreDir = A.Store + "/serve";
  driver::Server Server(SO);
  auto ok = [](const std::string &Resp) {
    return Resp.compare(0, 4, "VIFB") == 0 ||
           Resp.find("\"status\":\"ok\"") != std::string::npos;
  };
  // Warm-up: the edit loop's warm-up lines, or else every distinct
  // request line once, in first-appearance order (inline sources precede
  // the contentKey lines that refer to them).
  std::vector<std::string> Warm =
      EditLoop ? readLines(A.EditLoopWarmup) : Lines;
  std::map<std::string, bool> Seen;
  {
    SpanScope S(T, "driver.warmup", Op);
    for (const std::string &L : Warm)
      if (Seen.emplace(L, true).second && !ok(Server.handleLine(L))) {
        std::cerr << "perfbench_layers: request failed: " << L.substr(0, 200)
                  << '\n';
        return false;
      }
  }
  std::vector<double> Us;
  auto Start = Clock::now();
  size_t I = 0;
  while (Us.size() < Lines.size() ||
         (!EditLoop && std::chrono::duration<double>(Clock::now() - Start)
                               .count() < ReplaySeconds)) {
    const std::string &L = Lines[I++ % Lines.size()];
    SpanScope S(T, "driver.handle", Op);
    std::string Resp = Server.handleLine(L);
    Us.push_back(S.closeMs() * 1000);
    if (!ok(Resp))
      return false;
  }
  M["driver.handle_us_p50"] = percentile(Us, 0.50);
  M["driver.handle_us_p99"] = percentile(Us, 0.99);
  driver::SessionCache::Stats CS = Server.cache().stats();
  M["driver.cache_hit_ratio"] =
      CS.Hits + CS.Misses ? double(CS.Hits) / double(CS.Hits + CS.Misses) : 0;
  M["driver.cache_evictions"] = static_cast<double>(CS.Evictions);
  M["driver.store_bytes_written"] =
      Server.artifactStore()
          ? static_cast<double>(
                Server.artifactStore()->counters().BytesWritten)
          : 0;
  return true;
}

int cmdTrace(int Argc, char **Argv) {
  TraceArgs A;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (Arg == "--source")
      A.Source = next();
    else if (Arg == "--edited")
      A.Edited = next();
    else if (Arg == "--requests")
      A.Requests = next();
    else if (Arg == "--edit-loop")
      A.EditLoopWarmup = next();
    else if (Arg == "--spans")
      A.Spans = next();
    else if (Arg == "--store")
      A.Store = next();
    else if (Arg == "--statements")
      A.Statements = true;
    else {
      std::cerr << "perfbench_layers: unknown argument " << Arg << '\n';
      return 2;
    }
  }
  std::string Src;
  if (A.Source.empty() || A.Requests.empty() || A.Spans.empty() ||
      A.Store.empty() || !readFile(A.Source, Src)) {
    std::cerr << "perfbench_layers: trace needs a readable --source, "
                 "--requests, --spans and --store\n";
    return 2;
  }
  Trace T;
  Metrics M;
  if (!traceLayers(A, Src, T, M) || !traceHandle(A, T, M))
    return 1;
  if (!T.write(A.Spans)) {
    std::cerr << "perfbench_layers: cannot write " << A.Spans << '\n';
    return 1;
  }
  // Every digit as measured (JsonWriter rounds numbers to six).
  const char *Sep = "{";
  for (const auto &[Name, Value] : M) {
    std::printf("%s\"%s\":%.12g", Sep, Name.c_str(), Value);
    Sep = ",";
  }
  std::printf("}\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Cmd = Argc > 1 ? Argv[1] : "";
  if (Cmd == "gen" && Argc == 3)
    return cmdGen(Argv[2]);
  if (Cmd == "expect" && Argc == 3)
    return cmdExpect(Argv[2]);
  if (Cmd == "trace")
    return cmdTrace(Argc, Argv);
  if (Cmd == "spawn")
    return cmdSpawn(Argc, Argv);
  std::cerr << "usage: perfbench_layers gen DIR | expect DIR | spawn ... | "
               "trace ...\n";
  return 2;
}
