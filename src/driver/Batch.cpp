//===- driver/Batch.cpp ---------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"

#include "driver/Serialize.h"
#include "driver/SessionCache.h"
#include "ifa/Report.h"
#include "support/Parallel.h"

#include <algorithm>
#include <chrono>
#include <ostream>

using namespace vif;
using namespace vif::driver;

const char *vif::driver::batchModeName(BatchMode M) {
  switch (M) {
  case BatchMode::Check:
    return "check";
  case BatchMode::Flows:
    return "flows";
  case BatchMode::Matrices:
    return "rm";
  case BatchMode::Report:
    return "report";
  case BatchMode::Query:
    return "query";
  }
  return "?";
}

std::optional<BatchMode> vif::driver::parseBatchMode(std::string_view Name) {
  for (BatchMode M : {BatchMode::Check, BatchMode::Flows, BatchMode::Matrices,
                      BatchMode::Report, BatchMode::Query})
    if (Name == batchModeName(M))
      return M;
  return std::nullopt;
}

const char *vif::driver::flowMethodName(FlowMethod M) {
  switch (M) {
  case FlowMethod::Native:
    return "native";
  case FlowMethod::Alfp:
    return "alfp";
  case FlowMethod::Kemmerer:
    return "kemmerer";
  }
  return "?";
}

std::optional<FlowMethod>
vif::driver::parseFlowMethod(std::string_view Name) {
  for (FlowMethod M :
       {FlowMethod::Native, FlowMethod::Alfp, FlowMethod::Kemmerer})
    if (Name == flowMethodName(M))
      return M;
  return std::nullopt;
}

namespace {

void recordGraph(DesignResult &D, const Digraph &G) {
  D.NumNodes = G.numNodes();
  D.NumEdges = G.numEdges();
  // Borrow the graph instead of copying its edge list; materialize the
  // sorted views now, while the producing session is still exclusively
  // held, so every later read through D.Graph is a pure read. The
  // session's own ifa() graph has them already, built under its phase.
  G.ensureSortedViews();
  D.Graph = &G;
}

/// Drives \p S through the artifacts \p Opts.Mode needs and records the
/// outcome under the *requested* name (a cached session may have been
/// inserted under a different path with identical content).
DesignResult resultFromSession(AnalysisSession &S, const std::string &Name,
                               const BatchOptions &Opts) {
  DesignResult D;
  D.Name = Name;
  std::string AlfpError;

  // Check, native flows, query and a report without its text read only
  // the session's answer tier (counts, graph, query engine), so the
  // session may drop its work tier at release; the other modes read the
  // program or the matrices, and the session keeps them.
  if (const ProgramCounts *C = S.counts()) {
    D.NumProcesses = C->Processes;
    D.NumSignals = C->Signals;
    D.NumVariables = C->Variables;
    switch (Opts.Mode) {
    case BatchMode::Check:
      D.Ok = true;
      break;
    case BatchMode::Flows:
      switch (Opts.Method) {
      case FlowMethod::Native:
        if (const Digraph *G = S.graph()) {
          recordGraph(D, *G);
          D.Ok = true;
        }
        break;
      case FlowMethod::Kemmerer:
        if (const KemmererResult *K = S.kemmerer()) {
          recordGraph(D, K->Graph);
          D.Ok = true;
        }
        break;
      case FlowMethod::Alfp:
        if (const AlfpClosureResult *A = S.alfp()) {
          if (A->Solved) {
            // The ALFP flow graph is extracted per request, not stored in
            // the session, so the result owns it outright.
            auto G = std::make_shared<Digraph>(
                extractFlowGraph(A->RMgl, *S.program()));
            recordGraph(D, *G);
            D.Owner = std::move(G);
            D.Ok = true;
          } else {
            AlfpError = "alfp error: " + A->Error + "\n";
          }
        }
        break;
      }
      break;
    case BatchMode::Matrices:
      if (const IFAResult *R = S.ifa()) {
        // size() flushes pending entries, so printing through the
        // borrowed pointers later is a pure read.
        D.RMloEntries = R->RMlo.size();
        D.RMglEntries = R->RMgl.size();
        D.RMlo = &R->RMlo;
        D.RMgl = &R->RMgl;
        D.Program = S.program();
        D.Ok = true;
      }
      break;
    case BatchMode::Report:
      if (const Digraph *G = S.graph()) {
        recordGraph(D, *G);
        D.Violations = checkFlowPolicy(*G, Opts.Policy);
        if (Opts.CaptureRenderedText) {
          ReportOptions RepOpts;
          RepOpts.Policy = Opts.Policy;
          RepOpts.Violations = &D.Violations;
          D.ReportText = auditReport(*S.program(), *G, RepOpts);
        }
        D.Ok = true;
      }
      break;
    case BatchMode::Query:
      if (const query::FlowQueryEngine *Q = S.queryEngine()) {
        D.NumNodes = Q->numNodes();
        D.NumEdges = Q->numEdges();
        D.Reaches = Q->reaches(Opts.QueryFrom, Opts.QueryTo);
        if (D.Reaches)
          D.Witness = *Q->witnessPath(Opts.QueryFrom, Opts.QueryTo);
        D.Forward = Q->reachableFrom(Opts.QueryFrom);
        D.Backward = Q->whatReaches(Opts.QueryTo);
        D.Ok = true;
      }
      break;
    }
  }

  // Diagnostics accompany both failures (errors) and successes (warnings,
  // notes); an ALFP verdict comes last, after the front end's.
  D.Diagnostics = S.diagnostics().str() + AlfpError;
  D.Timings = S.timings();
  return D;
}

} // namespace

DesignResult vif::driver::analyzeDesign(const BatchInput &In,
                                        const BatchOptions &Opts) {
  // Read the input first so the cache can key on its bytes.
  auto ReadStart = std::chrono::steady_clock::now();
  std::string FileSource;
  bool Readable = In.Source || readSourceFile(In.Name, FileSource);
  double ReadMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - ReadStart)
                      .count();
  if (!Readable) {
    DesignResult D;
    D.Name = In.Name;
    D.Unreadable = true;
    D.Diagnostics = "error: cannot read '" + In.Name + "'\n";
    D.Timings.ReadMs = ReadMs;
    return D;
  }
  std::optional<SessionCache> OwnCache;
  SessionCache &Cache = Opts.Cache ? *Opts.Cache : OwnCache.emplace(1);
  // Inline sources go in as a view (no copy on a hit); file reads hand
  // their buffer over.
  SessionCache::Ref Ref =
      In.Source ? Cache.acquire(In.Name, *In.Source, Opts.Session)
                : Cache.acquireOwned(In.Name, std::move(FileSource),
                                     Opts.Session);
  DesignResult D = resultFromSession(Ref.session(), In.Name, Opts);
  // Borrowed artifacts live in the cached session; keep the entry (not
  // its lock) alive for as long as the result is.
  if ((D.Graph || D.RMgl) && !D.Owner)
    D.Owner = Ref.keepAlive();
  D.CacheHit = Ref.hit();
  // The session never read a file (it was built fromSource), so its
  // ReadMs is 0; report this request's read instead.
  D.Timings.ReadMs += ReadMs;
  return D;
}

BatchResult vif::driver::runBatch(const std::vector<BatchInput> &Inputs,
                                  const BatchOptions &Opts) {
  auto Start = std::chrono::steady_clock::now();
  BatchResult R;
  R.Designs.resize(Inputs.size());

  size_t N = Inputs.size();
  unsigned Jobs = Opts.Jobs ? Opts.Jobs : defaultJobs();
  Jobs = static_cast<unsigned>(std::min<size_t>(Jobs, N));
  // Stdin is a single stream: several "-" inputs racing to drain it from
  // different workers would split it nondeterministically, so serialize.
  size_t StdinInputs = 0;
  for (const BatchInput &In : Inputs)
    if (!In.Source && In.Name == "-")
      ++StdinInputs;
  if (StdinInputs > 1)
    Jobs = 1;

  // Without a caller's cache, duplicate inputs still share one session
  // through a cache that lives for this batch.
  std::optional<SessionCache> OwnCache;
  BatchOptions WithCache = Opts;
  if (!Opts.Cache)
    WithCache.Cache = &OwnCache.emplace();
  parallelFor(Jobs, N, [&](size_t I) {
    R.Designs[I] = analyzeDesign(Inputs[I], WithCache);
  });

  for (const DesignResult &D : R.Designs) {
    (D.Ok ? R.NumOk : R.NumFailed) += 1;
    R.NumViolations += D.Violations.size();
  }
  R.WallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - Start)
                 .count();
  return R;
}

void vif::driver::printDesignText(std::ostream &OS, const DesignResult &D,
                                  const BatchOptions &Opts, bool Shape) {
  if (Shape)
    OS << D.NumProcesses << " process(es), " << D.NumSignals
       << " signal(s), " << D.NumVariables << " variable(s)\n";
  switch (Opts.Mode) {
  case BatchMode::Check:
    break;
  case BatchMode::Flows:
    OS << D.NumNodes << " node(s), " << D.NumEdges << " edge(s)\n";
    if (D.Graph)
      D.Graph->forEachSortedEdge(
          [&OS](std::string_view From, std::string_view To) {
            OS << From << " -> " << To << '\n';
          });
    break;
  case BatchMode::Matrices:
    OS << "== RMlo (" << D.RMloEntries << " entries)\n";
    D.RMlo->print(OS, *D.Program);
    OS << "== RMgl (" << D.RMglEntries << " entries)\n";
    D.RMgl->print(OS, *D.Program);
    break;
  case BatchMode::Report:
    OS << D.ReportText;
    break;
  case BatchMode::Query: {
    OS << "reaches(" << Opts.QueryFrom << ", " << Opts.QueryTo
       << "): " << (D.Reaches ? "yes" : "no") << '\n';
    if (D.Reaches) {
      OS << "witness:";
      for (const query::WitnessStep &Step : D.Witness)
        OS << (&Step == D.Witness.data() ? " " : " -> ") << Step.Node;
      OS << '\n';
    }
    auto PrintSet = [&OS](const char *Label,
                          const std::vector<std::string> &Set) {
      OS << Label << " (" << Set.size() << "):";
      for (const std::string &Node : Set)
        OS << ' ' << Node;
      OS << '\n';
    };
    PrintSet("reachable-from", D.Forward);
    PrintSet("what-reaches", D.Backward);
    break;
  }
  }
}

void vif::driver::printBatchText(std::ostream &OS, const BatchResult &R,
                                 const BatchOptions &Opts) {
  for (const DesignResult &D : R.Designs) {
    OS << "== " << D.Name << ": " << (D.Ok ? "ok" : "FAILED") << '\n';
    if (!D.Diagnostics.empty())
      OS << D.Diagnostics;
    if (D.Ok)
      printDesignText(OS, D, Opts, /*Shape=*/true);
  }
  OS << "--\n"
     << R.Designs.size() << " design(s): " << R.NumOk << " ok, "
     << R.NumFailed << " failed";
  if (Opts.Mode == BatchMode::Report)
    OS << ", " << R.NumViolations << " policy violation(s)";
  OS << "; " << R.WallMs << " ms\n";
}

void vif::driver::printBatchJson(std::ostream &OS, const BatchResult &R,
                                 const BatchOptions &Opts) {
  writeBatchDocument(OS, R, Opts);
}
