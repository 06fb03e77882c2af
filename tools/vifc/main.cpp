//===- tools/vifc/main.cpp - Command-line driver --------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// vifc: parse, check, simulate, analyze and serve VHDL1 sources.
///
///   vifc check   [--statements] FILE...    parse + elaborate
///   vifc sim     [--deltas N] [--vcd F] FILE
///   vifc flows   [--improved] [--end-out] [--kemmerer|--alfp] [--dot] FILE...
///   vifc rm      FILE...                   local and global matrices
///   vifc report  [--forbid A,B]... FILE... covert-channel audit report
///   vifc query   --from A --to B FILE...   point reachability + witness
///   vifc datalog FILE.alfp                 solve ALFP, print ?-queries
///   vifc serve   [--cache N] [--listen PORT]
///
/// FILE may be "-" for stdin. All JSON output is the versioned vifc.v1
/// wire format (docs/SCHEMA.md); `serve` speaks line-delimited vifc.v1
/// requests/responses (docs/SERVER.md).
///
/// The analysis commands (check, flows, rm, report, query) make one
/// engine call, driver::runBatch over every FILE, and render its result
/// in one of four ways: v1b frames, one JSON document, batch text (several
/// FILEs, or query), or single-FILE text — the design's text alone, with
/// its diagnostics on stderr. `serve` runs driver::Server; only `sim`
/// drives an AnalysisSession directly.
///
//===----------------------------------------------------------------------===//

#include "alfp/AlfpParser.h"
#include "driver/AnalysisSession.h"
#include "driver/ArtifactStore.h"
#include "driver/Batch.h"
#include "driver/Serialize.h"
#include "driver/Serve.h"
#include "driver/SessionCache.h"
#include "driver/V1b.h"
#include "sim/Simulator.h"
#include "sim/VcdWriter.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

using namespace vif;
using driver::AnalysisSession;

namespace {

void printUsage(std::ostream &OS) {
  OS << "usage: vifc <command> [options] [<file|->...]\n"
        "commands:\n"
        "  check   parse and elaborate, reporting diagnostics\n"
        "  sim     simulate to quiescence and print final signal values\n"
        "  flows   print the information-flow graph (edges, or --dot)\n"
        "  rm      print the local and global resource matrices\n"
        "  report  write a covert-channel audit report\n"
        "  query   answer a point reachability query (--from/--to) with a\n"
        "          shortest witness path and both reachable sets\n"
        "  datalog solve an ALFP/Datalog file and print ?-queried "
        "relations\n"
        "  serve   long-lived analysis server: line-delimited vifc.v1 JSON\n"
        "          requests on stdin (or --listen), warm sessions cached\n"
        "          across requests (docs/SERVER.md)\n"
        "options (applicable commands in parentheses):\n"
        "  --statements   input is a statement program, not a design\n"
        "                 (every command except datalog)\n"
        "  --improved     apply the Table 9 improvement (incoming/outgoing"
        " nodes)\n"
        "                 (flows, rm, report, query, serve)\n"
        "  --end-out      treat program end as an outgoing sync point\n"
        "                 (flows, rm, report, query, serve)\n"
        "  --from NODE    (query) the flow source to ask about; required\n"
        "  --to NODE      (query) the flow sink to ask about; required\n"
        "  --kemmerer     use Kemmerer's transitive-closure method (flows)\n"
        "  --alfp         compute the closure via the ALFP engine (flows)\n"
        "  --dot          emit Graphviz DOT (flows, one FILE, no --json)\n"
        "  --deltas N     delta-cycle budget for sim (default 65536)\n"
        "  --vcd FILE     write a VCD waveform of the simulation (sim)\n"
        "  --forbid A,B   (report) forbid the flow A -> B; repeatable;\n"
        "                 the exit code is 1 when a policy is violated\n"
        "  --json         emit one vifc.v1 JSON document (every command\n"
        "                 except serve; docs/SCHEMA.md)\n"
        "  --format FMT   response format: 'json', or 'v1b' for binary\n"
        "                 columnar frames, one per FILE (check/flows/rm/\n"
        "                 report/query; --format=v1b also works; "
        "docs/SCHEMA.md)\n"
        "  --jobs N       worker threads (check/flows/rm/report/query):"
        " designs\n"
        "                 in batch mode, per-process solver fan-out on a\n"
        "                 single FILE; 0 = auto (default: up to 8)\n"
        "  --cache N      (serve) session-cache capacity in entries "
        "(default 32)\n"
        "  --cache-bytes B (serve) session-cache byte budget, optional\n"
        "                 k/m/g suffix (e.g. 256m); 0 = unlimited "
        "(default)\n"
        "  --store DIR    persist analysis artifacts under DIR and reuse\n"
        "                 them across runs (check/flows/rm/report/query/\n"
        "                 serve; docs/SCHEMA.md describes the format)\n"
        "  --workers N    (serve --listen) TCP worker threads; 0 = auto\n"
        "                 (default: up to 8)\n"
        "  --listen PORT  (serve) accept TCP connections on 127.0.0.1:PORT\n"
        "                 instead of reading stdin; 0 picks an ephemeral\n"
        "                 port (printed on stderr once bound)\n"
        "  --help, -h     print this help and exit 0\n"
        "Several FILEs run as a batch; --json also works on one FILE.\n";
}

int usage() {
  printUsage(std::cerr);
  return 2;
}

struct Options {
  std::string Command;
  std::vector<std::string> Files;
  bool Statements = false;
  bool Improved = false;
  bool EndOut = false;
  bool Kemmerer = false;
  bool Alfp = false;
  bool Dot = false;
  bool Json = false;
  /// --format=v1b: emit binary v1b frames instead of text/JSON.
  bool V1bOut = false;
  unsigned Deltas = 1u << 16;
  unsigned Jobs = 0;
  bool JobsGiven = false;
  unsigned CacheCapacity = driver::SessionCache::DefaultCapacity;
  /// --cache-bytes: session-cache byte budget; 0 = unlimited.
  unsigned long long CacheBytes = 0;
  /// --workers: TCP worker threads for serve --listen; 0 = auto.
  unsigned Workers = 0;
  /// --store: on-disk artifact store directory; empty = disabled.
  std::string StoreDir;
  unsigned ListenPort = 0;
  bool ListenGiven = false;
  /// query: the --from / --to node pair (both required).
  std::string QueryFrom;
  std::string QueryTo;
  bool FromGiven = false;
  bool ToGiven = false;
  std::string VcdPath;
  std::vector<std::pair<std::string, std::string>> Forbidden;

  driver::SessionOptions session() const {
    driver::SessionOptions S;
    S.Statements = Statements;
    S.Ifa.Improved = Improved;
    S.Ifa.ProgramEndOutgoing = EndOut;
    return S;
  }
};

/// Which commands accept which option. One row per flag; commands as a
/// space-delimited word list, checked by whole word. Keep in sync with
/// printUsage() — tests/cli_smoke.cmake exercises the mismatch
/// diagnostics.
struct FlagSpec {
  const char *Flag;
  const char *Commands;
};

const FlagSpec FlagSpecs[] = {
    {"--statements", "check sim flows rm report query serve"},
    {"--improved", "flows rm report query serve"},
    {"--end-out", "flows rm report query serve"},
    {"--kemmerer", "flows"},
    {"--alfp", "flows"},
    {"--dot", "flows"},
    {"--deltas", "sim"},
    {"--vcd", "sim"},
    {"--forbid", "report"},
    {"--from", "query"},
    {"--to", "query"},
    {"--json", "check sim flows rm report query datalog"},
    {"--format", "check flows rm report query"},
    {"--jobs", "check flows rm report query"},
    {"--cache", "serve"},
    {"--cache-bytes", "serve"},
    {"--store", "check flows rm report query serve"},
    {"--workers", "serve"},
    {"--listen", "serve"},
};

/// Diagnoses flags given to a command they don't apply to. Returns true
/// when \p Flag may be used with \p Command.
bool checkFlagApplies(const std::string &Command, const std::string &Flag) {
  for (const FlagSpec &S : FlagSpecs) {
    if (Flag != S.Flag)
      continue;
    std::string Commands = std::string(" ") + S.Commands + " ";
    if (Commands.find(" " + Command + " ") != std::string::npos)
      return true;
    std::cerr << "error: option '" << Flag << "' does not apply to '"
              << Command << "' (applies to: " << S.Commands << ")\n";
    return false;
  }
  return true; // not a registered flag; caller diagnoses unknown options
}

int cmdSim(const Options &Opt) {
  AnalysisSession S = AnalysisSession::fromFile(Opt.Files[0], Opt.session());
  const ElaboratedProgram *Program = S.program();
  if (S.unreadable())
    std::cerr << "error: cannot read '" << S.name() << "'\n";
  S.diagnostics().print(std::cerr);
  if (!Program)
    return 1;
  Simulator::Options SimOpts;
  SimOpts.RecordTrace = !Opt.VcdPath.empty();
  Simulator Sim(*Program, SimOpts);
  SimStatus Status = Sim.run(Opt.Deltas);
  if (Opt.Json) {
    driver::SimDocument Doc;
    Doc.File = Opt.Files[0];
    Doc.Status = simStatusName(Status);
    Doc.Deltas = Sim.deltasExecuted();
    if (Status == SimStatus::Stuck)
      Doc.StuckReason = Sim.stuckReason();
    for (const ElabSignal &Sig : Program->Signals)
      Doc.Signals.push_back({Sig.UniqueName, Sim.presentValue(Sig.Id).str()});
    driver::writeSimDocument(std::cout, Doc);
  } else {
    std::cout << "status: " << simStatusName(Status) << " after "
              << Sim.deltasExecuted() << " delta cycle(s)\n";
    if (Status == SimStatus::Stuck)
      std::cout << "reason: " << Sim.stuckReason() << '\n';
    for (const ElabSignal &Sig : Program->Signals)
      std::cout << Sig.UniqueName << " = " << Sim.presentValue(Sig.Id).str()
                << '\n';
  }
  if (!Opt.VcdPath.empty()) {
    if (Opt.VcdPath == "-") {
      writeVcd(std::cout, *Program, Sim);
    } else {
      std::ofstream VcdOut(Opt.VcdPath);
      if (!VcdOut) {
        std::cerr << "error: cannot write '" << Opt.VcdPath << "'\n";
        return 1;
      }
      writeVcd(VcdOut, *Program, Sim);
    }
  }
  return Status == SimStatus::Stuck ? 1 : 0;
}

int cmdDatalog(const Options &Opt) {
  std::string Source;
  if (!driver::readSourceFile(Opt.Files[0], Source)) {
    std::cerr << "error: cannot read '" << Opt.Files[0] << "'\n";
    return 1;
  }
  DiagnosticEngine Diags;
  alfp::ParsedProgram PP = alfp::parseAlfp(Source, Diags);
  Diags.print(std::cerr);
  if (Diags.hasErrors())
    return 1;
  std::string Error;
  if (!PP.P.solve(&Error)) {
    std::cerr << "error: " << Error << '\n';
    return 1;
  }
  if (Opt.Json) {
    std::vector<driver::DatalogRelation> Relations;
    for (alfp::RelId Rel : PP.Queries) {
      driver::DatalogRelation R;
      R.Name = PP.P.relationName(Rel);
      R.Arity = PP.P.relationArity(Rel);
      for (const alfp::Atom *Row : PP.P.tuples(Rel)) {
        std::vector<std::string> Tuple;
        Tuple.reserve(R.Arity);
        for (unsigned I = 0; I < R.Arity; ++I)
          Tuple.push_back(PP.P.atoms().name(Row[I]));
        R.Tuples.push_back(std::move(Tuple));
      }
      std::sort(R.Tuples.begin(), R.Tuples.end());
      Relations.push_back(std::move(R));
    }
    driver::writeDatalogDocument(std::cout, Opt.Files[0], Relations,
                                 PP.P.derivedCount());
    return 0;
  }
  for (alfp::RelId Rel : PP.Queries)
    std::cout << alfp::dumpRelation(PP.P, Rel);
  if (PP.Queries.empty())
    std::cout << "(no ?-queries; " << PP.P.derivedCount()
              << " tuples derived)\n";
  return 0;
}

int cmdServe(const Options &Opt) {
  driver::ServeOptions SO;
  SO.CacheCapacity = Opt.CacheCapacity;
  SO.CacheBytes = static_cast<size_t>(Opt.CacheBytes);
  SO.Workers = Opt.Workers;
  SO.Session = Opt.session();
  SO.StoreDir = Opt.StoreDir;
  // Printed once the socket is bound — with --listen 0 the ephemeral
  // port is only known then (tools/serve_load_smoke.py parses this
  // line).
  SO.OnListening = [](uint16_t Port) {
    std::cerr << "vifc serve: listening on 127.0.0.1:" << Port << '\n';
  };
  driver::Server Server(SO);
  std::string Error;
  bool Ok = Opt.ListenGiven
                ? Server.listenAndServe(
                      static_cast<uint16_t>(Opt.ListenPort), &Error)
                : Server.serveFd(STDIN_FILENO, STDOUT_FILENO, &Error);
  if (!Ok) {
    std::cerr << "error: " << Error << '\n';
    return 1;
  }
  return 0;
}

/// Single-FILE text: the diagnostics on stderr, then the design's text
/// alone — no batch header or summary. `check` prefixes its shape line
/// with "ok: ", and `flows --dot` prints Graphviz instead of the edge
/// list. Returns whether the store summary line should follow.
bool printSingleText(const driver::DesignResult &D,
                     const driver::BatchOptions &B, bool Dot) {
  std::cerr << D.Diagnostics;
  if (!D.Ok)
    return false;
  if (Dot) {
    D.Graph->printDOT(std::cout, B.Method == driver::FlowMethod::Kemmerer
                                     ? "kemmerer"
                                 : B.Method == driver::FlowMethod::Alfp
                                     ? "flows-alfp"
                                     : "flows");
    return false;
  }
  bool Check = B.Mode == driver::BatchMode::Check;
  if (Check)
    std::cout << "ok: ";
  driver::printDesignText(std::cout, D, B, /*Shape=*/Check);
  return true;
}

/// Every analysis command: run the batch engine over the FILEs —
/// through a per-invocation content-addressed session cache, so
/// duplicate inputs are analyzed once — and render.
int cmdAnalyze(const Options &Opt, driver::BatchMode Mode) {
  std::unique_ptr<driver::ArtifactStore> Store;
  if (!Opt.StoreDir.empty()) {
    Store = std::make_unique<driver::ArtifactStore>(Opt.StoreDir);
    if (!Store->usable())
      std::cerr << "warning: cannot use artifact store directory '"
                << Opt.StoreDir << "'; continuing without persistence\n";
  }
  // The one-line store summary printed to stderr after text and v1b runs,
  // so scripted callers can observe hit/miss traffic without parsing a
  // document.
  auto printStoreSummary = [&Store] {
    if (!Store)
      return;
    driver::ArtifactStore::Counters C = Store->counters();
    std::cerr << "vifc: store: " << C.Hits << " hit(s), " << C.Misses
              << " miss(es), " << C.Writes << " write(s), " << C.BytesRead
              << " B read, " << C.BytesWritten << " B written\n";
  };
  driver::SessionCache Cache;
  Cache.setArtifacts(nullptr, Store.get());
  driver::BatchOptions B;
  B.Mode = Mode;
  B.Method = Opt.Kemmerer ? driver::FlowMethod::Kemmerer
             : Opt.Alfp   ? driver::FlowMethod::Alfp
                          : driver::FlowMethod::Native;
  B.Session = Opt.session();
  // --jobs fans out across designs when there are several, with each
  // design's rd solvers serial so the two pool levels don't multiply.
  // With a single design the design pool is one worker, so the whole
  // budget goes to its per-process rd fixpoints instead (0 = auto).
  if (Opt.Files.size() > 1)
    B.Session.Ifa.RD.Jobs = 1;
  else if (Opt.JobsGiven)
    B.Session.Ifa.RD.Jobs = Opt.Jobs ? Opt.Jobs : defaultJobs();
  for (const auto &[From, To] : Opt.Forbidden)
    B.Policy.Forbidden.push_back({From, To});
  B.QueryFrom = Opt.QueryFrom;
  B.QueryTo = Opt.QueryTo;
  B.Jobs = Opt.Jobs;
  B.CaptureRenderedText = !Opt.Json && !Opt.V1bOut;
  B.Cache = &Cache;

  std::vector<driver::BatchInput> Inputs;
  Inputs.reserve(Opt.Files.size());
  for (const std::string &File : Opt.Files)
    Inputs.push_back({File, std::nullopt});

  driver::BatchResult R = driver::runBatch(Inputs, B);
  if (Opt.V1bOut) {
    driver::printBatchV1b(std::cout, R, B);
    printStoreSummary();
  } else if (Opt.Json)
    driver::printBatchJson(std::cout, R, B);
  else if (Opt.Files.size() == 1) {
    if (printSingleText(R.Designs.front(), B, Opt.Dot))
      printStoreSummary();
  } else {
    driver::printBatchText(std::cout, R, B);
    printStoreSummary();
  }

  bool Bad = !R.allOk() ||
             (Mode == driver::BatchMode::Report && R.NumViolations != 0);
  return Bad ? 1 : 0;
}

/// Parses a byte-size option value: a non-negative integer with an
/// optional k/m/g (binary, case-insensitive) suffix, e.g. "64m".
bool parseByteSize(const std::string &Flag, const std::string &Value,
                   unsigned long long &Out) {
  std::string Digits = Value;
  unsigned long long Scale = 1;
  if (!Digits.empty()) {
    switch (Digits.back()) {
    case 'k': case 'K': Scale = 1ull << 10; break;
    case 'm': case 'M': Scale = 1ull << 20; break;
    case 'g': case 'G': Scale = 1ull << 30; break;
    default: break;
    }
    if (Scale != 1)
      Digits.pop_back();
  }
  if (Digits.empty() ||
      Digits.find_first_not_of("0123456789") != std::string::npos) {
    std::cerr << "error: option '" << Flag
              << "' expects BYTES with an optional k/m/g suffix, got '"
              << Value << "'\n";
    return false;
  }
  errno = 0;
  unsigned long long V = std::strtoull(Digits.c_str(), nullptr, 10);
  if (errno == ERANGE || V > ~0ull / Scale) {
    std::cerr << "error: option '" << Flag << "' value '" << Value
              << "' is out of range\n";
    return false;
  }
  Out = V * Scale;
  return true;
}

/// Parses a non-negative integer option value; reports and fails on
/// malformed or out-of-range input instead of aborting in std::stoul.
bool parseCount(const std::string &Flag, const std::string &Value,
                unsigned &Out) {
  if (Value.empty() ||
      Value.find_first_not_of("0123456789") != std::string::npos) {
    std::cerr << "error: option '" << Flag
              << "' expects a non-negative integer, got '" << Value << "'\n";
    return false;
  }
  errno = 0;
  unsigned long V = std::strtoul(Value.c_str(), nullptr, 10);
  if (errno == ERANGE || V > UINT_MAX) {
    std::cerr << "error: option '" << Flag << "' value '" << Value
              << "' is out of range\n";
    return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.empty())
    return usage();
  // Help anywhere on the command line prints usage to stdout, exit 0 —
  // unknown flags/commands keep printing to stderr, exit 2.
  for (const std::string &A : Args)
    if (A == "--help" || A == "-h") {
      printUsage(std::cout);
      return 0;
    }
  if (Args[0] == "help") {
    printUsage(std::cout);
    return 0;
  }
  Opt.Command = Args[0];
  // Validate the command before its flags, so `vifc frobnicate --json`
  // says "unknown command", not something misleading about --json.
  std::optional<driver::BatchMode> Mode =
      driver::parseBatchMode(Opt.Command);
  if (!Mode && Opt.Command != "sim" && Opt.Command != "datalog" &&
      Opt.Command != "serve") {
    std::cerr << "unknown command '" << Opt.Command << "'\n";
    return usage();
  }

  // Option values are consumed via this helper so a trailing --deltas /
  // --vcd / --forbid / --jobs / --cache / --listen without a value is a
  // diagnosed error, not a silently missing option.
  size_t I = 1;
  auto nextValue = [&](const std::string &Flag,
                       std::string &Out) -> bool {
    if (I + 1 >= Args.size()) {
      std::cerr << "error: option '" << Flag << "' requires a value\n";
      return false;
    }
    Out = Args[++I];
    return true;
  };

  for (; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    std::string Value;
    if (!A.empty() && A[0] == '-' && A != "-" &&
        !checkFlagApplies(Opt.Command, A))
      return usage();
    if (A == "--statements")
      Opt.Statements = true;
    else if (A == "--improved")
      Opt.Improved = true;
    else if (A == "--end-out")
      Opt.EndOut = true;
    else if (A == "--kemmerer")
      Opt.Kemmerer = true;
    else if (A == "--alfp")
      Opt.Alfp = true;
    else if (A == "--dot")
      Opt.Dot = true;
    else if (A == "--json")
      Opt.Json = true;
    else if (A == "--format" || A.rfind("--format=", 0) == 0) {
      if (A != "--format") {
        // Inline form --format=FMT; re-check applicability under the
        // registered spelling, which the generic check above missed.
        if (!checkFlagApplies(Opt.Command, "--format"))
          return usage();
        Value = A.substr(9);
      } else if (!nextValue(A, Value))
        return usage();
      if (Value == "json")
        Opt.Json = true;
      else if (Value == "v1b")
        Opt.V1bOut = true;
      else {
        std::cerr << "error: option '--format' expects 'json' or 'v1b', "
                     "got '"
                  << Value << "'\n";
        return usage();
      }
    } else if (A == "--deltas") {
      if (!nextValue(A, Value) || !parseCount(A, Value, Opt.Deltas))
        return usage();
    } else if (A == "--jobs") {
      if (!nextValue(A, Value) || !parseCount(A, Value, Opt.Jobs))
        return usage();
      Opt.JobsGiven = true;
    } else if (A == "--cache") {
      if (!nextValue(A, Value) || !parseCount(A, Value, Opt.CacheCapacity))
        return usage();
      if (Opt.CacheCapacity == 0) {
        std::cerr << "error: option '--cache' expects at least 1 entry\n";
        return usage();
      }
    } else if (A == "--cache-bytes") {
      if (!nextValue(A, Value) || !parseByteSize(A, Value, Opt.CacheBytes))
        return usage();
    } else if (A == "--store") {
      if (!nextValue(A, Value))
        return usage();
      Opt.StoreDir = Value;
    } else if (A == "--workers") {
      if (!nextValue(A, Value) || !parseCount(A, Value, Opt.Workers))
        return usage();
    } else if (A == "--listen") {
      if (!nextValue(A, Value) || !parseCount(A, Value, Opt.ListenPort))
        return usage();
      if (Opt.ListenPort > 65535) {
        std::cerr << "error: option '--listen' expects a port in 0..65535 "
                     "(0 picks an ephemeral port)\n";
        return usage();
      }
      Opt.ListenGiven = true;
    } else if (A == "--vcd") {
      if (!nextValue(A, Value))
        return usage();
      Opt.VcdPath = Value;
    } else if (A == "--from") {
      if (!nextValue(A, Value))
        return usage();
      Opt.QueryFrom = Value;
      Opt.FromGiven = true;
    } else if (A == "--to") {
      if (!nextValue(A, Value))
        return usage();
      Opt.QueryTo = Value;
      Opt.ToGiven = true;
    } else if (A == "--forbid") {
      if (!nextValue(A, Value))
        return usage();
      size_t Comma = Value.find(',');
      if (Comma == std::string::npos) {
        std::cerr << "--forbid expects 'from,to'\n";
        return usage();
      }
      Opt.Forbidden.emplace_back(Value.substr(0, Comma),
                                 Value.substr(Comma + 1));
    } else if (!A.empty() && A[0] == '-' && A != "-") {
      std::cerr << "unknown option '" << A << "'\n";
      return usage();
    } else
      Opt.Files.push_back(A);
  }

  if (Opt.Command == "serve") {
    if (!Opt.Files.empty()) {
      std::cerr << "error: 'serve' takes no FILE arguments (requests name "
                   "their inputs)\n";
      return usage();
    }
    return cmdServe(Opt);
  }

  if (Opt.Files.empty())
    return usage();
  // stdin is a single stream: two sessions draining it (possibly from
  // different batch workers) would split it nondeterministically.
  if (std::count(Opt.Files.begin(), Opt.Files.end(), "-") > 1) {
    std::cerr << "error: '-' (stdin) may be given at most once\n";
    return usage();
  }

  if (Opt.Command == "query" && (!Opt.FromGiven || !Opt.ToGiven)) {
    std::cerr << "error: 'query' requires both --from and --to\n";
    return usage();
  }

  if (!Mode && Opt.Files.size() > 1) {
    std::cerr << "error: '" << Opt.Command
              << "' accepts exactly one FILE\n";
    return usage();
  }
  if (Opt.Json && Opt.VcdPath == "-") {
    std::cerr << "error: --vcd - (stdout) cannot be combined with --json\n";
    return usage();
  }
  if (Opt.Json && Opt.V1bOut) {
    std::cerr << "error: --json cannot be combined with --format=v1b\n";
    return usage();
  }
  if (Opt.Dot && (Opt.Json || Opt.V1bOut || Opt.Files.size() > 1)) {
    std::cerr << "error: --dot requires a single FILE without --json or "
                 "--format=v1b\n";
    return usage();
  }

  if (Mode)
    return cmdAnalyze(Opt, *Mode);
  if (Opt.Command == "sim")
    return cmdSim(Opt);
  return cmdDatalog(Opt);
}
