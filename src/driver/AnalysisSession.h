//===- driver/AnalysisSession.h - Cached analysis pipeline ------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver layer owns the parse → elaborate → CFG → RD → IFA pipeline
/// end-to-end. An AnalysisSession loads one source and computes each
/// artifact lazily, at most once, caching it for every later consumer —
/// the batch runner (and through it the CLI and serve), tests and
/// benches share the same pipeline instead of re-wiring it by hand.
/// Failed stages are cached too: a session never re-parses a broken
/// design and never reports the same diagnostic twice.
///
/// A session holds two tiers. The answer tier is what requests are
/// answered from: the source, the diagnostics, the front end's verdict
/// and the program's counts, the flow graph with its sorted views, the
/// query engine and the Kemmerer/ALFP results. The work tier is what
/// builds the graph: the program, the CFG, RMlo/RMgl and the RD tier.
/// A session drops only what it never handed out: once the graph exists
/// and no caller has read the work tier (program(), cfg(), ifa(),
/// reachingDefs()), dropUnreadWork() frees it, and a later work accessor
/// rebuilds it. Every object a caller was handed stays where it was.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_DRIVER_ANALYSISSESSION_H
#define VIF_DRIVER_ANALYSISSESSION_H

#include "ifa/AlfpClosure.h"
#include "ifa/InformationFlow.h"
#include "ifa/Kemmerer.h"
#include "parse/Parser.h"
#include "query/FlowQueryEngine.h"
#include "rd/Incremental.h"
#include "sema/Elaborator.h"

#include <optional>
#include <string>

namespace vif {
namespace driver {

class ArtifactStore;

/// Wall-clock cost of each computed stage, milliseconds. A stage that was
/// never requested stays 0.
struct StageTimings {
  double ReadMs = 0;
  double ParseMs = 0;
  double ElaborateMs = 0;
  double CfgMs = 0;
  double IfaMs = 0;
  double KemmererMs = 0;
  double AlfpMs = 0;
  double QueryMs = 0;
  /// Time spent loading/decoding and encoding/writing on-disk artifacts
  /// (the `--store` path). Solver time it saved shows up as the *absence*
  /// of IfaMs/QueryMs — a warm-disk run has IfaMs ~0 and only StoreMs.
  double StoreMs = 0;

  double totalMs() const {
    return ReadMs + ParseMs + ElaborateMs + CfgMs + IfaMs + KemmererMs +
           AlfpMs + QueryMs + StoreMs;
  }
};

struct SessionOptions {
  /// Parse the input as a bare statement program instead of a design file.
  bool Statements = false;
  /// Options for the RD-guided analysis (Table 9 improvement knobs etc.).
  IFAOptions Ifa;
};

/// The elaborated program's shape, what `check` reports. It outlives the
/// program itself (see AnalysisSession::counts()).
struct ProgramCounts {
  size_t Processes = 0;
  size_t Signals = 0;
  size_t Variables = 0;
};

/// Reads \p Path into \p Out ("-" drains stdin); false on I/O failure.
/// The same reader AnalysisSession::source() uses, exposed so callers
/// that need the content up front (the content-addressed SessionCache)
/// read it identically.
bool readSourceFile(const std::string &Path, std::string &Out);

/// One design's trip through the pipeline, artifacts computed on demand.
class AnalysisSession {
public:
  /// A session that lazily reads \p Path ("-" reads stdin).
  static AnalysisSession fromFile(std::string Path,
                                  SessionOptions Opts = SessionOptions());
  /// A session over an in-memory source, labeled \p Name in results.
  static AnalysisSession fromSource(std::string Name, std::string Source,
                                    SessionOptions Opts = SessionOptions());

  AnalysisSession(AnalysisSession &&) = default;
  AnalysisSession &operator=(AnalysisSession &&) = default;

  /// Wires the incremental/persistence layer in: per-process Table 4/5
  /// artifacts are reused through the in-memory \p Table, whole-design
  /// artifacts (the matrices + flow graph, the query index) through the
  /// on-disk \p Store. Either may be null; neither is owned. Call before
  /// the first analysis accessor — artifacts already computed are never
  /// retrofitted.
  void setArtifacts(ProcessArtifactTable *Table, ArtifactStore *Store) {
    Artifacts = Table;
    Blobs = Store;
  }

  /// How the last ifa() run composed its Table 4/5 results (all zero when
  /// no table is wired, under a reference option mode, or after a
  /// whole-design store hit that skipped the solvers entirely).
  const IncrementalStats &incrementalStats() const { return IncStats; }

  /// True while ifa() holds less than the full result: a store-served
  /// one (matrices and flow graph only), or one whose work tier was
  /// dropped (flow graph only). A work accessor that needs the missing
  /// part upgrades it in place — the parts already held keep their
  /// identity, the rest is filled in.
  bool ifaPartial() const { return Tier != IfaTier::Full; }

  const std::string &name() const { return Name; }
  const SessionOptions &options() const { return Opts; }
  const DiagnosticEngine &diagnostics() const { return Diags; }
  const StageTimings &timings() const { return Times; }

  /// The raw source text; nullptr when the file cannot be read.
  const std::string *source();
  /// True once source() has failed — an I/O failure, as opposed to parse
  /// or elaboration diagnostics.
  bool unreadable() const { return SourceState == State::Failed; }

  /// The elaborated flat process model; nullptr on any earlier failure
  /// (diagnostics() holds why). Parsing and elaboration are one stage:
  /// the parse tree lives only inside it, adopted by the program, so the
  /// session never holds a tree. A work accessor: the session keeps its
  /// work tier from the first call on.
  const ElaboratedProgram *program();
  /// Labels/flow/cf facts over program(). A work accessor.
  const ProgramCFG *cfg();
  /// The RD-guided Information Flow analysis under options().Ifa,
  /// including the RD intermediates and the flow graph. A work accessor.
  const IFAResult *ifa();
  /// The underlying Reaching Definitions results (computed with ifa()).
  /// A work accessor.
  const ReachingDefsResult *reachingDefs();
  /// The program's counts; nullptr on any front-end failure. Runs the
  /// front end once, and never again for the counts.
  const ProgramCounts *counts();
  /// ifa()'s flow graph, without reading the work tier; nullptr on
  /// failure. The graph keeps its identity for the session's lifetime.
  const Digraph *graph();
  /// Kemmerer's transitive-closure baseline.
  const KemmererResult *kemmerer();
  /// The ALFP re-derivation of ifa()'s closure. Non-null whenever the
  /// solver ran; check Solved for its verdict.
  const AlfpClosureResult *alfp();
  /// The point-query engine over ifa()'s flow graph: one reachability
  /// closure + CSR index, built once and cached like every other artifact
  /// (memoryBytes() counts it against the cache budget). The engine
  /// borrows ifa()->Graph, which lives as long as the session.
  const query::FlowQueryEngine *queryEngine();

  /// Deep size of everything this session currently holds, in bytes:
  /// the source text, the diagnostics, plus the measured footprints of
  /// every computed artifact — the program and the CFG, measured once
  /// when they are built, and the analysis results
  /// (ResourceMatrix/BitMatrix/Digraph/PairSet allocations). This
  /// is what SessionCache charges an entry against its `--cache-bytes`
  /// budget; it only measures, never computes or flushes anything. Not
  /// thread-safe against concurrent lazy computation — call it while
  /// holding the session's cache-entry lock.
  size_t memoryBytes() const;
  /// The part of memoryBytes() the answer tier holds: all of it once the
  /// work tier is dropped.
  size_t answerBytes() const;
  /// True while the session holds any of its work tier.
  bool holdsWork() const {
    return Prog || Cfg || (Ifa && Tier != IfaTier::Graph);
  }

  /// Frees the work tier when the flow graph is built and no caller has
  /// read the work tier. SessionCache calls it at every release, under
  /// the entry lock. The graph and every other answer-tier object stay in
  /// place, so readers that borrow them without the lock are undisturbed.
  void dropUnreadWork();

  /// Bumped every time a lazy stage runs (successfully or not), so
  /// holders can tell whether memoryBytes() could have changed since
  /// they last measured — a pure consumer of already-computed artifacts
  /// leaves the epoch alone, and SessionCache skips the re-measure on
  /// such releases. Same thread-safety rule as memoryBytes().
  unsigned artifactEpoch() const { return ArtifactEpoch; }

private:
  AnalysisSession() = default;

  enum class State : uint8_t { NotComputed, Ok, Failed };
  /// What ifa() holds: everything, the store-served matrices and graph,
  /// or the graph alone once the work tier is dropped.
  enum class IfaTier : uint8_t { Full, Matrices, Graph };

  /// The store key for whole-design artifacts: the session cache key of
  /// (source, options). Requires the source to be loaded.
  uint64_t designKey();
  /// The bodies of program(), cfg() and ifa(), which the session's own
  /// calls use: they build (or rebuild) the stage without marking the
  /// work tier as read. buildIfa() returns whatever tier ifa() holds.
  const ElaboratedProgram *buildProgram();
  const ProgramCFG *buildCfg();
  const IFAResult *buildIfa();
  /// The solver path of buildIfa() and upgradeIfa(): the full pipeline
  /// over the program and the CFG, reusing per-process artifacts through
  /// Artifacts when wired (IncStats records how).
  IFAResult solveIfa();
  /// Fills a partial ifa() result in place (see ifaPartial()).
  void upgradeIfa();

  std::string Name;
  SessionOptions Opts;
  DiagnosticEngine Diags;
  StageTimings Times;
  unsigned ArtifactEpoch = 0;

  State SourceState = State::NotComputed;
  State ElabState = State::NotComputed;
  State CfgState = State::NotComputed;
  State IfaState = State::NotComputed;
  State KemmererState = State::NotComputed;
  State AlfpState = State::NotComputed;
  State QueryState = State::NotComputed;

  /// Borrowed wiring of the incremental layer; see setArtifacts().
  ProcessArtifactTable *Artifacts = nullptr;
  ArtifactStore *Blobs = nullptr;
  IncrementalStats IncStats;
  IfaTier Tier = IfaTier::Full;
  /// Set by the first work accessor call; the work tier is kept from then
  /// on.
  bool WorkRead = false;

  std::string Src;
  ProgramCounts Counts;
  std::optional<ElaboratedProgram> Prog;
  std::optional<ProgramCFG> Cfg;
  /// Prog->memoryBytes() and Cfg->memoryBytes(), taken as they are built.
  size_t ProgBytes = 0, CfgBytes = 0;
  std::optional<IFAResult> Ifa;
  std::optional<KemmererResult> Kemm;
  std::optional<AlfpClosureResult> Alfp;
  std::optional<query::FlowQueryEngine> Query;
};

} // namespace driver
} // namespace vif

#endif // VIF_DRIVER_ANALYSISSESSION_H
