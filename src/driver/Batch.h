//===- driver/Batch.h - Multi-design batch analysis -------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one AnalysisSession per input design, concurrently over a small
/// thread pool, and aggregates the per-design outcomes — program shape,
/// graph sizes, policy verdicts, timings — into deterministic text or
/// machine-readable JSON. This is the one engine behind every `vifc`
/// analysis command (one FILE or many, text, JSON or v1b) and behind
/// `vifc serve`, and the substrate for sweeping whole design suites the
/// way SEIF's harness sweeps Verilog designs. A broken design never
/// stops the batch: its diagnostics ride along in its result slot.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_DRIVER_BATCH_H
#define VIF_DRIVER_BATCH_H

#include "driver/AnalysisSession.h"
#include "ifa/Policy.h"
#include "query/FlowQueryEngine.h"
#include "support/Graph.h"

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vif {
namespace driver {

class SessionCache;

/// One batch input: a file path, or an in-memory source labeled \p Name.
/// A path of "-" reads stdin; at most one input should do so — stdin is a
/// single stream, so runBatch serializes the whole batch (Jobs = 1) when
/// several "-" inputs appear, and every "-" after the first sees an empty
/// stream.
struct BatchInput {
  std::string Name;
  std::optional<std::string> Source;
};

/// What each design's session computes and reports.
enum class BatchMode : uint8_t { Check, Flows, Matrices, Report, Query };

/// The command name of a mode ("check", "flows", "rm", "report",
/// "query"), and back; parseBatchMode returns nullopt for any other name.
const char *batchModeName(BatchMode M);
std::optional<BatchMode> parseBatchMode(std::string_view Name);

/// Which closure produces the flow graph in Flows mode.
enum class FlowMethod : uint8_t { Native, Alfp, Kemmerer };

/// The method name ("native", "alfp", "kemmerer"), and back.
const char *flowMethodName(FlowMethod M);
std::optional<FlowMethod> parseFlowMethod(std::string_view Name);

struct BatchOptions {
  BatchMode Mode = BatchMode::Check;
  FlowMethod Method = FlowMethod::Native;
  SessionOptions Session;
  /// Evaluated in Report mode; violations count into the batch summary.
  FlowPolicy Policy;
  /// Query mode: the (source, sink) point query every design answers.
  std::string QueryFrom;
  std::string QueryTo;
  /// Worker threads; 0 picks min(#designs, #cores, 8).
  unsigned Jobs = 0;
  /// Capture the rendered audit report per design (Report mode). The
  /// text renderers need it; JSON and v1b consumers (counts + verdicts
  /// only) turn it off. Matrices are borrowed, never captured.
  bool CaptureRenderedText = true;
  /// The content-addressed cache sessions come from: designs whose
  /// (source, options) were seen before — in this batch or by an earlier
  /// request against the same cache (the `vifc serve` case) — reuse every
  /// artifact already computed. When null, runBatch (or a lone
  /// analyzeDesign) uses a cache of its own. Not owned.
  SessionCache *Cache = nullptr;
};

/// The outcome of one design, in input order.
struct DesignResult {
  std::string Name;
  bool Ok = false;
  /// I/O failure reading the input (vs analysis diagnostics).
  bool Unreadable = false;
  /// The session came out of BatchOptions::Cache warm (meaningless when
  /// no cache was configured).
  bool CacheHit = false;
  /// Rendered diagnostics — errors on failure, warnings/notes otherwise.
  std::string Diagnostics;
  StageTimings Timings;

  /// Program shape; valid once elaboration succeeded.
  size_t NumProcesses = 0;
  size_t NumSignals = 0;
  size_t NumVariables = 0;

  /// Flows / Report modes: the flow graph, borrowed from the session that
  /// computed it (or owned through Owner). Its sorted views are
  /// materialized before the producing session's lock is released, so all
  /// reads through this pointer — forEachSortedEdge, rankedNodes — are
  /// pure and need no further synchronization. Null in other modes and on
  /// failure.
  size_t NumNodes = 0;
  size_t NumEdges = 0;
  const Digraph *Graph = nullptr;

  /// Matrices mode: entry counts, and the matrices with the program that
  /// names their resources, borrowed like Graph (flushed by size() under
  /// the session's lock, so printing is a pure read).
  size_t RMloEntries = 0;
  size_t RMglEntries = 0;
  const ResourceMatrix *RMlo = nullptr;
  const ResourceMatrix *RMgl = nullptr;
  const ElaboratedProgram *Program = nullptr;

  /// Keeps everything borrowed above alive: the cache entry, or a
  /// standalone graph (the ALFP extraction). Never dereferenced.
  std::shared_ptr<const void> Owner;

  /// Report mode: the audit report and the policy verdicts.
  std::string ReportText;
  std::vector<PolicyViolation> Violations;

  /// Query mode: the point-query answer. All strings are copied out of
  /// the session (no borrow), so query results outlive it freely.
  bool Reaches = false;
  std::vector<query::WitnessStep> Witness;
  std::vector<std::string> Forward;
  std::vector<std::string> Backward;
};

struct BatchResult {
  std::vector<DesignResult> Designs;
  size_t NumOk = 0;
  size_t NumFailed = 0;
  size_t NumViolations = 0;
  /// End-to-end wall time of the batch (not the sum of per-design times).
  double WallMs = 0;

  bool allOk() const { return NumFailed == 0; }
};

/// Analyzes one input end-to-end — through BatchOptions::Cache when set —
/// and never fails fatally. The unit runBatch fans out and `vifc serve`
/// answers single requests with.
DesignResult analyzeDesign(const BatchInput &In, const BatchOptions &Opts);

/// Analyzes every input; failures are recorded, never fatal. Results come
/// back in input order regardless of scheduling.
BatchResult runBatch(const std::vector<BatchInput> &Inputs,
                     const BatchOptions &Opts);

/// Human-readable rendering, one block per design in input order: a
/// header, the diagnostics, then printDesignText with the shape line.
void printBatchText(std::ostream &OS, const BatchResult &R,
                    const BatchOptions &Opts);

/// The text of one successful design: its program-shape line when
/// \p Shape is set, then what Opts.Mode reports. printBatchText prints it
/// under each design's header; `vifc` prints it alone for a single FILE.
void printDesignText(std::ostream &OS, const DesignResult &D,
                     const BatchOptions &Opts, bool Shape);

/// One vifc.v1 JSON document with a per-design array and a summary
/// object (delegates to driver/Serialize.h's writeBatchDocument).
void printBatchJson(std::ostream &OS, const BatchResult &R,
                    const BatchOptions &Opts);

} // namespace driver
} // namespace vif

#endif // VIF_DRIVER_BATCH_H
