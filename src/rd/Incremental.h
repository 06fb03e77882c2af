//===- rd/Incremental.h - Per-process artifact reuse ------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental layer makes the *process* the unit of caching. The
/// per-process fixpoints of Tables 4 and 5 depend only on
///
///  * the process's own statement slice (its labels, flow, blocks and the
///    variables/signals it touches) for Table 4, and
///  * additionally the factored cross-flow contributions of the *other*
///    processes' wait aggregates for Table 5,
///
/// so each solved RdProcessArtifact (one type for both tables) is keyed by
/// a canonical hash of exactly those inputs and retained in a
/// ProcessArtifactTable across re-analyses. Re-analyzing an edited design
/// re-solves only processes whose keys changed and recomposes the
/// whole-program ActiveSignalsResult / ReachingDefsResult from the
/// retained rows; the downstream Table 7 / Table 8 pipeline then reruns
/// over the recomposed inputs (ifa::composeInformationFlow).
///
/// analyzeIncremental is the one production Table 4/5 driver. A cold
/// analysis (ifa::analyzeInformationFlow without a table) runs it with no
/// table at all: it solves every process and hashes, keys and looks up
/// nothing. It has no validation modes: the cf quantifications are
/// always factored (computeWaitAggregates once per design, then
/// computeReachingDefsKillGenFor per dirty process, both in
/// rd/ReachingDefs.h), and the sorted-vector reference solvers are a
/// separate path that ifa::analyzeInformationFlow selects.
///
/// Keying is in *global coordinates*: the slice hash covers the process's
/// global labels and resource ids (never source locations), so a hash
/// match guarantees the stored rows' coordinates are valid verbatim.
/// Edits that shift labels or ids downstream simply miss and re-solve —
/// conservative, never wrong. Edits confined to one process's expressions
/// keep every other process's labels, so only the edited process misses.
///
/// The table lives in memory only, so reuse lasts one run of the program
/// (a `vifc serve` lifetime, a batch). Across restarts the driver's
/// whole-design store (driver/ArtifactStore.h) serves unchanged designs,
/// and an edited design re-solves all of its processes.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_RD_INCREMENTAL_H
#define VIF_RD_INCREMENTAL_H

#include "rd/ReachingDefs.h"

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace vif {

/// The canonical per-process slice hash: process \p P's global labels,
/// flow, block statements (target/value/condition structure, resolved
/// ids, wait-on sets) and read environment (free variables/signals and
/// the signal classes of the latter). Source locations are deliberately
/// excluded — edits elsewhere in the file shift them without changing the
/// analysis inputs. Returned vector is indexed by ProcessId.
std::vector<uint64_t> hashProcessSlices(const ElaboratedProgram &Program,
                                        const ProgramCFG &CFG);

/// A thread-safe, LRU-bounded in-memory table of per-process artifacts.
/// One table is shared by all sessions of a SessionCache, so artifacts
/// survive design-level evictions and are reused across designs that
/// share process slices. Table 4 and Table 5 artifacts share one key
/// space; analyzeIncremental checks a found artifact's layout, so a
/// 64-bit key collision costs a re-solve, never a wrong answer.
class ProcessArtifactTable {
public:
  /// \p MaxEntries bounds the in-memory map (artifact structs are small —
  /// a few KB per process — so the default comfortably covers thousands
  /// of processes before evicting least-recently-used entries).
  explicit ProcessArtifactTable(size_t MaxEntries = 1u << 16);

  /// The artifact stored under \p Key; null on a miss.
  std::shared_ptr<const RdProcessArtifact> find(uint64_t Key);
  /// Retains \p A under \p Key, evicting the least recently used entry
  /// beyond the bound.
  void insert(uint64_t Key, std::shared_ptr<const RdProcessArtifact> A);

  /// Artifacts served resp. not found.
  size_t hits() const { return Hits.load(std::memory_order_relaxed); }
  size_t misses() const { return Misses.load(std::memory_order_relaxed); }

private:
  struct Entry {
    std::shared_ptr<const RdProcessArtifact> Value;
    std::list<uint64_t>::iterator LruIt;
  };

  mutable std::mutex M;
  std::unordered_map<uint64_t, Entry> Map;
  std::list<uint64_t> Lru; ///< most recent first
  size_t Cap;
  std::atomic<size_t> Hits{0}, Misses{0};
};

/// How an incremental run was composed (surfaced through session stats
/// and asserted on by the incremental tests).
struct IncrementalStats {
  size_t ActiveReused = 0; ///< Table 4 artifacts served from the table
  size_t ActiveSolved = 0; ///< Table 4 fixpoints actually run
  size_t RdReused = 0;     ///< Table 5 artifacts served from the table
  size_t RdSolved = 0;     ///< Table 5 fixpoints actually run
};

/// Computes the Table 4 and Table 5 results for \p Program through the
/// artifact table: per process, reuse a keyed artifact when present,
/// otherwise solve and retain it. A null \p Table is a cold run: every
/// process is solved, and no slice hash or key is computed. Results
/// (including iteration totals) do not depend on the table, on which
/// artifacts were reused, nor on Opts.Jobs.
/// Opts.ReferenceSolver is not consulted here — it selects
/// ifa::analyzeInformationFlow's reference path instead of this driver.
///
/// \p Reads lists per label the resources Table 7 reads there (RMlo's R0
/// entries). With it (production: ifa::analyzeInformationFlow) \p Active
/// and \p RD keep only what Table 7, the wait kill/gen and `--alfp` read
/// (RowKeep, rd/DenseDomain.h). Without it they hold every row, the
/// full-row view kept for the tests and perfbench/layers.cpp until
/// ROADMAP item 1 moves the benchmark onto the production path.
void analyzeIncremental(const ElaboratedProgram &Program,
                        const ProgramCFG &CFG,
                        const ReachingDefsOptions &Opts,
                        ProcessArtifactTable *Table,
                        ActiveSignalsResult &Active, ReachingDefsResult &RD,
                        IncrementalStats *Stats = nullptr,
                        const ResourceRows *Reads = nullptr);

/// analyzeIncremental through \p Table (the form the tests and
/// perfbench/layers.cpp call).
inline void analyzeIncremental(const ElaboratedProgram &Program,
                               const ProgramCFG &CFG,
                               const ReachingDefsOptions &Opts,
                               ProcessArtifactTable &Table,
                               ActiveSignalsResult &Active,
                               ReachingDefsResult &RD,
                               IncrementalStats *Stats = nullptr,
                               const ResourceRows *Reads = nullptr) {
  analyzeIncremental(Program, CFG, Opts, &Table, Active, RD, Stats, Reads);
}

} // namespace vif

#endif // VIF_RD_INCREMENTAL_H
