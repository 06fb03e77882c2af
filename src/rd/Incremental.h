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
/// analyzeIncremental is the one production Table 4/5 driver: a cold
/// analysis is analyzeIncremental over a fresh, throwaway table
/// (ifa::analyzeInformationFlow), which simply misses on every process.
/// It has no validation modes: the cf quantifications are always factored
/// (computeWaitAggregates once per design, then
/// computeReachingDefsKillGenFor per dirty process, both in
/// rd/ReachingDefs.h), and the sorted-vector reference solvers are a
/// separate path that ifa::analyzeInformationFlow selects.
///
/// Keying is in *global coordinates*: the slice hash covers the process's
/// global labels and resource ids (never source locations), so a hash
/// match guarantees the stored matrices' coordinates are valid verbatim.
/// Edits that shift labels or ids downstream simply miss and re-solve —
/// conservative, never wrong. Edits confined to one process's expressions
/// keep every other process's labels, so only the edited process misses.
///
/// The table can be backed by an ArtifactBlobStore (implemented on disk by
/// driver/ArtifactStore.cpp): lookups fall through to the store on a
/// memory miss and solved artifacts are written back, which is what lets a
/// fresh session skip the solvers entirely for previously-analyzed code.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_RD_INCREMENTAL_H
#define VIF_RD_INCREMENTAL_H

#include "rd/ReachingDefs.h"

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace vif {

/// A key → blob persistence interface for analysis artifacts. Implemented
/// by driver::ArtifactStore over a directory of files; the rd layer only
/// sees this interface (it must not depend on the driver). \p Kind is a
/// four-character tag ("actv", "rdpr", ...) namespacing the key space.
/// load returns false on any miss — absent, corrupt, or mismatched
/// entries are indistinguishable to the caller. Implementations must be
/// safe to call from multiple threads.
class ArtifactBlobStore {
public:
  virtual ~ArtifactBlobStore();
  virtual bool load(const char (&Kind)[5], uint64_t Key,
                    std::string &Payload) = 0;
  virtual void store(const char (&Kind)[5], uint64_t Key,
                     std::string_view Payload) = 0;
};

/// The canonical per-process slice hash: process \p P's global labels,
/// flow, block statements (target/value/condition structure, resolved
/// ids, wait-on sets) and read environment (free variables/signals and
/// the signal classes of the latter). Source locations are deliberately
/// excluded — edits elsewhere in the file shift them without changing the
/// analysis inputs. Returned vector is indexed by ProcessId.
std::vector<uint64_t> hashProcessSlices(const ElaboratedProgram &Program,
                                        const ProgramCFG &CFG);

/// The binary codec of a per-process artifact (the payload stored through
/// ArtifactBlobStore): iterations, shape, domain, then the Entry and Exit
/// matrices, followed by MustEntry and MustExit when \p A carries them —
/// the "actv" payload of Table 4 has four matrices, the "rdpr" payload of
/// Table 5 two. The decoder expects the must matrices iff \p Must; it is
/// bounds-checked, validates shape invariants, and returns false on any
/// anomaly, which the table treats as a miss.
std::string encodeProcessArtifact(const RdProcessArtifact &A);
bool decodeProcessArtifact(std::string_view Blob, bool Must,
                           RdProcessArtifact &A);

/// A thread-safe, LRU-bounded in-memory table of per-process artifacts,
/// optionally backed by an ArtifactBlobStore. One table is shared by all
/// sessions of a SessionCache, so artifacts survive design-level
/// evictions and are reused across designs that share process slices.
class ProcessArtifactTable {
public:
  /// \p MaxEntries bounds the in-memory map (artifact structs are small —
  /// a few KB per process — so the default comfortably covers thousands
  /// of processes before evicting least-recently-used entries).
  explicit ProcessArtifactTable(size_t MaxEntries = 1u << 16);

  /// Attaches (or detaches, with nullptr) the on-disk backing store.
  /// Not synchronized against concurrent find/insert — wire it up before
  /// the table is shared.
  void setBacking(ArtifactBlobStore *S) { Backing = S; }

  /// The artifact stored under \p Key, from memory or else from the
  /// backing store's \p Kind namespace (decoded with or without the must
  /// matrices, per \p Must); null on a miss.
  std::shared_ptr<const RdProcessArtifact>
  find(const char (&Kind)[5], uint64_t Key, bool Must);
  /// Retains \p A under \p Key and writes it through to the backing store.
  void insert(const char (&Kind)[5], uint64_t Key,
              std::shared_ptr<const RdProcessArtifact> A);

  /// Artifacts served (memory or backing store) resp. not found.
  size_t hits() const { return Hits.load(std::memory_order_relaxed); }
  size_t misses() const { return Misses.load(std::memory_order_relaxed); }

private:
  std::shared_ptr<const RdProcessArtifact> findInMemory(uint64_t Key);
  void insertInMemory(uint64_t Key,
                      std::shared_ptr<const RdProcessArtifact> V);

  struct Entry {
    std::shared_ptr<const RdProcessArtifact> Value;
    std::list<uint64_t>::iterator LruIt;
  };

  mutable std::mutex M;
  std::unordered_map<uint64_t, Entry> Map;
  std::list<uint64_t> Lru; ///< most recent first
  size_t Cap;
  ArtifactBlobStore *Backing = nullptr;
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
/// otherwise solve and retain it. Results (including iteration totals) do
/// not depend on which artifacts were reused, nor on Opts.Jobs.
/// Opts.ReferenceSolver is not consulted here — it selects
/// ifa::analyzeInformationFlow's reference path instead of this driver.
void analyzeIncremental(const ElaboratedProgram &Program,
                        const ProgramCFG &CFG,
                        const ReachingDefsOptions &Opts,
                        ProcessArtifactTable &Table,
                        ActiveSignalsResult &Active, ReachingDefsResult &RD,
                        IncrementalStats *Stats = nullptr);

} // namespace vif

#endif // VIF_RD_INCREMENTAL_H
