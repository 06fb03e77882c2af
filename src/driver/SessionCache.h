//===- driver/SessionCache.h - Content-addressed session cache -*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe LRU cache of AnalysisSessions keyed by the content hash
/// of the VHDL source text plus the analysis options. Re-analyzing an
/// unchanged design reuses every artifact the cached session already
/// computed (parse → elaborate → CFG → RD → IFA, lazily, at most once —
/// AnalysisSession's contract), so a cache hit that only needs `check`
/// data costs nothing beyond the hash, and a later `flows` request on the
/// same source extends the same session instead of starting over. This is
/// the warm-session substrate behind `vifc serve` and the batch runner
/// (docs/SERVER.md describes the service semantics).
///
/// The key is content-addressed: the input's *name* does not participate,
/// so identical sources under different paths share one entry (rendered
/// diagnostics carry line:col only, never the name, which keeps that
/// sharing observable only as a speedup). The analysis mode (check vs
/// flows vs report) and the policy are not in the key either — they
/// select which artifacts of the session are consumed, not how they are
/// computed.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_DRIVER_SESSIONCACHE_H
#define VIF_DRIVER_SESSIONCACHE_H

#include "driver/AnalysisSession.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

namespace vif {
namespace driver {

/// The cache key for one (source text, analysis options) pair. Every
/// option that changes any computable artifact must be folded in —
/// adding a knob to SessionOptions/IFAOptions/ReachingDefsOptions means
/// extending the foreachOptionBit fold in SessionCache.cpp, which this
/// key and the collision verifier both derive from
/// (tests/session_cache_test.cpp pins the sensitivity of each existing
/// knob).
uint64_t sessionCacheKey(std::string_view Source, const SessionOptions &Opts);

class SessionCache {
public:
  static constexpr size_t DefaultCapacity = 32;

  /// \p Capacity bounds the entry count; \p BytesBudget, when non-zero,
  /// additionally bounds the sum of measured entry sizes
  /// (AnalysisSession::memoryBytes) — both enforce LRU eviction, and the
  /// byte budget always keeps at least one entry so a single oversized
  /// design still caches.
  explicit SessionCache(size_t Capacity = DefaultCapacity,
                        size_t BytesBudget = 0)
      : Cap(Capacity ? Capacity : 1), BytesBudget(BytesBudget) {}
  SessionCache(const SessionCache &) = delete;
  SessionCache &operator=(const SessionCache &) = delete;

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
  };

  /// An acquired session: keeps the entry alive (even across eviction)
  /// and holds its per-entry lock, so concurrent batch workers that land
  /// on the same content serialize their lazy computations instead of
  /// racing. Release it (let it go out of scope) promptly — releasing is
  /// also when the entry's byte size is (re)measured and the byte budget
  /// enforced, so sizes account for whatever artifacts the holder just
  /// computed.
  class Ref {
  public:
    Ref(Ref &&) = default;
    /// Move-assignment releases the currently held entry first — unlock,
    /// then report its size and drop ownership — and only then rebinds,
    /// preserving the ordering invariant that the old entry (and its
    /// mutex) must never be destroyed while Lock still holds it.
    Ref &operator=(Ref &&O) noexcept {
      if (this != &O) {
        release();
        C = O.C;
        O.C = nullptr;
        E = std::move(O.E);
        Hit = O.Hit;
        Lock = std::move(O.Lock);
      }
      return *this;
    }
    ~Ref() { release(); }

    AnalysisSession &session() const { return E->S; }
    /// True when the session already existed (a cache hit).
    bool hit() const { return Hit; }
    uint64_t key() const { return E->Key; }
    /// Shared ownership of the entry *without* its lock, for results that
    /// borrow session artifacts (e.g. a flow graph) beyond the Ref's
    /// lifetime: the artifacts stay alive across eviction, but nothing
    /// stays locked — holding locked Refs long-term would deadlock the
    /// next acquire of the same content.
    std::shared_ptr<const void> keepAlive() const { return E; }

  private:
    friend class SessionCache;
    struct Entry {
      Entry(uint64_t Key, AnalysisSession S) : Key(Key), S(std::move(S)) {}
      uint64_t Key;
      AnalysisSession S;
      std::mutex M;
      /// Last measured session size; guarded by the *cache* mutex.
      size_t Bytes = 0;
      /// S.artifactEpoch() at the last measure; guarded by the *entry*
      /// mutex M (written by the Ref that holds it). The sentinel makes
      /// the very first release measure unconditionally.
      unsigned MeasuredEpoch = ~0u;
    };
    Ref(SessionCache *C, std::shared_ptr<Entry> E, bool Hit)
        : C(C), E(std::move(E)), Hit(Hit), Lock(this->E->M) {}

    /// Measures the session (still under the entry lock), unlocks, then
    /// reports the size to the cache — which may evict over-budget
    /// entries, possibly including this one. Releases that computed
    /// nothing new (the artifact epoch is unchanged) skip both the deep
    /// measure and the cache round trip, so the pure-hit path costs no
    /// more than the unlock.
    void release() {
      if (!E)
        return;
      unsigned Epoch = E->S.artifactEpoch();
      bool Changed = Epoch != E->MeasuredEpoch;
      size_t Bytes = 0;
      if (Changed) {
        Bytes = E->S.memoryBytes();
        E->MeasuredEpoch = Epoch;
      }
      Lock = std::unique_lock<std::mutex>();
      if (C && Changed)
        C->noteReleased(E, Bytes);
      E.reset();
      C = nullptr;
    }

    SessionCache *C = nullptr;
    std::shared_ptr<Entry> E;
    bool Hit = false;
    std::unique_lock<std::mutex> Lock;
  };

  /// Returns the cached session for (\p Source, \p Opts), inserting a
  /// fresh one (labeled \p Name) on miss and evicting the least recently
  /// used entry beyond capacity. On a hit the session keeps the name it
  /// was first inserted under, and the source is never copied: acquire()
  /// only materializes an owned string on miss, acquireOwned() moves the
  /// caller's buffer in (for callers that just read it and would
  /// otherwise pay a second copy).
  Ref acquire(std::string Name, std::string_view Source,
              const SessionOptions &Opts);
  Ref acquireOwned(std::string Name, std::string Source,
                   const SessionOptions &Opts);

  /// Every session created on a miss gets this wiring (see
  /// AnalysisSession::setArtifacts): per-process artifacts shared across
  /// all entries through \p Table, whole-design artifacts through
  /// \p Store. Neither is owned; configure before the cache is shared
  /// across threads.
  void setArtifacts(ProcessArtifactTable *Table, ArtifactStore *Store) {
    ArtTable = Table;
    ArtStore = Store;
  }
  /// The store set by setArtifacts, or null.
  const ArtifactStore *artifactStore() const { return ArtStore; }

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return Cap; }
  /// Sum of the measured sizes of resident entries. An entry's size is
  /// measured when its Ref is released, so entries currently being
  /// computed for the first time count as 0 until released.
  size_t bytes() const;
  /// The configured byte budget; 0 = unlimited.
  size_t bytesBudget() const { return BytesBudget; }
  void clear();

private:
  using Entry = Ref::Entry;

  /// \p Owned, when non-null, is the string \p Source views and may be
  /// moved from on miss.
  Ref acquireImpl(std::string Name, std::string_view Source,
                  std::string *Owned, const SessionOptions &Opts);

  /// Records \p E's freshly measured size and evicts LRU entries while
  /// the byte budget is exceeded (keeping at least one entry). Called by
  /// Ref::release with the entry lock already dropped.
  void noteReleased(const std::shared_ptr<Entry> &E, size_t Bytes);

  size_t Cap;
  size_t BytesBudget;
  ProcessArtifactTable *ArtTable = nullptr;
  ArtifactStore *ArtStore = nullptr;
  /// Sum of Entry::Bytes over resident (indexed) entries; guarded by M.
  size_t TotalBytes = 0;
  mutable std::mutex M;
  /// Front = most recently used.
  std::list<std::shared_ptr<Entry>> Lru;
  std::unordered_map<uint64_t, std::list<std::shared_ptr<Entry>>::iterator>
      Index;
  Stats St;
};

} // namespace driver
} // namespace vif

#endif // VIF_DRIVER_SESSIONCACHE_H
