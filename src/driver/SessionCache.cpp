//===- driver/SessionCache.cpp --------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "driver/SessionCache.h"

#include "support/Hash.h"

using namespace vif;
using namespace vif::driver;

namespace {

/// The single source of truth for which analysis options the cache is
/// sensitive to: calls \p Fn once per option bit, in a fixed order. Both
/// the hash key and the collision comparison derive from this fold, so a
/// new knob added here is automatically in both — adding a field to
/// SessionOptions/IFAOptions/ReachingDefsOptions means extending exactly
/// this function (and the pinning test).
template <typename F>
void foreachOptionBit(const SessionOptions &O, F &&Fn) {
  Fn(O.Statements);
  Fn(O.Ifa.Improved);
  Fn(O.Ifa.ProgramEndOutgoing);
  Fn(O.Ifa.ReferenceClosure);
  Fn(O.Ifa.RD.UseMustActiveKill);
  Fn(O.Ifa.RD.ReferenceSolver);
  Fn(O.Ifa.RD.HsiehLevitanCrossFlow);
  // ReachingDefsOptions::Jobs is deliberately not folded in: it changes
  // how many threads solve the per-process fixpoints, never any computed
  // artifact, so sessions are shared across --jobs settings (the pinning
  // test asserts the key is insensitive to it).
}

uint64_t packedOptionBits(const SessionOptions &O) {
  uint64_t Bits = 0;
  unsigned I = 0;
  foreachOptionBit(O, [&](bool B) { Bits |= uint64_t(B) << I++; });
  return Bits;
}

bool sameOptions(const SessionOptions &A, const SessionOptions &B) {
  return packedOptionBits(A) == packedOptionBits(B);
}

} // namespace

uint64_t vif::driver::sessionCacheKey(std::string_view Source,
                                      const SessionOptions &Opts) {
  HashBuilder H;
  H.str(Source);
  foreachOptionBit(Opts, [&](bool B) { H.boolean(B); });
  return H.value();
}

SessionCache::Ref SessionCache::acquire(std::string Name,
                                        std::string_view Source,
                                        const SessionOptions &Opts) {
  return acquireImpl(std::move(Name), Source, nullptr, Opts);
}

SessionCache::Ref SessionCache::acquireOwned(std::string Name,
                                             std::string Source,
                                             const SessionOptions &Opts) {
  return acquireImpl(std::move(Name), Source, &Source, Opts);
}

SessionCache::Ref SessionCache::acquireImpl(std::string Name,
                                            std::string_view Source,
                                            std::string *Owned,
                                            const SessionOptions &Opts) {
  uint64_t Key = sessionCacheKey(Source, Opts);
  std::shared_ptr<Entry> E;
  bool Hit = false;
  {
    std::lock_guard<std::mutex> G(M);
    auto It = Index.find(Key);
    // A key match is only a hit when the bytes and options really agree:
    // the key is a 64-bit FNV-1a, and a silent collision would serve one
    // design's covert-channel verdicts for another. On mismatch the new
    // request wins the slot (counted as an eviction + miss).
    if (It != Index.end()) {
      AnalysisSession &Cached = (*It->second)->S;
      // source() is a plain read here: fromSource sessions are born with
      // their text in place.
      const std::string *CachedSrc = Cached.source();
      if (CachedSrc && *CachedSrc == Source &&
          sameOptions(Cached.options(), Opts)) {
        Lru.splice(Lru.begin(), Lru, It->second);
        It->second = Lru.begin();
        E = *It->second;
        Hit = true;
        ++St.Hits;
      } else {
        TotalBytes -= (*It->second)->Bytes;
        Lru.erase(It->second);
        Index.erase(It);
        ++St.Evictions;
      }
    }
    if (!Hit) {
      // Materialize the owned source last: Source may view *Owned.
      E = std::make_shared<Entry>(
          Key, AnalysisSession::fromSource(
                   std::move(Name),
                   Owned ? std::move(*Owned) : std::string(Source), Opts));
      E->S.setArtifacts(ArtTable, ArtStore);
      Lru.push_front(E);
      Index[Key] = Lru.begin();
      ++St.Misses;
      while (Lru.size() > Cap) {
        TotalBytes -= Lru.back()->Bytes;
        Index.erase(Lru.back()->Key);
        Lru.pop_back();
        ++St.Evictions;
      }
    }
  }
  // The per-entry lock is taken outside the cache lock: a worker stuck
  // computing a large design must not block unrelated acquires.
  return Ref(this, std::move(E), Hit);
}

void SessionCache::noteReleased(const std::shared_ptr<Entry> &E,
                                size_t Bytes) {
  std::lock_guard<std::mutex> G(M);
  auto It = Index.find(E->Key);
  // Only resident entries participate in the byte total — E may have
  // been evicted (or its slot re-won after a collision) while this Ref
  // held it; its size then dies with the last keepAlive holder.
  if (It == Index.end() || *It->second != E)
    return;
  TotalBytes += Bytes - E->Bytes;
  E->Bytes = Bytes;
  // Evict cold entries while over budget. The floor of one entry means a
  // single design larger than the whole budget still caches — evicting
  // it would only guarantee recomputation.
  while (BytesBudget && TotalBytes > BytesBudget && Lru.size() > 1) {
    TotalBytes -= Lru.back()->Bytes;
    Index.erase(Lru.back()->Key);
    Lru.pop_back();
    ++St.Evictions;
  }
}

SessionCache::Stats SessionCache::stats() const {
  std::lock_guard<std::mutex> G(M);
  return St;
}

size_t SessionCache::size() const {
  std::lock_guard<std::mutex> G(M);
  return Lru.size();
}

size_t SessionCache::bytes() const {
  std::lock_guard<std::mutex> G(M);
  return TotalBytes;
}

void SessionCache::clear() {
  std::lock_guard<std::mutex> G(M);
  Lru.clear();
  Index.clear();
  TotalBytes = 0;
}
