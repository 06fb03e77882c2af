//===- driver/ArtifactStore.h - On-disk analysis artifacts ------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent half of the incremental layer (rd/Incremental.h): a
/// directory of binary blobs keyed by (kind, hash), written atomically and
/// read back with the same bounds-checked framing discipline as the v1b
/// graph format. Four blob kinds exist today:
///
///   "actv" / "rdpr"  per-process Table 4 / Table 5 artifacts, payloads
///                    produced by rd/Incremental.h's codecs and consulted
///                    by ProcessArtifactTable on memory misses;
///   "dsgn"           whole-design results — RMlo, the closed RMgl and the
///                    flow graph — keyed by the session cache key, letting
///                    a fresh process skip every solver for a previously
///                    analyzed (source, options) pair;
///   "qidx"           the flow-query reachability index (closure matrix +
///                    CSR adjacency) for the same key.
///
/// Every blob is one file `<kind>-<16 hex digits of key>.bin` framed as
///
///   "VIFS" | u32 version | kind[4] | u64 key | u64 len | payload | u64 fnv
///
/// (all little-endian; fnv is FNV-1a over the payload). Writes go through
/// a temp file + rename, so readers never observe a torn blob. Any
/// anomaly on read — short file, bad magic/version/kind/key/length/
/// checksum, undecodable payload — is silently a miss: the store is a
/// cache, and the worst a corrupt entry may cost is a re-solve. docs/
/// SCHEMA.md section "Artifact store" pins the format; bumping
/// ArtifactStoreVersion orphans old files (misses) without breaking them.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_DRIVER_ARTIFACTSTORE_H
#define VIF_DRIVER_ARTIFACTSTORE_H

#include "ifa/InformationFlow.h"
#include "query/FlowQueryEngine.h"
#include "rd/Incremental.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace vif {
namespace driver {

inline constexpr char ArtifactStoreMagic[4] = {'V', 'I', 'F', 'S'};
inline constexpr uint32_t ArtifactStoreVersion = 2;

/// A directory-backed ArtifactBlobStore. Thread-safe: loads are
/// independent reads, stores are atomic renames, counters are atomics.
/// The directory is created on construction; if that fails the store
/// stays constructible but every load misses and every store is a no-op
/// (a missing `--store` directory must never fail an analysis).
class ArtifactStore final : public ArtifactBlobStore {
public:
  explicit ArtifactStore(std::string Directory);

  const std::string &directory() const { return Dir; }
  /// True when the backing directory exists and is usable.
  bool usable() const { return Usable; }

  bool load(const char (&Kind)[5], uint64_t Key,
            std::string &Payload) override;
  void store(const char (&Kind)[5], uint64_t Key,
             std::string_view Payload) override;

  /// A consistent snapshot of the store counters (surfaced through
  /// `vifc --store` summaries and the serve `stats` document).
  struct Counters {
    uint64_t Hits = 0;        ///< loads served from disk
    uint64_t Misses = 0;      ///< loads that found nothing usable
    uint64_t Writes = 0;      ///< blobs written back
    uint64_t BytesRead = 0;   ///< file bytes of served loads
    uint64_t BytesWritten = 0;///< file bytes written
  };
  Counters counters() const {
    Counters C;
    C.Hits = Hits.load(std::memory_order_relaxed);
    C.Misses = Misses.load(std::memory_order_relaxed);
    C.Writes = Writes.load(std::memory_order_relaxed);
    C.BytesRead = BytesRead.load(std::memory_order_relaxed);
    C.BytesWritten = BytesWritten.load(std::memory_order_relaxed);
    return C;
  }

  /// The store filename for a blob, relative to the directory (exposed
  /// for the corruption tests, which overwrite entries in place).
  static std::string fileName(const char (&Kind)[5], uint64_t Key);

private:
  std::string Dir;
  bool Usable = false;
  std::atomic<uint64_t> Hits{0}, Misses{0}, Writes{0};
  std::atomic<uint64_t> BytesRead{0}, BytesWritten{0};
};

/// Codecs for the whole-design blob (kind "dsgn"): the partial IFAResult
/// — RMlo, RMgl and the flow graph — that every batch mode except the
/// RD/ALFP inspectors consumes. The payload is framed in tagged sections
/// ("RMLO", "RMGL", "GRPH") mirroring v1b; decode returns false on any
/// anomaly and leaves the outputs unspecified.
std::string encodeDesignArtifact(const IFAResult &R);
bool decodeDesignArtifact(std::string_view Payload, ResourceMatrix &RMlo,
                          ResourceMatrix &RMgl, Digraph &Graph);

/// Codecs for the query-index blob (kind "qidx", section "QIDX"): the
/// reachability closure and CSR adjacency of a FlowQueryEngine over
/// \p Graph. decode validates every shape invariant against the graph
/// and returns nullopt on any mismatch (a miss; the engine is rebuilt).
std::string encodeQueryIndex(const query::FlowQueryEngine &E);
std::optional<query::FlowQueryEngine>
decodeQueryIndex(std::string_view Payload, const Digraph &Graph);

} // namespace driver
} // namespace vif

#endif // VIF_DRIVER_ARTIFACTSTORE_H
