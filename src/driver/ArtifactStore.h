//===- driver/ArtifactStore.h - On-disk analysis artifacts ------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk store of whole-design results: a directory of binary blobs
/// keyed by (kind, hash), written atomically and read back with the same
/// bounds-checked framing discipline as the v1b graph format. Two blob
/// kinds exist, both keyed by the session cache key of (source, options):
///
///   "dsgn"           whole-design results — RMlo, the closed RMgl and the
///                    flow graph — letting a fresh process skip every
///                    solver for a previously analyzed (source, options)
///                    pair. Each part is written in the shape it has in
///                    memory: flat matrix entries and successor lists as
///                    delta varints, RMgl's Table 8 rows as raw words that
///                    the decoder adopts as they are;
///   "qidx"           the flow-query reachability closure.
///
/// Per-process Table 4/5 artifacts are not persisted: re-solving them
/// costs less than writing and reading them back.
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

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace vif {
namespace driver {

inline constexpr char ArtifactStoreMagic[4] = {'V', 'I', 'F', 'S'};
inline constexpr uint32_t ArtifactStoreVersion = 3;

/// A directory of blobs. Thread-safe: loads are independent reads, stores
/// are atomic renames, counters are atomics. \p Kind is a four-character
/// tag ("dsgn", "qidx") namespacing the key space; load returns false on
/// any miss — absent, corrupt or mismatched entries are indistinguishable
/// to the caller. The directory is created on construction; if that fails
/// the store stays constructible but every load misses and every store is
/// a no-op (a missing `--store` directory must never fail an analysis).
class ArtifactStore {
public:
  explicit ArtifactStore(std::string Directory);

  const std::string &directory() const { return Dir; }
  /// True when the backing directory exists and is usable.
  bool usable() const { return Usable; }

  /// Reads blob (\p Kind, \p Key) and hands its payload to \p Decode.
  /// The load counts as a hit only when the envelope checks out *and*
  /// \p Decode accepts the payload; everything else is one miss. The
  /// payload view dies with the call.
  bool load(const char (&Kind)[5], uint64_t Key,
            const std::function<bool(std::string_view)> &Decode);
  /// The same, copying an envelope-checked payload out into \p Payload.
  bool load(const char (&Kind)[5], uint64_t Key, std::string &Payload);
  void store(const char (&Kind)[5], uint64_t Key, std::string_view Payload);

  /// A consistent snapshot of the store counters (surfaced through
  /// `vifc --store` summaries and the serve `stats` document).
  struct Counters {
    uint64_t Hits = 0;        ///< loads whose payload decoded
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
/// ("RMLO", "RMGL", "GRPH") mirroring v1b; docs/SCHEMA.md gives the
/// grammar. A matrix section is its flat entries as delta varints in
/// (label, access, resource) order; RMGL adds the R0 rows (universe and
/// raw words), and GRPH is the node names and each node's successor
/// list. Decode accepts exactly what encode writes — strictly ascending
/// entries, universes and successor lists, canonical varints, clear
/// padding bits — so a decoded payload re-encodes to the same bytes; on
/// any anomaly it returns false and leaves the outputs unspecified.
std::string encodeDesignArtifact(const IFAResult &R);
bool decodeDesignArtifact(std::string_view Payload, ResourceMatrix &RMlo,
                          ResourceMatrix &RMgl, Digraph &Graph);

/// Codecs for the query-index blob (kind "qidx", section "QIDX"): the
/// reachability closure of a FlowQueryEngine over \p Graph. decode
/// checks the closure's shape against the graph, builds the adjacency
/// from the graph itself, and returns nullopt on any mismatch (a miss;
/// the engine is rebuilt).
std::string encodeQueryIndex(const query::FlowQueryEngine &E);
std::optional<query::FlowQueryEngine>
decodeQueryIndex(std::string_view Payload, const Digraph &Graph);

} // namespace driver
} // namespace vif

#endif // VIF_DRIVER_ARTIFACTSTORE_H
