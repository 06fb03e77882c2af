//===- driver/Serialize.h - The vifc.v1 JSON wire format --------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single place every vifc JSON document is produced. Each document —
/// batch results (`--json` on check/flows/rm/report), sim and datalog
/// documents, serve responses and error objects — opens with a
/// `"schema": "vifc.v1"` member and is specified normatively in
/// docs/SCHEMA.md; a field emitted here but absent from that spec fails
/// `tools/schema_check.py`. Commands and the serve loop must route
/// through these writers instead of hand-rolling JsonWriter calls, so the
/// wire format can only drift in one reviewable file.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_DRIVER_SERIALIZE_H
#define VIF_DRIVER_SERIALIZE_H

#include "driver/Batch.h"
#include "driver/SessionCache.h"
#include "support/Json.h"

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace vif {
namespace driver {

/// The wire-format version stamped into every JSON document. Versioning
/// policy (docs/SCHEMA.md): adding optional fields keeps "vifc.v1";
/// renaming, removing or re-typing any documented field bumps to
/// "vifc.v2".
inline constexpr const char SchemaVersion[] = "vifc.v1";

/// Emits the leading "schema" member; must be the first member of every
/// top-level document object.
void writeSchemaTag(JsonWriter &J);

/// The members describing one analyzed design: file/status/diagnostics,
/// program shape, then the mode-dependent payload (graph, matrices,
/// violations) and per-stage timings. Used verbatim inside batch
/// documents and serve responses. When \p Opts.Cache is set, a
/// "cacheHit" member reports whether the design's session was reused.
void writeDesignBody(JsonWriter &J, const DesignResult &D,
                     const BatchOptions &Opts);

/// The "cache" statistics object (serve responses, stats documents).
void writeCacheObject(JsonWriter &J, const SessionCache &Cache);

class ArtifactStore;

/// The "store" statistics object — on-disk artifact hits/misses/writes
/// and byte traffic (serve stats documents and batch documents when
/// `--store` is configured).
void writeStoreObject(JsonWriter &J, const ArtifactStore &Store);

/// One complete batch document (the `--json` output of check/flows/rm/
/// report): schema, command, designs array, summary, then the cache
/// object and, when the cache has an artifact store, the store object.
void writeBatchDocument(std::ostream &OS, const BatchResult &R,
                        const BatchOptions &Opts,
                        JsonStyle Style = JsonStyle::Pretty);

/// The "error" object carried by failed serve responses and one-shot
/// error documents: a stable machine code plus a human message.
void writeErrorObject(JsonWriter &J, std::string_view Code,
                      std::string_view Message);

/// One signal's final value in a sim document.
struct SimSignalValue {
  std::string Name;
  std::string Value;
};

/// Everything `vifc sim --json` reports.
struct SimDocument {
  std::string File;
  /// simStatusName(): "quiescent" | "max-deltas" | "stuck".
  std::string Status;
  uint64_t Deltas = 0;
  /// Only meaningful when Status == "stuck".
  std::string StuckReason;
  std::vector<SimSignalValue> Signals;
};

void writeSimDocument(std::ostream &OS, const SimDocument &Doc,
                      JsonStyle Style = JsonStyle::Pretty);

/// One solved relation in a datalog document, tuples rendered as atom
/// strings and sorted for determinism.
struct DatalogRelation {
  std::string Name;
  unsigned Arity = 0;
  std::vector<std::vector<std::string>> Tuples;
};

/// Everything `vifc datalog --json` reports: the ?-queried relations and
/// the derived-tuple count.
void writeDatalogDocument(std::ostream &OS, std::string_view File,
                          const std::vector<DatalogRelation> &Relations,
                          size_t DerivedCount,
                          JsonStyle Style = JsonStyle::Pretty);

} // namespace driver
} // namespace vif

#endif // VIF_DRIVER_SERIALIZE_H
