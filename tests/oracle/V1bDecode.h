//===- oracle/V1bDecode.h - Reference reader of v1b frames ------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference reader of the v1b response format (driver/V1b.h): maps a
/// frame back to the equivalent design-level vifc.v1 JSON document, so the
/// tests can check every frame against the JSON response of the same
/// request. Never linked into vifc itself.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_ORACLE_V1BDECODE_H
#define VIF_ORACLE_V1BDECODE_H

#include <string>
#include <string_view>

namespace vif {

/// Decodes one complete frame back into the equivalent design-level
/// vifc.v1 JSON document (compact style) — the serve JSON response minus
/// its "cacheHit", "timings", "wallMs" and "cache" members. Returns false
/// (setting \p Error when non-null) on malformed input. Unknown section
/// tags are skipped, per the version-1 compatibility policy.
bool decodeV1bToJson(std::string_view Frame, std::string &JsonOut,
                     std::string *Error = nullptr);

} // namespace vif

#endif // VIF_ORACLE_V1BDECODE_H
