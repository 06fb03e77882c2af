//===- driver/V1b.h - The binary columnar v1b response format ---*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `v1b` binary response format: the columnar sibling of the
/// `vifc.v1` JSON analysis documents, for bulk consumers that want edge
/// lists as integers, not escaped strings. A response is one
/// self-delimiting frame of length-prefixed sections (node string table,
/// u32 edge-rank pairs, verdicts); docs/SCHEMA.md specifies the layout
/// normatively and tools/schema_check.py pins the section table against
/// it. Requested with `"format": "v1b"` in `vifc serve` and
/// `--format=v1b` on the CLI. The reference reader, which maps a frame
/// back to the equivalent design-level `vifc.v1` JSON document, is
/// test-only (tests/oracle/V1bDecode.h).
///
//===----------------------------------------------------------------------===//

#ifndef VIF_DRIVER_V1B_H
#define VIF_DRIVER_V1B_H

#include "driver/Batch.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace vif {
class JsonValue;
namespace driver {

/// Frame magic ("VIFB") and format version. Versioning policy
/// (docs/SCHEMA.md): adding new optional sections keeps version 1 —
/// readers skip unknown section tags; changing the layout of an existing
/// section bumps the version.
inline constexpr char V1bMagic[4] = {'V', 'I', 'F', 'B'};
inline constexpr uint32_t V1bVersion = 1;

/// Appends one v1b frame for \p D to \p Out. \p IdToken, when non-empty,
/// is the request's "id" rendered as a JSON value token (e.g. `"req-1"`,
/// `42`, `null`) and is echoed in the IDNT section. Timings and cache
/// statistics are deliberately not part of a frame, so identical requests
/// produce byte-identical frames.
void writeV1bDesign(std::string &Out, const DesignResult &D,
                    const BatchOptions &Opts, std::string_view IdToken = {});

/// The request "id" (a string, number or null JSON value) as a JSON value
/// token: the one rendering that JSON responses echo after "id" and the
/// IDNT section carries. Integral numbers within ±2^53 (where a double
/// holds integers exactly) print as integers; other finite numbers use
/// JsonWriter's %.6g double formatting and non-finite ones print null
/// (docs/SERVER.md tells clients to use strings or integers).
std::string renderIdToken(const JsonValue &Id);

/// One frame per design, in input order (the `--format=v1b` CLI output).
void printBatchV1b(std::ostream &OS, const BatchResult &R,
                   const BatchOptions &Opts);

/// The total byte length of the frame starting at \p Bytes, read from its
/// header; 0 when \p Bytes is too short or not a v1b frame. Stream
/// readers use this to split concatenated frames.
uint64_t v1bFrameLength(std::string_view Bytes);

} // namespace driver
} // namespace vif

#endif // VIF_DRIVER_V1B_H
