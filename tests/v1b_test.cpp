//===- tests/v1b_test.cpp - Binary v1b response format --------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The v1b binary response format end-to-end: every analysis command
/// round-trips through encode + decode back to the equivalent vifc.v1
/// JSON document, repeated identical requests yield byte-identical
/// frames, frames self-delimit by their header length, malformed frames
/// are rejected and unknown sections are skipped (the version-1
/// compatibility policy). Plus the streaming-edge differential: on
/// fuzz-generated designs forEachSortedEdge must enumerate exactly the
/// edge list gathered through successors() and sorted by name.
///
//===----------------------------------------------------------------------===//

#include "driver/AnalysisSession.h"
#include "driver/Serve.h"
#include "driver/V1b.h"
#include "gen/Generator.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace vif;
using namespace vif::driver;

namespace {

const char MuxSource[] =
    "entity mux is port(d0 : in std_logic; d1 : in std_logic;"
    " sel : in std_logic; q : out std_logic); end mux;"
    " architecture rtl of mux is begin p : process begin"
    " if sel = '1' then q <= d1; else q <= d0; end if;"
    " wait on d0, d1, sel; end process p; end rtl;";

std::string request(const std::string &Command, const std::string &Id,
                    bool V1b, const std::string &ExtraMembers = "") {
  std::ostringstream OS;
  OS << "{\"schema\":\"vifc.v1\",\"id\":" << Id << ",\"command\":\""
     << Command << "\",\"source\":\"" << jsonEscape(MuxSource) << "\"";
  if (V1b)
    OS << ",\"format\":\"v1b\"";
  if (!ExtraMembers.empty())
    OS << "," << ExtraMembers;
  OS << "}";
  return OS.str();
}

/// Re-serializes a parsed JsonValue compactly, skipping the named
/// top-level members — used to strip the non-deterministic timing/cache
/// members a JSON response carries but a v1b frame deliberately omits.
/// Number re-emission matches the decoder's policy (integers in the
/// exact-double range as integers) so both sides compare as strings.
void reserialize(JsonWriter &J, const JsonValue &V) {
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    J.null();
    break;
  case JsonValue::Kind::Bool:
    J.value(V.asBool());
    break;
  case JsonValue::Kind::Number: {
    double N = V.asNumber();
    if (N == std::floor(N) && std::abs(N) <= 9007199254740992.0)
      J.value(static_cast<long long>(N));
    else
      J.value(N);
    break;
  }
  case JsonValue::Kind::String:
    J.value(V.asString());
    break;
  case JsonValue::Kind::Array:
    J.beginArray();
    for (const JsonValue &E : V.elements())
      reserialize(J, E);
    J.endArray();
    break;
  case JsonValue::Kind::Object:
    J.beginObject();
    for (const auto &[Key, Value] : V.members()) {
      J.key(Key);
      reserialize(J, Value);
    }
    J.endObject();
    break;
  }
}

std::string stripVolatile(const std::string &Json) {
  std::optional<JsonValue> Doc = parseJson(Json);
  EXPECT_TRUE(Doc && Doc->isObject()) << Json;
  if (!Doc || !Doc->isObject())
    return "";
  // contentKey is deterministic but, like the cache bookkeeping, a
  // JSON-transport member a v1b frame deliberately omits.
  const std::set<std::string> Volatile = {"cacheHit", "timings", "wallMs",
                                          "cache", "contentKey"};
  std::ostringstream OS;
  JsonWriter J(OS, JsonStyle::Compact);
  J.beginObject();
  for (const auto &[Key, Value] : Doc->members()) {
    if (Volatile.count(Key))
      continue;
    J.key(Key);
    reserialize(J, Value);
  }
  J.endObject();
  return OS.str();
}

std::string decode(const std::string &Frame) {
  std::string Json, Error;
  EXPECT_TRUE(decodeV1bToJson(Frame, Json, &Error)) << Error;
  return Json;
}

TEST(V1b, RoundTripEveryCommand) {
  struct Case {
    const char *Command;
    const char *Extra;
  } Cases[] = {
      {"check", ""},
      {"flows", ""},
      {"flows", "\"options\":{\"method\":\"kemmerer\"}"},
      {"flows", "\"options\":{\"method\":\"alfp\"}"},
      {"rm", ""},
      {"report",
       "\"options\":{\"forbid\":[{\"from\":\"sel\",\"to\":\"q\"}]}"},
      {"query", "\"options\":{\"from\":\"sel\",\"to\":\"q\"}"},
      {"query", "\"options\":{\"from\":\"q\",\"to\":\"sel\"}"},
  };
  for (const Case &C : Cases) {
    // One server per case so the JSON and v1b requests hit the same
    // warm cache state.
    Server S;
    std::string Json = S.handleLine(request(C.Command, "\"r1\"", false,
                                            C.Extra));
    std::string Frame = S.handleLine(request(C.Command, "\"r1\"", true,
                                             C.Extra));
    ASSERT_EQ(v1bFrameLength(Frame), Frame.size()) << C.Command;
    EXPECT_EQ(decode(Frame), stripVolatile(Json))
        << C.Command << " " << C.Extra;
  }
}

TEST(V1b, ByteDeterministicAcrossRepeats) {
  Server S;
  std::string Req = request("flows", "7", true);
  std::string Cold = S.handleLine(Req); // cache miss
  std::string Warm = S.handleLine(Req); // cache hit
  EXPECT_FALSE(Cold.empty());
  EXPECT_EQ(Cold, Warm);
}

TEST(V1b, IdTokenForms) {
  Server S;
  struct Case {
    const char *IdJson;
    const char *Expect; // expected "id" fragment in the decoded document
  } Cases[] = {
      {"\"req-1\"", "\"id\":\"req-1\""},
      {"42", "\"id\":42"},
      {"null", "\"id\":null"},
  };
  for (const Case &C : Cases) {
    std::string Json = decode(S.handleLine(request("check", C.IdJson, true)));
    EXPECT_NE(Json.find(C.Expect), std::string::npos) << Json;
  }
  // No id at all: no IDNT section, no "id" member.
  std::string NoId = S.handleLine(
      "{\"command\":\"check\",\"format\":\"v1b\",\"source\":\"" +
      jsonEscape(MuxSource) + "\"}");
  EXPECT_EQ(decode(NoId).find("\"id\""), std::string::npos);
}

TEST(V1b, AnalysisFailureStillFrames) {
  Server S;
  std::string Frame = S.handleLine(
      "{\"command\":\"check\",\"format\":\"v1b\",\"source\":\"entity \"}");
  ASSERT_EQ(v1bFrameLength(Frame), Frame.size());
  std::string Json = decode(Frame);
  EXPECT_NE(Json.find("\"status\":\"error\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"diagnostics\""), std::string::npos) << Json;
}

TEST(V1b, ProtocolErrorsStayJson) {
  Server S;
  // Malformed requests answer in JSON even when the client asked for
  // v1b — there may be no valid analysis to frame.
  std::string Resp = S.handleLine(
      "{\"command\":\"check\",\"format\":\"v1b\",\"bogus\":1}");
  EXPECT_EQ(v1bFrameLength(Resp), 0u);
  EXPECT_EQ(Resp[0], '{');
  EXPECT_NE(Resp.find("bad-request"), std::string::npos);
  // Unknown format value.
  Resp = S.handleLine("{\"command\":\"check\",\"format\":\"xml\",\"source\""
                      ":\"x\"}");
  EXPECT_NE(Resp.find("unknown format"), std::string::npos);
  // Non-analysis commands take no format member.
  Resp = S.handleLine("{\"command\":\"ping\",\"format\":\"v1b\"}");
  EXPECT_NE(Resp.find("takes no input or options"), std::string::npos);
}

TEST(V1b, FrameLengthSelfDelimits) {
  Server S;
  std::string A = S.handleLine(request("check", "1", true));
  std::string B = S.handleLine(request("flows", "2", true));
  std::string Stream = A + B;
  ASSERT_EQ(v1bFrameLength(Stream), A.size());
  std::string_view Rest = std::string_view(Stream).substr(A.size());
  ASSERT_EQ(v1bFrameLength(Rest), B.size());
  // Not a frame / too short.
  EXPECT_EQ(v1bFrameLength("VIFB"), 0u);
  EXPECT_EQ(v1bFrameLength("{\"schema\":\"vifc.v1\"}"), 0u);
}

TEST(V1b, DecodeRejectsMalformed) {
  Server S;
  std::string Frame = S.handleLine(request("flows", "1", true));
  std::string Json, Error;
  // Bad magic.
  std::string Bad = Frame;
  Bad[0] = 'X';
  EXPECT_FALSE(decodeV1bToJson(Bad, Json, &Error));
  // Truncated.
  EXPECT_FALSE(decodeV1bToJson(std::string_view(Frame).substr(
                                   0, Frame.size() - 1),
                               Json, &Error));
  // Trailing garbage (frame length no longer matches).
  EXPECT_FALSE(decodeV1bToJson(Frame + "x", Json, &Error));
  // Unsupported version.
  Bad = Frame;
  Bad[4] = 2;
  EXPECT_FALSE(decodeV1bToJson(Bad, Json, &Error));
}

/// Patches little-endian integers inside a frame, to synthesize inputs
/// the encoder never produces.
void pokeU32(std::string &B, size_t Off, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B[Off + I] = static_cast<char>((V >> (8 * I)) & 0xff);
}
void pokeU64(std::string &B, size_t Off, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B[Off + I] = static_cast<char>((V >> (8 * I)) & 0xff);
}

TEST(V1b, UnknownSectionsAreSkipped) {
  Server S;
  std::string Frame = S.handleLine(request("flows", "9", true));
  std::string Expected = decode(Frame);
  // Append an unknown section and patch the header: same document must
  // come back — version 1 readers skip tags they don't know.
  std::string_view Payload = "future";
  std::string Extended = Frame;
  Extended += "ZZZZ";
  std::string Len(8, '\0');
  pokeU64(Len, 0, Payload.size());
  Extended += Len;
  Extended += Payload;
  pokeU64(Extended, 8, Extended.size()); // frame length
  uint32_t Sections = static_cast<uint8_t>(Frame[16]) |
                      (static_cast<uint8_t>(Frame[17]) << 8) |
                      (static_cast<uint8_t>(Frame[18]) << 16) |
                      (static_cast<uint8_t>(Frame[19]) << 24);
  pokeU32(Extended, 16, Sections + 1);
  EXPECT_EQ(decode(Extended), Expected);
}

TEST(V1b, EdgeIndicesOutOfRangeRejected) {
  Server S;
  std::string Frame = S.handleLine(request("flows", "3", true));
  // Find the EDGE section and poke its first "from" index out of range.
  size_t Pos = Frame.find("EDGE");
  ASSERT_NE(Pos, std::string::npos);
  std::string Bad = Frame;
  pokeU32(Bad, Pos + 4 + 8 + 8, 0xfffffffe);
  std::string Json, Error;
  EXPECT_FALSE(decodeV1bToJson(Bad, Json, &Error));
  EXPECT_NE(Error.find("EDGE"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Streaming-edge differential: forEachSortedEdge vs a sorted edge list
//===----------------------------------------------------------------------===//

TEST(V1b, StreamingEdgeOrderMatchesLegacyOnFuzzDesigns) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    std::string Source = gen::generateDesign(Seed);
    AnalysisSession S = AnalysisSession::fromSource(
        "gen-" + std::to_string(Seed), Source, {});
    if (!S.program())
      continue; // generator emits valid designs; belt and braces
    const Digraph &G = S.ifa()->Graph;

    std::vector<std::pair<std::string, std::string>> Legacy;
    for (Digraph::NodeId From = 0; From < G.numNodes(); ++From)
      for (Digraph::NodeId To : G.successors(From))
        Legacy.emplace_back(std::string(G.name(From)),
                            std::string(G.name(To)));
    std::sort(Legacy.begin(), Legacy.end());
    std::vector<std::pair<std::string, std::string>> Streamed;
    Streamed.reserve(Legacy.size());
    G.forEachSortedEdge([&](std::string_view From, std::string_view To) {
      Streamed.emplace_back(std::string(From), std::string(To));
    });
    EXPECT_EQ(Streamed, Legacy) << "seed " << Seed;

    // And the ranked variant indexes the same pairs through the node
    // rank table.
    const std::vector<Digraph::NodeId> &Ranked = G.rankedNodes();
    size_t I = 0;
    G.forEachSortedEdgeRanked([&](Digraph::NodeId From, Digraph::NodeId To) {
      ASSERT_LT(I, Streamed.size());
      EXPECT_EQ(G.name(Ranked[From]), Streamed[I].first);
      EXPECT_EQ(G.name(Ranked[To]), Streamed[I].second);
      ++I;
    });
    EXPECT_EQ(I, Streamed.size());
  }
}

} // namespace
