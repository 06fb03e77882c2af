//===- oracle/V1bDecode.cpp -----------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "oracle/V1bDecode.h"

#include "driver/V1b.h"
#include "support/BinaryIO.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <cstring>
#include <sstream>
#include <vector>

using namespace vif;
using namespace vif::driver;

namespace {

const char *commandName(uint8_t Code) {
  switch (Code) {
  case 0:
    return "check";
  case 1:
    return "flows";
  case 2:
    return "rm";
  case 3:
    return "report";
  case 4:
    return "query";
  }
  return nullptr;
}

const char *methodName(uint8_t Code) {
  switch (Code) {
  case 0:
    return "native";
  case 1:
    return "alfp";
  case 2:
    return "kemmerer";
  }
  return nullptr;
}

bool fail(std::string *Error, const char *Message) {
  if (Error)
    *Error = Message;
  return false;
}

} // namespace

bool vif::decodeV1bToJson(std::string_view Frame, std::string &JsonOut,
                          std::string *Error) {
  ByteReader C(Frame);
  std::string_view Magic = C.raw(4);
  if (!C.ok() || std::memcmp(Magic.data(), V1bMagic, 4) != 0)
    return fail(Error, "not a v1b frame (bad magic)");
  if (C.u32() != V1bVersion)
    return fail(Error, "unsupported v1b version");
  uint64_t FrameLen = C.u64();
  if (FrameLen != Frame.size())
    return fail(Error, "frame length mismatch");
  uint32_t SectionCount = C.u32();

  // Collect the section payloads by tag; unknown tags are skipped.
  std::string_view Meta, IdTok, Diag, NodeSec, EdgeSec, Mtrx, Viol, Qres;
  bool HasMeta = false, HasNode = false, HasEdge = false, HasMtrx = false,
       HasViol = false, HasQres = false;
  for (uint32_t I = 0; I < SectionCount; ++I) {
    std::string_view Tag = C.raw(4);
    if (!C.ok())
      return fail(Error, "truncated section header");
    std::string_view Payload = C.raw(C.u64());
    if (!C.ok())
      return fail(Error, "truncated section payload");
    if (Tag == "META") {
      Meta = Payload;
      HasMeta = true;
    } else if (Tag == "IDNT") {
      IdTok = Payload;
    } else if (Tag == "DIAG") {
      Diag = Payload;
    } else if (Tag == "NODE") {
      NodeSec = Payload;
      HasNode = true;
    } else if (Tag == "EDGE") {
      EdgeSec = Payload;
      HasEdge = true;
    } else if (Tag == "MTRX") {
      Mtrx = Payload;
      HasMtrx = true;
    } else if (Tag == "VIOL") {
      Viol = Payload;
      HasViol = true;
    } else if (Tag == "QRES") {
      Qres = Payload;
      HasQres = true;
    }
  }
  if (!(C.ok() && C.atEnd()))
    return fail(Error, "trailing bytes after last section");
  if (!HasMeta)
    return fail(Error, "missing META section");

  ByteReader M(Meta);
  uint8_t Command = M.u8();
  uint8_t Method = M.u8();
  bool Ok = M.u8() != 0;
  bool Unreadable = M.u8() != 0;
  std::string_view Name = M.str32();
  uint64_t Processes = M.u64();
  uint64_t Signals = M.u64();
  uint64_t Variables = M.u64();
  if (!(M.ok() && M.atEnd()))
    return fail(Error, "malformed META section");
  const char *CommandStr = commandName(Command);
  const char *MethodStr = methodName(Method);
  if (!CommandStr || !MethodStr)
    return fail(Error, "unknown command or method code");

  std::ostringstream OS;
  JsonWriter J(OS, JsonStyle::Compact);
  J.beginObject();
  J.member("schema", "vifc.v1");
  if (!IdTok.empty()) {
    // The token is a complete JSON value (string, number or null); parse
    // and re-emit it so JsonOut stays well-formed even on a hostile frame.
    std::string ParseError;
    std::optional<JsonValue> Id = parseJson(IdTok, &ParseError);
    if (!Id || (!Id->isString() && !Id->isNumber() && !Id->isNull()))
      return fail(Error, "malformed IDNT section");
    J.key("id");
    J.rawValue(renderIdToken(*Id));
  }
  J.member("command", CommandStr);
  if (Command == 1) // flows
    J.member("method", MethodStr);
  J.member("file", Name);
  J.member("status", Ok ? "ok" : "error");
  if (Unreadable)
    J.member("unreadable", true);
  if (!Diag.empty())
    J.member("diagnostics", Diag);
  if (Ok) {
    J.member("processes", Processes);
    J.member("signals", Signals);
    J.member("variables", Variables);
  }
  if (Ok && HasNode && HasEdge) {
    ByteReader N(NodeSec);
    uint32_t NodeCount = N.u32();
    std::vector<std::string_view> Nodes;
    Nodes.reserve(NodeCount);
    for (uint32_t I = 0; I < NodeCount && N.ok(); ++I)
      Nodes.push_back(N.str32());
    if (!(N.ok() && N.atEnd()) || Nodes.size() != NodeCount)
      return fail(Error, "malformed NODE section");
    ByteReader E(EdgeSec);
    uint64_t EdgeCount = E.u64();
    J.key("graph");
    J.beginObject();
    J.member("nodes", NodeCount);
    J.member("edges", EdgeCount);
    J.key("edgeList");
    J.beginArray();
    for (uint64_t I = 0; I < EdgeCount; ++I) {
      uint32_t From = E.u32(), To = E.u32();
      if (!E.ok() || From >= NodeCount || To >= NodeCount)
        return fail(Error, "malformed EDGE section");
      J.beginObject();
      J.member("from", Nodes[From]);
      J.member("to", Nodes[To]);
      J.endObject();
    }
    J.endArray();
    J.endObject();
    if (!(E.ok() && E.atEnd()))
      return fail(Error, "malformed EDGE section");
  }
  if (Ok && HasMtrx) {
    ByteReader X(Mtrx);
    uint64_t RMlo = X.u64(), RMgl = X.u64();
    if (!(X.ok() && X.atEnd()))
      return fail(Error, "malformed MTRX section");
    J.key("matrices");
    J.beginObject();
    J.member("rmlo", RMlo);
    J.member("rmgl", RMgl);
    J.endObject();
  }
  if (Ok && HasViol) {
    ByteReader V(Viol);
    uint32_t Count = V.u32();
    J.key("violations");
    J.beginArray();
    for (uint32_t I = 0; I < Count; ++I) {
      std::string_view From = V.str32(), To = V.str32();
      bool ViaPath = V.u8() != 0;
      if (!V.ok())
        return fail(Error, "malformed VIOL section");
      J.beginObject();
      J.member("from", From);
      J.member("to", To);
      J.member("viaPath", ViaPath);
      J.endObject();
    }
    J.endArray();
    if (!(V.ok() && V.atEnd()))
      return fail(Error, "malformed VIOL section");
  }
  if (Ok && HasQres) {
    ByteReader Q(Qres);
    std::string_view From = Q.str32(), To = Q.str32();
    bool Reaches = Q.u8() != 0;
    J.key("query");
    J.beginObject();
    J.member("from", From);
    J.member("to", To);
    J.member("reaches", Reaches);
    uint32_t WitnessCount = Q.u32();
    if (Reaches) {
      J.key("witness");
      J.beginArray();
    }
    for (uint32_t I = 0; I < WitnessCount; ++I) {
      std::string_view Node = Q.str32(), Resource = Q.str32();
      uint8_t Mark = Q.u8();
      if (!Q.ok() || Mark > 2 || !Reaches)
        return fail(Error, "malformed QRES section");
      J.beginObject();
      J.member("node", Node);
      J.member("resource", Resource);
      J.member("kind",
               query::nodeMarkName(static_cast<query::NodeMark>(Mark)));
      J.endObject();
    }
    if (Reaches)
      J.endArray();
    for (const char *Key : {"reachableFrom", "whatReaches"}) {
      uint32_t Count = Q.u32();
      J.key(Key);
      J.beginArray();
      for (uint32_t I = 0; I < Count; ++I) {
        std::string_view Node = Q.str32();
        if (!Q.ok())
          return fail(Error, "malformed QRES section");
        J.value(Node);
      }
      J.endArray();
    }
    J.endObject();
    if (!(Q.ok() && Q.atEnd()))
      return fail(Error, "malformed QRES section");
  }
  J.endObject();
  JsonOut = OS.str();
  return true;
}
