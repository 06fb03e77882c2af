//===- driver/V1b.cpp -----------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "driver/V1b.h"

#include "support/BinaryIO.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>

using namespace vif;
using namespace vif::driver;

namespace {

/// Accumulates sections, then wraps them in the frame header. Section
/// payloads are built independently so each one's length prefix is exact.
class FrameBuilder {
public:
  /// Tags are written through this single call so tools/schema_check.py
  /// can grep the emitted section table out of this file.
  void section(const char (&Tag)[5], std::string_view Payload) {
    Body.bytes(Tag, 4);
    Body.u64(Payload.size());
    Body.bytes(Payload.data(), Payload.size());
    ++Count;
  }

  void finish(std::string &Out) const {
    // Header: magic, u32 version, u64 total frame length, u32 section
    // count, then the section bytes.
    ByteWriter H;
    H.bytes(V1bMagic, 4);
    H.u32(V1bVersion);
    H.u64(4 + 4 + 8 + 4 + Body.size());
    H.u32(Count);
    Out += H.data();
    Out += Body.data();
  }

private:
  ByteWriter Body;
  uint32_t Count = 0;
};

uint8_t commandCode(BatchMode M) {
  switch (M) {
  case BatchMode::Check:
    return 0;
  case BatchMode::Flows:
    return 1;
  case BatchMode::Matrices:
    return 2;
  case BatchMode::Report:
    return 3;
  case BatchMode::Query:
    return 4;
  }
  return 0xff;
}

uint8_t methodCode(FlowMethod M) {
  switch (M) {
  case FlowMethod::Native:
    return 0;
  case FlowMethod::Alfp:
    return 1;
  case FlowMethod::Kemmerer:
    return 2;
  }
  return 0xff;
}

} // namespace

void vif::driver::writeV1bDesign(std::string &Out, const DesignResult &D,
                                 const BatchOptions &Opts,
                                 std::string_view IdToken) {
  FrameBuilder F;
  {
    ByteWriter Meta;
    Meta.u8(commandCode(Opts.Mode));
    Meta.u8(methodCode(Opts.Method));
    Meta.u8(D.Ok ? 1 : 0);
    Meta.u8(D.Unreadable ? 1 : 0);
    Meta.str32(D.Name);
    Meta.u64(D.NumProcesses);
    Meta.u64(D.NumSignals);
    Meta.u64(D.NumVariables);
    F.section("META", Meta.data());
  }
  if (!IdToken.empty())
    F.section("IDNT", IdToken);
  if (!D.Diagnostics.empty())
    F.section("DIAG", D.Diagnostics);
  if (D.Ok &&
      (Opts.Mode == BatchMode::Flows || Opts.Mode == BatchMode::Report) &&
      D.Graph) {
    const Digraph &G = *D.Graph;
    {
      // Node string table, lexicographic (rank) order.
      ByteWriter Nodes;
      Nodes.u32(static_cast<uint32_t>(G.numNodes()));
      for (Digraph::NodeId Id : G.rankedNodes())
        Nodes.str32(G.name(Id));
      F.section("NODE", Nodes.data());
    }
    {
      // Edges as (from, to) indices into the NODE table, sorted — the
      // same order the JSON edgeList streams in, two u32s per edge.
      ByteWriter EdgeSec;
      EdgeSec.u64(G.numEdges());
      EdgeSec.reserve(8 + 8 * G.numEdges());
      G.forEachSortedEdgeRanked(
          [&EdgeSec](Digraph::NodeId From, Digraph::NodeId To) {
            EdgeSec.u32(From);
            EdgeSec.u32(To);
          });
      F.section("EDGE", EdgeSec.data());
    }
  }
  if (D.Ok && Opts.Mode == BatchMode::Matrices) {
    ByteWriter Mtrx;
    Mtrx.u64(D.RMloEntries);
    Mtrx.u64(D.RMglEntries);
    F.section("MTRX", Mtrx.data());
  }
  if (D.Ok && Opts.Mode == BatchMode::Report) {
    ByteWriter Viol;
    Viol.u32(static_cast<uint32_t>(D.Violations.size()));
    for (const PolicyViolation &V : D.Violations) {
      Viol.str32(V.From);
      Viol.str32(V.To);
      Viol.u8(V.ViaPath ? 1 : 0);
    }
    F.section("VIOL", Viol.data());
  }
  if (D.Ok && Opts.Mode == BatchMode::Query) {
    // Query result: from, to, reaches flag, witness steps (node string +
    // resource string + mark code 0 plain / 1 incoming / 2 outgoing),
    // then the forward and backward reachable-name sets.
    ByteWriter Qres;
    Qres.str32(Opts.QueryFrom);
    Qres.str32(Opts.QueryTo);
    Qres.u8(D.Reaches ? 1 : 0);
    Qres.u32(static_cast<uint32_t>(D.Witness.size()));
    for (const query::WitnessStep &Step : D.Witness) {
      Qres.str32(Step.Node);
      Qres.str32(Step.Resource);
      Qres.u8(static_cast<uint8_t>(Step.Mark));
    }
    Qres.u32(static_cast<uint32_t>(D.Forward.size()));
    for (const std::string &Node : D.Forward)
      Qres.str32(Node);
    Qres.u32(static_cast<uint32_t>(D.Backward.size()));
    for (const std::string &Node : D.Backward)
      Qres.str32(Node);
    F.section("QRES", Qres.data());
  }
  F.finish(Out);
}

void vif::driver::printBatchV1b(std::ostream &OS, const BatchResult &R,
                                const BatchOptions &Opts) {
  std::string Out;
  for (const DesignResult &D : R.Designs) {
    Out.clear();
    writeV1bDesign(Out, D, Opts);
    OS.write(Out.data(), static_cast<std::streamsize>(Out.size()));
  }
}

uint64_t vif::driver::v1bFrameLength(std::string_view Bytes) {
  if (Bytes.size() < 16 || std::memcmp(Bytes.data(), V1bMagic, 4) != 0)
    return 0;
  return ByteReader(Bytes.substr(8)).u64();
}

std::string vif::driver::renderIdToken(const JsonValue &Id) {
  if (Id.isString())
    return "\"" + jsonEscape(Id.asString()) + "\"";
  if (!Id.isNumber())
    return "null";
  double N = Id.asNumber();
  if (!std::isfinite(N))
    return "null"; // JSON has no Inf/NaN
  char Num[32];
  if (N == std::floor(N) && std::abs(N) <= 9007199254740992.0)
    std::snprintf(Num, sizeof(Num), "%lld", static_cast<long long>(N));
  else
    std::snprintf(Num, sizeof(Num), "%.6g", N);
  return Num;
}
