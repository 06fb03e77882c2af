//===- driver/Serialize.cpp -----------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "driver/Serialize.h"

#include "driver/ArtifactStore.h"

#include <ostream>

using namespace vif;
using namespace vif::driver;

void vif::driver::writeSchemaTag(JsonWriter &J) {
  J.member("schema", SchemaVersion);
}

namespace {

/// The elements of "edgeList": one {"from", "to"} object per edge in
/// sorted order. Each node's name is escaped once, straight into its
/// rank's edge head (the separator and the object through the "to" key)
/// and edge tail (the "to" value through the closing brace), so an edge
/// costs two appends of the bytes beginObject/member/endObject would emit.
void writeEdgeObjects(JsonWriter &J, const Digraph &G) {
  std::vector<std::string> F = J.stringObjectFrame({"from", "to"});
  std::vector<std::string> Head, Tail;
  Head.reserve(G.numNodes());
  Tail.reserve(G.numNodes());
  for (Digraph::NodeId Id : G.rankedNodes()) {
    std::string Name = jsonEscape(G.name(Id));
    Head.push_back(F[0] + Name + F[1]);
    Tail.push_back(Name + F[2]);
  }
  G.forEachSortedEdgeRanked([&](Digraph::NodeId From, Digraph::NodeId To) {
    J.rawElement({Head[From], Tail[To]});
  });
}

} // namespace

void vif::driver::writeDesignBody(JsonWriter &J, const DesignResult &D,
                                  const BatchOptions &Opts) {
  J.member("file", D.Name);
  J.member("status", D.Ok ? "ok" : "error");
  if (D.Unreadable)
    J.member("unreadable", true);
  if (!D.Diagnostics.empty())
    J.member("diagnostics", D.Diagnostics);
  if (Opts.Cache)
    J.member("cacheHit", D.CacheHit);
  if (D.Ok) {
    J.member("processes", D.NumProcesses);
    J.member("signals", D.NumSignals);
    J.member("variables", D.NumVariables);
  }
  if (D.Ok &&
      (Opts.Mode == BatchMode::Flows || Opts.Mode == BatchMode::Report)) {
    J.key("graph");
    J.beginObject();
    J.member("nodes", D.NumNodes);
    J.member("edges", D.NumEdges);
    J.key("edgeList");
    J.beginArray();
    if (D.Graph)
      writeEdgeObjects(J, *D.Graph);
    J.endArray();
    J.endObject();
  }
  if (D.Ok && Opts.Mode == BatchMode::Matrices) {
    J.key("matrices");
    J.beginObject();
    J.member("rmlo", D.RMloEntries);
    J.member("rmgl", D.RMglEntries);
    J.endObject();
  }
  if (D.Ok && Opts.Mode == BatchMode::Report) {
    J.key("violations");
    J.beginArray();
    for (const PolicyViolation &V : D.Violations) {
      J.beginObject();
      J.member("from", V.From);
      J.member("to", V.To);
      J.member("viaPath", V.ViaPath);
      J.endObject();
    }
    J.endArray();
  }
  if (D.Ok && Opts.Mode == BatchMode::Query) {
    J.key("query");
    J.beginObject();
    J.member("from", Opts.QueryFrom);
    J.member("to", Opts.QueryTo);
    J.member("reaches", D.Reaches);
    if (D.Reaches) {
      J.key("witness");
      J.beginArray();
      for (const query::WitnessStep &Step : D.Witness) {
        J.beginObject();
        J.member("node", Step.Node);
        J.member("resource", Step.Resource);
        J.member("kind", query::nodeMarkName(Step.Mark));
        J.endObject();
      }
      J.endArray();
    }
    J.key("reachableFrom");
    J.beginArray();
    for (const std::string &Node : D.Forward)
      J.value(Node);
    J.endArray();
    J.key("whatReaches");
    J.beginArray();
    for (const std::string &Node : D.Backward)
      J.value(Node);
    J.endArray();
    J.endObject();
  }
  J.key("timings");
  J.beginObject();
  J.member("readMs", D.Timings.ReadMs);
  J.member("parseMs", D.Timings.ParseMs);
  J.member("elaborateMs", D.Timings.ElaborateMs);
  J.member("cfgMs", D.Timings.CfgMs);
  J.member("ifaMs", D.Timings.IfaMs);
  J.member("kemmererMs", D.Timings.KemmererMs);
  J.member("alfpMs", D.Timings.AlfpMs);
  J.member("queryMs", D.Timings.QueryMs);
  J.member("storeMs", D.Timings.StoreMs);
  J.member("totalMs", D.Timings.totalMs());
  J.endObject();
}

void vif::driver::writeCacheObject(JsonWriter &J, const SessionCache &Cache) {
  SessionCache::Stats St = Cache.stats();
  J.key("cache");
  J.beginObject();
  J.member("size", Cache.size());
  J.member("capacity", Cache.capacity());
  J.member("hits", St.Hits);
  J.member("misses", St.Misses);
  J.member("evictions", St.Evictions);
  J.member("bytes", Cache.bytes());
  J.member("bytesBudget", Cache.bytesBudget());
  J.endObject();
}

void vif::driver::writeStoreObject(JsonWriter &J,
                                   const ArtifactStore &Store) {
  ArtifactStore::Counters C = Store.counters();
  J.key("store");
  J.beginObject();
  J.member("hits", C.Hits);
  J.member("misses", C.Misses);
  J.member("writes", C.Writes);
  J.member("bytesRead", C.BytesRead);
  J.member("bytesWritten", C.BytesWritten);
  J.endObject();
}

void vif::driver::writeBatchDocument(std::ostream &OS, const BatchResult &R,
                                     const BatchOptions &Opts,
                                     JsonStyle Style) {
  JsonWriter J(OS, Style);
  J.beginObject();
  writeSchemaTag(J);
  J.member("command", batchModeName(Opts.Mode));
  if (Opts.Mode == BatchMode::Flows)
    J.member("method", flowMethodName(Opts.Method));

  J.key("designs");
  J.beginArray();
  for (const DesignResult &D : R.Designs) {
    J.beginObject();
    writeDesignBody(J, D, Opts);
    J.endObject();
  }
  J.endArray();

  J.key("summary");
  J.beginObject();
  J.member("designs", R.Designs.size());
  J.member("ok", R.NumOk);
  J.member("failed", R.NumFailed);
  if (Opts.Mode == BatchMode::Report)
    J.member("violations", R.NumViolations);
  J.member("wallMs", R.WallMs);
  J.endObject();
  if (Opts.Cache) {
    writeCacheObject(J, *Opts.Cache);
    if (const ArtifactStore *Store = Opts.Cache->artifactStore())
      writeStoreObject(J, *Store);
  }
  J.endObject();
}

void vif::driver::writeErrorObject(JsonWriter &J, std::string_view Code,
                                   std::string_view Message) {
  J.key("error");
  J.beginObject();
  J.member("code", Code);
  J.member("message", Message);
  J.endObject();
}

void vif::driver::writeSimDocument(std::ostream &OS, const SimDocument &Doc,
                                   JsonStyle Style) {
  JsonWriter J(OS, Style);
  J.beginObject();
  writeSchemaTag(J);
  J.member("command", "sim");
  J.member("file", Doc.File);
  J.member("status", Doc.Status);
  J.member("deltas", Doc.Deltas);
  if (!Doc.StuckReason.empty())
    J.member("reason", Doc.StuckReason);
  J.key("signals");
  J.beginArray();
  for (const SimSignalValue &S : Doc.Signals) {
    J.beginObject();
    J.member("name", S.Name);
    J.member("value", S.Value);
    J.endObject();
  }
  J.endArray();
  J.endObject();
}

void vif::driver::writeDatalogDocument(
    std::ostream &OS, std::string_view File,
    const std::vector<DatalogRelation> &Relations, size_t DerivedCount,
    JsonStyle Style) {
  JsonWriter J(OS, Style);
  J.beginObject();
  writeSchemaTag(J);
  J.member("command", "datalog");
  J.member("file", File);
  J.key("relations");
  J.beginArray();
  for (const DatalogRelation &R : Relations) {
    J.beginObject();
    J.member("name", R.Name);
    J.member("arity", R.Arity);
    J.key("tuples");
    J.beginArray();
    for (const std::vector<std::string> &T : R.Tuples) {
      J.beginArray();
      for (const std::string &Atom : T)
        J.value(Atom);
      J.endArray();
    }
    J.endArray();
    J.endObject();
  }
  J.endArray();
  J.member("derived", DerivedCount);
  J.endObject();
}
