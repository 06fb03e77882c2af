//===- query/FlowQueryEngine.h - Point queries over flow graphs -*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis produces whole flow graphs; this layer answers point
/// questions about them. A FlowQueryEngine wraps one flow graph behind
/// reaches(src, sink), reachableFrom(src), whatReaches(sink) and
/// witnessPath(src, sink), backed by a reachability index built once with
/// the packed-bit-row Warshall machinery (Digraph::reachabilityClosure)
/// plus a CSR adjacency copy for witness extraction. Answers are O(1) bit
/// probes, and every positive reaches() answer can produce a concrete
/// shortest witness path with the paper's n-circ / n-bullet interface
/// marks resolved per step.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_QUERY_FLOWQUERYENGINE_H
#define VIF_QUERY_FLOWQUERYENGINE_H

#include "support/BitSet.h"
#include "support/Graph.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vif::query {

/// How a witness node relates to the process interface: plain internal
/// resource, incoming interface value (the paper's n-circ node) or outgoing
/// interface value (n-bullet).
enum class NodeMark : uint8_t { Plain, Incoming, Outgoing };

/// Stable lowercase name for a NodeMark ("plain", "incoming", "outgoing").
const char *nodeMarkName(NodeMark Mark);

/// One step on a witness path: the node name as it appears in the flow
/// graph (mark glyph included), the bare resource name with any interface
/// mark stripped, and the resolved mark.
struct WitnessStep {
  std::string Node;
  std::string Resource;
  NodeMark Mark = NodeMark::Plain;

  bool operator==(const WitnessStep &Other) const {
    return Node == Other.Node && Resource == Other.Resource &&
           Mark == Other.Mark;
  }
};

/// Splits a flow-graph node name into its bare resource name and interface
/// mark (shared with the fuzz oracle and tests).
WitnessStep makeWitnessStep(std::string_view Node);

/// Indexed point queries over one flow graph.
///
/// Construction snapshots the graph's transitive reachability into a
/// BitMatrix (one bit per ordered node pair, path length >= 1 — the same
/// semantics as Digraph::reachable) and the adjacency into a CSR array.
/// The engine borrows the graph (for the name table and id lookup), so it
/// is valid for as long as the graph object stays where it is — in
/// practice the session that owns both; all queries afterwards are const
/// and safe to run from multiple threads.
class FlowQueryEngine {
public:
  explicit FlowQueryEngine(const Digraph &G);

  /// Rebuilds an engine from a previously computed reachability closure
  /// (the on-disk "qidx" artifact). Returns nullopt, and the caller
  /// rebuilds from the graph, unless \p Closure is N × N for \p G's N
  /// nodes. The adjacency comes from \p G, as in the constructor. The
  /// closure is trusted: the store key ties the blob to the exact
  /// (source, options) pair that produced \p G.
  static std::optional<FlowQueryEngine> fromIndex(const Digraph &G,
                                                  BitMatrix Closure);

  /// The reachability closure (what the artifact store persists).
  const BitMatrix &closureMatrix() const { return Closure; }

  size_t numNodes() const { return G->numNodes(); }
  size_t numEdges() const { return Succ.size(); }

  /// True if \p Name is a node of the underlying flow graph.
  bool knows(std::string_view Name) const { return G->hasNode(Name); }

  /// True if information may flow from \p Src to \p Sink over a path of
  /// length >= 1. Unknown names answer false.
  bool reaches(std::string_view Src, std::string_view Sink) const;

  /// All nodes reachable from \p Src (length >= 1), sorted
  /// lexicographically. Unknown names answer the empty set.
  std::vector<std::string> reachableFrom(std::string_view Src) const;

  /// All nodes from which \p Sink is reachable (length >= 1), sorted
  /// lexicographically. Unknown names answer the empty set.
  std::vector<std::string> whatReaches(std::string_view Sink) const;

  /// A shortest directed path Src -> ... -> Sink as witness steps, or
  /// nullopt when !reaches(Src, Sink). The path is deterministic: BFS over
  /// the CSR adjacency restricted to nodes that still reach Sink in the
  /// closure, ties broken by ascending node id. Src == Sink yields the
  /// shortest cycle through the node (first and last step equal).
  std::optional<std::vector<WitnessStep>>
  witnessPath(std::string_view Src, std::string_view Sink) const;

  /// Heap footprint of the index (closure matrix + CSR) in bytes, for the
  /// session cache's byte budget.
  size_t memoryBytes() const;

private:
  FlowQueryEngine(const Digraph &Graph, BitMatrix Closure)
      : G(&Graph), Closure(std::move(Closure)) {}
  /// Fills RowStart/Succ from the graph's edges.
  void buildAdjacency();

  /// Borrowed, never null (a pointer so the engine stays movable).
  const Digraph *G;
  /// Bit (i, j) set iff a path of length >= 1 leads from node i to node j.
  BitMatrix Closure;
  /// CSR adjacency: successors of node i are Succ[RowStart[i]
  /// .. RowStart[i + 1]), ascending.
  std::vector<uint32_t> RowStart;
  std::vector<Digraph::NodeId> Succ;
};

} // namespace vif::query

#endif // VIF_QUERY_FLOWQUERYENGINE_H
