//===- support/Graph.h - Directed graphs over named nodes -------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result of the Information Flow analysis is "a non-transitive directed
/// graph that connects those nodes (representing either variables or signals)
/// where an information flow might occur" (paper, abstract). Digraph is that
/// result type: nodes are named resources, edges are possible flows. It also
/// provides the graph algebra the evaluation needs: transitive closure
/// (Kemmerer's method), reachability, edge diffs (false-positive counting for
/// Figure 5), node merging (the paper merges n◦/n• interface nodes for
/// presentation) and DOT rendering.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_SUPPORT_GRAPH_H
#define VIF_SUPPORT_GRAPH_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace vif {

class BitMatrix;

/// A directed graph whose nodes are identified by stable string names.
///
/// Node ids are dense and assigned in insertion order; all iteration orders
/// exposed by the class are deterministic.
///
/// Node names are bump-allocated into an internal arena and exposed as
/// string_views; the arena blocks never move, so views stay valid across
/// addNode and across moves of the whole graph.
///
/// Edges live in one flat sorted vector; addEdge/addEdges append to a
/// pending buffer that is merged in lazily, so bulk construction (the flow
/// graphs, the Warshall closure below) never pays per-edge ordered-set
/// node allocations. Sorted iteration orders are likewise cached lazily: a
/// lexicographic node-rank permutation and an edge permutation sorted by
/// (rank[from], rank[to]) are computed once and reused. A flush takes a
/// list that already ascends strictly (the flow-graph extraction, a
/// decoded blob) as is and sorts any other by two stable counting passes
/// over node-sized buckets. The edge permutation visits the source rows
/// in rank order and orders each row's targets by rank, through a bitmap
/// over the ranks or, for a row shorter than its word count, a small
/// sort; only the node ranking compares strings. The lazy
/// merge mutates on const reads, but builds are internally synchronized:
/// each view flips an atomic flag under a per-graph mutex (double-checked),
/// so concurrent const readers — e.g. two query threads touching the same
/// cached session graph — race only on the cheap acquire load. Mutation
/// (addNode/addEdge) remains single-threaded by contract, as before.
/// ensureSortedViews() is still the cheap publish point the SessionCache
/// uses to pre-pay all three builds while the per-entry lock is held.
class Digraph {
public:
  using NodeId = unsigned;

  Digraph() = default;
  Digraph(Digraph &&Other) noexcept;
  Digraph &operator=(Digraph &&Other) noexcept;
  Digraph(const Digraph &Other);
  Digraph &operator=(const Digraph &Other);

  /// Adds a node (no-op if present); returns its id.
  NodeId addNode(std::string_view Name);

  /// Adds both endpoints as needed and then the edge From -> To.
  void addEdge(std::string_view From, std::string_view To);
  void addEdge(NodeId From, NodeId To);

  /// Bulk-inserts edges given as id pairs over existing nodes. The list is
  /// sorted and deduplicated on the next flush, so callers — in particular
  /// the id-based flow-graph extraction — can append pairs freely and hand
  /// them over in one linear pass instead of E ordered insertions.
  void addEdges(std::vector<std::pair<NodeId, NodeId>> EdgeList);

  /// Pre-sizes the name table and index for \p N expected nodes.
  void reserveNodes(size_t N);

  bool hasNode(std::string_view Name) const;
  bool hasEdge(std::string_view From, std::string_view To) const;
  bool hasEdge(NodeId From, NodeId To) const;

  /// Returns the id for \p Name; asserts that the node exists.
  NodeId id(std::string_view Name) const;
  std::string_view name(NodeId Id) const {
    assert(Id < Names.size() && "node id out of range");
    return Names[Id];
  }

  size_t numNodes() const { return Names.size(); }
  size_t numEdges() const {
    flushEdges();
    return Edges.size();
  }

  /// Heap footprint in bytes: name arena, node/edge vectors, id map and
  /// the cached sorted views (cache byte-budget accounting). Does not
  /// flush or build anything — it measures what is allocated right now.
  size_t memoryBytes() const;

  /// Node names in insertion order.
  const std::vector<std::string_view> &nodes() const { return Names; }

  /// Node ids in lexicographic name order (the rank permutation). The
  /// reference stays valid until the next node insertion.
  const std::vector<NodeId> &rankedNodes() const {
    ensureRank();
    return RankOrder;
  }

  /// Forces the lazy edge flush, rank permutation and sorted-edge
  /// permutation. After this call all read accessors are pure reads, so the
  /// graph may be shared across threads (the SessionCache's publish point).
  void ensureSortedViews() const {
    flushEdges();
    ensureRank();
    ensureEdgeOrder();
  }

  /// Streams the edges in lexicographic (from-name, to-name) order as
  /// string_view pairs, without materializing any intermediate vector.
  template <typename Callback> void forEachSortedEdge(Callback &&CB) const {
    ensureSortedViews();
    for (uint32_t Index : EdgeOrder) {
      const auto &[From, To] = Edges[Index];
      CB(Names[From], Names[To]);
    }
  }

  /// Streams the edges in the same sorted order as (rank, rank) pairs —
  /// indices into rankedNodes(), i.e. into the sorted node table. The pair
  /// sequence itself is sorted ascending; this is the v1b EDGE section.
  template <typename Callback>
  void forEachSortedEdgeRanked(Callback &&CB) const {
    ensureSortedViews();
    for (uint32_t Index : EdgeOrder) {
      const auto &[From, To] = Edges[Index];
      CB(RankOf[From], RankOf[To]);
    }
  }

  /// Streams all edges as (from-id, to-id) pairs in ascending id order (the
  /// flat storage order). Cheapest whole-edge-set scan; used for id-indexed
  /// fan-in/out counting.
  template <typename Callback> void forEachEdgeId(Callback &&CB) const {
    flushEdges();
    for (const auto &[From, To] : Edges)
      CB(From, To);
  }

  /// Successor ids of \p Id in ascending id order.
  std::vector<NodeId> successors(NodeId Id) const;
  /// Predecessor ids of \p Id in ascending id order.
  std::vector<NodeId> predecessors(NodeId Id) const;

  /// True if there is a directed path (of length >= 1) From -> To.
  bool reachable(std::string_view From, std::string_view To) const;

  /// Fills \p Out with the N x N reachability matrix: bit (i, j) is set iff
  /// there is a directed path of length >= 1 from node i to node j. This is
  /// the packed-bit-row Warshall core shared by transitiveClosure() and the
  /// query engine's reachability index; \p Out is reset to the right shape.
  void reachabilityClosure(BitMatrix &Out) const;

  /// The transitive closure over the same node set: an edge a -> b for every
  /// path a -> ... -> b of length >= 1. This is the "traditional method of
  /// Kemmerer" step (paper Section 5.2).
  Digraph transitiveClosure() const;

  /// True if for every pair of edges a -> b, b -> c the edge a -> c exists.
  /// The paper stresses that information-flow graphs are non-transitive in
  /// general (Figure 3(a)); this predicate lets tests assert exactly that.
  bool isTransitive() const;

  /// A graph with every node renamed through \p Rename; edges whose endpoints
  /// collapse to the same node become self-loops only if they already were
  /// self-loops (merging n with n◦/n• must not fabricate flows n -> n).
  Digraph
  mergeNodes(const std::function<std::string(std::string_view)> &Rename) const;

  /// The subgraph induced by the nodes for which \p Keep returns true.
  Digraph
  inducedSubgraph(const std::function<bool(std::string_view)> &Keep) const;

  /// Edges present in \p this but not in \p Other (by node name). Used to
  /// count Kemmerer false positives relative to the RD-guided analysis.
  std::vector<std::pair<std::string, std::string>>
  edgesNotIn(const Digraph &Other) const;

  /// Structural equality on node names and edges.
  bool sameFlows(const Digraph &Other) const;

  /// Emits the graph in Graphviz DOT syntax with nodes and edges sorted.
  void printDOT(std::ostream &OS, std::string_view Title = "flows") const;
  std::string dot(std::string_view Title = "flows") const;

private:
  /// Copies \p Name into the arena and returns the stable view.
  std::string_view intern(std::string_view Name);

  /// Merges Pending into the sorted, deduplicated Edges vector and
  /// releases Pending.
  void flushEdges() const;
  /// Computes RankOrder/RankOf if stale.
  void ensureRank() const;
  /// Computes EdgeOrder if stale. Requires flushed edges and a valid rank.
  void ensureEdgeOrder() const;

  /// Bump-allocated name storage. Blocks never move or shrink, so the views
  /// in Names (and those handed out) remain valid for the graph's lifetime.
  std::vector<std::unique_ptr<char[]>> ArenaBlocks;
  size_t ArenaUsed = 0;
  size_t ArenaCap = 0;

  std::vector<std::string_view> Names;
  std::unordered_map<std::string_view, NodeId> Ids;
  /// Sorted and deduplicated (after flushEdges).
  mutable std::vector<std::pair<NodeId, NodeId>> Edges;
  /// Edges appended since the last flush, in arrival order.
  mutable std::vector<std::pair<NodeId, NodeId>> Pending;
  /// True while Pending holds unmerged edges. An atomic mirror of
  /// "!Pending.empty()" so concurrent const readers can skip the flush
  /// without touching the vector; cleared with release order after the
  /// merge so the merged Edges are visible to whoever sees it clear.
  mutable std::atomic<bool> EdgesDirty{false};

  /// Node ids in lexicographic name order and its inverse, computed once
  /// per node-set generation. Adding a node only invalidates these two
  /// (relative ranks of existing nodes are preserved, so EdgeOrder — sorted
  /// by relative rank — stays correct).
  mutable std::vector<NodeId> RankOrder;
  mutable std::vector<NodeId> RankOf;
  mutable std::atomic<bool> RankValid{false};
  /// Indices into Edges in (rank[from], rank[to]) order — the lexicographic
  /// edge order without touching a byte of string data.
  mutable std::vector<uint32_t> EdgeOrder;
  mutable std::atomic<bool> EdgeOrderValid{false};
  /// Serializes lazy view construction across concurrent const readers.
  /// Heap-allocated so the graph stays movable; each graph keeps its own
  /// mutex across moves (the views themselves move, the lock does not).
  mutable std::unique_ptr<std::mutex> ViewMutex = std::make_unique<std::mutex>();
};

} // namespace vif

#endif // VIF_SUPPORT_GRAPH_H
