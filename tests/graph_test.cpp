//===- tests/graph_test.cpp - Digraph algebra -----------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "support/BitSet.h"
#include "support/Graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace vif;

namespace {

Digraph path3() {
  Digraph G;
  G.addEdge("a", "b");
  G.addEdge("b", "c");
  return G;
}

TEST(Digraph, NodesAndEdges) {
  Digraph G = path3();
  EXPECT_EQ(G.numNodes(), 3u);
  EXPECT_EQ(G.numEdges(), 2u);
  EXPECT_TRUE(G.hasEdge("a", "b"));
  EXPECT_FALSE(G.hasEdge("b", "a"));
  EXPECT_FALSE(G.hasEdge("a", "c"));
  EXPECT_TRUE(G.hasNode("c"));
  EXPECT_FALSE(G.hasNode("d"));
}

TEST(Digraph, BulkEdgeInsertDeduplicatesAndMerges) {
  Digraph G;
  Digraph::NodeId A = G.addNode("a");
  Digraph::NodeId B = G.addNode("b");
  Digraph::NodeId C = G.addNode("c");
  G.addEdge(A, B); // pre-existing edge must survive the bulk merge
  G.addEdges({{B, C}, {A, B}, {B, C}, {C, A}});
  EXPECT_EQ(G.numEdges(), 3u);
  EXPECT_TRUE(G.hasEdge("a", "b"));
  EXPECT_TRUE(G.hasEdge("b", "c"));
  EXPECT_TRUE(G.hasEdge("c", "a"));
  EXPECT_FALSE(G.hasEdge("a", "c"));
}

TEST(Digraph, DuplicateInsertionIsIdempotent) {
  Digraph G;
  G.addEdge("a", "b");
  G.addEdge("a", "b");
  EXPECT_EQ(G.addNode("a"), G.addNode("a"));
  EXPECT_EQ(G.numEdges(), 1u);
  EXPECT_EQ(G.numNodes(), 2u);
}

TEST(Digraph, Reachability) {
  Digraph G = path3();
  EXPECT_TRUE(G.reachable("a", "c"));
  EXPECT_FALSE(G.reachable("c", "a"));
  // Length >= 1: a node does not reach itself without a cycle.
  EXPECT_FALSE(G.reachable("a", "a"));
  G.addEdge("c", "a");
  EXPECT_TRUE(G.reachable("a", "a"));
}

TEST(Digraph, TransitiveClosure) {
  Digraph G = path3();
  Digraph C = G.transitiveClosure();
  EXPECT_TRUE(C.hasEdge("a", "c"));
  EXPECT_EQ(C.numEdges(), 3u);
  EXPECT_TRUE(C.isTransitive());
  EXPECT_FALSE(G.isTransitive()) << "the path itself is not transitive";
}

TEST(Digraph, ClosureOfCycleIsComplete) {
  Digraph G;
  G.addEdge("a", "b");
  G.addEdge("b", "c");
  G.addEdge("c", "a");
  Digraph C = G.transitiveClosure();
  EXPECT_EQ(C.numEdges(), 9u) << "3-cycle closes to all pairs + loops";
  EXPECT_TRUE(C.hasEdge("a", "a"));
}

TEST(Digraph, NonTransitivityWitness) {
  // The paper's program (a) graph: b -> c, a -> b but NO a -> c.
  Digraph G;
  G.addEdge("b", "c");
  G.addEdge("a", "b");
  EXPECT_FALSE(G.isTransitive());
  EXPECT_FALSE(G.hasEdge("a", "c"));
  EXPECT_TRUE(G.reachable("a", "c"))
      << "reachability exists, flow does not — the paper's core point";
}

TEST(Digraph, MergeNodes) {
  Digraph G;
  G.addEdge("a.in", "b.out");
  G.addEdge("b.in", "c.out");
  Digraph M = G.mergeNodes([](std::string_view N) {
    return std::string(N.substr(0, N.find('.')));
  });
  EXPECT_TRUE(M.hasEdge("a", "b"));
  EXPECT_TRUE(M.hasEdge("b", "c"));
  EXPECT_EQ(M.numNodes(), 3u);
}

TEST(Digraph, MergeDoesNotFabricateSelfLoops) {
  Digraph G;
  G.addEdge("a.in", "a.out");
  G.addEdge("b.in", "b.in"); // genuine self loop survives
  Digraph M = G.mergeNodes([](std::string_view N) {
    return std::string(N.substr(0, N.find('.')));
  });
  EXPECT_FALSE(M.hasEdge("a", "a"))
      << "a.in -> a.out collapses, not loops";
  EXPECT_TRUE(M.hasEdge("b", "b"));
}

TEST(Digraph, InducedSubgraph) {
  Digraph G = path3();
  G.addEdge("a", "x");
  Digraph S = G.inducedSubgraph(
      [](std::string_view N) { return N != "x"; });
  EXPECT_EQ(S.numNodes(), 3u);
  EXPECT_EQ(S.numEdges(), 2u);
  EXPECT_FALSE(S.hasNode("x"));
}

TEST(Digraph, EdgesNotIn) {
  Digraph G = path3();
  Digraph H = path3();
  H.addEdge("a", "c");
  auto Extra = H.edgesNotIn(G);
  ASSERT_EQ(Extra.size(), 1u);
  EXPECT_EQ(Extra[0].first, "a");
  EXPECT_EQ(Extra[0].second, "c");
  EXPECT_TRUE(G.edgesNotIn(H).empty());
}

TEST(Digraph, SameFlows) {
  Digraph G = path3(), H = path3();
  EXPECT_TRUE(G.sameFlows(H));
  H.addEdge("c", "a");
  EXPECT_FALSE(G.sameFlows(H));
}

TEST(Digraph, SuccessorsPredecessors) {
  Digraph G = path3();
  auto B = G.id("b");
  ASSERT_EQ(G.successors(G.id("a")).size(), 1u);
  EXPECT_EQ(G.successors(G.id("a"))[0], B);
  ASSERT_EQ(G.predecessors(G.id("c")).size(), 1u);
  EXPECT_EQ(G.predecessors(G.id("c"))[0], B);
  EXPECT_TRUE(G.successors(G.id("c")).empty());
}

TEST(Digraph, DotOutputIsSortedAndQuoted) {
  Digraph G;
  G.addEdge("b", "a");
  G.addEdge("a", "b");
  std::ostringstream OS;
  G.printDOT(OS, "t");
  EXPECT_EQ(OS.str(), "digraph \"t\" {\n"
                      "  \"a\";\n"
                      "  \"b\";\n"
                      "  \"a\" -> \"b\";\n"
                      "  \"b\" -> \"a\";\n"
                      "}\n");
}

TEST(Digraph, ClosureIdempotent) {
  Digraph G = path3();
  Digraph C1 = G.transitiveClosure();
  Digraph C2 = C1.transitiveClosure();
  EXPECT_TRUE(C1.sameFlows(C2));
}

TEST(Digraph, ClosureOfEmptyGraph) {
  Digraph G;
  Digraph C = G.transitiveClosure();
  EXPECT_EQ(C.numNodes(), 0u);
  EXPECT_EQ(C.numEdges(), 0u);

  // The bit-matrix form degrades to a 0 x 0 index without crashing.
  BitMatrix M;
  G.reachabilityClosure(M);
  EXPECT_EQ(M.wordsPerRow() * 64, 0u);
}

TEST(Digraph, ClosurePreservesSelfLoops) {
  Digraph G;
  G.addEdge("a", "a");
  G.addEdge("a", "b");
  Digraph C = G.transitiveClosure();
  EXPECT_TRUE(C.hasEdge("a", "a"));
  EXPECT_TRUE(C.hasEdge("a", "b"));
  // b is on no cycle: the length >= 1 closure has no (b, b) bit.
  EXPECT_FALSE(C.hasEdge("b", "b"));
  EXPECT_EQ(C.numEdges(), 2u);
}

TEST(Digraph, ClosureIgnoresDuplicateEdges) {
  Digraph G;
  G.addEdge("a", "b");
  G.addEdge("a", "b");
  G.addEdge("b", "c");
  G.addEdge("a", "b");
  Digraph C = G.transitiveClosure();
  EXPECT_EQ(C.numEdges(), 3u);
  EXPECT_TRUE(C.hasEdge("a", "c"));
}

TEST(Digraph, ReachabilityClosureMatchesDfs) {
  Digraph G;
  G.addEdge("a", "b");
  G.addEdge("b", "c");
  G.addEdge("c", "a");
  G.addEdge("c", "d");
  BitMatrix M;
  G.reachabilityClosure(M);
  const std::vector<std::string_view> &Names = G.nodes();
  for (Digraph::NodeId I = 0; I < G.numNodes(); ++I)
    for (Digraph::NodeId J = 0; J < G.numNodes(); ++J)
      EXPECT_EQ(M.test(I, J), G.reachable(Names[I], Names[J]))
          << Names[I] << " -> " << Names[J];
}

TEST(Digraph, ConcurrentLazyViewsAreSafe) {
  // The sorted-edge, rank and edge-order views build lazily under a mutex;
  // many threads materializing them on a freshly mutated graph must agree
  // (the tsan_serve binary runs the instrumented version of this pattern).
  Digraph G;
  for (unsigned I = 0; I + 1 < 64; ++I)
    G.addEdge("n" + std::to_string(I), "n" + std::to_string(I + 1));
  size_t Expect = G.numEdges();
  std::vector<std::thread> Threads;
  std::atomic<size_t> Sum{0};
  for (unsigned T = 0; T < 8; ++T)
    Threads.emplace_back([&G, &Sum]() {
      size_t Count = 0;
      G.forEachSortedEdge(
          [&Count](std::string_view, std::string_view) { ++Count; });
      Count += G.rankedNodes().size() == G.numNodes() ? 1 : 0;
      Sum += Count;
    });
  for (std::thread &T : Threads)
    T.join();
  // Each thread saw all 63 edges plus one complete rank table.
  EXPECT_EQ(Sum.load(), 8 * (Expect + 1));
}

TEST(Digraph, FlushReleasesTheDuplicateRawList) {
  // 10 edges handed over as 100 000 raw pairs (the Kemmerer and ALFP
  // extractions emit one pair per label and read) must cost what the 10
  // edges cost, also when a second raw list merges into flushed edges.
  auto Chain = [](Digraph &G) {
    for (unsigned I = 0; I <= 10; ++I)
      G.addNode("n" + std::to_string(I));
  };
  Digraph Plain, Dup;
  Chain(Plain);
  Chain(Dup);
  std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> Ten, Raw;
  for (Digraph::NodeId I = 0; I < 10; ++I)
    Ten.emplace_back(I, I + 1);
  for (unsigned I = 0; I < 100000; ++I)
    Raw.push_back(Ten[(I * 7) % 10]);
  Plain.addEdges(Ten);
  Dup.addEdges(Raw);
  EXPECT_EQ(Dup.numEdges(), 10u);
  EXPECT_EQ(Plain.numEdges(), 10u);
  EXPECT_LE(Dup.memoryBytes(), Plain.memoryBytes() + 256);
  Dup.addEdges(Raw);
  EXPECT_EQ(Dup.numEdges(), 10u);
  EXPECT_LE(Dup.memoryBytes(), Plain.memoryBytes() + 256);
}

/// The std::sort reference the lazy views must match: every edge as a
/// (from-name, to-name) pair, sorted and deduplicated.
using NamePairs = std::vector<std::pair<std::string, std::string>>;

void expectViewsMatch(const Digraph &G, NamePairs Want, unsigned Trial) {
  std::sort(Want.begin(), Want.end());
  Want.erase(std::unique(Want.begin(), Want.end()), Want.end());

  NamePairs Sorted;
  G.forEachSortedEdge([&](std::string_view From, std::string_view To) {
    Sorted.emplace_back(From, To);
  });
  EXPECT_EQ(Sorted, Want) << "forEachSortedEdge, trial " << Trial;

  const std::vector<Digraph::NodeId> &Ranked = G.rankedNodes();
  ASSERT_EQ(Ranked.size(), G.numNodes());
  EXPECT_TRUE(std::is_sorted(Ranked.begin(), Ranked.end(),
                             [&G](Digraph::NodeId A, Digraph::NodeId B) {
                               return G.name(A) < G.name(B);
                             }));
  std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> RankPairs;
  NamePairs ByRank;
  G.forEachSortedEdgeRanked([&](Digraph::NodeId From, Digraph::NodeId To) {
    RankPairs.emplace_back(From, To);
    ByRank.emplace_back(G.name(Ranked[From]), G.name(Ranked[To]));
  });
  EXPECT_TRUE(std::is_sorted(RankPairs.begin(), RankPairs.end()))
      << "trial " << Trial;
  EXPECT_EQ(ByRank, Want) << "forEachSortedEdgeRanked, trial " << Trial;

  std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> Ids, WantIds;
  G.forEachEdgeId([&](Digraph::NodeId From, Digraph::NodeId To) {
    Ids.emplace_back(From, To);
  });
  for (const auto &[From, To] : Want)
    WantIds.emplace_back(G.id(From), G.id(To));
  std::sort(WantIds.begin(), WantIds.end());
  EXPECT_EQ(Ids, WantIds) << "edge storage order, trial " << Trial;
  EXPECT_EQ(G.numEdges(), Want.size());
}

TEST(Digraph, SortedViewsMatchAComparisonSort) {
  std::mt19937 Rng(17);
  for (unsigned Trial = 0; Trial < 200; ++Trial) {
    Digraph G;
    NamePairs Want;
    // Numbered names whose string order differs from their numeric order
    // (x_10 < x_2), inserted in shuffled order, so ids, numbers and ranks
    // all disagree. Every tenth graph is large (up to ~3 000 nodes, a rank
    // bitmap of up to 47 words) and has hub rows, so rows both longer and
    // shorter than the bitmap's word count occur.
    bool Large = Trial % 10 == 9;
    unsigned N = Large ? 1000 + Rng() % 2000 : 1 + Rng() % 40;
    std::vector<unsigned> Numbers(N);
    for (unsigned I = 0; I < N; ++I)
      Numbers[I] = I;
    std::shuffle(Numbers.begin(), Numbers.end(), Rng);
    for (unsigned Number : Numbers)
      G.addNode("x_" + std::to_string(Number));
    auto RandomEdges = [&](size_t Count) {
      std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> List;
      for (size_t I = 0; I < Count; ++I) {
        Digraph::NodeId From = Rng() % G.numNodes(), To = Rng() % G.numNodes();
        // Duplicates: every pair appears once or three times.
        for (unsigned Copy = 0; Copy < (Rng() % 2 ? 3u : 1u); ++Copy) {
          List.emplace_back(From, To);
          Want.emplace_back(G.name(From), G.name(To));
        }
      }
      return List;
    };
    // Sources with distinct targets: one row of each length around the
    // bitmap's word count, and a few of up to N.
    auto HubEdges = [&] {
      std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> List;
      std::vector<Digraph::NodeId> Targets(G.numNodes());
      for (Digraph::NodeId I = 0; I < Targets.size(); ++I)
        Targets[I] = I;
      size_t Words = (G.numNodes() + 63) / 64;
      for (size_t Degree : {Words - 1, Words, Words + 1, size_t(Rng() % N),
                            size_t(Rng() % N), size_t(G.numNodes())}) {
        Digraph::NodeId From = Rng() % G.numNodes();
        std::shuffle(Targets.begin(), Targets.end(), Rng);
        for (size_t K = 0; K < Degree; ++K) {
          List.emplace_back(From, Targets[K]);
          Want.emplace_back(G.name(From), G.name(Targets[K]));
        }
      }
      return List;
    };

    G.addEdges(RandomEdges(Rng() % (3 * N)));
    if (Large)
      G.addEdges(HubEdges());
    for (const auto &[From, To] : RandomEdges(Rng() % 4))
      G.addEdge(From, To);
    expectViewsMatch(G, Want, Trial);

    // A second batch merges into the flushed edges.
    G.addEdges(RandomEdges(Rng() % (2 * N)));
    expectViewsMatch(G, Want, Trial);

    // Nodes added after the views were built re-rank the old ones
    // ("a" sorts first, "x_" + N + "0" between existing names, "z" last)
    // while the cached edge order, kept across node insertions, stays right.
    for (std::string Name : {std::string("a"), "x_" + std::to_string(N) + "0",
                             std::string("z")})
      G.addNode(Name);
    expectViewsMatch(G, Want, Trial);
    G.addEdges(RandomEdges(Rng() % N + 1));
    if (Large)
      G.addEdges(HubEdges());
    expectViewsMatch(G, Want, Trial);
  }
}

} // namespace
