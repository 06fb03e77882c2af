//===- query/FlowQueryEngine.cpp ------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "query/FlowQueryEngine.h"

#include "rd/PairSet.h"

#include <algorithm>
#include <deque>

using namespace vif;
using namespace vif::query;

const char *vif::query::nodeMarkName(NodeMark Mark) {
  switch (Mark) {
  case NodeMark::Plain:
    return "plain";
  case NodeMark::Incoming:
    return "incoming";
  case NodeMark::Outgoing:
    return "outgoing";
  }
  return "plain";
}

WitnessStep vif::query::makeWitnessStep(std::string_view Node) {
  WitnessStep Step;
  Step.Node.assign(Node);
  std::string_view Bare = stripInterfaceMark(Node);
  Step.Resource.assign(Bare);
  if (Bare.size() == Node.size())
    Step.Mark = NodeMark::Plain;
  else if (Node.substr(Bare.size()) == "◦") // the incoming mark ◦
    Step.Mark = NodeMark::Incoming;
  else // stripInterfaceMark only removes ◦ or •
    Step.Mark = NodeMark::Outgoing;
  return Step;
}

FlowQueryEngine::FlowQueryEngine(const Digraph &Graph) : G(&Graph) {
  G->reachabilityClosure(Closure);
  buildAdjacency();
}

void FlowQueryEngine::buildAdjacency() {
  // CSR adjacency from the flat sorted edge vector: a counting pass sizes
  // the rows, then edges are streamed into place. forEachEdgeId visits
  // (from, to) ascending, so each row ends up sorted — the tie-break the
  // witness BFS relies on for determinism.
  size_t N = G->numNodes();
  RowStart.assign(N + 1, 0);
  G->forEachEdgeId(
      [this](Digraph::NodeId From, Digraph::NodeId) { ++RowStart[From + 1]; });
  for (size_t I = 0; I < N; ++I)
    RowStart[I + 1] += RowStart[I];
  Succ.resize(RowStart[N]);
  std::vector<uint32_t> Fill(RowStart.begin(), RowStart.end() - 1);
  G->forEachEdgeId([this, &Fill](Digraph::NodeId From, Digraph::NodeId To) {
    Succ[Fill[From]++] = To;
  });
}

std::optional<FlowQueryEngine> FlowQueryEngine::fromIndex(const Digraph &G,
                                                          BitMatrix Closure) {
  size_t N = G.numNodes();
  if (Closure.numRows() != N || Closure.numBits() != N)
    return std::nullopt;
  FlowQueryEngine E(G, std::move(Closure));
  E.buildAdjacency();
  return E;
}

bool FlowQueryEngine::reaches(std::string_view Src,
                              std::string_view Sink) const {
  if (!G->hasNode(Src) || !G->hasNode(Sink))
    return false;
  return Closure.test(G->id(Src), G->id(Sink));
}

std::vector<std::string>
FlowQueryEngine::reachableFrom(std::string_view Src) const {
  std::vector<std::string> Result;
  if (!G->hasNode(Src))
    return Result;
  BitMatrix::forEachBit(Closure.row(G->id(Src)), Closure.wordsPerRow(),
                        [this, &Result](size_t Bit) {
                          Result.emplace_back(
                              G->name(static_cast<Digraph::NodeId>(Bit)));
                        });
  std::sort(Result.begin(), Result.end());
  return Result;
}

std::vector<std::string>
FlowQueryEngine::whatReaches(std::string_view Sink) const {
  std::vector<std::string> Result;
  if (!G->hasNode(Sink))
    return Result;
  Digraph::NodeId SinkId = G->id(Sink);
  for (size_t I = 0, N = G->numNodes(); I < N; ++I)
    if (Closure.test(I, SinkId))
      Result.emplace_back(G->name(static_cast<Digraph::NodeId>(I)));
  std::sort(Result.begin(), Result.end());
  return Result;
}

std::optional<std::vector<WitnessStep>>
FlowQueryEngine::witnessPath(std::string_view Src,
                             std::string_view Sink) const {
  if (!reaches(Src, Sink))
    return std::nullopt;
  Digraph::NodeId SrcId = G->id(Src), SinkId = G->id(Sink);
  // BFS over the CSR rows, expanding only successors that still reach the
  // sink in the closure. Every node on a shortest path reaches the sink,
  // so the restriction prunes dead branches without losing shortness; the
  // ascending row order makes the found path deterministic. Sink is never
  // marked seen via the closure branch (it is returned on first touch), so
  // Src == Sink correctly finds the shortest cycle through the node.
  std::vector<bool> Seen(G->numNodes(), false);
  std::vector<Digraph::NodeId> Prev(G->numNodes(), SrcId);
  Seen[SrcId] = true;
  std::deque<Digraph::NodeId> Queue = {SrcId};
  while (!Queue.empty()) {
    Digraph::NodeId Cur = Queue.front();
    Queue.pop_front();
    for (uint32_t S = RowStart[Cur]; S < RowStart[Cur + 1]; ++S) {
      Digraph::NodeId Next = Succ[S];
      if (Next == SinkId) {
        std::vector<WitnessStep> Path = {makeWitnessStep(G->name(SinkId))};
        for (Digraph::NodeId N = Cur;; N = Prev[N]) {
          Path.push_back(makeWitnessStep(G->name(N)));
          if (N == SrcId)
            break;
        }
        std::reverse(Path.begin(), Path.end());
        return Path;
      }
      if (!Seen[Next] && Closure.test(Next, SinkId)) {
        Seen[Next] = true;
        Prev[Next] = Cur;
        Queue.push_back(Next);
      }
    }
  }
  // Unreachable: reaches() was true, so the restricted BFS must hit Sink.
  return std::nullopt;
}

size_t FlowQueryEngine::memoryBytes() const {
  return Closure.memoryBytes() + RowStart.capacity() * sizeof(uint32_t) +
         Succ.capacity() * sizeof(Digraph::NodeId);
}
