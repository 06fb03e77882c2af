//===- cfg/FlowIndex.cpp ---------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "cfg/FlowIndex.h"

using namespace vif;

FlowIndex::FlowIndex(const ProcessCFG &P)
    : First(P.Labels.empty() ? 0 : P.Labels.front()),
      NumLabels(P.Labels.size()) {
  size_t N = NumLabels;
  assert((N == 0 || P.Labels.back() - First + 1 == N) &&
         "process labels are not one contiguous run");

  // Counting sort of the flow edges into CSR form, both directions.
  std::vector<uint32_t> SuccCount(N, 0), PredCount(N, 0);
  for (const auto &[From, To] : P.Flow) {
    ++SuccCount[localOf(From)];
    ++PredCount[localOf(To)];
  }
  SuccStart.assign(N + 1, 0);
  PredStart.assign(N + 1, 0);
  for (size_t I = 0; I < N; ++I) {
    SuccStart[I + 1] = SuccStart[I] + SuccCount[I];
    PredStart[I + 1] = PredStart[I] + PredCount[I];
  }
  SuccList.resize(P.Flow.size());
  PredList.resize(P.Flow.size());
  std::vector<uint32_t> SuccFill(SuccStart.begin(), SuccStart.end() - 1);
  std::vector<uint32_t> PredFill(PredStart.begin(), PredStart.end() - 1);
  for (const auto &[From, To] : P.Flow) {
    uint32_t F = localOf(From), T = localOf(To);
    SuccList[SuccFill[F]++] = T;
    PredList[PredFill[T]++] = F;
  }

  // Iterative postorder DFS from init, reversed; unreachable labels follow
  // in ascending order.
  std::vector<uint8_t> Visited(N, 0);
  std::vector<uint32_t> Post;
  Post.reserve(N);
  if (N != 0) {
    struct Frame {
      uint32_t Node;
      uint32_t NextSucc;
    };
    std::vector<Frame> Stack;
    uint32_t Init = localOf(P.Init);
    Visited[Init] = 1;
    Stack.push_back({Init, 0});
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      Range S = succs(F.Node);
      if (F.NextSucc < S.size()) {
        uint32_t Next = S.First[F.NextSucc++];
        if (!Visited[Next]) {
          Visited[Next] = 1;
          Stack.push_back({Next, 0});
        }
      } else {
        Post.push_back(F.Node);
        Stack.pop_back();
      }
    }
  }
  RPO.assign(Post.rbegin(), Post.rend());
  for (uint32_t I = 0; I < N; ++I)
    if (!Visited[I])
      RPO.push_back(I);
}
