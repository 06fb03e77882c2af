//===- cfg/CFG.cpp --------------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "cfg/CFG.h"

#include "support/Casting.h"

#include <algorithm>
#include <numeric>

using namespace vif;

namespace {

using Edge = std::pair<LabelId, LabelId>;

/// Builds blocks and flow for one process, numbering labels from a shared
/// counter so labels stay program-unique and appending the process's flow
/// edges to the program's.
class CFGBuilder {
public:
  CFGBuilder(std::vector<CFGBlock> &Blocks,
             std::vector<std::pair<const Stmt *, LabelId>> &StmtLabels,
             std::vector<Edge> &Flow, unsigned ProcessId)
      : Blocks(Blocks), StmtLabels(StmtLabels), Flow(Flow),
        ProcessId(ProcessId) {}

  /// A built statement: its initial label, and its final labels as the
  /// top of the Finals stack from FinalsBegin on. Keeping every segment's
  /// finals on one stack makes the finals of an if the concatenation of
  /// its branches' for free, so deep elsif chains build in linear time.
  struct Segment {
    LabelId Init;
    size_t FinalsBegin;
  };

  /// The final labels of the segments under construction.
  std::vector<LabelId> Finals;

  Segment buildStmt(const Stmt &S, ProcessCFG &P) {
    switch (S.kind()) {
    case Stmt::Kind::Null:
      return leaf(S, CFGBlock::Kind::Null);
    case Stmt::Kind::VarAssign:
      return leaf(S, CFGBlock::Kind::VarAssign);
    case Stmt::Kind::SignalAssign:
      return leaf(S, CFGBlock::Kind::SignalAssign);
    case Stmt::Kind::Wait: {
      Segment Seg = leaf(S, CFGBlock::Kind::Wait);
      P.WaitLabels.push_back(Seg.Init);
      return Seg;
    }
    case Stmt::Kind::Compound: {
      const auto *C = cast<CompoundStmt>(&S);
      if (C->stmts().empty())
        // An empty sequence behaves like null; give it a real block so the
        // flow algebra stays total.
        return leaf(S, CFGBlock::Kind::Null);
      Segment Acc = buildStmt(*C->stmts().front(), P);
      for (size_t I = 1; I < C->stmts().size(); ++I) {
        Segment Next = buildStmt(*C->stmts()[I], P);
        for (size_t F = Acc.FinalsBegin; F < Next.FinalsBegin; ++F)
          Flow.emplace_back(Finals[F], Next.Init);
        // Next's finals replace Acc's.
        Finals.erase(Finals.begin() + static_cast<ptrdiff_t>(Acc.FinalsBegin),
                     Finals.begin() + static_cast<ptrdiff_t>(Next.FinalsBegin));
      }
      return Acc;
    }
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(&S);
      LabelId L = newBlock(CFGBlock::Kind::Cond, &S, &I->cond());
      Segment Then = buildStmt(I->thenStmt(), P);
      Segment Else = buildStmt(I->elseStmt(), P);
      Flow.emplace_back(L, Then.Init);
      Flow.emplace_back(L, Else.Init);
      // The branches' finals already lie side by side, Then's first.
      return Segment{L, Then.FinalsBegin};
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(&S);
      LabelId L = newBlock(CFGBlock::Kind::Cond, &S, &W->cond());
      Segment Body = buildStmt(W->body(), P);
      Flow.emplace_back(L, Body.Init);
      for (size_t F = Body.FinalsBegin; F < Finals.size(); ++F)
        Flow.emplace_back(Finals[F], L);
      Finals.resize(Body.FinalsBegin);
      Finals.push_back(L);
      return Segment{L, Body.FinalsBegin};
    }
    }
    // Unreachable; all kinds covered.
    return Segment{InitialLabel, Finals.size()};
  }

private:
  Segment leaf(const Stmt &S, CFGBlock::Kind K) {
    LabelId L = newBlock(K, &S, nullptr);
    StmtLabels.emplace_back(&S, L);
    Finals.push_back(L);
    return Segment{L, Finals.size() - 1};
  }

  LabelId newBlock(CFGBlock::Kind K, const Stmt *S, const Expr *Cond) {
    CFGBlock B;
    B.Label = static_cast<LabelId>(Blocks.size() + 1);
    B.K = K;
    B.S = S;
    B.Cond = Cond;
    B.ProcessId = ProcessId;
    Blocks.push_back(B);
    return B.Label;
  }

  std::vector<CFGBlock> &Blocks;
  std::vector<std::pair<const Stmt *, LabelId>> &StmtLabels;
  std::vector<Edge> &Flow;
  unsigned ProcessId;
};

} // namespace

ProgramCFG ProgramCFG::build(const ElaboratedProgram &Program) {
  std::vector<CFGBlock> Blocks;
  std::vector<ProcessCFG> Procs;
  std::vector<std::pair<const Stmt *, LabelId>> StmtLabels;
  std::vector<Edge> Flow; // every process's flow(ss), in build order
  for (const ElabProcess &Proc : Program.Processes) {
    ProcessCFG P;
    P.ProcessId = Proc.Id;
    P.FirstLabel = static_cast<LabelId>(Blocks.size() + 1);
    CFGBuilder Builder(Blocks, StmtLabels, Flow, Proc.Id);
    CFGBuilder::Segment Seg = Builder.buildStmt(*Proc.Body, P);
    P.NumLabels = static_cast<uint32_t>(Blocks.size() + 1 - P.FirstLabel);
    P.Init = Seg.Init;
    P.Finals.assign(Builder.Finals.begin() +
                        static_cast<ptrdiff_t>(Seg.FinalsBegin),
                    Builder.Finals.end());
    std::sort(P.Finals.begin(), P.Finals.end());
    // WaitLabels ascend already: labels are handed out in ascending order.
    collectStmtObjects(*Proc.Body, P.FreeVars, P.FreeSigs);
    Procs.push_back(std::move(P));
  }
  std::sort(StmtLabels.begin(), StmtLabels.end());
  ProgramCFG CFG = fromFlow(std::move(Blocks), std::move(Procs), Flow);
  CFG.StmtLabels = std::move(StmtLabels);
  return CFG;
}

ProgramCFG ProgramCFG::fromFlow(std::vector<CFGBlock> Blocks,
                                std::vector<ProcessCFG> Procs,
                                const std::vector<Edge> &Flow) {
  ProgramCFG CFG;
  CFG.Blocks = std::move(Blocks);
  CFG.Procs = std::move(Procs);

  // Counting sort of the edges into CSR rows keyed by one end, holding the
  // other end's local index. Filling back to front keeps each row in edge
  // order and leaves Start[L] at the row's beginning.
  size_t N = CFG.Blocks.size();
  auto index = [&](bool Forward, std::vector<uint32_t> &Start,
                   std::vector<uint32_t> &List) {
    Start.assign(N + 2, 0);
    for (const auto &[From, To] : Flow)
      ++Start[Forward ? From : To];
    std::partial_sum(Start.begin(), Start.end(), Start.begin());
    List.resize(Flow.size());
    for (auto E = Flow.rbegin(); E != Flow.rend(); ++E) {
      auto [Key, Other] = Forward ? *E : Edge{E->second, E->first};
      List[--Start[Key]] = CFG.process(CFG.processOf(Other)).localOf(Other);
    }
  };
  index(true, CFG.SuccStart, CFG.SuccList);
  index(false, CFG.PredStart, CFG.PredList);

  // Per process: an iterative postorder DFS from init, reversed in place;
  // the labels it never reached follow in ascending order.
  CFG.RPO.resize(N);
  std::vector<uint8_t> Visited(N + 1, 0);
  std::vector<std::pair<uint32_t, uint32_t>> Stack; // (node, next succ)
  for (const ProcessCFG &P : CFG.Procs) {
    uint32_t *Run = CFG.RPO.data() + (P.FirstLabel - 1), *Out = Run;
    Visited[P.Init] = 1;
    Stack.emplace_back(P.localOf(P.Init), 0);
    while (!Stack.empty()) {
      auto [Node, Next] = Stack.back();
      Range S = CFG.succs(P.label(Node));
      if (Next == S.size()) {
        *Out++ = Node;
        Stack.pop_back();
        continue;
      }
      ++Stack.back().second;
      if (!Visited[P.label(S[Next])]) {
        Visited[P.label(S[Next])] = 1;
        Stack.emplace_back(S[Next], 0);
      }
    }
    std::reverse(Run, Out);
    for (uint32_t I = 0; I < P.NumLabels; ++I)
      if (!Visited[P.label(I)])
        *Out++ = I;
  }
  return CFG;
}

LabelId ProgramCFG::labelOf(const Stmt *S) const {
  auto It = std::lower_bound(
      StmtLabels.begin(), StmtLabels.end(), S,
      [](const std::pair<const Stmt *, LabelId> &E, const Stmt *Key) {
        return E.first < Key;
      });
  assert(It != StmtLabels.end() && It->first == S &&
         "statement has no label");
  return It->second;
}

bool ProgramCFG::cfCompatible(LabelId A, LabelId B) const {
  if (!isWaitLabel(A) || !isWaitLabel(B))
    return false;
  // A tuple carries exactly one wait label per process, so two labels of the
  // same process co-occur only if they are the same label.
  if (processOf(A) == processOf(B))
    return A == B;
  return true;
}

size_t ProgramCFG::memoryBytes() const {
  size_t Bytes = Blocks.capacity() * sizeof(CFGBlock) +
                 Procs.capacity() * sizeof(ProcessCFG) +
                 StmtLabels.capacity() * sizeof(StmtLabels[0]) +
                 (SuccStart.capacity() + SuccList.capacity() +
                  PredStart.capacity() + PredList.capacity() +
                  RPO.capacity()) *
                     sizeof(uint32_t);
  // Every per-process fact is a vector of 32-bit ids.
  for (const ProcessCFG &P : Procs)
    Bytes += (P.Finals.capacity() + P.WaitLabels.capacity() +
              P.FreeVars.capacity() + P.FreeSigs.capacity()) *
             sizeof(uint32_t);
  return Bytes;
}

std::vector<LabelId> ProgramCFG::allWaitLabels() const {
  // Each process's run lies above the previous one's, so the
  // concatenation of the ascending WaitLabels ascends.
  std::vector<LabelId> Result;
  for (const ProcessCFG &P : Procs)
    Result.insert(Result.end(), P.WaitLabels.begin(), P.WaitLabels.end());
  return Result;
}
