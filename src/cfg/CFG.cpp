//===- cfg/CFG.cpp --------------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "cfg/CFG.h"

#include "cfg/FlowIndex.h"
#include "support/Casting.h"

#include <algorithm>

using namespace vif;

// Out of line because the FlowIndex cache member needs the complete type.
ProgramCFG::ProgramCFG() = default;
ProgramCFG::~ProgramCFG() = default;
ProgramCFG::ProgramCFG(ProgramCFG &&) noexcept = default;
ProgramCFG &ProgramCFG::operator=(ProgramCFG &&) noexcept = default;

const FlowIndex &ProgramCFG::flowIndex(unsigned ProcessId) const {
  assert(ProcessId < Procs.size() && "process id out of range");
  // The slot vector is pre-sized (build() sizes it once Procs is final),
  // so concurrent first accesses for *distinct* processes — the parallel
  // per-process rd solvers — each build into their own slot and never
  // reallocate the vector under one another.
  assert(FlowIndexes.size() == Procs.size() && "flow index slots not sized");
  if (!FlowIndexes[ProcessId])
    FlowIndexes[ProcessId] = std::make_unique<FlowIndex>(Procs[ProcessId]);
  return *FlowIndexes[ProcessId];
}

std::vector<LabelId> ProcessCFG::predecessors(LabelId L) const {
  std::vector<LabelId> Result;
  for (const auto &[From, To] : Flow)
    if (To == L)
      Result.push_back(From);
  return Result;
}

namespace {

/// Builds blocks and flow for one process, numbering labels from a shared
/// counter so labels stay program-unique.
class CFGBuilder {
public:
  CFGBuilder(std::vector<CFGBlock> &Blocks,
             std::vector<std::pair<const Stmt *, LabelId>> &StmtLabels,
             unsigned ProcessId)
      : Blocks(Blocks), StmtLabels(StmtLabels), ProcessId(ProcessId) {}

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
      return leaf(S, CFGBlock::Kind::Null, P);
    case Stmt::Kind::VarAssign:
      return leaf(S, CFGBlock::Kind::VarAssign, P);
    case Stmt::Kind::SignalAssign:
      return leaf(S, CFGBlock::Kind::SignalAssign, P);
    case Stmt::Kind::Wait: {
      Segment Seg = leaf(S, CFGBlock::Kind::Wait, P);
      P.WaitLabels.push_back(Seg.Init);
      return Seg;
    }
    case Stmt::Kind::Compound: {
      const auto *C = cast<CompoundStmt>(&S);
      if (C->stmts().empty())
        // An empty sequence behaves like null; give it a real block so the
        // flow algebra stays total.
        return leaf(S, CFGBlock::Kind::Null, P);
      Segment Acc = buildStmt(*C->stmts().front(), P);
      for (size_t I = 1; I < C->stmts().size(); ++I) {
        Segment Next = buildStmt(*C->stmts()[I], P);
        for (size_t F = Acc.FinalsBegin; F < Next.FinalsBegin; ++F)
          P.Flow.emplace_back(Finals[F], Next.Init);
        // Next's finals replace Acc's.
        Finals.erase(Finals.begin() + static_cast<ptrdiff_t>(Acc.FinalsBegin),
                     Finals.begin() + static_cast<ptrdiff_t>(Next.FinalsBegin));
      }
      return Acc;
    }
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(&S);
      LabelId L = newBlock(CFGBlock::Kind::Cond, &S, &I->cond(), P);
      Segment Then = buildStmt(I->thenStmt(), P);
      Segment Else = buildStmt(I->elseStmt(), P);
      P.Flow.emplace_back(L, Then.Init);
      P.Flow.emplace_back(L, Else.Init);
      // The branches' finals already lie side by side, Then's first.
      return Segment{L, Then.FinalsBegin};
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(&S);
      LabelId L = newBlock(CFGBlock::Kind::Cond, &S, &W->cond(), P);
      Segment Body = buildStmt(W->body(), P);
      P.Flow.emplace_back(L, Body.Init);
      for (size_t F = Body.FinalsBegin; F < Finals.size(); ++F)
        P.Flow.emplace_back(Finals[F], L);
      Finals.resize(Body.FinalsBegin);
      Finals.push_back(L);
      return Segment{L, Body.FinalsBegin};
    }
    }
    // Unreachable; all kinds covered.
    return Segment{InitialLabel, Finals.size()};
  }

private:
  Segment leaf(const Stmt &S, CFGBlock::Kind K, ProcessCFG &P) {
    LabelId L = newBlock(K, &S, nullptr, P);
    StmtLabels.emplace_back(&S, L);
    Finals.push_back(L);
    return Segment{L, Finals.size() - 1};
  }

  LabelId newBlock(CFGBlock::Kind K, const Stmt *S, const Expr *Cond,
                   ProcessCFG &P) {
    CFGBlock B;
    B.Label = static_cast<LabelId>(Blocks.size() + 1);
    B.K = K;
    B.S = S;
    B.Cond = Cond;
    B.ProcessId = ProcessId;
    Blocks.push_back(B);
    P.Labels.push_back(B.Label);
    return B.Label;
  }

  std::vector<CFGBlock> &Blocks;
  std::vector<std::pair<const Stmt *, LabelId>> &StmtLabels;
  unsigned ProcessId;
};

} // namespace

ProgramCFG ProgramCFG::build(const ElaboratedProgram &Program) {
  ProgramCFG CFG;
  for (const ElabProcess &Proc : Program.Processes) {
    ProcessCFG P;
    P.ProcessId = Proc.Id;
    CFGBuilder Builder(CFG.Blocks, CFG.StmtLabels, Proc.Id);
    CFGBuilder::Segment Seg = Builder.buildStmt(*Proc.Body, P);
    P.Init = Seg.Init;
    P.Finals.assign(Builder.Finals.begin() +
                        static_cast<ptrdiff_t>(Seg.FinalsBegin),
                    Builder.Finals.end());
    std::sort(P.Finals.begin(), P.Finals.end());
    std::sort(P.WaitLabels.begin(), P.WaitLabels.end());
    collectStmtObjects(*Proc.Body, P.FreeVars, P.FreeSigs);
    CFG.Procs.push_back(std::move(P));
  }
  std::sort(CFG.StmtLabels.begin(), CFG.StmtLabels.end());
  CFG.FlowIndexes.resize(CFG.Procs.size());
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
                 FlowIndexes.capacity() * sizeof(FlowIndexes[0]);
  // Every per-process fact is a vector of 32-bit ids (Flow of pairs).
  for (const ProcessCFG &P : Procs)
    Bytes += (P.Finals.capacity() + P.Labels.capacity() +
              P.WaitLabels.capacity() + 2 * P.Flow.capacity() +
              P.FreeVars.capacity() + P.FreeSigs.capacity()) *
             sizeof(uint32_t);
  return Bytes;
}

std::vector<LabelId> ProgramCFG::allWaitLabels() const {
  std::vector<LabelId> Result;
  for (const ProcessCFG &P : Procs)
    Result.insert(Result.end(), P.WaitLabels.begin(), P.WaitLabels.end());
  std::sort(Result.begin(), Result.end());
  return Result;
}
