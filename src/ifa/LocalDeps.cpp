//===- ifa/LocalDeps.cpp --------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ifa/LocalDeps.h"

#include "support/Casting.h"

#include <algorithm>

using namespace vif;

namespace {

/// The structural rules of Table 6, as one walk per process that appends
/// RMlo's entries label by label in (label, access, resource) order.
///
/// The block set B is one sorted vector used as a stack: a condition
/// merges the objects it adds into it (and notes them on Added) before
/// its branches are visited, and removes exactly those afterwards, so no
/// statement copies B. The scratch vectors are reused across statements.
class LocalDepsBuilder {
public:
  LocalDepsBuilder(const ProgramCFG &CFG, std::vector<RMEntry> &Out)
      : CFG(CFG), Out(Out) {}

  void analyzeProcess(const ElabProcess &Proc) {
    // FS(ss_i): free signals of the whole process body, used by the
    // [Synchronization] rule.
    ProcessSigs = &CFG.process(Proc.Id).FreeSigs;
    visit(*Proc.Body);
  }

private:
  /// FV(e) ∪ FS(e) ∪ \p ExtraSigs into Objs, ascending.
  void collectObjects(const Expr *E, const ArenaArray<unsigned> &ExtraSigs) {
    Vars.clear();
    Sigs.clear();
    if (E)
      collectExprObjects(*E, Vars, Sigs);
    for (unsigned Sig : ExtraSigs)
      if (auto It = std::lower_bound(Sigs.begin(), Sigs.end(), Sig);
          It == Sigs.end() || *It != Sig)
        Sigs.insert(It, Sig);
    // Every variable orders before every signal.
    Objs.clear();
    for (unsigned V : Vars)
      Objs.push_back(Resource::variable(V));
    for (unsigned S : Sigs)
      Objs.push_back(Resource::signal(S));
  }

  /// (n, l, R0) for every n in B ∪ FV(e) ∪ FS(e) ∪ \p ExtraSigs.
  void addReads(LabelId L, const Expr *E,
                const ArenaArray<unsigned> &ExtraSigs = {}) {
    collectObjects(E, ExtraSigs);
    Reads.clear();
    std::set_union(Block.begin(), Block.end(), Objs.begin(), Objs.end(),
                   std::back_inserter(Reads));
    for (Resource N : Reads)
      Out.push_back(RMEntry{L, Access::R0, N});
  }

  /// Visits \p Body under B' = B ∪ FV(e) ∪ FS(e).
  void visitUnder(const Expr &Cond, const Stmt &Body,
                  const Stmt *Else = nullptr) {
    collectObjects(&Cond, {});
    size_t Mark = Added.size();
    std::set_difference(Objs.begin(), Objs.end(), Block.begin(), Block.end(),
                        std::back_inserter(Added));
    // Merge Added[Mark..] into B from the back, in place.
    size_t I = Block.size(), J = Added.size(), Room = I + (J - Mark);
    Block.resize(Room);
    while (J > Mark)
      Block[--Room] = I > 0 && Added[J - 1] < Block[I - 1] ? Block[--I]
                                                           : Added[--J];
    visit(Body);
    if (Else)
      visit(*Else);
    // Take them out again: both lists are sorted.
    size_t Kept = 0;
    J = Mark;
    for (Resource N : Block)
      if (J < Added.size() && N == Added[J])
        ++J;
      else
        Block[Kept++] = N;
    Block.resize(Kept);
    Added.resize(Mark);
  }

  void visit(const Stmt &S) {
    switch (S.kind()) {
    case Stmt::Kind::Null:
      return; // [Skip]
    case Stmt::Kind::VarAssign: {
      // [Local Variable Assignment]
      const auto *A = cast<VarAssignStmt>(&S);
      LabelId L = CFG.labelOf(&S);
      Out.push_back(
          RMEntry{L, Access::M0, Resource::fromRef(A->targetRef())});
      addReads(L, &A->value());
      return;
    }
    case Stmt::Kind::SignalAssign: {
      // [Signal Assignment] — modifies the *active* value (M1); reads may
      // come from variables and present signal values but never from
      // active values.
      const auto *A = cast<SignalAssignStmt>(&S);
      LabelId L = CFG.labelOf(&S);
      Out.push_back(
          RMEntry{L, Access::M1, Resource::fromRef(A->targetRef())});
      addReads(L, &A->value());
      return;
    }
    case Stmt::Kind::Wait: {
      // [Synchronization]: the block set, the waited-on set S and the
      // condition are read (R0); every signal of the process has its
      // active value consumed (R1).
      const auto *W = cast<WaitStmt>(&S);
      LabelId L = CFG.labelOf(&S);
      addReads(L, W->hasUntil() ? &W->until() : nullptr, W->onSignals());
      for (unsigned Sig : *ProcessSigs)
        Out.push_back(RMEntry{L, Access::R1, Resource::signal(Sig)});
      return;
    }
    case Stmt::Kind::Compound:
      // [Composition]
      for (const Stmt *Sub : cast<CompoundStmt>(&S)->stmts())
        visit(*Sub);
      return;
    case Stmt::Kind::If: {
      // [Conditional]: branches are analyzed under B' = B ∪ FV(e) ∪ FS(e).
      const auto *I = cast<IfStmt>(&S);
      visitUnder(I->cond(), I->thenStmt(), &I->elseStmt());
      return;
    }
    case Stmt::Kind::While: {
      // [Loop]
      const auto *W = cast<WhileStmt>(&S);
      visitUnder(W->cond(), W->body());
      return;
    }
    }
  }

  const ProgramCFG &CFG;
  std::vector<RMEntry> &Out;
  const std::vector<unsigned> *ProcessSigs = nullptr;
  std::vector<Resource> Block, Added, Objs, Reads;
  std::vector<unsigned> Vars, Sigs;
};

} // namespace

ResourceMatrix vif::computeLocalDeps(const ElaboratedProgram &Program,
                                     const ProgramCFG &CFG) {
  std::vector<RMEntry> Entries;
  LocalDepsBuilder Builder(CFG, Entries);
  for (const ElabProcess &Proc : Program.Processes)
    Builder.analyzeProcess(Proc);
  return ResourceMatrix(std::move(Entries));
}
