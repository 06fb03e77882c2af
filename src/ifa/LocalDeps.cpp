//===- ifa/LocalDeps.cpp --------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ifa/LocalDeps.h"

#include "support/Casting.h"

#include <set>

using namespace vif;

namespace {

using BlockSet = std::set<Resource>;

/// Adds the free variables and signals of \p E to \p Set.
void addExprObjects(const Expr &E, BlockSet &Set) {
  std::vector<unsigned> Vars, Sigs;
  collectExprObjects(E, Vars, Sigs);
  for (unsigned V : Vars)
    Set.insert(Resource::variable(V));
  for (unsigned S : Sigs)
    Set.insert(Resource::signal(S));
}

/// The structural rules of Table 6.
class LocalDepsBuilder {
public:
  LocalDepsBuilder(const ElaboratedProgram &Program, const ProgramCFG &CFG,
                   ResourceMatrix &RM)
      : Program(Program), CFG(CFG), RM(RM) {}

  void analyzeProcess(const ElabProcess &Proc) {
    // FS(ss_i): free signals of the whole process body, used by the
    // [Synchronization] rule.
    ProcessSigs = &CFG.process(Proc.Id).FreeSigs;
    BlockSet Empty;
    visit(*Proc.Body, Empty);
  }

private:
  void addReads(LabelId L, const Expr *E, const BlockSet &B,
                const ArenaArray<unsigned> &ExtraSigs = {}) {
    BlockSet Reads = B;
    if (E)
      addExprObjects(*E, Reads);
    for (unsigned Sig : ExtraSigs)
      Reads.insert(Resource::signal(Sig));
    for (Resource N : Reads)
      RM.insert(N, L, Access::R0);
  }

  void visit(const Stmt &S, const BlockSet &B) {
    switch (S.kind()) {
    case Stmt::Kind::Null:
      return; // [Skip]
    case Stmt::Kind::VarAssign: {
      // [Local Variable Assignment]
      const auto *A = cast<VarAssignStmt>(&S);
      LabelId L = CFG.labelOf(&S);
      RM.insert(Resource::fromRef(A->targetRef()), L, Access::M0);
      addReads(L, &A->value(), B);
      return;
    }
    case Stmt::Kind::SignalAssign: {
      // [Signal Assignment] — modifies the *active* value (M1); reads may
      // come from variables and present signal values but never from
      // active values.
      const auto *A = cast<SignalAssignStmt>(&S);
      LabelId L = CFG.labelOf(&S);
      RM.insert(Resource::fromRef(A->targetRef()), L, Access::M1);
      addReads(L, &A->value(), B);
      return;
    }
    case Stmt::Kind::Wait: {
      // [Synchronization]: every signal of the process has its active
      // value consumed (R1); the block set, the waited-on set S and the
      // condition are read (R0).
      const auto *W = cast<WaitStmt>(&S);
      LabelId L = CFG.labelOf(&S);
      for (unsigned Sig : *ProcessSigs)
        RM.insert(Resource::signal(Sig), L, Access::R1);
      addReads(L, W->hasUntil() ? &W->until() : nullptr, B,
               W->onSignals());
      return;
    }
    case Stmt::Kind::Compound:
      // [Composition]
      for (const Stmt *Sub : cast<CompoundStmt>(&S)->stmts())
        visit(*Sub, B);
      return;
    case Stmt::Kind::If: {
      // [Conditional]: branches are analyzed under B' = B ∪ FV(e) ∪ FS(e).
      const auto *I = cast<IfStmt>(&S);
      BlockSet BPrime = B;
      addExprObjects(I->cond(), BPrime);
      visit(I->thenStmt(), BPrime);
      visit(I->elseStmt(), BPrime);
      return;
    }
    case Stmt::Kind::While: {
      // [Loop]
      const auto *W = cast<WhileStmt>(&S);
      BlockSet BPrime = B;
      addExprObjects(W->cond(), BPrime);
      visit(W->body(), BPrime);
      return;
    }
    }
  }

  const ElaboratedProgram &Program;
  const ProgramCFG &CFG;
  ResourceMatrix &RM;
  const std::vector<unsigned> *ProcessSigs = nullptr;
};

} // namespace

ResourceMatrix vif::computeLocalDeps(const ElaboratedProgram &Program,
                                     const ProgramCFG &CFG) {
  ResourceMatrix RM;
  LocalDepsBuilder Builder(Program, CFG, RM);
  for (const ElabProcess &Proc : Program.Processes)
    Builder.analyzeProcess(Proc);
  return RM;
}
