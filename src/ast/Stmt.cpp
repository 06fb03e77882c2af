//===- ast/Stmt.cpp -------------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ast/Stmt.h"

#include "support/Casting.h"

using namespace vif;

Stmt *vif::cloneStmt(const Stmt &S, AstArena &Dest) {
  switch (S.kind()) {
  case Stmt::Kind::Null:
    return Dest.make<NullStmt>(S.range());
  case Stmt::Kind::VarAssign:
  case Stmt::Kind::SignalAssign: {
    const auto *A = cast<AssignStmtBase>(&S);
    std::optional<SliceSpec> Slice;
    if (A->hasSlice())
      Slice = A->slice();
    std::string_view Target = Dest.copyString(A->targetName());
    Expr *Value = cloneExpr(A->value(), Dest);
    AssignStmtBase *Copy =
        S.kind() == Stmt::Kind::VarAssign
            ? static_cast<AssignStmtBase *>(
                  Dest.make<VarAssignStmt>(Target, Slice, Value, S.range()))
            : Dest.make<SignalAssignStmt>(Target, Slice, Value, S.range());
    Copy->setTargetRef(A->targetRef());
    return Copy;
  }
  case Stmt::Kind::Wait: {
    const auto *W = cast<WaitStmt>(&S);
    std::string_view *Names =
        Dest.allocateArray<std::string_view>(W->onNames().size());
    for (size_t I = 0; I < W->onNames().size(); ++I)
      Names[I] = Dest.copyString(W->onNames()[I]);
    auto *Copy = Dest.make<WaitStmt>(
        ArenaArray<std::string_view>(Names, W->onNames().size()),
        W->hasExplicitOn(), W->hasUntil() ? cloneExpr(W->until(), Dest)
                                          : nullptr,
        S.range());
    Copy->setOnSignals(
        Dest.copy(W->onSignals().begin(), W->onSignals().size()));
    return Copy;
  }
  case Stmt::Kind::Compound: {
    const ArenaArray<Stmt *> &Subs = cast<CompoundStmt>(&S)->stmts();
    Stmt **Copies = Dest.allocateArray<Stmt *>(Subs.size());
    for (size_t I = 0; I < Subs.size(); ++I)
      Copies[I] = cloneStmt(*Subs[I], Dest);
    return Dest.make<CompoundStmt>(ArenaArray<Stmt *>(Copies, Subs.size()),
                                   S.range());
  }
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(&S);
    return Dest.make<IfStmt>(cloneExpr(I->cond(), Dest),
                             cloneStmt(I->thenStmt(), Dest),
                             cloneStmt(I->elseStmt(), Dest), S.range());
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(&S);
    return Dest.make<WhileStmt>(cloneExpr(W->cond(), Dest),
                                cloneStmt(W->body(), Dest), S.range());
  }
  }
  return nullptr;
}
