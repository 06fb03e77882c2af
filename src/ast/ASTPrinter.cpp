//===- ast/ASTPrinter.cpp -------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ast/ASTPrinter.h"

#include "support/Casting.h"

#include <ostream>
#include <sstream>

using namespace vif;

namespace {

/// Binding strength for parenthesization. VHDL operator families are mostly
/// non-associative across families; we parenthesize any nested binary whose
/// precedence is not strictly higher than its parent's, which is always
/// legal and keeps the printer simple and unambiguous.
unsigned precedenceOf(BinaryOpKind Op) {
  switch (Op) {
  case BinaryOpKind::And:
  case BinaryOpKind::Or:
  case BinaryOpKind::Nand:
  case BinaryOpKind::Nor:
  case BinaryOpKind::Xor:
  case BinaryOpKind::Xnor:
    return 1;
  case BinaryOpKind::Eq:
  case BinaryOpKind::Ne:
  case BinaryOpKind::Lt:
  case BinaryOpKind::Le:
  case BinaryOpKind::Gt:
  case BinaryOpKind::Ge:
    return 2;
  case BinaryOpKind::Add:
  case BinaryOpKind::Sub:
  case BinaryOpKind::Concat:
    return 3;
  case BinaryOpKind::Mul:
    return 4;
  }
  return 0;
}

void printExprPrec(std::ostream &OS, const Expr &E, unsigned ParentPrec) {
  switch (E.kind()) {
  case Expr::Kind::LogicLiteral:
    OS << '\'' << toChar(cast<LogicLiteralExpr>(&E)->value()) << '\'';
    return;
  case Expr::Kind::VectorLiteral:
    OS << '"';
    for (StdLogic Bit : cast<VectorLiteralExpr>(&E)->bits())
      OS << toChar(Bit);
    OS << '"';
    return;
  case Expr::Kind::Name:
    OS << cast<NameExpr>(&E)->name();
    return;
  case Expr::Kind::Slice: {
    const auto *S = cast<SliceExpr>(&E);
    OS << S->name() << '(' << S->slice().str() << ')';
    return;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    OS << unaryOpSpelling(U->op()) << ' ';
    printExprPrec(OS, U->sub(), 5);
    return;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    unsigned Prec = precedenceOf(B->op());
    bool Paren = Prec <= ParentPrec;
    if (Paren)
      OS << '(';
    printExprPrec(OS, B->lhs(), Prec);
    OS << ' ' << binaryOpSpelling(B->op()) << ' ';
    printExprPrec(OS, B->rhs(), Prec);
    if (Paren)
      OS << ')';
    return;
  }
  }
}

std::ostream &indent(std::ostream &OS, unsigned Indent) {
  for (unsigned I = 0; I < Indent; ++I)
    OS << "  ";
  return OS;
}

} // namespace

void vif::printExpr(std::ostream &OS, const Expr &E) {
  printExprPrec(OS, E, 0);
}

void vif::printStmt(std::ostream &OS, const Stmt &S, unsigned Indent) {
  switch (S.kind()) {
  case Stmt::Kind::Null:
    indent(OS, Indent) << "null;\n";
    return;
  case Stmt::Kind::VarAssign:
  case Stmt::Kind::SignalAssign: {
    const auto *A = cast<AssignStmtBase>(&S);
    indent(OS, Indent) << A->targetName();
    if (A->hasSlice())
      OS << '(' << A->slice().str() << ')';
    OS << (S.kind() == Stmt::Kind::VarAssign ? " := " : " <= ");
    printExpr(OS, A->value());
    OS << ";\n";
    return;
  }
  case Stmt::Kind::Wait: {
    const auto *W = cast<WaitStmt>(&S);
    indent(OS, Indent) << "wait";
    if (W->hasExplicitOn()) {
      OS << " on ";
      for (size_t I = 0; I < W->onNames().size(); ++I) {
        if (I)
          OS << ", ";
        OS << W->onNames()[I];
      }
    }
    if (W->hasUntil()) {
      OS << " until ";
      printExpr(OS, W->until());
    }
    OS << ";\n";
    return;
  }
  case Stmt::Kind::Compound:
    for (const Stmt *Sub : cast<CompoundStmt>(&S)->stmts())
      printStmt(OS, *Sub, Indent);
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(&S);
    indent(OS, Indent) << "if ";
    printExpr(OS, I->cond());
    OS << " then\n";
    printStmt(OS, I->thenStmt(), Indent + 1);
    // An else branch that is exactly `null` prints as an omitted branch;
    // the parser reintroduces the NullStmt, preserving round-trips.
    if (!isa<NullStmt>(&I->elseStmt())) {
      indent(OS, Indent) << "else\n";
      printStmt(OS, I->elseStmt(), Indent + 1);
    }
    indent(OS, Indent) << "end if;\n";
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(&S);
    indent(OS, Indent) << "while ";
    printExpr(OS, W->cond());
    OS << " loop\n";
    printStmt(OS, W->body(), Indent + 1);
    indent(OS, Indent) << "end loop;\n";
    return;
  }
  }
}

void vif::printDecl(std::ostream &OS, const Decl &D, unsigned Indent) {
  indent(OS, Indent) << (D.K == Decl::Kind::Variable ? "variable "
                                                     : "signal ")
                     << D.Name << " : " << D.Ty.str();
  if (D.Init) {
    OS << " := ";
    printExpr(OS, *D.Init);
  }
  OS << ";\n";
}

void vif::printConcStmt(std::ostream &OS, const ConcStmt &S,
                        unsigned Indent) {
  switch (S.kind()) {
  case ConcStmt::Kind::Process: {
    const auto *P = cast<ProcessStmt>(&S);
    indent(OS, Indent) << P->label() << " : process\n";
    for (const Decl &D : P->decls())
      printDecl(OS, D, Indent + 1);
    indent(OS, Indent) << "begin\n";
    printStmt(OS, P->body(), Indent + 1);
    indent(OS, Indent) << "end process " << P->label() << ";\n";
    return;
  }
  case ConcStmt::Kind::Block: {
    const auto *B = cast<BlockStmt>(&S);
    indent(OS, Indent) << B->label() << " : block\n";
    for (const Decl &D : B->decls())
      printDecl(OS, D, Indent + 1);
    indent(OS, Indent) << "begin\n";
    for (const ConcStmtPtr &Sub : B->stmts())
      printConcStmt(OS, *Sub, Indent + 1);
    indent(OS, Indent) << "end block " << B->label() << ";\n";
    return;
  }
  case ConcStmt::Kind::SignalAssign: {
    const auto *A = cast<ConcAssignStmt>(&S);
    indent(OS, Indent) << A->targetName();
    if (A->hasSlice())
      OS << '(' << A->slice().str() << ')';
    OS << " <= ";
    printExpr(OS, A->value());
    OS << ";\n";
    return;
  }
  }
}

void vif::printEntity(std::ostream &OS, const Entity &E) {
  OS << "entity " << E.Name << " is\n  port(\n";
  for (size_t I = 0; I < E.Ports.size(); ++I) {
    const Port &P = E.Ports[I];
    OS << "    " << P.Name << " : " << portModeSpelling(P.Mode) << ' '
       << P.Ty.str();
    OS << (I + 1 == E.Ports.size() ? "\n" : ";\n");
  }
  OS << "  );\nend " << E.Name << ";\n";
}

void vif::printArchitecture(std::ostream &OS, const Architecture &A) {
  OS << "architecture " << A.Name << " of " << A.EntityName << " is\n";
  for (const Decl &D : A.Decls)
    printDecl(OS, D, 1);
  OS << "begin\n";
  for (const ConcStmtPtr &S : A.Stmts)
    printConcStmt(OS, *S, 1);
  OS << "end " << A.Name << ";\n";
}

void vif::printDesignFile(std::ostream &OS, const DesignFile &D) {
  for (const Entity &E : D.Entities) {
    printEntity(OS, E);
    OS << '\n';
  }
  for (const Architecture &A : D.Architectures) {
    printArchitecture(OS, A);
    OS << '\n';
  }
}

std::string vif::exprToString(const Expr &E) {
  std::ostringstream OS;
  printExpr(OS, E);
  return OS.str();
}

std::string vif::stmtToString(const Stmt &S) {
  std::ostringstream OS;
  printStmt(OS, S);
  return OS.str();
}

std::string vif::designToString(const DesignFile &D) {
  std::ostringstream OS;
  printDesignFile(OS, D);
  return OS.str();
}
