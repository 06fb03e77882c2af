//===- ast/Expr.cpp -------------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ast/Expr.h"

#include "support/Casting.h"

using namespace vif;

const char *vif::unaryOpSpelling(UnaryOpKind Op) {
  switch (Op) {
  case UnaryOpKind::Not:
    return "not";
  }
  return "?";
}

const char *vif::binaryOpSpelling(BinaryOpKind Op) {
  switch (Op) {
  case BinaryOpKind::And:
    return "and";
  case BinaryOpKind::Or:
    return "or";
  case BinaryOpKind::Nand:
    return "nand";
  case BinaryOpKind::Nor:
    return "nor";
  case BinaryOpKind::Xor:
    return "xor";
  case BinaryOpKind::Xnor:
    return "xnor";
  case BinaryOpKind::Eq:
    return "=";
  case BinaryOpKind::Ne:
    return "/=";
  case BinaryOpKind::Lt:
    return "<";
  case BinaryOpKind::Le:
    return "<=";
  case BinaryOpKind::Gt:
    return ">";
  case BinaryOpKind::Ge:
    return ">=";
  case BinaryOpKind::Add:
    return "+";
  case BinaryOpKind::Sub:
    return "-";
  case BinaryOpKind::Mul:
    return "*";
  case BinaryOpKind::Concat:
    return "&";
  }
  return "?";
}

Expr *vif::cloneExpr(const Expr &E, AstArena &Dest) {
  Expr *Copy = nullptr;
  switch (E.kind()) {
  case Expr::Kind::LogicLiteral:
    Copy = Dest.make<LogicLiteralExpr>(cast<LogicLiteralExpr>(&E)->value(),
                                       E.range());
    break;
  case Expr::Kind::VectorLiteral: {
    const ArenaArray<StdLogic> &Bits = cast<VectorLiteralExpr>(&E)->bits();
    Copy = Dest.make<VectorLiteralExpr>(Dest.copy(Bits.begin(), Bits.size()),
                                        E.range());
    break;
  }
  case Expr::Kind::Name: {
    const auto *N = cast<NameExpr>(&E);
    auto *C = Dest.make<NameExpr>(Dest.copyString(N->name()), E.range());
    C->setRef(N->ref());
    Copy = C;
    break;
  }
  case Expr::Kind::Slice: {
    const auto *S = cast<SliceExpr>(&E);
    auto *C = Dest.make<SliceExpr>(Dest.copyString(S->name()), S->slice(),
                                   E.range());
    C->setRef(S->ref());
    Copy = C;
    break;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    Copy = Dest.make<UnaryExpr>(U->op(), cloneExpr(U->sub(), Dest),
                                E.range());
    break;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    Copy = Dest.make<BinaryExpr>(B->op(), cloneExpr(B->lhs(), Dest),
                                 cloneExpr(B->rhs(), Dest), E.range());
    break;
  }
  }
  if (E.hasType())
    Copy->setType(E.type());
  return Copy;
}

void vif::forEachNameUse(const Expr &E,
                         const std::function<void(const Expr &)> &Fn) {
  switch (E.kind()) {
  case Expr::Kind::LogicLiteral:
  case Expr::Kind::VectorLiteral:
    return;
  case Expr::Kind::Name:
  case Expr::Kind::Slice:
    Fn(E);
    return;
  case Expr::Kind::Unary:
    forEachNameUse(cast<UnaryExpr>(&E)->sub(), Fn);
    return;
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    forEachNameUse(B->lhs(), Fn);
    forEachNameUse(B->rhs(), Fn);
    return;
  }
  }
}
