//===- ast/Expr.h - VHDL1 expressions ---------------------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VHDL1 expression grammar (paper Figure 1):
///
///   e ::= m | a | x | x(z1 downto z2) | x(z1 to z2) | s | s(z1 downto z2)
///       | s(z1 to z2) | opum e | e1 opbm e2 | e1 opa e2
///
/// Variables and signals are syntactically identical identifiers; the parser
/// produces NameExpr/SliceExpr nodes and the elaborator resolves each to a
/// variable or a signal (ObjectRef). All analyses require resolved trees.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_AST_EXPR_H
#define VIF_AST_EXPR_H

#include "ast/Arena.h"
#include "ast/Type.h"
#include "stdlogic/LogicVector.h"
#include "stdlogic/StdLogic.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace vif {

/// Resolution of an identifier to the elaborated object it denotes.
/// Variable ids index ElaboratedProgram::Variables, signal ids
/// ElaboratedProgram::Signals.
struct ObjectRef {
  enum class Kind : uint8_t { Unresolved, Variable, Signal };

  Kind K = Kind::Unresolved;
  unsigned Id = 0;

  bool isResolved() const { return K != Kind::Unresolved; }
  bool isVariable() const { return K == Kind::Variable; }
  bool isSignal() const { return K == Kind::Signal; }

  static ObjectRef variable(unsigned Id) {
    return ObjectRef{Kind::Variable, Id};
  }
  static ObjectRef signal(unsigned Id) { return ObjectRef{Kind::Signal, Id}; }
};

/// A static slice designator (z1 downto z2) or (z1 to z2).
struct SliceSpec {
  int Z1 = 0;
  int Z2 = 0;
  bool Downto = true;

  unsigned width() const {
    return static_cast<unsigned>(Z1 > Z2 ? Z1 - Z2 : Z2 - Z1) + 1;
  }
  std::string str() const {
    return std::to_string(Z1) + (Downto ? " downto " : " to ") +
           std::to_string(Z2);
  }
};

enum class UnaryOpKind : uint8_t { Not };

enum class BinaryOpKind : uint8_t {
  // opbm: logical operators, element-wise on equal-width vectors.
  And,
  Or,
  Nand,
  Nor,
  Xor,
  Xnor,
  // Relational operators; result is std_logic (the fragment folds booleans
  // into std_logic, conditions test for '1').
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  // opa: arithmetic on equal-width vectors (numeric_std unsigned, mod 2^n).
  Add,
  Sub,
  Mul,
  // Concatenation.
  Concat,
};

/// VHDL spelling of an operator ("and", "/=", "&", ...).
const char *unaryOpSpelling(UnaryOpKind Op);
const char *binaryOpSpelling(BinaryOpKind Op);

/// Base class of all VHDL1 expressions. Nodes live in an AstArena
/// (ast/Arena.h) and are trivially destructible: names are views of
/// arena-held spellings, literal bits and children arena pointers.
class Expr {
public:
  enum class Kind : uint8_t {
    LogicLiteral,
    VectorLiteral,
    Name,
    Slice,
    Unary,
    Binary,
  };

  Kind kind() const { return K; }
  SourceRange range() const { return Range; }

  /// The static type, filled in by the elaborator.
  bool hasType() const { return HasType; }
  const Type &type() const {
    assert(HasType && "expression has not been type-checked");
    return Ty;
  }
  void setType(Type T) {
    Ty = T;
    HasType = true;
  }

protected:
  Expr(Kind K, SourceRange Range) : K(K), Range(Range) {}

private:
  Kind K;
  bool HasType = false;
  SourceRange Range;
  Type Ty;
};

/// A logic-value literal, e.g. '1'.
class LogicLiteralExpr : public Expr {
public:
  LogicLiteralExpr(StdLogic Value, SourceRange Range)
      : Expr(Kind::LogicLiteral, Range), Value(Value) {}

  StdLogic value() const { return Value; }

  static bool classof(const Expr *E) {
    return E->kind() == Kind::LogicLiteral;
  }

private:
  StdLogic Value;
};

/// A vector literal, e.g. "0101": its bits, leftmost first, in the arena.
class VectorLiteralExpr : public Expr {
public:
  VectorLiteralExpr(ArenaArray<StdLogic> Bits, SourceRange Range)
      : Expr(Kind::VectorLiteral, Range), Bits(Bits) {}

  const ArenaArray<StdLogic> &bits() const { return Bits; }
  size_t width() const { return Bits.size(); }
  /// The bits as a value (a copy).
  LogicVector value() const {
    return LogicVector(std::vector<StdLogic>(Bits.begin(), Bits.end()));
  }

  static bool classof(const Expr *E) {
    return E->kind() == Kind::VectorLiteral;
  }

private:
  ArenaArray<StdLogic> Bits;
};

/// A whole-object reference: x or s.
class NameExpr : public Expr {
public:
  NameExpr(std::string_view Name, SourceRange Range)
      : Expr(Kind::Name, Range), Name(Name) {}

  std::string_view name() const { return Name; }
  ObjectRef ref() const { return Ref; }
  void setRef(ObjectRef R) { Ref = R; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Name; }

private:
  std::string_view Name;
  ObjectRef Ref;
};

/// A static slice of an object: x(z1 downto z2) or s(z1 to z2).
class SliceExpr : public Expr {
public:
  SliceExpr(std::string_view Name, SliceSpec Slice, SourceRange Range)
      : Expr(Kind::Slice, Range), Name(Name), Slice(Slice) {}

  std::string_view name() const { return Name; }
  const SliceSpec &slice() const { return Slice; }
  ObjectRef ref() const { return Ref; }
  void setRef(ObjectRef R) { Ref = R; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Slice; }

private:
  std::string_view Name;
  SliceSpec Slice;
  ObjectRef Ref;
};

/// opum e.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOpKind Op, Expr *Sub, SourceRange Range)
      : Expr(Kind::Unary, Range), Op(Op), Sub(Sub) {}

  UnaryOpKind op() const { return Op; }
  const Expr &sub() const { return *Sub; }
  Expr &sub() { return *Sub; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Unary; }

private:
  UnaryOpKind Op;
  Expr *Sub;
};

/// e1 opbm e2 and e1 opa e2.
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOpKind Op, Expr *LHS, Expr *RHS, SourceRange Range)
      : Expr(Kind::Binary, Range), Op(Op), LHS(LHS), RHS(RHS) {}

  BinaryOpKind op() const { return Op; }
  const Expr &lhs() const { return *LHS; }
  const Expr &rhs() const { return *RHS; }
  Expr &lhs() { return *LHS; }
  Expr &rhs() { return *RHS; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }

private:
  BinaryOpKind Op;
  Expr *LHS;
  Expr *RHS;
};

// Literals, names and binary operators are most of a large tree's nodes.
static_assert(sizeof(VectorLiteralExpr) <= 48 && sizeof(NameExpr) <= 56 &&
                  sizeof(BinaryExpr) <= 56,
              "the hot expression nodes stay compact");

/// Deep copy of \p E into \p Dest, resolutions, types and spellings
/// included: the copy shares nothing with \p E's arena.
Expr *cloneExpr(const Expr &E, AstArena &Dest);

/// Invokes \p Fn on every NameExpr/SliceExpr in \p E (pre-order).
void forEachNameUse(const Expr &E,
                    const std::function<void(const Expr &)> &Fn);

} // namespace vif

#endif // VIF_AST_EXPR_H
