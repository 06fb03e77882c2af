//===- ast/Stmt.h - VHDL1 sequential statements -----------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VHDL1 statement grammar (paper Figure 1):
///
///   ss ::= null | x := e | x(z1 downto z2) := e | x(z1 to z2) := e
///        | s <= e | s(z1 downto z2) <= e | s(z1 to z2) <= e
///        | wait on S until e | ss1; ss2 | if e then ss1 else ss2
///        | while e do ss
///
/// The binary sequencing ss1; ss2 is represented as an n-ary CompoundStmt,
/// which is equivalent up to associativity and more convenient for a parser.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_AST_STMT_H
#define VIF_AST_STMT_H

#include "ast/Expr.h"

#include <optional>
#include <string_view>

namespace vif {

/// Base class of all VHDL1 sequential statements. Like Expr, nodes live in
/// an AstArena and are trivially destructible.
class Stmt {
public:
  enum class Kind : uint8_t {
    Null,
    VarAssign,
    SignalAssign,
    Wait,
    Compound,
    If,
    While,
  };

  Kind kind() const { return K; }
  SourceRange range() const { return Range; }

protected:
  Stmt(Kind K, SourceRange Range) : K(K), Range(Range) {}

private:
  Kind K;
  SourceRange Range;
};

/// null.
class NullStmt : public Stmt {
public:
  explicit NullStmt(SourceRange Range = SourceRange())
      : Stmt(Kind::Null, Range) {}

  static bool classof(const Stmt *S) { return S->kind() == Kind::Null; }
};

/// Common shape of the two assignment statements: a target name with an
/// optional static slice and a value expression.
class AssignStmtBase : public Stmt {
public:
  std::string_view targetName() const { return Target; }
  bool hasSlice() const { return HasSlice; }
  const SliceSpec &slice() const {
    assert(HasSlice && "assignment has no slice");
    return Slice;
  }
  const Expr &value() const { return *Value; }
  Expr &value() { return *Value; }

  ObjectRef targetRef() const { return Ref; }
  void setTargetRef(ObjectRef R) { Ref = R; }

  static bool classof(const Stmt *S) {
    return S->kind() == Kind::VarAssign || S->kind() == Kind::SignalAssign;
  }

protected:
  AssignStmtBase(Kind K, std::string_view Target,
                 std::optional<SliceSpec> Slice, Expr *Value,
                 SourceRange Range)
      : Stmt(K, Range), Target(Target), Value(Value),
        Slice(Slice.value_or(SliceSpec())), HasSlice(Slice.has_value()) {}

private:
  std::string_view Target;
  Expr *Value;
  SliceSpec Slice;
  ObjectRef Ref;
  bool HasSlice;
};

/// x := e and x(z1 downto z2) := e. The parser cannot distinguish variable
/// from signal targets by name, but it can by operator: ":=" always targets
/// a variable, "<=" always a signal.
class VarAssignStmt : public AssignStmtBase {
public:
  VarAssignStmt(std::string_view Target, std::optional<SliceSpec> Slice,
                Expr *Value, SourceRange Range)
      : AssignStmtBase(Kind::VarAssign, Target, Slice, Value, Range) {}

  static bool classof(const Stmt *S) { return S->kind() == Kind::VarAssign; }
};

/// s <= e and s(z1 downto z2) <= e. Assigns the *active* value (available
/// after the next delta-cycle); the present value is untouched.
class SignalAssignStmt : public AssignStmtBase {
public:
  SignalAssignStmt(std::string_view Target, std::optional<SliceSpec> Slice,
                   Expr *Value, SourceRange Range)
      : AssignStmtBase(Kind::SignalAssign, Target, Slice, Value, Range) {}

  static bool classof(const Stmt *S) {
    return S->kind() == Kind::SignalAssign;
  }
};

/// wait on S until e. Both components are optional in the source: the
/// defaults are S = FS(e) and e = true (paper Section 2); the elaborator
/// materializes them so analyses always see both.
class WaitStmt : public Stmt {
public:
  WaitStmt(ArenaArray<std::string_view> OnNames, bool HasOn, Expr *Until,
           SourceRange Range)
      : Stmt(Kind::Wait, Range), OnNames(OnNames), Until(Until),
        HasOn(HasOn) {}

  /// Signal names in the `on` clause as written (possibly empty).
  const ArenaArray<std::string_view> &onNames() const { return OnNames; }
  bool hasExplicitOn() const { return HasOn; }

  bool hasUntil() const { return Until != nullptr; }
  const Expr &until() const {
    assert(Until && "wait has no until condition");
    return *Until;
  }
  Expr &until() {
    assert(Until && "wait has no until condition");
    return *Until;
  }

  /// Resolved ids of the signals waited on, ascending (filled by the
  /// elaborator, including defaulted `on` sets).
  const ArenaArray<unsigned> &onSignals() const { return OnSignals; }
  void setOnSignals(ArenaArray<unsigned> Sigs) { OnSignals = Sigs; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Wait; }

private:
  ArenaArray<std::string_view> OnNames;
  ArenaArray<unsigned> OnSignals;
  Expr *Until;
  bool HasOn;
};

/// ss1; ss2; ...; ssn.
class CompoundStmt : public Stmt {
public:
  CompoundStmt(ArenaArray<Stmt *> Stmts, SourceRange Range)
      : Stmt(Kind::Compound, Range), Stmts(Stmts) {}

  const ArenaArray<Stmt *> &stmts() const { return Stmts; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Compound; }

private:
  ArenaArray<Stmt *> Stmts;
};

/// if e then ss1 else ss2. A missing else branch parses as NullStmt, so
/// Else is never null.
class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, Stmt *Then, Stmt *Else, SourceRange Range)
      : Stmt(Kind::If, Range), Cond(Cond), Then(Then), Else(Else) {
    assert(this->Then && this->Else && "if branches must be non-null");
  }

  const Expr &cond() const { return *Cond; }
  Expr &cond() { return *Cond; }
  const Stmt &thenStmt() const { return *Then; }
  const Stmt &elseStmt() const { return *Else; }
  Stmt &thenStmt() { return *Then; }
  Stmt &elseStmt() { return *Else; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else;
};

/// while e do ss.
class WhileStmt : public Stmt {
public:
  WhileStmt(Expr *Cond, Stmt *Body, SourceRange Range)
      : Stmt(Kind::While, Range), Cond(Cond), Body(Body) {}

  const Expr &cond() const { return *Cond; }
  Expr &cond() { return *Cond; }
  const Stmt &body() const { return *Body; }
  Stmt &body() { return *Body; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::While; }

private:
  Expr *Cond;
  Stmt *Body;
};

static_assert(sizeof(VarAssignStmt) <= 72 && sizeof(SignalAssignStmt) <= 72,
              "assignments, a large tree's commonest statements, stay "
              "compact");

/// Deep copy of \p S into \p Dest, like cloneExpr.
Stmt *cloneStmt(const Stmt &S, AstArena &Dest);

} // namespace vif

#endif // VIF_AST_STMT_H
