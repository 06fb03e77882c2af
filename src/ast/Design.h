//===- ast/Design.h - VHDL1 design units ------------------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Design-unit level of the VHDL1 grammar (paper Figure 1):
///
///   pgm  ::= ent | arch | pgm1 pgm2
///   ent  ::= entity ie is port(prt); end ie;
///   prt  ::= s : in type | s : out type | prt1; prt2
///   arch ::= architecture ia of ie is begin css; end ia;
///   css  ::= s <= e | s(range) <= e
///          | ip : process decl; begin ss; end process ip
///          | ib : block decl; begin css; end block ib | css1|css2
///   decl ::= variable x : type := e | signal s : type := e | decl1; decl2
///
/// Extensions relative to the paper, both flagged in DESIGN.md:
///  * port mode `inout` (needed to model the AES state interface the Figure 5
///    experiment reads and writes);
///  * an optional architecture declarative part for signals (full VHDL
///    allows it; the paper routes all local signals through blocks).
///
//===----------------------------------------------------------------------===//

#ifndef VIF_AST_DESIGN_H
#define VIF_AST_DESIGN_H

#include "ast/Stmt.h"

#include <memory>
#include <string>
#include <vector>

namespace vif {

enum class PortMode : uint8_t { In, Out, InOut };

const char *portModeSpelling(PortMode Mode);

/// One port of an entity.
struct Port {
  std::string Name;
  PortMode Mode = PortMode::In;
  Type Ty;
  SourceRange Range;
};

/// entity ie is port(...); end ie;
struct Entity {
  std::string Name;
  std::vector<Port> Ports;
  SourceRange Range;
};

/// A variable or signal declaration.
struct Decl {
  enum class Kind : uint8_t { Variable, Signal };

  Kind K = Kind::Variable;
  std::string Name;
  Type Ty;
  Expr *Init = nullptr; ///< may be null (defaults to 'U' / "U...U")
  SourceRange Range;

  /// A copy whose initializer is cloned into \p Dest.
  Decl clone(AstArena &Dest) const;
};

/// Base class of concurrent statements.
class ConcStmt {
public:
  enum class Kind : uint8_t { Process, Block, SignalAssign };

  virtual ~ConcStmt();

  Kind kind() const { return K; }
  SourceRange range() const { return Range; }

  /// Deep copy of this statement and everything below it, its statement
  /// and expression nodes cloned into \p Dest.
  virtual std::unique_ptr<ConcStmt> clone(AstArena &Dest) const = 0;

protected:
  ConcStmt(Kind K, SourceRange Range) : K(K), Range(Range) {}

private:
  Kind K;
  SourceRange Range;
};

using ConcStmtPtr = std::unique_ptr<ConcStmt>;

/// ip : process decl; begin ss; end process ip.
class ProcessStmt : public ConcStmt {
public:
  ProcessStmt(std::string Label, std::vector<Decl> Decls, Stmt *Body,
              SourceRange Range)
      : ConcStmt(Kind::Process, Range), Label(std::move(Label)),
        Decls(std::move(Decls)), Body(Body) {}

  const std::string &label() const { return Label; }
  const std::vector<Decl> &decls() const { return Decls; }
  std::vector<Decl> &decls() { return Decls; }
  const Stmt &body() const { return *Body; }
  Stmt &body() { return *Body; }

  ConcStmtPtr clone(AstArena &Dest) const override;

  static bool classof(const ConcStmt *S) {
    return S->kind() == Kind::Process;
  }

private:
  std::string Label;
  std::vector<Decl> Decls;
  Stmt *Body;
};

/// ib : block decl; begin css; end block ib. Blocks introduce local signals
/// scoped over the nested concurrent statements; the elaborator flattens
/// them.
class BlockStmt : public ConcStmt {
public:
  BlockStmt(std::string Label, std::vector<Decl> Decls,
            std::vector<ConcStmtPtr> Stmts, SourceRange Range)
      : ConcStmt(Kind::Block, Range), Label(std::move(Label)),
        Decls(std::move(Decls)), Stmts(std::move(Stmts)) {}

  const std::string &label() const { return Label; }
  const std::vector<Decl> &decls() const { return Decls; }
  std::vector<Decl> &decls() { return Decls; }
  const std::vector<ConcStmtPtr> &stmts() const { return Stmts; }
  std::vector<ConcStmtPtr> &stmts() { return Stmts; }

  ConcStmtPtr clone(AstArena &Dest) const override;

  static bool classof(const ConcStmt *S) { return S->kind() == Kind::Block; }

private:
  std::string Label;
  std::vector<Decl> Decls;
  std::vector<ConcStmtPtr> Stmts;
};

/// A concurrent signal assignment: "corresponds to a process that is
/// sensitive to the free signals in the right-hand side expression and that
/// has the same assignment inside" (paper Section 2). The elaborator performs
/// exactly that rewriting.
class ConcAssignStmt : public ConcStmt {
public:
  ConcAssignStmt(std::string_view Target, std::optional<SliceSpec> Slice,
                 Expr *Value, SourceRange Range)
      : ConcStmt(Kind::SignalAssign, Range), Target(Target), Slice(Slice),
        Value(Value) {}

  std::string_view targetName() const { return Target; }
  bool hasSlice() const { return Slice.has_value(); }
  const SliceSpec &slice() const {
    assert(Slice && "assignment has no slice");
    return *Slice;
  }
  const Expr &value() const { return *Value; }
  Expr &value() { return *Value; }

  ConcStmtPtr clone(AstArena &Dest) const override;

  static bool classof(const ConcStmt *S) {
    return S->kind() == Kind::SignalAssign;
  }

private:
  std::string_view Target;
  std::optional<SliceSpec> Slice;
  Expr *Value;
};

/// architecture ia of ie is [decls] begin css; end ia;
struct Architecture {
  std::string Name;
  std::string EntityName;
  std::vector<Decl> Decls; ///< extension: architecture-level signals
  std::vector<ConcStmtPtr> Stmts;
  SourceRange Range;
};

/// A stand-alone statement program: optional variable/signal declarations
/// followed by a statement list (the shape of the paper's function-level
/// examples).
struct StatementProgram {
  AstArena Arena; ///< every Expr and Stmt node of the program
  std::vector<Decl> Decls;
  Stmt *Body = nullptr;

  /// A deep copy in an arena of its own.
  StatementProgram clone() const;
};

/// A parsed VHDL1 program: a sequence of entities and architectures.
struct DesignFile {
  AstArena Arena; ///< every Expr and Stmt node of the file
  std::vector<Entity> Entities;
  std::vector<Architecture> Architectures;

  const Entity *findEntity(const std::string &Name) const;
  const Architecture *findArchitecture(const std::string &Name) const;

  /// A deep copy in an arena of its own.
  DesignFile clone() const;
};

} // namespace vif

#endif // VIF_AST_DESIGN_H
