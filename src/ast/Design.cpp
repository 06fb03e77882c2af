//===- ast/Design.cpp -----------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ast/Design.h"

using namespace vif;

// Out-of-line virtual anchor.
ConcStmt::~ConcStmt() = default;

namespace {

std::vector<Decl> cloneDecls(const std::vector<Decl> &Decls,
                             AstArena &Dest) {
  std::vector<Decl> Out;
  Out.reserve(Decls.size());
  for (const Decl &D : Decls)
    Out.push_back(D.clone(Dest));
  return Out;
}

std::vector<ConcStmtPtr> cloneStmts(const std::vector<ConcStmtPtr> &Stmts,
                                    AstArena &Dest) {
  std::vector<ConcStmtPtr> Out;
  Out.reserve(Stmts.size());
  for (const ConcStmtPtr &S : Stmts)
    Out.push_back(S->clone(Dest));
  return Out;
}

} // namespace

Decl Decl::clone(AstArena &Dest) const {
  Decl D;
  D.K = K;
  D.Name = Name;
  D.Ty = Ty;
  D.Init = Init ? cloneExpr(*Init, Dest) : nullptr;
  D.Range = Range;
  return D;
}

ConcStmtPtr ProcessStmt::clone(AstArena &Dest) const {
  return std::make_unique<ProcessStmt>(Label, cloneDecls(Decls, Dest),
                                       Body ? cloneStmt(*Body, Dest) : nullptr,
                                       range());
}

ConcStmtPtr BlockStmt::clone(AstArena &Dest) const {
  return std::make_unique<BlockStmt>(Label, cloneDecls(Decls, Dest),
                                     cloneStmts(Stmts, Dest), range());
}

ConcStmtPtr ConcAssignStmt::clone(AstArena &Dest) const {
  return std::make_unique<ConcAssignStmt>(
      Dest.copyString(Target), Slice,
      Value ? cloneExpr(*Value, Dest) : nullptr, range());
}

DesignFile DesignFile::clone() const {
  DesignFile F;
  F.Entities = Entities;
  for (const Architecture &A : Architectures) {
    Architecture C;
    C.Name = A.Name;
    C.EntityName = A.EntityName;
    C.Decls = cloneDecls(A.Decls, F.Arena);
    C.Stmts = cloneStmts(A.Stmts, F.Arena);
    C.Range = A.Range;
    F.Architectures.push_back(std::move(C));
  }
  return F;
}

StatementProgram StatementProgram::clone() const {
  StatementProgram P;
  P.Decls = cloneDecls(Decls, P.Arena);
  P.Body = Body ? cloneStmt(*Body, P.Arena) : nullptr;
  return P;
}

const char *vif::portModeSpelling(PortMode Mode) {
  switch (Mode) {
  case PortMode::In:
    return "in";
  case PortMode::Out:
    return "out";
  case PortMode::InOut:
    return "inout";
  }
  return "?";
}

const Entity *DesignFile::findEntity(const std::string &Name) const {
  for (const Entity &E : Entities)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

const Architecture *
DesignFile::findArchitecture(const std::string &Name) const {
  for (const Architecture &A : Architectures)
    if (A.Name == Name)
      return &A;
  return nullptr;
}
