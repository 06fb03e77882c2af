//===- sema/Elaborator.cpp ------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "sema/Elaborator.h"

#include "support/Casting.h"

#include <algorithm>
#include <map>
#include <set>

using namespace vif;

const char *vif::signalClassName(SignalClass C) {
  switch (C) {
  case SignalClass::Internal:
    return "internal";
  case SignalClass::PortIn:
    return "in";
  case SignalClass::PortOut:
    return "out";
  case SignalClass::PortInOut:
    return "inout";
  }
  return "?";
}

std::vector<unsigned> ElaboratedProgram::inputSignals() const {
  std::vector<unsigned> Result;
  for (const ElabSignal &S : Signals)
    if (S.isInput())
      Result.push_back(S.Id);
  return Result;
}

std::vector<unsigned> ElaboratedProgram::outputSignals() const {
  std::vector<unsigned> Result;
  for (const ElabSignal &S : Signals)
    if (S.isOutput())
      Result.push_back(S.Id);
  return Result;
}

//===----------------------------------------------------------------------===//
// Free-object collection
//===----------------------------------------------------------------------===//

namespace {

void insertSorted(std::vector<unsigned> &V, unsigned Id) {
  auto It = std::lower_bound(V.begin(), V.end(), Id);
  if (It == V.end() || *It != Id)
    V.insert(It, Id);
}

void collectRef(ObjectRef Ref, std::vector<unsigned> &Vars,
                std::vector<unsigned> &Sigs) {
  assert(Ref.isResolved() && "free-object scan requires a resolved tree");
  if (Ref.isVariable())
    insertSorted(Vars, Ref.Id);
  else
    insertSorted(Sigs, Ref.Id);
}

} // namespace

void vif::collectExprObjects(const Expr &E, std::vector<unsigned> &Vars,
                             std::vector<unsigned> &Sigs) {
  forEachNameUse(E, [&](const Expr &Use) {
    if (const auto *N = dyn_cast<NameExpr>(&Use))
      collectRef(N->ref(), Vars, Sigs);
    else
      collectRef(cast<SliceExpr>(&Use)->ref(), Vars, Sigs);
  });
}

void vif::collectStmtObjects(const Stmt &S, std::vector<unsigned> &Vars,
                             std::vector<unsigned> &Sigs) {
  switch (S.kind()) {
  case Stmt::Kind::Null:
    return;
  case Stmt::Kind::VarAssign:
  case Stmt::Kind::SignalAssign: {
    const auto *A = cast<AssignStmtBase>(&S);
    collectRef(A->targetRef(), Vars, Sigs);
    collectExprObjects(A->value(), Vars, Sigs);
    return;
  }
  case Stmt::Kind::Wait: {
    const auto *W = cast<WaitStmt>(&S);
    for (unsigned Sig : W->onSignals())
      insertSorted(Sigs, Sig);
    if (W->hasUntil())
      collectExprObjects(W->until(), Vars, Sigs);
    return;
  }
  case Stmt::Kind::Compound:
    for (const StmtPtr &Sub : cast<CompoundStmt>(&S)->stmts())
      collectStmtObjects(*Sub, Vars, Sigs);
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(&S);
    collectExprObjects(I->cond(), Vars, Sigs);
    collectStmtObjects(I->thenStmt(), Vars, Sigs);
    collectStmtObjects(I->elseStmt(), Vars, Sigs);
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(&S);
    collectExprObjects(W->cond(), Vars, Sigs);
    collectStmtObjects(W->body(), Vars, Sigs);
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Elaborator
//===----------------------------------------------------------------------===//

namespace {

/// Scope entry for a visible signal.
struct SignalBinding {
  std::string Name;
  unsigned Id;
};

class Elaborator {
public:
  Elaborator(DiagnosticEngine &Diags) : Diags(Diags) {}

  std::optional<ElaboratedProgram> run(const DesignFile &File,
                                       const ElaborateOptions &Opts);

private:
  void declarePort(const Port &P);
  unsigned declareSignal(const Decl &D, SignalClass Class,
                         const std::string &ScopePrefix);
  void elabConcStmts(const std::vector<ConcStmtPtr> &Stmts,
                     std::vector<std::vector<SignalBinding>> &Scopes,
                     const std::string &ScopePrefix);
  void elabProcess(const ProcessStmt &P,
                   std::vector<std::vector<SignalBinding>> &Scopes);
  void elabConcAssign(const ConcAssignStmt &A,
                      std::vector<std::vector<SignalBinding>> &Scopes);

  /// Looks a signal name up through the scope stack, innermost first.
  std::optional<unsigned>
  lookupSignal(const std::string &Name,
               const std::vector<std::vector<SignalBinding>> &Scopes) const;

  /// Checks that \p Init is a literal of type \p Ty (or null).
  ExprPtr checkInitializer(const ExprPtr &Init, const Type &Ty,
                           const char *What, const std::string &Name);

  DiagnosticEngine &Diags;
  ElaboratedProgram Program;
  std::set<std::string> UsedSignalNames;
  unsigned NextConcAssign = 0;
};

/// Resolves and type-checks the statements of one process. Also used for
/// the bare-statement entry point with implicit declarations enabled.
class ProcessChecker {
public:
  ProcessChecker(DiagnosticEngine &Diags, ElaboratedProgram &Program,
                 unsigned ProcessId,
                 const std::vector<std::vector<SignalBinding>> *SignalScopes,
                 bool ImplicitDecls)
      : Diags(Diags), Program(Program), ProcessId(ProcessId),
        SignalScopes(SignalScopes), ImplicitDecls(ImplicitDecls) {}

  /// Declares a process-local variable; reports redeclarations.
  void declareVariable(const std::string &Name, Type Ty, ExprPtr Init,
                       SourceLoc Loc);

  void checkStmt(Stmt &S);

  /// Implicit-declaration mode only: declares every `<=` target and every
  /// waited-on name as a scalar signal, so later reads resolve to signals.
  void predeclareSignals(const Stmt &S);

  /// Statement-program mode: declares \p D (variable or internal signal)
  /// before resolution starts.
  void declareUpFront(const Decl &D);

private:
  std::optional<Type> checkExpr(Expr &E);
  std::optional<Type> checkName(NameExpr &E);
  std::optional<Type> checkSlice(SliceExpr &E);
  std::optional<ObjectRef> resolve(const std::string &Name, SourceLoc Loc,
                                   bool WantSignal);
  void checkCondition(Expr &E, const char *What);
  void checkAssign(AssignStmtBase &S, bool IsSignal);
  void checkWait(WaitStmt &W);

  const Type *typeOf(ObjectRef Ref) const;

  DiagnosticEngine &Diags;
  ElaboratedProgram &Program;
  unsigned ProcessId;
  const std::vector<std::vector<SignalBinding>> *SignalScopes;
  bool ImplicitDecls;
  std::map<std::string, unsigned> LocalVars;
  std::vector<SignalBinding> ImplicitSignals;
};

void ProcessChecker::declareUpFront(const Decl &D) {
  assert(ImplicitDecls && "up-front declaration is for statement programs");
  ExprPtr Init;
  if (D.Init) {
    // Statement programs accept literal initializers only, like designs.
    if (isa<LogicLiteralExpr>(D.Init.get()) ||
        isa<VectorLiteralExpr>(D.Init.get()))
      Init = D.Init->clone();
    else
      Diags.error(D.Range.Begin, "initializer of '" + D.Name +
                                     "' must be a literal");
  }
  if (D.K == Decl::Kind::Variable) {
    declareVariable(D.Name, D.Ty, std::move(Init), D.Range.Begin);
    return;
  }
  for (const SignalBinding &B : ImplicitSignals)
    if (B.Name == D.Name) {
      Diags.error(D.Range.Begin, "redeclaration of signal '" + D.Name + "'");
      return;
    }
  ElabSignal Sig;
  Sig.Id = static_cast<unsigned>(Program.Signals.size());
  Sig.Name = Sig.UniqueName = D.Name;
  Sig.Ty = D.Ty;
  Sig.Init = std::move(Init);
  Program.Signals.push_back(std::move(Sig));
  ImplicitSignals.push_back({D.Name, Program.Signals.back().Id});
}

void ProcessChecker::predeclareSignals(const Stmt &S) {
  assert(ImplicitDecls && "predeclaration is for implicit mode only");
  auto DeclareSignal = [&](const std::string &Name) {
    for (const SignalBinding &B : ImplicitSignals)
      if (B.Name == Name)
        return;
    ElabSignal Sig;
    Sig.Id = static_cast<unsigned>(Program.Signals.size());
    Sig.Name = Sig.UniqueName = Name;
    Sig.Ty = Type::scalar();
    Program.Signals.push_back(std::move(Sig));
    ImplicitSignals.push_back({Name, Program.Signals.back().Id});
  };
  switch (S.kind()) {
  case Stmt::Kind::Null:
  case Stmt::Kind::VarAssign:
    return;
  case Stmt::Kind::SignalAssign:
    DeclareSignal(cast<SignalAssignStmt>(&S)->targetName());
    return;
  case Stmt::Kind::Wait:
    for (const std::string &Name : cast<WaitStmt>(&S)->onNames())
      DeclareSignal(Name);
    return;
  case Stmt::Kind::Compound:
    for (const StmtPtr &Sub : cast<CompoundStmt>(&S)->stmts())
      predeclareSignals(*Sub);
    return;
  case Stmt::Kind::If:
    predeclareSignals(cast<IfStmt>(&S)->thenStmt());
    predeclareSignals(cast<IfStmt>(&S)->elseStmt());
    return;
  case Stmt::Kind::While:
    predeclareSignals(cast<WhileStmt>(&S)->body());
    return;
  }
}

void ProcessChecker::declareVariable(const std::string &Name, Type Ty,
                                     ExprPtr Init, SourceLoc Loc) {
  if (LocalVars.count(Name)) {
    Diags.error(Loc, "redeclaration of variable '" + Name + "'");
    return;
  }
  ElabVariable V;
  V.Id = static_cast<unsigned>(Program.Variables.size());
  V.Name = Name;
  // Qualify on collision with a variable of the same name in another
  // process, so graph nodes stay unambiguous.
  bool Clash = false;
  for (const ElabVariable &Other : Program.Variables)
    if (Other.Name == Name)
      Clash = true;
  V.UniqueName =
      Clash ? Program.process(ProcessId).Name + "." + Name : Name;
  if (Clash) {
    // Retroactively qualify the earlier homonyms as well.
    for (ElabVariable &Other : Program.Variables)
      if (Other.Name == Name && Other.UniqueName == Name)
        Other.UniqueName =
            Program.process(Other.ProcessId).Name + "." + Name;
  }
  V.Ty = Ty;
  V.Init = std::move(Init);
  V.ProcessId = ProcessId;
  LocalVars[Name] = V.Id;
  Program.Variables.push_back(std::move(V));
  Program.Processes[ProcessId].Variables.push_back(
      Program.Variables.back().Id);
}

const Type *ProcessChecker::typeOf(ObjectRef Ref) const {
  if (Ref.isVariable())
    return &Program.variable(Ref.Id).Ty;
  if (Ref.isSignal())
    return &Program.signal(Ref.Id).Ty;
  return nullptr;
}

std::optional<ObjectRef> ProcessChecker::resolve(const std::string &Name,
                                                 SourceLoc Loc,
                                                 bool WantSignal) {
  auto It = LocalVars.find(Name);
  if (It != LocalVars.end())
    return ObjectRef::variable(It->second);
  for (const SignalBinding &B : ImplicitSignals)
    if (B.Name == Name)
      return ObjectRef::signal(B.Id);
  if (SignalScopes) {
    for (auto ScopeIt = SignalScopes->rbegin();
         ScopeIt != SignalScopes->rend(); ++ScopeIt)
      for (const SignalBinding &B : *ScopeIt)
        if (B.Name == Name)
          return ObjectRef::signal(B.Id);
  }
  if (ImplicitDecls) {
    // Bare-statement mode: fabricate a scalar object on first use.
    // Signal-ness was fixed up front by predeclareSignals; everything else
    // is a variable.
    if (WantSignal) {
      ElabSignal S;
      S.Id = static_cast<unsigned>(Program.Signals.size());
      S.Name = S.UniqueName = Name;
      S.Ty = Type::scalar();
      Program.Signals.push_back(std::move(S));
      ImplicitSignals.push_back({Name, Program.Signals.back().Id});
      return ObjectRef::signal(Program.Signals.back().Id);
    }
    declareVariable(Name, Type::scalar(), nullptr, Loc);
    return ObjectRef::variable(LocalVars.at(Name));
  }
  Diags.error(Loc, "use of undeclared name '" + Name + "'");
  return std::nullopt;
}

std::optional<Type> ProcessChecker::checkName(NameExpr &E) {
  if (!E.ref().isResolved()) {
    std::optional<ObjectRef> Ref =
        resolve(E.name(), E.range().Begin, /*WantSignal=*/false);
    if (!Ref)
      return std::nullopt;
    E.setRef(*Ref);
  }
  Type Ty = *typeOf(E.ref());
  if (E.ref().isSignal() &&
      Program.signal(E.ref().Id).Class == SignalClass::PortOut)
    Diags.error(E.range().Begin,
                "cannot read 'out' port '" + E.name() + "'");
  E.setType(Ty);
  return Ty;
}

std::optional<Type> ProcessChecker::checkSlice(SliceExpr &E) {
  if (!E.ref().isResolved()) {
    std::optional<ObjectRef> Ref =
        resolve(E.name(), E.range().Begin, /*WantSignal=*/false);
    if (!Ref)
      return std::nullopt;
    E.setRef(*Ref);
  }
  const Type &DeclTy = *typeOf(E.ref());
  if (E.ref().isSignal() &&
      Program.signal(E.ref().Id).Class == SignalClass::PortOut)
    Diags.error(E.range().Begin,
                "cannot read 'out' port '" + E.name() + "'");
  const SliceSpec &Sl = E.slice();
  if (!DeclTy.sliceValid(Sl.Z1, Sl.Z2, Sl.Downto)) {
    Diags.error(E.range().Begin, "slice (" + Sl.str() +
                                     ") is invalid for '" + E.name() +
                                     "' of type " + DeclTy.str());
    return std::nullopt;
  }
  Type Ty = Type::vector(Sl.Z1, Sl.Z2, Sl.Downto);
  E.setType(Ty);
  return Ty;
}

std::optional<Type> ProcessChecker::checkExpr(Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::LogicLiteral:
    E.setType(Type::scalar());
    return Type::scalar();
  case Expr::Kind::VectorLiteral: {
    const LogicVector &V = cast<VectorLiteralExpr>(&E)->value();
    if (V.empty()) {
      Diags.error(E.range().Begin, "empty vector literal");
      return std::nullopt;
    }
    Type Ty = Type::vector(static_cast<int>(V.size()) - 1, 0, true);
    E.setType(Ty);
    return Ty;
  }
  case Expr::Kind::Name:
    return checkName(*cast<NameExpr>(&E));
  case Expr::Kind::Slice:
    return checkSlice(*cast<SliceExpr>(&E));
  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(&E);
    std::optional<Type> Sub = checkExpr(U->sub());
    if (!Sub)
      return std::nullopt;
    E.setType(*Sub);
    return Sub;
  }
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(&E);
    std::optional<Type> L = checkExpr(B->lhs());
    std::optional<Type> R = checkExpr(B->rhs());
    if (!L || !R)
      return std::nullopt;
    switch (B->op()) {
    case BinaryOpKind::And:
    case BinaryOpKind::Or:
    case BinaryOpKind::Nand:
    case BinaryOpKind::Nor:
    case BinaryOpKind::Xor:
    case BinaryOpKind::Xnor:
      if (L->isVector() != R->isVector() || L->width() != R->width()) {
        Diags.error(E.range().Begin,
                    std::string("operands of '") +
                        binaryOpSpelling(B->op()) +
                        "' must have equal widths (" + L->str() + " vs " +
                        R->str() + ")");
        return std::nullopt;
      }
      E.setType(*L);
      return L;
    case BinaryOpKind::Eq:
    case BinaryOpKind::Ne:
    case BinaryOpKind::Lt:
    case BinaryOpKind::Le:
    case BinaryOpKind::Gt:
    case BinaryOpKind::Ge:
      if (L->isVector() != R->isVector() || L->width() != R->width()) {
        Diags.error(E.range().Begin,
                    std::string("operands of '") +
                        binaryOpSpelling(B->op()) +
                        "' must have equal widths (" + L->str() + " vs " +
                        R->str() + ")");
        return std::nullopt;
      }
      E.setType(Type::scalar());
      return Type::scalar();
    case BinaryOpKind::Add:
    case BinaryOpKind::Sub:
    case BinaryOpKind::Mul:
      if (!L->isVector() || !R->isVector() || L->width() != R->width()) {
        Diags.error(E.range().Begin,
                    std::string("operands of '") +
                        binaryOpSpelling(B->op()) +
                        "' must be equal-width vectors");
        return std::nullopt;
      }
      E.setType(*L);
      return L;
    case BinaryOpKind::Concat: {
      unsigned Width = L->width() + R->width();
      Type Ty = Type::vector(static_cast<int>(Width) - 1, 0, true);
      E.setType(Ty);
      return Ty;
    }
    }
    return std::nullopt;
  }
  }
  return std::nullopt;
}

void ProcessChecker::checkCondition(Expr &E, const char *What) {
  std::optional<Type> Ty = checkExpr(E);
  if (Ty && !Ty->isScalar())
    Diags.error(E.range().Begin,
                std::string(What) + " condition must be std_logic, got " +
                    Ty->str());
}

void ProcessChecker::checkAssign(AssignStmtBase &S, bool IsSignal) {
  std::optional<ObjectRef> Ref = S.targetRef().isResolved()
                                     ? std::optional<ObjectRef>(S.targetRef())
                                     : resolve(S.targetName(),
                                               S.range().Begin, IsSignal);
  std::optional<Type> ValueTy = checkExpr(S.value());
  if (!Ref)
    return;
  S.setTargetRef(*Ref);
  if (IsSignal && !Ref->isSignal()) {
    Diags.error(S.range().Begin,
                "'" + S.targetName() + "' is a variable; use ':=' to assign");
    return;
  }
  if (!IsSignal && !Ref->isVariable()) {
    Diags.error(S.range().Begin,
                "'" + S.targetName() + "' is a signal; use '<=' to assign");
    return;
  }
  if (Ref->isSignal()) {
    SignalClass Class = Program.signal(Ref->Id).Class;
    if (Class == SignalClass::PortIn)
      Diags.error(S.range().Begin,
                  "cannot assign to 'in' port '" + S.targetName() + "'");
  }
  const Type &DeclTy = *typeOf(*Ref);
  Type TargetTy = DeclTy;
  if (S.hasSlice()) {
    const SliceSpec &Sl = S.slice();
    if (!DeclTy.sliceValid(Sl.Z1, Sl.Z2, Sl.Downto)) {
      Diags.error(S.range().Begin, "slice (" + Sl.str() +
                                       ") is invalid for '" +
                                       S.targetName() + "' of type " +
                                       DeclTy.str());
      return;
    }
    TargetTy = Type::vector(Sl.Z1, Sl.Z2, Sl.Downto);
  }
  if (ValueTy && !TargetTy.assignableFrom(*ValueTy))
    Diags.error(S.range().Begin, "cannot assign " + ValueTy->str() + " to " +
                                     (S.hasSlice() ? "slice of " : "") +
                                     "'" + S.targetName() + "' of type " +
                                     DeclTy.str());
}

void ProcessChecker::checkWait(WaitStmt &W) {
  if (W.hasUntil())
    checkCondition(W.until(), "wait until");
  std::vector<unsigned> OnSigs;
  if (W.hasExplicitOn()) {
    for (const std::string &Name : W.onNames()) {
      std::optional<ObjectRef> Ref =
          resolve(Name, W.range().Begin, /*WantSignal=*/true);
      if (!Ref)
        continue;
      if (!Ref->isSignal()) {
        Diags.error(W.range().Begin,
                    "wait 'on' requires signals; '" + Name +
                        "' is a variable");
        continue;
      }
      insertSorted(OnSigs, Ref->Id);
    }
  } else if (W.hasUntil()) {
    // Default: S = FS(e) (paper Section 2).
    std::vector<unsigned> Vars;
    collectExprObjects(W.until(), Vars, OnSigs);
  }
  W.setOnSignals(std::move(OnSigs));
}

void ProcessChecker::checkStmt(Stmt &S) {
  switch (S.kind()) {
  case Stmt::Kind::Null:
    return;
  case Stmt::Kind::VarAssign:
    checkAssign(*cast<VarAssignStmt>(&S), /*IsSignal=*/false);
    return;
  case Stmt::Kind::SignalAssign:
    checkAssign(*cast<SignalAssignStmt>(&S), /*IsSignal=*/true);
    return;
  case Stmt::Kind::Wait:
    checkWait(*cast<WaitStmt>(&S));
    return;
  case Stmt::Kind::Compound:
    for (StmtPtr &Sub : cast<CompoundStmt>(&S)->stmts())
      checkStmt(*Sub);
    return;
  case Stmt::Kind::If: {
    auto *I = cast<IfStmt>(&S);
    checkCondition(I->cond(), "if");
    checkStmt(const_cast<Stmt &>(I->thenStmt()));
    checkStmt(const_cast<Stmt &>(I->elseStmt()));
    return;
  }
  case Stmt::Kind::While: {
    auto *W = cast<WhileStmt>(&S);
    checkCondition(W->cond(), "while");
    checkStmt(const_cast<Stmt &>(W->body()));
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Design-level elaboration
//===----------------------------------------------------------------------===//

ExprPtr Elaborator::checkInitializer(const ExprPtr &Init, const Type &Ty,
                                     const char *What,
                                     const std::string &Name) {
  if (!Init)
    return nullptr;
  if (const auto *L = dyn_cast<LogicLiteralExpr>(Init.get())) {
    if (!Ty.isScalar()) {
      Diags.error(Init->range().Begin,
                  std::string("initializer of ") + What + " '" + Name +
                      "' must be a vector literal");
      return nullptr;
    }
    ExprPtr C = L->clone();
    C->setType(Type::scalar());
    return C;
  }
  if (const auto *V = dyn_cast<VectorLiteralExpr>(Init.get())) {
    if (!Ty.isVector() || Ty.width() != V->value().size()) {
      Diags.error(Init->range().Begin,
                  std::string("initializer of ") + What + " '" + Name +
                      "' must be a vector literal of width " +
                      std::to_string(Ty.width()));
      return nullptr;
    }
    ExprPtr C = V->clone();
    C->setType(Type::vector(static_cast<int>(V->value().size()) - 1, 0,
                            true));
    return C;
  }
  Diags.error(Init->range().Begin,
              std::string("initializer of ") + What + " '" + Name +
                  "' must be a literal");
  return nullptr;
}

void Elaborator::declarePort(const Port &P) {
  if (!UsedSignalNames.insert(P.Name).second) {
    Diags.error(P.Range.Begin, "duplicate port name '" + P.Name + "'");
    return;
  }
  ElabSignal S;
  S.Id = static_cast<unsigned>(Program.Signals.size());
  S.Name = S.UniqueName = P.Name;
  S.Ty = P.Ty;
  switch (P.Mode) {
  case PortMode::In:
    S.Class = SignalClass::PortIn;
    break;
  case PortMode::Out:
    S.Class = SignalClass::PortOut;
    break;
  case PortMode::InOut:
    S.Class = SignalClass::PortInOut;
    break;
  }
  Program.Signals.push_back(std::move(S));
}

unsigned Elaborator::declareSignal(const Decl &D, SignalClass Class,
                                   const std::string &ScopePrefix) {
  ElabSignal S;
  S.Id = static_cast<unsigned>(Program.Signals.size());
  S.Name = D.Name;
  std::string Unique = D.Name;
  if (!UsedSignalNames.insert(Unique).second) {
    Unique = ScopePrefix + D.Name;
    while (!UsedSignalNames.insert(Unique).second)
      Unique += "'";
  }
  S.UniqueName = Unique;
  S.Ty = D.Ty;
  S.Class = Class;
  S.Init = checkInitializer(D.Init, D.Ty, "signal", D.Name);
  Program.Signals.push_back(std::move(S));
  return Program.Signals.back().Id;
}

void Elaborator::elabProcess(
    const ProcessStmt &P,
    std::vector<std::vector<SignalBinding>> &Scopes) {
  ElabProcess Proc;
  Proc.Id = static_cast<unsigned>(Program.Processes.size());
  Proc.Name = P.label();
  Proc.Looped = true;
  Program.Processes.push_back(std::move(Proc));
  unsigned Id = Program.Processes.back().Id;

  ProcessChecker Checker(Diags, Program, Id, &Scopes,
                         /*ImplicitDecls=*/false);
  for (const Decl &D : P.decls()) {
    if (D.K == Decl::Kind::Signal) {
      // The VHDL1 grammar routes process-level locals through `variable`;
      // signal declarations belong in blocks. Full VHDL agrees.
      Diags.error(D.Range.Begin,
                  "signal declarations are not allowed inside processes");
      continue;
    }
    ExprPtr Init = checkInitializer(D.Init, D.Ty, "variable", D.Name);
    Checker.declareVariable(D.Name, D.Ty, std::move(Init), D.Range.Begin);
  }

  // The paper rewrites `ip: process begin ss end` into `null; while '1' do
  // ss`; materialize exactly that shape so the CFG has an isolated entry.
  StmtPtr Body = P.body().clone();
  Checker.checkStmt(*Body);
  std::vector<StmtPtr> Wrapped;
  Wrapped.push_back(std::make_unique<NullStmt>(P.range()));
  ExprPtr True =
      std::make_unique<LogicLiteralExpr>(StdLogic::One, P.range());
  True->setType(Type::scalar());
  Wrapped.push_back(std::make_unique<WhileStmt>(std::move(True),
                                                std::move(Body), P.range()));
  Program.Processes[Id].Body =
      std::make_unique<CompoundStmt>(std::move(Wrapped), P.range());
}

void Elaborator::elabConcAssign(
    const ConcAssignStmt &A,
    std::vector<std::vector<SignalBinding>> &Scopes) {
  // Rewrite `s <= e` into `ca_N: process begin s <= e; wait on FS(e); end`.
  ElabProcess Proc;
  Proc.Id = static_cast<unsigned>(Program.Processes.size());
  Proc.Name = "ca_" + std::to_string(NextConcAssign++) + "_" +
              A.targetName();
  Proc.Looped = true;
  Program.Processes.push_back(std::move(Proc));
  unsigned Id = Program.Processes.back().Id;

  ProcessChecker Checker(Diags, Program, Id, &Scopes,
                         /*ImplicitDecls=*/false);

  auto Assign = std::make_unique<SignalAssignStmt>(
      A.targetName(),
      A.hasSlice() ? std::optional<SliceSpec>(A.slice()) : std::nullopt,
      A.value().clone(), A.range());
  Checker.checkStmt(*Assign);

  // Sensitivity: the free signals of the right-hand side.
  std::vector<unsigned> Vars, Sigs;
  if (!Diags.hasErrors())
    collectExprObjects(Assign->value(), Vars, Sigs);
  std::vector<std::string> OnNames;
  for (unsigned Sig : Sigs)
    OnNames.push_back(Program.signal(Sig).Name);
  auto Wait = std::make_unique<WaitStmt>(std::move(OnNames),
                                         /*HasOn=*/true, nullptr, A.range());
  Wait->setOnSignals(std::move(Sigs));

  std::vector<StmtPtr> Body;
  Body.push_back(std::move(Assign));
  Body.push_back(std::move(Wait));
  StmtPtr Compound =
      std::make_unique<CompoundStmt>(std::move(Body), A.range());

  std::vector<StmtPtr> Wrapped;
  Wrapped.push_back(std::make_unique<NullStmt>(A.range()));
  ExprPtr True =
      std::make_unique<LogicLiteralExpr>(StdLogic::One, A.range());
  True->setType(Type::scalar());
  Wrapped.push_back(std::make_unique<WhileStmt>(
      std::move(True), std::move(Compound), A.range()));
  Program.Processes[Id].Body =
      std::make_unique<CompoundStmt>(std::move(Wrapped), A.range());
}

void Elaborator::elabConcStmts(
    const std::vector<ConcStmtPtr> &Stmts,
    std::vector<std::vector<SignalBinding>> &Scopes,
    const std::string &ScopePrefix) {
  for (const ConcStmtPtr &S : Stmts) {
    switch (S->kind()) {
    case ConcStmt::Kind::Process:
      elabProcess(*cast<ProcessStmt>(S.get()), Scopes);
      break;
    case ConcStmt::Kind::SignalAssign:
      elabConcAssign(*cast<ConcAssignStmt>(S.get()), Scopes);
      break;
    case ConcStmt::Kind::Block: {
      const auto *B = cast<BlockStmt>(S.get());
      std::vector<SignalBinding> Local;
      for (const Decl &D : B->decls()) {
        if (D.K == Decl::Kind::Variable) {
          Diags.error(D.Range.Begin,
                      "variable declarations are not allowed in blocks");
          continue;
        }
        unsigned Id = declareSignal(D, SignalClass::Internal,
                                    B->label() + ".");
        Local.push_back({D.Name, Id});
      }
      Scopes.push_back(std::move(Local));
      elabConcStmts(B->stmts(), Scopes, ScopePrefix + B->label() + ".");
      Scopes.pop_back();
      break;
    }
    }
  }
}

std::optional<ElaboratedProgram> Elaborator::run(const DesignFile &File,
                                                 const ElaborateOptions &Opts) {
  const Architecture *Arch = nullptr;
  if (!Opts.ArchitectureName.empty()) {
    Arch = File.findArchitecture(Opts.ArchitectureName);
    if (!Arch) {
      Diags.error(SourceLoc(), "no architecture named '" +
                                   Opts.ArchitectureName + "'");
      return std::nullopt;
    }
  } else if (!File.Architectures.empty()) {
    Arch = &File.Architectures.front();
  } else {
    Diags.error(SourceLoc(), "design file contains no architecture");
    return std::nullopt;
  }

  const Entity *Ent = File.findEntity(Arch->EntityName);
  if (!Ent) {
    Diags.error(Arch->Range.Begin, "architecture '" + Arch->Name +
                                       "' refers to unknown entity '" +
                                       Arch->EntityName + "'");
    return std::nullopt;
  }

  for (const Port &P : Ent->Ports)
    declarePort(P);

  std::vector<std::vector<SignalBinding>> Scopes;
  std::vector<SignalBinding> TopScope;
  for (const ElabSignal &S : Program.Signals)
    TopScope.push_back({S.Name, S.Id});
  for (const Decl &D : Arch->Decls) {
    if (D.K == Decl::Kind::Variable) {
      Diags.error(D.Range.Begin,
                  "variable declarations are not allowed in architectures");
      continue;
    }
    unsigned Id = declareSignal(D, SignalClass::Internal, Arch->Name + ".");
    TopScope.push_back({D.Name, Id});
  }
  Scopes.push_back(std::move(TopScope));

  elabConcStmts(Arch->Stmts, Scopes, "");

  if (Diags.hasErrors())
    return std::nullopt;
  return std::move(Program);
}

} // namespace

std::optional<ElaboratedProgram>
vif::elaborateDesign(const DesignFile &File, DiagnosticEngine &Diags,
                     const ElaborateOptions &Opts) {
  Elaborator E(Diags);
  return E.run(File, Opts);
}

std::optional<ElaboratedProgram>
vif::elaborateStatements(const Stmt &Body, DiagnosticEngine &Diags,
                         const std::vector<Decl> *Decls) {
  ElaboratedProgram Program;
  ElabProcess Proc;
  Proc.Id = 0;
  Proc.Name = "main";
  Proc.Looped = false;
  Program.Processes.push_back(std::move(Proc));

  ProcessChecker Checker(Diags, Program, 0, nullptr, /*ImplicitDecls=*/true);
  if (Decls)
    for (const Decl &D : *Decls)
      Checker.declareUpFront(D);
  StmtPtr Cloned = Body.clone();
  // Declare every `<=`-target and waited-on name as a signal up front so
  // that later reads resolve to the signal rather than implicitly
  // declaring a variable.
  Checker.predeclareSignals(*Cloned);
  Checker.checkStmt(*Cloned);
  Program.Processes[0].Body = std::move(Cloned);

  if (Diags.hasErrors())
    return std::nullopt;
  return Program;
}
