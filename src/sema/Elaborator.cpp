//===- sema/Elaborator.cpp ------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "sema/Elaborator.h"

#include "support/Casting.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

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

namespace {

/// Heap bytes behind \p S: none while its text fits the inline buffer.
size_t stringBytes(const std::string &S) {
  return S.capacity() > std::string().capacity() ? S.capacity() + 1 : 0;
}

} // namespace

size_t ElaboratedProgram::memoryBytes() const {
  size_t Bytes = Arena.blockBytes() +
                 Signals.capacity() * sizeof(ElabSignal) +
                 Variables.capacity() * sizeof(ElabVariable) +
                 Processes.capacity() * sizeof(ElabProcess);
  for (const ElabSignal &S : Signals)
    Bytes += stringBytes(S.Name) + stringBytes(S.UniqueName);
  for (const ElabVariable &V : Variables)
    Bytes += stringBytes(V.Name) + stringBytes(V.UniqueName);
  for (const ElabProcess &P : Processes)
    Bytes += stringBytes(P.Name) + P.Variables.capacity() * sizeof(unsigned);
  return Bytes;
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
    for (const Stmt *Sub : cast<CompoundStmt>(&S)->stmts())
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

/// The signals one lexical scope declares, by source name. A name declared
/// twice in one scope resolves to its first declaration. Keys view
/// spellings that outlive elaboration's maps: the tree's (declarations,
/// ports, arena names).
using SignalScope = std::unordered_map<std::string_view, unsigned>;
/// Enclosing scopes, outermost first.
using ScopeStack = std::vector<SignalScope>;

/// The variables sharing one source name across the program: the first
/// one declared, and how many there are.
struct Homonyms {
  unsigned First = 0;
  unsigned Count = 0;
};
using VariableNames = std::unordered_map<std::string_view, Homonyms>;

class Elaborator {
public:
  Elaborator(DiagnosticEngine &Diags, AstArena &Arena)
      : Diags(Diags), Arena(Arena) {}

  /// Elaborates \p File, whose arena is the elaborator's; new nodes go
  /// there too.
  std::optional<ElaboratedProgram> run(DesignFile &File,
                                       const ElaborateOptions &Opts);

private:
  bool declarePort(const Port &P);
  unsigned declareSignal(Decl &D, SignalClass Class,
                         const std::string &ScopePrefix);
  void elabConcStmts(std::vector<ConcStmtPtr> &Stmts, ScopeStack &Scopes,
                     const std::string &ScopePrefix);
  void elabProcess(ProcessStmt &P, const ScopeStack &Scopes);
  void elabConcAssign(ConcAssignStmt &A, const ScopeStack &Scopes);
  /// `null; while '1' loop Body end loop` over \p Range.
  Stmt *loopForever(Stmt *Body, SourceRange Range);

  /// Checks that \p Init is a literal of type \p Ty (or null) and returns
  /// it typed, or null after a diagnostic.
  Expr *checkInitializer(Expr *Init, const Type &Ty, const char *What,
                         const std::string &Name);

  DiagnosticEngine &Diags;
  AstArena &Arena;
  ElaboratedProgram Program;
  std::unordered_set<std::string> UsedSignalNames;
  VariableNames VarNames;
  unsigned NextConcAssign = 0;
};

/// Resolves and type-checks the statements of one process. Also used for
/// the bare-statement entry point with implicit declarations enabled.
class ProcessChecker {
public:
  ProcessChecker(DiagnosticEngine &Diags, ElaboratedProgram &Program,
                 AstArena &Arena, VariableNames &VarNames,
                 unsigned ProcessId, const ScopeStack *SignalScopes,
                 bool ImplicitDecls)
      : Diags(Diags), Program(Program), Arena(Arena), VarNames(VarNames),
        ProcessId(ProcessId), SignalScopes(SignalScopes),
        ImplicitDecls(ImplicitDecls) {}

  /// Declares a process-local variable; reports redeclarations. \p Name
  /// must outlive the checker.
  void declareVariable(std::string_view Name, Type Ty, const Expr *Init,
                       SourceLoc Loc);

  void checkStmt(Stmt &S);

  /// Implicit-declaration mode only: declares every `<=` target and every
  /// waited-on name as a scalar signal, so later reads resolve to signals.
  void predeclareSignals(const Stmt &S);

  /// Statement-program mode: declares \p D (variable or internal signal)
  /// before resolution starts, adopting its initializer.
  void declareUpFront(const Decl &D);

private:
  std::optional<Type> checkExpr(Expr &E);
  std::optional<Type> checkName(NameExpr &E);
  std::optional<Type> checkSlice(SliceExpr &E);
  std::optional<ObjectRef> resolve(std::string_view Name, SourceLoc Loc,
                                   bool WantSignal);
  void checkCondition(Expr &E, const char *What);
  void checkAssign(AssignStmtBase &S, bool IsSignal);
  void checkWait(WaitStmt &W);

  const Type *typeOf(ObjectRef Ref) const;
  /// Implicit-declaration mode: a new signal \p Name of type \p Ty.
  unsigned declareImplicitSignal(std::string_view Name, Type Ty,
                                 const Expr *Init = nullptr);

  DiagnosticEngine &Diags;
  ElaboratedProgram &Program;
  AstArena &Arena;
  VariableNames &VarNames;
  unsigned ProcessId;
  const ScopeStack *SignalScopes;
  bool ImplicitDecls;
  std::unordered_map<std::string_view, unsigned> LocalVars;
  SignalScope ImplicitSignals;
};

unsigned ProcessChecker::declareImplicitSignal(std::string_view Name,
                                               Type Ty, const Expr *Init) {
  ElabSignal Sig;
  Sig.Id = static_cast<unsigned>(Program.Signals.size());
  Sig.Name = Sig.UniqueName = std::string(Name);
  Sig.Ty = Ty;
  Sig.Init = Init;
  ImplicitSignals.emplace(Name, Sig.Id);
  Program.Signals.push_back(std::move(Sig));
  return Program.Signals.back().Id;
}

void ProcessChecker::declareUpFront(const Decl &D) {
  assert(ImplicitDecls && "up-front declaration is for statement programs");
  const Expr *Init = nullptr;
  if (D.Init) {
    // Statement programs accept literal initializers only, like designs.
    if (isa<LogicLiteralExpr>(D.Init) || isa<VectorLiteralExpr>(D.Init))
      Init = D.Init;
    else
      Diags.error(D.Range.Begin, "initializer of '" + D.Name +
                                     "' must be a literal");
  }
  if (D.K == Decl::Kind::Variable) {
    declareVariable(D.Name, D.Ty, Init, D.Range.Begin);
    return;
  }
  if (ImplicitSignals.count(D.Name)) {
    Diags.error(D.Range.Begin, "redeclaration of signal '" + D.Name + "'");
    return;
  }
  declareImplicitSignal(D.Name, D.Ty, Init);
}

void ProcessChecker::predeclareSignals(const Stmt &S) {
  assert(ImplicitDecls && "predeclaration is for implicit mode only");
  auto DeclareSignal = [&](std::string_view Name) {
    if (!ImplicitSignals.count(Name))
      declareImplicitSignal(Name, Type::scalar());
  };
  switch (S.kind()) {
  case Stmt::Kind::Null:
  case Stmt::Kind::VarAssign:
    return;
  case Stmt::Kind::SignalAssign:
    DeclareSignal(cast<SignalAssignStmt>(&S)->targetName());
    return;
  case Stmt::Kind::Wait:
    for (std::string_view Name : cast<WaitStmt>(&S)->onNames())
      DeclareSignal(Name);
    return;
  case Stmt::Kind::Compound:
    for (const Stmt *Sub : cast<CompoundStmt>(&S)->stmts())
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

void ProcessChecker::declareVariable(std::string_view Name, Type Ty,
                                     const Expr *Init, SourceLoc Loc) {
  if (LocalVars.count(Name)) {
    Diags.error(Loc, "redeclaration of variable '" + std::string(Name) + "'");
    return;
  }
  ElabVariable V;
  V.Id = static_cast<unsigned>(Program.Variables.size());
  V.Name = std::string(Name);
  // Qualify on collision with a variable of the same name in another
  // process, so graph nodes stay unambiguous. Only the first of a name
  // is still bare when the second arrives: qualify it retroactively then.
  Homonyms &Same = VarNames.try_emplace(Name, Homonyms{V.Id, 0}).first->second;
  bool Clash = ++Same.Count > 1;
  V.UniqueName = Clash ? Program.process(ProcessId).Name + "." + V.Name
                       : V.Name;
  if (Same.Count == 2) {
    ElabVariable &First = Program.Variables[Same.First];
    First.UniqueName = Program.process(First.ProcessId).Name + "." + V.Name;
  }
  V.Ty = Ty;
  V.Init = Init;
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

std::optional<ObjectRef> ProcessChecker::resolve(std::string_view Name,
                                                 SourceLoc Loc,
                                                 bool WantSignal) {
  auto It = LocalVars.find(Name);
  if (It != LocalVars.end())
    return ObjectRef::variable(It->second);
  auto Implicit = ImplicitSignals.find(Name);
  if (Implicit != ImplicitSignals.end())
    return ObjectRef::signal(Implicit->second);
  if (SignalScopes) {
    for (auto ScopeIt = SignalScopes->rbegin();
         ScopeIt != SignalScopes->rend(); ++ScopeIt) {
      auto Found = ScopeIt->find(Name);
      if (Found != ScopeIt->end())
        return ObjectRef::signal(Found->second);
    }
  }
  if (ImplicitDecls) {
    // Bare-statement mode: fabricate a scalar object on first use.
    // Signal-ness was fixed up front by predeclareSignals; everything else
    // is a variable.
    if (WantSignal)
      return ObjectRef::signal(declareImplicitSignal(Name, Type::scalar()));
    declareVariable(Name, Type::scalar(), nullptr, Loc);
    return ObjectRef::variable(LocalVars.at(Name));
  }
  Diags.error(Loc, "use of undeclared name '" + std::string(Name) + "'");
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
                "cannot read 'out' port '" + std::string(E.name()) + "'");
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
                "cannot read 'out' port '" + std::string(E.name()) + "'");
  const SliceSpec &Sl = E.slice();
  if (!DeclTy.sliceValid(Sl.Z1, Sl.Z2, Sl.Downto)) {
    Diags.error(E.range().Begin, "slice (" + Sl.str() +
                                     ") is invalid for '" +
                                     std::string(E.name()) +
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
    size_t Width = cast<VectorLiteralExpr>(&E)->width();
    if (Width == 0) {
      Diags.error(E.range().Begin, "empty vector literal");
      return std::nullopt;
    }
    Type Ty = Type::vector(static_cast<int>(Width) - 1, 0, true);
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
  auto Target = [&S] { return std::string(S.targetName()); };
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
                "'" + Target() + "' is a variable; use ':=' to assign");
    return;
  }
  if (!IsSignal && !Ref->isVariable()) {
    Diags.error(S.range().Begin,
                "'" + Target() + "' is a signal; use '<=' to assign");
    return;
  }
  if (Ref->isSignal()) {
    SignalClass Class = Program.signal(Ref->Id).Class;
    if (Class == SignalClass::PortIn)
      Diags.error(S.range().Begin,
                  "cannot assign to 'in' port '" + Target() + "'");
  }
  const Type &DeclTy = *typeOf(*Ref);
  Type TargetTy = DeclTy;
  if (S.hasSlice()) {
    const SliceSpec &Sl = S.slice();
    if (!DeclTy.sliceValid(Sl.Z1, Sl.Z2, Sl.Downto)) {
      Diags.error(S.range().Begin, "slice (" + Sl.str() +
                                       ") is invalid for '" + Target() +
                                       "' of type " +
                                       DeclTy.str());
      return;
    }
    TargetTy = Type::vector(Sl.Z1, Sl.Z2, Sl.Downto);
  }
  if (ValueTy && !TargetTy.assignableFrom(*ValueTy))
    Diags.error(S.range().Begin, "cannot assign " + ValueTy->str() + " to " +
                                     (S.hasSlice() ? "slice of " : "") +
                                     "'" + Target() + "' of type " +
                                     DeclTy.str());
}

void ProcessChecker::checkWait(WaitStmt &W) {
  if (W.hasUntil())
    checkCondition(W.until(), "wait until");
  std::vector<unsigned> OnSigs;
  if (W.hasExplicitOn()) {
    for (std::string_view Name : W.onNames()) {
      std::optional<ObjectRef> Ref =
          resolve(Name, W.range().Begin, /*WantSignal=*/true);
      if (!Ref)
        continue;
      if (!Ref->isSignal()) {
        Diags.error(W.range().Begin,
                    "wait 'on' requires signals; '" + std::string(Name) +
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
  W.setOnSignals(Arena.copy(OnSigs));
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
    for (Stmt *Sub : cast<CompoundStmt>(&S)->stmts())
      checkStmt(*Sub);
    return;
  case Stmt::Kind::If: {
    auto *I = cast<IfStmt>(&S);
    checkCondition(I->cond(), "if");
    checkStmt(I->thenStmt());
    checkStmt(I->elseStmt());
    return;
  }
  case Stmt::Kind::While: {
    auto *W = cast<WhileStmt>(&S);
    checkCondition(W->cond(), "while");
    checkStmt(W->body());
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Design-level elaboration
//===----------------------------------------------------------------------===//

Expr *Elaborator::checkInitializer(Expr *Init, const Type &Ty,
                                   const char *What,
                                   const std::string &Name) {
  if (!Init)
    return nullptr;
  if (isa<LogicLiteralExpr>(Init)) {
    if (!Ty.isScalar()) {
      Diags.error(Init->range().Begin,
                  std::string("initializer of ") + What + " '" + Name +
                      "' must be a vector literal");
      return nullptr;
    }
    Init->setType(Type::scalar());
    return Init;
  }
  if (const auto *V = dyn_cast<VectorLiteralExpr>(Init)) {
    if (!Ty.isVector() || Ty.width() != V->width()) {
      Diags.error(Init->range().Begin,
                  std::string("initializer of ") + What + " '" + Name +
                      "' must be a vector literal of width " +
                      std::to_string(Ty.width()));
      return nullptr;
    }
    Init->setType(Type::vector(static_cast<int>(V->width()) - 1, 0, true));
    return Init;
  }
  Diags.error(Init->range().Begin,
              std::string("initializer of ") + What + " '" + Name +
                  "' must be a literal");
  return nullptr;
}

bool Elaborator::declarePort(const Port &P) {
  if (!UsedSignalNames.insert(P.Name).second) {
    Diags.error(P.Range.Begin, "duplicate port name '" + P.Name + "'");
    return false;
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
  return true;
}

unsigned Elaborator::declareSignal(Decl &D, SignalClass Class,
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

Stmt *Elaborator::loopForever(Stmt *Body, SourceRange Range) {
  Expr *True = Arena.make<LogicLiteralExpr>(StdLogic::One, Range);
  True->setType(Type::scalar());
  Stmt *Wrapped[] = {Arena.make<NullStmt>(Range),
                     Arena.make<WhileStmt>(True, Body, Range)};
  return Arena.make<CompoundStmt>(Arena.copy(Wrapped, 2), Range);
}

void Elaborator::elabProcess(ProcessStmt &P, const ScopeStack &Scopes) {
  ElabProcess Proc;
  Proc.Id = static_cast<unsigned>(Program.Processes.size());
  Proc.Name = P.label();
  Proc.Looped = true;
  Program.Processes.push_back(std::move(Proc));
  unsigned Id = Program.Processes.back().Id;

  ProcessChecker Checker(Diags, Program, Arena, VarNames, Id, &Scopes,
                         /*ImplicitDecls=*/false);
  for (Decl &D : P.decls()) {
    if (D.K == Decl::Kind::Signal) {
      // The VHDL1 grammar routes process-level locals through `variable`;
      // signal declarations belong in blocks. Full VHDL agrees.
      Diags.error(D.Range.Begin,
                  "signal declarations are not allowed inside processes");
      continue;
    }
    Expr *Init = checkInitializer(D.Init, D.Ty, "variable", D.Name);
    Checker.declareVariable(D.Name, D.Ty, Init, D.Range.Begin);
  }

  // The paper rewrites `ip: process begin ss end` into `null; while '1' do
  // ss`; materialize exactly that shape so the CFG has an isolated entry.
  Checker.checkStmt(P.body());
  Program.Processes[Id].Body = loopForever(&P.body(), P.range());
}

void Elaborator::elabConcAssign(ConcAssignStmt &A,
                                const ScopeStack &Scopes) {
  // Rewrite `s <= e` into `ca_N: process begin s <= e; wait on FS(e); end`.
  ElabProcess Proc;
  Proc.Id = static_cast<unsigned>(Program.Processes.size());
  Proc.Name = "ca_" + std::to_string(NextConcAssign++) + "_" +
              std::string(A.targetName());
  Proc.Looped = true;
  Program.Processes.push_back(std::move(Proc));
  unsigned Id = Program.Processes.back().Id;

  ProcessChecker Checker(Diags, Program, Arena, VarNames, Id, &Scopes,
                         /*ImplicitDecls=*/false);

  auto *Assign = Arena.make<SignalAssignStmt>(
      A.targetName(),
      A.hasSlice() ? std::optional<SliceSpec>(A.slice()) : std::nullopt,
      &A.value(), A.range());
  Checker.checkStmt(*Assign);

  // Sensitivity: the free signals of the right-hand side.
  std::vector<unsigned> Vars, Sigs;
  if (!Diags.hasErrors())
    collectExprObjects(Assign->value(), Vars, Sigs);
  std::string_view *OnNames = Arena.allocateArray<std::string_view>(
      Sigs.size());
  for (size_t I = 0; I < Sigs.size(); ++I)
    OnNames[I] = Arena.copyString(Program.signal(Sigs[I]).Name);
  auto *Wait = Arena.make<WaitStmt>(
      ArenaArray<std::string_view>(OnNames, Sigs.size()), /*HasOn=*/true,
      nullptr, A.range());
  Wait->setOnSignals(Arena.copy(Sigs));

  Stmt *Body[] = {Assign, Wait};
  Program.Processes[Id].Body = loopForever(
      Arena.make<CompoundStmt>(Arena.copy(Body, 2), A.range()), A.range());
}

void Elaborator::elabConcStmts(std::vector<ConcStmtPtr> &Stmts,
                               ScopeStack &Scopes,
                               const std::string &ScopePrefix) {
  for (ConcStmtPtr &S : Stmts) {
    switch (S->kind()) {
    case ConcStmt::Kind::Process:
      elabProcess(*cast<ProcessStmt>(S.get()), Scopes);
      break;
    case ConcStmt::Kind::SignalAssign:
      elabConcAssign(*cast<ConcAssignStmt>(S.get()), Scopes);
      break;
    case ConcStmt::Kind::Block: {
      auto *B = cast<BlockStmt>(S.get());
      SignalScope Local;
      for (Decl &D : B->decls()) {
        if (D.K == Decl::Kind::Variable) {
          Diags.error(D.Range.Begin,
                      "variable declarations are not allowed in blocks");
          continue;
        }
        unsigned Id = declareSignal(D, SignalClass::Internal,
                                    B->label() + ".");
        Local.try_emplace(D.Name, Id);
      }
      Scopes.push_back(std::move(Local));
      elabConcStmts(B->stmts(), Scopes, ScopePrefix + B->label() + ".");
      Scopes.pop_back();
      break;
    }
    }
  }
}

std::optional<ElaboratedProgram> Elaborator::run(DesignFile &File,
                                                 const ElaborateOptions &Opts) {
  assert(&File.Arena == &Arena && "the file must own the elaborator's arena");
  Architecture *Arch = nullptr;
  if (!Opts.ArchitectureName.empty()) {
    // File is ours to consume; the lookup is the const one.
    Arch = const_cast<Architecture *>(
        File.findArchitecture(Opts.ArchitectureName));
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

  ScopeStack Scopes;
  SignalScope TopScope;
  for (const Port &P : Ent->Ports)
    if (declarePort(P))
      TopScope.try_emplace(P.Name, Program.Signals.back().Id);
  for (Decl &D : Arch->Decls) {
    if (D.K == Decl::Kind::Variable) {
      Diags.error(D.Range.Begin,
                  "variable declarations are not allowed in architectures");
      continue;
    }
    unsigned Id = declareSignal(D, SignalClass::Internal, Arch->Name + ".");
    TopScope.try_emplace(D.Name, Id);
  }
  Scopes.push_back(std::move(TopScope));

  elabConcStmts(Arch->Stmts, Scopes, "");

  if (Diags.hasErrors())
    return std::nullopt;
  Program.Arena = std::move(File.Arena);
  return std::move(Program);
}

} // namespace

std::optional<ElaboratedProgram>
vif::elaborateDesign(const DesignFile &File, DiagnosticEngine &Diags,
                     const ElaborateOptions &Opts) {
  return elaborateDesign(File.clone(), Diags, Opts);
}

std::optional<ElaboratedProgram>
vif::elaborateDesign(DesignFile &&File, DiagnosticEngine &Diags,
                     const ElaborateOptions &Opts) {
  Elaborator E(Diags, File.Arena);
  return E.run(File, Opts);
}

std::optional<ElaboratedProgram>
vif::elaborateStatements(const Stmt &Body, DiagnosticEngine &Diags,
                         const std::vector<Decl> *Decls) {
  StatementProgram Prog;
  if (Decls)
    for (const Decl &D : *Decls)
      Prog.Decls.push_back(D.clone(Prog.Arena));
  Prog.Body = cloneStmt(Body, Prog.Arena);
  return elaborateStatements(std::move(Prog), Diags);
}

std::optional<ElaboratedProgram>
vif::elaborateStatements(StatementProgram &&Prog, DiagnosticEngine &Diags) {
  ElaboratedProgram Program;
  ElabProcess Proc;
  Proc.Id = 0;
  Proc.Name = "main";
  Proc.Looped = false;
  Program.Processes.push_back(std::move(Proc));

  VariableNames VarNames;
  ProcessChecker Checker(Diags, Program, Prog.Arena, VarNames, 0, nullptr,
                         /*ImplicitDecls=*/true);
  for (const Decl &D : Prog.Decls)
    Checker.declareUpFront(D);
  // Declare every `<=`-target and waited-on name as a signal up front so
  // that later reads resolve to the signal rather than implicitly
  // declaring a variable.
  Checker.predeclareSignals(*Prog.Body);
  Checker.checkStmt(*Prog.Body);
  Program.Processes[0].Body = Prog.Body;

  if (Diags.hasErrors())
    return std::nullopt;
  Program.Arena = std::move(Prog.Arena);
  return Program;
}
