//===- oracle/Oracles.cpp -------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracles.h"

#include "ast/ASTPrinter.h"
#include "support/Casting.h"

#include <algorithm>
#include <sstream>

using namespace vif;

std::optional<std::vector<std::vector<LabelId>>>
vif::crossFlowTuples(const ProgramCFG &CFG, size_t MaxTuples) {
  // Processes without wait statements never take part in a
  // synchronization; cf ranges over the others.
  std::vector<const ProcessCFG *> Waiting;
  size_t Count = 1;
  for (const ProcessCFG &P : CFG.processes()) {
    if (P.WaitLabels.empty())
      continue;
    // Dividing first keeps the count from overflowing.
    if (Count > MaxTuples / P.WaitLabels.size())
      return std::nullopt;
    Count *= P.WaitLabels.size();
    Waiting.push_back(&P);
  }
  std::vector<std::vector<LabelId>> Tuples;
  if (Waiting.empty())
    return Tuples;

  std::vector<size_t> Cursor(Waiting.size(), 0);
  for (;;) {
    std::vector<LabelId> &Tuple = Tuples.emplace_back();
    for (size_t I = 0; I < Waiting.size(); ++I)
      Tuple.push_back(Waiting[I]->WaitLabels[Cursor[I]]);
    // Odometer increment.
    size_t I = 0;
    for (; I < Waiting.size(); ++I) {
      if (++Cursor[I] < Waiting[I]->WaitLabels.size())
        break;
      Cursor[I] = 0;
    }
    if (I == Waiting.size())
      return Tuples;
  }
}

std::optional<ReachingDefsKillGen> vif::computeReachingDefsKillGenEnumerated(
    const ProgramCFG &CFG, const ActiveSignalsResult &Active,
    const ReachingDefsOptions &Opts, size_t MaxTuples) {
  std::optional<std::vector<std::vector<LabelId>>> Tuples =
      crossFlowTuples(CFG, MaxTuples);
  if (!Tuples)
    return std::nullopt;
  // Only the wait rows depend on cf; they are recomputed below.
  ReachingDefsKillGen KG = computeReachingDefsKillGen(CFG, Active, Opts);
  size_t NumSignals = 0;
  for (const ProcessCFG &P : CFG.processes())
    if (!P.FreeSigs.empty())
      NumSignals = std::max<size_t>(NumSignals, P.FreeSigs.back() + 1);
  // fst(·) of slot \p L of \p T, restricted to signals, into \p Out.
  auto signalsInto = [](const LazyPairSets &T, LabelId L, BitSet &Out) {
    T.forEachPair(L, [&Out](DefPair P) {
      if (P.N.isSignal())
        Out.set(P.N.id());
    });
  };

  BitSet TupleMay(NumSignals), TupleMust(NumSignals);
  for (const ProcessCFG &P : CFG.processes())
    for (LabelId L : P.WaitLabels) {
      BitSet May(NumSignals), Must(NumSignals);
      bool FirstTuple = true;
      for (const std::vector<LabelId> &Tuple : *Tuples) {
        if (std::find(Tuple.begin(), Tuple.end(), L) == Tuple.end())
          continue;
        TupleMay.clearAll();
        TupleMust.clearAll();
        for (LabelId T : Tuple) {
          signalsInto(Active.MayEntry, T, TupleMay);
          signalsInto(Active.MustEntry, T, TupleMust);
        }
        May.unionWith(TupleMay);
        if (FirstTuple)
          Must = TupleMust;
        else
          Must.intersectWith(TupleMust);
        FirstTuple = false;
      }
      // gen(l) = may(l) x {l}; kill(l) = must(l) x ({?} ∪ WS_i).
      KG.Gen[L] = PairSet();
      KG.Kill[L] = PairSet();
      May.forEach([&](size_t Sig) {
        KG.Gen[L].insert(DefPair{Resource::signal(unsigned(Sig)), L});
      });
      if (Opts.UseMustActiveKill)
        Must.forEach([&](size_t Sig) {
          Resource RS = Resource::signal(unsigned(Sig));
          KG.Kill[L].insert(DefPair{RS, InitialLabel});
          for (LabelId DefL : P.WaitLabels)
            KG.Kill[L].insert(DefPair{RS, DefL});
        });
    }
  return KG;
}

void ReferenceResourceMatrix::insertR0Rows(
    const std::vector<std::vector<uint32_t>> &Rows) {
  // Rows are visited in (label, resource) ascending order, which is entry
  // order for the fixed R0 access — each hinted insert lands just before
  // the hint, so the sweep is amortized O(1) per entry.
  auto Hint = Entries.begin();
  for (LabelId L = 0; L < Rows.size(); ++L)
    for (uint32_t Raw : Rows[L]) {
      RMEntry E{L, Access::R0, Resource::fromRaw(Raw)};
      while (Hint != Entries.end() && *Hint < E)
        ++Hint;
      if (Hint != Entries.end() && *Hint == E)
        continue; // already present (an RMlo entry the closure re-derived)
      Hint = Entries.insert(Hint, E);
      ++Hint;
    }
}

std::string vif::keptRowsFailure(const ElaboratedProgram &Program,
                                 const ProgramCFG &CFG, const IFAResult &Prod,
                                 const ActiveSignalsResult &Active,
                                 const ReachingDefsResult &RD) {
  LabelIndexedRM Lo(Prod.RMlo);
  auto restrict = [](const PairSet &S, const std::set<Resource> &Keep) {
    PairSet Out;
    for (const DefPair &D : S)
      if (Keep.count(D.N))
        Out.append(D);
    return Out;
  };
  auto readsAt = [&Lo](LabelId L) {
    std::set<Resource> Reads;
    for (uint32_t Raw : Lo.at(L, Access::R0))
      Reads.insert(Resource::fromRaw(Raw));
    return Reads;
  };
  for (const ProcessCFG &P : CFG.processes()) {
    bool EndExits = !Program.process(P.ProcessId).Looped;
    std::set<Resource> Tracked;
    for (LabelId L = P.FirstLabel; L < P.endLabel(); ++L)
      for (Resource N : readsAt(L))
        Tracked.insert(N);
    for (unsigned V : EndExits ? P.FreeVars : std::vector<unsigned>())
      Tracked.insert(Resource::variable(V));
    for (unsigned S : EndExits ? P.FreeSigs : std::vector<unsigned>())
      Tracked.insert(Resource::signal(S));
    for (LabelId L = P.FirstLabel; L < P.endLabel(); ++L) {
      bool Wait = CFG.isWaitLabel(L);
      bool Final = EndExits && std::count(P.Finals.begin(), P.Finals.end(), L);
      const PairSet None;
      const std::pair<const char *, std::pair<PairSet, PairSet>> Rows[] = {
          {"RD∪ϕ entry", {Prod.Active.MayEntry[L],
                          Wait ? Active.MayEntry[L] : None}},
          {"RD∩ϕ entry", {Prod.Active.MustEntry[L],
                          Wait ? Active.MustEntry[L] : None}},
          {"RD∪ϕ exit", {Prod.Active.MayExit[L], None}},
          {"RD∩ϕ exit", {Prod.Active.MustExit[L], None}},
          {"RDcf entry", {Prod.RD.Entry[L], restrict(RD.Entry[L], readsAt(L))}},
          {"RDcf exit", {Prod.RD.Exit[L],
                         Final ? restrict(RD.Exit[L], Tracked) : None}}};
      for (const auto &[Name, Sets] : Rows)
        if (!(Sets.first == Sets.second))
          return std::string(Name) + " disagrees at label " +
                 std::to_string(L);
    }
  }
  return "";
}

std::string vif::fullRowsFailure(const ProgramCFG &CFG,
                                 const ActiveSignalsResult &Active,
                                 const ReachingDefsResult &RD,
                                 const ActiveSignalsResult &RefActive,
                                 const ReachingDefsResult &RefRD) {
  const std::pair<const char *, std::pair<const LazyPairSets *,
                                          const LazyPairSets *>>
      Tables[] = {{"RD∪ϕ entry", {&Active.MayEntry, &RefActive.MayEntry}},
                  {"RD∪ϕ exit", {&Active.MayExit, &RefActive.MayExit}},
                  {"RD∩ϕ entry", {&Active.MustEntry, &RefActive.MustEntry}},
                  {"RD∩ϕ exit", {&Active.MustExit, &RefActive.MustExit}},
                  {"RDcf entry", {&RD.Entry, &RefRD.Entry}},
                  {"RDcf exit", {&RD.Exit, &RefRD.Exit}}};
  for (LabelId L = 1; L <= CFG.numLabels(); ++L)
    for (const auto &[Name, T] : Tables)
      if (!((*T.first)[L] == (*T.second)[L]))
        return std::string(Name) + " disagrees at label " + std::to_string(L);
  return "";
}

//===----------------------------------------------------------------------===//
// Elaborated-program dump
//===----------------------------------------------------------------------===//

namespace {

std::string refStr(ObjectRef R) {
  if (!R.isResolved())
    return "@?";
  return (R.isVariable() ? "@v" : "@s") + std::to_string(R.Id);
}

void annotateExpr(std::ostream &OS, const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::LogicLiteral:
  case Expr::Kind::VectorLiteral:
    printExpr(OS, E);
    break;
  case Expr::Kind::Name: {
    const auto *N = cast<NameExpr>(&E);
    OS << N->name() << refStr(N->ref());
    break;
  }
  case Expr::Kind::Slice: {
    const auto *S = cast<SliceExpr>(&E);
    OS << S->name() << '(' << S->slice().str() << ')' << refStr(S->ref());
    break;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    OS << '(' << unaryOpSpelling(U->op()) << ' ';
    annotateExpr(OS, U->sub());
    OS << ')';
    break;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    OS << '(';
    annotateExpr(OS, B->lhs());
    OS << ' ' << binaryOpSpelling(B->op()) << ' ';
    annotateExpr(OS, B->rhs());
    OS << ')';
    break;
  }
  }
  OS << ':' << (E.hasType() ? E.type().str() : std::string("?"));
}

void annotateStmt(std::ostream &OS, const Stmt &S, unsigned Indent) {
  std::string Pad(2 * Indent, ' ');
  switch (S.kind()) {
  case Stmt::Kind::Null:
    OS << Pad << "null\n";
    return;
  case Stmt::Kind::VarAssign:
  case Stmt::Kind::SignalAssign: {
    const auto *A = cast<AssignStmtBase>(&S);
    OS << Pad << A->targetName();
    if (A->hasSlice())
      OS << '(' << A->slice().str() << ')';
    OS << refStr(A->targetRef())
       << (S.kind() == Stmt::Kind::VarAssign ? " := " : " <= ");
    annotateExpr(OS, A->value());
    OS << '\n';
    return;
  }
  case Stmt::Kind::Wait: {
    const auto *W = cast<WaitStmt>(&S);
    OS << Pad << "wait" << (W->hasExplicitOn() ? " on" : "");
    for (const auto &Name : W->onNames())
      OS << ' ' << Name;
    OS << " sigs";
    for (unsigned Sig : W->onSignals())
      OS << ' ' << Sig;
    if (W->hasUntil()) {
      OS << " until ";
      annotateExpr(OS, W->until());
    }
    OS << '\n';
    return;
  }
  case Stmt::Kind::Compound:
    OS << Pad << "{\n";
    for (const auto &Sub : cast<CompoundStmt>(&S)->stmts())
      annotateStmt(OS, *Sub, Indent + 1);
    OS << Pad << "}\n";
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(&S);
    OS << Pad << "if ";
    annotateExpr(OS, I->cond());
    OS << '\n';
    annotateStmt(OS, I->thenStmt(), Indent + 1);
    OS << Pad << "else\n";
    annotateStmt(OS, I->elseStmt(), Indent + 1);
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(&S);
    OS << Pad << "while ";
    annotateExpr(OS, W->cond());
    OS << '\n';
    annotateStmt(OS, W->body(), Indent + 1);
    return;
  }
  }
}

} // namespace

std::string vif::dumpProgram(const ElaboratedProgram &Program) {
  std::ostringstream OS;
  for (const ElabSignal &S : Program.Signals) {
    OS << "signal " << S.Id << ' ' << S.Name << ' ' << S.UniqueName << ' '
       << S.Ty.str() << ' ' << signalClassName(S.Class);
    if (S.Init) {
      OS << " := ";
      annotateExpr(OS, *S.Init);
    }
    OS << '\n';
  }
  for (const ElabVariable &V : Program.Variables) {
    OS << "variable " << V.Id << ' ' << V.Name << ' ' << V.UniqueName << ' '
       << V.Ty.str() << " process " << V.ProcessId;
    if (V.Init) {
      OS << " := ";
      annotateExpr(OS, *V.Init);
    }
    OS << '\n';
  }
  for (const ElabProcess &P : Program.Processes) {
    OS << "process " << P.Id << ' ' << P.Name
       << (P.Looped ? " looped" : " once") << " variables";
    for (unsigned V : P.Variables)
      OS << ' ' << V;
    OS << '\n';
    printStmt(OS, *P.Body, 1);
    annotateStmt(OS, *P.Body, 1);
  }
  return OS.str();
}
