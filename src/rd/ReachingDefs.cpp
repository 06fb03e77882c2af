//===- rd/ReachingDefs.cpp ------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "rd/ReachingDefs.h"

#include "cfg/FlowIndex.h"
#include "support/Casting.h"

#include <algorithm>

using namespace vif;

PairSet ReachingDefsResult::atProcessEnd(const ProcessCFG &P) const {
  PairSet Result;
  for (LabelId L : P.Finals)
    Result.unionWith(Exit[L]);
  return Result;
}

namespace {

/// Sets the signal-id bit of every definition in slot \p L of \p T into
/// \p Out: fst(·) restricted to signals, read straight off the dense rows.
void signalsInto(const LazyPairSets &T, LabelId L, BitSet &Out) {
  T.forEachPair(L, [&Out](DefPair P) {
    if (P.N.isSignal())
      Out.set(P.N.id());
  });
}

} // namespace

WaitAggregates vif::computeWaitAggregates(const ProgramCFG &CFG,
                                          const ActiveSignalsResult &Active,
                                          const ReachingDefsOptions &Opts) {
  // Table 4 only ever generates pairs of assigned signals, and FS(ss_i)
  // includes every assignment target, which bounds the signal-id universe.
  size_t NumSignals = 0;
  for (const ProcessCFG &P : CFG.processes())
    if (!P.FreeSigs.empty())
      NumSignals = std::max<size_t>(NumSignals, P.FreeSigs.back() + 1);

  // Per process j: ⋃_{l'∈WS_j} fst(RD∪ϕentry(l')) (or the last wait's
  // alone, under Hsieh-Levitan) and ⋂_{l'∈WS_j} fst(RD∩ϕentry(l')); both
  // stay ∅ for processes without waits, which therefore contribute
  // nothing to the unions below.
  size_t NumProcs = CFG.processes().size();
  std::vector<BitSet> May(NumProcs, BitSet(NumSignals));
  std::vector<BitSet> Must(NumProcs, BitSet(NumSignals));
  BitSet Row(NumSignals);
  for (const ProcessCFG &P : CFG.processes()) {
    for (size_t I = 0; I < P.WaitLabels.size(); ++I) {
      LabelId L = P.WaitLabels[I];
      if (!Opts.HsiehLevitanCrossFlow || I + 1 == P.WaitLabels.size())
        signalsInto(Active.MayEntry, L, May[P.ProcessId]);
      Row.clearAll();
      signalsInto(Active.MustEntry, L, Row);
      if (I == 0)
        Must[P.ProcessId] = Row;
      else
        Must[P.ProcessId].intersectWith(Row);
    }
  }

  // Out[i] = ⋃_{j≠i} Per[j]: a prefix sweep, then a suffix sweep.
  auto others = [&](const std::vector<BitSet> &Per) {
    std::vector<BitSet> Out(NumProcs);
    BitSet Acc(NumSignals);
    for (size_t I = 0; I < NumProcs; ++I) {
      Out[I] = Acc;
      Acc.unionWith(Per[I]);
    }
    Acc.clearAll();
    for (size_t I = NumProcs; I-- > 0;) {
      Out[I].unionWith(Acc);
      Acc.unionWith(Per[I]);
    }
    return Out;
  };
  return WaitAggregates{others(May), others(Must)};
}

ProcessKillGen vif::computeReachingDefsKillGenFor(
    const ProgramCFG &CFG, const ProcessCFG &P,
    const ActiveSignalsResult &Active, const WaitAggregates &Agg,
    const ReachingDefsOptions &Opts) {
  const FlowIndex &FI = CFG.flowIndex(P.ProcessId);
  ProcessKillGen KG(FI.numLabels());
  BitSet May, Must;
  for (uint32_t I = 0; I < FI.numLabels(); ++I) {
    LabelId L = FI.label(I);
    const CFGBlock &B = CFG.block(L);
    switch (B.K) {
    case CFGBlock::Kind::VarAssign: {
      const auto *A = cast<VarAssignStmt>(B.S);
      Resource X = Resource::variable(A->targetRef().Id);
      KG.Gen[I].append(DefPair{X, L});
      if (!A->hasSlice())
        KG.Kill[I].push_back(X);
      break;
    }
    case CFGBlock::Kind::Wait: {
      May = Agg.OthersMay[P.ProcessId];
      Must = Agg.OthersMust[P.ProcessId];
      signalsInto(Active.MayEntry, L, May);
      signalsInto(Active.MustEntry, L, Must);
      May.forEach([&](size_t Sig) {
        KG.Gen[I].append(
            DefPair{Resource::signal(static_cast<unsigned>(Sig)), L});
      });
      if (Opts.UseMustActiveKill)
        Must.forEach([&](size_t Sig) {
          KG.Kill[I].push_back(Resource::signal(static_cast<unsigned>(Sig)));
        });
      break;
    }
    case CFGBlock::Kind::Null:
    case CFGBlock::Kind::SignalAssign:
    case CFGBlock::Kind::Cond:
      break;
    }
  }
  return KG;
}

ReachingDefsKillGen
vif::computeReachingDefsKillGen(const ProgramCFG &CFG,
                                const ActiveSignalsResult &Active,
                                const ReachingDefsOptions &Opts) {
  WaitAggregates Agg = computeWaitAggregates(CFG, Active, Opts);
  ReachingDefsKillGen KG;
  KG.Kill.resize(CFG.numLabels() + 1);
  KG.Gen.resize(CFG.numLabels() + 1);
  for (const ProcessCFG &P : CFG.processes()) {
    ProcessKillGen F = computeReachingDefsKillGenFor(CFG, P, Active, Agg, Opts);
    // What a killed resource stands for: (n, ?), plus every assignment to
    // a variable (its gens) or every wait label of the process for a
    // signal — wS(ss_i), where a present value can be defined.
    DefPairDomain Sites;
    for (uint32_t I = 0; I < F.Kill.size(); ++I) {
      Sites.addAll(F.Gen[I]);
      for (Resource N : F.Kill[I]) {
        Sites.add(DefPair{N, InitialLabel});
        if (N.isSignal())
          for (LabelId W : P.WaitLabels)
            Sites.add(DefPair{N, W});
      }
    }
    Sites.finalize();
    expandKillGen(CFG, P, F, Sites, KG);
  }
  return KG;
}

PairSet vif::initialDefs(const ProcessCFG &P) {
  PairSet Initial;
  for (unsigned Var : P.FreeVars)
    Initial.insert(DefPair{Resource::variable(Var), InitialLabel});
  for (unsigned Sig : P.FreeSigs)
    Initial.insert(DefPair{Resource::signal(Sig), InitialLabel});
  return Initial;
}

RdProcessArtifact vif::solveProcessRd(const ProgramCFG &CFG,
                                      const ProcessCFG &P,
                                      const std::vector<PairSet> &Kill,
                                      const std::vector<PairSet> &Gen) {
  const FlowIndex &FI = CFG.flowIndex(P.ProcessId);
  ProcessKillGen KG(FI.numLabels());
  for (uint32_t I = 0; I < FI.numLabels(); ++I) {
    LabelId L = FI.label(I);
    for (const DefPair &D : Kill[L])
      if (KG.Kill[I].empty() || KG.Kill[I].back() != D.N)
        KG.Kill[I].push_back(D.N);
    KG.Gen[I] = Gen[L];
  }
  return solveGenKill(CFG, P, KG, initialDefs(P), /*Must=*/false);
}

void vif::installProcessRd(ReachingDefsResult &R, const ProgramCFG &,
                           const ProcessCFG &P, const RdProcessArtifact &A) {
  installProcessRows(P, A, R.Entry, R.Exit);
}

ReachingDefsResult
vif::analyzeReachingDefsReference(const ElaboratedProgram &Program,
                                  const ProgramCFG &CFG,
                                  const ActiveSignalsResult &Active,
                                  const ReachingDefsOptions &Opts) {
  size_t NumLabels = CFG.numLabels();
  ReachingDefsResult R;
  R.Entry.resize(NumLabels + 1);
  R.Exit.resize(NumLabels + 1);

  ReachingDefsKillGen KG = computeReachingDefsKillGen(CFG, Active, Opts);
  for (const ProcessCFG &P : CFG.processes())
    R.Iterations +=
        solveGenKillReference(P, KG, initialDefs(P), R.Entry, R.Exit);
  (void)Program;
  return R;
}
