//===- rd/ReachingDefs.cpp ------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "rd/ReachingDefs.h"

#include "cfg/FlowIndex.h"
#include "support/Casting.h"

#include <algorithm>
#include <deque>
#include <map>

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

void vif::computeReachingDefsKillGenFor(const ProgramCFG &CFG,
                                        const ProcessCFG &P,
                                        const ActiveSignalsResult &Active,
                                        const WaitAggregates &Agg,
                                        const ReachingDefsOptions &Opts,
                                        ReachingDefsKillGen &KG) {
  std::vector<PairSet> &Kill = KG.Kill, &Gen = KG.Gen;
  // Per-variable definitions inside this process.
  std::map<unsigned, PairSet> DefsOfVar;
  for (LabelId L : P.Labels) {
    const CFGBlock &B = CFG.block(L);
    if (B.K != CFGBlock::Kind::VarAssign)
      continue;
    const auto *A = cast<VarAssignStmt>(B.S);
    DefsOfVar[A->targetRef().Id].insert(
        DefPair{Resource::variable(A->targetRef().Id), L});
  }

  BitSet May, Must;
  for (LabelId L : P.Labels) {
    const CFGBlock &B = CFG.block(L);
    switch (B.K) {
    case CFGBlock::Kind::VarAssign: {
      const auto *A = cast<VarAssignStmt>(B.S);
      unsigned Var = A->targetRef().Id;
      Gen[L].insert(DefPair{Resource::variable(Var), L});
      if (!A->hasSlice()) {
        Kill[L] = DefsOfVar[Var];
        Kill[L].insert(DefPair{Resource::variable(Var), InitialLabel});
      }
      break;
    }
    case CFGBlock::Kind::Wait: {
      May = Agg.OthersMay[P.ProcessId];
      Must = Agg.OthersMust[P.ProcessId];
      signalsInto(Active.MayEntry, L, May);
      signalsInto(Active.MustEntry, L, Must);
      May.forEach([&](size_t Sig) {
        Gen[L].append(DefPair{Resource::signal(static_cast<unsigned>(Sig)), L});
      });
      if (Opts.UseMustActiveKill) {
        // wS(ss_i): the labels where a present signal value can be
        // defined within process i — the initial "?" plus its (ascending)
        // wait labels, appended in DefPair order per signal.
        Must.forEach([&](size_t Sig) {
          Resource RS = Resource::signal(static_cast<unsigned>(Sig));
          Kill[L].append(DefPair{RS, InitialLabel});
          for (LabelId DefL : P.WaitLabels)
            Kill[L].append(DefPair{RS, DefL});
        });
      }
      break;
    }
    case CFGBlock::Kind::Null:
    case CFGBlock::Kind::SignalAssign:
    case CFGBlock::Kind::Cond:
      break;
    }
  }
}

ReachingDefsKillGen
vif::computeReachingDefsKillGen(const ProgramCFG &CFG,
                                const ActiveSignalsResult &Active,
                                const ReachingDefsOptions &Opts) {
  WaitAggregates Agg = computeWaitAggregates(CFG, Active, Opts);
  ReachingDefsKillGen KG;
  KG.Kill.resize(CFG.numLabels() + 1);
  KG.Gen.resize(CFG.numLabels() + 1);
  for (const ProcessCFG &P : CFG.processes())
    computeReachingDefsKillGenFor(CFG, P, Active, Agg, Opts, KG);
  return KG;
}

RdProcessArtifact vif::solveProcessRd(const ProgramCFG &CFG,
                                      const ProcessCFG &P,
                                      const std::vector<PairSet> &Kill,
                                      const std::vector<PairSet> &Gen) {
  RdProcessArtifact A;
  PairSet Initial;
  for (unsigned Var : P.FreeVars)
    Initial.insert(DefPair{Resource::variable(Var), InitialLabel});
  for (unsigned Sig : P.FreeSigs)
    Initial.insert(DefPair{Resource::signal(Sig), InitialLabel});

  auto Dom = std::make_shared<DefPairDomain>();
  Dom->addAll(Initial);
  for (LabelId L : P.Labels)
    Dom->addAll(Gen[L]);
  Dom->finalize();
  A.Dom = Dom;
  size_t K = Dom->size();
  if (K == 0)
    return A; // nothing is ever defined: every set stays ∅ (the default)

  const FlowIndex &FI = CFG.flowIndex(P.ProcessId);
  size_t NL = FI.numLabels();
  size_t W = (K + 63) / 64;

  // Whole-table BitMatrix rows instead of per-label BitSets; the two
  // result tables are shared with the label slots installed later.
  std::vector<uint64_t> InitialMask(W, 0);
  Dom->maskInto(Initial, InitialMask.data());
  BitMatrix KillM(NL, K), GenM(NL, K);
  for (uint32_t I = 0; I < NL; ++I) {
    Dom->maskInto(Kill[FI.label(I)], KillM.row(I));
    Dom->maskInto(Gen[FI.label(I)], GenM.row(I));
  }

  auto Entry = std::make_shared<BitMatrix>(NL, K);
  auto Exit = std::make_shared<BitMatrix>(NL, K);

  std::deque<uint32_t> Work(FI.rpo().begin(), FI.rpo().end());
  std::vector<uint8_t> InWork(NL, 1);
  uint32_t InitLocal = FI.localOf(P.Init);

  std::vector<uint64_t> In(W);
  while (!Work.empty()) {
    uint32_t I = Work.front();
    Work.pop_front();
    InWork[I] = 0;
    ++A.Iterations;

    // The init label carries the initial {(n, ?)} definitions; if it is
    // re-entered (possible in bare statement programs without the
    // isolated-entry wrapper) predecessor exits are merged as well.
    if (I == InitLocal)
      BitMatrix::copy(In.data(), InitialMask.data(), W);
    else
      BitMatrix::clear(In.data(), W);
    for (uint32_t Pred : FI.preds(I))
      BitMatrix::orInto(In.data(), Exit->row(Pred), W);
    BitMatrix::copy(Entry->row(I), In.data(), W);

    BitMatrix::subtract(In.data(), KillM.row(I), W);
    BitMatrix::orInto(In.data(), GenM.row(I), W);

    if (BitMatrix::equal(In.data(), Exit->row(I), W))
      continue;
    BitMatrix::copy(Exit->row(I), In.data(), W);
    for (uint32_t Succ : FI.succs(I))
      if (!InWork[Succ]) {
        Work.push_back(Succ);
        InWork[Succ] = 1;
      }
  }

  A.Entry = std::move(Entry);
  A.Exit = std::move(Exit);
  return A;
}

void vif::installProcessRd(ReachingDefsResult &R, const ProgramCFG &CFG,
                           const ProcessCFG &P, const RdProcessArtifact &A) {
  if (!A.Entry)
    return; // empty domain: the default (empty) slots are already right
  const FlowIndex &FI = CFG.flowIndex(P.ProcessId);
  size_t NL = FI.numLabels();
  for (uint32_t I = 0; I < NL; ++I) {
    LabelId L = FI.label(I);
    R.Entry.setDense(L, A.Dom, A.Entry, I);
    R.Exit.setDense(L, A.Dom, A.Exit, I);
  }
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
  const std::vector<PairSet> &Kill = KG.Kill;
  const std::vector<PairSet> &Gen = KG.Gen;

  for (const ProcessCFG &P : CFG.processes()) {
    PairSet Initial;
    for (unsigned Var : P.FreeVars)
      Initial.insert(DefPair{Resource::variable(Var), InitialLabel});
    for (unsigned Sig : P.FreeSigs)
      Initial.insert(DefPair{Resource::signal(Sig), InitialLabel});

    std::vector<PairSet> Exit(NumLabels + 1);

    std::map<LabelId, std::vector<LabelId>> Preds;
    for (const auto &[From, To] : P.Flow)
      Preds[To].push_back(From);

    std::deque<LabelId> Work(P.Labels.begin(), P.Labels.end());
    std::vector<bool> InWork(NumLabels + 1, false);
    for (LabelId L : P.Labels)
      InWork[L] = true;

    while (!Work.empty()) {
      LabelId L = Work.front();
      Work.pop_front();
      InWork[L] = false;
      ++R.Iterations;

      PairSet In;
      if (L == P.Init)
        In = Initial;
      for (LabelId Pred : Preds[L])
        In.unionWith(Exit[Pred]);
      R.Entry.setEager(L, In);

      PairSet Out = std::move(In);
      Out.subtract(Kill[L]);
      Out.unionWith(Gen[L]);

      if (Out == Exit[L])
        continue;
      Exit[L] = std::move(Out);
      for (const auto &[From, To] : P.Flow)
        if (From == L && !InWork[To]) {
          Work.push_back(To);
          InWork[To] = true;
        }
    }

    for (LabelId L : P.Labels)
      R.Exit.setEager(L, std::move(Exit[L]));
  }
  (void)Program;
  return R;
}
