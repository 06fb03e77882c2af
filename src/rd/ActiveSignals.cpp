//===- rd/ActiveSignals.cpp -----------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "rd/ActiveSignals.h"

#include "cfg/FlowIndex.h"
#include "support/Casting.h"
#include "support/Parallel.h"

#include <algorithm>
#include <deque>
#include <map>

using namespace vif;

ProcessKillGen vif::computeActiveKillGenFor(const ProgramCFG &CFG,
                                            const ProcessCFG &P) {
  const FlowIndex &FI = CFG.flowIndex(P.ProcessId);
  ProcessKillGen KG(FI.numLabels());
  // Every signal this process assigns, ascending.
  std::vector<Resource> Assigned;
  for (LabelId L : P.Labels)
    if (CFG.block(L).K == CFGBlock::Kind::SignalAssign)
      Assigned.push_back(Resource::signal(
          cast<SignalAssignStmt>(CFG.block(L).S)->targetRef().Id));
  std::sort(Assigned.begin(), Assigned.end());
  Assigned.erase(std::unique(Assigned.begin(), Assigned.end()),
                 Assigned.end());

  for (uint32_t I = 0; I < FI.numLabels(); ++I) {
    LabelId L = FI.label(I);
    const CFGBlock &B = CFG.block(L);
    switch (B.K) {
    case CFGBlock::Kind::SignalAssign: {
      const auto *A = cast<SignalAssignStmt>(B.S);
      Resource S = Resource::signal(A->targetRef().Id);
      // Whole assignments kill every assignment to s in this process;
      // slice assignments only generate (Table 4 lists no kill for them).
      if (!A->hasSlice())
        KG.Kill[I].push_back(S);
      KG.Gen[I].append(DefPair{S, L});
      break;
    }
    case CFGBlock::Kind::Wait:
      // Synchronization consumes all active values of the process.
      KG.Kill[I] = Assigned;
      break;
    case CFGBlock::Kind::Null:
    case CFGBlock::Kind::VarAssign:
    case CFGBlock::Kind::Cond:
      break;
    }
  }
  return KG;
}

ReachingDefsKillGen vif::computeActiveKillGen(const ProgramCFG &CFG) {
  ReachingDefsKillGen KG;
  KG.Kill.resize(CFG.numLabels() + 1);
  KG.Gen.resize(CFG.numLabels() + 1);
  for (const ProcessCFG &P : CFG.processes()) {
    ProcessKillGen F = computeActiveKillGenFor(CFG, P);
    // A killed signal's definitions are its assignments: the gens.
    DefPairDomain Sites;
    for (const PairSet &G : F.Gen)
      Sites.addAll(G);
    Sites.finalize();
    expandKillGen(CFG, P, F, Sites, KG);
  }
  return KG;
}

ActiveSignalsResult
vif::analyzeActiveSignals(const ElaboratedProgram &Program,
                          const ProgramCFG &CFG, unsigned Jobs) {
  (void)Program;
  ActiveSignalsResult R;
  R.resize(CFG.numLabels() + 1);

  // Each process is an independent fixpoint over its own labels and
  // domain; the loop body writes only that process's label slots, so the
  // processes fan out over a thread pool. Iteration counts accumulate
  // per process and are summed after the join, keeping the total
  // deterministic under any Jobs value.
  size_t NumProcs = CFG.processes().size();
  std::vector<size_t> Iterations(NumProcs, 0);
  parallelFor(Jobs, NumProcs, [&](size_t ProcIdx) {
    const ProcessCFG &P = CFG.processes()[ProcIdx];
    RdProcessArtifact A = solveGenKill(CFG, P, computeActiveKillGenFor(CFG, P),
                                       PairSet(), /*Must=*/true);
    Iterations[ProcIdx] = A.Iterations;
    installProcessRows(CFG, P, A, R.MayEntry, R.MayExit, &R.MustEntry,
                       &R.MustExit);
  });
  for (size_t N : Iterations)
    R.Iterations += N;
  return R;
}

size_t vif::solveGenKillReference(const ProcessCFG &P,
                                  const ReachingDefsKillGen &KG,
                                  const PairSet &Initial, LazyPairSets &Entry,
                                  LazyPairSets &Exit, LazyPairSets *MustEntry,
                                  LazyPairSets *MustExit) {
  size_t NumSlots = KG.Kill.size();
  std::vector<PairSet> Exits(NumSlots), MustExits(NumSlots);

  std::map<LabelId, std::vector<LabelId>> Preds;
  for (const auto &[From, To] : P.Flow)
    Preds[To].push_back(From);

  std::deque<LabelId> Work(P.Labels.begin(), P.Labels.end());
  std::vector<bool> InWork(NumSlots, false);
  for (LabelId L : P.Labels)
    InWork[L] = true;

  size_t Iterations = 0;
  while (!Work.empty()) {
    LabelId L = Work.front();
    Work.pop_front();
    InWork[L] = false;
    ++Iterations;

    PairSet In, MustIn;
    if (L == P.Init)
      In = Initial;
    std::vector<const PairSet *> PredMustExits;
    for (LabelId Pred : Preds[L]) {
      In.unionWith(Exits[Pred]);
      PredMustExits.push_back(&MustExits[Pred]);
    }
    Entry.setEager(L, In);
    PairSet Out = std::move(In);
    Out.subtract(KG.Kill[L]);
    Out.unionWith(KG.Gen[L]);
    bool Changed = !(Out == Exits[L]);
    Exits[L] = std::move(Out);

    if (MustEntry) {
      if (L != P.Init)
        MustIn = PairSet::dottedIntersection(PredMustExits);
      MustEntry->setEager(L, MustIn);
      PairSet MustOut = std::move(MustIn);
      MustOut.subtract(KG.Kill[L]);
      MustOut.unionWith(KG.Gen[L]);
      Changed |= !(MustOut == MustExits[L]);
      MustExits[L] = std::move(MustOut);
    }

    if (!Changed)
      continue;
    for (const auto &[From, To] : P.Flow)
      if (From == L && !InWork[To]) {
        Work.push_back(To);
        InWork[To] = true;
      }
  }

  for (LabelId L : P.Labels) {
    Exit.setEager(L, std::move(Exits[L]));
    if (MustExit)
      MustExit->setEager(L, std::move(MustExits[L]));
  }
  return Iterations;
}

ActiveSignalsResult
vif::analyzeActiveSignalsReference(const ElaboratedProgram &Program,
                                   const ProgramCFG &CFG) {
  (void)Program;
  ActiveSignalsResult R;
  R.resize(CFG.numLabels() + 1);

  ReachingDefsKillGen KG = computeActiveKillGen(CFG);
  for (const ProcessCFG &P : CFG.processes())
    R.Iterations += solveGenKillReference(P, KG, PairSet(), R.MayEntry,
                                          R.MayExit, &R.MustEntry,
                                          &R.MustExit);
  return R;
}
