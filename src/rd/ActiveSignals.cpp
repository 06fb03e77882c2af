//===- rd/ActiveSignals.cpp -----------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "rd/ActiveSignals.h"

#include "support/Casting.h"
#include "support/Parallel.h"

#include <algorithm>
#include <deque>

using namespace vif;

ProcessKillGen vif::computeActiveKillGenFor(const ProgramCFG &CFG,
                                            const ProcessCFG &P) {
  ProcessKillGen KG(P.NumLabels);
  // Every signal this process assigns, ascending.
  std::vector<Resource> Assigned;
  for (LabelId L = P.FirstLabel; L < P.endLabel(); ++L)
    if (CFG.block(L).K == CFGBlock::Kind::SignalAssign)
      Assigned.push_back(Resource::signal(
          cast<SignalAssignStmt>(CFG.block(L).S)->targetRef().Id));
  std::sort(Assigned.begin(), Assigned.end());
  Assigned.erase(std::unique(Assigned.begin(), Assigned.end()),
                 Assigned.end());

  for (uint32_t I = 0; I < P.NumLabels; ++I) {
    LabelId L = P.label(I);
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
    expandKillGen(P, F, Sites, KG);
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
  // domain, so the processes fan out over a thread pool; their rows are
  // installed after the join, in process order, and iteration counts are
  // summed there, keeping the result deterministic under any Jobs value.
  std::vector<RdProcessArtifact> Solved(CFG.processes().size());
  parallelFor(Jobs, Solved.size(), [&](size_t ProcIdx) {
    const ProcessCFG &P = CFG.processes()[ProcIdx];
    Solved[ProcIdx] = solveGenKill(CFG, P, computeActiveKillGenFor(CFG, P),
                                   PairSet(), /*Must=*/true);
  });
  for (const ProcessCFG &P : CFG.processes()) {
    R.Iterations += Solved[P.ProcessId].Iterations;
    installProcessRows(P, Solved[P.ProcessId], R.MayEntry, R.MayExit,
                       &R.MustEntry, &R.MustExit);
  }
  return R;
}

size_t vif::solveGenKillReference(const ProgramCFG &CFG, const ProcessCFG &P,
                                  const ReachingDefsKillGen &KG,
                                  const PairSet &Initial, LazyPairSets &Entry,
                                  LazyPairSets &Exit, LazyPairSets *MustEntry,
                                  LazyPairSets *MustExit) {
  size_t NumSlots = KG.Kill.size();
  std::vector<PairSet> Sets[4]; // Entry, Exit, MustEntry, MustExit
  for (std::vector<PairSet> &S : Sets)
    S.resize(NumSlots);
  std::vector<PairSet> &Exits = Sets[1], &MustExits = Sets[3];

  std::deque<LabelId> Work;
  std::vector<bool> InWork(NumSlots, false);
  for (LabelId L = P.FirstLabel; L < P.endLabel(); ++L) {
    Work.push_back(L);
    InWork[L] = true;
  }

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
    for (uint32_t Pred : CFG.preds(L)) {
      In.unionWith(Exits[P.label(Pred)]);
      PredMustExits.push_back(&MustExits[P.label(Pred)]);
    }
    Sets[0][L] = In;
    PairSet Out = std::move(In);
    Out.subtract(KG.Kill[L]);
    Out.unionWith(KG.Gen[L]);
    bool Changed = !(Out == Exits[L]);
    Exits[L] = std::move(Out);

    if (MustEntry) {
      if (L != P.Init)
        MustIn = PairSet::dottedIntersection(PredMustExits);
      Sets[2][L] = MustIn;
      PairSet MustOut = std::move(MustIn);
      MustOut.subtract(KG.Kill[L]);
      MustOut.unionWith(KG.Gen[L]);
      Changed |= !(MustOut == MustExits[L]);
      MustExits[L] = std::move(MustOut);
    }

    if (!Changed)
      continue;
    for (uint32_t Succ : CFG.succs(L))
      if (!InWork[P.label(Succ)]) {
        Work.push_back(P.label(Succ));
        InWork[P.label(Succ)] = true;
      }
  }

  // Installed as kept rows of every label, like the full-row view.
  RdProcessArtifact A;
  for (int T = 0; T < (MustEntry ? 4 : 2); ++T) {
    auto R = std::make_shared<PairRows>();
    for (LabelId L = P.FirstLabel; L < P.endLabel(); ++L) {
      R->Items.insert(R->Items.end(), Sets[T][L].begin(), Sets[T][L].end());
      R->closeRow();
    }
    A.Tables[T] = std::move(R);
  }
  installProcessRows(P, A, Entry, Exit, MustEntry, MustExit);
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
    R.Iterations += solveGenKillReference(CFG, P, KG, PairSet(), R.MayEntry,
                                          R.MayExit, &R.MustEntry,
                                          &R.MustExit);
  return R;
}
