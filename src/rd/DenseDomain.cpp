//===- rd/DenseDomain.cpp -------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "rd/DenseDomain.h"

#include "cfg/FlowIndex.h"

#include <deque>

using namespace vif;

namespace {

/// solveGenKill, with the must component compiled in or out.
template <bool Must>
RdProcessArtifact solve(const ProgramCFG &CFG, const ProcessCFG &P,
                        const ProcessKillGen &KG, const PairSet &Initial) {
  RdProcessArtifact A;
  // The dense domain: only initial and gen'd pairs can ever be present
  // (⊥ = ∅ and the transfer functions add nothing else).
  auto Dom = std::make_shared<DefPairDomain>();
  Dom->addAll(Initial);
  for (const PairSet &G : KG.Gen)
    Dom->addAll(G);
  Dom->finalize();
  A.Dom = Dom;
  size_t K = Dom->size();
  if (K == 0)
    return A; // nothing is ever defined: every set stays ∅ (the default)

  const FlowIndex &FI = CFG.flowIndex(P.ProcessId);
  size_t NL = FI.numLabels();
  size_t W = (K + 63) / 64;

  // The transfer functions resolved against the domain once, in CSR
  // form: label I clears the index ranges KillRanges[KillStart[I] ..
  // KillStart[I + 1]) (a killed resource's whole range; adjacent ranges
  // merged, empty ones dropped) and sets the indices GenBits[GenStart[I]
  // .. GenStart[I + 1]).
  std::vector<uint32_t> KillStart(NL + 1, 0), GenStart(NL + 1, 0);
  std::vector<std::pair<size_t, size_t>> KillRanges;
  std::vector<size_t> GenBits;
  for (uint32_t I = 0; I < NL; ++I) {
    KillStart[I] = static_cast<uint32_t>(KillRanges.size());
    for (Resource N : KG.Kill[I]) {
      auto [First, Last] = Dom->rangeOf(N);
      if (First == Last)
        continue;
      if (KillRanges.size() > KillStart[I] && KillRanges.back().second == First)
        KillRanges.back().second = Last;
      else
        KillRanges.push_back({First, Last});
    }
    GenStart[I] = static_cast<uint32_t>(GenBits.size());
    for (const DefPair &D : KG.Gen[I])
      GenBits.push_back(Dom->indexOf(D));
  }
  KillStart[NL] = static_cast<uint32_t>(KillRanges.size());
  GenStart[NL] = static_cast<uint32_t>(GenBits.size());
  // exit = (entry \ kill) ∪ gen, in place on a row.
  auto transfer = [&](uint32_t I, uint64_t *Row) {
    for (uint32_t J = KillStart[I]; J < KillStart[I + 1]; ++J)
      BitMatrix::clearRange(Row, KillRanges[J].first, KillRanges[J].second);
    for (uint32_t J = GenStart[I]; J < GenStart[I + 1]; ++J)
      Row[GenBits[J] >> 6] |= uint64_t(1) << (GenBits[J] & 63);
  };

  // All per-label sets live as rows of whole-table matrices shared with
  // the label slots installed later — two (or four) allocations per
  // process, not one per label.
  auto Entry = std::make_shared<BitMatrix>(NL, K);
  auto Exit = std::make_shared<BitMatrix>(NL, K);
  std::shared_ptr<BitMatrix> MustEntry, MustExit;
  if (Must) {
    MustEntry = std::make_shared<BitMatrix>(NL, K);
    MustExit = std::make_shared<BitMatrix>(NL, K);
  }

  // Entry equations, may component. The paper assumes isolated entries
  // (the null;while wrapper guarantees them for processes); bare
  // statement programs may re-enter their init label, so its entry is
  // the initial facts plus the predecessor exits like any other. Every
  // entry row starts at its non-flow part (Initial at init, else ∅) and
  // receives each predecessor exit as it grows, so it always equals the
  // union over the current predecessor exits.
  uint32_t InitLocal = FI.localOf(P.Init);
  for (const DefPair &D : Initial)
    Entry->set(InitLocal, Dom->indexOf(D));

  // The worklist starts in reverse postorder so the first sweep sees
  // predecessors first on acyclic stretches.
  std::deque<uint32_t> Work(FI.rpo().begin(), FI.rpo().end());
  std::vector<uint8_t> InWork(NL, 1);
  std::vector<uint64_t> Out(W), MustIn(Must ? W : 0);
  while (!Work.empty()) {
    uint32_t I = Work.front();
    Work.pop_front();
    InWork[I] = 0;
    ++A.Iterations;

    BitMatrix::copy(Out.data(), Entry->row(I), W);
    transfer(I, Out.data());
    bool MayChanged = !BitMatrix::equal(Out.data(), Exit->row(I), W);
    bool Changed = MayChanged;

    if constexpr (Must) {
      // The must component keeps ∅ at init: the program-start path
      // carries no facts and dominates the ⋂˙ — and ⋂˙ over an empty
      // predecessor family is ∅ as well.
      FlowIndex::Range Preds = FI.preds(I);
      BitMatrix::clear(MustIn.data(), W);
      if (I != InitLocal && !Preds.empty()) {
        BitMatrix::copy(MustIn.data(), MustExit->row(Preds.First[0]), W);
        for (const uint32_t *It = Preds.First + 1; It != Preds.Last; ++It)
          BitMatrix::andWith(MustIn.data(), MustExit->row(*It), W);
      }
      BitMatrix::copy(MustEntry->row(I), MustIn.data(), W);
      transfer(I, MustIn.data());
      if (!BitMatrix::equal(MustIn.data(), MustExit->row(I), W)) {
        BitMatrix::copy(MustExit->row(I), MustIn.data(), W);
        Changed = true;
      }
    }

    if (!Changed)
      continue;
    if (MayChanged) {
      BitMatrix::copy(Exit->row(I), Out.data(), W);
      for (uint32_t Succ : FI.succs(I))
        bits::orWords(Entry->row(Succ), Out.data(), W);
    }
    for (uint32_t Succ : FI.succs(I))
      if (!InWork[Succ]) {
        Work.push_back(Succ);
        InWork[Succ] = 1;
      }
  }

  A.Entry = std::move(Entry);
  A.Exit = std::move(Exit);
  A.MustEntry = std::move(MustEntry);
  A.MustExit = std::move(MustExit);
  return A;
}

} // namespace

RdProcessArtifact vif::solveGenKill(const ProgramCFG &CFG,
                                    const ProcessCFG &P,
                                    const ProcessKillGen &KG,
                                    const PairSet &Initial, bool Must) {
  return Must ? solve<true>(CFG, P, KG, Initial)
              : solve<false>(CFG, P, KG, Initial);
}

void vif::expandKillGen(const ProgramCFG &CFG, const ProcessCFG &P,
                        const ProcessKillGen &F, const DefPairDomain &Sites,
                        ReachingDefsKillGen &KG) {
  const FlowIndex &FI = CFG.flowIndex(P.ProcessId);
  for (uint32_t I = 0; I < FI.numLabels(); ++I) {
    LabelId L = FI.label(I);
    PairSet Kill;
    for (Resource N : F.Kill[I]) {
      auto [First, Last] = Sites.rangeOf(N);
      for (size_t J = First; J < Last; ++J)
        Kill.append(Sites.pair(J));
    }
    KG.Kill[L] = std::move(Kill);
    KG.Gen[L] = F.Gen[I];
  }
}

void vif::installProcessRows(const ProgramCFG &CFG, const ProcessCFG &P,
                             const RdProcessArtifact &A, LazyPairSets &Entry,
                             LazyPairSets &Exit, LazyPairSets *MustEntry,
                             LazyPairSets *MustExit) {
  if (!A.Entry)
    return; // empty domain: the default (empty) slots are already right
  const FlowIndex &FI = CFG.flowIndex(P.ProcessId);
  for (uint32_t I = 0; I < FI.numLabels(); ++I) {
    LabelId L = FI.label(I);
    Entry.setDense(L, A.Dom, A.Entry, I);
    Exit.setDense(L, A.Dom, A.Exit, I);
    if (A.MustEntry) {
      MustEntry->setDense(L, A.Dom, A.MustEntry, I);
      MustExit->setDense(L, A.Dom, A.MustExit, I);
    }
  }
}
