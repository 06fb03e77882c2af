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
                        const std::vector<PairSet> &Kill,
                        const std::vector<PairSet> &Gen,
                        const PairSet &Initial) {
  RdProcessArtifact A;
  // The dense domain: only initial and gen'd pairs can ever be present
  // (⊥ = ∅ and the transfer functions add nothing else).
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

  // All per-label sets live as rows of whole-table matrices: two scratch
  // tables and two (or four) result tables shared with the label slots
  // installed later — a few allocations per process, not one per label.
  std::vector<uint64_t> InitialMask(W, 0);
  Dom->maskInto(Initial, InitialMask.data());
  BitMatrix KillM(NL, K), GenM(NL, K);
  for (uint32_t I = 0; I < NL; ++I) {
    Dom->maskInto(Kill[FI.label(I)], KillM.row(I));
    Dom->maskInto(Gen[FI.label(I)], GenM.row(I));
  }
  auto Entry = std::make_shared<BitMatrix>(NL, K);
  auto Exit = std::make_shared<BitMatrix>(NL, K);
  std::shared_ptr<BitMatrix> MustEntry, MustExit;
  if (Must) {
    MustEntry = std::make_shared<BitMatrix>(NL, K);
    MustExit = std::make_shared<BitMatrix>(NL, K);
  }

  // The worklist starts in reverse postorder so the first sweep sees
  // predecessors first on acyclic stretches.
  std::deque<uint32_t> Work(FI.rpo().begin(), FI.rpo().end());
  std::vector<uint8_t> InWork(NL, 1);
  uint32_t InitLocal = FI.localOf(P.Init);
  std::vector<uint64_t> In(W), MustIn(Must ? W : 0);
  while (!Work.empty()) {
    uint32_t I = Work.front();
    Work.pop_front();
    InWork[I] = 0;
    ++A.Iterations;

    // Entry equations. The paper assumes isolated entries (the
    // null;while wrapper guarantees them for processes); bare statement
    // programs may re-enter their init label, so the may component also
    // merges predecessor exits there. The must component keeps ∅ at init:
    // the program-start path carries no facts and dominates the ⋂˙ — and
    // ⋂˙ over an empty predecessor family is ∅ as well.
    FlowIndex::Range Preds = FI.preds(I);
    if (I == InitLocal)
      BitMatrix::copy(In.data(), InitialMask.data(), W);
    else
      BitMatrix::clear(In.data(), W);
    for (uint32_t Pred : Preds)
      BitMatrix::orInto(In.data(), Exit->row(Pred), W);
    BitMatrix::copy(Entry->row(I), In.data(), W);
    // Exit equations: (entry \ kill) ∪ gen.
    BitMatrix::subtract(In.data(), KillM.row(I), W);
    BitMatrix::orInto(In.data(), GenM.row(I), W);
    bool Changed = !BitMatrix::equal(In.data(), Exit->row(I), W);

    if constexpr (Must) {
      BitMatrix::clear(MustIn.data(), W);
      if (I != InitLocal && !Preds.empty()) {
        BitMatrix::copy(MustIn.data(), MustExit->row(Preds.First[0]), W);
        for (const uint32_t *It = Preds.First + 1; It != Preds.Last; ++It)
          BitMatrix::andWith(MustIn.data(), MustExit->row(*It), W);
      }
      BitMatrix::copy(MustEntry->row(I), MustIn.data(), W);
      BitMatrix::subtract(MustIn.data(), KillM.row(I), W);
      BitMatrix::orInto(MustIn.data(), GenM.row(I), W);
      if (!BitMatrix::equal(MustIn.data(), MustExit->row(I), W)) {
        BitMatrix::copy(MustExit->row(I), MustIn.data(), W);
        Changed = true;
      }
    }

    if (!Changed)
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
  A.MustEntry = std::move(MustEntry);
  A.MustExit = std::move(MustExit);
  return A;
}

} // namespace

RdProcessArtifact vif::solveGenKill(const ProgramCFG &CFG,
                                    const ProcessCFG &P,
                                    const std::vector<PairSet> &Kill,
                                    const std::vector<PairSet> &Gen,
                                    const PairSet &Initial, bool Must) {
  return Must ? solve<true>(CFG, P, Kill, Gen, Initial)
              : solve<false>(CFG, P, Kill, Gen, Initial);
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
