//===- oracle/Oracles.cpp -------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracles.h"

#include <algorithm>

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
