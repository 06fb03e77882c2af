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
    for (LabelId L : P.Labels)
      for (Resource N : readsAt(L))
        Tracked.insert(N);
    for (unsigned V : EndExits ? P.FreeVars : std::vector<unsigned>())
      Tracked.insert(Resource::variable(V));
    for (unsigned S : EndExits ? P.FreeSigs : std::vector<unsigned>())
      Tracked.insert(Resource::signal(S));
    for (LabelId L : P.Labels) {
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
