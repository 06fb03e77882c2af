//===- rd/Incremental.cpp -------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "rd/Incremental.h"

#include "support/Casting.h"
#include "support/Hash.h"
#include "support/Parallel.h"

#include <algorithm>
#include <optional>

using namespace vif;

//===----------------------------------------------------------------------===//
// Slice hashing
//===----------------------------------------------------------------------===//

namespace {

void hashExpr(HashBuilder &H, const Expr &E) {
  H.u64(static_cast<uint64_t>(E.kind()));
  switch (E.kind()) {
  case Expr::Kind::LogicLiteral:
    H.u64(static_cast<uint64_t>(cast<LogicLiteralExpr>(&E)->value()));
    break;
  case Expr::Kind::VectorLiteral: {
    // The bits are one contiguous byte run in the tree's arena.
    const ArenaArray<StdLogic> &Bits = cast<VectorLiteralExpr>(&E)->bits();
    H.u64(Bits.size());
    H.bytes(Bits.begin(), Bits.size());
    break;
  }
  case Expr::Kind::Name: {
    ObjectRef R = cast<NameExpr>(&E)->ref();
    H.u64(static_cast<uint64_t>(R.K)).u64(R.Id);
    break;
  }
  case Expr::Kind::Slice: {
    const auto *S = cast<SliceExpr>(&E);
    ObjectRef R = S->ref();
    H.u64(static_cast<uint64_t>(R.K)).u64(R.Id);
    H.u64(static_cast<uint64_t>(static_cast<int64_t>(S->slice().Z1)));
    H.u64(static_cast<uint64_t>(static_cast<int64_t>(S->slice().Z2)));
    H.boolean(S->slice().Downto);
    break;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    H.u64(static_cast<uint64_t>(U->op()));
    hashExpr(H, U->sub());
    break;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    H.u64(static_cast<uint64_t>(B->op()));
    hashExpr(H, B->lhs());
    hashExpr(H, B->rhs());
    break;
  }
  }
}

uint64_t hashProcessSlice(const ElaboratedProgram &Program,
                          const ProgramCFG &CFG, const ProcessCFG &P) {
  HashBuilder H;
  H.str("vif-slice-v1");
  H.boolean(Program.process(P.ProcessId).Looped);
  H.u64(P.Init);
  auto ids = [&H](const auto &V) {
    H.u64(V.size());
    for (auto X : V)
      H.u64(X);
  };
  H.u64(P.FirstLabel).u64(P.NumLabels);
  ids(P.Finals);
  ids(P.WaitLabels);
  ids(P.FreeVars);
  ids(P.FreeSigs);
  for (LabelId L = P.FirstLabel; L < P.endLabel(); ++L)
    ids(CFG.succs(L));
  // Signal classes affect the design-level Table 9 interface handling;
  // fold them in so artifacts never outlive a reclassification.
  for (unsigned Sig : P.FreeSigs)
    H.u64(static_cast<uint64_t>(Program.signal(Sig).Class));
  // The statement slice, in label order. Source ranges are deliberately
  // never hashed: edits elsewhere in the file shift them without
  // changing any analysis input.
  for (LabelId L = P.FirstLabel; L < P.endLabel(); ++L) {
    const CFGBlock &B = CFG.block(L);
    H.u64(L).u64(static_cast<uint64_t>(B.K));
    switch (B.K) {
    case CFGBlock::Kind::VarAssign:
    case CFGBlock::Kind::SignalAssign: {
      const auto *A = cast<AssignStmtBase>(B.S);
      ObjectRef R = A->targetRef();
      H.u64(static_cast<uint64_t>(R.K)).u64(R.Id);
      H.boolean(A->hasSlice());
      if (A->hasSlice()) {
        H.u64(static_cast<uint64_t>(static_cast<int64_t>(A->slice().Z1)));
        H.u64(static_cast<uint64_t>(static_cast<int64_t>(A->slice().Z2)));
        H.boolean(A->slice().Downto);
      }
      hashExpr(H, A->value());
      break;
    }
    case CFGBlock::Kind::Wait: {
      const auto *W = cast<WaitStmt>(B.S);
      ids(W->onSignals());
      H.boolean(W->hasUntil());
      if (W->hasUntil())
        hashExpr(H, W->until());
      break;
    }
    case CFGBlock::Kind::Cond:
      hashExpr(H, *B.Cond);
      break;
    case CFGBlock::Kind::Null:
      break;
    }
  }
  return H.value();
}

} // namespace

std::vector<uint64_t> vif::hashProcessSlices(const ElaboratedProgram &Program,
                                             const ProgramCFG &CFG) {
  std::vector<uint64_t> Out(CFG.processes().size(), 0);
  for (const ProcessCFG &P : CFG.processes())
    Out[P.ProcessId] = hashProcessSlice(Program, CFG, P);
  return Out;
}

//===----------------------------------------------------------------------===//
// ProcessArtifactTable
//===----------------------------------------------------------------------===//

ProcessArtifactTable::ProcessArtifactTable(size_t MaxEntries)
    : Cap(MaxEntries ? MaxEntries : 1) {}

std::shared_ptr<const RdProcessArtifact>
ProcessArtifactTable::find(uint64_t Key) {
  std::shared_ptr<const RdProcessArtifact> A;
  {
    std::lock_guard<std::mutex> G(M);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      Lru.splice(Lru.begin(), Lru, It->second.LruIt);
      A = It->second.Value;
    }
  }
  (A ? Hits : Misses).fetch_add(1, std::memory_order_relaxed);
  return A;
}

void ProcessArtifactTable::insert(uint64_t Key,
                                  std::shared_ptr<const RdProcessArtifact> A) {
  std::lock_guard<std::mutex> G(M);
  auto It = Map.find(Key);
  if (It != Map.end()) {
    It->second.Value = std::move(A);
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    return;
  }
  Lru.push_front(Key);
  Map.emplace(Key, Entry{std::move(A), Lru.begin()});
  while (Map.size() > Cap) {
    Map.erase(Lru.back());
    Lru.pop_back();
  }
}

//===----------------------------------------------------------------------===//
// Incremental analysis
//===----------------------------------------------------------------------===//

namespace {

/// Folds a BitSet into a hash by its words, trimmed of trailing zero
/// words: the canonical form, independent of universe padding.
void hashBitSet(HashBuilder &H, const BitSet &S) {
  H.words(S.words().data(), S.words().size());
}

/// The signal ids that \p K's rows name, over a universe of \p NumSignals.
BitSet trackedSignals(const RowKeep &K, size_t NumSignals) {
  BitSet S(NumSignals);
  for (Resource N : K.Reads.Items)
    if (N.kind() == Resource::Kind::Signal && N.id() < NumSignals)
      S.set(N.id());
  return S;
}

/// The production keep-set of process \p P for Table 4 or 5 (see
/// RowKeep), or the full-row view when \p Reads is null.
RowKeep keepOf(const ElaboratedProgram &Program, const ProgramCFG &CFG,
               const ProcessCFG &P, const ResourceRows *Reads, bool Table4) {
  RowKeep K;
  if (!Reads)
    return K;
  K.Full = false;
  K.Whole.reserve(P.NumLabels);
  K.Reads.Start.reserve(P.NumLabels + 1);
  bool EndExits = !Table4 && !Program.process(P.ProcessId).Looped;
  for (LabelId L = P.FirstLabel; L < P.endLabel(); ++L) {
    bool Final = std::count(P.Finals.begin(), P.Finals.end(), L);
    K.Whole.push_back(Table4 ? CFG.isWaitLabel(L) : (EndExits && Final) * 2);
    if (!Table4)
      K.Reads.Items.insert(K.Reads.Items.end(), Reads->begin(L),
                           Reads->end(L));
    K.Reads.closeRow();
  }
  return K;
}

/// True when \p A has the layout a solve of \p NL labels under \p K
/// emits (RdProcessArtifact::present, NL rows each) and nothing in a row
/// the keep-set skips, only the label's reads in a restricted entry row.
bool fitsKeep(const RdProcessArtifact &A, const RowKeep &K, size_t NL,
              bool Must) {
  for (int T = 0; T < 4; ++T) {
    const std::shared_ptr<const PairRows> &R = A.Tables[T];
    uint8_t Bit = T % 2 ? 2 : 1;
    if (bool(R) != RdProcessArtifact::present(T, K.keepsExits(), Must) ||
        (R && R->numRows() != NL))
      return false;
    for (uint32_t I = 0; R && !K.Full && I < NL; ++I)
      for (const DefPair *D = R->begin(I); D != R->end(I); ++D)
        if (!(K.Whole[I] & Bit) &&
            (Bit == 2 || !std::binary_search(K.Reads.begin(I),
                                             K.Reads.end(I), D->N)))
          return false;
  }
  return true;
}

/// One phase of analyzeIncremental — Table 4 or Table 5 — for every
/// process: look its artifact up under Key(P), else Solve(P) and insert
/// it (without a table, just Solve(P)); then install it into the given
/// tables. Misses solve in parallel (each reads only its own process);
/// installs run after the join, in process order. Returns how many
/// artifacts were reused; adds the iteration total to \p Iterations.
template <typename KeyFn, typename SolveFn>
size_t runPhase(const ProgramCFG &CFG, unsigned Jobs,
                ProcessArtifactTable *Table, bool Must,
                const std::vector<RowKeep> &Keeps, KeyFn Key, SolveFn Solve,
                LazyPairSets &Entry, LazyPairSets &Exit,
                LazyPairSets *MustEntry, LazyPairSets *MustExit,
                size_t &Iterations) {
  size_t NumProcs = CFG.processes().size();
  std::vector<std::shared_ptr<const RdProcessArtifact>> Arts(NumProcs);
  std::vector<uint8_t> Reused(NumProcs, 0);
  parallelFor(Jobs, NumProcs, [&](size_t PI) {
    const ProcessCFG &P = CFG.processes()[PI];
    if (!Table) {
      Arts[PI] = std::make_shared<RdProcessArtifact>(Solve(P));
      return;
    }
    uint64_t K = Key(P);
    auto A = Table->find(K);
    // A layout mismatch (a key collision) is a miss.
    if (A && !fitsKeep(*A, Keeps[PI], P.NumLabels, Must))
      A = nullptr;
    if (A) {
      Reused[PI] = 1;
    } else {
      auto Solved = std::make_shared<RdProcessArtifact>(Solve(P));
      Table->insert(K, Solved);
      A = std::move(Solved);
    }
    Arts[PI] = std::move(A);
  });
  for (size_t PI = 0; PI < NumProcs; ++PI) {
    Iterations += Arts[PI]->Iterations;
    installProcessRows(CFG.processes()[PI], *Arts[PI], Entry, Exit,
                       MustEntry, MustExit);
  }
  return std::count(Reused.begin(), Reused.end(), 1);
}

} // namespace

void vif::analyzeIncremental(const ElaboratedProgram &Program,
                             const ProgramCFG &CFG,
                             const ReachingDefsOptions &Opts,
                             ProcessArtifactTable *Table,
                             ActiveSignalsResult &Active,
                             ReachingDefsResult &RD, IncrementalStats *Stats,
                             const ResourceRows *Reads) {
  size_t NumLabels = CFG.numLabels();

  Active = ActiveSignalsResult();
  Active.resize(NumLabels + 1);
  RD = ReachingDefsResult();
  RD.Entry.resize(NumLabels + 1);
  RD.Exit.resize(NumLabels + 1);

  // Keys are only built, and slices only hashed, for a table to use.
  std::vector<uint64_t> Slice;
  if (Table)
    Slice = hashProcessSlices(Program, CFG);
  std::vector<RowKeep> ActKeep, RdKeep;
  for (const ProcessCFG &P : CFG.processes()) {
    ActKeep.push_back(keepOf(Program, CFG, P, Reads, /*Table4=*/true));
    RdKeep.push_back(keepOf(Program, CFG, P, Reads, /*Table4=*/false));
  }

  // Phase 1: Table 4 artifacts, keyed by the slice alone (the fixpoint
  // reads nothing outside the process). Both phases key the full-row view
  // apart from the kept rows.
  size_t ActReused = runPhase(
      CFG, Opts.Jobs, Table, /*Must=*/true, ActKeep,
      [&](const ProcessCFG &P) {
        return HashBuilder()
            .str("actv")
            .u64(Slice[P.ProcessId])
            .boolean(!Reads)
            .value();
      },
      [&](const ProcessCFG &P) {
        return solveGenKill(CFG, P, computeActiveKillGenFor(CFG, P),
                            PairSet(), /*Must=*/true, ActKeep[P.ProcessId]);
      },
      Active.MayEntry, Active.MayExit, &Active.MustEntry, &Active.MustExit,
      Active.Iterations);

  // Phase 2: Table 5 artifacts, keyed by the slice plus everything the
  // wait kill/gen sets read from outside the process: the "others"
  // unions of the wait aggregates and the two options that shape them.
  // (The slice fixes the read sets the kept rows are restricted to, and
  // with them the signals a pruned solve's waits track.)
  WaitAggregates Agg = computeWaitAggregates(CFG, Active, Opts);
  size_t RdReused = runPhase(
      CFG, Opts.Jobs, Table, /*Must=*/false, RdKeep,
      [&](const ProcessCFG &P) {
        HashBuilder KH;
        KH.str("rdpr").u64(Slice[P.ProcessId]);
        hashBitSet(KH, Agg.OthersMay[P.ProcessId]);
        hashBitSet(KH, Agg.OthersMust[P.ProcessId]);
        KH.boolean(Opts.UseMustActiveKill).boolean(Opts.HsiehLevitanCrossFlow);
        return KH.boolean(!Reads).value();
      },
      [&](const ProcessCFG &P) {
        const RowKeep &K = RdKeep[P.ProcessId];
        std::optional<BitSet> Tracked;
        if (K.prunes())
          Tracked = trackedSignals(K, Agg.OthersMay[P.ProcessId].size());
        return solveGenKill(CFG, P,
                            computeReachingDefsKillGenFor(
                                CFG, P, Active, Agg, Opts,
                                Tracked ? &*Tracked : nullptr),
                            initialDefs(P), /*Must=*/false, K);
      },
      RD.Entry, RD.Exit, nullptr, nullptr, RD.Iterations);

  if (Stats) {
    size_t NumProcs = CFG.processes().size();
    Stats->ActiveReused += ActReused;
    Stats->ActiveSolved += NumProcs - ActReused;
    Stats->RdReused += RdReused;
    Stats->RdSolved += NumProcs - RdReused;
  }
}
