//===- rd/Incremental.cpp -------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "rd/Incremental.h"

#include "cfg/FlowIndex.h"
#include "support/BinaryIO.h"
#include "support/Casting.h"
#include "support/Hash.h"
#include "support/Parallel.h"

#include <algorithm>

using namespace vif;

ArtifactBlobStore::~ArtifactBlobStore() = default;

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
    const LogicVector &V = cast<VectorLiteralExpr>(&E)->value();
    H.u64(V.size());
    for (StdLogic B : V.bits())
      H.u64(static_cast<uint64_t>(B));
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
  ids(P.Labels);
  ids(P.Finals);
  ids(P.WaitLabels);
  ids(P.FreeVars);
  ids(P.FreeSigs);
  H.u64(P.Flow.size());
  for (const auto &[From, To] : P.Flow)
    H.u64(From).u64(To);
  // Signal classes affect the design-level Table 9 interface handling;
  // fold them in so artifacts never outlive a reclassification.
  for (unsigned Sig : P.FreeSigs)
    H.u64(static_cast<uint64_t>(Program.signal(Sig).Class));
  // The statement slice, in label order. Source ranges are deliberately
  // never hashed: edits elsewhere in the file shift them without
  // changing any analysis input.
  for (LabelId L : P.Labels) {
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
// Artifact codecs
//===----------------------------------------------------------------------===//

namespace {

void encodeMatrix(ByteWriter &W, const BitMatrix &M, size_t NL, size_t WW) {
  for (size_t I = 0; I < NL; ++I) {
    const uint64_t *Row = M.row(I);
    for (size_t J = 0; J < WW; ++J)
      W.u64(Row[J]);
  }
}

/// Reads an NL x K matrix; bits beyond K in the last payload word are
/// masked off so garbage padding can never index outside the domain.
std::shared_ptr<BitMatrix> decodeMatrix(ByteReader &R, uint32_t NL,
                                        uint32_t K) {
  auto M = std::make_shared<BitMatrix>(NL, K);
  size_t WW = (K + 63) / 64;
  uint64_t LastMask =
      (K % 64) ? ((uint64_t(1) << (K % 64)) - 1) : ~uint64_t(0);
  for (uint32_t I = 0; I < NL; ++I) {
    uint64_t *Row = M->row(I);
    for (size_t J = 0; J < WW; ++J)
      Row[J] = R.u64();
    Row[WW - 1] &= LastMask;
  }
  return M;
}

} // namespace

std::string vif::encodeProcessArtifact(const RdProcessArtifact &A) {
  ByteWriter W;
  W.u64(A.Iterations);
  size_t K = A.Dom ? A.Dom->size() : 0;
  size_t NL = A.Entry ? A.Entry->numRows() : 0;
  W.u32(static_cast<uint32_t>(NL));
  W.u32(static_cast<uint32_t>(K));
  for (size_t I = 0; I < K; ++I) {
    DefPair P = A.Dom->pair(I);
    W.u32(P.N.raw());
    W.u32(P.L);
  }
  if (K) {
    size_t WW = (K + 63) / 64;
    for (const auto *M : {&A.Entry, &A.Exit, &A.MustEntry, &A.MustExit})
      if (*M)
        encodeMatrix(W, **M, NL, WW);
  }
  return W.take();
}

bool vif::decodeProcessArtifact(std::string_view Blob, bool Must,
                                RdProcessArtifact &A) {
  ByteReader R(Blob);
  RdProcessArtifact Out;
  Out.Iterations = R.u64();
  uint32_t NL = R.u32();
  uint32_t K = R.u32();
  // Sizes inconsistent with the remaining bytes are rejected before any
  // allocation is sized from them.
  if (!R.ok() || K > R.remaining() / 8)
    return false;
  auto Dom = std::make_shared<DefPairDomain>();
  for (uint32_t I = 0; I < K; ++I) {
    uint32_t Raw = R.u32();
    LabelId L = R.u32();
    Dom->add(DefPair{Resource::fromRaw(Raw), L});
  }
  Dom->finalize();
  // Unsorted or duplicated pairs shrink under finalize — corrupt.
  if (!R.ok() || Dom->size() != K)
    return false;
  Out.Dom = std::move(Dom);
  if (K) {
    size_t NumMatrices = Must ? 4 : 2;
    uint64_t RowBytes = uint64_t((K + 63) / 64) * 8;
    if (uint64_t(NL) > R.remaining() / RowBytes / NumMatrices)
      return false;
    Out.Entry = decodeMatrix(R, NL, K);
    Out.Exit = decodeMatrix(R, NL, K);
    if (Must) {
      Out.MustEntry = decodeMatrix(R, NL, K);
      Out.MustExit = decodeMatrix(R, NL, K);
    }
  }
  if (!R.ok() || !R.atEnd())
    return false;
  A = std::move(Out);
  return true;
}

//===----------------------------------------------------------------------===//
// ProcessArtifactTable
//===----------------------------------------------------------------------===//

ProcessArtifactTable::ProcessArtifactTable(size_t MaxEntries)
    : Cap(MaxEntries ? MaxEntries : 1) {}

std::shared_ptr<const RdProcessArtifact>
ProcessArtifactTable::findInMemory(uint64_t Key) {
  std::lock_guard<std::mutex> G(M);
  auto It = Map.find(Key);
  if (It == Map.end())
    return nullptr;
  Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  return It->second.Value;
}

void ProcessArtifactTable::insertInMemory(
    uint64_t Key, std::shared_ptr<const RdProcessArtifact> V) {
  std::lock_guard<std::mutex> G(M);
  auto It = Map.find(Key);
  if (It != Map.end()) {
    It->second.Value = std::move(V);
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    return;
  }
  Lru.push_front(Key);
  Map.emplace(Key, Entry{std::move(V), Lru.begin()});
  while (Map.size() > Cap) {
    Map.erase(Lru.back());
    Lru.pop_back();
  }
}

std::shared_ptr<const RdProcessArtifact>
ProcessArtifactTable::find(const char (&Kind)[5], uint64_t Key, bool Must) {
  std::shared_ptr<const RdProcessArtifact> A = findInMemory(Key);
  if (!A && Backing) {
    std::string Blob;
    RdProcessArtifact Decoded;
    if (Backing->load(Kind, Key, Blob) &&
        decodeProcessArtifact(Blob, Must, Decoded)) {
      A = std::make_shared<const RdProcessArtifact>(std::move(Decoded));
      insertInMemory(Key, A);
    }
  }
  (A ? Hits : Misses).fetch_add(1, std::memory_order_relaxed);
  return A;
}

void ProcessArtifactTable::insert(const char (&Kind)[5], uint64_t Key,
                                  std::shared_ptr<const RdProcessArtifact> A) {
  if (Backing)
    Backing->store(Kind, Key, encodeProcessArtifact(*A));
  insertInMemory(Key, std::move(A));
}

//===----------------------------------------------------------------------===//
// Incremental analysis
//===----------------------------------------------------------------------===//

namespace {

/// Folds a BitSet into a hash as (count, ascending indices) — the
/// canonical form, independent of universe padding.
void hashBitSet(HashBuilder &H, const BitSet &S) {
  H.u64(S.count());
  S.forEach([&H](size_t I) { H.u64(I); });
}

/// One phase of analyzeIncremental — Table 4 or Table 5 — for every
/// process: look its artifact up under Key(P), else Solve(P) and insert
/// it; then install it. Misses solve in parallel (each reads and writes
/// only its own process). Returns how many artifacts were reused; adds the
/// iteration total to \p Iterations.
template <typename KeyFn, typename SolveFn, typename InstallFn>
size_t runPhase(const ProgramCFG &CFG, unsigned Jobs,
                ProcessArtifactTable &Table, const char (&Kind)[5], bool Must,
                KeyFn Key, SolveFn Solve, InstallFn Install,
                size_t &Iterations) {
  size_t NumProcs = CFG.processes().size();
  std::vector<uint64_t> Its(NumProcs, 0);
  std::vector<uint8_t> Reused(NumProcs, 0);
  parallelFor(Jobs, NumProcs, [&](size_t PI) {
    const ProcessCFG &P = CFG.processes()[PI];
    uint64_t K = Key(P);
    auto A = Table.find(Kind, K, Must);
    // A shape mismatch (hash collision, stale blob) re-solves.
    if (A && A->Entry &&
        (A->Entry->numRows() != CFG.flowIndex(P.ProcessId).numLabels() ||
         !A->MustEntry == Must))
      A = nullptr;
    if (A) {
      Reused[PI] = 1;
    } else {
      auto Solved = std::make_shared<RdProcessArtifact>(Solve(P));
      Table.insert(Kind, K, Solved);
      A = std::move(Solved);
    }
    Install(P, *A);
    Its[PI] = A->Iterations;
  });
  for (uint64_t N : Its)
    Iterations += N;
  return std::count(Reused.begin(), Reused.end(), 1);
}

} // namespace

void vif::analyzeIncremental(const ElaboratedProgram &Program,
                             const ProgramCFG &CFG,
                             const ReachingDefsOptions &Opts,
                             ProcessArtifactTable &Table,
                             ActiveSignalsResult &Active,
                             ReachingDefsResult &RD,
                             IncrementalStats *Stats) {
  size_t NumLabels = CFG.numLabels();

  Active = ActiveSignalsResult();
  Active.resize(NumLabels + 1);
  RD = ReachingDefsResult();
  RD.Entry.resize(NumLabels + 1);
  RD.Exit.resize(NumLabels + 1);

  std::vector<uint64_t> Slice = hashProcessSlices(Program, CFG);

  // Phase 1: Table 4 artifacts, keyed by the slice alone (the fixpoint
  // reads nothing outside the process).
  size_t ActReused = runPhase(
      CFG, Opts.Jobs, Table, "actv", /*Must=*/true,
      [&](const ProcessCFG &P) {
        return HashBuilder().str("actv").u64(Slice[P.ProcessId]).value();
      },
      [&](const ProcessCFG &P) {
        return solveGenKill(CFG, P, computeActiveKillGenFor(CFG, P),
                            PairSet(), /*Must=*/true);
      },
      [&](const ProcessCFG &P, const RdProcessArtifact &A) {
        installProcessRows(CFG, P, A, Active.MayEntry, Active.MayExit,
                           &Active.MustEntry, &Active.MustExit);
      },
      Active.Iterations);

  // Phase 2: Table 5 artifacts, keyed by the slice plus everything the
  // wait kill/gen sets read from outside the process: the "others"
  // unions of the wait aggregates and the two options that shape them.
  WaitAggregates Agg = computeWaitAggregates(CFG, Active, Opts);
  size_t RdReused = runPhase(
      CFG, Opts.Jobs, Table, "rdpr", /*Must=*/false,
      [&](const ProcessCFG &P) {
        HashBuilder KH;
        KH.str("rdpr").u64(Slice[P.ProcessId]);
        hashBitSet(KH, Agg.OthersMay[P.ProcessId]);
        hashBitSet(KH, Agg.OthersMust[P.ProcessId]);
        KH.boolean(Opts.UseMustActiveKill).boolean(Opts.HsiehLevitanCrossFlow);
        return KH.value();
      },
      [&](const ProcessCFG &P) {
        return solveGenKill(
            CFG, P, computeReachingDefsKillGenFor(CFG, P, Active, Agg, Opts),
            initialDefs(P), /*Must=*/false);
      },
      [&](const ProcessCFG &P, const RdProcessArtifact &A) {
        installProcessRd(RD, CFG, P, A);
      },
      RD.Iterations);

  if (Stats) {
    size_t NumProcs = CFG.processes().size();
    Stats->ActiveReused += ActReused;
    Stats->ActiveSolved += NumProcs - ActReused;
    Stats->RdReused += RdReused;
    Stats->RdSolved += NumProcs - RdReused;
  }
}
