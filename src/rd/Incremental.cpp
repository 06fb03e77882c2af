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

/// Shared header of both artifact payloads; returns false if the sizes
/// are inconsistent with the remaining bytes (so corrupt headers are
/// rejected before any allocation is sized from them). \p NumMatrices is
/// the matrix count that must follow the domain.
bool decodeHeader(ByteReader &R, uint64_t &Iterations, uint32_t &NL,
                  uint32_t &K, std::shared_ptr<const DefPairDomain> &DomOut,
                  size_t NumMatrices) {
  Iterations = R.u64();
  NL = R.u32();
  K = R.u32();
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
  if (K) {
    uint64_t RowBytes = uint64_t((K + 63) / 64) * 8;
    if (uint64_t(NL) > R.remaining() / RowBytes / NumMatrices)
      return false;
  }
  DomOut = std::move(Dom);
  return true;
}

} // namespace

std::string vif::encodeActiveArtifact(const ActiveProcessArtifact &A) {
  ByteWriter W;
  W.u64(A.Iterations);
  size_t K = A.Dom ? A.Dom->size() : 0;
  size_t NL = A.MayEntry ? A.MayEntry->numRows() : 0;
  W.u32(static_cast<uint32_t>(NL));
  W.u32(static_cast<uint32_t>(K));
  for (size_t I = 0; I < K; ++I) {
    DefPair P = A.Dom->pair(I);
    W.u32(P.N.raw());
    W.u32(P.L);
  }
  if (K) {
    size_t WW = (K + 63) / 64;
    encodeMatrix(W, *A.MayEntry, NL, WW);
    encodeMatrix(W, *A.MayExit, NL, WW);
    encodeMatrix(W, *A.MustEntry, NL, WW);
    encodeMatrix(W, *A.MustExit, NL, WW);
  }
  return W.take();
}

bool vif::decodeActiveArtifact(std::string_view Blob,
                               ActiveProcessArtifact &A) {
  ByteReader R(Blob);
  ActiveProcessArtifact Out;
  uint32_t NL = 0, K = 0;
  if (!decodeHeader(R, Out.Iterations, NL, K, Out.Dom, 4))
    return false;
  if (K) {
    Out.MayEntry = decodeMatrix(R, NL, K);
    Out.MayExit = decodeMatrix(R, NL, K);
    Out.MustEntry = decodeMatrix(R, NL, K);
    Out.MustExit = decodeMatrix(R, NL, K);
  }
  if (!R.ok() || !R.atEnd())
    return false;
  A = std::move(Out);
  return true;
}

std::string vif::encodeRdArtifact(const RdProcessArtifact &A) {
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
    encodeMatrix(W, *A.Entry, NL, WW);
    encodeMatrix(W, *A.Exit, NL, WW);
  }
  return W.take();
}

bool vif::decodeRdArtifact(std::string_view Blob, RdProcessArtifact &A) {
  ByteReader R(Blob);
  RdProcessArtifact Out;
  uint32_t NL = 0, K = 0;
  if (!decodeHeader(R, Out.Iterations, NL, K, Out.Dom, 2))
    return false;
  if (K) {
    Out.Entry = decodeMatrix(R, NL, K);
    Out.Exit = decodeMatrix(R, NL, K);
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

size_t ProcessArtifactTable::size() const {
  std::lock_guard<std::mutex> G(M);
  return Map.size();
}

std::shared_ptr<const void> ProcessArtifactTable::find(uint64_t Key) {
  std::lock_guard<std::mutex> G(M);
  auto It = Map.find(Key);
  if (It == Map.end())
    return nullptr;
  Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  return It->second.Value;
}

void ProcessArtifactTable::insert(uint64_t Key,
                                  std::shared_ptr<const void> V) {
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

std::shared_ptr<const ActiveProcessArtifact>
ProcessArtifactTable::findActive(uint64_t Key) {
  if (auto V = find(Key)) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    return std::static_pointer_cast<const ActiveProcessArtifact>(V);
  }
  if (Backing) {
    std::string Blob;
    if (Backing->load("actv", Key, Blob)) {
      auto A = std::make_shared<ActiveProcessArtifact>();
      if (decodeActiveArtifact(Blob, *A)) {
        insert(Key, A);
        Hits.fetch_add(1, std::memory_order_relaxed);
        return A;
      }
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void ProcessArtifactTable::insertActive(
    uint64_t Key, std::shared_ptr<const ActiveProcessArtifact> A) {
  if (Backing)
    Backing->store("actv", Key, encodeActiveArtifact(*A));
  insert(Key, std::move(A));
}

std::shared_ptr<const RdProcessArtifact>
ProcessArtifactTable::findRd(uint64_t Key) {
  if (auto V = find(Key)) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    return std::static_pointer_cast<const RdProcessArtifact>(V);
  }
  if (Backing) {
    std::string Blob;
    if (Backing->load("rdpr", Key, Blob)) {
      auto A = std::make_shared<RdProcessArtifact>();
      if (decodeRdArtifact(Blob, *A)) {
        insert(Key, A);
        Hits.fetch_add(1, std::memory_order_relaxed);
        return A;
      }
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void ProcessArtifactTable::insertRd(uint64_t Key,
                                    std::shared_ptr<const RdProcessArtifact> A) {
  if (Backing)
    Backing->store("rdpr", Key, encodeRdArtifact(*A));
  insert(Key, std::move(A));
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

} // namespace

bool vif::analyzeIncremental(const ElaboratedProgram &Program,
                             const ProgramCFG &CFG,
                             const ReachingDefsOptions &Opts,
                             ProcessArtifactTable &Table,
                             ActiveSignalsResult &Active,
                             ReachingDefsResult &RD,
                             IncrementalStats *Stats) {
  // The reference solvers and the explicit tuple enumeration are
  // validation modes; they bypass artifact reuse entirely.
  if (Opts.ReferenceSolver || Opts.EnumerateCrossFlowTuples)
    return false;

  size_t NumLabels = CFG.numLabels();
  size_t NumProcs = CFG.processes().size();

  Active = ActiveSignalsResult();
  Active.MayEntry.resize(NumLabels + 1);
  Active.MayExit.resize(NumLabels + 1);
  Active.MustEntry.resize(NumLabels + 1);
  Active.MustExit.resize(NumLabels + 1);
  RD = ReachingDefsResult();
  RD.Entry.resize(NumLabels + 1);
  RD.Exit.resize(NumLabels + 1);

  std::vector<uint64_t> Slice = hashProcessSlices(Program, CFG);

  // Phase 1: Table 4 artifacts, keyed by the slice alone (the fixpoint
  // reads nothing outside the process). Kill/gen vectors span all labels
  // but only dirty processes' slots are filled — disjoint writes, so the
  // misses solve in parallel. The vectors are freed before Table 5.
  ActiveKillGen AKG;
  AKG.Kill.resize(NumLabels + 1);
  AKG.Gen.resize(NumLabels + 1);
  std::vector<std::shared_ptr<const ActiveProcessArtifact>> Act(NumProcs);
  std::vector<uint8_t> ActReused(NumProcs, 0);
  parallelFor(Opts.Jobs, NumProcs, [&](size_t PI) {
    const ProcessCFG &P = CFG.processes()[PI];
    unsigned Pid = P.ProcessId;
    const FlowIndex &FI = CFG.flowIndex(Pid);
    uint64_t Key = HashBuilder().str("actv").u64(Slice[Pid]).value();
    auto A = Table.findActive(Key);
    if (A && A->MayEntry && A->MayEntry->numRows() != FI.numLabels())
      A = nullptr; // shape mismatch (hash collision / stale blob): re-solve
    if (A) {
      ActReused[Pid] = 1;
    } else {
      computeActiveKillGenFor(CFG, P, AKG);
      auto Solved = std::make_shared<ActiveProcessArtifact>(
          solveProcessActive(CFG, P, AKG));
      Table.insertActive(Key, Solved);
      A = std::move(Solved);
    }
    installProcessActive(Active, CFG, P, *A);
    Act[Pid] = std::move(A);
  });
  for (size_t I = 0; I < NumProcs; ++I)
    Active.Iterations += Act[I]->Iterations;
  AKG = ActiveKillGen();

  // Phase 2: Table 5 artifacts, keyed by the slice plus everything the
  // wait kill/gen sets read from outside the process: the "others"
  // unions of the wait aggregates and the two options that shape them.
  WaitAggregates Agg = computeWaitAggregates(CFG, Active, Opts);
  ReachingDefsKillGen KG;
  KG.Kill.resize(NumLabels + 1);
  KG.Gen.resize(NumLabels + 1);
  std::vector<std::shared_ptr<const RdProcessArtifact>> Rd(NumProcs);
  std::vector<uint8_t> RdReused(NumProcs, 0);
  parallelFor(Opts.Jobs, NumProcs, [&](size_t PI) {
    const ProcessCFG &P = CFG.processes()[PI];
    unsigned Pid = P.ProcessId;
    const FlowIndex &FI = CFG.flowIndex(Pid);
    HashBuilder KH;
    KH.str("rdpr").u64(Slice[Pid]);
    hashBitSet(KH, Agg.OthersMay[Pid]);
    hashBitSet(KH, Agg.OthersMust[Pid]);
    KH.boolean(Opts.UseMustActiveKill).boolean(Opts.HsiehLevitanCrossFlow);
    uint64_t Key = KH.value();
    auto A = Table.findRd(Key);
    if (A && A->Entry && A->Entry->numRows() != FI.numLabels())
      A = nullptr; // shape mismatch (hash collision / stale blob): re-solve
    if (A) {
      RdReused[Pid] = 1;
    } else {
      computeReachingDefsKillGenFor(CFG, P, Active, Agg, Opts, KG);
      auto Solved = std::make_shared<RdProcessArtifact>(
          solveProcessRd(CFG, P, KG.Kill, KG.Gen));
      // Only this fixpoint reads P's slots: release them at once, so a
      // cold run never holds every process's kill/gen together.
      for (LabelId L : P.Labels) {
        KG.Kill[L] = PairSet();
        KG.Gen[L] = PairSet();
      }
      Table.insertRd(Key, Solved);
      A = std::move(Solved);
    }
    installProcessRd(RD, CFG, P, *A);
    Rd[Pid] = std::move(A);
  });
  for (size_t I = 0; I < NumProcs; ++I)
    RD.Iterations += Rd[I]->Iterations;

  if (Stats) {
    for (size_t I = 0; I < NumProcs; ++I) {
      Stats->ActiveReused += ActReused[I];
      Stats->ActiveSolved += !ActReused[I];
      Stats->RdReused += RdReused[I];
      Stats->RdSolved += !RdReused[I];
    }
  }
  return true;
}
