//===- rd/DenseDomain.h - Dense (Resource, Label) domains -------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bit-vector side of the rd analyses (paper Section 7: "the analysis
/// basically is a combination of three bit-vector frameworks").
///
/// A DefPairDomain densely numbers the (Resource, Label) pairs that can
/// actually occur in one process's fixpoint — the pairs generated by some
/// label plus the initial (n, ?) definitions. The numbering follows
/// DefPair order, so all definitions of one resource form one contiguous
/// index range. Entry/Exit sets then live as rows of a few
/// support/BitSet.h BitMatrix buffers over that numbering (one allocation
/// per table, not per label), a kill is a list of such ranges, and one
/// solver, solveGenKill, runs both frameworks word-at-a-time: Table 4
/// (RD∪ϕ and RD∩ϕ, rd/ActiveSignals.h) and Table 5 (RDcf,
/// rd/ReachingDefs.h) differ only in their initial facts and in whether
/// the ⋂˙ must component is carried along.
///
/// LazyPairSets is the boundary back to the classic representation: result
/// structs keep their `Result.Entry[L]` PairSet surface, but each set is
/// only materialized from its BitSet the first time somebody reads it.
/// Consumers that stay dense (the Table 7 specialization in
/// ifa/InformationFlow.cpp uses forEachPairOf) never pay for
/// materialization at all.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_RD_DENSEDOMAIN_H
#define VIF_RD_DENSEDOMAIN_H

#include "rd/PairSet.h"
#include "support/BitSet.h"

#include <memory>
#include <unordered_set>

namespace vif {

/// A sorted, deduplicated universe of DefPairs with dense indices. The
/// numbering follows DefPair order, so materialized PairSets come out in
/// exactly the order the sorted-vector representation maintains.
class DefPairDomain {
public:
  void add(DefPair P) { Pairs.push_back(P); }
  void addAll(const PairSet &S) {
    for (const DefPair &P : S)
      Pairs.push_back(P);
  }

  /// Sorts + dedups; must be called once after the last add and before any
  /// query.
  void finalize() {
    std::sort(Pairs.begin(), Pairs.end());
    Pairs.erase(std::unique(Pairs.begin(), Pairs.end()), Pairs.end());
  }

  size_t size() const { return Pairs.size(); }

  DefPair pair(size_t I) const {
    assert(I < Pairs.size() && "domain index out of range");
    return Pairs[I];
  }

  /// Index of \p P, or npos when the pair is outside the domain.
  static constexpr size_t npos = ~size_t(0);
  /// Heap footprint in bytes (cache byte-budget accounting).
  size_t memoryBytes() const { return Pairs.capacity() * sizeof(DefPair); }

  size_t indexOf(DefPair P) const {
    auto It = std::lower_bound(Pairs.begin(), Pairs.end(), P);
    if (It == Pairs.end() || !(*It == P))
      return npos;
    return static_cast<size_t>(It - Pairs.begin());
  }

  /// The contiguous index range [First, Last) of pairs whose resource is
  /// \p N (possibly empty).
  std::pair<size_t, size_t> rangeOf(Resource N) const {
    auto Lo = std::lower_bound(Pairs.begin(), Pairs.end(),
                               DefPair{N, InitialLabel});
    auto Hi = std::upper_bound(
        Lo, Pairs.end(), N,
        [](Resource R, const DefPair &P) { return R < P.N; });
    return {static_cast<size_t>(Lo - Pairs.begin()),
            static_cast<size_t>(Hi - Pairs.begin())};
  }

  /// Materializes the sorted-vector PairSet of a word span over this
  /// domain ((size() + 63) / 64 payload words; trailing row padding, if
  /// any, is never read).
  PairSet materialize(const uint64_t *Row) const {
    PairSet S;
    BitMatrix::forEachBit(Row, (Pairs.size() + 63) / 64,
                          [&](size_t I) { S.append(Pairs[I]); });
    return S;
  }

private:
  std::vector<DefPair> Pairs;
};

/// A label-indexed table of PairSets whose entries are stored densely —
/// a row of a shared BitMatrix over a shared DefPairDomain — and
/// materialized to sorted-vector PairSets on first access. The solvers
/// park their result matrices behind shared_ptrs and every label slot
/// references its row, so a whole process's results cost two allocations,
/// not one per label. `Table[L]` keeps working for every existing
/// consumer; materialization mutates a per-slot cache, so a table must not
/// be read from multiple threads concurrently (per-design results never
/// are — driver::Batch hands each design to exactly one worker, and the
/// parallel per-process solvers only *write* disjoint slots).
class LazyPairSets {
public:
  void resize(size_t N) { Slots.assign(N, {}); }
  size_t size() const { return Slots.size(); }

  /// Slot \p L becomes row \p Row of \p Mat, interpreted over \p Dom.
  void setDense(size_t L, std::shared_ptr<const DefPairDomain> Dom,
                std::shared_ptr<const BitMatrix> Mat, uint32_t Row) {
    Slot &S = Slots[L];
    S.Dom = std::move(Dom);
    S.Mat = std::move(Mat);
    S.Row = Row;
    S.Cached.reset();
  }

  void setEager(size_t L, PairSet S) {
    Slots[L].Dom = nullptr;
    Slots[L].Mat = nullptr;
    Slots[L].Cached = std::make_unique<PairSet>(std::move(S));
  }

  const PairSet &operator[](size_t L) const {
    assert(L < Slots.size() && "label out of range");
    const Slot &S = Slots[L];
    if (!S.Cached)
      S.Cached = std::make_unique<PairSet>(
          S.Dom ? S.Dom->materialize(S.Mat->row(S.Row)) : PairSet());
    return *S.Cached;
  }

  /// Dense-path query: calls \p F(DefLabel) for every (N, DefLabel) in
  /// slot \p L, ascending, without materializing the PairSet.
  template <typename Fn>
  void forEachPairOf(size_t L, Resource N, Fn F) const {
    assert(L < Slots.size() && "label out of range");
    const Slot &S = Slots[L];
    if (S.Dom) {
      const uint64_t *Row = S.Mat->row(S.Row);
      auto [First, Last] = S.Dom->rangeOf(N);
      for (size_t I = First; I < Last; ++I)
        if ((Row[I >> 6] >> (I & 63)) & 1)
          F(S.Dom->pair(I).L);
      return;
    }
    if (!S.Cached)
      return; // default slot: empty set
    auto [It, End] = S.Cached->equalRange(N);
    for (; It != End; ++It)
      F(It->L);
  }

  /// Calls \p F(DefPair) for every pair in slot \p L, ascending, without
  /// materializing the PairSet — so, unlike operator[], safe to call from
  /// several threads at once.
  template <typename Fn> void forEachPair(size_t L, Fn F) const {
    assert(L < Slots.size() && "label out of range");
    const Slot &S = Slots[L];
    if (S.Dom) {
      BitMatrix::forEachBit(S.Mat->row(S.Row), (S.Dom->size() + 63) / 64,
                            [&](size_t I) { F(S.Dom->pair(I)); });
      return;
    }
    if (S.Cached)
      for (const DefPair &P : *S.Cached)
        F(P);
  }

  /// Heap footprint in bytes: slot vector, materialized caches, and each
  /// shared domain/matrix counted once across all tables that share it —
  /// callers pass one \p Seen set spanning every table of a result
  /// struct (cache byte-budget accounting).
  size_t memoryBytes(std::unordered_set<const void *> &Seen) const {
    size_t Bytes = Slots.capacity() * sizeof(Slot);
    for (const Slot &S : Slots) {
      if (S.Cached)
        Bytes += sizeof(PairSet) + S.Cached->memoryBytes();
      if (S.Dom && Seen.insert(S.Dom.get()).second)
        Bytes += sizeof(DefPairDomain) + S.Dom->memoryBytes();
      if (S.Mat && Seen.insert(S.Mat.get()).second)
        Bytes += sizeof(BitMatrix) + S.Mat->memoryBytes();
    }
    return Bytes;
  }

private:
  struct Slot {
    std::shared_ptr<const DefPairDomain> Dom; ///< null → eager or empty
    std::shared_ptr<const BitMatrix> Mat;     ///< shared result matrix
    uint32_t Row = 0;                         ///< this label's row in Mat
    /// Materialized view (or the eager value); built on demand.
    mutable std::unique_ptr<PairSet> Cached;

    Slot() = default;
    Slot(Slot &&) = default;
    Slot &operator=(Slot &&) = default;
    Slot(const Slot &O)
        : Dom(O.Dom), Mat(O.Mat), Row(O.Row),
          Cached(O.Cached ? std::make_unique<PairSet>(*O.Cached) : nullptr) {}
    Slot &operator=(const Slot &O) {
      Dom = O.Dom;
      Mat = O.Mat;
      Row = O.Row;
      Cached = O.Cached ? std::make_unique<PairSet>(*O.Cached) : nullptr;
      return *this;
    }
  };

  std::vector<Slot> Slots;
};

/// The kill/gen of Table 4 or Table 5 for one process, in factored form:
/// rows indexed by the process's local labels (FlowIndex order). Kill[I]
/// lists *killed resources*, ascending: n ∈ Kill[I] means every
/// definition of n dies at label I. Gen[I] holds the pairs label I
/// generates. solveGenKill turns each killed resource into its contiguous
/// DefPairDomain range, so the production path never builds a kill pair.
struct ProcessKillGen {
  std::vector<std::vector<Resource>> Kill;
  std::vector<PairSet> Gen;

  explicit ProcessKillGen(size_t NumLabels = 0)
      : Kill(NumLabels), Gen(NumLabels) {}
};

/// The kill/gen sets of Table 4 or Table 5 as explicit pairs, vectors
/// indexed by global label: an oracle-only view of the factored form
/// (expandKillGen), read by the ALFP encoding, the reference solvers and
/// the enumerated cf oracle.
struct ReachingDefsKillGen {
  std::vector<PairSet> Kill;
  std::vector<PairSet> Gen;
};

/// Expands \p F, the factored kill/gen of process \p P, into \p P's
/// global label slots of \p KG: each killed resource n stands for every
/// pair of n in \p Sites, and the gens are copied as they are. \p KG's
/// vectors must already span all labels.
void expandKillGen(const ProgramCFG &CFG, const ProcessCFG &P,
                   const ProcessKillGen &F, const DefPairDomain &Sites,
                   ReachingDefsKillGen &KG);

/// One process's dense solution of Table 4 or Table 5 — the unit the
/// incremental layer (rd/Incremental.h) caches and recomposes
/// whole-program results from. Rows are indexed by the process's FlowIndex
/// local label order. Entry/Exit are the may rows (RD∪ϕ resp. RDcf);
/// MustEntry/MustExit (RD∩ϕ) are present for Table 4 only. Every matrix is
/// null when the domain is empty (every set stays ∅).
struct RdProcessArtifact {
  std::shared_ptr<const DefPairDomain> Dom;
  std::shared_ptr<const BitMatrix> Entry, Exit, MustEntry, MustExit;
  uint64_t Iterations = 0;
};

/// The one per-process gen/kill bit-vector solver: chaotic iteration from
/// ⊥ = ∅ to the least fixpoint of
///
///   entry(l) = (l = init ? Initial : ∅) ∪ ⋃ {exit(l') | (l', l) ∈ flow}
///   exit(l)  = (entry(l) \ kill(l)) ∪ gen(l)
///
/// over the domain Initial ∪ ⋃ gen(l), worklist seeded in reverse
/// postorder. kill(l) is \p KG's killed resources at l, each cleared as
/// its whole domain range a word at a time. The ⋃ join is push-style:
/// when exit(l) grows it is ORed into the entry row of each successor,
/// which is sound because may rows only grow from ⊥, so processing a
/// label reads its entry row as it stands. With \p Must it also solves
/// the ⋂˙ component (∅ at init and over an empty predecessor family),
/// Table 4's RD∩ϕ, pulled from the predecessors' must exits; without it
/// the loop does no must work at all.
RdProcessArtifact solveGenKill(const ProgramCFG &CFG, const ProcessCFG &P,
                               const ProcessKillGen &KG,
                               const PairSet &Initial, bool Must);

/// Installs \p A's rows into the label slots of \p P (the shared matrices
/// are referenced, not copied): the may rows into \p Entry / \p Exit and,
/// when \p A carries them, the must rows into \p MustEntry / \p MustExit.
void installProcessRows(const ProgramCFG &CFG, const ProcessCFG &P,
                        const RdProcessArtifact &A, LazyPairSets &Entry,
                        LazyPairSets &Exit, LazyPairSets *MustEntry = nullptr,
                        LazyPairSets *MustExit = nullptr);

} // namespace vif

#endif // VIF_RD_DENSEDOMAIN_H
