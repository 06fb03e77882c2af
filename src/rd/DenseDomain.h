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
/// index range, and a kill is a list of such ranges. One solver,
/// solveGenKill, runs both frameworks word-at-a-time: Table 4 (RD∪ϕ and
/// RD∩ϕ, rd/ActiveSignals.h) and Table 5 (RDcf, rd/ReachingDefs.h) differ
/// only in their initial facts and in whether the ⋂˙ must component is
/// carried along.
///
/// Bit rows live only inside the solver, only while needed; what leaves
/// it is what a RowKeep asks for, as CSR PairRows. LazyPairSets is the
/// boundary back to the classic `Result.Entry[L]` PairSet surface (every
/// fact only under the full-row view); forEachPairOf serves Table 7.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_RD_DENSEDOMAIN_H
#define VIF_RD_DENSEDOMAIN_H

#include "rd/PairSet.h"
#include "support/BitSet.h"

#include <algorithm>
#include <array>
#include <memory>
#include <unordered_map>
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

private:
  std::vector<DefPair> Pairs;
};

/// Rows of ascending items in CSR form: row I is Items[Start[I] ..
/// Start[I + 1]). Carries the kept rows of a solve (PairRows) and the
/// Table 7 read sets it is handed (ResourceRows).
template <typename T> struct Rows {
  std::vector<uint32_t> Start{0};
  std::vector<T> Items;
  Rows() = default;
  explicit Rows(size_t NumRows) { Start.reserve(NumRows + 1); }

  size_t numRows() const { return Start.size() - 1; }
  const T *begin(size_t I) const { return Items.data() + Start[I]; }
  const T *end(size_t I) const { return Items.data() + Start[I + 1]; }
  /// Ends the row being appended to Items.
  void closeRow() { Start.push_back(static_cast<uint32_t>(Items.size())); }
};
using PairRows = Rows<DefPair>;
using ResourceRows = Rows<Resource>;

/// A label-indexed table of PairSets over kept CSR rows: each slot names a
/// row of one installed PairRows (a process's part, shared with the
/// artifact it came from), and `Table[L]` materializes a sorted-vector
/// PairSet on first access. Slots no solve kept read as ∅. operator[]
/// mutates a materialization cache, so a table must not be read from
/// multiple threads concurrently; forEachPairOf / forEachPair never touch
/// it. Installs are sequential (rd/Incremental.cpp installs after the
/// parallel solves join).
class LazyPairSets {
public:
  void resize(size_t N) {
    Part.assign(N, 0);
    Row.assign(N, 0);
    Parts.clear();
    Cache.clear();
  }

  /// Slot Labels[I] reads row I of \p R, for every I.
  void setRows(const std::vector<LabelId> &Labels,
               std::shared_ptr<const PairRows> R) {
    Parts.push_back(std::move(R));
    for (uint32_t I = 0; I < Labels.size(); ++I) {
      Part[Labels[I]] = static_cast<uint32_t>(Parts.size());
      Row[Labels[I]] = I;
      Cache.erase(Labels[I]);
    }
  }

  const PairSet &operator[](size_t L) const {
    assert(L < Part.size() && "label out of range");
    auto It = Cache.find(L);
    if (It != Cache.end())
      return It->second;
    PairSet S;
    forEachPair(L, [&S](DefPair P) { S.append(P); });
    return Cache.emplace(L, std::move(S)).first->second;
  }

  /// Dense-path query: calls \p F(DefLabel) for every (N, DefLabel) in
  /// slot \p L, ascending, without materializing the PairSet.
  template <typename Fn>
  void forEachPairOf(size_t L, Resource N, Fn F) const {
    auto [First, Last] = span(L);
    First = std::lower_bound(First, Last, DefPair{N, InitialLabel});
    for (; First != Last && First->N == N; ++First)
      F(First->L);
  }

  /// Calls \p F(DefPair) for every pair in slot \p L, ascending, without
  /// materializing the PairSet — so, unlike operator[], safe to call from
  /// several threads at once.
  template <typename Fn> void forEachPair(size_t L, Fn F) const {
    auto [First, Last] = span(L);
    for (; First != Last; ++First)
      F(*First);
  }

  /// Heap footprint in bytes: slot vectors, materialized sets, and each
  /// part counted once across all tables that share it — callers pass one
  /// \p Seen set spanning every table of a result struct.
  size_t memoryBytes(std::unordered_set<const void *> &Seen) const {
    size_t Bytes = (Part.capacity() + Row.capacity()) * sizeof(uint32_t) +
                   Parts.capacity() * sizeof(Parts[0]);
    for (const auto &P : Parts)
      if (Seen.insert(P.get()).second)
        Bytes += sizeof(PairRows) + P->Start.capacity() * sizeof(uint32_t) +
                 P->Items.capacity() * sizeof(DefPair);
    for (const auto &[L, S] : Cache)
      Bytes += sizeof(L) + sizeof(S) + 2 * sizeof(void *) + S.memoryBytes();
    return Bytes;
  }

private:
  /// Slot \p L's kept row (empty when no solve kept it).
  std::pair<const DefPair *, const DefPair *> span(size_t L) const {
    assert(L < Part.size() && "label out of range");
    if (!Part[L])
      return {nullptr, nullptr};
    const PairRows &R = *Parts[Part[L] - 1];
    return {R.begin(Row[L]), R.end(Row[L])};
  }

  std::vector<uint32_t> Part, Row; ///< per slot: part + 1 (0: none), row
  std::vector<std::shared_ptr<const PairRows>> Parts;
  mutable std::unordered_map<size_t, PairSet> Cache;
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

/// Which facts one solve keeps, per local label of the process. The
/// default keeps every row whole: the full-row view, which only the tests
/// and the compatibility surfaces (analyzeActiveSignals, solveProcessRd,
/// analyzeIncremental without read sets) ask for. When no row is kept
/// whole, the domain tracks only the resources the kept rows name: kill
/// and gen separate per resource, so no kept fact changes. Production
/// keeps (rd/Incremental.cpp):
///  * Table 4: the may and must entry rows of wait labels, whole — all that
///    computeWaitAggregates, the Table 5 wait kill/gen, RD†ϕ and `--alfp`
///    read;
///  * Table 5: RD†, each entry row restricted to the label's R0 reads in
///    RMlo, over a domain pruned to the resources read in the process; a
///    non-looped process also keeps its final exits (atProcessEnd) and so
///    its whole domain, which is FV ∪ FS anyway.
struct RowKeep {
  bool Full = true; ///< the full-row view; the fields below are unused
  std::vector<uint8_t> Whole; ///< per label: bit 0 entry, bit 1 exit whole
  ResourceRows Reads; ///< per label: what a non-whole entry row keeps

  bool keepsExits() const {
    return Full || std::any_of(Whole.begin(), Whole.end(),
                               [](uint8_t W) { return W & 2; });
  }
};

/// One process's solution of Table 4 or 5 as far as a RowKeep asked — the
/// unit rd/Incremental.h caches and persists. Each table has one CSR row
/// per local label (FlowIndex order), empty where the keep-set skips it.
struct RdProcessArtifact {
  enum Table { Entry, Exit, MustEntry, MustExit }; ///< codec order
  std::array<std::shared_ptr<const PairRows>, 4> Tables;
  uint64_t Iterations = 0;

  /// Whether table \p T is present, given whether exits and must rows are
  /// kept: Entry always, Exit with exits, the must twins for Table 4.
  static bool present(int T, bool Exits, bool Must) {
    return (T % 2 == 0 || Exits) && (T < 2 || Must);
  }
};

/// The one per-process gen/kill bit-vector solver: the least fixpoint of
///
///   entry(l) = (l = init ? Initial : ∅) ∪ ⋃ {exit(l') | (l', l) ∈ flow}
///   exit(l)  = (entry(l) \ kill(l)) ∪ gen(l)
///
/// over the domain Initial ∪ ⋃ gen(l) (pruned per RowKeep). kill(l)
/// is \p KG's killed resources at l, each cleared as its whole domain
/// range a word at a time. With \p Must it also solves the ⋂˙ component
/// (∅ at init and over an empty predecessor family), Table 4's RD∩ϕ.
///
/// Schedule: round-robin in reverse postorder from ⊥ = ∅. An edge is
/// forward when its target comes later in the order, retreating
/// otherwise. A round computes every label once, reading forward
/// predecessors' exits of this round and retreating ones' of the last;
/// it stops after the first round in which no retreating-edge source's
/// exit changed, whose rows are then the fixpoint. Only those sources'
/// exits persist across rounds; every other exit lives in a recycled pool
/// row from its label until its last forward successor has read it. So
/// at most (retreating sources + the widest RPO cut of forward edges + 2)
/// rows of the domain's width are live, never labels × domain, and each
/// round emits only the facts \p Keep asks for. Iterations counts
/// labels × rounds (0 for an empty domain).
RdProcessArtifact solveGenKill(const ProgramCFG &CFG, const ProcessCFG &P,
                               const ProcessKillGen &KG,
                               const PairSet &Initial, bool Must,
                               const RowKeep &Keep = {});

/// Installs \p A's rows into the label slots of \p P (shared, not copied):
/// the may rows into \p Entry / \p Exit and, when \p A carries them, the
/// must rows into \p MustEntry / \p MustExit.
void installProcessRows(const ProcessCFG &P, const RdProcessArtifact &A,
                        LazyPairSets &Entry, LazyPairSets &Exit,
                        LazyPairSets *MustEntry = nullptr,
                        LazyPairSets *MustExit = nullptr);

} // namespace vif

#endif // VIF_RD_DENSEDOMAIN_H
