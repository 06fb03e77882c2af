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
#include <iterator>
#include <memory>
#include <unordered_set>

namespace vif {

/// A sorted, deduplicated universe of DefPairs with dense indices. The
/// numbering follows DefPair order, so materialized PairSets come out in
/// exactly the order the sorted-vector representation maintains. Besides
/// the pairs it keeps their distinct resources, ascending, and where each
/// one's run of pairs starts: rangeOf and indexOf look a resource up
/// there, never in the pairs themselves.
///
/// Two builds give the same domain. The solver's, build(), is a stable
/// counting sort of pairs that arrive in label order into buckets named
/// by the process's resources. The oracle views add pairs in any order
/// and finalize() sorts them.
class DefPairDomain {
public:
  void add(DefPair P) { Pairs.push_back(P); }
  void addAll(const PairSet &S) {
    for (const DefPair &P : S)
      Pairs.push_back(P);
  }

  /// Sorts + dedups what was added; must be called once after the last
  /// add and before any query.
  void finalize();

  /// The counting-sort build. \p ForEach(F) calls F(DefPair) on every
  /// candidate pair, labels non-decreasing (initial (n, ?) pairs first,
  /// then the gens in label order); it runs two or three times. \p R
  /// lists the resources that name the buckets, ascending and distinct (a
  /// process's FV ∪ FS); a pair of another resource adds a bucket for it.
  /// A stable scatter then leaves each bucket in DefPair order; a bucket
  /// that is not (pairs out of label order) is sorted, and repeated pairs
  /// are dropped. With \p Tracked, only pairs of the resources it names
  /// (in any order, repeats allowed) enter the domain.
  template <typename Fn>
  void build(std::vector<Resource> R, Fn ForEach,
             const std::vector<Resource> *Tracked = nullptr);

  size_t size() const { return Pairs.size(); }

  DefPair pair(size_t I) const {
    assert(I < Pairs.size() && "domain index out of range");
    return Pairs[I];
  }

  /// Index of \p P, or npos when the pair is outside the domain.
  static constexpr size_t npos = ~size_t(0);

  size_t indexOf(DefPair P) const {
    auto [First, Last] = rangeOf(P.N);
    auto It = std::lower_bound(Pairs.begin() + First, Pairs.begin() + Last,
                               P);
    if (It == Pairs.begin() + Last || !(*It == P))
      return npos;
    return static_cast<size_t>(It - Pairs.begin());
  }

  /// The contiguous index range [First, Last) of pairs whose resource is
  /// \p N; empty, at the place \p N's pairs would take, when there are
  /// none.
  std::pair<size_t, size_t> rangeOf(Resource N) const {
    size_t B = static_cast<size_t>(
        std::lower_bound(Res.begin(), Res.end(), N) - Res.begin());
    if (B == Res.size() || Res[B] != N)
      return {Start[B], Start[B]};
    return {Start[B], Start[B + 1]};
  }

private:
  /// The bucket of \p N in Res, or npos.
  size_t bucketOf(Resource N) const {
    auto It = std::lower_bound(Res.begin(), Res.end(), N);
    return It == Res.end() || *It != N ? npos
                                       : static_cast<size_t>(It - Res.begin());
  }
  /// Sorts each bucket that is out of order and drops repeated pairs,
  /// moving the bucket starts to match.
  void compact();

  std::vector<DefPair> Pairs;
  std::vector<Resource> Res;         ///< bucket resources, ascending
  std::vector<uint32_t> Start{0};    ///< bucket B is Pairs[Start[B] ..
                                     ///< Start[B + 1])
};

template <typename Fn>
void DefPairDomain::build(std::vector<Resource> R, Fn ForEach,
                          const std::vector<Resource> *Tracked) {
  Res = std::move(R);
  std::vector<uint32_t> BucketOf;
  std::vector<Resource> Extra;
  ForEach([&](const DefPair &D) {
    size_t B = bucketOf(D.N);
    if (B == npos)
      Extra.push_back(D.N);
    BucketOf.push_back(static_cast<uint32_t>(B));
  });
  if (!Extra.empty()) {
    std::sort(Extra.begin(), Extra.end());
    Extra.erase(std::unique(Extra.begin(), Extra.end()), Extra.end());
    std::vector<Resource> Merged;
    Merged.reserve(Res.size() + Extra.size());
    std::merge(Res.begin(), Res.end(), Extra.begin(), Extra.end(),
               std::back_inserter(Merged));
    Res.swap(Merged);
    BucketOf.clear();
    ForEach([&](const DefPair &D) {
      BucketOf.push_back(static_cast<uint32_t>(bucketOf(D.N)));
    });
  }
  std::vector<uint8_t> Kept;
  if (Tracked) {
    Kept.assign(Res.size(), 0);
    for (Resource N : *Tracked)
      if (size_t B = bucketOf(N); B != npos)
        Kept[B] = 1;
  }
  auto kept = [&](uint32_t B) { return !Tracked || Kept[B]; };
  Start.assign(Res.size() + 1, 0);
  for (uint32_t B : BucketOf)
    Start[B + 1] += kept(B);
  for (size_t B = 0; B < Res.size(); ++B)
    Start[B + 1] += Start[B];
  Pairs.resize(Start.back());
  // The stable scatter: each bucket's next free slot.
  std::vector<uint32_t> Cursor(Start.begin(), Start.end() - 1);
  size_t J = 0;
  ForEach([&](const DefPair &D) {
    uint32_t B = BucketOf[J++];
    if (kept(B))
      Pairs[Cursor[B]++] = D;
  });
  compact();
}

/// Rows of ascending items in CSR form: row I is Items[Start[I] ..
/// Start[I + 1]). Carries a process's kill/gen (ProcessKillGen), the kept
/// rows of a solve (PairRows), the Table 7 read sets it is handed
/// (ResourceRows) and Table 7's RD† and RD†ϕ (one row per label).
template <typename T> struct Rows {
  std::vector<uint32_t> Start{0};
  std::vector<T> Items;
  Rows() = default;
  explicit Rows(size_t NumRows) { Start.reserve(NumRows + 1); }

  /// One row, iterable.
  struct Row {
    const T *First, *Last;
    const T *begin() const { return First; }
    const T *end() const { return Last; }
    size_t size() const { return static_cast<size_t>(Last - First); }
    bool empty() const { return First == Last; }
  };

  size_t numRows() const { return Start.size() - 1; }
  const T *begin(size_t I) const { return Items.data() + Start[I]; }
  const T *end(size_t I) const { return Items.data() + Start[I + 1]; }
  Row operator[](size_t I) const {
    assert(I < numRows() && "row out of range");
    return {begin(I), end(I)};
  }
  /// Ends the row being appended to Items.
  void closeRow() { Start.push_back(static_cast<uint32_t>(Items.size())); }

  /// Heap footprint in bytes.
  size_t memoryBytes() const {
    return Start.capacity() * sizeof(uint32_t) + Items.capacity() * sizeof(T);
  }
};
using PairRows = Rows<DefPair>;
using ResourceRows = Rows<Resource>;

/// A label-indexed table of PairSets over kept CSR rows: each installed
/// run of slots reads the rows of one PairRows (a process's part, shared
/// with the artifact it came from), and `Table[L]` builds a sorted-vector
/// PairSet from slot L's row. The table holds one (First, Count, Part)
/// run per install, never a word per slot; slots no run covers read as ∅.
/// Reads never mutate, so any number of threads may read a table at
/// once. Installs are sequential (rd/Incremental.cpp installs after the
/// parallel solves join).
class LazyPairSets {
public:
  void resize(size_t N) {
    Slots = N;
    Runs.clear();
  }

  /// Slot First + I reads row I of \p R, for every I < \p Count. A run
  /// installed at the same First replaces the earlier one; runs must not
  /// overlap otherwise. A run of no slots (a process without labels) is
  /// not kept.
  void setRows(LabelId First, uint32_t Count,
               std::shared_ptr<const PairRows> R) {
    assert(First + Count <= Slots && "run past the table's slots");
    if (Count == 0)
      return;
    auto It = std::lower_bound(
        Runs.begin(), Runs.end(), First,
        [](const Run &X, LabelId L) { return X.First < L; });
    if (It != Runs.end() && It->First == First) {
      *It = Run{First, Count, std::move(R)};
      return;
    }
    assert((It == Runs.end() || First + Count <= It->First) &&
           (It == Runs.begin() ||
            std::prev(It)->First + std::prev(It)->Count <= First) &&
           "overlapping runs");
    Runs.insert(It, Run{First, Count, std::move(R)});
  }

  PairSet operator[](size_t L) const {
    PairSet S;
    forEachPair(L, [&S](DefPair P) { S.append(P); });
    return S;
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
  /// materializing the PairSet.
  template <typename Fn> void forEachPair(size_t L, Fn F) const {
    auto [First, Last] = span(L);
    for (; First != Last; ++First)
      F(*First);
  }

  /// Heap footprint in bytes: the run list, and each
  /// part counted once across all tables that share it — callers pass one
  /// \p Seen set spanning every table of a result struct.
  size_t memoryBytes(std::unordered_set<const void *> &Seen) const {
    size_t Bytes = Runs.capacity() * sizeof(Run);
    for (const Run &R : Runs)
      if (Seen.insert(R.Part.get()).second)
        Bytes += sizeof(PairRows) + R.Part->memoryBytes();
    return Bytes;
  }

private:
  /// Slots First .. First + Count - 1 read rows 0 .. Count - 1 of Part.
  struct Run {
    LabelId First;
    uint32_t Count;
    std::shared_ptr<const PairRows> Part;
  };

  /// Slot \p L's kept row (empty when no run covers it).
  std::pair<const DefPair *, const DefPair *> span(size_t L) const {
    assert(L < Slots && "label out of range");
    auto It = std::upper_bound(
        Runs.begin(), Runs.end(), L,
        [](size_t Slot, const Run &X) { return Slot < X.First; });
    if (It == Runs.begin())
      return {nullptr, nullptr};
    --It;
    if (L >= It->First + It->Count)
      return {nullptr, nullptr};
    size_t Row = L - It->First;
    return {It->Part->begin(Row), It->Part->end(Row)};
  }

  size_t Slots = 0;
  std::vector<Run> Runs; ///< ascending First
};

/// The kill/gen of Table 4 or Table 5 for one process, in factored form:
/// two CSR tables with one row per label of the process, in local label
/// order, filled one label at a time (closeLabel). Kill's row I lists
/// *killed resources*, ascending: n in it means every definition of n
/// dies at label I. Gen's row I holds the pairs label I generates,
/// ascending. solveGenKill turns each killed resource into its contiguous
/// DefPairDomain range, so the production path never builds a kill pair.
struct ProcessKillGen {
  Rows<Resource> Kill;
  Rows<DefPair> Gen;

  explicit ProcessKillGen(size_t NumLabels = 0)
      : Kill(NumLabels), Gen(NumLabels) {}

  /// Ends the rows of the label being filled.
  void closeLabel() {
    Kill.closeRow();
    Gen.closeRow();
  }
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
void expandKillGen(const ProcessCFG &P, const ProcessKillGen &F,
                   const DefPairDomain &Sites, ReachingDefsKillGen &KG);

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

  /// Whether a solve prunes its domain to the resources Reads names: no
  /// row is kept whole.
  bool prunes() const {
    return !Full && std::none_of(Whole.begin(), Whole.end(),
                                 [](uint8_t W) { return W != 0; });
  }

  bool keepsExits() const {
    return Full || std::any_of(Whole.begin(), Whole.end(),
                               [](uint8_t W) { return W & 2; });
  }
};

/// One process's solution of Table 4 or 5 as far as a RowKeep asked — the
/// unit rd/Incremental.h caches. Each table has one CSR row per local
/// label (local label order), empty where the keep-set skips it.
struct RdProcessArtifact {
  enum Table { Entry, Exit, MustEntry, MustExit };
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
/// exits persist across rounds, in rows no other label aliases or
/// steals. Every other exit lives in a recycled pool row that counts the
/// forward reads still pending on it and returns to the pool when the
/// count reaches zero. Rows are shared down the CFG, in this order:
///  * a non-init label with one predecessor reads that row in place as
///    its entry (no clear, union or copy); any other label builds its
///    entry in a predecessor row it is the last reader of, else in a
///    fresh row;
///  * a label whose transfer is the identity (no kill range, no gen bit)
///    publishes its entry row as its exit;
///  * the last pending reader of a row transforms it in place;
///  * anyone else copies it into a fresh row first.
/// A label whose exit nobody reads (no successor, not kept, not a
/// retreating source) computes none. A row lives from its first writer
/// to its last reader, so at most (retreating sources + the widest RPO
/// cut of forward edges + 1) rows of the domain's width are live, never
/// labels × domain, and each round emits only the facts \p Keep asks
/// for. Iterations counts labels × rounds (0 for an empty domain).
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
