//===- rd/ReachingDefs.h - RD for vars & present signals (Table 5) -*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Reaching Definitions analysis for local variables and *present*
/// signal values of paper Table 5: a forward may analysis over
/// P((Var ∪ Sig) x Lab), per-process flow, that consumes the active-signal
/// results (Table 4) at wait statements:
///
///  * gen at [wait]^l: every signal that may be active in any process that
///    could take part in the synchronization becomes defined at l (its
///    active value turns into its present value);
///  * kill at [wait]^l: every signal that must be active in *all* possible
///    synchronization tuples through l gets all of its present-value
///    definitions killed — this is where RD∩ϕ earns its keep;
///  * variable assignments kill/gen in the classic way, with the special
///    (x, ?) pair standing for the initial value;
///  * entry of init(ss_i) is {(x,?) | x ∈ FV(ss_i)} ∪ {(s,?) | s ∈ FS(ss_i)}.
///
/// The quantifications over cf tuples are computed in factored form only
/// (the tuple components range independently, see cfg/CFG.h), as signal-id
/// bitsets; the explicit tuple product is a test-only oracle
/// (tests/oracle/Oracles.h). There is one kill/gen implementation,
/// computeReachingDefsKillGenFor, and one solver driver: analyzeIncremental
/// (rd/Incremental.h) calls both per process, and the ALFP encoding reads
/// the whole-program kill/gen tables.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_RD_REACHINGDEFS_H
#define VIF_RD_REACHINGDEFS_H

#include "rd/ActiveSignals.h"

namespace vif {

struct ReachingDefsOptions {
  /// Disables the RD∩ϕ-based kill at waits (the ablation ABL-RD in
  /// DESIGN.md): present-value definitions of signals then survive every
  /// synchronization, as in a naive adaptation of Reaching Definitions.
  bool UseMustActiveKill = true;
  /// Routes the whole pipeline through the retained sorted-vector
  /// reference solvers (analyzeActiveSignalsReference /
  /// analyzeReachingDefsReference) instead of the dense bit-vector ones.
  /// Stays as the oracle that the differential tests and the benchmark's
  /// expected-graph generator drive through driver::AnalysisSession.
  bool ReferenceSolver = false;
  /// Worker threads for the per-process fixpoints (both the active-signal
  /// and the RDcf solvers): each process is an independent fixpoint with
  /// disjoint labels and result slots, so they fan out over a
  /// support/Parallel.h pool. 1 (the default) solves inline; results are
  /// identical for every value. Deliberately *not* part of the session
  /// cache key (driver/SessionCache.cpp) — it never changes an artifact.
  unsigned Jobs = 1;
  /// Emulates the Reaching Definitions component of Hsieh & Levitan's
  /// analysis as the paper characterizes it (Section 1): definitions from
  /// *other* processes are only sampled at their process ends, so "a
  /// definition ... present at a synchronization point within the process
  /// but overwritten before the end of the process" is lost. Kept as the
  /// ABL-HL baseline; unsound for multi-wait processes, exactly the
  /// paper's criticism.
  bool HsiehLevitanCrossFlow = false;
};

/// Per-label results of RDcf; tables indexed by label, holding what the
/// solve kept (RowKeep, rd/DenseDomain.h): production keeps RD† (each
/// Entry restricted to the label's R0 reads) and Exit at the final labels
/// of non-looped processes; solveProcessRd and analyzeIncremental without
/// read sets fill every slot. `Result.Entry[L]` materializes a PairSet;
/// forEachPairOf serves resource-indexed queries off the kept rows.
struct ReachingDefsResult {
  LazyPairSets Entry; ///< RDcf entry(l)
  LazyPairSets Exit;  ///< RDcf exit(l)
  size_t Iterations = 0;

  /// Definitions reaching the end of process \p P: the union of exits of
  /// its final labels (used by the program-end outgoing extension; kept
  /// by production for non-looped processes only).
  PairSet atProcessEnd(const ProcessCFG &P) const;

  /// Heap footprint in bytes (cache byte-budget accounting).
  size_t memoryBytes() const {
    std::unordered_set<const void *> Seen;
    return Entry.memoryBytes(Seen) + Exit.memoryBytes(Seen);
  }
};

/// The original sorted-vector-PairSet worklist solver for the whole
/// program, given the Table 4 results \p Active; retained as the oracle
/// for the dense per-process one (differential tests assert identical
/// Entry and Exit sets on every workload family).
ReachingDefsResult
analyzeReachingDefsReference(const ElaboratedProgram &Program,
                             const ProgramCFG &CFG,
                             const ActiveSignalsResult &Active,
                             const ReachingDefsOptions &Opts = {});

/// The cf quantifications at a wait label l of process i:
///
///   may(l)  = ⋃_{tuples (l_1..l_n) ∈ cf, l_i = l} ⋃_j fst(RD∪ϕentry(l_j))
///   must(l) = ⋂˙_{tuples (l_1..l_n) ∈ cf, l_i = l} ⋃_j fst(RD∩ϕentry(l_j))
///
/// Factored: tuple components range independently over the WS(ss_j), so
///   may(l)  = may_i(l) ∪ ⋃_{j≠i} ⋃_{l'∈WS_j} may_j(l')
///   must(l) = must_i(l) ∪ ⋃_{j≠i} ⋂_{l'∈WS_j} must_j(l')
/// (processes without wait statements do not contribute a component).
/// These are the ⋃_{j≠i} terms, as signal-id bitsets indexed by
/// ProcessId; a wait's kill/gen then only adds its own process's row.
struct WaitAggregates {
  std::vector<BitSet> OthersMay;
  std::vector<BitSet> OthersMust;
};

/// The "others" unions of every process, from per-process wait aggregates
/// and prefix/suffix sweeps: O(P * S / 64). Under HsiehLevitanCrossFlow a
/// process's may aggregate is fst(RD∪ϕentry(l_last)) at its textually
/// last wait only — the emulation samples other processes only at this
/// final synchronization, losing definitions overwritten before the
/// process end (the paper's Section 1 criticism).
WaitAggregates computeWaitAggregates(const ProgramCFG &CFG,
                                     const ActiveSignalsResult &Active,
                                     const ReachingDefsOptions &Opts = {});

/// The Table 5 kill/gen of the single process \p P, factored: a whole
/// variable assignment kills {x}, and a wait kills the signals that must
/// be active at it (under UseMustActiveKill). The one implementation of
/// Table 5's kill/gen: analyzeIncremental (rd/Incremental.h) calls it for
/// dirty processes only, and computeReachingDefsKillGen expands it.
///
/// With \p Tracked (signal ids, \p Agg's universe) a wait generates and
/// kills only the signals in it. That is exact for a solve whose domain
/// holds no other signal (RowKeep::prunes over \p P's read set): an
/// untracked gen never enters the domain, and an untracked kill clears
/// an empty range.
ProcessKillGen computeReachingDefsKillGenFor(const ProgramCFG &CFG,
                                             const ProcessCFG &P,
                                             const ActiveSignalsResult &Active,
                                             const WaitAggregates &Agg,
                                             const ReachingDefsOptions &Opts,
                                             const BitSet *Tracked = nullptr);

/// The Table 5 kill/gen sets of every label as explicit pairs: the
/// oracle-only view of computeReachingDefsKillGenFor. A killed variable x
/// stands for (x, ?) and every assignment to x in the process, a killed
/// signal s for (s, ?) and (s, l) at every wait label l of the process.
ReachingDefsKillGen
computeReachingDefsKillGen(const ProgramCFG &CFG,
                           const ActiveSignalsResult &Active,
                           const ReachingDefsOptions &Opts = {});

/// The initial definitions of process \p P at its init label:
/// {(x,?) | x ∈ FV(ss_i)} ∪ {(s,?) | s ∈ FS(ss_i)}.
PairSet initialDefs(const ProcessCFG &P);

/// Solves the RDcf fixpoint of one process from explicit per-label
/// kill/gen vectors (only \p P's label slots are read), keeping every row:
/// collapses each kill row to its distinct resources, then solveGenKill
/// with initialDefs(P) and no must component. Exact when every kill row
/// covers each of its resources' whole range in the process domain, as
/// every table computeReachingDefsKillGen builds does. Production never
/// calls it nor installProcessRd; they stay for the tests and perfbench/
/// layers.cpp until ROADMAP item 1 moves the benchmark to production.
RdProcessArtifact solveProcessRd(const ProgramCFG &CFG, const ProcessCFG &P,
                                 const std::vector<PairSet> &Kill,
                                 const std::vector<PairSet> &Gen);

/// Installs \p A's rows into the label slots of \p P in \p R.
void installProcessRd(ReachingDefsResult &R, const ProgramCFG &CFG,
                      const ProcessCFG &P, const RdProcessArtifact &A);

} // namespace vif

#endif // VIF_RD_REACHINGDEFS_H
