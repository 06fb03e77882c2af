//===- rd/ActiveSignals.h - RD for active signals (Table 4) -----*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Reaching Definitions analysis for *active* signal values of paper
/// Table 4 — a forward Monotone Framework instance over P(Sig x Lab), run
/// per process, with the paper's unusual twist of computing both
///
///  * RD∪ϕ: an over-approximation (which signals *may* be active, and from
///    which assignment) — union over predecessor exits; and
///  * RD∩ϕ: an under-approximation (which signals *must* be active) —
///    ⋂˙ over predecessor exits.
///
/// Kill/gen (Table 4):
///  * a whole signal assignment [s <= e]^l kills every assignment to s in
///    the same process and generates (s, l); slice assignments only
///    generate (no kill — they overwrite part of the active value);
///  * a wait statement kills every signal assignment of its process (the
///    synchronization consumes all active values);
///  * everything else is transparent.
///
/// The under-approximation exists solely to give the cross-process analysis
/// of Table 5 a sound, non-trivial kill component for present values; the
/// least solution satisfies RD∩ ⊆ RD∪ thanks to ⋂˙∅ = ∅.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_RD_ACTIVESIGNALS_H
#define VIF_RD_ACTIVESIGNALS_H

#include "rd/DenseDomain.h"
#include "rd/PairSet.h"

namespace vif {

/// Per-label results of the active-signal analyses; tables are indexed by
/// label (entry 0, the "?" label, is unused), holding what the solve kept
/// (RowKeep, rd/DenseDomain.h): production keeps MayEntry and MustEntry
/// at wait labels only; analyzeActiveSignals and the reference solver
/// fill every slot. `Result.MayEntry[L]` etc. materialize a PairSet.
struct ActiveSignalsResult {
  LazyPairSets MayEntry;  ///< RD∪ϕ entry(l)
  LazyPairSets MayExit;   ///< RD∪ϕ exit(l)
  LazyPairSets MustEntry; ///< RD∩ϕ entry(l)
  LazyPairSets MustExit;  ///< RD∩ϕ exit(l)

  /// Number of worklist iterations used (for the complexity experiments).
  size_t Iterations = 0;

  /// Sizes all four tables to \p NumSlots empty slots.
  void resize(size_t NumSlots) {
    for (LazyPairSets *T : {&MayEntry, &MayExit, &MustEntry, &MustExit})
      T->resize(NumSlots);
  }

  /// Heap footprint in bytes; the four tables share their per-process
  /// domains and matrices, counted once (cache byte-budget accounting).
  size_t memoryBytes() const {
    std::unordered_set<const void *> Seen;
    return MayEntry.memoryBytes(Seen) + MayExit.memoryBytes(Seen) +
           MustEntry.memoryBytes(Seen) + MustExit.memoryBytes(Seen);
  }
};

/// Runs both analyses for every process, keeping every row (the full-row
/// view). \p Jobs > 1 fans the per-process fixpoints over a thread pool
/// (results identical for every value). Production never calls it; it
/// stays for the tests and perfbench/layers.cpp until ROADMAP item 1
/// moves the benchmark onto the production path.
ActiveSignalsResult analyzeActiveSignals(const ElaboratedProgram &Program,
                                         const ProgramCFG &CFG,
                                         unsigned Jobs = 1);

/// The original sorted-vector-PairSet chaotic-iteration solver, retained as
/// the oracle for the dense one: the differential tests assert that both
/// compute identical May/Must Entry/Exit sets on every workload family.
ActiveSignalsResult
analyzeActiveSignalsReference(const ElaboratedProgram &Program,
                              const ProgramCFG &CFG);

/// The sorted-vector twin of solveGenKill (rd/DenseDomain.h) behind both
/// reference solvers: chaotic iteration over \p P's labels in label order,
/// writing eager sets into \p P's slots of \p Entry / \p Exit and, when
/// \p MustEntry is non-null, the ⋂˙ component into \p MustEntry /
/// \p MustExit. Returns the number of worklist iterations.
size_t solveGenKillReference(const ProgramCFG &CFG, const ProcessCFG &P,
                             const ReachingDefsKillGen &KG,
                             const PairSet &Initial, LazyPairSets &Entry,
                             LazyPairSets &Exit,
                             LazyPairSets *MustEntry = nullptr,
                             LazyPairSets *MustExit = nullptr);

/// The Table 4 kill/gen of the single process \p P, factored: a whole
/// signal assignment kills {s}, a wait kills every signal \p P assigns.
/// The incremental layer (rd/Incremental.h) and analyzeActiveSignals call
/// it per process, then solveGenKill with no initial facts and the must
/// component.
ProcessKillGen computeActiveKillGenFor(const ProgramCFG &CFG,
                                       const ProcessCFG &P);

/// The Table 4 kill/gen sets of every label as explicit pairs (a killed
/// signal stands for every assignment to it in the process): the
/// oracle-only view of computeActiveKillGenFor.
ReachingDefsKillGen computeActiveKillGen(const ProgramCFG &CFG);

} // namespace vif

#endif // VIF_RD_ACTIVESIGNALS_H
