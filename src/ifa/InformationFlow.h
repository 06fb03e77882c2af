//===- ifa/InformationFlow.h - RD-guided IF closure (Tables 7-9) -*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second step of the Information Flow analysis (paper Section 5.2/5.3):
/// from the local Resource Matrix RMlo, compute the global matrix RMgl by a
/// closure guided by the Reaching Definitions results, then read off the
/// non-transitive information-flow graph.
///
/// Table 7 specializes the RD results to actual uses:
///   RD†(l)  = {(n, l') ∈ RDcf_entry(l)  | (n, l, R0) ∈ RMlo}
///   RD†ϕ(l) = {(s, l') ∈ RD∪ϕ_entry(l) | (s, l, R1) ∈ RMlo}, l a wait label
///
/// Table 8 closes RMgl:
///   [Initialization]       RMlo ⊆ RMgl
///   [Present values..]     (n',l') ∈ RD†(l) ∧ (n,l',R0) ∈ RMgl
///                            ⟹ (n,l,R0) ∈ RMgl
///   [Synchronized values]  (s',l_i) ∈ RD†(l) ∧ cf-compatible l_i,l_j ∧
///                          (s',l'') ∈ RD†ϕ(l_j) ∧ (s,l'',R0) ∈ RMgl
///                            ⟹ (s,l,R0) ∈ RMgl
///
/// Because the conclusions copy *all* R0 entries from a source label to a
/// target label and the premises are static, the closure reduces to a
/// reachability problem over a "copy graph" on labels; the implementation
/// exploits this (see the .cpp) while tests validate it against a naive
/// rule-by-rule fixpoint and an ALFP/Datalog encoding (ifa/AlfpClosure.h).
///
/// Table 9 ("improvement") adds incoming n◦ and outgoing n• interface
/// nodes: initial values via the (n, ?) pairs, environment inputs at
/// synchronization points for in-ports, and per-out-port pseudo-labels
/// l_{n•} collecting everything that may flow off-chip. An extra option
/// treats the end of a non-looped statement program as an outgoing
/// synchronization point — the construction the paper uses to present
/// Figure 4(b) for the sequential example (b).
///
//===----------------------------------------------------------------------===//

#ifndef VIF_IFA_INFORMATIONFLOW_H
#define VIF_IFA_INFORMATIONFLOW_H

#include "ifa/ResourceMatrix.h"
#include "rd/ReachingDefs.h"
#include "support/Graph.h"

#include <map>

namespace vif {

class ProcessArtifactTable;
struct IncrementalStats;

struct IFAOptions {
  /// Apply Table 9 (incoming/outgoing interface nodes).
  bool Improved = false;
  /// Treat the end of each non-looped process as an outgoing
  /// synchronization point covering all its variables and signals
  /// (Figure 4(b) presentation of sequential programs). Implies Improved
  /// semantics for the ◦/• nodes it creates.
  bool ProgramEndOutgoing = false;
  /// Runs the Table 8 fixpoint over the retained sorted-vector R0 rows
  /// (per-edge set_union) instead of the word-parallel BitSet rows over
  /// the design-level resource numbering. Results are identical; the knob
  /// stays as the oracle that the differential tests and the benchmark's
  /// expected-graph generator drive through driver::AnalysisSession.
  bool ReferenceClosure = false;
  /// Knobs forwarded to the Reaching Definitions analysis (ablations).
  ReachingDefsOptions RD;
};

/// Everything the analysis produces, including intermediate results that
/// the tests, benches and the ALFP cross-check consume.
struct IFAResult {
  ResourceMatrix RMlo;
  ResourceMatrix RMgl;

  /// RD†(l) / RD†ϕ(l), one CSR row per label 0..numLabels (row 0 and the
  /// rows of labels that read nothing are empty).
  PairRows RDDagger;
  PairRows RDDaggerPhi;

  /// The information-flow graph: an edge n1 -> n2 iff information may flow
  /// from n1 to n2. Non-transitive in general.
  Digraph Graph;

  /// Pseudo-labels l_{n•} allocated for outgoing resources (Table 9).
  std::map<Resource, LabelId> OutgoingLabels;

  /// The underlying RD results (exposed for inspection).
  ActiveSignalsResult Active;
  ReachingDefsResult RD;

  /// Restriction of Graph to the ◦/• interface nodes (paper Figure 4(b)).
  Digraph interfaceGraph() const;

  /// Heap footprint in bytes across matrices, RD† tables, the flow graph
  /// and the underlying RD results (cache byte-budget accounting).
  size_t memoryBytes() const {
    return RMlo.memoryBytes() + RMgl.memoryBytes() +
           RDDagger.memoryBytes() + RDDaggerPhi.memoryBytes() +
           Graph.memoryBytes() +
           OutgoingLabels.size() *
               (sizeof(std::pair<Resource, LabelId>) + 4 * sizeof(void *)) +
           Active.memoryBytes() + RD.memoryBytes();
  }
};

/// Runs the full pipeline: local dependencies, reaching definitions,
/// closure, graph extraction. Tables 4 and 5 run through the one driver,
/// rd::analyzeIncremental, reusing per-process artifacts from \p Table
/// (none when null: a cold run, which solves every process and builds no
/// key) and adding its reuse counts to \p Stats when non-null. Under
/// Opts.RD.ReferenceSolver they run through the sorted-vector reference
/// solvers instead, leaving \p Table and \p Stats untouched.
IFAResult analyzeInformationFlow(const ElaboratedProgram &Program,
                                 const ProgramCFG &CFG,
                                 const IFAOptions &Opts = IFAOptions(),
                                 ProcessArtifactTable *Table = nullptr,
                                 IncrementalStats *Stats = nullptr);

/// Per label 0..\p NumLabels, the resources Table 7 reads there (its
/// (n, l, R0) entries in \p RMlo): the keep-sets of analyzeIncremental.
ResourceRows tableSevenReads(const ResourceMatrix &RMlo, size_t NumLabels);

/// The design-level half of the pipeline: given already-computed RMlo,
/// active-signal and reaching-definitions results (whether solved cold or
/// recomposed from per-process artifacts), runs Table 7, the Table 8
/// closure and graph extraction. analyzeInformationFlow is exactly the
/// composition of the Table 4/5 driver and RMlo with this function.
IFAResult composeInformationFlow(const ElaboratedProgram &Program,
                                 const ProgramCFG &CFG, const IFAOptions &Opts,
                                 ResourceMatrix RMlo,
                                 ActiveSignalsResult Active,
                                 ReachingDefsResult RD);

/// Extracts flow edges from a resource matrix: r -> m for every label with
/// both (m, l, M0/M1) and (r, l, R0). Shared by this analysis and the
/// Kemmerer baseline so that the two differ only in their closure. Works
/// id-based in one pass over the ordered entries: node names are
/// materialized once per node, never per edge, and edges are bulk-inserted
/// as id pairs.
Digraph extractFlowGraph(const ResourceMatrix &RM,
                         const ElaboratedProgram &Program);

} // namespace vif

#endif // VIF_IFA_INFORMATIONFLOW_H
