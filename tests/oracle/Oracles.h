//===- oracle/Oracles.h - Test-only reference implementations ---*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Independent (exponential or set-backed) implementations that the
/// differential tests, vifc-fuzz and the ablation benches check and time
/// the production code against. Never linked into vifc itself.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_ORACLE_ORACLES_H
#define VIF_ORACLE_ORACLES_H

#include "ifa/InformationFlow.h"
#include "rd/ReachingDefs.h"

#include <optional>
#include <set>

namespace vif {

/// The paper's cross-flow relation cf, materialized: the Cartesian product
/// of the wait-label sets of the processes that contain waits, components
/// in process order. Production code quantifies over it in factored form
/// only (rd/ReachingDefs.h). Returns std::nullopt, enumerating nothing,
/// when the product exceeds \p MaxTuples.
std::optional<std::vector<std::vector<LabelId>>>
crossFlowTuples(const ProgramCFG &CFG, size_t MaxTuples = 1u << 20);

/// computeReachingDefsKillGen with each wait label's cf quantifications
/// evaluated by enumerating the tuples through it, per their definition:
///
///   may(l)  = ⋃_{tuples ∋ l} ⋃_j fst(RD∪ϕentry(l_j))
///   must(l) = ⋂˙_{tuples ∋ l} ⋃_j fst(RD∩ϕentry(l_j))
///
/// Opts.HsiehLevitanCrossFlow is not modelled. Returns std::nullopt when
/// cf has more than \p MaxTuples tuples.
std::optional<ReachingDefsKillGen>
computeReachingDefsKillGenEnumerated(const ProgramCFG &CFG,
                                     const ActiveSignalsResult &Active,
                                     const ReachingDefsOptions &Opts = {},
                                     size_t MaxTuples = 1u << 20);

/// Compares the rows production keeps in \p Prod (an analyzeInformationFlow
/// result; see RowKeep in rd/DenseDomain.h) with full rows — the reference
/// solvers' or any full-row view — restricted the same way: Table 4's may
/// and must entries at wait labels (its exits empty), Table 5's entries
/// restricted to each label's R0 reads in Prod.RMlo, and its exits at the
/// final labels of non-looped processes, restricted to the resources read
/// in the process plus FV ∪ FS. Returns "" when they agree set for set,
/// else the first difference.
std::string keptRowsFailure(const ElaboratedProgram &Program,
                            const ProgramCFG &CFG, const IFAResult &Prod,
                            const ActiveSignalsResult &Active,
                            const ReachingDefsResult &RD);

/// Compares two full-row results of Tables 4 and 5 (the full-row view of
/// the production solver, the reference solvers) at every label of every
/// table. Returns "" when they agree set for set, else the first
/// difference.
std::string fullRowsFailure(const ProgramCFG &CFG,
                            const ActiveSignalsResult &Active,
                            const ReachingDefsResult &RD,
                            const ActiveSignalsResult &RefActive,
                            const ReachingDefsResult &RefRD);

/// The historical std::set-backed Resource Matrix, the oracle for the dense
/// sorted-run backend: driven through the same operation streams, both must
/// yield identical entry sequences.
class ReferenceResourceMatrix {
public:
  bool insert(Resource N, LabelId L, Access A) {
    return Entries.insert(RMEntry{L, A, N}).second;
  }
  bool contains(Resource N, LabelId L, Access A) const {
    return Entries.count(RMEntry{L, A, N}) != 0;
  }

  /// The hinted-sweep bulk insert of the pre-dense implementation.
  void insertR0Rows(const std::vector<std::vector<uint32_t>> &Rows);

  size_t size() const { return Entries.size(); }

  std::set<RMEntry>::const_iterator begin() const { return Entries.begin(); }
  std::set<RMEntry>::const_iterator end() const { return Entries.end(); }

private:
  std::set<RMEntry> Entries;
};

} // namespace vif

#endif // VIF_ORACLE_ORACLES_H
