//===- oracle/AlfpRd.h - RD equations via the ALFP engine -------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encodes the *may* Reaching Definitions equations (paper Tables 4-5) as
/// ALFP clauses and solves them with the alfp engine, mirroring how the
/// paper's authors ran the analysis in the Succinct Solver:
///
///   rdphi_exit(S, LD, L) :- rdphi_entry(S, LD, L), !killphi(S, LD, L).
///   rdphi_exit(S, L, L)  :- genphi(S, L).
///   rdphi_entry(S, LD, L) :- flow(LP, L), rdphi_exit(S, LD, LP).
///
/// and the analogous clauses for RDcf, whose kill/gen facts are staged from
/// the Table 4 results (exactly the paper's "the result ... can be computed
/// before we perform the Reaching Definitions analysis for local variables
/// and signals"). A datalog least model coincides with the least fixpoint
/// of a forward may analysis, so the results must match the native worklist
/// solver pair for pair — which the tests assert.
///
/// The under-approximation RD∩ϕ uses ⋂˙ over predecessors (universal
/// quantification), which lies outside the Datalog fragment our engine
/// implements; the paper's full ALFP has ∀, so this encoding covers the
/// may half only.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_ORACLE_ALFPRD_H
#define VIF_ORACLE_ALFPRD_H

#include "rd/ReachingDefs.h"

#include <string>

namespace vif {

struct AlfpRdResult {
  bool Solved = false;
  std::string Error;
  /// Reconstructed per-label entry sets, indexed by label.
  std::vector<PairSet> MayPhiEntry; ///< RD∪ϕ entry
  std::vector<PairSet> CfEntry;     ///< RDcf entry
  size_t DerivedTuples = 0;
};

/// Solves the may-RD equations for \p Program in the ALFP engine. \p Active
/// supplies the staged Table 4 results the RDcf kill/gen facts depend on.
AlfpRdResult solveRdWithAlfp(const ElaboratedProgram &Program,
                             const ProgramCFG &CFG,
                             const ActiveSignalsResult &Active,
                             const ReachingDefsOptions &Opts = {});

} // namespace vif

#endif // VIF_ORACLE_ALFPRD_H
