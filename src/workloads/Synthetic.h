//===- workloads/Synthetic.h - Synthetic program families -------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Program generators for the complexity experiments (paper Section 7
/// claims O(n^5) worst case and conjectures cubic practical behavior) and
/// for property-based testing (factored vs enumerated cross-flow, native vs
/// ALFP closure, analysis vs simulator agreement).
///
//===----------------------------------------------------------------------===//

#ifndef VIF_WORKLOADS_SYNTHETIC_H
#define VIF_WORKLOADS_SYNTHETIC_H

#include <cstdint>
#include <string>

namespace vif {
namespace workloads {

/// x_1 := x_0; x_2 := x_1; ...; x_n := x_{n-1}. The RD-guided graph is the
/// n-edge path; Kemmerer's closure is the O(n^2)-edge order relation.
std::string chainStatements(unsigned N);

/// x_i := a_i for i < N: N independent copies. Each label reads one of
/// ~2N resources, so the closed RMgl's Table 8 rows are wide and nearly
/// empty — the shape whose R0 entries are cheaper flat than as rows.
std::string independentCopies(unsigned N);

/// \p Groups groups of \p Temps values rotated through shared temporaries —
/// the generalized ShiftRows shape. Nodes a_G_T, temporaries t_T.
std::string tempReuseLadder(unsigned Groups, unsigned Temps);

/// A design with \p Stages processes forming a pipeline: process k waits on
/// signal s_{k-1} and drives s_k. The precise flow graph is the path
/// s_0 -> s_1 -> ... -> s_Stages (plus self-refresh edges), exercising
/// cross-process synchronization and the [Synchronized values] rule.
std::string pipelineDesign(unsigned Stages);

/// A design with \p Procs processes, each containing \p Waits wait
/// statements and signal traffic on a shared bus of \p Sigs signals;
/// stresses the cross-flow relation (|cf| = Waits^Procs tuples).
std::string syncMeshDesign(unsigned Procs, unsigned Waits, unsigned Sigs);

/// Deterministic pseudo-random scalar design: \p Procs processes over
/// \p Sigs shared signals, \p Stmts statements each, drawn from
/// assignments, if/else, while-free loops and waits. Always elaborates
/// cleanly; used by the property tests.
std::string randomDesign(uint64_t Seed, unsigned Procs, unsigned Stmts,
                         unsigned Sigs);

/// Deterministic pseudo-random statement program over scalar variables
/// (assignments + if/else), for closure property tests.
std::string randomStatements(uint64_t Seed, unsigned Stmts, unsigned Vars);

/// Deterministic pseudo-random design with an explicit environment
/// interface: in-ports i_0..i_{Ins-1}, out-ports o_0..o_{Outs-1} and a
/// clk; every process body is straight-line (assignments, xors,
/// if/else) ending in `wait on clk`, so simulation always terminates.
/// Used by the differential soundness tests: flipping one in-port and
/// observing an out-port change must be matched by a graph edge.
std::string randomPortedDesign(uint64_t Seed, unsigned Procs,
                               unsigned Stmts, unsigned Ins, unsigned Outs);

} // namespace workloads
} // namespace vif

#endif // VIF_WORKLOADS_SYNTHETIC_H
