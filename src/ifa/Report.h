//===- ifa/Report.h - Covert-channel audit reports --------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the analysis result as the artifact a Common Criteria evaluation
/// consumes (paper Section 1): per-resource fan-in/fan-out, the interface
/// flows (which inputs reach which outputs), and the verdicts of a flow
/// policy. Plain text, deterministic, diff-friendly.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_IFA_REPORT_H
#define VIF_IFA_REPORT_H

#include "ifa/Policy.h"
#include "sema/Elaborator.h"

#include <string>

namespace vif {

struct ReportOptions {
  /// Include the full edge list (can be long).
  bool ListEdges = true;
  /// Policy to evaluate; empty policy sections are omitted.
  FlowPolicy Policy;
  /// Precomputed checkFlowPolicy(Graph, Policy) result to render. When
  /// null the report evaluates the policy itself; callers that already
  /// hold the verdicts (batch runner, exit-code logic) pass them in so
  /// the reachability scan runs once.
  const std::vector<PolicyViolation> *Violations = nullptr;
};

/// The audit report for \p Graph, the flow graph of \p Program.
std::string auditReport(const ElaboratedProgram &Program, const Digraph &Graph,
                        const ReportOptions &Opts = ReportOptions());

} // namespace vif

#endif // VIF_IFA_REPORT_H
