//===- ifa/Report.cpp -----------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ifa/Report.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_map>

using namespace vif;

namespace {

/// True for the interface decorations n◦ / n•.
bool isIncomingNode(std::string_view N) {
  return N.size() >= 3 && N.substr(N.size() - 3) == "◦";
}
bool isOutgoingNode(std::string_view N) {
  return N.size() >= 3 && N.substr(N.size() - 3) == "•";
}

} // namespace

std::string vif::auditReport(const ElaboratedProgram &Program,
                             const Digraph &G, const ReportOptions &Opts) {
  std::ostringstream OS;
  OS << "=== Information Flow Audit Report ===\n";
  OS << "design: " << Program.Processes.size() << " process(es), "
     << Program.Signals.size() << " signal(s), "
     << Program.Variables.size() << " variable(s)\n";
  OS << "graph: " << G.numNodes() << " node(s), " << G.numEdges()
     << " flow edge(s), " << (G.isTransitive() ? "transitive"
                                               : "non-transitive")
     << "\n\n";

  // Per-node fan-in/out, counted over dense node ids in one edge scan and
  // printed in rank (lexicographic) order — no name-keyed map.
  std::vector<size_t> FanIn(G.numNodes(), 0), FanOut(G.numNodes(), 0);
  G.forEachEdgeId([&](Digraph::NodeId From, Digraph::NodeId To) {
    ++FanOut[From];
    ++FanIn[To];
  });
  // Port-role annotations, resolved through one name-indexed pass over the
  // signal table instead of one signal-table scan per node.
  std::unordered_map<std::string_view, SignalClass> PortClass;
  for (const ElabSignal &Sig : Program.Signals)
    if (Sig.Class != SignalClass::Internal)
      PortClass.emplace(Sig.UniqueName, Sig.Class);
  OS << "-- resources (fan-in / fan-out)\n";
  for (Digraph::NodeId Id : G.rankedNodes()) {
    std::string_view Name = G.name(Id);
    OS << "  " << Name;
    auto It = PortClass.find(Name);
    if (It != PortClass.end())
      OS << " [" << signalClassName(It->second) << " port]";
    OS << ": in=" << FanIn[Id] << " out=" << FanOut[Id];
    if (FanIn[Id] == 0 && FanOut[Id] == 0)
      OS << " (isolated)";
    OS << '\n';
  }

  // Interface summary: which inputs reach which outputs. Uses ports when
  // the design has them; falls back to ◦/• nodes for statement programs.
  std::vector<std::string_view> Ins, Outs;
  for (const ElabSignal &S : Program.Signals) {
    if (S.isInput())
      Ins.push_back(S.UniqueName);
    if (S.isOutput())
      Outs.push_back(S.UniqueName);
  }
  if (Ins.empty() && Outs.empty()) {
    for (Digraph::NodeId Id : G.rankedNodes()) {
      std::string_view N = G.name(Id);
      if (isIncomingNode(N))
        Ins.push_back(N);
      if (isOutgoingNode(N))
        Outs.push_back(N);
    }
  }
  if (!Ins.empty() && !Outs.empty()) {
    // Resolve each interface name to its node id once; the per-(In, Out)
    // probes below are then pure id binary searches, no string hashing.
    auto idsOf = [&G](const std::vector<std::string_view> &Names) {
      std::vector<std::optional<Digraph::NodeId>> Ids;
      Ids.reserve(Names.size());
      for (std::string_view N : Names)
        Ids.push_back(G.hasNode(N)
                          ? std::optional<Digraph::NodeId>(G.id(N))
                          : std::nullopt);
      return Ids;
    };
    std::vector<std::optional<Digraph::NodeId>> InIds = idsOf(Ins),
                                                OutIds = idsOf(Outs);
    OS << "\n-- interface flows (input -> outputs it may reach)\n";
    for (size_t I = 0; I < Ins.size(); ++I) {
      OS << "  " << Ins[I] << " ->";
      bool Any = false;
      if (InIds[I])
        for (size_t O = 0; O < Outs.size(); ++O)
          if (OutIds[O] && G.hasEdge(*InIds[I], *OutIds[O])) {
            OS << ' ' << Outs[O];
            Any = true;
          }
      if (!Any)
        OS << " (nothing)";
      OS << '\n';
    }
  }

  if (Opts.ListEdges) {
    OS << "\n-- all flows\n";
    G.forEachSortedEdge([&OS](std::string_view From, std::string_view To) {
      OS << "  " << From << " -> " << To << '\n';
    });
  }

  if (!Opts.Policy.Forbidden.empty()) {
    std::vector<PolicyViolation> Computed;
    const std::vector<PolicyViolation> *Violations = Opts.Violations;
    if (!Violations) {
      Computed = checkFlowPolicy(G, Opts.Policy);
      Violations = &Computed;
    }
    OS << "\n-- policy: " << Opts.Policy.Forbidden.size()
       << " forbidden flow(s), " << Violations->size() << " violation(s)\n";
    for (const FlowPolicy::Rule &R : Opts.Policy.Forbidden) {
      bool Violated = false;
      bool ViaPath = false;
      for (const PolicyViolation &V : *Violations)
        if (V.From == R.From && V.To == R.To) {
          Violated = true;
          ViaPath = V.ViaPath;
        }
      OS << "  " << (Violated ? "VIOLATED " : "ok       ") << R.From
         << " -> " << R.To;
      if (ViaPath)
        OS << " (via path)";
      OS << '\n';
    }
    OS << "verdict: "
       << (Violations->empty() ? "PASS — all flows permissible"
                               : "FAIL — impermissible flows present")
       << '\n';
  }
  return OS.str();
}
