//===- bench/bench_fig5.cpp - Figure 5 regeneration -----------------------===//
//
// Part of the vif project; see DESIGN.md (experiment FIG5).
//
// Paper claim (Section 6, Figure 5): on the unrolled AES ShiftRows function
// with shared temporaries, Kemmerer's method "is unable to separate the
// shifts on each row" while "our analysis computes the precise result" —
// per row r, exactly the rotation a_r_((c+r) mod 4) -> a_r_c.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "cfg/CFG.h"
#include "ifa/InformationFlow.h"
#include "ifa/Kemmerer.h"
#include "workloads/AesVhdl.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace vif;
using vif::bench::mustElaborateStatements;

namespace {

std::string stripMarks(std::string_view Name) {
  return std::string(stripInterfaceMark(Name));
}

bool isStateNode(std::string_view Name) {
  return Name.rfind("a_", 0) == 0;
}

void regenerateFigure(std::FILE *Out) {
  std::fprintf(Out, "== FIG5: AES ShiftRows, Kemmerer vs RD-guided analysis\n");
  ElaboratedProgram P =
      mustElaborateStatements(workloads::shiftRowsStatements());
  ProgramCFG CFG = ProgramCFG::build(P);

  KemmererResult Base = analyzeKemmerer(P, CFG);
  Digraph BaseState = Base.Graph.inducedSubgraph(isStateNode);

  IFAOptions Opts;
  Opts.ProgramEndOutgoing = true;
  IFAResult Ours = analyzeInformationFlow(P, CFG, Opts);
  Digraph OursState =
      Ours.Graph.mergeNodes(stripMarks).inducedSubgraph(isStateNode);

  std::fprintf(Out, "state nodes: %zu (paper: 12)\n", OursState.numNodes());
  std::fprintf(Out, "Figure 5(a) Kemmerer:   %zu edges\n",
               BaseState.numEdges());
  std::fprintf(Out,
               "Figure 5(b) RD-guided:  %zu edges (paper: 12, one rotation "
               "per row)\n",
               OursState.numEdges());
  std::fprintf(Out, "false positives eliminated: %zu\n",
               BaseState.edgesNotIn(OursState).size());
  std::fprintf(Out, "RD-guided edges:");
  bench::printEdges(Out, OursState);
  std::fprintf(Out, "\n\n");
}

void BM_Fig5_Ours(benchmark::State &State) {
  ElaboratedProgram P =
      mustElaborateStatements(workloads::shiftRowsStatements());
  ProgramCFG CFG = ProgramCFG::build(P);
  IFAOptions Opts;
  Opts.ProgramEndOutgoing = true;
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG, Opts);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
}
BENCHMARK(BM_Fig5_Ours);

void BM_Fig5_Kemmerer(benchmark::State &State) {
  ElaboratedProgram P =
      mustElaborateStatements(workloads::shiftRowsStatements());
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    KemmererResult R = analyzeKemmerer(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
}
BENCHMARK(BM_Fig5_Kemmerer);

void BM_Fig5_DesignVariant(benchmark::State &State) {
  // The looped process version with inout ports (flows compose across
  // delta cycles).
  ElaboratedProgram P =
      vif::bench::mustElaborateDesign(workloads::shiftRowsDesign());
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
}
BENCHMARK(BM_Fig5_DesignVariant);

} // namespace

int main(int argc, char **argv) {
  regenerateFigure(vif::bench::figureStream(argc, argv));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
