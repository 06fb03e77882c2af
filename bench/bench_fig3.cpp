//===- bench/bench_fig3.cpp - Figure 3 regeneration -----------------------===//
//
// Part of the vif project; see DESIGN.md (experiment FIG3).
//
// Paper claim (Figure 3 + Section 5.2): for program (a) `c:=b; b:=a` the
// information-flow graph has edges {b->c, a->b} and is non-transitive; for
// program (b) `b:=a; c:=b` it additionally has a->c. Kemmerer's method
// produces the (b) graph for BOTH programs.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "cfg/CFG.h"
#include "ifa/InformationFlow.h"
#include "ifa/Kemmerer.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace vif;
using vif::bench::mustElaborateStatements;

namespace {

const char *ProgramA = "c := b; b := a;";
const char *ProgramB = "b := a; c := b;";

void printGraph(std::FILE *Out, const char *Title, const Digraph &G) {
  std::fprintf(Out, "  %s: %zu nodes, %zu edges:", Title, G.numNodes(),
              G.numEdges());
  bench::printEdges(Out, G);
  std::fprintf(Out, "\n");
}

void regenerateFigure(std::FILE *Out) {
  std::fprintf(Out, "== FIG3: information-flow graphs of the running examples\n");
  for (const auto &[Name, Source] :
       {std::pair{"(a) c:=b; b:=a", ProgramA},
        std::pair{"(b) b:=a; c:=b", ProgramB}}) {
    ElaboratedProgram P = mustElaborateStatements(Source);
    ProgramCFG CFG = ProgramCFG::build(P);
    IFAResult Ours = analyzeInformationFlow(P, CFG);
    KemmererResult Base = analyzeKemmerer(P, CFG);
    std::fprintf(Out, "program %s\n", Name);
    printGraph(Out, "RD-guided", Ours.Graph);
    printGraph(Out, "Kemmerer ", Base.Graph);
    std::fprintf(Out, "  RD-guided graph transitive: %s\n",
                Ours.Graph.isTransitive() ? "yes" : "no");
  }
  std::fprintf(Out, "\n");
}

void BM_Fig3_Ours(benchmark::State &State) {
  ElaboratedProgram P = mustElaborateStatements(ProgramA);
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
}
BENCHMARK(BM_Fig3_Ours);

void BM_Fig3_Kemmerer(benchmark::State &State) {
  ElaboratedProgram P = mustElaborateStatements(ProgramA);
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    KemmererResult R = analyzeKemmerer(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
}
BENCHMARK(BM_Fig3_Kemmerer);

void BM_Fig3_FrontEnd(benchmark::State &State) {
  for (auto _ : State) {
    ElaboratedProgram P = mustElaborateStatements(ProgramB);
    benchmark::DoNotOptimize(P.Variables.size());
  }
}
BENCHMARK(BM_Fig3_FrontEnd);

} // namespace

int main(int argc, char **argv) {
  regenerateFigure(vif::bench::figureStream(argc, argv));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
