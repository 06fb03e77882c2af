//===- bench/bench_ablation.cpp - ABL-RD: dropping RD∩ϕ -------------------===//
//
// Part of the vif project; see DESIGN.md (experiment ABL-RD).
//
// Paper claim (Section 7): "One unusual ingredient is the under-
// approximation analysis for active signals in order to be able to specify
// non-trivial kill-components for present values."  This ablation disables
// the RD∩ϕ-based kill at synchronization points and reports how many
// spurious present-value flows appear.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "cfg/CFG.h"
#include "ifa/InformationFlow.h"
#include "oracle/Oracles.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace vif;
using vif::bench::mustElaborateDesign;

namespace {

// A phased process: s carries c1 in the first phase and c2 in the second.
// With RD∩ϕ, the definitions of s are killed at each wait, so q2 sees only
// the phase-2 source c2; without the under-approximation the stale
// phase-1 definition survives the synchronization and q2 spuriously
// depends on c1 as well. Generalized to N phases.
std::string phasedDesign(unsigned Phases) {
  std::string S = "entity phased is\n  port(\n";
  for (unsigned I = 0; I < Phases; ++I)
    S += "    c_" + std::to_string(I) + " : in std_logic;\n";
  for (unsigned I = 0; I < Phases; ++I)
    S += "    q_" + std::to_string(I) + " : out std_logic;\n";
  S += "    clk : in std_logic\n  );\nend phased;\n\n";
  S += "architecture rtl of phased is\n  signal s : std_logic;\nbegin\n";
  S += "  phase : process\n    variable x : std_logic;\n  begin\n";
  for (unsigned I = 0; I < Phases; ++I) {
    S += "    s <= c_" + std::to_string(I) + ";\n";
    S += "    wait on clk;\n";
    S += "    x := s;\n";
    S += "    q_" + std::to_string(I) + " <= x;\n";
  }
  S += "  end process phase;\nend rtl;\n";
  return S;
}

// Producer/consumer pair: the producer drives s from a different source
// before each of its N waits; the consumer forwards s to a fresh output
// after each of its waits. Every c_j may reach every q_i (the processes'
// phases are not statically aligned), but the Hsieh-Levitan emulation only
// sees the producer's final-wait state, losing the mid-process flows.
std::string producerConsumer(unsigned Phases) {
  std::string S = "entity pc is\n  port(\n    clk : in std_logic;\n";
  for (unsigned I = 0; I < Phases; ++I)
    S += "    c_" + std::to_string(I) + " : in std_logic;\n";
  for (unsigned I = 0; I < Phases; ++I)
    S += "    q_" + std::to_string(I) + " : out std_logic" +
         (I + 1 < Phases ? ";" : "") + "\n";
  S += "  );\nend pc;\n\narchitecture rtl of pc is\n"
       "  signal s : std_logic;\nbegin\n  producer : process\n  begin\n";
  for (unsigned I = 0; I < Phases; ++I) {
    S += "    s <= c_" + std::to_string(I) + ";\n";
    S += "    wait on clk;\n";
  }
  S += "  end process producer;\n  consumer : process\n"
       "    variable x : std_logic;\n  begin\n";
  for (unsigned I = 0; I < Phases; ++I) {
    S += "    x := s;\n";
    S += "    q_" + std::to_string(I) + " <= x;\n";
    S += "    wait on clk;\n";
  }
  S += "  end process consumer;\nend rtl;\n";
  return S;
}

void regenerateTable(std::FILE *Out) {
  std::fprintf(Out, "== ABL-RD: effect of the under-approximation kill\n");
  for (unsigned Phases : {2u, 4u, 8u}) {
    ElaboratedProgram P = mustElaborateDesign(phasedDesign(Phases));
    ProgramCFG CFG = ProgramCFG::build(P);
    IFAOptions With;
    IFAOptions Without;
    Without.RD.UseMustActiveKill = false;
    IFAResult RWith = analyzeInformationFlow(P, CFG, With);
    IFAResult RWithout = analyzeInformationFlow(P, CFG, Without);
    size_t Spurious = RWithout.Graph.edgesNotIn(RWith.Graph).size();
    std::fprintf(Out, "  phased(%2u): RMgl with kill=%5zu  without=%5zu  graph "
                "edges %3zu -> %3zu  spurious=%zu\n",
                Phases, RWith.RMgl.size(), RWithout.RMgl.size(),
                RWith.Graph.numEdges(), RWithout.Graph.numEdges(),
                Spurious);
    // Each phase re-drives s before its wait, so phase i only ever
    // observes c_i: every cross-phase edge c_j -> q_i (j != i) is a false
    // positive that only the under-approximation kill removes.
    if (RWith.Graph.hasEdge("c_1", "q_0") ||
        !RWithout.Graph.hasEdge("c_1", "q_0"))
      std::fprintf(Out, "  UNEXPECTED precision result!\n");
  }
  std::fprintf(Out, "\n== ABL-HL: Hsieh-Levitan-style cross-flow (Section 1 "
              "related work)\n");
  for (unsigned Phases : {2u, 4u, 8u}) {
    ElaboratedProgram P = mustElaborateDesign(producerConsumer(Phases));
    ProgramCFG CFG = ProgramCFG::build(P);
    IFAOptions Ours;
    IFAOptions HL;
    HL.RD.HsiehLevitanCrossFlow = true;
    IFAResult ROurs = analyzeInformationFlow(P, CFG, Ours);
    IFAResult RHL = analyzeInformationFlow(P, CFG, HL);
    std::fprintf(Out, "  prodcons(%2u): ours=%3zu edges  hsieh-levitan=%3zu "
                "edges  missed flows=%zu (real mid-process flows lost)\n",
                Phases, ROurs.Graph.numEdges(), RHL.Graph.numEdges(),
                ROurs.Graph.edgesNotIn(RHL.Graph).size());
  }
  std::fprintf(Out, "\n");
}

void BM_Ablation_WithMustKill(benchmark::State &State) {
  ElaboratedProgram P = mustElaborateDesign(phasedDesign(8));
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.RMgl.size());
  }
}
BENCHMARK(BM_Ablation_WithMustKill);

void BM_Ablation_WithoutMustKill(benchmark::State &State) {
  ElaboratedProgram P = mustElaborateDesign(phasedDesign(8));
  ProgramCFG CFG = ProgramCFG::build(P);
  IFAOptions Opts;
  Opts.RD.UseMustActiveKill = false;
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG, Opts);
    benchmark::DoNotOptimize(R.RMgl.size());
  }
}
BENCHMARK(BM_Ablation_WithoutMustKill);

// The cf ablation pair times only the Table 5 kill/gen computation, the
// one step the cross-flow quantification affects, over fixed Table 4
// results.
void BM_Ablation_FactoredCrossFlow(benchmark::State &State) {
  ElaboratedProgram P =
      mustElaborateDesign(workloads::syncMeshDesign(3, 3, 4));
  ProgramCFG CFG = ProgramCFG::build(P);
  ActiveSignalsResult Active = analyzeActiveSignals(P, CFG);
  for (auto _ : State) {
    ReachingDefsKillGen KG = computeReachingDefsKillGen(CFG, Active);
    benchmark::DoNotOptimize(KG.Gen.data());
  }
}
BENCHMARK(BM_Ablation_FactoredCrossFlow);

void BM_Ablation_EnumeratedCrossFlow(benchmark::State &State) {
  // The literal Cartesian-product definition of cf (exponential in the
  // number of processes; the test-only oracle) versus the factored
  // implementation above.
  ElaboratedProgram P =
      mustElaborateDesign(workloads::syncMeshDesign(3, 3, 4));
  ProgramCFG CFG = ProgramCFG::build(P);
  ActiveSignalsResult Active = analyzeActiveSignals(P, CFG);
  for (auto _ : State) {
    std::optional<ReachingDefsKillGen> KG =
        computeReachingDefsKillGenEnumerated(CFG, Active);
    benchmark::DoNotOptimize(KG->Gen.data());
  }
}
BENCHMARK(BM_Ablation_EnumeratedCrossFlow);

} // namespace

int main(int argc, char **argv) {
  regenerateTable(vif::bench::figureStream(argc, argv));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
