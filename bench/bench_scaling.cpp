//===- bench/bench_scaling.cpp - Section 7 complexity ---------------------===//
//
// Part of the vif project; see DESIGN.md (experiment SEC7-C).
//
// Paper claim (Section 7): "its worst case complexity is O(n^5). So far
// this has posed no problems, however we conjecture that the implementation
// can be improved to have a cubic worst case complexity. The reason is that
// the analysis basically is a combination of three bit-vector frameworks
// (each being linear time in practice) and a cubic time reachability
// analysis."  This bench sweeps program sizes on three program families so
// the growth exponent can be read off the timings (google-benchmark's
// complexity estimation is enabled where meaningful).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "cfg/CFG.h"
#include "gen/Generator.h"
#include "ifa/InformationFlow.h"
#include "ifa/Kemmerer.h"
#include "ifa/LocalDeps.h"
#include "rd/Incremental.h"
#include "workloads/Synthetic.h"

#include <benchmark/benchmark.h>

using namespace vif;
using vif::bench::mustElaborateDesign;
using vif::bench::mustElaborateStatements;

namespace {

void BM_Scaling_Chain_Ours(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  ElaboratedProgram P =
      mustElaborateStatements(workloads::chainStatements(N));
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
  State.SetComplexityN(N);
}
BENCHMARK(BM_Scaling_Chain_Ours)
    ->RangeMultiplier(2)
    ->Range(8, 1024)
    ->Complexity();

void BM_Scaling_Chain_Kemmerer(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  ElaboratedProgram P =
      mustElaborateStatements(workloads::chainStatements(N));
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    KemmererResult R = analyzeKemmerer(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
  State.SetComplexityN(N);
}
BENCHMARK(BM_Scaling_Chain_Kemmerer)
    ->RangeMultiplier(2)
    ->Range(8, 1024)
    ->Complexity();

void BM_Scaling_Ladder(benchmark::State &State) {
  unsigned Groups = static_cast<unsigned>(State.range(0));
  ElaboratedProgram P =
      mustElaborateStatements(workloads::tempReuseLadder(Groups, 4));
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
  State.SetComplexityN(Groups);
}
BENCHMARK(BM_Scaling_Ladder)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Complexity();

void BM_Scaling_Pipeline(benchmark::State &State) {
  unsigned Stages = static_cast<unsigned>(State.range(0));
  ElaboratedProgram P =
      mustElaborateDesign(workloads::pipelineDesign(Stages));
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
  State.SetComplexityN(Stages);
}
BENCHMARK(BM_Scaling_Pipeline)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Complexity();

void BM_Scaling_Mesh(benchmark::State &State) {
  unsigned Procs = static_cast<unsigned>(State.range(0));
  ElaboratedProgram P =
      mustElaborateDesign(workloads::syncMeshDesign(Procs, 4, 8));
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
  State.SetComplexityN(Procs);
}
BENCHMARK(BM_Scaling_Mesh)->RangeMultiplier(2)->Range(2, 16)->Complexity();

/// One fixed-seed generated design per size point: Procs processes of
/// mixed control flow over a shared pool of signals and ports.
gen::GenOptions generatedOptions(unsigned Procs) {
  gen::GenOptions O;
  O.Seed = 97; // fixed: the sweep varies size, not content
  O.Processes = Procs;
  O.StmtsPerProcess = 12;
  O.MaxDepth = 3;
  O.ScalarSignals = 2 + Procs;
  O.VectorSignals = 2;
  O.ConcAssigns = Procs / 2;
  O.Blocks = 1;
  return O;
}

void BM_Scaling_Generated_Ours(benchmark::State &State) {
  // Unlike the hand-shaped families above, the generated family exercises
  // the full grammar mix (waits with until-conditions, slices, blocks,
  // vector ops) at scale, so the exponent read-off is not an artifact of
  // one workload shape.
  unsigned Procs = static_cast<unsigned>(State.range(0));
  ElaboratedProgram P =
      mustElaborateDesign(gen::generateDesign(generatedOptions(Procs)));
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
  State.SetComplexityN(Procs);
}
BENCHMARK(BM_Scaling_Generated_Ours)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Complexity();

void BM_Scaling_Generated_Frontend(benchmark::State &State) {
  // Parse + elaborate of the same generated designs: the cost a fuzz
  // seed or serve request pays before any analysis runs.
  unsigned Procs = static_cast<unsigned>(State.range(0));
  std::string Source = gen::generateDesign(generatedOptions(Procs));
  for (auto _ : State) {
    ElaboratedProgram P = mustElaborateDesign(Source);
    benchmark::DoNotOptimize(P.Processes.size());
  }
  State.SetComplexityN(Procs);
}
BENCHMARK(BM_Scaling_Generated_Frontend)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Complexity();

void BM_Scaling_Elaborate_Copies(benchmark::State &State) {
  // Elaboration alone over N independent copies of one statement shape
  // (2N variables that share names with nothing): name resolution and
  // homonym qualification must stay linear in the declared names. Each
  // iteration elaborates a fresh copy of the parse tree, made outside the
  // timed region, the way a session hands its tree over.
  unsigned N = static_cast<unsigned>(State.range(0));
  DiagnosticEngine ParseDiags;
  StatementProgram Parsed =
      parseStatementProgram(workloads::independentCopies(N), ParseDiags);
  for (auto _ : State) {
    State.PauseTiming();
    StatementProgram Copy = Parsed.clone();
    DiagnosticEngine Diags;
    State.ResumeTiming();
    std::optional<ElaboratedProgram> P =
        elaborateStatements(std::move(Copy), Diags);
    benchmark::DoNotOptimize(P->Variables.size());
  }
  State.SetComplexityN(N);
}
BENCHMARK(BM_Scaling_Elaborate_Copies)
    ->RangeMultiplier(2)
    ->Range(2048, 16384)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

void BM_Scaling_RDOnly(benchmark::State &State) {
  // Isolates the "three bit-vector frameworks" part of the paper's
  // complexity argument from the closure: Tables 4 and 5 through the
  // production driver, cold (a fresh artifact table per iteration).
  // It keeps what production keeps (Table 7's read sets from RMlo, built
  // once outside the loop), not the full-row view.
  unsigned N = static_cast<unsigned>(State.range(0));
  ElaboratedProgram P =
      mustElaborateStatements(workloads::chainStatements(N));
  ProgramCFG CFG = ProgramCFG::build(P);
  ResourceRows Reads =
      tableSevenReads(computeLocalDeps(P, CFG), CFG.numLabels());
  for (auto _ : State) {
    ProcessArtifactTable Table;
    ActiveSignalsResult Active;
    ReachingDefsResult RD;
    analyzeIncremental(P, CFG, {}, Table, Active, RD, nullptr, &Reads);
    benchmark::DoNotOptimize(RD.Iterations);
  }
  State.SetComplexityN(N);
}
BENCHMARK(BM_Scaling_RDOnly)
    ->RangeMultiplier(2)
    ->Range(8, 1024)
    ->Complexity();

} // namespace

BENCHMARK_MAIN();
