//===- bench/bench_aes.cpp - Section 6 on AES components ------------------===//
//
// Part of the vif project; see DESIGN.md (experiment SEC6).
//
// Paper claim (Section 6): on the AES programs, "the graphs computed by
// Kemmerer's method indicate the problem of the method not taking control
// flow information into account; many edges are false positives... Our
// analysis correctly eliminates the edges introduced by the overwritten
// variables." This bench reports, per component, the edge counts of both
// methods and the number of eliminated false positives, and times the
// whole AES core at 1 and 10 rounds.
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
using vif::bench::mustElaborateDesign;
using vif::bench::mustElaborateStatements;

namespace {

void reportComponent(std::FILE *Out, const char *Name, const std::string &Source) {
  ElaboratedProgram P = mustElaborateStatements(Source);
  ProgramCFG CFG = ProgramCFG::build(P);
  IFAResult Ours = analyzeInformationFlow(P, CFG);
  KemmererResult Base = analyzeKemmerer(P, CFG);
  size_t FP = Base.Graph.edgesNotIn(Ours.Graph).size();
  std::fprintf(Out, "  %-14s labels=%4zu  kemmerer=%4zu edges  rd-guided=%4zu "
              "edges  false-positives=%4zu (%.0f%%)\n",
              Name, CFG.numLabels(), Base.Graph.numEdges(),
              Ours.Graph.numEdges(), FP,
              Base.Graph.numEdges()
                  ? 100.0 * static_cast<double>(FP) /
                        static_cast<double>(Base.Graph.numEdges())
                  : 0.0);
}

void regenerateTable(std::FILE *Out) {
  std::fprintf(Out, "== SEC6: precision on the AES reference components\n");
  reportComponent(Out, "shiftrows", workloads::shiftRowsStatements());
  reportComponent(Out, "addroundkey", workloads::addRoundKeyStatements(16));
  reportComponent(Out, "subbytes(4)", workloads::subBytesStatements(4));
  reportComponent(Out, "mixcolumns", workloads::mixColumnsStatements());
  std::fprintf(Out, "\n");
}

void BM_Aes_AddRoundKey(benchmark::State &State) {
  ElaboratedProgram P =
      mustElaborateStatements(workloads::addRoundKeyStatements(16));
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
}
BENCHMARK(BM_Aes_AddRoundKey);

void BM_Aes_SubBytes(benchmark::State &State) {
  // One unrolled S-box chain per byte: heavy label counts.
  unsigned Bytes = static_cast<unsigned>(State.range(0));
  ElaboratedProgram P =
      mustElaborateStatements(workloads::subBytesStatements(Bytes));
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
  State.counters["labels"] = static_cast<double>(CFG.numLabels());
}
BENCHMARK(BM_Aes_SubBytes)->Arg(1)->Arg(2)->Arg(4);

void BM_Aes_MixColumns(benchmark::State &State) {
  ElaboratedProgram P =
      mustElaborateStatements(workloads::mixColumnsStatements());
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
}
BENCHMARK(BM_Aes_MixColumns);

void BM_Aes_CoreOneRound_Analysis(benchmark::State &State) {
  ElaboratedProgram P = mustElaborateDesign(workloads::aesCoreDesign(1));
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
  State.counters["labels"] = static_cast<double>(CFG.numLabels());
}
BENCHMARK(BM_Aes_CoreOneRound_Analysis)->Unit(benchmark::kMillisecond);

// The whole 10-round core (103 339 labels): the scale of whole-design
// hardware IF tools, and Table 5's memory bound (kept rows, not labels ×
// definitions) end to end.
void BM_Aes_CoreTenRounds_Analysis(benchmark::State &State) {
  ElaboratedProgram P = mustElaborateDesign(workloads::aesCoreDesign(10));
  ProgramCFG CFG = ProgramCFG::build(P);
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG);
    benchmark::DoNotOptimize(R.Graph.numEdges());
  }
  State.counters["labels"] = static_cast<double>(CFG.numLabels());
}
BENCHMARK(BM_Aes_CoreTenRounds_Analysis)->Unit(benchmark::kMillisecond);

void BM_Aes_CoreParseElaborate(benchmark::State &State) {
  std::string Source = workloads::aesCoreDesign(1);
  for (auto _ : State) {
    ElaboratedProgram P = mustElaborateDesign(Source);
    benchmark::DoNotOptimize(P.Variables.size());
  }
  State.counters["bytes"] = static_cast<double>(Source.size());
}
BENCHMARK(BM_Aes_CoreParseElaborate)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  regenerateTable(vif::bench::figureStream(argc, argv));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
