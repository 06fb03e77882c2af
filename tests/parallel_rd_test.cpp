//===- tests/parallel_rd_test.cpp - --jobs invariance ---------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
// The per-process rd fixpoints fan out over a thread pool when
// ReachingDefsOptions::Jobs > 1 (each process owns disjoint labels and
// result slots). These tests pin the contract: results are identical for
// every Jobs value — set for set, matrix for matrix, graph for graph —
// across the workload corpus, the AnalysisSession stays pointer-stable,
// and the session-cache key ignores the knob. The TSan build of the same
// fan-out lives in tests/tsan_rd.cpp (ctest vifc_tsan_rd, when the
// toolchain supports -fsanitize=thread).
//
//===----------------------------------------------------------------------===//

#include "driver/AnalysisSession.h"
#include "ifa/InformationFlow.h"
#include "parse/Parser.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

using namespace vif;

namespace {

ElaboratedProgram elaborate(const std::string &Source, bool IsDesign) {
  DiagnosticEngine Diags;
  std::optional<ElaboratedProgram> P;
  if (IsDesign) {
    DesignFile F = parseDesign(Source, Diags);
    if (!Diags.hasErrors())
      P = elaborateDesign(F, Diags);
  } else {
    StatementProgram Prog = parseStatementProgram(Source, Diags);
    if (!Diags.hasErrors())
      P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  }
  EXPECT_TRUE(P.has_value()) << Diags.str();
  return std::move(*P);
}

void expectJobsInvariant(const std::string &Source, bool IsDesign,
                         IFAOptions Opts, const char *What) {
  ElaboratedProgram P = elaborate(Source, IsDesign);
  ProgramCFG CFG = ProgramCFG::build(P);

  IFAOptions Par = Opts;
  Par.RD.Jobs = 4;
  IFAResult Serial = analyzeInformationFlow(P, CFG, Opts);
  // A second CFG for the parallel run, so the two solves share nothing but
  // the program: equal results also show that build is deterministic.
  ProgramCFG CFG2 = ProgramCFG::build(P);
  IFAResult Parallel = analyzeInformationFlow(P, CFG2, Par);

  EXPECT_TRUE(Serial.RMlo == Parallel.RMlo) << What << ": RMlo";
  EXPECT_TRUE(Serial.RMgl == Parallel.RMgl) << What << ": RMgl";
  EXPECT_TRUE(Serial.Graph.sameFlows(Parallel.Graph)) << What << ": graph";
  EXPECT_EQ(Serial.RD.Iterations, Parallel.RD.Iterations) << What;
  EXPECT_EQ(Serial.Active.Iterations, Parallel.Active.Iterations) << What;
  for (LabelId L = 1; L <= CFG.numLabels(); ++L) {
    EXPECT_TRUE(Serial.RD.Entry[L] == Parallel.RD.Entry[L])
        << What << ": RD Entry at " << L;
    EXPECT_TRUE(Serial.RD.Exit[L] == Parallel.RD.Exit[L])
        << What << ": RD Exit at " << L;
    EXPECT_TRUE(Serial.Active.MayEntry[L] == Parallel.Active.MayEntry[L])
        << What << ": MayEntry at " << L;
    EXPECT_TRUE(Serial.Active.MustEntry[L] == Parallel.Active.MustEntry[L])
        << What << ": MustEntry at " << L;
  }
}

TEST(ParallelRd, CorpusIdenticalAcrossJobs) {
  expectJobsInvariant("c := b; b := a;", false, {}, "fig3(a)");
  expectJobsInvariant(workloads::shiftRowsStatements(), false, {}, "fig5");
  expectJobsInvariant(workloads::shiftRowsDesign(), true, {},
                      "fig5-design");
  expectJobsInvariant(workloads::chainStatements(48), false, {}, "chain");
  expectJobsInvariant(workloads::tempReuseLadder(5, 4), false, {},
                      "ladder");
  expectJobsInvariant(workloads::pipelineDesign(8), true, {}, "pipeline");
  expectJobsInvariant(workloads::syncMeshDesign(4, 3, 4), true, {}, "mesh");
  for (uint64_t Seed = 1; Seed <= 6; ++Seed)
    expectJobsInvariant(workloads::randomDesign(Seed, 4, 6, 3), true, {},
                        "randomDesign");
}

TEST(ParallelRd, OptionVariantsIdenticalAcrossJobs) {
  IFAOptions Improved;
  Improved.Improved = true;
  expectJobsInvariant(workloads::pipelineDesign(6), true, Improved,
                      "pipeline-improved");
  IFAOptions EndOut;
  EndOut.ProgramEndOutgoing = true;
  expectJobsInvariant(workloads::shiftRowsStatements(), false, EndOut,
                      "fig5-endout");
  IFAOptions NoKill;
  NoKill.RD.UseMustActiveKill = false;
  expectJobsInvariant(workloads::syncMeshDesign(3, 3, 4), true, NoKill,
                      "mesh-nokill");
}

TEST(ParallelRd, ManyProcessesManyWorkers) {
  // More processes than workers and more workers than processes both
  // exercise the pool's claim loop.
  ElaboratedProgram P =
      elaborate(workloads::syncMeshDesign(12, 2, 6), true);
  for (unsigned Jobs : {2u, 3u, 16u}) {
    ProgramCFG Serial = ProgramCFG::build(P);
    ProgramCFG Parallel = ProgramCFG::build(P);
    IFAOptions Par;
    Par.RD.Jobs = Jobs;
    IFAResult A = analyzeInformationFlow(P, Serial);
    IFAResult B = analyzeInformationFlow(P, Parallel, Par);
    EXPECT_TRUE(A.RMgl == B.RMgl) << "jobs=" << Jobs;
    EXPECT_TRUE(A.Graph.sameFlows(B.Graph)) << "jobs=" << Jobs;
  }
}

TEST(ParallelRd, SessionPointerStableUnderJobs) {
  driver::SessionOptions Opts;
  Opts.Ifa.RD.Jobs = 4;
  driver::AnalysisSession S = driver::AnalysisSession::fromSource(
      "mesh.vhd", workloads::syncMeshDesign(4, 3, 4), Opts);
  const IFAResult *First = S.ifa();
  ASSERT_NE(First, nullptr);
  // AnalysisSession's contract: repeated accessors return the same
  // artifact, parallel solvers or not.
  EXPECT_EQ(S.ifa(), First);
  EXPECT_EQ(S.reachingDefs(), S.reachingDefs());
  EXPECT_EQ(&S.ifa()->Graph, &First->Graph);

  // And the artifacts equal a serial session's.
  driver::AnalysisSession Serial = driver::AnalysisSession::fromSource(
      "mesh.vhd", workloads::syncMeshDesign(4, 3, 4));
  ASSERT_NE(Serial.ifa(), nullptr);
  EXPECT_TRUE(Serial.ifa()->RMgl == First->RMgl);
  EXPECT_TRUE(Serial.ifa()->Graph.sameFlows(First->Graph));
}

} // namespace
