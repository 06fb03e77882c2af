//===- tests/rd_differential_test.cpp - Dense vs reference solvers --------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
// The rd fixpoints run as bit vectors (the round-robin solveGenKill over
// per-process DefPairDomains, rd/DenseDomain.h) through the one production
// driver, analyzeIncremental; the original sorted-vector solvers are
// retained as oracles. These tests run both over the paper's figure
// programs, every workload family and generated designs with nested loops,
// and assert, label by label, that the rows production keeps equal the
// reference rows restricted the same way, that the full-row view equals
// them everywhere, and that the IFA results are identical end to end.
//
//===----------------------------------------------------------------------===//

#include "gen/Generator.h"
#include "oracle/Oracles.h"
#include "parse/Parser.h"
#include "rd/Incremental.h"
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

/// Asserts that the production driver (cold, over a fresh artifact table)
/// keeps exactly the reference solvers' rows restricted to its keep-sets,
/// and that its full-row view agrees with them on every per-label set of
/// both rd analyses.
void expectSolversAgree(const std::string &Source, bool IsDesign,
                        const std::string &What) {
  ElaboratedProgram P = elaborate(Source, IsDesign);
  ProgramCFG CFG = ProgramCFG::build(P);

  ActiveSignalsResult Ref = analyzeActiveSignalsReference(P, CFG);
  ReachingDefsResult RDRef = analyzeReachingDefsReference(P, CFG, Ref);
  EXPECT_EQ(keptRowsFailure(P, CFG, analyzeInformationFlow(P, CFG), Ref,
                            RDRef),
            "")
      << What;

  ProcessArtifactTable Table;
  ActiveSignalsResult Dense;
  ReachingDefsResult RDDense;
  analyzeIncremental(P, CFG, {}, Table, Dense, RDDense);
  EXPECT_EQ(fullRowsFailure(CFG, Dense, RDDense, Ref, RDRef), "") << What;
}

/// Asserts that the full IFA pipeline produces identical matrices and
/// graphs whichever solver family feeds it.
void expectIfaAgrees(const std::string &Source, bool IsDesign,
                     IFAOptions Opts, const char *What) {
  ElaboratedProgram P = elaborate(Source, IsDesign);
  ProgramCFG CFG = ProgramCFG::build(P);

  IFAOptions RefOpts = Opts;
  RefOpts.RD.ReferenceSolver = true;
  IFAResult Dense = analyzeInformationFlow(P, CFG, Opts);
  IFAResult Ref = analyzeInformationFlow(P, CFG, RefOpts);

  EXPECT_TRUE(Dense.RMgl == Ref.RMgl) << What << ": RMgl differs";
  EXPECT_TRUE(Dense.Graph.sameFlows(Ref.Graph)) << What;
}

//===----------------------------------------------------------------------===//
// Paper figure programs
//===----------------------------------------------------------------------===//

TEST(RdDifferential, Fig3Programs) {
  expectSolversAgree("c := b; b := a;", false, "fig3(a)");
  expectSolversAgree("b := a; c := b;", false, "fig3(b)");
}

TEST(RdDifferential, Fig5ShiftRows) {
  expectSolversAgree(workloads::shiftRowsStatements(), false, "fig5");
  expectSolversAgree(workloads::shiftRowsDesign(), true, "fig5-design");
}

TEST(IfaDifferential, Fig3And4Graphs) {
  expectIfaAgrees("c := b; b := a;", false, {}, "fig3(a)");
  IFAOptions EndOut;
  EndOut.ProgramEndOutgoing = true;
  expectIfaAgrees("b := a; c := b;", false, EndOut, "fig4(b)");
}

TEST(IfaDifferential, Fig5Graphs) {
  IFAOptions EndOut;
  EndOut.ProgramEndOutgoing = true;
  expectIfaAgrees(workloads::shiftRowsStatements(), false, EndOut, "fig5");
  expectIfaAgrees(workloads::shiftRowsDesign(), true, {}, "fig5-design");
}

//===----------------------------------------------------------------------===//
// Synthetic families (the bench_scaling workloads)
//===----------------------------------------------------------------------===//

TEST(RdDifferential, ChainFamily) {
  for (unsigned N : {1u, 2u, 17u, 64u})
    expectSolversAgree(workloads::chainStatements(N), false, "chain");
}

TEST(RdDifferential, LadderFamily) {
  expectSolversAgree(workloads::tempReuseLadder(6, 4), false, "ladder");
}

TEST(RdDifferential, PipelineAndMeshDesigns) {
  expectSolversAgree(workloads::pipelineDesign(5), true, "pipeline");
  for (unsigned Procs : {2u, 3u})
    expectSolversAgree(workloads::syncMeshDesign(Procs, 3, 4), true, "mesh");
}

TEST(RdDifferential, RandomDesigns) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    expectSolversAgree(workloads::randomDesign(Seed, 3, 6, 3), true,
                       "randomDesign");
}

TEST(RdDifferential, AesComponentsAndLeakyCore) {
  expectSolversAgree(workloads::addRoundKeyStatements(4), false,
                     "addRoundKey");
  expectSolversAgree(workloads::subBytesStatements(2), false, "subBytes");
  expectSolversAgree(workloads::mixColumnsStatements(), false, "mixColumns");
  expectSolversAgree(workloads::leakyCoreDesign(), true, "leakyCore");
  expectSolversAgree(workloads::randomStatements(3, 12, 4), false,
                     "randomStatements");
}

TEST(RdDifferential, GeneratedDesignsWithNestedLoops) {
  // Nesting depth 3 puts whiles inside whiles and ifs: several retreating
  // edges per process, so the round-robin needs more than two rounds.
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    gen::GenOptions Opts;
    Opts.Seed = Seed;
    Opts.MaxDepth = 3;
    Opts.StmtsPerProcess = 10;
    expectSolversAgree(gen::generateDesign(Opts), true,
                       "generated seed " + std::to_string(Seed));
  }
}

TEST(IfaDifferential, SyntheticGraphs) {
  expectIfaAgrees(workloads::chainStatements(32), false, {}, "chain");
  expectIfaAgrees(workloads::tempReuseLadder(4, 4), false, {}, "ladder");
  expectIfaAgrees(workloads::pipelineDesign(4), true, {}, "pipeline");
  expectIfaAgrees(workloads::syncMeshDesign(3, 3, 4), true, {}, "mesh");
  IFAOptions Improved;
  Improved.Improved = true;
  expectIfaAgrees(workloads::pipelineDesign(3), true, Improved,
                  "pipeline-improved");
  for (uint64_t Seed = 1; Seed <= 6; ++Seed)
    expectIfaAgrees(workloads::randomDesign(Seed, 3, 6, 3), true, {},
                    "randomDesign");
}

TEST(IfaDifferential, AblationVariantsAgree) {
  // The ablation knobs change which sets are computed, not which solver
  // computes them — the dense/reference pair must agree under each.
  IFAOptions NoKill;
  NoKill.RD.UseMustActiveKill = false;
  expectIfaAgrees(workloads::syncMeshDesign(2, 3, 4), true, NoKill,
                  "mesh-nokill");
  IFAOptions HL;
  HL.RD.HsiehLevitanCrossFlow = true;
  expectIfaAgrees(workloads::syncMeshDesign(2, 3, 4), true, HL, "mesh-hl");
}

} // namespace
