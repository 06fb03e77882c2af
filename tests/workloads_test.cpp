//===- tests/workloads_test.cpp - Figure 5 & workload generators ----------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ifa/InformationFlow.h"
#include "ifa/Kemmerer.h"
#include "parse/Parser.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

using namespace vif;

namespace {

struct Analyzed {
  ElaboratedProgram Program;
  ProgramCFG CFG;
};

Analyzed elaborate(const std::string &Source, bool IsDesign) {
  DiagnosticEngine Diags;
  std::optional<ElaboratedProgram> P;
  if (IsDesign) {
    DesignFile F = parseDesign(Source, Diags);
    P = elaborateDesign(F, Diags);
  } else {
    StatementProgram Prog = parseStatementProgram(Source, Diags);
    P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  }
  EXPECT_TRUE(P.has_value()) << Diags.str();
  Analyzed A{std::move(*P), {}};
  A.CFG = ProgramCFG::build(A.Program);
  return A;
}

std::string stripMarks(std::string_view Name) {
  for (std::string_view Suffix : {"◦", "•"})
    if (Name.size() >= Suffix.size() &&
        Name.substr(Name.size() - Suffix.size()) == Suffix)
      return std::string(Name.substr(0, Name.size() - Suffix.size()));
  return std::string(Name);
}

bool isStateNode(std::string_view Name) {
  return Name.rfind("a_", 0) == 0;
}

//===----------------------------------------------------------------------===//
// Figure 5: ShiftRows
//===----------------------------------------------------------------------===//

TEST(Fig5, OurAnalysisRecoversExactRotations) {
  Analyzed A = elaborate(workloads::shiftRowsStatements(), false);
  IFAOptions Opts;
  Opts.ProgramEndOutgoing = true;
  IFAResult R = analyzeInformationFlow(A.Program, A.CFG, Opts);
  Digraph State =
      R.Graph.mergeNodes(stripMarks).inducedSubgraph(isStateNode);

  EXPECT_EQ(State.numNodes(), 12u) << "a_1_0 .. a_3_3";
  // Row r is rotated left by r: a_r_((c+r)%4) -> a_r_c, and nothing else.
  unsigned Expected = 0;
  for (int Row = 1; Row <= 3; ++Row)
    for (int Col = 0; Col < 4; ++Col) {
      std::string From = "a_" + std::to_string(Row) + "_" +
                         std::to_string((Col + Row) % 4);
      std::string To =
          "a_" + std::to_string(Row) + "_" + std::to_string(Col);
      EXPECT_TRUE(State.hasEdge(From, To)) << From << " -> " << To;
      ++Expected;
    }
  EXPECT_EQ(State.numEdges(), Expected)
      << "exactly the 12 rotation edges of Figure 5(b)";
}

TEST(Fig5, KemmererSmearssAcrossRows) {
  Analyzed A = elaborate(workloads::shiftRowsStatements(), false);
  KemmererResult K = analyzeKemmerer(A.Program, A.CFG);
  Digraph State = K.Graph.inducedSubgraph(isStateNode);

  EXPECT_EQ(State.numNodes(), 12u);
  // The shared temporaries chain all rows into one strongly connected
  // component: a_r_c feeds t_{c-r}, every a_*_c is fed by t_c, and the
  // temps reach each other through the state bytes. The transitive closure
  // is the complete graph on the 12 state nodes, self-loops included.
  EXPECT_EQ(State.numEdges(), 144u)
      << "Figure 5(a): dense false-positive mess";
  EXPECT_TRUE(State.hasEdge("a_1_1", "a_2_0"));
  EXPECT_TRUE(State.hasEdge("a_3_3", "a_1_0"));
  EXPECT_TRUE(State.hasEdge("a_1_0", "a_1_0")) << "even self-flows";
}

TEST(Fig5, PrecisionGapIs132Edges) {
  Analyzed A = elaborate(workloads::shiftRowsStatements(), false);
  IFAOptions Opts;
  Opts.ProgramEndOutgoing = true;
  IFAResult R = analyzeInformationFlow(A.Program, A.CFG, Opts);
  KemmererResult K = analyzeKemmerer(A.Program, A.CFG);
  Digraph Ours =
      R.Graph.mergeNodes(stripMarks).inducedSubgraph(isStateNode);
  Digraph Base = K.Graph.inducedSubgraph(isStateNode);
  EXPECT_EQ(Base.edgesNotIn(Ours).size(), 132u)
      << "132 of Kemmerer's 144 edges are false positives";
  EXPECT_TRUE(Ours.edgesNotIn(Base).empty())
      << "our analysis reports no edge Kemmerer misses";
}

//===----------------------------------------------------------------------===//
// Other AES components (Section 6's "several programs")
//===----------------------------------------------------------------------===//

TEST(AesComponents, AddRoundKeyIsDiagonal) {
  Analyzed A = elaborate(workloads::addRoundKeyStatements(4), false);
  IFAResult R = analyzeInformationFlow(A.Program, A.CFG);
  for (int I = 0; I < 4; ++I) {
    std::string S = "s_" + std::to_string(I);
    std::string K = "k_" + std::to_string(I);
    EXPECT_TRUE(R.Graph.hasEdge(K, S));
    EXPECT_TRUE(R.Graph.hasEdge(S, S)) << "s_i := s_i xor k_i";
    for (int J = 0; J < 4; ++J) {
      if (J != I) {
        EXPECT_FALSE(R.Graph.hasEdge(K, "s_" + std::to_string(J)))
            << "keys do not cross bytes";
      }
    }
  }
}

TEST(AesComponents, SubBytesKeepsBytesSeparate) {
  Analyzed A = elaborate(workloads::subBytesStatements(3), false);
  IFAResult R = analyzeInformationFlow(A.Program, A.CFG);
  KemmererResult K = analyzeKemmerer(A.Program, A.CFG);
  // Each byte flows only to itself (through the shared temporary t).
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 3; ++J) {
      std::string From = "s_" + std::to_string(I);
      std::string To = "s_" + std::to_string(J);
      if (I == J)
        EXPECT_TRUE(R.Graph.hasEdge(From, To));
      else
        EXPECT_FALSE(R.Graph.hasEdge(From, To)) << From << "->" << To;
    }
  // Kemmerer conflates them through t.
  EXPECT_TRUE(K.Graph.hasEdge("s_0", "s_2"));
}

TEST(AesComponents, MixColumnsMixesWithinColumnOnly) {
  Analyzed A = elaborate(workloads::mixColumnsStatements(), false);
  IFAResult R = analyzeInformationFlow(A.Program, A.CFG);
  // Within a column everything mixes; across columns nothing flows.
  for (int C = 0; C < 4; ++C)
    for (int R1 = 0; R1 < 4; ++R1)
      for (int R2 = 0; R2 < 4; ++R2)
        EXPECT_TRUE(R.Graph.hasEdge(
            "s_" + std::to_string(R1) + "_" + std::to_string(C),
            "s_" + std::to_string(R2) + "_" + std::to_string(C)));
  EXPECT_FALSE(R.Graph.hasEdge("s_0_0", "s_0_1"));
  EXPECT_FALSE(R.Graph.hasEdge("s_3_2", "s_1_3"));
}

TEST(AesComponents, ShiftRowsDesignParsesAndAnalyzes) {
  Analyzed A = elaborate(workloads::shiftRowsDesign(), true);
  IFAResult R = analyzeInformationFlow(A.Program, A.CFG);
  // First-iteration flow: a_1_1 -> a_1_0 via t_0.
  EXPECT_TRUE(R.Graph.hasEdge("a_1_1", "a_1_0"));
  // The looped process composes rotations across delta cycles, but never
  // across rows.
  EXPECT_FALSE(R.Graph.hasEdge("a_1_1", "a_2_0"));
  EXPECT_FALSE(R.Graph.hasEdge("a_2_3", "a_3_1"));
}

//===----------------------------------------------------------------------===//
// Synthetic generators
//===----------------------------------------------------------------------===//

TEST(Synthetic, ChainPrecisionGap) {
  Analyzed A = elaborate(workloads::chainStatements(10), false);
  IFAResult R = analyzeInformationFlow(A.Program, A.CFG);
  KemmererResult K = analyzeKemmerer(A.Program, A.CFG);
  // Both closures agree here (nothing is overwritten): n(n+1)/2 edges.
  EXPECT_EQ(R.Graph.numEdges(), 55u);
  EXPECT_TRUE(R.Graph.sameFlows(K.Graph));
}

TEST(Synthetic, LadderKeepsGroupsApart) {
  Analyzed A = elaborate(workloads::tempReuseLadder(4, 3), false);
  IFAResult R = analyzeInformationFlow(A.Program, A.CFG);
  KemmererResult K = analyzeKemmerer(A.Program, A.CFG);
  // No cross-group edge in ours; Kemmerer has them.
  EXPECT_FALSE(R.Graph.hasEdge("a_0_0", "a_1_0"));
  EXPECT_TRUE(K.Graph.hasEdge("a_0_1", "a_1_0"));
  EXPECT_GT(K.Graph.edgesNotIn(R.Graph).size(), 0u);
}

TEST(Synthetic, PipelineDesignElaborates) {
  Analyzed A = elaborate(workloads::pipelineDesign(5), true);
  EXPECT_EQ(A.Program.Processes.size(), 5u);
  IFAResult R = analyzeInformationFlow(A.Program, A.CFG);
  EXPECT_TRUE(R.Graph.hasEdge("s_0", "s_1"));
  EXPECT_TRUE(R.Graph.hasEdge("s_4", "s_5"));
  EXPECT_TRUE(R.Graph.hasEdge("s_0", "s_5"))
      << "the pipeline genuinely forwards values end to end";
}

TEST(Synthetic, MeshAndRandomDesignsElaborate) {
  for (unsigned Procs : {1u, 2u, 4u})
    elaborate(workloads::syncMeshDesign(Procs, 2, 3), true);
  for (uint64_t Seed : {1ull, 7ull, 42ull})
    elaborate(workloads::randomDesign(Seed, 3, 8, 4), true);
  for (uint64_t Seed : {1ull, 9ull})
    elaborate(workloads::randomStatements(Seed, 20, 5), false);
}

TEST(Synthetic, AesCoreDesignElaborates) {
  Analyzed A = elaborate(workloads::aesCoreDesign(1), true);
  EXPECT_EQ(A.Program.Processes.size(), 1u);
  EXPECT_EQ(A.Program.Signals.size(), 49u) << "16 pt + 16 key + 16 ct + go";
  EXPECT_GT(A.Program.Variables.size(), 180u)
      << "44 key-schedule words x 4 bytes + state + temps";
}

TEST(Synthetic, AesCoreKeepsOnlyWhatTableSevenReads) {
  // Tables 4 and 5 keep the wait entries and RD† (29 233 pairs), not the
  // labels × defs rows: ~113 MB for one round before they were dropped.
  Analyzed A = elaborate(workloads::aesCoreDesign(1), true);
  IFAResult R = analyzeInformationFlow(A.Program, A.CFG);
  EXPECT_LE(R.RD.memoryBytes() + R.Active.memoryBytes(), size_t(8) << 20);
  size_t Dagger = 0;
  for (const PairSet &S : R.RDDagger)
    Dagger += S.size();
  EXPECT_EQ(Dagger, 29233u);
  EXPECT_EQ(R.Graph.numNodes(), 251u);
  EXPECT_EQ(R.Graph.numEdges(), 16896u);
}

TEST(Synthetic, AesCoreTenRoundsEndToEnd) {
  // Pinned once from the dense labels × defs solver this one replaced.
  Analyzed A = elaborate(workloads::aesCoreDesign(10), true);
  EXPECT_EQ(A.CFG.numLabels(), 103339u);
  IFAResult R = analyzeInformationFlow(A.Program, A.CFG);
  EXPECT_EQ(R.Graph.numNodes(), 251u);
  EXPECT_EQ(R.Graph.numEdges(), 23440u);
  size_t Dagger = 0;
  for (const PairSet &S : R.RDDagger)
    Dagger += S.size();
  EXPECT_EQ(Dagger, 104105u);
}

TEST(Synthetic, LeakyCoreHasTheAdvertisedLeak) {
  Analyzed A = elaborate(workloads::leakyCoreDesign(), true);
  IFAResult R = analyzeInformationFlow(A.Program, A.CFG);
  EXPECT_TRUE(R.Graph.hasEdge("key", "ready")) << "the covert channel";
  EXPECT_TRUE(R.Graph.hasEdge("key", "dout")) << "the legitimate flow";
  EXPECT_FALSE(R.Graph.hasEdge("din", "ready"));
}

} // namespace
