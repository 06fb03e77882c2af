//===- tests/cfg_test.cpp - Labels, flow and cross-flow -------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "cfg/CFG.h"
#include "oracle/Oracles.h"
#include "parse/Parser.h"
#include "support/Casting.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace vif;

namespace {

ElaboratedProgram elabStmts(const std::string &Source) {
  DiagnosticEngine Diags;
  StatementProgram STree = parseStatementProgram(Source, Diags);
  Stmt *S = STree.Body;
  auto P = elaborateStatements(*S, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  return std::move(*P);
}

ElaboratedProgram elabDesign(const std::string &Source) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(Source, Diags);
  auto P = elaborateDesign(F, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  return std::move(*P);
}

using Edge = std::pair<LabelId, LabelId>;

/// flow(ss) of \p Proc read off the CFG's successor rows: a set, listed
/// as sorted (from, to) label pairs.
std::vector<Edge> flowOf(const ProgramCFG &CFG, const ProcessCFG &Proc) {
  std::vector<Edge> Flow;
  for (LabelId L = Proc.FirstLabel; L < Proc.endLabel(); ++L)
    for (uint32_t To : CFG.succs(L))
      Flow.emplace_back(L, Proc.label(To));
  std::sort(Flow.begin(), Flow.end());
  return Flow;
}

/// The predecessors of \p L under \p Flow, ascending.
std::vector<LabelId> predecessors(const std::vector<Edge> &Flow, LabelId L) {
  std::vector<LabelId> Result;
  for (const auto &[From, To] : Flow)
    if (To == L)
      Result.push_back(From);
  return Result;
}

TEST(CFG, StraightLine) {
  ElaboratedProgram P = elabStmts("a := b; c := a; null;");
  ProgramCFG CFG = ProgramCFG::build(P);
  ASSERT_EQ(CFG.processes().size(), 1u);
  const ProcessCFG &Proc = CFG.process(0);
  EXPECT_EQ(CFG.numLabels(), 3u);
  EXPECT_EQ(Proc.Init, 1u);
  ASSERT_EQ(Proc.Finals.size(), 1u);
  EXPECT_EQ(Proc.Finals[0], 3u);
  // flow = {(1,2), (2,3)}.
  std::vector<Edge> Flow = flowOf(CFG, Proc);
  EXPECT_EQ(Flow.size(), 2u);
  EXPECT_EQ(predecessors(Flow, 2), std::vector<LabelId>{1});
  EXPECT_EQ(predecessors(Flow, 3), std::vector<LabelId>{2});
  EXPECT_TRUE(predecessors(Flow, 1).empty()) << "isolated entry";
}

TEST(CFG, IfProducesBranchAndJoin) {
  ElaboratedProgram P = elabStmts(
      "if c then a := b; else a := d; end if; e := a;");
  ProgramCFG CFG = ProgramCFG::build(P);
  const ProcessCFG &Proc = CFG.process(0);
  // Blocks: [c]^1, [a:=b]^2, [a:=d]^3, [e:=a]^4.
  EXPECT_EQ(CFG.numLabels(), 4u);
  EXPECT_EQ(CFG.block(1).K, CFGBlock::Kind::Cond);
  EXPECT_EQ(predecessors(flowOf(CFG, Proc), 4),
            (std::vector<LabelId>{2, 3}));
}

TEST(CFG, WhileLoopsBack) {
  ElaboratedProgram P = elabStmts("while c loop a := b; end loop; d := a;");
  ProgramCFG CFG = ProgramCFG::build(P);
  const ProcessCFG &Proc = CFG.process(0);
  // Blocks: [c]^1, [a:=b]^2, [d:=a]^3. Flow: (1,2), (2,1), (1,3)? No —
  // (1,3) is the exit edge: while finals = {1}, then (1,3).
  std::vector<Edge> Flow = flowOf(CFG, Proc);
  std::vector<Edge> Expect = {{1, 2}, {2, 1}, {1, 3}};
  for (const auto &E : Expect)
    EXPECT_NE(std::find(Flow.begin(), Flow.end(), E), Flow.end())
        << E.first << "->" << E.second;
  EXPECT_EQ(Flow.size(), 3u);
}

TEST(CFG, WaitLabelsCollected) {
  ElaboratedProgram P =
      elabStmts("s <= a; wait on s; b := a; wait on s; null;");
  ProgramCFG CFG = ProgramCFG::build(P);
  const ProcessCFG &Proc = CFG.process(0);
  EXPECT_EQ(Proc.WaitLabels, (std::vector<LabelId>{2, 4}));
  EXPECT_TRUE(CFG.isWaitLabel(2));
  EXPECT_FALSE(CFG.isWaitLabel(3));
}

TEST(CFG, LabelsAreProgramUniqueAcrossProcesses) {
  ElaboratedProgram P = elabDesign(R"(
    entity e is port(clk : in std_logic; q : out std_logic); end e;
    architecture rtl of e is
      signal s : std_logic;
    begin
      p1 : process begin s <= clk; wait on clk; end process p1;
      p2 : process begin q <= s; wait on s; end process p2;
    end rtl;)");
  ProgramCFG CFG = ProgramCFG::build(P);
  ASSERT_EQ(CFG.processes().size(), 2u);
  std::vector<LabelId> All;
  for (const ProcessCFG &Proc : CFG.processes())
    for (LabelId L = Proc.FirstLabel; L < Proc.endLabel(); ++L)
      All.push_back(L);
  std::vector<LabelId> Sorted = All;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_TRUE(std::adjacent_find(Sorted.begin(), Sorted.end()) ==
              Sorted.end())
      << "no label appears twice";
  EXPECT_EQ(All.size(), CFG.numLabels());
  // Every label maps back to its process.
  for (const ProcessCFG &Proc : CFG.processes())
    for (LabelId L = Proc.FirstLabel; L < Proc.endLabel(); ++L)
      EXPECT_EQ(CFG.processOf(L), Proc.ProcessId);
}

TEST(CFG, LoopedProcessHasIsolatedEntry) {
  ElaboratedProgram P = elabDesign(R"(
    entity e is port(clk : in std_logic; q : out std_logic); end e;
    architecture rtl of e is
    begin
      p : process begin q <= clk; wait on clk; end process p;
    end rtl;)");
  ProgramCFG CFG = ProgramCFG::build(P);
  const ProcessCFG &Proc = CFG.process(0);
  // null; while '1' loop (assign; wait) — entry is the null label with no
  // predecessors.
  std::vector<Edge> Flow = flowOf(CFG, Proc);
  EXPECT_TRUE(predecessors(Flow, Proc.Init).empty());
  EXPECT_EQ(CFG.block(Proc.Init).K, CFGBlock::Kind::Null);
  // The while condition is reentered from the wait.
  LabelId CondLabel = 0;
  for (LabelId L = Proc.FirstLabel; L < Proc.endLabel(); ++L)
    if (CFG.block(L).K == CFGBlock::Kind::Cond)
      CondLabel = L;
  ASSERT_NE(CondLabel, 0u);
  auto Preds = predecessors(Flow, CondLabel);
  EXPECT_EQ(Preds.size(), 2u) << "null entry + loop back from wait";
}

TEST(CFG, CrossFlowCompatibility) {
  ElaboratedProgram P = elabDesign(R"(
    entity e is port(clk : in std_logic; q : out std_logic); end e;
    architecture rtl of e is
      signal s : std_logic;
    begin
      p1 : process begin s <= clk; wait on clk; s <= s; wait on s;
      end process p1;
      p2 : process begin q <= s; wait on s; end process p2;
    end rtl;)");
  ProgramCFG CFG = ProgramCFG::build(P);
  std::vector<LabelId> W1 = CFG.process(0).WaitLabels;
  std::vector<LabelId> W2 = CFG.process(1).WaitLabels;
  ASSERT_EQ(W1.size(), 2u);
  ASSERT_EQ(W2.size(), 1u);
  // Same process, different labels: incompatible.
  EXPECT_FALSE(CFG.cfCompatible(W1[0], W1[1]));
  EXPECT_TRUE(CFG.cfCompatible(W1[0], W1[0]));
  // Different processes: compatible.
  EXPECT_TRUE(CFG.cfCompatible(W1[0], W2[0]));
  EXPECT_TRUE(CFG.cfCompatible(W1[1], W2[0]));
  // Non-wait labels are never compatible.
  EXPECT_FALSE(CFG.cfCompatible(CFG.process(0).Init, W2[0]));
}

const char *TwoWaitsThenOne = R"(
    entity e is port(clk : in std_logic; q : out std_logic); end e;
    architecture rtl of e is
      signal s : std_logic;
    begin
      p1 : process begin s <= clk; wait on clk; s <= s; wait on s;
      end process p1;
      p2 : process begin q <= s; wait on s; end process p2;
    end rtl;)";

TEST(CFG, CrossFlowTuples) {
  ElaboratedProgram P = elabDesign(TwoWaitsThenOne);
  ProgramCFG CFG = ProgramCFG::build(P);
  auto Tuples = crossFlowTuples(CFG);
  ASSERT_TRUE(Tuples.has_value());
  // |cf| = |WS(p1)| * |WS(p2)| = 2 * 1.
  ASSERT_EQ(Tuples->size(), 2u);
  for (const auto &T : *Tuples)
    EXPECT_EQ(T.size(), 2u);
  // Every tuple component pair must be cf-compatible.
  for (const auto &T : *Tuples)
    for (LabelId A : T)
      for (LabelId B : T)
        EXPECT_TRUE(CFG.cfCompatible(A, B));
}

TEST(CFG, CrossFlowTuplesRefusesPastTheBound) {
  ElaboratedProgram P = elabDesign(TwoWaitsThenOne);
  ProgramCFG CFG = ProgramCFG::build(P);
  EXPECT_FALSE(crossFlowTuples(CFG, 1).has_value());
  ASSERT_TRUE(crossFlowTuples(CFG, 2).has_value());
  EXPECT_EQ(crossFlowTuples(CFG, 2)->size(), 2u);
  // 3^64 tuples: refused up front, without overflowing the count.
  ElaboratedProgram MeshP = elabDesign(workloads::syncMeshDesign(64, 3, 4));
  ProgramCFG Mesh = ProgramCFG::build(MeshP);
  EXPECT_FALSE(crossFlowTuples(Mesh).has_value());
  EXPECT_FALSE(computeReachingDefsKillGenEnumerated(Mesh, {}).has_value());
}

TEST(CFG, ProcessWithoutWaitsExcludedFromCf) {
  ElaboratedProgram P = elabStmts("a := b; c := a;");
  ProgramCFG CFG = ProgramCFG::build(P);
  auto Tuples = crossFlowTuples(CFG);
  ASSERT_TRUE(Tuples.has_value());
  EXPECT_TRUE(Tuples->empty());
  EXPECT_TRUE(CFG.allWaitLabels().empty());
}

TEST(CFG, FreeVarsAndSignals) {
  ElaboratedProgram P = elabStmts("s <= a; wait on t until b = '1';");
  ProgramCFG CFG = ProgramCFG::build(P);
  const ProcessCFG &Proc = CFG.process(0);
  EXPECT_EQ(Proc.FreeVars.size(), 2u) << "a and b";
  EXPECT_EQ(Proc.FreeSigs.size(), 2u) << "s and t";
}

TEST(CFG, EmptyCompoundGetsLabel) {
  DiagnosticEngine Diags;
  CompoundStmt Empty({}, SourceRange());
  auto P = elaborateStatements(Empty, Diags);
  ASSERT_TRUE(P.has_value());
  ProgramCFG CFG = ProgramCFG::build(*P);
  EXPECT_EQ(CFG.numLabels(), 1u);
  EXPECT_EQ(CFG.block(1).K, CFGBlock::Kind::Null);
}

TEST(CFG, StmtLabelLookup) {
  ElaboratedProgram P = elabStmts("a := b; c := a;");
  ProgramCFG CFG = ProgramCFG::build(P);
  const auto *C = cast<CompoundStmt>(P.Processes[0].Body);
  EXPECT_EQ(CFG.labelOf(C->stmts()[0]), 1u);
  EXPECT_EQ(CFG.labelOf(C->stmts()[1]), 2u);
}

TEST(CFG, ProcessLabelsAreOneRun) {
  // A label's local index is its offset from the process's first label,
  // which needs each process's labels to be one contiguous run.
  ElaboratedProgram P = elabDesign(workloads::pipelineDesign(3));
  ProgramCFG CFG = ProgramCFG::build(P);
  LabelId Next = 1;
  for (const ProcessCFG &Proc : CFG.processes()) {
    EXPECT_EQ(Proc.FirstLabel, Next);
    for (uint32_t I = 0; I < Proc.NumLabels; ++I) {
      EXPECT_EQ(CFG.processOf(Next), Proc.ProcessId);
      EXPECT_EQ(Proc.localOf(Next), I);
      EXPECT_EQ(Proc.label(I), Next++);
    }
  }
  EXPECT_EQ(Next, CFG.numLabels() + 1);
}

TEST(CFG, PredecessorRowsTransposeSuccessorRows) {
  ElaboratedProgram P = elabDesign(workloads::pipelineDesign(3));
  ProgramCFG CFG = ProgramCFG::build(P);
  for (const ProcessCFG &Proc : CFG.processes()) {
    std::vector<Edge> Backward;
    for (LabelId L = Proc.FirstLabel; L < Proc.endLabel(); ++L)
      for (uint32_t From : CFG.preds(L))
        Backward.emplace_back(Proc.label(From), L);
    std::sort(Backward.begin(), Backward.end());
    EXPECT_EQ(Backward, flowOf(CFG, Proc)) << "process " << Proc.ProcessId;
  }
}

TEST(CFG, ReversePostorder) {
  // [c]^1, [a:=b]^2, [d:=a]^3 with flow (1,2), (2,1), (1,3): the DFS from
  // 1 finishes 2, then 3, then 1.
  ElaboratedProgram W = elabStmts("while c loop a := b; end loop; d := a;");
  ProgramCFG WC = ProgramCFG::build(W);
  ProgramCFG::Range Order = WC.rpo(WC.process(0));
  EXPECT_EQ(std::vector<uint32_t>(Order.begin(), Order.end()),
            (std::vector<uint32_t>{0, 2, 1}));

  // In general each process's order is a permutation of its local labels
  // that starts at init, and in structured code only a loop's way back to
  // its test leads to an earlier label.
  std::vector<ElaboratedProgram> Programs;
  Programs.push_back(elabDesign(workloads::pipelineDesign(3)));
  Programs.push_back(elabDesign(workloads::shiftRowsDesign()));
  Programs.push_back(elabDesign(workloads::randomDesign(11, 3, 24, 4)));
  Programs.push_back(elabStmts("while a loop while b loop c := d; end loop; "
                               "if e then f := g; end if; end loop; h := f;"));
  for (const ElaboratedProgram &P : Programs) {
    ProgramCFG CFG = ProgramCFG::build(P);
    for (const ProcessCFG &Proc : CFG.processes()) {
      ProgramCFG::Range RPO = CFG.rpo(Proc);
      ASSERT_EQ(RPO.size(), Proc.NumLabels);
      EXPECT_EQ(RPO[0], Proc.localOf(Proc.Init));
      std::vector<uint32_t> Pos(Proc.NumLabels, Proc.NumLabels);
      for (uint32_t Q = 0; Q < RPO.size(); ++Q)
        Pos[RPO[Q]] = Q;
      EXPECT_EQ(std::count(Pos.begin(), Pos.end(), Proc.NumLabels), 0);
      for (const auto &[From, To] : flowOf(CFG, Proc))
        if (Pos[Proc.localOf(To)] <= Pos[Proc.localOf(From)]) {
          const CFGBlock &B = CFG.block(To);
          EXPECT_TRUE(B.K == CFGBlock::Kind::Cond &&
                      B.S->kind() == Stmt::Kind::While)
              << From << "->" << To << " leads back, but not to a loop test";
        }
    }
  }
}

} // namespace
