//===- tests/ifa_test.cpp - Information Flow closure (Tables 7-9) ---------===//
//
// Part of the vif project; see DESIGN.md for the paper reference. The tests
// here reproduce the paper's running examples exactly: Figure 3 (programs
// (a) and (b)), Figure 4 (the improved analysis of (b)) and the precision
// claims of Sections 5.2/5.3.
//
//===----------------------------------------------------------------------===//

#include "ifa/InformationFlow.h"
#include "ifa/Kemmerer.h"
#include "ifa/Policy.h"
#include "ifa/Report.h"
#include "parse/Parser.h"

#include <gtest/gtest.h>

using namespace vif;

namespace {

struct Analyzed {
  ElaboratedProgram Program;
  ProgramCFG CFG;
  IFAResult R;
};

Analyzed analyzeStmts(const std::string &Source, IFAOptions Opts = {}) {
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram(Source, Diags);
  auto P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  Analyzed A{std::move(*P), {}, {}};
  A.CFG = ProgramCFG::build(A.Program);
  A.R = analyzeInformationFlow(A.Program, A.CFG, Opts);
  return A;
}

Analyzed analyzeDesign(const std::string &Source, IFAOptions Opts = {}) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(Source, Diags);
  auto P = elaborateDesign(F, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  Analyzed A{std::move(*P), {}, {}};
  A.CFG = ProgramCFG::build(A.Program);
  A.R = analyzeInformationFlow(A.Program, A.CFG, Opts);
  return A;
}

//===----------------------------------------------------------------------===//
// Figure 3: the running examples
//===----------------------------------------------------------------------===//

TEST(Fig3, ProgramA_NonTransitive) {
  // (a): [c := b]^1; [b := a]^2. Flow b -> c and a -> b, but NOT a -> c:
  // by the time b holds a's value, c has already been written.
  Analyzed A = analyzeStmts("c := b; b := a;");
  EXPECT_TRUE(A.R.Graph.hasEdge("b", "c"));
  EXPECT_TRUE(A.R.Graph.hasEdge("a", "b"));
  EXPECT_FALSE(A.R.Graph.hasEdge("a", "c"))
      << "the non-transitivity the paper's abstract advertises";
  EXPECT_EQ(A.R.Graph.numEdges(), 2u);
  EXPECT_FALSE(A.R.Graph.isTransitive());
}

TEST(Fig3, ProgramB_TransitiveFlowIsReal) {
  // (b): [b := a]^1; [c := b]^2. Here a -> c genuinely flows.
  Analyzed A = analyzeStmts("b := a; c := b;");
  EXPECT_TRUE(A.R.Graph.hasEdge("a", "b"));
  EXPECT_TRUE(A.R.Graph.hasEdge("b", "c"));
  EXPECT_TRUE(A.R.Graph.hasEdge("a", "c"));
  EXPECT_EQ(A.R.Graph.numEdges(), 3u);
}

TEST(Fig3, KemmererCannotSeparateAandB) {
  // Section 5.2: the transitive-closure method yields Figure 3(b) for BOTH
  // programs — flow-insensitivity.
  DiagnosticEngine Diags;
  for (const char *Source : {"c := b; b := a;", "b := a; c := b;"}) {
    StatementProgram Prog = parseStatementProgram(Source, Diags);
    auto P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
    ASSERT_TRUE(P.has_value());
    ProgramCFG CFG = ProgramCFG::build(*P);
    KemmererResult K = analyzeKemmerer(*P, CFG);
    EXPECT_TRUE(K.Graph.hasEdge("a", "b"));
    EXPECT_TRUE(K.Graph.hasEdge("b", "c"));
    EXPECT_TRUE(K.Graph.hasEdge("a", "c"))
        << "Kemmerer adds the spurious edge for (a) and the real one for "
           "(b) alike";
  }
}

TEST(Fig3, OurAnalysisIsNeverLessPreciseHere) {
  Analyzed A = analyzeStmts("c := b; b := a;");
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram("c := b; b := a;", Diags);
  auto P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  ProgramCFG CFG = ProgramCFG::build(*P);
  KemmererResult K = analyzeKemmerer(*P, CFG);
  EXPECT_TRUE(A.R.Graph.edgesNotIn(K.Graph).empty())
      << "our edges are a subset of Kemmerer's";
  EXPECT_EQ(K.Graph.edgesNotIn(A.R.Graph).size(), 1u);
}

//===----------------------------------------------------------------------===//
// Figure 4: the improved analysis
//===----------------------------------------------------------------------===//

TEST(Fig4, ImprovedAnalysisOfProgramB) {
  // Figure 4(b): with incoming (n◦) and outgoing (n•) nodes, the initial
  // value of a flows to every final value, but the initial value of b is
  // overwritten before anyone reads it, so b◦ flows nowhere.
  IFAOptions Opts;
  Opts.ProgramEndOutgoing = true;
  Analyzed A = analyzeStmts("b := a; c := b;", Opts);
  Digraph Interface = A.R.interfaceGraph();
  EXPECT_TRUE(Interface.hasEdge("a◦", "a•"));
  EXPECT_TRUE(Interface.hasEdge("a◦", "b•"));
  EXPECT_TRUE(Interface.hasEdge("a◦", "c•"));
  EXPECT_FALSE(Interface.hasEdge("b◦", "c•"))
      << "\"the initial value of the variable b cannot be read from the "
         "variable c\" (Section 5.3)";
  EXPECT_FALSE(Interface.hasEdge("b◦", "b•"));
  EXPECT_FALSE(Interface.hasEdge("c◦", "c•"));
  EXPECT_EQ(Interface.numEdges(), 3u);
  EXPECT_EQ(Interface.numNodes(), 6u) << "a◦ a• b◦ b• c◦ c•";
}

TEST(Fig4, BasicGraphStillSaysBFlowsToC) {
  // Figure 4(a): without the improvement, b -> c is reported (correct for
  // the *final* value of b, overly coarse for its initial value).
  Analyzed A = analyzeStmts("b := a; c := b;");
  EXPECT_TRUE(A.R.Graph.hasEdge("b", "c"));
}

TEST(Fig4, SelfOverwriteKeepsIncomingFlow) {
  // x := x and '1' reads the initial x: x◦ -> x•.
  IFAOptions Opts;
  Opts.ProgramEndOutgoing = true;
  Analyzed A = analyzeStmts("x := x and y;", Opts);
  Digraph Interface = A.R.interfaceGraph();
  EXPECT_TRUE(Interface.hasEdge("x◦", "x•"));
  EXPECT_TRUE(Interface.hasEdge("y◦", "x•"));
  EXPECT_TRUE(Interface.hasEdge("y◦", "y•")) << "y never written";
}

//===----------------------------------------------------------------------===//
// Section 7 / Open Challenge F: overwritten secrets
//===----------------------------------------------------------------------===//

TEST(Precision, OverwrittenSecretDoesNotLeak) {
  // "the improved information flow analysis correctly analyses programs
  // that would incorrectly be rejected by typical security-type systems"
  // — the secret is loaded into x but overwritten before x escapes.
  Analyzed A = analyzeStmts("x := secret; x := pub; escape := x;");
  EXPECT_FALSE(A.R.Graph.hasEdge("secret", "escape"));
  EXPECT_TRUE(A.R.Graph.hasEdge("pub", "escape"));
  EXPECT_TRUE(A.R.Graph.hasEdge("secret", "x"))
      << "the transient flow into x itself is still reported";
}

TEST(Precision, ImplicitFlowIsReported) {
  Analyzed A = analyzeStmts(
      "if secret then x := '1'; else x := '0'; end if; escape := x;");
  EXPECT_TRUE(A.R.Graph.hasEdge("secret", "x"));
  EXPECT_TRUE(A.R.Graph.hasEdge("secret", "escape"))
      << "branch-condition flows survive the closure";
}

TEST(Precision, BranchLocalTemporariesDoNotCrossTalk) {
  // t is reused in both branches; values never cross between x and y.
  Analyzed A = analyzeStmts(
      "t := a; x := t; t := b; y := t;");
  EXPECT_TRUE(A.R.Graph.hasEdge("a", "x"));
  EXPECT_TRUE(A.R.Graph.hasEdge("b", "y"));
  EXPECT_FALSE(A.R.Graph.hasEdge("a", "y")) << "killed by t := b";
  EXPECT_FALSE(A.R.Graph.hasEdge("b", "x"));
}

//===----------------------------------------------------------------------===//
// Signals, synchronization and the [Synchronized values] rule
//===----------------------------------------------------------------------===//

const char *TwoPortHeader =
    "entity e is port(clk : in std_logic; secret : in std_logic; "
    "q : out std_logic); end e;\n";

TEST(Signals, CrossProcessFlowThroughDelta) {
  // p1 drives s from secret; p2 copies s to q. Information genuinely
  // crosses the synchronization: secret -> s -> q, and the composed
  // secret -> q flow exists because the pipeline really forwards it.
  Analyzed A = analyzeDesign(std::string(TwoPortHeader) + R"(
    architecture rtl of e is
      signal s : std_logic;
    begin
      p1 : process begin s <= secret; wait on clk; end process p1;
      p2 : process
        variable x : std_logic;
      begin
        x := s;
        q <= x;
        wait on clk;
      end process p2;
    end rtl;)");
  EXPECT_TRUE(A.R.Graph.hasEdge("secret", "s"));
  EXPECT_TRUE(A.R.Graph.hasEdge("s", "q")) << "present value read into q";
  EXPECT_TRUE(A.R.Graph.hasEdge("secret", "q"))
      << "[Synchronized values] composes the flow across the delta cycle";
}

TEST(Signals, OverwrittenActiveValueDoesNotLeak) {
  // p1 assigns secret to s but overwrites the *active* value with '0'
  // before the synchronization: the secret never becomes visible.
  Analyzed A = analyzeDesign(std::string(TwoPortHeader) + R"(
    architecture rtl of e is
      signal s : std_logic;
    begin
      p1 : process begin s <= secret; s <= '0'; wait on clk;
      end process p1;
      p2 : process
        variable x : std_logic;
      begin
        x := s;
        q <= x;
        wait on clk;
      end process p2;
    end rtl;)");
  EXPECT_TRUE(A.R.Graph.hasEdge("secret", "s"))
      << "the transient write is a flow into s's driver";
  EXPECT_FALSE(A.R.Graph.hasEdge("secret", "q"))
      << "the active-value kill (Table 4) stops the leak at the sync";
  EXPECT_FALSE(A.R.Graph.hasEdge("secret", "x"));
}

TEST(Signals, WaitConditionLeaksIntoSubsequentReads) {
  // Table 6 [Synchronization]: the waited-on set and until-condition are
  // read at the wait; whoever reads a signal defined by that wait observes
  // them.
  Analyzed A = analyzeDesign(std::string(TwoPortHeader) + R"(
    architecture rtl of e is
      signal s : std_logic;
    begin
      p1 : process begin s <= clk; wait on clk; end process p1;
      p2 : process
        variable x : std_logic;
      begin
        wait on s until secret = '1';
        x := s;
        q <= x;
        wait on clk;
      end process p2;
    end rtl;)");
  EXPECT_TRUE(A.R.Graph.hasEdge("secret", "q"))
      << "synchronizing on a secret-gated condition reveals the secret";
}

TEST(Signals, PipelineComposesAcrossDeltas) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(R"(
    entity pipe is port(s_0 : in std_logic; s_1 : inout std_logic;
                        s_2 : out std_logic); end pipe;
    architecture rtl of pipe is
    begin
      a : process begin s_1 <= s_0; wait on s_0; end process a;
      b : process begin s_2 <= s_1; wait on s_1; end process b;
    end rtl;)",
                             Diags);
  auto P = elaborateDesign(F, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ProgramCFG CFG = ProgramCFG::build(*P);
  IFAResult R = analyzeInformationFlow(*P, CFG);
  EXPECT_TRUE(R.Graph.hasEdge("s_0", "s_1"));
  EXPECT_TRUE(R.Graph.hasEdge("s_1", "s_2"));
  EXPECT_TRUE(R.Graph.hasEdge("s_0", "s_2"))
      << "two delta cycles really forward s_0 into s_2";
}

//===----------------------------------------------------------------------===//
// Table 9 on designs: ports get interface nodes
//===----------------------------------------------------------------------===//

TEST(Improved, InPortsGetIncomingNodes) {
  IFAOptions Opts;
  Opts.Improved = true;
  Analyzed A = analyzeDesign(std::string(TwoPortHeader) + R"(
    architecture rtl of e is
      signal s : std_logic;
    begin
      p1 : process begin s <= secret; wait on clk; end process p1;
      p2 : process
        variable x : std_logic;
      begin
        x := s;
        q <= x;
        wait on clk;
      end process p2;
    end rtl;)",
                             Opts);
  // q is an out port: q• exists and receives the flows that reach q's
  // driver; secret flows out.
  EXPECT_TRUE(A.R.Graph.hasNode("q•"));
  EXPECT_TRUE(A.R.Graph.hasEdge("s", "q•"));
  EXPECT_TRUE(A.R.Graph.hasEdge("secret", "q•"));
  // secret is an in port: reading its present value after a sync point
  // reads the environment's value secret◦.
  EXPECT_TRUE(A.R.Graph.hasNode("secret◦"));
}

TEST(Improved, IncomingPortValueReachesOutputs) {
  IFAOptions Opts;
  Opts.Improved = true;
  Analyzed A = analyzeDesign(R"(
    entity e is port(din : in std_logic; q : out std_logic); end e;
    architecture rtl of e is
    begin
      p : process
        variable x : std_logic;
      begin
        wait on din;
        x := din;
        q <= x;
        wait on din;
      end process p;
    end rtl;)",
                             Opts);
  EXPECT_TRUE(A.R.Graph.hasEdge("din◦", "q•"))
      << "environment input flows to environment output";
}

//===----------------------------------------------------------------------===//
// The Hsieh-Levitan baseline (paper Section 1 related work)
//===----------------------------------------------------------------------===//

TEST(HsiehLevitan, MissesMidProcessSynchronizedLeak) {
  // p1 drives s from secret before its FIRST wait but overwrites the
  // driver before the process ends. The leak through the first
  // synchronization is real — p2 may read it — and our analysis reports
  // it. The Hsieh-Levitan-style RD samples other processes' definitions
  // only at process ends and loses it: "the presented analysis is only
  // correct for processes with one synchronization point" (Section 1).
  const char *Source = R"(
    entity e is port(clk : in std_logic; secret : in std_logic;
                     q : out std_logic); end e;
    architecture rtl of e is
      signal s : std_logic;
    begin
      p1 : process
      begin
        s <= secret;
        wait on clk;
        s <= '0';
        wait on clk;
      end process p1;
      p2 : process
        variable x : std_logic;
      begin
        x := s;
        q <= x;
        wait on clk;
      end process p2;
    end rtl;)";
  Analyzed Ours = analyzeDesign(Source);
  EXPECT_TRUE(Ours.R.Graph.hasEdge("secret", "q"))
      << "the first-sync leak is real and must be reported";

  IFAOptions HL;
  HL.RD.HsiehLevitanCrossFlow = true;
  Analyzed Baseline = analyzeDesign(Source, HL);
  EXPECT_FALSE(Baseline.R.Graph.hasEdge("secret", "q"))
      << "the end-of-process sampling loses the mid-process definition — "
         "the unsoundness the paper points out";
}

TEST(HsiehLevitan, AgreesOnSingleWaitProcesses) {
  // With exactly one synchronization point per process the two cross-flow
  // rules coincide (the paper: "only correct for processes with one
  // synchronization point").
  const char *Source = R"(
    entity e is port(clk : in std_logic; secret : in std_logic;
                     q : out std_logic); end e;
    architecture rtl of e is
      signal s : std_logic;
    begin
      p1 : process begin s <= secret; wait on clk; end process p1;
      p2 : process
        variable x : std_logic;
      begin
        x := s;
        q <= x;
        wait on clk;
      end process p2;
    end rtl;)";
  Analyzed Ours = analyzeDesign(Source);
  IFAOptions HL;
  HL.RD.HsiehLevitanCrossFlow = true;
  Analyzed Baseline = analyzeDesign(Source, HL);
  EXPECT_TRUE(Ours.R.Graph.sameFlows(Baseline.R.Graph));
}

//===----------------------------------------------------------------------===//
// RMgl structure
//===----------------------------------------------------------------------===//

TEST(Closure, RMloSubsetOfRMgl) {
  Analyzed A = analyzeStmts(
      "if c then x := a; end if; y := x; s <= y; wait on s; z := s;");
  for (const RMEntry &E : A.R.RMlo)
    EXPECT_TRUE(A.R.RMgl.contains(E.N, E.L, E.A))
        << "[Initialization] rule";
}

TEST(Closure, LabelIndexedViewMatchesMatrix) {
  IFAOptions Opts;
  Opts.Improved = true;
  Opts.ProgramEndOutgoing = true;
  Analyzed A = analyzeStmts(
      "if c then x := a; end if; y := x; s <= y; wait on s; z := s;", Opts);
  LabelIndexedRM View(A.R.RMgl);
  // The view is the same relation, label-indexed: every (l, A) range must
  // reproduce resourcesAt.
  size_t Total = 0;
  for (LabelId L = 0; L <= View.maxLabel(); ++L)
    for (Access Acc : {Access::M0, Access::M1, Access::R0, Access::R1}) {
      std::vector<Resource> FromSet = A.R.RMgl.resourcesAt(L, Acc);
      LabelIndexedRM::RawRun FromView = View.at(L, Acc);
      ASSERT_EQ(FromView.size(), FromSet.size());
      for (size_t I = 0; I < FromSet.size(); ++I)
        EXPECT_EQ(FromView[I], FromSet[I].raw());
      Total += FromView.size();
    }
  EXPECT_EQ(Total, A.R.RMgl.size());
}

TEST(Closure, CopiesAreR0Only) {
  Analyzed A = analyzeStmts("b := a; c := b;");
  // RMgl \ RMlo contains only R0 entries.
  for (const RMEntry &E : A.R.RMgl) {
    if (!A.R.RMlo.contains(E.N, E.L, E.A)) {
      EXPECT_EQ(E.A, Access::R0);
    }
  }
}

TEST(Closure, RDDaggerRestrictsToActualReads) {
  Analyzed A = analyzeStmts("x := a; y := b;");
  // RD†(2) only contains b's definition — x's def reaches label 2 but is
  // not read there.
  for (const DefPair &D : A.R.RDDagger[2])
    EXPECT_TRUE(A.R.RMlo.contains(D.N, 2, Access::R0));
}

TEST(Closure, DeepChainStaysLinear) {
  // x5 sees x0 but x_i never sees x_j for j > i; count edges exactly.
  std::string Source;
  for (int I = 0; I <= 5; ++I)
    Source += "variable x_" + std::to_string(I) + " : std_logic;\n";
  for (int I = 1; I <= 5; ++I)
    Source += "x_" + std::to_string(I) + " := x_" + std::to_string(I - 1) +
              ";\n";
  Analyzed A = analyzeStmts(Source);
  // Every x_j -> x_i for j < i exists (the values genuinely flow), and
  // nothing else: n(n+1)/2 = 15 edges for n = 5.
  EXPECT_EQ(A.R.Graph.numEdges(), 15u);
  EXPECT_TRUE(A.R.Graph.hasEdge("x_0", "x_5"));
  EXPECT_FALSE(A.R.Graph.hasEdge("x_5", "x_0"));
}

TEST(Closure, KemmererAgreesWhenNothingIsOverwritten) {
  // With no kills in play, both methods coincide.
  Analyzed A = analyzeStmts("b := a; c := b;");
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram("b := a; c := b;", Diags);
  auto P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  ProgramCFG CFG = ProgramCFG::build(*P);
  KemmererResult K = analyzeKemmerer(*P, CFG);
  EXPECT_TRUE(A.R.Graph.sameFlows(K.Graph));
}

//===----------------------------------------------------------------------===//
// Policy checking
//===----------------------------------------------------------------------===//

TEST(Policy, EdgeAndReachabilitySemantics) {
  Analyzed A = analyzeStmts("c := b; b := a;");
  FlowPolicy P;
  P.Forbidden.push_back({"a", "c"});
  EXPECT_TRUE(checkFlowPolicy(A.R.Graph, P).empty())
      << "no edge a -> c: the policy holds under flow semantics";
  P.ConservativeReachability = true;
  auto V = checkFlowPolicy(A.R.Graph, P);
  ASSERT_EQ(V.size(), 1u);
  EXPECT_TRUE(V[0].ViaPath)
      << "a conservative auditor still flags the path a -> b -> c";
}

TEST(Policy, DirectViolation) {
  Analyzed A = analyzeStmts("leak := secret;");
  FlowPolicy P;
  P.Forbidden.push_back({"secret", "leak"});
  auto V = checkFlowPolicy(A.R.Graph, P);
  ASSERT_EQ(V.size(), 1u);
  EXPECT_FALSE(V[0].ViaPath);
}

//===----------------------------------------------------------------------===//
// Audit report
//===----------------------------------------------------------------------===//

TEST(Report, ContainsStatsInterfaceAndVerdict) {
  IFAOptions Opts;
  Opts.Improved = true;
  Analyzed A = analyzeDesign(std::string(TwoPortHeader) + R"(
    architecture rtl of e is
      signal s : std_logic;
    begin
      p1 : process begin s <= secret; wait on clk; end process p1;
      p2 : process
        variable x : std_logic;
      begin
        x := s;
        q <= x;
        wait on clk;
      end process p2;
    end rtl;)",
                             Opts);
  ReportOptions RepOpts;
  RepOpts.Policy.Forbidden.push_back({"secret", "q"});
  RepOpts.Policy.Forbidden.push_back({"clk", "secret"});
  std::string Text = auditReport(A.Program, A.R.Graph, RepOpts);

  EXPECT_NE(Text.find("transitive"), std::string::npos)
      << "transitivity verdict present (this particular graph happens to "
         "be transitive: every composed flow is real)";
  EXPECT_NE(Text.find("[in port]"), std::string::npos);
  EXPECT_NE(Text.find("[out port]"), std::string::npos);
  // Interface section shows secret reaching q.
  EXPECT_NE(Text.find("secret -> q"), std::string::npos);
  // Policy verdicts: the secret->q rule is violated, clk->secret holds.
  EXPECT_NE(Text.find("VIOLATED secret -> q"), std::string::npos);
  EXPECT_NE(Text.find("ok       clk -> secret"), std::string::npos);
  EXPECT_NE(Text.find("verdict: FAIL"), std::string::npos);
}

TEST(Report, PassVerdictAndIsolatedNodes) {
  Analyzed A = analyzeStmts("x := a; dead := dead;");
  ReportOptions RepOpts;
  RepOpts.Policy.Forbidden.push_back({"a", "dead"});
  std::string Text = auditReport(A.Program, A.R.Graph, RepOpts);
  EXPECT_NE(Text.find("verdict: PASS"), std::string::npos);
  EXPECT_NE(Text.find("dead: in=1 out=1"), std::string::npos)
      << "self-flow counts on both sides";
}

TEST(Report, OmitsPolicySectionWhenEmpty) {
  Analyzed A = analyzeStmts("b := a;");
  std::string Text = auditReport(A.Program, A.R.Graph);
  EXPECT_EQ(Text.find("-- policy"), std::string::npos);
  EXPECT_NE(Text.find("a -> b"), std::string::npos);
}

} // namespace
