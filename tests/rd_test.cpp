//===- tests/rd_test.cpp - Reaching Definitions (paper Tables 4-5) --------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracles.h"
#include "parse/Parser.h"
#include "rd/Incremental.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

using namespace vif;

namespace {

struct Analyzed {
  ElaboratedProgram Program;
  ProgramCFG CFG;
  ActiveSignalsResult Active;
  ReachingDefsResult RD;
};

/// Tables 4 and 5 through the production driver, cold.
void analyze(Analyzed &A, const ReachingDefsOptions &Opts) {
  A.CFG = ProgramCFG::build(A.Program);
  ProcessArtifactTable Table;
  analyzeIncremental(A.Program, A.CFG, Opts, Table, A.Active, A.RD);
}

Analyzed analyzeStmts(const std::string &Source,
                      ReachingDefsOptions Opts = {}) {
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram(Source, Diags);
  auto P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  Analyzed A{std::move(*P), {}, {}, {}};
  analyze(A, Opts);
  return A;
}

Analyzed analyzeDesign(const std::string &Source,
                       ReachingDefsOptions Opts = {}) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(Source, Diags);
  auto P = elaborateDesign(F, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  Analyzed A{std::move(*P), {}, {}, {}};
  analyze(A, Opts);
  return A;
}

unsigned sigId(const ElaboratedProgram &P, const std::string &Name) {
  for (const ElabSignal &S : P.Signals)
    if (S.Name == Name)
      return S.Id;
  ADD_FAILURE() << "no signal " << Name;
  return 0;
}

unsigned varId(const ElaboratedProgram &P, const std::string &Name) {
  for (const ElabVariable &V : P.Variables)
    if (V.Name == Name)
      return V.Id;
  ADD_FAILURE() << "no variable " << Name;
  return 0;
}

DefPair sig(const ElaboratedProgram &P, const std::string &Name,
            LabelId L) {
  return DefPair{Resource::signal(sigId(P, Name)), L};
}

DefPair var(const ElaboratedProgram &P, const std::string &Name,
            LabelId L) {
  return DefPair{Resource::variable(varId(P, Name)), L};
}

//===----------------------------------------------------------------------===//
// Active signals (Table 4)
//===----------------------------------------------------------------------===//

TEST(ActiveSignals, GenAndKillByWholeAssignment) {
  // [s <= a]^1 [t <= a]^2 [s <= b]^3 [null]^4
  Analyzed A = analyzeStmts("s <= a; t <= a; s <= b; null;");
  EXPECT_TRUE(A.Active.MayExit[1].contains(sig(A.Program, "s", 1)));
  EXPECT_TRUE(A.Active.MayExit[2].contains(sig(A.Program, "t", 2)));
  // The second assignment to s kills the first.
  EXPECT_FALSE(A.Active.MayExit[3].contains(sig(A.Program, "s", 1)));
  EXPECT_TRUE(A.Active.MayExit[3].contains(sig(A.Program, "s", 3)));
  EXPECT_TRUE(A.Active.MayExit[3].contains(sig(A.Program, "t", 2)));
  // Straight-line code: must == may.
  EXPECT_TRUE(A.Active.MustExit[3] == A.Active.MayExit[3]);
}

TEST(ActiveSignals, WaitKillsAllActiveDefs) {
  // [s <= a]^1 [wait on s]^2 [null]^3
  Analyzed A = analyzeStmts("s <= a; wait on s; null;");
  EXPECT_TRUE(A.Active.MayEntry[2].contains(sig(A.Program, "s", 1)));
  EXPECT_TRUE(A.Active.MayExit[2].empty())
      << "synchronization consumes every active value";
}

TEST(ActiveSignals, SliceAssignmentGeneratesWithoutKilling) {
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram(
      "signal v : std_logic_vector(3 downto 0);\n"
      "variable a : std_logic_vector(3 downto 0);\n"
      "variable b : std_logic_vector(1 downto 0);\n"
      "v <= a;\n"              // l1
      "v(1 downto 0) <= b;\n"  // l2: gen only
      "null;",                 // l3
      Diags);
  auto P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ProgramCFG CFG = ProgramCFG::build(*P);
  ActiveSignalsResult Active = analyzeActiveSignals(*P, CFG);
  // Both definitions reach l3: the slice write does not overwrite the
  // whole active value (Table 4 has no kill for slice assignments).
  EXPECT_TRUE(Active.MayEntry[3].contains(sig(*P, "v", 1)));
  EXPECT_TRUE(Active.MayEntry[3].contains(sig(*P, "v", 2)));
}

TEST(ActiveSignals, MayVsMustAtJoin) {
  // if c then [s <= a]^2 else [null]^3; [null]^5 — s may be active at the
  // join but is not guaranteed to be.
  Analyzed A = analyzeStmts(
      "if c then s <= a; else null; end if; null;");
  // Labels: [c]^1 [s<=a]^2 [null]^3 [null]^4 (join)
  LabelId Join = 4;
  EXPECT_TRUE(A.Active.MayEntry[Join].contains(sig(A.Program, "s", 2)));
  EXPECT_FALSE(A.Active.MustEntry[Join].contains(sig(A.Program, "s", 2)));
}

TEST(ActiveSignals, MustSurvivesWhenBothBranchesAssign) {
  Analyzed A = analyzeStmts(
      "if c then s <= a; else s <= b; end if; null;");
  // Labels: [c]^1 [s<=a]^2 [s<=b]^3 [null]^4.
  EXPECT_TRUE(A.Active.MayEntry[4].contains(sig(A.Program, "s", 2)));
  EXPECT_TRUE(A.Active.MayEntry[4].contains(sig(A.Program, "s", 3)));
  // Neither branch's definition MUST reach (they are alternatives), but
  // the *signal* s must be active via one of them. fst(must) must contain
  // s — the dotted intersection keeps per-(signal,label) pairs, so the
  // pair itself is absent while the union trick in RDcf uses fst().
  EXPECT_FALSE(A.Active.MustEntry[4].contains(sig(A.Program, "s", 2)));
  EXPECT_FALSE(A.Active.MustEntry[4].contains(sig(A.Program, "s", 3)));
}

TEST(ActiveSignals, LoopAccumulatesMayDefs) {
  Analyzed A = analyzeStmts(
      "while c loop s <= a; end loop; null;");
  // Labels: [c]^1 [s<=a]^2 [null]^3.
  EXPECT_TRUE(A.Active.MayEntry[1].contains(sig(A.Program, "s", 2)))
      << "back edge feeds the loop header";
  EXPECT_FALSE(A.Active.MustEntry[1].contains(sig(A.Program, "s", 2)))
      << "zero-trip execution may bypass the assignment";
  EXPECT_TRUE(A.Active.MayEntry[3].contains(sig(A.Program, "s", 2)));
}

TEST(ActiveSignals, MustIsSubsetOfMay) {
  Analyzed A = analyzeStmts(
      "if c then s <= a; t <= b; else s <= b; end if;"
      " while d loop t <= a; end loop; u <= t; null;");
  for (LabelId L = 1; L <= A.CFG.numLabels(); ++L) {
    for (const DefPair &D : A.Active.MustEntry[L])
      EXPECT_TRUE(A.Active.MayEntry[L].contains(D))
          << "RD∩ ⊆ RD∪ violated at label " << L;
    for (const DefPair &D : A.Active.MustExit[L])
      EXPECT_TRUE(A.Active.MayExit[L].contains(D));
  }
}

/// Pins the absolute iteration counts (labels × rounds of the round-robin
/// solveGenKill) of Tables 4 and 5, for the full-row view (cold driver and
/// whole-program Table 4) and for production (analyzeInformationFlow,
/// whose Table 5 domain is pruned to the resources read, which takes as
/// many rounds here, and whose Table 4 keeps nothing, and so solves
/// nothing, in a process without waits: \p ProdActive), so a change to the
/// solver's schedule or transfer functions shows here: the
/// cold/incremental/parallel tests only compare runs with each other.
void expectIterations(const Analyzed &A, size_t Active, size_t RD,
                      const char *What, size_t ProdActive = ~size_t(0)) {
  EXPECT_EQ(A.Active.Iterations, Active) << What;
  EXPECT_EQ(A.RD.Iterations, RD) << What;
  EXPECT_EQ(analyzeActiveSignals(A.Program, A.CFG).Iterations, Active)
      << What;
  IFAResult Prod = analyzeInformationFlow(A.Program, A.CFG);
  EXPECT_EQ(Prod.Active.Iterations,
            ProdActive == ~size_t(0) ? Active : ProdActive)
      << What;
  EXPECT_EQ(Prod.RD.Iterations, RD) << What;
}

TEST(SolverIterations, PaperFigures) {
  expectIterations(analyzeStmts("c := b; b := a;"), 0, 2, "fig3(a)");
  expectIterations(analyzeStmts("b := a; c := b;"), 0, 2, "fig3(b)/fig4");
  expectIterations(analyzeStmts(workloads::shiftRowsStatements()), 0, 24,
                   "fig5");
}

TEST(SolverIterations, AesCore) {
  expectIterations(analyzeDesign(workloads::aesCoreDesign(1)), 28995, 57990,
                   "aes core, 1 round");
}

TEST(SolverIterations, SignalProgramsAndDesigns) {
  expectIterations(analyzeStmts("if c then s <= a; t <= b; else s <= b;"
                                " end if; while d loop t <= a; end loop;"
                                " u <= t; null;"),
                   16, 16, "branch+loop", 0);
  expectIterations(analyzeDesign(workloads::pipelineDesign(16)), 64, 128,
                   "pipeline/16");
  expectIterations(analyzeDesign(workloads::syncMeshDesign(4, 3, 4)), 36,
                   72, "mesh 4x3x4");
}

//===----------------------------------------------------------------------===//
// Variables and present signal values (Table 5)
//===----------------------------------------------------------------------===//

TEST(ReachingDefs, InitialDefsAtEntry) {
  Analyzed A = analyzeStmts("x := a; y := x;");
  // Entry of init: every free variable/signal paired with "?".
  const PairSet &Init = A.RD.Entry[1];
  EXPECT_TRUE(Init.contains(var(A.Program, "x", InitialLabel)));
  EXPECT_TRUE(Init.contains(var(A.Program, "a", InitialLabel)));
  EXPECT_TRUE(Init.contains(var(A.Program, "y", InitialLabel)));
}

TEST(ReachingDefs, VariableAssignmentKillsAndGens) {
  Analyzed A = analyzeStmts("x := a; x := b; y := x;");
  // At l3, only (x,2) reaches.
  EXPECT_TRUE(A.RD.Entry[3].contains(var(A.Program, "x", 2)));
  EXPECT_FALSE(A.RD.Entry[3].contains(var(A.Program, "x", 1)));
  EXPECT_FALSE(A.RD.Entry[3].contains(var(A.Program, "x", InitialLabel)))
      << "(x, ?) is killed by the first assignment";
  // a and b keep their initial defs.
  EXPECT_TRUE(A.RD.Entry[3].contains(var(A.Program, "a", InitialLabel)));
}

TEST(ReachingDefs, BranchesMergeByUnion) {
  Analyzed A = analyzeStmts(
      "if c then x := a; else x := b; end if; y := x;");
  // Labels: [c]^1 [x:=a]^2 [x:=b]^3 [y:=x]^4.
  EXPECT_TRUE(A.RD.Entry[4].contains(var(A.Program, "x", 2)));
  EXPECT_TRUE(A.RD.Entry[4].contains(var(A.Program, "x", 3)));
  EXPECT_FALSE(A.RD.Entry[4].contains(var(A.Program, "x", InitialLabel)));
}

TEST(ReachingDefs, SliceVarAssignDoesNotKill) {
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram(
      "variable v : std_logic_vector(3 downto 0);\n"
      "variable w : std_logic_vector(1 downto 0);\n"
      "v := \"0000\";\n"       // l1
      "v(1 downto 0) := w;\n"  // l2
      "w := v(3 downto 2);",   // l3
      Diags);
  auto P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  Analyzed A{std::move(*P), {}, {}, {}};
  analyze(A, {});
  EXPECT_TRUE(A.RD.Entry[3].contains(var(A.Program, "v", 1)));
  EXPECT_TRUE(A.RD.Entry[3].contains(var(A.Program, "v", 2)));
}

TEST(ReachingDefs, WaitDefinesPresentValueOfMayActiveSignals) {
  // [s <= a]^1 [wait on s]^2 [x := s]^3
  Analyzed A = analyzeStmts("s <= a; wait on s; x := s;");
  EXPECT_TRUE(A.RD.Entry[3].contains(sig(A.Program, "s", 2)))
      << "the present value of s is (re)defined at the wait";
  EXPECT_FALSE(A.RD.Entry[3].contains(sig(A.Program, "s", InitialLabel)))
      << "s must be active at the wait, so (s,?) is killed";
}

TEST(ReachingDefs, ConditionalActiveKeepsInitialDef) {
  // s is only conditionally driven, so RD∩ cannot prove it becomes
  // active; the initial definition must survive the wait.
  Analyzed A = analyzeStmts(
      "if c then s <= a; else null; end if; wait on s; x := s;");
  // Labels: [c]^1 [s<=a]^2 [null]^3 [wait]^4 [x:=s]^5.
  EXPECT_TRUE(A.RD.Entry[5].contains(sig(A.Program, "s", 4)));
  EXPECT_TRUE(A.RD.Entry[5].contains(sig(A.Program, "s", InitialLabel)))
      << "under-approximation refuses to kill the initial value";
}

TEST(ReachingDefs, AblationWithoutMustKill) {
  // With the under-approximation disabled (ABL-RD), even an
  // unconditionally driven signal keeps its stale defs across waits.
  ReachingDefsOptions Opts;
  Opts.UseMustActiveKill = false;
  Analyzed A = analyzeStmts("s <= a; wait on s; x := s;", Opts);
  EXPECT_TRUE(A.RD.Entry[3].contains(sig(A.Program, "s", InitialLabel)))
      << "no kill without RD∩";
  EXPECT_TRUE(A.RD.Entry[3].contains(sig(A.Program, "s", 2)));
}

TEST(ReachingDefs, CrossProcessMayActivePropagates) {
  // p2 never drives s itself; the definition arrives via p1's activity.
  Analyzed A = analyzeDesign(R"(
    entity e is port(clk : in std_logic; q : out std_logic); end e;
    architecture rtl of e is
      signal s : std_logic;
    begin
      p1 : process begin s <= clk; wait on clk; end process p1;
      p2 : process
        variable x : std_logic;
      begin
        x := s;
        q <= x;
        wait on s;
      end process p2;
    end rtl;)");
  // Find p2's wait label and the label of x := s.
  const ProcessCFG &P2 = A.CFG.process(1);
  ASSERT_EQ(P2.WaitLabels.size(), 1u);
  LabelId W2 = P2.WaitLabels[0];
  // After the wait, the present value of s is defined at W2 because s may
  // be active in p1 at its wait.
  unsigned S = sigId(A.Program, "s");
  bool Found = false;
  for (const DefPair &D : A.RD.Exit[W2])
    if (D.N == Resource::signal(S) && D.L == W2)
      Found = true;
  EXPECT_TRUE(Found);
}

/// The factored cf quantification must coincide with the explicit
/// Cartesian-product definition (the test-only oracle), set for set in the
/// Table 5 kill/gen tables — the only RD input the quantification shapes.
void expectFactoredEqualsEnumerated(const std::string &Source,
                                    bool MustKill, const std::string &What) {
  ReachingDefsOptions Opts;
  Opts.UseMustActiveKill = MustKill;
  Analyzed A = analyzeDesign(Source, Opts);
  ReachingDefsKillGen KF = computeReachingDefsKillGen(A.CFG, A.Active, Opts);
  std::optional<ReachingDefsKillGen> KE =
      computeReachingDefsKillGenEnumerated(A.CFG, A.Active, Opts);
  ASSERT_TRUE(KE.has_value()) << What;
  for (LabelId L = 1; L <= A.CFG.numLabels(); ++L) {
    EXPECT_TRUE(KF.Kill[L] == KE->Kill[L]) << What << " kill at " << L;
    EXPECT_TRUE(KF.Gen[L] == KE->Gen[L]) << What << " gen at " << L;
  }
}

TEST(ReachingDefs, FactoredEqualsEnumeratedOnMesh) {
  for (unsigned Procs : {2u, 3u})
    for (bool MustKill : {true, false})
      expectFactoredEqualsEnumerated(
          workloads::syncMeshDesign(Procs, 3, 4), MustKill,
          "procs " + std::to_string(Procs) +
              (MustKill ? " must-kill" : " no-must-kill"));
}

TEST(ReachingDefs, FactoredEqualsEnumeratedOnRandomDesigns) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    for (bool MustKill : {true, false})
      expectFactoredEqualsEnumerated(
          workloads::randomDesign(Seed, 3, 6, 3), MustKill,
          "seed " + std::to_string(Seed) +
              (MustKill ? " must-kill" : " no-must-kill"));
}

/// The PairSet kill tables are a view of the factored kill/gen, and
/// solveProcessRd collapses each kill row back to its resources. That is
/// exact only if every kill row covers each of its resources' whole range
/// in the process domain (\p Initial of the process plus its gens).
void expectKillRowsCoverRanges(const ProgramCFG &CFG,
                               const ReachingDefsKillGen &KG, bool Initial,
                               const std::string &What) {
  for (const ProcessCFG &P : CFG.processes()) {
    DefPairDomain Dom;
    if (Initial)
      Dom.addAll(initialDefs(P));
    for (LabelId L : P.Labels)
      Dom.addAll(KG.Gen[L]);
    Dom.finalize();
    for (LabelId L : P.Labels)
      for (const DefPair &D : KG.Kill[L]) {
        auto [First, Last] = Dom.rangeOf(D.N);
        for (size_t I = First; I < Last; ++I)
          EXPECT_TRUE(KG.Kill[L].contains(Dom.pair(I)))
              << What << ": kill at " << L << " misses part of a range";
      }
  }
}

/// Checks both views of \p A under \p Opts: the precondition above for
/// Tables 4 and 5, and that solveProcessRd over the Table 5 view returns
/// the production artifact — domain, rows and iterations — byte for byte.
void expectViewsMatchProduction(const Analyzed &A,
                                const ReachingDefsOptions &Opts,
                                const std::string &What) {
  expectKillRowsCoverRanges(A.CFG, computeActiveKillGen(A.CFG), false,
                            What + " (Table 4)");
  ReachingDefsKillGen KG = computeReachingDefsKillGen(A.CFG, A.Active, Opts);
  expectKillRowsCoverRanges(A.CFG, KG, true, What + " (Table 5)");
  WaitAggregates Agg = computeWaitAggregates(A.CFG, A.Active, Opts);
  for (const ProcessCFG &P : A.CFG.processes()) {
    RdProcessArtifact Prod = solveGenKill(
        A.CFG, P, computeReachingDefsKillGenFor(A.CFG, P, A.Active, Agg, Opts),
        initialDefs(P), /*Must=*/false);
    RdProcessArtifact View = solveProcessRd(A.CFG, P, KG.Kill, KG.Gen);
    EXPECT_EQ(View.Iterations, Prod.Iterations) << What;
    EXPECT_EQ(encodeProcessArtifact(View), encodeProcessArtifact(Prod))
        << What << ": process " << P.ProcessId;
  }
}

void expectViewsMatchProductionUnderAllOptions(bool IsDesign,
                                               const std::string &Source,
                                               const std::string &What) {
  ReachingDefsOptions NoMustKill, HsiehLevitan;
  NoMustKill.UseMustActiveKill = false;
  HsiehLevitan.HsiehLevitanCrossFlow = true;
  for (const auto &[Opts, Name] :
       {std::pair{ReachingDefsOptions(), ""},
        std::pair{NoMustKill, " no-must-kill"},
        std::pair{HsiehLevitan, " hsieh-levitan"}}) {
    Analyzed A = IsDesign ? analyzeDesign(Source, Opts)
                          : analyzeStmts(Source, Opts);
    expectViewsMatchProduction(A, Opts, What + Name);
  }
}

TEST(KillGenView, PaperFigures) {
  expectViewsMatchProductionUnderAllOptions(false, "c := b; b := a;",
                                            "fig3(a)");
  expectViewsMatchProductionUnderAllOptions(false, "b := a; c := b;",
                                            "fig3(b)/fig4");
  expectViewsMatchProductionUnderAllOptions(
      false, workloads::shiftRowsStatements(), "fig5");
}

TEST(KillGenView, SyntheticFamilies) {
  expectViewsMatchProductionUnderAllOptions(
      true, workloads::pipelineDesign(5), "pipeline/5");
  for (unsigned Procs : {2u, 3u})
    expectViewsMatchProductionUnderAllOptions(
        true, workloads::syncMeshDesign(Procs, 3, 4),
        "mesh " + std::to_string(Procs));
  expectViewsMatchProductionUnderAllOptions(
      false, workloads::tempReuseLadder(6, 4), "ladder");
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    expectViewsMatchProductionUnderAllOptions(
        true, workloads::randomDesign(Seed, 3, 6, 3),
        "random seed " + std::to_string(Seed));
}

TEST(ReachingDefs, AtProcessEnd) {
  Analyzed A = analyzeStmts("x := a; if c then x := b; end if;");
  PairSet End = A.RD.atProcessEnd(A.CFG.process(0));
  EXPECT_TRUE(End.contains(var(A.Program, "x", 1)));
  EXPECT_TRUE(End.contains(var(A.Program, "x", 3)));
  EXPECT_TRUE(End.contains(var(A.Program, "a", InitialLabel)));
}

//===----------------------------------------------------------------------===//
// PairSet algebra
//===----------------------------------------------------------------------===//

TEST(PairSet, BasicOperations) {
  PairSet S;
  DefPair P1{Resource::variable(1), 5};
  DefPair P2{Resource::signal(1), 5};
  EXPECT_TRUE(S.insert(P1));
  EXPECT_FALSE(S.insert(P1)) << "duplicate";
  S.insert(P2);
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(P1));
  PairSet T;
  T.insert(P2);
  S.intersectWith(T);
  EXPECT_EQ(S.size(), 1u);
  EXPECT_TRUE(S.contains(P2));
}

TEST(DefPairDomain, RangeOfIsEachResourcesContiguousRun) {
  DefPairDomain Dom;
  Resource X = Resource::variable(1), Y = Resource::variable(2),
           S = Resource::signal(1);
  for (DefPair D : {DefPair{Y, 4}, DefPair{X, InitialLabel}, DefPair{S, 2},
                    DefPair{X, 7}, DefPair{Y, 4}, DefPair{X, 3}})
    Dom.add(D);
  Dom.finalize();
  ASSERT_EQ(Dom.size(), 5u); // (x,?) (x,3) (x,7) (y,4) (s,2)
  EXPECT_EQ(Dom.rangeOf(X), (std::pair<size_t, size_t>{0, 3}));
  EXPECT_EQ(Dom.rangeOf(Y), (std::pair<size_t, size_t>{3, 4}));
  EXPECT_EQ(Dom.rangeOf(S), (std::pair<size_t, size_t>{4, 5}));
  auto [First, Last] = Dom.rangeOf(Resource::variable(9));
  EXPECT_EQ(First, Last) << "absent resource: empty range";
  EXPECT_EQ(DefPairDomain().rangeOf(X), (std::pair<size_t, size_t>{0, 0}));
}

TEST(PairSet, DottedIntersectionOfEmptyFamilyIsEmpty) {
  EXPECT_TRUE(PairSet::dottedIntersection({}).empty());
}

TEST(PairSet, ResourceDecorations) {
  Resource N = Resource::signal(42);
  EXPECT_TRUE(N.isPlain());
  Resource In = N.incoming(), Out = N.outgoing();
  EXPECT_TRUE(In.isIncoming());
  EXPECT_TRUE(Out.isOutgoing());
  EXPECT_EQ(In.plain(), N);
  EXPECT_EQ(Out.plain(), N);
  EXPECT_EQ(In.id(), 42u);
  EXPECT_TRUE(In.isSignal());
  EXPECT_NE(In, Out);
  EXPECT_NE(In, N);
}

} // namespace
