//===- tests/sema_test.cpp - Elaboration and type checking ----------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"
#include "sema/Elaborator.h"
#include "support/Casting.h"
#include "workloads/AesVhdl.h"

#include <gtest/gtest.h>

using namespace vif;

namespace {

std::optional<ElaboratedProgram> elab(const std::string &Source,
                                      DiagnosticEngine &Diags) {
  DesignFile F = parseDesign(Source, Diags);
  if (Diags.hasErrors())
    return std::nullopt;
  return elaborateDesign(F, Diags);
}

std::optional<ElaboratedProgram> elabOk(const std::string &Source) {
  DiagnosticEngine Diags;
  auto P = elab(Source, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  return P;
}

void expectError(const std::string &Source, const std::string &Fragment) {
  DiagnosticEngine Diags;
  auto P = elab(Source, Diags);
  EXPECT_FALSE(P.has_value());
  EXPECT_NE(Diags.str().find(Fragment), std::string::npos)
      << "expected diagnostic containing '" << Fragment << "', got:\n"
      << Diags.str();
}

const char *Header = "entity e is port(clk : in std_logic; q : out "
                     "std_logic); end e;\n";

TEST(Elaborator, PortsBecomeSignals) {
  auto P = elabOk("entity e is port(a : in std_logic; b : out std_logic;"
                  " c : inout std_logic_vector(3 downto 0)); end e;\n"
                  "architecture rtl of e is begin b <= a; end rtl;");
  ASSERT_TRUE(P);
  ASSERT_EQ(P->Signals.size(), 3u);
  EXPECT_EQ(P->Signals[0].Class, SignalClass::PortIn);
  EXPECT_EQ(P->Signals[1].Class, SignalClass::PortOut);
  EXPECT_EQ(P->Signals[2].Class, SignalClass::PortInOut);
  EXPECT_TRUE(P->Signals[2].isInput());
  EXPECT_TRUE(P->Signals[2].isOutput());
  EXPECT_EQ(P->inputSignals().size(), 2u);
  EXPECT_EQ(P->outputSignals().size(), 2u);
}

TEST(Elaborator, ConcurrentAssignBecomesProcess) {
  auto P = elabOk(std::string(Header) +
                  "architecture rtl of e is begin q <= clk; end rtl;");
  ASSERT_TRUE(P);
  ASSERT_EQ(P->Processes.size(), 1u);
  EXPECT_TRUE(P->Processes[0].Looped);
  // Shape: null; while '1' loop (q <= clk; wait on clk) end loop.
  const auto *C = dyn_cast<CompoundStmt>(P->Processes[0].Body);
  ASSERT_TRUE(C);
  ASSERT_EQ(C->stmts().size(), 2u);
  EXPECT_TRUE(isa<NullStmt>(C->stmts()[0]));
  const auto *W = dyn_cast<WhileStmt>(C->stmts()[1]);
  ASSERT_TRUE(W);
  const auto *Body = dyn_cast<CompoundStmt>(&W->body());
  ASSERT_TRUE(Body);
  ASSERT_EQ(Body->stmts().size(), 2u);
  EXPECT_TRUE(isa<SignalAssignStmt>(Body->stmts()[0]));
  const auto *Wait = dyn_cast<WaitStmt>(Body->stmts()[1]);
  ASSERT_TRUE(Wait);
  // Sensitive to FS(e) = {clk}.
  ASSERT_EQ(Wait->onSignals().size(), 1u);
  EXPECT_EQ(P->signal(Wait->onSignals()[0]).Name, "clk");
}

TEST(Elaborator, BlockSignalsAreFlattenedAndScoped) {
  auto P = elabOk(std::string(Header) + R"(
    architecture rtl of e is
    begin
      b1 : block
        signal s : std_logic;
      begin
        s <= clk;
      end block b1;
      b2 : block
        signal s : std_logic;
      begin
        q <= s;
      end block b2;
    end rtl;)");
  ASSERT_TRUE(P);
  // Two distinct signals named s, uniquely renamed.
  int Count = 0;
  for (const ElabSignal &S : P->Signals)
    if (S.Name == "s")
      ++Count;
  EXPECT_EQ(Count, 2);
  EXPECT_NE(P->Signals[2].UniqueName, P->Signals[3].UniqueName);
}

TEST(Elaborator, BlockScopeNotVisibleOutside) {
  expectError(std::string(Header) + R"(
    architecture rtl of e is
    begin
      b1 : block
        signal s : std_logic;
      begin
        s <= clk;
      end block b1;
      q <= s;
    end rtl;)",
              "undeclared name 's'");
}

TEST(Elaborator, WaitDefaultsMaterialized) {
  auto P = elabOk(std::string(Header) + R"(
    architecture rtl of e is
      signal a, b : std_logic;
    begin
      p : process
      begin
        q <= a;
        wait until a = b;
      end process p;
    end rtl;)");
  ASSERT_TRUE(P);
  // The wait has no 'on' clause; S defaults to FS(a = b) = {a, b}.
  const auto *C = cast<CompoundStmt>(P->Processes[0].Body);
  const auto *W = cast<WhileStmt>(C->stmts()[1]);
  const auto *Body = cast<CompoundStmt>(&W->body());
  const auto *Wait = cast<WaitStmt>(Body->stmts()[1]);
  ASSERT_EQ(Wait->onSignals().size(), 2u);
  EXPECT_EQ(P->signal(Wait->onSignals()[0]).Name, "a");
  EXPECT_EQ(P->signal(Wait->onSignals()[1]).Name, "b");
}

TEST(Elaborator, VariablesArePerProcess) {
  auto P = elabOk(std::string(Header) + R"(
    architecture rtl of e is
    begin
      p1 : process
        variable v : std_logic;
      begin
        v := clk; wait on clk;
      end process p1;
      p2 : process
        variable v : std_logic;
      begin
        q <= v; wait on clk;
      end process p2;
    end rtl;)");
  ASSERT_TRUE(P);
  ASSERT_EQ(P->Variables.size(), 2u);
  EXPECT_EQ(P->Variables[0].ProcessId, 0u);
  EXPECT_EQ(P->Variables[1].ProcessId, 1u);
  // Qualified unique names on collision.
  EXPECT_EQ(P->Variables[0].UniqueName, "p1.v");
  EXPECT_EQ(P->Variables[1].UniqueName, "p2.v");
}

TEST(Elaborator, HomonymsAcrossThreeProcessesGetQualified) {
  // A variable keeps its bare name until a later process declares a
  // homonym; then both are qualified with their process names, the
  // earlier one retroactively. Names used once stay bare.
  auto P = elabOk(std::string(Header) + R"(
    architecture rtl of e is
    begin
      p1 : process
        variable x, y, z : std_logic;
      begin
        x := clk; y := x; z := y; q <= z; wait on clk;
      end process p1;
      p2 : process
        variable x, w : std_logic;
      begin
        x := clk; w := x; wait on clk;
      end process p2;
      p3 : process
        variable x, y, w, only3 : std_logic;
      begin
        x := clk; y := x; w := y; only3 := w; wait on clk;
      end process p3;
    end rtl;)");
  ASSERT_TRUE(P);
  std::vector<std::string> Unique;
  std::vector<unsigned> Owner;
  for (const ElabVariable &V : P->Variables) {
    Unique.push_back(V.UniqueName);
    Owner.push_back(V.ProcessId);
  }
  EXPECT_EQ(Unique, (std::vector<std::string>{"p1.x", "p1.y", "z", "p2.x",
                                              "p2.w", "p3.x", "p3.y", "p3.w",
                                              "only3"}));
  EXPECT_EQ(Owner, (std::vector<unsigned>{0, 0, 0, 1, 1, 2, 2, 2, 2}));
  EXPECT_EQ(P->Processes[0].Variables, (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(P->Processes[1].Variables, (std::vector<unsigned>{3, 4}));
  EXPECT_EQ(P->Processes[2].Variables, (std::vector<unsigned>{5, 6, 7, 8}));
}

TEST(Elaborator, TypeErrors) {
  expectError(std::string(Header) +
                  "architecture rtl of e is signal v : "
                  "std_logic_vector(7 downto 0); begin v <= clk; end rtl;",
              "cannot assign");
  expectError(std::string(Header) +
                  "architecture rtl of e is begin q <= clk and "
                  "\"01\"; end rtl;",
              "equal widths");
  expectError(std::string(Header) + R"(
    architecture rtl of e is
    begin
      p : process
        variable v : std_logic_vector(7 downto 0);
      begin
        if v then null; end if;
        wait on clk;
      end process p;
    end rtl;)",
              "condition must be std_logic");
}

TEST(Elaborator, SliceChecks) {
  expectError(std::string(Header) + R"(
    architecture rtl of e is
      signal v : std_logic_vector(7 downto 0);
    begin
      p : process
      begin
        v(8 downto 1) <= v;
        wait on clk;
      end process p;
    end rtl;)",
              "slice");
  expectError(std::string(Header) + R"(
    architecture rtl of e is
      signal v : std_logic_vector(7 downto 0);
    begin
      p : process
      begin
        v(0 to 3) <= v(3 downto 0);
        wait on clk;
      end process p;
    end rtl;)",
              "slice");
}

TEST(Elaborator, PortModeEnforcement) {
  expectError(std::string(Header) +
                  "architecture rtl of e is begin clk <= '1'; end rtl;",
              "cannot assign to 'in' port");
  expectError(std::string(Header) + R"(
    architecture rtl of e is
      signal s : std_logic;
    begin
      s <= q;
    end rtl;)",
              "cannot read 'out' port");
}

TEST(Elaborator, AssignOperatorMismatch) {
  expectError(std::string(Header) + R"(
    architecture rtl of e is
      signal s : std_logic;
    begin
      p : process
      begin
        s := clk;
        wait on clk;
      end process p;
    end rtl;)",
              "use '<=' to assign");
  expectError(std::string(Header) + R"(
    architecture rtl of e is
    begin
      p : process
        variable v : std_logic;
      begin
        v <= clk;
        wait on clk;
      end process p;
    end rtl;)",
              "use ':=' to assign");
}

TEST(Elaborator, WaitOnVariableRejected) {
  expectError(std::string(Header) + R"(
    architecture rtl of e is
    begin
      p : process
        variable v : std_logic;
      begin
        q <= clk;
        wait on v;
      end process p;
    end rtl;)",
              "requires signals");
}

TEST(Elaborator, UndeclaredAndDuplicate) {
  expectError(std::string(Header) +
                  "architecture rtl of e is begin q <= nosuch; end rtl;",
              "undeclared");
  expectError(std::string(Header) + R"(
    architecture rtl of e is
    begin
      p : process
        variable v : std_logic;
        variable v : std_logic;
      begin
        q <= clk;
        wait on clk;
      end process p;
    end rtl;)",
              "redeclaration");
}

TEST(Elaborator, InitializersMustBeLiterals) {
  expectError(std::string(Header) + R"(
    architecture rtl of e is
      signal a : std_logic;
      signal b : std_logic := a;
    begin
      q <= b;
    end rtl;)",
              "must be a literal");
}

TEST(Elaborator, ProgramAdoptsTheTreeArena) {
  // The program's figure is its tree's arena blocks plus its tables. On
  // the AES core that is 5.3 MB; it was 6.9 MB while every node was a
  // heap block of its own.
  DiagnosticEngine Diags;
  std::optional<ElaboratedProgram> P = elaborateDesign(
      parseDesign(workloads::aesCoreDesign(1), Diags), Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  EXPECT_GT(P->Arena.blockBytes(), 0u);
  EXPECT_LT(P->Arena.blockBytes(), P->memoryBytes());
  EXPECT_LE(P->memoryBytes(), size_t(5500000));
}

TEST(Elaborator, MissingEntity) {
  expectError("architecture rtl of ghost is begin end rtl;",
              "unknown entity");
}

TEST(Elaborator, SelectArchitectureByName) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(
      std::string(Header) +
          "architecture a1 of e is begin q <= clk; end a1;\n"
          "architecture a2 of e is begin q <= not clk; end a2;",
      Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ElaborateOptions Opts;
  Opts.ArchitectureName = "a2";
  auto P = elaborateDesign(F, Diags, Opts);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  EXPECT_EQ(P->Processes.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Statement-program elaboration
//===----------------------------------------------------------------------===//

TEST(ElaborateStatements, ImplicitVariables) {
  DiagnosticEngine Diags;
  StatementProgram STree = parseStatementProgram("c := b; b := a;", Diags);
  Stmt *S = STree.Body;
  auto P = elaborateStatements(*S, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  EXPECT_EQ(P->Variables.size(), 3u);
  EXPECT_TRUE(P->Signals.empty());
  EXPECT_FALSE(P->Processes[0].Looped);
}

TEST(ElaborateStatements, SignalTargetsBecomeSignals) {
  DiagnosticEngine Diags;
  StatementProgram STree = parseStatementProgram("s <= a; wait on t; b := s;", Diags);
  Stmt *S = STree.Body;
  auto P = elaborateStatements(*S, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  // s and t are signals; a and b variables.
  EXPECT_EQ(P->Signals.size(), 2u);
  EXPECT_EQ(P->Variables.size(), 2u);
}

TEST(ElaborateStatements, ExplicitDeclsRespected) {
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram(
      "variable x : std_logic_vector(7 downto 0);\n"
      "x(3 downto 0) := x(7 downto 4);",
      Diags);
  auto P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ASSERT_EQ(P->Variables.size(), 1u);
  EXPECT_EQ(P->Variables[0].Ty.width(), 8u);
}

TEST(ElaborateStatements, FreeObjectCollection) {
  DiagnosticEngine Diags;
  StatementProgram STree = parseStatementProgram("if c then a := b; end if;", Diags);
  Stmt *S = STree.Body;
  auto P = elaborateStatements(*S, Diags);
  ASSERT_TRUE(P);
  std::vector<unsigned> Vars, Sigs;
  collectStmtObjects(*P->Processes[0].Body, Vars, Sigs);
  EXPECT_EQ(Vars.size(), 3u);
  EXPECT_TRUE(Sigs.empty());
}

} // namespace
