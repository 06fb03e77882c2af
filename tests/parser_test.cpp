//===- tests/parser_test.cpp - VHDL1 parser -------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ast/ASTPrinter.h"
#include "parse/Lexer.h"
#include "parse/Parser.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

#include <deque>

using namespace vif;

namespace {

/// Trees parsed by the helpers below; they live as long as the test binary.
std::deque<StatementProgram> Programs;
AstArena Exprs;

Stmt *stmts(const std::string &Source) {
  DiagnosticEngine Diags;
  Stmt *S = Programs.emplace_back(parseStatementProgram(Source, Diags)).Body;
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return S;
}

Expr *expr(const std::string &Source) {
  DiagnosticEngine Diags;
  Lexer L(Source, Diags);
  Parser P(L.lex(), Exprs, Diags);
  Expr *E = P.parseExpression();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return E;
}

TEST(Parser, NullStatement) {
  Stmt *S = stmts("null;");
  ASSERT_TRUE(S);
  EXPECT_TRUE(isa<NullStmt>(S));
}

TEST(Parser, VariableAssignment) {
  Stmt *S = stmts("x := y;");
  auto *A = dyn_cast<VarAssignStmt>(S);
  ASSERT_TRUE(A);
  EXPECT_EQ(A->targetName(), "x");
  EXPECT_FALSE(A->hasSlice());
  EXPECT_TRUE(isa<NameExpr>(&A->value()));
}

TEST(Parser, SignalAssignment) {
  Stmt *S = stmts("s <= '1';");
  auto *A = dyn_cast<SignalAssignStmt>(S);
  ASSERT_TRUE(A);
  EXPECT_EQ(A->targetName(), "s");
  EXPECT_TRUE(isa<LogicLiteralExpr>(&A->value()));
}

TEST(Parser, SlicedAssignments) {
  Stmt *S = stmts("x(7 downto 4) := y(3 downto 0);");
  auto *A = dyn_cast<VarAssignStmt>(S);
  ASSERT_TRUE(A);
  ASSERT_TRUE(A->hasSlice());
  EXPECT_EQ(A->slice().Z1, 7);
  EXPECT_EQ(A->slice().Z2, 4);
  EXPECT_TRUE(A->slice().Downto);
  auto *V = dyn_cast<SliceExpr>(&A->value());
  ASSERT_TRUE(V);
  EXPECT_EQ(V->slice().Z1, 3);
}

TEST(Parser, ToSlices) {
  Stmt *S = stmts("x(0 to 3) := y;");
  auto *A = cast<VarAssignStmt>(S);
  ASSERT_TRUE(A->hasSlice());
  EXPECT_FALSE(A->slice().Downto);
}

TEST(Parser, SequenceBecomesCompound) {
  Stmt *S = stmts("a := b; c := d; null;");
  auto *C = dyn_cast<CompoundStmt>(S);
  ASSERT_TRUE(C);
  EXPECT_EQ(C->stmts().size(), 3u);
}

TEST(Parser, IfThenElse) {
  Stmt *S = stmts("if c = '1' then a := b; else a := d; end if;");
  auto *I = dyn_cast<IfStmt>(S);
  ASSERT_TRUE(I);
  EXPECT_TRUE(isa<BinaryExpr>(&I->cond()));
  EXPECT_TRUE(isa<VarAssignStmt>(&I->thenStmt()));
  EXPECT_TRUE(isa<VarAssignStmt>(&I->elseStmt()));
}

TEST(Parser, IfWithoutElseGetsNull) {
  Stmt *S = stmts("if c then a := b; end if;");
  auto *I = cast<IfStmt>(S);
  EXPECT_TRUE(isa<NullStmt>(&I->elseStmt()));
}

TEST(Parser, ElsifChainsDesugar) {
  Stmt *S = stmts("if a then x := y;"
                    " elsif b then x := z;"
                    " else x := w; end if;");
  auto *I = cast<IfStmt>(S);
  auto *Nested = dyn_cast<IfStmt>(&I->elseStmt());
  ASSERT_TRUE(Nested);
  EXPECT_TRUE(isa<VarAssignStmt>(&Nested->elseStmt()));
}

TEST(Parser, WhileLoop) {
  Stmt *S = stmts("while g = '0' loop x := y; end loop;");
  auto *W = dyn_cast<WhileStmt>(S);
  ASSERT_TRUE(W);
  EXPECT_TRUE(isa<VarAssignStmt>(&W->body()));
}

TEST(Parser, WaitVariants) {
  Stmt *S = stmts("wait on a, b until c = '1'; wait on a; wait until c;"
                    " wait;");
  auto *C = cast<CompoundStmt>(S);
  ASSERT_EQ(C->stmts().size(), 4u);
  auto *W0 = cast<WaitStmt>(C->stmts()[0]);
  EXPECT_EQ(std::vector<std::string_view>(W0->onNames().begin(),
                                          W0->onNames().end()),
            (std::vector<std::string_view>{"a", "b"}));
  EXPECT_TRUE(W0->hasUntil());
  auto *W1 = cast<WaitStmt>(C->stmts()[1]);
  EXPECT_TRUE(W1->hasExplicitOn());
  EXPECT_FALSE(W1->hasUntil());
  auto *W2 = cast<WaitStmt>(C->stmts()[2]);
  EXPECT_FALSE(W2->hasExplicitOn());
  EXPECT_TRUE(W2->hasUntil());
  auto *W3 = cast<WaitStmt>(C->stmts()[3]);
  EXPECT_FALSE(W3->hasExplicitOn());
  EXPECT_FALSE(W3->hasUntil());
}

TEST(Parser, ExpressionPrecedence) {
  // `a xor b and c` groups as (a xor b) and c — logical ops are one level,
  // left associative (documented superset of VHDL).
  Expr *E = expr("a xor b and c");
  auto *Top = dyn_cast<BinaryExpr>(E);
  ASSERT_TRUE(Top);
  EXPECT_EQ(Top->op(), BinaryOpKind::And);
  // Relational binds tighter than logical.
  E = expr("a = b or c = d");
  Top = cast<BinaryExpr>(E);
  EXPECT_EQ(Top->op(), BinaryOpKind::Or);
  EXPECT_EQ(cast<BinaryExpr>(&Top->lhs())->op(), BinaryOpKind::Eq);
  // * over +.
  E = expr("a + b * c");
  Top = cast<BinaryExpr>(E);
  EXPECT_EQ(Top->op(), BinaryOpKind::Add);
  EXPECT_EQ(cast<BinaryExpr>(&Top->rhs())->op(), BinaryOpKind::Mul);
}

TEST(Parser, NotBindsTightest) {
  Expr *E = expr("not a and b");
  auto *Top = cast<BinaryExpr>(E);
  EXPECT_EQ(Top->op(), BinaryOpKind::And);
  EXPECT_TRUE(isa<UnaryExpr>(&Top->lhs()));
}

TEST(Parser, Parentheses) {
  Expr *E = expr("a and (b or c)");
  auto *Top = cast<BinaryExpr>(E);
  EXPECT_EQ(Top->op(), BinaryOpKind::And);
  EXPECT_EQ(cast<BinaryExpr>(&Top->rhs())->op(), BinaryOpKind::Or);
}

TEST(Parser, ConcatAndLiterals) {
  Expr *E = expr("\"00\" & x(7 downto 7) & '1'");
  ASSERT_TRUE(E);
  EXPECT_TRUE(isa<BinaryExpr>(E));
}

TEST(Parser, EntityWithPorts) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(
      "entity e is port(a : in std_logic; b, c : out "
      "std_logic_vector(7 downto 0); d : inout std_logic); end e;",
      Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(F.Entities.size(), 1u);
  const Entity &E = F.Entities[0];
  ASSERT_EQ(E.Ports.size(), 4u);
  EXPECT_EQ(E.Ports[0].Mode, PortMode::In);
  EXPECT_EQ(E.Ports[1].Name, "b");
  EXPECT_EQ(E.Ports[2].Name, "c");
  EXPECT_EQ(E.Ports[1].Mode, PortMode::Out);
  EXPECT_TRUE(E.Ports[1].Ty.isVector());
  EXPECT_EQ(E.Ports[1].Ty.width(), 8u);
  EXPECT_EQ(E.Ports[3].Mode, PortMode::InOut);
}

TEST(Parser, FullArchitecture) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(R"(
    entity top is port(clk : in std_logic; q : out std_logic); end top;
    architecture rtl of top is
      signal s : std_logic := '0';
    begin
      p : process
        variable v : std_logic;
      begin
        v := s;
        q <= v;
        wait on clk;
      end process p;
      blk : block
        signal inner : std_logic;
      begin
        inner <= clk;
      end block blk;
      s <= clk;
    end rtl;
  )",
                             Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(F.Architectures.size(), 1u);
  const Architecture &A = F.Architectures[0];
  EXPECT_EQ(A.EntityName, "top");
  ASSERT_EQ(A.Decls.size(), 1u);
  ASSERT_EQ(A.Stmts.size(), 3u);
  EXPECT_TRUE(isa<ProcessStmt>(A.Stmts[0].get()));
  EXPECT_TRUE(isa<BlockStmt>(A.Stmts[1].get()));
  EXPECT_TRUE(isa<ConcAssignStmt>(A.Stmts[2].get()));
}

TEST(Parser, StatementProgramWithDecls) {
  DiagnosticEngine Diags;
  StatementProgram P = parseStatementProgram(
      "variable x : std_logic_vector(7 downto 0);\n"
      "variable y : std_logic;\n"
      "x(3 downto 0) := x(7 downto 4);",
      Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_EQ(P.Decls.size(), 2u);
  EXPECT_TRUE(isa<VarAssignStmt>(P.Body));
}

//===----------------------------------------------------------------------===//
// Error recovery
//===----------------------------------------------------------------------===//

TEST(ParserErrors, MissingSemicolon) {
  DiagnosticEngine Diags;
  parseStatementProgram("a := b", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserErrors, MismatchedEndName) {
  DiagnosticEngine Diags;
  parseDesign("entity e is port(a : in std_logic); end f;", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserErrors, BadSliceDirection) {
  DiagnosticEngine Diags;
  parseStatementProgram("x(1 upto 2) := y;", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserErrors, BadPortMode) {
  DiagnosticEngine Diags;
  parseDesign("entity e is port(a : buffer std_logic); end e;", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserErrors, VectorRangeAgainstDirection) {
  DiagnosticEngine Diags;
  parseDesign("entity e is port(a : in std_logic_vector(0 downto 7)); "
              "end e;",
              Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Robustness: hostile inputs must produce diagnostics, never crashes
//===----------------------------------------------------------------------===//

class HostileInputTest : public ::testing::TestWithParam<const char *> {};

TEST_P(HostileInputTest, NoCrashOnGarbage) {
  DiagnosticEngine D1, D2;
  // Both entry points must survive arbitrary input.
  parseDesign(GetParam(), D1);
  StatementProgram P = parseStatementProgram(GetParam(), D2);
  // Nothing to assert beyond survival and (usually) diagnostics; empty
  // input parses cleanly as an empty program.
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(
    Garbage, HostileInputTest,
    ::testing::Values(
        "", ";;;;", "entity", "entity e", "architecture of is begin",
        "process begin end", "((((((((", "x := ; y <=",
        "\"unterminated", "'x", "if if if then then else",
        "wait wait wait;", "end end end;",
        "entity e is port(); end e;",
        "a : in std_logic", "123 456 789",
        "x(1 downto downto 2) := y;",
        "while loop end loop;",
        "entity e is port(a : in std_logic); end e;"
        " architecture a of e is begin b : block begin", // truncated
        "-- only a comment"));

TEST(ParserRobustness, DeeplyNestedExpressions) {
  // 200 nested parens: must not smash the stack or reject valid input.
  std::string Source = "x := ";
  for (int I = 0; I < 200; ++I)
    Source += "(";
  Source += "y";
  for (int I = 0; I < 200; ++I)
    Source += ")";
  Source += ";";
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram(Source, Diags);
  Stmt *S = Prog.Body;
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_TRUE(S);
  EXPECT_EQ(stmtToString(*S), "x := y;\n");
}

TEST(ParserRobustness, DeeplyNestedIfs) {
  std::string Source, Close;
  for (int I = 0; I < 150; ++I) {
    Source += "if c then ";
    Close += " end if;";
  }
  Source += "x := y;" + Close;
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram(Source, Diags);
  Stmt *S = Prog.Body;
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_TRUE(S);
}

// Pinned by the mutation fuzzer (vifc-fuzz --mode mutate): adversarial
// inputs beyond the nesting budget must produce diagnostics, never smash
// the stack. The recursive descent guards itself with a shared depth
// counter (Parser::MaxNestingDepth).
TEST(ParserRobustness, PathologicalNestingIsDiagnosed) {
  std::string Parens = "x := " + std::string(100000, '(') + "y" +
                       std::string(100000, ')') + ";";
  DiagnosticEngine D1;
  parseStatementProgram(Parens, D1);
  EXPECT_TRUE(D1.hasErrors());

  std::string Ifs, Close;
  for (int I = 0; I < 50000; ++I) {
    Ifs += "if c then ";
    Close += " end if;";
  }
  DiagnosticEngine D2;
  parseStatementProgram(Ifs + "null;" + Close, D2);
  EXPECT_TRUE(D2.hasErrors());

  // elsif chains recurse per arm and share the same budget; past it they
  // must degrade to diagnostics too.
  std::string Elsifs = "if c then x := y; ";
  for (int I = 0; I < 2000; ++I)
    Elsifs += "elsif c then x := y; ";
  DiagnosticEngine D3;
  parseStatementProgram(Elsifs + "end if;", D3);
  EXPECT_TRUE(D3.hasErrors());
}

// Pinned by the mutation fuzzer: lexer error recovery must iterate, not
// recurse — megabytes of garbage used to overflow the stack one frame
// per bad byte (under sanitizers, which disable tail calls).
TEST(ParserRobustness, LongGarbageInputRecoversIteratively) {
  std::string Garbage(2 * 1024 * 1024, '$');
  DiagnosticEngine Diags;
  parseStatementProgram(Garbage, Diags);
  EXPECT_TRUE(Diags.hasErrors());

  // The malformed-char-literal arm recovers through the same loop.
  std::string Ticks(1024 * 1024, '\'');
  DiagnosticEngine D2;
  parseStatementProgram("x := " + Ticks + ";", D2);
  EXPECT_TRUE(D2.hasErrors());
}

// Pinned by the mutation fuzzer: digit runs longer than int64 must
// saturate with a diagnostic instead of wrapping through signed overflow
// into a bogus (possibly "valid") slice bound.
TEST(ParserRobustness, OverlongIntegerLiteralIsDiagnosed) {
  DiagnosticEngine Diags;
  parseStatementProgram(
      "x := y(99999999999999999999999999999999999 downto 0);", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("integer literal too large"), std::string::npos)
      << Diags.str();

  // The largest representable literal still lexes fine.
  DiagnosticEngine D2;
  parseStatementProgram("x := y(9223372036854775807 downto 0);", D2);
  EXPECT_EQ(D2.str().find("integer literal too large"), std::string::npos)
      << D2.str();
}

//===----------------------------------------------------------------------===//
// Round trips: parse(print(ast)) == ast (structurally)
//===----------------------------------------------------------------------===//

class RoundTripTest : public ::testing::TestWithParam<const char *> {};

TEST_P(RoundTripTest, PrintParsePrintIsStable) {
  DiagnosticEngine D1;
  StatementProgram Prog1 = parseStatementProgram(GetParam(), D1);
  Stmt *S1 = Prog1.Body;
  ASSERT_FALSE(D1.hasErrors()) << D1.str();
  std::string P1 = stmtToString(*S1);
  DiagnosticEngine D2;
  StatementProgram Prog2 = parseStatementProgram(P1, D2);
  Stmt *S2 = Prog2.Body;
  ASSERT_FALSE(D2.hasErrors()) << D2.str() << "\nprinted:\n" << P1;
  EXPECT_EQ(P1, stmtToString(*S2));
}

INSTANTIATE_TEST_SUITE_P(
    Statements, RoundTripTest,
    ::testing::Values(
        "null;",
        "a := b;",
        "s <= a xor b;",
        "x(7 downto 0) := y(15 downto 8);",
        "if c then a := b; end if;",
        "if c then a := b; else s <= '1'; end if;",
        "while g loop a := b; s <= a; end loop;",
        "wait on a, b until c = '1';",
        "wait;",
        "a := (b and c) or (not d);",
        "v := \"0101\" & w(3 to 4) & '1';",
        "a := b + c * d - e;",
        "if a = '1' then if b then null; end if; else c := d; end if;"));

TEST(RoundTrip, DesignFile) {
  const char *Source = R"(
    entity e is port(a : in std_logic; z : out std_logic); end e;
    architecture rtl of e is
      signal s : std_logic := '1';
    begin
      p : process
        variable v : std_logic_vector(3 downto 0) := "0000";
      begin
        v(3 downto 2) := v(1 downto 0);
        s <= a;
        wait on a;
      end process p;
      z <= s;
    end rtl;
  )";
  DiagnosticEngine D1;
  DesignFile F1 = parseDesign(Source, D1);
  ASSERT_FALSE(D1.hasErrors()) << D1.str();
  std::string P1 = designToString(F1);
  DiagnosticEngine D2;
  DesignFile F2 = parseDesign(P1, D2);
  ASSERT_FALSE(D2.hasErrors()) << D2.str() << "\nprinted:\n" << P1;
  EXPECT_EQ(P1, designToString(F2));
}

} // namespace
