//===- tests/ast_test.cpp - Types, AST nodes, printer, diagnostics --------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ast/ASTPrinter.h"
#include "ast/Type.h"
#include "parse/Lexer.h"
#include "parse/Parser.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/SourceLoc.h"

#include <gtest/gtest.h>

using namespace vif;

namespace {

//===----------------------------------------------------------------------===//
// Type
//===----------------------------------------------------------------------===//

TEST(Type, ScalarBasics) {
  Type T = Type::scalar();
  EXPECT_TRUE(T.isScalar());
  EXPECT_FALSE(T.isVector());
  EXPECT_EQ(T.width(), 1u);
  EXPECT_EQ(T.str(), "std_logic");
  EXPECT_FALSE(T.containsIndex(0));
}

TEST(Type, DowntoVector) {
  Type T = Type::vector(7, 0, true);
  EXPECT_EQ(T.width(), 8u);
  EXPECT_EQ(T.left(), 7);
  EXPECT_EQ(T.right(), 0);
  EXPECT_TRUE(T.isDownto());
  EXPECT_EQ(T.str(), "std_logic_vector(7 downto 0)");
  // Position 0 is the leftmost element, i.e. index 7.
  EXPECT_EQ(T.positionOf(7), 0u);
  EXPECT_EQ(T.positionOf(0), 7u);
  EXPECT_TRUE(T.containsIndex(3));
  EXPECT_FALSE(T.containsIndex(8));
  EXPECT_FALSE(T.containsIndex(-1));
}

TEST(Type, ToVector) {
  Type T = Type::vector(0, 7, false);
  EXPECT_EQ(T.width(), 8u);
  EXPECT_FALSE(T.isDownto());
  EXPECT_EQ(T.positionOf(0), 0u);
  EXPECT_EQ(T.positionOf(7), 7u);
  EXPECT_EQ(T.str(), "std_logic_vector(0 to 7)");
}

TEST(Type, NonZeroBasedRanges) {
  Type T = Type::vector(11, 4, true);
  EXPECT_EQ(T.width(), 8u);
  EXPECT_EQ(T.positionOf(11), 0u);
  EXPECT_EQ(T.positionOf(4), 7u);
  EXPECT_FALSE(T.containsIndex(3));
  Type U = Type::vector(3, 10, false);
  EXPECT_EQ(U.width(), 8u);
  EXPECT_EQ(U.positionOf(3), 0u);
  EXPECT_EQ(U.positionOf(10), 7u);
}

TEST(Type, SliceValidation) {
  Type T = Type::vector(7, 0, true);
  EXPECT_TRUE(T.sliceValid(7, 4, true));
  EXPECT_TRUE(T.sliceValid(3, 3, true)) << "single element slice";
  EXPECT_FALSE(T.sliceValid(4, 7, true)) << "runs against direction";
  EXPECT_FALSE(T.sliceValid(7, 4, false)) << "direction mismatch";
  EXPECT_FALSE(T.sliceValid(8, 4, true)) << "out of range";
  EXPECT_EQ(T.slicePosition(7, 4, true), 0u);
  EXPECT_EQ(T.slicePosition(3, 0, true), 4u);
  EXPECT_EQ(T.sliceWidth(7, 4, true), 4u);

  Type U = Type::vector(0, 7, false);
  EXPECT_TRUE(U.sliceValid(2, 5, false));
  EXPECT_FALSE(U.sliceValid(5, 2, false));
  EXPECT_EQ(U.slicePosition(2, 5, false), 2u);
}

TEST(Type, EqualityAndAssignability) {
  Type A = Type::vector(7, 0, true);
  Type B = Type::vector(7, 0, true);
  Type C = Type::vector(0, 7, false);
  Type D = Type::vector(15, 8, true);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_TRUE(A.assignableFrom(C)) << "same width, by-position assignment";
  EXPECT_TRUE(A.assignableFrom(D));
  EXPECT_FALSE(A.assignableFrom(Type::vector(3, 0, true)));
  EXPECT_FALSE(A.assignableFrom(Type::scalar()));
  EXPECT_TRUE(Type::scalar().assignableFrom(Type::scalar()));
}

//===----------------------------------------------------------------------===//
// SourceLoc / Diagnostics
//===----------------------------------------------------------------------===//

TEST(SourceLoc, OrderingAndValidity) {
  SourceLoc A(1, 5), B(1, 9), C(2, 1), Invalid;
  EXPECT_LT(A, B);
  EXPECT_LT(B, C);
  EXPECT_TRUE(A.isValid());
  EXPECT_FALSE(Invalid.isValid());
  EXPECT_EQ(A.str(), "1:5");
  EXPECT_EQ(Invalid.str(), "<unknown>");
}

TEST(Diagnostics, CountsAndRendering) {
  DiagnosticEngine D;
  EXPECT_TRUE(D.empty());
  D.warning(SourceLoc(1, 1), "looks odd");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(2, 3), "broken");
  D.note(SourceLoc(2, 4), "because of this");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.all().size(), 3u);
  std::string S = D.str();
  EXPECT_NE(S.find("1:1: warning: looks odd"), std::string::npos);
  EXPECT_NE(S.find("2:3: error: broken"), std::string::npos);
  EXPECT_NE(S.find("2:4: note: because of this"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Expression and statement nodes
//===----------------------------------------------------------------------===//

/// Holds every expression parseE returns, for the test binary's lifetime.
AstArena Exprs;

Expr *parseE(const std::string &S) {
  DiagnosticEngine Diags;
  Lexer L(S, Diags);
  Parser P(L.lex(), Exprs, Diags);
  Expr *E = P.parseExpression();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return E;
}

TEST(Arena, BlocksGrowGeometricallyAndLargeItemsGetTheirOwn) {
  AstArena A;
  EXPECT_EQ(A.blockBytes(), 0u);
  A.make<NullStmt>();
  size_t First = A.blockBytes();
  EXPECT_GT(First, 0u);
  EXPECT_LE(First, 4096u) << "a tiny tree pays for a small block";
  // Filling the arena takes geometrically fewer blocks than items: 16 MB
  // of 16-byte items fits in about 64 blocks at the 256 KB cap, with the
  // waste below one block.
  for (size_t I = 0; I < (size_t(1) << 20); ++I)
    A.allocateArray<uint64_t>(2);
  EXPECT_GE(A.blockBytes(), size_t(16) << 20);
  EXPECT_LE(A.blockBytes(), (size_t(16) << 20) + (size_t(512) << 10));
  // An item larger than half the next block gets a block of its own and
  // leaves the open block open.
  size_t Before = A.blockBytes();
  char *Big = A.allocateArray<char>(size_t(1) << 20);
  EXPECT_EQ(A.blockBytes(), Before + (size_t(1) << 20));
  char *Next = A.allocateArray<char>(1);
  EXPECT_EQ(A.blockBytes(), Before + (size_t(1) << 20));
  EXPECT_TRUE(Next < Big || Next >= Big + (size_t(1) << 20));
}

TEST(Arena, MovingKeepsNodesWhereTheyAre) {
  AstArena A;
  std::string_view Name = A.copyString("signal_with_a_long_name");
  auto *N = A.make<NameExpr>(Name, SourceRange());
  AstArena B = std::move(A);
  EXPECT_EQ(A.blockBytes(), 0u);
  EXPECT_EQ(N->name(), "signal_with_a_long_name");
  // The moved-from arena starts over in blocks of its own.
  std::string_view Other = A.copyString("x");
  EXPECT_EQ(Other, "x");
  EXPECT_GT(A.blockBytes(), 0u);
  EXPECT_EQ(N->name(), "signal_with_a_long_name");
}

TEST(Expr, CloneIsDeepAndPreservesAnnotations) {
  Expr *E = parseE("a and (b xor c)");
  // Resolve/type one node manually and check the clone keeps it.
  E->setType(Type::scalar());
  auto *Name = cast<NameExpr>(&cast<BinaryExpr>(E)->lhs());
  Name->setRef(ObjectRef::variable(42));
  AstArena Dest;
  Expr *C = cloneExpr(*E, Dest);
  EXPECT_NE(C, E);
  EXPECT_TRUE(C->hasType());
  const auto *ClonedName = cast<NameExpr>(&cast<BinaryExpr>(C)->lhs());
  EXPECT_NE(ClonedName, Name);
  EXPECT_EQ(ClonedName->name(), "a");
  EXPECT_NE(ClonedName->name().data(), Name->name().data())
      << "the copy's spelling lives in the destination arena";
  EXPECT_TRUE(ClonedName->ref().isVariable());
  EXPECT_EQ(ClonedName->ref().Id, 42u);
}

TEST(Expr, ForEachNameUseVisitsAllLeaves) {
  Expr *E = parseE("(a and b) xor not c(3 downto 0)");
  int Names = 0, Slices = 0;
  forEachNameUse(*E, [&](const Expr &Use) {
    if (isa<NameExpr>(&Use))
      ++Names;
    else if (isa<SliceExpr>(&Use))
      ++Slices;
  });
  EXPECT_EQ(Names, 2);
  EXPECT_EQ(Slices, 1);
}

TEST(Expr, SliceSpecWidthAndPrinting) {
  SliceSpec S{7, 4, true};
  EXPECT_EQ(S.width(), 4u);
  EXPECT_EQ(S.str(), "7 downto 4");
  SliceSpec T{2, 5, false};
  EXPECT_EQ(T.width(), 4u);
  EXPECT_EQ(T.str(), "2 to 5");
}

TEST(Stmt, CloneStatementTree) {
  DiagnosticEngine Diags;
  StatementProgram STree = parseStatementProgram(
                  "if c then x := a; else s <= b; end if; wait on s;", Diags);
  Stmt *S = STree.Body;
  ASSERT_FALSE(Diags.hasErrors());
  AstArena Dest;
  Stmt *C = cloneStmt(*S, Dest);
  EXPECT_EQ(stmtToString(*S), stmtToString(*C));
  EXPECT_NE(S, C);
}

TEST(Printer, ExprSpellingAndParens) {
  EXPECT_EQ(exprToString(*parseE("a and b or c")), "(a and b) or c");
  EXPECT_EQ(exprToString(*parseE("a and (b or c)")), "a and (b or c)");
  EXPECT_EQ(exprToString(*parseE("not a")), "not a");
  EXPECT_EQ(exprToString(*parseE("a = '1'")), "a = '1'");
  EXPECT_EQ(exprToString(*parseE("x(7 downto 0)")), "x(7 downto 0)");
  EXPECT_EQ(exprToString(*parseE("\"01\" & y")), "\"01\" & y");
  EXPECT_EQ(exprToString(*parseE("a + b * c")), "a + b * c");
  EXPECT_EQ(exprToString(*parseE("(a + b) * c")), "(a + b) * c");
}

TEST(Printer, OperatorSpellings) {
  EXPECT_STREQ(binaryOpSpelling(BinaryOpKind::Xnor), "xnor");
  EXPECT_STREQ(binaryOpSpelling(BinaryOpKind::Ne), "/=");
  EXPECT_STREQ(binaryOpSpelling(BinaryOpKind::Concat), "&");
  EXPECT_STREQ(unaryOpSpelling(UnaryOpKind::Not), "not");
}

TEST(Printer, PortModes) {
  EXPECT_STREQ(portModeSpelling(PortMode::In), "in");
  EXPECT_STREQ(portModeSpelling(PortMode::Out), "out");
  EXPECT_STREQ(portModeSpelling(PortMode::InOut), "inout");
}

TEST(Design, FindEntityAndArchitecture) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(
      "entity a is port(x : in std_logic); end a;\n"
      "entity b is port(x : in std_logic); end b;\n"
      "architecture impl of a is begin end impl;",
      Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_NE(F.findEntity("a"), nullptr);
  EXPECT_NE(F.findEntity("b"), nullptr);
  EXPECT_EQ(F.findEntity("c"), nullptr);
  EXPECT_NE(F.findArchitecture("impl"), nullptr);
  EXPECT_EQ(F.findArchitecture("nope"), nullptr);
}

TEST(Casting, IsaCastDynCast) {
  DiagnosticEngine Diags;
  StatementProgram STree = parseStatementProgram("x := a;", Diags);
  Stmt *S = STree.Body;
  Stmt *Raw = S;
  EXPECT_TRUE(isa<VarAssignStmt>(Raw));
  EXPECT_TRUE(isa<AssignStmtBase>(Raw)) << "base classof covers both";
  EXPECT_FALSE(isa<SignalAssignStmt>(Raw));
  EXPECT_NE(dyn_cast<VarAssignStmt>(Raw), nullptr);
  EXPECT_EQ(dyn_cast<WaitStmt>(Raw), nullptr);
  EXPECT_EQ(cast<VarAssignStmt>(Raw)->targetName(), "x");
}

} // namespace
