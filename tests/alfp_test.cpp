//===- tests/alfp_test.cpp - ALFP engine + closure cross-check ------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "alfp/Alfp.h"
#include "alfp/AlfpParser.h"
#include "ifa/AlfpClosure.h"
#include "oracle/AlfpRd.h"
#include "parse/Parser.h"
#include "rd/Incremental.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

using namespace vif;
using alfp::Atom;
using alfp::Literal;
using alfp::RelId;
using alfp::Term;
using alfp::Tuple;

namespace {

TEST(Alfp, FactsAndQueries) {
  alfp::Program P;
  RelId Edge = P.relation("edge", 2);
  Atom A = P.atoms().intern("a"), B = P.atoms().intern("b");
  P.fact(Edge, {A, B});
  ASSERT_TRUE(P.solve());
  EXPECT_TRUE(P.contains(Edge, {A, B}));
  EXPECT_FALSE(P.contains(Edge, {B, A}));
  EXPECT_EQ(P.derivedCount(), 0u);
}

TEST(Alfp, NullaryRelationsIterateAndDerive) {
  // Arity-0 relations hold at most one (empty) row; the flat store must
  // still iterate and derive it (regression: a pointer-striding iterator
  // with stride 0 made begin() == end() while size() == 1).
  alfp::Program P;
  RelId Go = P.relation("go", 0);
  RelId Done = P.relation("done", 0);
  P.fact(Go, {});
  P.clause({Literal{Done, false, {}}, {Literal{Go, false, {}}}});
  ASSERT_TRUE(P.solve());
  EXPECT_TRUE(P.contains(Done, {}));
  EXPECT_EQ(P.derivedCount(), 1u);
  size_t Rows = 0;
  for (const Atom *T : P.tuples(Go)) {
    (void)T;
    ++Rows;
  }
  EXPECT_EQ(Rows, 1u);
}

TEST(Alfp, OverwideLiteralIsDiagnosed) {
  // The join loop tracks fresh bindings in a 64-bit position mask; wider
  // body literals must be rejected up front, not silently corrupted.
  alfp::Program P;
  unsigned Wide = static_cast<unsigned>(alfp::Program::MaxLiteralArity) + 1;
  RelId R = P.relation("r", Wide);
  RelId Q = P.relation("q", 1);
  std::vector<Term> Args;
  for (unsigned I = 0; I < Wide; ++I)
    Args.push_back(Term::var(I));
  P.clause({Literal{Q, false, {Term::var(0)}}, {Literal{R, false, Args}}});
  std::string Error;
  EXPECT_FALSE(P.solve(&Error));
  EXPECT_NE(Error.find("arity"), std::string::npos) << Error;
}

TEST(Alfp, TransitiveClosure) {
  alfp::Program P;
  RelId Edge = P.relation("edge", 2);
  RelId Path = P.relation("path", 2);
  Atom N[5];
  for (int I = 0; I < 5; ++I)
    N[I] = P.atoms().intern("n" + std::to_string(I));
  for (int I = 0; I + 1 < 5; ++I)
    P.fact(Edge, {N[I], N[I + 1]});
  Term X = Term::var(0), Y = Term::var(1), Z = Term::var(2);
  P.clause({Literal{Path, false, {X, Y}},
            {Literal{Edge, false, {X, Y}}}});
  P.clause({Literal{Path, false, {X, Z}},
            {Literal{Path, false, {X, Y}}, Literal{Edge, false, {Y, Z}}}});
  ASSERT_TRUE(P.solve());
  EXPECT_EQ(P.tuples(Path).size(), 10u) << "C(5,2) ordered pairs";
  EXPECT_TRUE(P.contains(Path, {N[0], N[4]}));
  EXPECT_FALSE(P.contains(Path, {N[4], N[0]}));
}

TEST(Alfp, SameGeneration) {
  // Classic non-linear recursion: sg(x,y) :- sibling base; sg through
  // parents.
  alfp::Program P;
  RelId Par = P.relation("par", 2);
  RelId Sg = P.relation("sg", 2);
  Atom A = P.atoms().intern("a"), B = P.atoms().intern("b"),
       C = P.atoms().intern("c"), D = P.atoms().intern("d"),
       R = P.atoms().intern("root");
  // root is parent of a and b; a parent of c; b parent of d.
  P.fact(Par, {R, A});
  P.fact(Par, {R, B});
  P.fact(Par, {A, C});
  P.fact(Par, {B, D});
  Term X = Term::var(0), Y = Term::var(1), XP = Term::var(2),
       YP = Term::var(3);
  // sg(x, y) :- par(p, x), par(p, y).
  P.clause({Literal{Sg, false, {X, Y}},
            {Literal{Par, false, {XP, X}}, Literal{Par, false, {XP, Y}}}});
  // sg(x, y) :- par(xp, x), sg(xp, yp), par(yp, y).
  P.clause({Literal{Sg, false, {X, Y}},
            {Literal{Par, false, {XP, X}}, Literal{Sg, false, {XP, YP}},
             Literal{Par, false, {YP, Y}}}});
  ASSERT_TRUE(P.solve());
  EXPECT_TRUE(P.contains(Sg, {C, D})) << "cousins are same generation";
  EXPECT_FALSE(P.contains(Sg, {A, C}));
}

TEST(Alfp, StratifiedNegation) {
  alfp::Program P;
  RelId Node = P.relation("node", 1);
  RelId Edge = P.relation("edge", 2);
  RelId Reach = P.relation("reach", 1);
  RelId Unreach = P.relation("unreach", 1);
  Atom A = P.atoms().intern("a"), B = P.atoms().intern("b"),
       C = P.atoms().intern("c");
  for (Atom N : {A, B, C})
    P.fact(Node, {N});
  P.fact(Edge, {A, B});
  P.fact(Reach, {A});
  Term X = Term::var(0), Y = Term::var(1);
  P.clause({Literal{Reach, false, {Y}},
            {Literal{Reach, false, {X}}, Literal{Edge, false, {X, Y}}}});
  // unreach(x) :- node(x), not reach(x).
  P.clause({Literal{Unreach, false, {X}},
            {Literal{Node, false, {X}}, Literal{Reach, true, {X}}}});
  ASSERT_TRUE(P.solve());
  EXPECT_TRUE(P.contains(Unreach, {C}));
  EXPECT_FALSE(P.contains(Unreach, {A}));
  EXPECT_FALSE(P.contains(Unreach, {B}));
}

TEST(Alfp, NonStratifiableRejected) {
  // p(x) :- node(x), not p(x) — negation through recursion.
  alfp::Program P;
  RelId Node = P.relation("node", 1);
  RelId Prop = P.relation("p", 1);
  P.fact(Node, {P.atoms().intern("a")});
  Term X = Term::var(0);
  P.clause({Literal{Prop, false, {X}},
            {Literal{Node, false, {X}}, Literal{Prop, true, {X}}}});
  std::string Error;
  EXPECT_FALSE(P.solve(&Error));
  EXPECT_NE(Error.find("stratifiable"), std::string::npos);
}

TEST(Alfp, UnsafeClauseRejected) {
  alfp::Program P;
  RelId Q = P.relation("q", 1);
  RelId R = P.relation("r", 1);
  Term X = Term::var(0), Y = Term::var(1);
  // Head variable Y unbound.
  P.clause({Literal{Q, false, {Y}}, {Literal{R, false, {X}}}});
  std::string Error;
  EXPECT_FALSE(P.solve(&Error));
  EXPECT_NE(Error.find("unsafe"), std::string::npos);
}

TEST(Alfp, ConstantsInLiterals) {
  alfp::Program P;
  RelId Color = P.relation("color", 2);
  RelId RedThing = P.relation("red_thing", 1);
  Atom Red = P.atoms().intern("red"), Blue = P.atoms().intern("blue"),
       Car = P.atoms().intern("car"), Sky = P.atoms().intern("sky");
  P.fact(Color, {Car, Red});
  P.fact(Color, {Sky, Blue});
  Term X = Term::var(0);
  P.clause({Literal{RedThing, false, {X}},
            {Literal{Color, false, {X, Term::atom(Red)}}}});
  ASSERT_TRUE(P.solve());
  EXPECT_TRUE(P.contains(RedThing, {Car}));
  EXPECT_EQ(P.tuples(RedThing).size(), 1u);
}

TEST(Alfp, SharedVariableJoin) {
  alfp::Program P;
  RelId E = P.relation("e", 2);
  RelId Tri = P.relation("tri", 3);
  Atom A = P.atoms().intern("a"), B = P.atoms().intern("b"),
       C = P.atoms().intern("c");
  P.fact(E, {A, B});
  P.fact(E, {B, C});
  P.fact(E, {C, A});
  Term X = Term::var(0), Y = Term::var(1), Z = Term::var(2);
  P.clause({Literal{Tri, false, {X, Y, Z}},
            {Literal{E, false, {X, Y}}, Literal{E, false, {Y, Z}},
             Literal{E, false, {Z, X}}}});
  ASSERT_TRUE(P.solve());
  EXPECT_EQ(P.tuples(Tri).size(), 3u) << "three rotations of the triangle";
}

//===----------------------------------------------------------------------===//
// Text syntax (alfp/AlfpParser.h)
//===----------------------------------------------------------------------===//

TEST(AlfpParser, FactsRulesAndQueries) {
  DiagnosticEngine Diags;
  alfp::ParsedProgram PP = alfp::parseAlfp(R"(
    -- a tiny reachability program
    edge(a, b).
    edge(b, c).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    ?path
  )",
                                           Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_TRUE(PP.P.solve());
  ASSERT_EQ(PP.Queries.size(), 1u);
  EXPECT_EQ(alfp::dumpRelation(PP.P, PP.Queries[0]),
            "path(a, b).\npath(a, c).\npath(b, c).\n");
}

TEST(AlfpParser, NegationSyntax) {
  DiagnosticEngine Diags;
  alfp::ParsedProgram PP = alfp::parseAlfp(R"(
    node(a). node(b). node(c).
    edge(a, b).
    reach(a).
    reach(Y) :- reach(X), edge(X, Y).
    dead(X) :- node(X), !reach(X).
    ?dead
  )",
                                           Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_TRUE(PP.P.solve());
  EXPECT_EQ(alfp::dumpRelation(PP.P, PP.Queries[0]), "dead(c).\n");
}

TEST(AlfpParser, VariablesAreUppercase) {
  DiagnosticEngine Diags;
  alfp::ParsedProgram PP = alfp::parseAlfp(
      "likes(alice, Bob_unbound) :- person(alice).", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  std::string Error;
  EXPECT_FALSE(PP.P.solve(&Error)) << "head variable unbound -> unsafe";
  EXPECT_NE(Error.find("unsafe"), std::string::npos);
}

TEST(AlfpParser, Errors) {
  auto ExpectError = [](const char *Source, const char *Fragment) {
    DiagnosticEngine Diags;
    alfp::parseAlfp(Source, Diags);
    EXPECT_TRUE(Diags.hasErrors()) << Source;
    EXPECT_NE(Diags.str().find(Fragment), std::string::npos)
        << "wanted '" << Fragment << "' in:\n"
        << Diags.str();
  };
  ExpectError("p(X).", "facts must be ground");
  ExpectError("!p(a).", "head must not be negated");
  ExpectError("p(a) q(b).", "expected '.' or ':-'");
  ExpectError("p(.", "expected argument");
  ExpectError("?nosuch", "unknown relation");
}

TEST(AlfpParser, CommentsAndWhitespace) {
  DiagnosticEngine Diags;
  alfp::ParsedProgram PP = alfp::parseAlfp(
      "-- leading comment\n  p ( a ) . -- trailing\n?p", Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_TRUE(PP.P.solve());
  EXPECT_EQ(alfp::dumpRelation(PP.P, PP.Queries[0]), "p(a).\n");
}

//===----------------------------------------------------------------------===//
// Cross-check: the ALFP encoding of Tables 7-9 equals the native closure
//===----------------------------------------------------------------------===//

void expectAlfpMatchesNative(const std::string &Source, bool IsDesign,
                             IFAOptions Opts) {
  DiagnosticEngine Diags;
  std::optional<ElaboratedProgram> P;
  if (IsDesign) {
    DesignFile F = parseDesign(Source, Diags);
    P = elaborateDesign(F, Diags);
  } else {
    StatementProgram Prog = parseStatementProgram(Source, Diags);
    P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  }
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ProgramCFG CFG = ProgramCFG::build(*P);
  IFAResult Native = analyzeInformationFlow(*P, CFG, Opts);
  AlfpClosureResult Alfp = closeWithAlfp(*P, CFG, Native, Opts);
  ASSERT_TRUE(Alfp.Solved) << Alfp.Error;
  EXPECT_TRUE(Alfp.RMgl == Native.RMgl)
      << "ALFP and native closures disagree on:\n"
      << Source;
}

TEST(AlfpClosure, ProgramA) {
  expectAlfpMatchesNative("c := b; b := a;", false, {});
}

TEST(AlfpClosure, ProgramBImproved) {
  IFAOptions Opts;
  Opts.ProgramEndOutgoing = true;
  expectAlfpMatchesNative("b := a; c := b;", false, Opts);
}

TEST(AlfpClosure, SignalDesign) {
  expectAlfpMatchesNative(R"(
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
    end rtl;)",
                          true, {});
}

TEST(AlfpClosure, SignalDesignImproved) {
  IFAOptions Opts;
  Opts.Improved = true;
  expectAlfpMatchesNative(R"(
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
                          true, Opts);
}

//===----------------------------------------------------------------------===//
// Cross-check: the ALFP encoding of the may-RD equations (Tables 4-5)
//===----------------------------------------------------------------------===//

void expectRdAlfpMatchesNative(const std::string &Source, bool IsDesign) {
  DiagnosticEngine Diags;
  std::optional<ElaboratedProgram> P;
  if (IsDesign) {
    DesignFile F = parseDesign(Source, Diags);
    P = elaborateDesign(F, Diags);
  } else {
    StatementProgram Prog = parseStatementProgram(Source, Diags);
    P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  }
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ProgramCFG CFG = ProgramCFG::build(*P);
  // The full-row view of the production solver...
  ProcessArtifactTable Table;
  ActiveSignalsResult Active;
  ReachingDefsResult Native;
  analyzeIncremental(*P, CFG, {}, Table, Active, Native);
  AlfpRdResult Alfp = solveRdWithAlfp(*P, CFG, Active);
  ASSERT_TRUE(Alfp.Solved) << Alfp.Error;
  // ... and the rows production keeps: Table 4 at waits, RD† of Table 5.
  IFAResult Prod = analyzeInformationFlow(*P, CFG);
  LabelIndexedRM Lo(Prod.RMlo);
  for (LabelId L = 1; L <= CFG.numLabels(); ++L) {
    EXPECT_TRUE(Alfp.MayPhiEntry[L] == Active.MayEntry[L])
        << "RD∪ϕ entry mismatch at label " << L << "\n" << Source;
    EXPECT_TRUE(Alfp.CfEntry[L] == Native.Entry[L])
        << "RDcf entry mismatch at label " << L << "\n" << Source;
    EXPECT_TRUE(Prod.Active.MayEntry[L] ==
                (CFG.isWaitLabel(L) ? Alfp.MayPhiEntry[L] : PairSet()))
        << "kept RD∪ϕ entry mismatch at label " << L << "\n" << Source;
    PairSet Dagger;
    for (const DefPair &D : Alfp.CfEntry[L]) {
      bool Read = false;
      for (uint32_t Raw : Lo.at(L, Access::R0))
        Read |= Raw == D.N.raw();
      if (Read)
        Dagger.append(D);
    }
    EXPECT_TRUE(Prod.RD.Entry[L] == Dagger)
        << "RD† mismatch at label " << L << "\n" << Source;
  }
}

TEST(AlfpRd, StatementProgram) {
  expectRdAlfpMatchesNative(
      "s <= a; t <= a; s <= b; wait on s; u := s; x := u;", false);
}

TEST(AlfpRd, BranchingAndLoops) {
  expectRdAlfpMatchesNative(
      "if c then s <= a; else x := b; end if;"
      " while d loop t <= x; x := a; end loop; wait on t; y := t;",
      false);
}

TEST(AlfpRd, MultiProcessDesign) {
  expectRdAlfpMatchesNative(R"(
    entity e is port(clk : in std_logic; q : out std_logic); end e;
    architecture rtl of e is
      signal s, t : std_logic;
    begin
      p1 : process begin s <= clk; wait on clk; t <= s; wait on clk;
      end process p1;
      p2 : process
        variable x : std_logic;
      begin
        x := t;
        q <= x;
        wait on t;
      end process p2;
    end rtl;)",
                            true);
}

class AlfpRdRandomCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlfpRdRandomCrossCheck, NativeEqualsAlfpOnRandomDesigns) {
  expectRdAlfpMatchesNative(
      workloads::randomDesign(GetParam(), 2 + GetParam() % 2, 5, 3), true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlfpRdRandomCrossCheck,
                         ::testing::Range<uint64_t>(1, 13));

class AlfpRandomCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlfpRandomCrossCheck, NativeEqualsAlfpOnRandomDesigns) {
  IFAOptions Opts;
  Opts.Improved = GetParam() % 2 == 0;
  expectAlfpMatchesNative(
      workloads::randomDesign(GetParam(), 2 + GetParam() % 3, 5, 3), true,
      Opts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlfpRandomCrossCheck,
                         ::testing::Range<uint64_t>(1, 17));

} // namespace
