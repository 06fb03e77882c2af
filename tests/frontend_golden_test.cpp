//===- tests/frontend_golden_test.cpp - Front-end output pinned -----------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
// Pins what the front end produces, byte for byte, against
// tests/golden/frontend/:
//
//  * tokens/: the token stream of every .vhd under tests/inputs/ and of a
//    set of hostile strings (bad bytes, broken literals, CRLF, tabs,
//    mixed-case keywords, ...): kind, spelling, IntValue and line:col of
//    each token, then the lexer's diagnostics, then the diagnostics of a
//    full parse of the same text (as a design, and for the crashers and
//    hostile strings as a statement program too).
//  * tokens/workloads.txt: token count and digest of the token dump of
//    the generated workloads (the AES core, pipeline, chain, copies).
//  * diagnostics.txt: the diagnostics text, in order and with locations,
//    of broken designs and statement programs run through
//    AnalysisSession::program().
//  * ast/: the parse tree of every .vhd under tests/inputs/ as ASTPrinter
//    prints it, then the program elaborated from it (dumpProgram:
//    objects, process bodies, resolutions and types); ast/workloads.txt
//    holds line counts and digests of the same dump for the generated
//    workloads.
//
// The elaborate overloads that take a const tree copy it; a test checks
// that the copy dumps the same as the adopted tree after the source tree
// is gone.
//
// A mismatch (or a missing golden file) writes the actual text under
// VIFC_ACTUAL_DIR, mirroring the golden layout, and fails; copying that
// directory over tests/golden/frontend/ re-records after a deliberate
// change.
//
//===----------------------------------------------------------------------===//

#include "ast/ASTPrinter.h"
#include "driver/AnalysisSession.h"
#include "oracle/Oracles.h"
#include "parse/Lexer.h"
#include "parse/Parser.h"
#include "support/Hash.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

using namespace vif;

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Compares \p Actual with the golden file \p Rel (relative to the golden
/// directory); on a mismatch, writes \p Actual under the actual directory.
void expectGolden(const std::string &Rel, const std::string &Actual) {
  fs::path Golden = fs::path(VIFC_GOLDEN_DIR) / Rel;
  bool Exists = fs::exists(Golden);
  std::string Expected = Exists ? slurp(Golden) : std::string();
  if (Exists && Expected == Actual)
    return;
  fs::path Out = fs::path(VIFC_ACTUAL_DIR) / Rel;
  fs::create_directories(Out.parent_path());
  std::ofstream(Out, std::ios::binary) << Actual;
  if (!Exists) {
    ADD_FAILURE() << "missing golden " << Golden << "; actual written to "
                  << Out;
    return;
  }
  // Name the first differing line so the failure reads without a diff.
  std::istringstream E(Expected), A(Actual);
  std::string EL, AL;
  unsigned Line = 1;
  for (;; ++Line) {
    bool HasE = static_cast<bool>(std::getline(E, EL));
    bool HasA = static_cast<bool>(std::getline(A, AL));
    if (!HasE && !HasA)
      break;
    if (HasE != HasA || EL != AL) {
      if (!HasE)
        EL = "<end of file>";
      if (!HasA)
        AL = "<end of file>";
      break;
    }
  }
  ADD_FAILURE() << Golden << " differs at line " << Line << "\n  golden: "
                << EL << "\n  actual: " << AL << "\nactual written to "
                << Out;
}

/// A spelling with every byte outside printable ASCII, and the quote and
/// backslash, escaped as \xHH.
std::string escaped(std::string_view S) {
  std::string Out = "\"";
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (U < 0x20 || U >= 0x7f || C == '"' || C == '\\') {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\x%02x", U);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

/// One line per token, then the lexer's diagnostics.
std::string tokenDump(const std::string &Source) {
  DiagnosticEngine Diags;
  TokenStream Tokens = Lexer(Source, Diags).lex();
  std::ostringstream OS;
  for (size_t I = 0; I < Tokens.size(); ++I) {
    const Token &T = Tokens[I];
    OS << T.Loc.str() << ' ' << tokenKindName(T.K) << ' '
       << escaped(Tokens.text(T)) << ' ' << T.intValue() << '\n';
  }
  OS << "-- lexer diagnostics\n" << Diags.str();
  return OS.str();
}

/// The token dump plus the diagnostics of parsing \p Source as a design
/// and, with \p AsStatements, as a statement program.
std::string frontEndDump(const std::string &Source, bool AsDesign,
                         bool AsStatements) {
  std::string Out = tokenDump(Source);
  if (AsDesign) {
    DiagnosticEngine Diags;
    parseDesign(Source, Diags);
    Out += "-- parse diagnostics (design)\n" + Diags.str();
  }
  if (AsStatements) {
    DiagnosticEngine Diags;
    parseStatementProgram(Source, Diags);
    Out += "-- parse diagnostics (statements)\n" + Diags.str();
  }
  return Out;
}

/// The corpus crashers are statement programs; everything else under
/// tests/inputs/ is a design.
bool isStatementProgram(const fs::path &File) {
  return File.filename().string().rfind("crash_", 0) == 0;
}

std::vector<fs::path> inputFiles() {
  std::vector<fs::path> Files;
  for (const fs::directory_entry &E :
       fs::recursive_directory_iterator(VIFC_INPUTS_DIR))
    if (E.is_regular_file() && E.path().extension() == ".vhd")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

TEST(FrontendGolden, TokensOfEveryInputFile) {
  std::vector<fs::path> Files = inputFiles();
  ASSERT_GE(Files.size(), 15u);
  for (const fs::path &File : Files) {
    std::string Rel = fs::relative(File, VIFC_INPUTS_DIR).string();
    std::replace(Rel.begin(), Rel.end(), '/', '_');
    bool Statements = isStatementProgram(File);
    expectGolden("tokens/" + Rel + ".txt",
                 frontEndDump(slurp(File), !Statements, Statements));
  }
}

struct Hostile {
  const char *Name;
  std::string Source;
};

std::vector<Hostile> hostileStrings() {
  return {
      {"empty", ""},
      {"whitespace_only", " \t\r\n\n  "},
      {"bad_byte", "a ? b"},
      {"control_byte", std::string("a \x01 b", 5)},
      {"nul_byte", std::string("x\0y", 3)},
      {"high_bytes", "caf\xc3\xa9 \xff z"},
      {"underscore_start", "_x x_ x__y"},
      {"slash_without_eq", "a / b"},
      {"slash_at_eof", "a /"},
      {"slash_eq", "a /= b"},
      {"unterminated_string", "\"0101"},
      {"string_across_newline", "\"01\n10\" x"},
      {"string_with_quote", "\"a\"\"b\""},
      {"empty_string", "\"\""},
      {"char_tick_at_eof", "'"},
      {"char_unclosed", "'a"},
      {"char_two_bodies", "'ab'"},
      {"char_newline_body", "'\n' x"},
      {"char_tick_body", "''' x"},
      {"char_then_ident", "x'1' y"},
      {"char_case", "'U' 'u' 'z' 'Z' '-'"},
      {"int_30_digits", "123456789012345678901234567890 7"},
      {"int_max", "9223372036854775807"},
      {"int_max_plus_one", "9223372036854775808 1"},
      {"int_leading_zeros", "000042 0"},
      {"int_then_letters", "12abc 3_4"},
      {"crlf", "entity e is\r\n  port(a : in std_logic);\r\nend e;\r\n"},
      {"tabs", "\tx\t:=\t'1';\t-- tab\tcomment\n\ty\t<=\tx;"},
      {"comment_at_eof", "a -- trailing comment without newline"},
      {"comment_only", "--"},
      {"comment_after_minus", "a - -b --c\nd---e"},
      {"mixed_case_keywords",
       "EnTiTy ArChItEcTuRe STD_LOGIC Std_Logic_Vector WaIt ON uNtIl "
       "DownTo TO InOut BEGIN end ElsIf XNOR xor NaNd nOr NOT nULL"},
      {"mixed_case_identifiers", "FooBar FOO_BAR2 q0 Q0 ABCDEFGHIJKLMNOPQRSTU"},
      {"keyword_prefixes", "entity1 ends iff whiles signals std_logics"},
      {"long_identifier",
       "a_very_long_identifier_well_past_any_small_string_buffer_0123456789"},
      {"operators", "( ) ; : , := <= < > >= = /= + - * & :=:<<=>>"},
      {"adjacent_tokens", "a<=b;c:=d(3downto0);"},
      {"mixed_garbage", "x := 'q' ? \"0Z\" / '' 99999999999999999999 ;"},
      {"design_with_errors",
       "entity e is port(a : in std_logic; b : out std_logic)\n"
       "architecture r of e is begin\n  p : process begin b <= a ? ; "
       "wait on a; end process p;\nend r;\n"},
  };
}

TEST(FrontendGolden, TokensOfHostileStrings) {
  for (const Hostile &H : hostileStrings())
    expectGolden(std::string("tokens/hostile_") + H.Name + ".txt",
                 frontEndDump(H.Source, true, true));
}

TEST(FrontendGolden, TokenDigestsOfWorkloads) {
  struct Workload {
    const char *Name;
    std::string Source;
  };
  std::vector<Workload> Workloads = {
      {"aesCoreDesign(1)", workloads::aesCoreDesign(1)},
      {"pipelineDesign(64)", workloads::pipelineDesign(64)},
      {"chainStatements(128)", workloads::chainStatements(128)},
      {"independentCopies(256)", workloads::independentCopies(256)},
      {"syncMeshDesign(3,2,4)", workloads::syncMeshDesign(3, 2, 4)},
      {"randomPortedDesign(7,4,6,3,2)",
       workloads::randomPortedDesign(7, 4, 6, 3, 2)},
  };
  std::ostringstream OS;
  for (const Workload &W : Workloads) {
    std::string Dump = tokenDump(W.Source);
    size_t Lines = static_cast<size_t>(
        std::count(Dump.begin(), Dump.end(), '\n'));
    OS << W.Name << " bytes=" << W.Source.size() << " lines=" << Lines
       << " digest=" << HashBuilder().str(Dump).hex() << '\n';
  }
  expectGolden("tokens/workloads.txt", OS.str());
}

struct Broken {
  const char *Name;
  bool Statements;
  std::string Source;
};

std::vector<Broken> brokenPrograms() {
  const std::string Head = "entity e is port(a : in std_logic; "
                           "v : in std_logic_vector(3 downto 0); "
                           "b : out std_logic);\nend e;\n"
                           "architecture r of e is\n";
  return {
      {"unclosed_port", false, "entity broken is port(d : in std_logic\n"},
      {"lex_then_parse", false,
       "entity e is port(a : in std_logic ? ; b : out std_logic);\n"
       "end e;\narchitecture r of e is begin\n  b <= a / ;\nend r;\n"},
      {"bad_literals", false,
       Head + "begin\n  p : process begin\n    b <= 'x';\n"
              "    b <= \"01q\";\n    wait on a;\n  end process p;\nend r;\n"},
      {"mismatched_end_names", false,
       "entity e is port(a : in std_logic);\nend f;\n"
       "architecture r of e is begin\nend s;\n"},
      {"bad_vector_range", false,
       "entity e is port(v : in std_logic_vector(0 downto 3));\nend e;\n"
       "architecture r of e is begin\nend r;\n"},
      {"label_without_process", false,
       Head + "begin\n  l : b <= a;\n  x y z;\nend r;\n"},
      {"bad_statements", false,
       Head + "begin\n  p : process begin\n    b a;\n    if then\n"
              "    end if;\n    wait on ;\n  end process q;\nend r;\n"},
      {"bad_slices", false,
       Head + "begin\n  p : process begin\n    b <= v(x downto 0);\n"
              "    b <= v(3 up 0);\n    wait on a;\n  end process p;\n"
              "end r;\n"},
      {"deep_nesting", false,
       Head + "begin\n  b <= " + std::string(600, '(') + "a" +
           std::string(600, ')') + ";\nend r;\n"},
      {"no_architecture", false, "entity e is port(a : in std_logic);\nend e;\n"},
      {"unknown_entity", false,
       "entity e is port(a : in std_logic);\nend e;\n"
       "architecture r of f is begin\nend r;\n"},
      {"undeclared_names", false,
       Head + "begin\n  p : process begin\n    b <= c;\n    d := a;\n"
              "    wait on e;\n  end process p;\n  x <= a;\nend r;\n"},
      {"redeclarations", false,
       "entity e is port(a : in std_logic; a : in std_logic; "
       "b : out std_logic);\nend e;\narchitecture r of e is\n"
       "  variable w : std_logic;\nbegin\n  p : process\n"
       "    variable t : std_logic;\n    variable t : std_logic;\n"
       "    signal s : std_logic;\n  begin\n    t := a;\n    b <= t;\n"
       "    wait on a;\n  end process p;\n  blk : block\n"
       "    variable u : std_logic;\n  begin\n  end block blk;\nend r;\n"},
      {"type_errors", false,
       Head + "  signal w : std_logic_vector(1 downto 0);\nbegin\n"
              "  p : process\n    variable t : std_logic;\n  begin\n"
              "    t := v;\n    w <= v;\n    b <= a and v;\n"
              "    b <= v + a;\n    if v then null; end if;\n"
              "    while w loop null; end loop;\n    b <= v = w;\n"
              "    w <= v(1 downto 0) + v(3 downto 2);\n"
              "    wait until v;\n  end process p;\nend r;\n"},
      {"port_modes_and_operators", false,
       Head + "begin\n  p : process\n    variable t : std_logic;\n"
              "  begin\n    a <= '1';\n    t := b;\n    t <= a;\n"
              "    b := a;\n    wait on t;\n  end process p;\nend r;\n"},
      {"slice_validity", false,
       Head + "begin\n  p : process begin\n    b <= v(7 downto 4);\n"
              "    b <= a(0 downto 0);\n    v(1 to 2) <= \"00\";\n"
              "    wait on a;\n  end process p;\nend r;\n"},
      {"initializers", false,
       Head + "  signal s1 : std_logic := a;\n"
              "  signal s2 : std_logic_vector(1 downto 0) := '1';\n"
              "  signal s3 : std_logic := \"01\";\n"
              "  signal s4 : std_logic_vector(1 downto 0) := \"011\";\n"
              "begin\n  p : process\n    variable t : std_logic := a;\n"
              "  begin\n    wait on a;\n  end process p;\nend r;\n"},
      {"empty_vector_literal", false,
       Head + "begin\n  p : process begin\n    b <= \"\";\n    wait on a;\n"
              "  end process p;\nend r;\n"},
      {"statements_parse_errors", true, "a := ; b <= c d; if x then"},
      {"statements_bad_decls", true,
       "variable x : std_logic := y;\nsignal s : std_logic;\n"
       "signal s : std_logic;\nvariable x : std_logic;\n"
       "x := s; wait on x; s := x;"},
      {"statements_type_errors", true,
       "variable v : std_logic_vector(3 downto 0);\n"
       "a := v; v := a; b <= v and a; if v then null; end if;"},
  };
}

TEST(FrontendGolden, DiagnosticsOfBrokenPrograms) {
  std::ostringstream OS;
  auto Run = [&](const std::string &Name, bool Statements,
                 const std::string &Source) {
    driver::SessionOptions Opts;
    Opts.Statements = Statements;
    driver::AnalysisSession S =
        driver::AnalysisSession::fromSource(Name, Source, Opts);
    bool Ok = S.program() != nullptr;
    OS << "== " << Name << (Statements ? " (statements)" : "") << ": "
       << (Ok ? "elaborated" : "failed") << '\n'
       << S.diagnostics().str();
  };
  for (const Broken &B : brokenPrograms())
    Run(B.Name, B.Statements, B.Source);
  for (const fs::path &File : inputFiles()) {
    std::string Rel = fs::relative(File, VIFC_INPUTS_DIR).string();
    Run(Rel, isStatementProgram(File), slurp(File));
  }
  expectGolden("diagnostics.txt", OS.str());
}

//===----------------------------------------------------------------------===//
// Parse trees and elaborated programs
//===----------------------------------------------------------------------===//

/// The parse tree of \p Source as ASTPrinter prints it (a statement
/// program: its declarations, then its body), then the program elaborated
/// by adopting that tree.
std::string astDump(const std::string &Source, bool Statements) {
  std::ostringstream OS;
  DiagnosticEngine Diags;
  std::optional<ElaboratedProgram> P;
  if (Statements) {
    StatementProgram Prog = parseStatementProgram(Source, Diags);
    if (Diags.hasErrors())
      return "-- parse failed\n";
    for (const Decl &D : Prog.Decls)
      printDecl(OS, D);
    printStmt(OS, *Prog.Body);
    P = elaborateStatements(std::move(Prog), Diags);
  } else {
    DesignFile File = parseDesign(Source, Diags);
    if (Diags.hasErrors())
      return "-- parse failed\n";
    printDesignFile(OS, File);
    P = elaborateDesign(std::move(File), Diags);
  }
  OS << "-- elaborated\n" << (P ? dumpProgram(*P) : "failed\n");
  return OS.str();
}

/// The program elaborated through the const overloads, which copy the
/// tree; the source tree is destroyed before the program is dumped.
std::string copiedProgramDump(const std::string &Source, bool Statements) {
  DiagnosticEngine Diags;
  std::optional<ElaboratedProgram> P;
  if (Statements) {
    auto Prog = std::make_unique<StatementProgram>(
        parseStatementProgram(Source, Diags));
    if (Diags.hasErrors())
      return "-- parse failed\n";
    P = elaborateStatements(*Prog->Body, Diags, &Prog->Decls);
  } else {
    auto File = std::make_unique<DesignFile>(parseDesign(Source, Diags));
    if (Diags.hasErrors())
      return "-- parse failed\n";
    P = elaborateDesign(*File, Diags);
  }
  return P ? dumpProgram(*P) : "failed\n";
}

/// The elaborated half of astDump.
std::string adoptedProgramDump(const std::string &Source, bool Statements) {
  std::string Dump = astDump(Source, Statements);
  size_t At = Dump.find("-- elaborated\n");
  return At == std::string::npos ? Dump
                                 : Dump.substr(At + sizeof("-- elaborated"));
}

struct Workload {
  const char *Name;
  bool Statements;
  std::string Source;
};

std::vector<Workload> treeWorkloads() {
  return {
      {"aesCoreDesign(1)", false, workloads::aesCoreDesign(1)},
      {"pipelineDesign(64)", false, workloads::pipelineDesign(64)},
      {"chainStatements(1024)", true, workloads::chainStatements(1024)},
      {"independentCopies(256)", true, workloads::independentCopies(256)},
      {"syncMeshDesign(3,2,4)", false, workloads::syncMeshDesign(3, 2, 4)},
      {"randomPortedDesign(7,4,6,3,2)", false,
       workloads::randomPortedDesign(7, 4, 6, 3, 2)},
  };
}

TEST(FrontendGolden, AstOfEveryInputFile) {
  for (const fs::path &File : inputFiles()) {
    std::string Rel = fs::relative(File, VIFC_INPUTS_DIR).string();
    std::replace(Rel.begin(), Rel.end(), '/', '_');
    expectGolden("ast/" + Rel + ".txt",
                 astDump(slurp(File), isStatementProgram(File)));
  }
}

TEST(FrontendGolden, AstDigestsOfWorkloads) {
  std::ostringstream OS;
  for (const Workload &W : treeWorkloads()) {
    std::string Dump = astDump(W.Source, W.Statements);
    size_t Lines = static_cast<size_t>(
        std::count(Dump.begin(), Dump.end(), '\n'));
    OS << W.Name << " lines=" << Lines
       << " digest=" << HashBuilder().str(Dump).hex() << '\n';
  }
  expectGolden("ast/workloads.txt", OS.str());
}

TEST(FrontendGolden, CopiedTreeElaboratesLikeTheAdoptedOne) {
  for (const fs::path &File : inputFiles()) {
    std::string Source = slurp(File);
    bool Statements = isStatementProgram(File);
    EXPECT_EQ(copiedProgramDump(Source, Statements),
              adoptedProgramDump(Source, Statements))
        << File;
  }
  for (const Workload &W : treeWorkloads())
    EXPECT_EQ(copiedProgramDump(W.Source, W.Statements),
              adoptedProgramDump(W.Source, W.Statements))
        << W.Name;
}

} // namespace
