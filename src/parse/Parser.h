//===- parse/Parser.h - VHDL1 recursive-descent parser ----------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the VHDL1 grammar of Figure 1, using the
/// concrete VHDL syntax (`if .. then .. end if;`, `while .. loop .. end
/// loop;`, `wait on a, b until e;`). Errors are reported to the diagnostic
/// engine; after an error the tree is partial and callers must not use it.
///
/// Nodes go into the AstArena the parser is given (the one the returned
/// DesignFile or StatementProgram owns). Each distinct identifier is
/// copied into it once and every node naming it shares that spelling;
/// vector-literal bits are written there directly.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_PARSE_PARSER_H
#define VIF_PARSE_PARSER_H

#include "ast/Design.h"
#include "parse/Token.h"
#include "support/Diagnostics.h"

#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace vif {

class Parser {
public:
  Parser(TokenStream Tokens, AstArena &Arena, DiagnosticEngine &Diags);

  /// Parses a whole program (entities and architectures until EOF) into
  /// \p File, whose arena must be the parser's.
  void parseDesignFile(DesignFile &File);

  /// Parses a single sequential statement list (used by tests and by
  /// analyses of stand-alone statement programs such as the paper's (a) and
  /// (b) examples).
  Stmt *parseStatementList();

  /// Parses a single expression.
  Expr *parseExpression();

  /// Parses a (possibly empty) declaration list.
  std::vector<Decl> parseDeclarations();

private:
  const Token &cur() const { return Tokens[Index]; }
  const Token &peek(unsigned Ahead = 1) const;
  bool at(TokenKind K) const { return cur().is(K); }
  /// The spelling of the current token.
  std::string curText() const { return std::string(Tokens.text(cur())); }
  /// The current token's spelling, interned in the arena.
  std::string_view curName();
  const Token &consume();
  bool accept(TokenKind K);
  bool expect(TokenKind K, const char *Context);
  void skipToSemi();

  Entity parseEntity();
  Architecture parseArchitecture();
  std::vector<Port> parsePortList();
  Type parseType();
  ConcStmtPtr parseConcStmt();
  ConcStmtPtr parseProcess(std::string Label, SourceLoc Start);
  ConcStmtPtr parseBlock(std::string Label, SourceLoc Start);

  Stmt *parseStmt() { return nested([&] { return parseStmtImpl(); }); }
  Stmt *parseStmtImpl();
  Stmt *parseIf(SourceLoc Start) {
    return nested([&] { return parseIfImpl(Start); });
  }
  Stmt *parseIfImpl(SourceLoc Start);
  Stmt *parseWhile(SourceLoc Start);
  Stmt *parseWait(SourceLoc Start);
  Stmt *parseAssignment();

  Expr *parseRelational();
  Expr *parseAdditive();
  Expr *parseMultiplicative();
  Expr *parsePrimary() {
    return nested([&] { return parsePrimaryImpl(); });
  }
  Expr *parsePrimaryImpl();
  Expr *parseVectorLiteral();
  std::optional<SliceSpec> parseSliceSuffix();

  /// True if the statement-list terminator set begins at the cursor.
  bool atStmtListEnd() const;

  /// Runs \p Parse one nesting level deeper. Guards the recursive descent
  /// against adversarial nesting (fuzzed inputs with tens of thousands of
  /// '(' or nested 'if's would otherwise overflow the stack): past the
  /// budget it reports, skips to the next ';' and returns null. Wraps
  /// wherever the grammar recurses through itself: primaries, statements
  /// and elsif chains share the counter.
  template <typename Fn> auto nested(Fn Parse) -> decltype(Parse()) {
    if (NestingDepth >= MaxNestingDepth) {
      Diags.error(cur().Loc, "nesting too deep");
      skipToSemi();
      return nullptr;
    }
    ++NestingDepth;
    auto Node = Parse();
    --NestingDepth;
    return Node;
  }
  static constexpr unsigned MaxNestingDepth = 512;

  TokenStream Tokens;
  AstArena &Arena;
  DiagnosticEngine &Diags;
  size_t Index = 0;
  unsigned NestingDepth = 0;
  /// Arena spellings of the identifiers seen so far.
  std::unordered_set<std::string_view> Names;
  /// Statements of the lists being parsed, innermost last: a list copies
  /// its run into the arena and pops it.
  std::vector<Stmt *> OpenStmts;
  /// The `on` names of the wait being parsed.
  std::vector<std::string_view> OnNames;
};

/// Lexes and parses \p Source as a full design file. The lexer keeps
/// \p Source as its text, so a caller done with it should move it in.
DesignFile parseDesign(std::string Source, DiagnosticEngine &Diags);

/// Lexes and parses declarations followed by statements (a
/// StatementProgram, ast/Design.h), taking \p Source like parseDesign.
StatementProgram parseStatementProgram(std::string Source,
                                       DiagnosticEngine &Diags);

} // namespace vif

#endif // VIF_PARSE_PARSER_H
