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
/// engine; parseDesignFile returns a partial tree which callers must not use
/// when hasErrors().
///
//===----------------------------------------------------------------------===//

#ifndef VIF_PARSE_PARSER_H
#define VIF_PARSE_PARSER_H

#include "ast/Design.h"
#include "parse/Token.h"
#include "support/Diagnostics.h"

#include <optional>
#include <vector>

namespace vif {

class Parser {
public:
  Parser(TokenStream Tokens, DiagnosticEngine &Diags);
  /// Parses tokens with owning spellings (Lexer::lexAll's result).
  Parser(const std::vector<Token> &Tokens, DiagnosticEngine &Diags);

  /// Parses a whole program (entities and architectures until EOF).
  DesignFile parseDesignFile();

  /// Parses a single sequential statement list (used by tests and by
  /// analyses of stand-alone statement programs such as the paper's (a) and
  /// (b) examples).
  StmtPtr parseStatementList();

  /// Parses a single expression (used by tests).
  ExprPtr parseExpression();

  /// Parses a (possibly empty) declaration list.
  std::vector<Decl> parseDeclarations() { return parseDeclList(); }

private:
  const StreamToken &cur() const { return Tokens[Index]; }
  const StreamToken &peek(unsigned Ahead = 1) const;
  bool at(TokenKind K) const { return cur().is(K); }
  /// The spelling of the current token.
  std::string curText() const { return std::string(Tokens.text(cur())); }
  const StreamToken &consume();
  bool accept(TokenKind K);
  bool expect(TokenKind K, const char *Context);
  void skipToSemi();

  Entity parseEntity();
  Architecture parseArchitecture();
  std::vector<Port> parsePortList();
  Type parseType();
  std::vector<Decl> parseDeclList();
  ConcStmtPtr parseConcStmt();
  ConcStmtPtr parseProcess(std::string Label, SourceLoc Start);
  ConcStmtPtr parseBlock(std::string Label, SourceLoc Start);

  StmtPtr parseStmt();
  StmtPtr parseStmtImpl();
  StmtPtr parseIf(SourceLoc Start);
  StmtPtr parseIfImpl(SourceLoc Start);
  StmtPtr parseWhile(SourceLoc Start);
  StmtPtr parseWait(SourceLoc Start);
  StmtPtr parseAssignment();

  ExprPtr parseExpr();
  ExprPtr parseRelational();
  ExprPtr parseAdditive();
  ExprPtr parseMultiplicative();
  ExprPtr parsePrimary();
  ExprPtr parsePrimaryImpl();
  std::optional<SliceSpec> parseSliceSuffix();

  /// True if the statement-list terminator set begins at the cursor.
  bool atStmtListEnd() const;

  /// Guards the recursive descent against adversarial nesting (fuzzed
  /// inputs with tens of thousands of '(' or nested 'if's would otherwise
  /// overflow the stack). Checked wherever the grammar recurses through
  /// itself: primaries, statements and elsif chains share the counter.
  bool enterNesting();
  static constexpr unsigned MaxNestingDepth = 512;

  TokenStream Tokens;
  DiagnosticEngine &Diags;
  size_t Index = 0;
  unsigned NestingDepth = 0;
};

/// Convenience: lex and parse \p Source as a full design file. The
/// rvalue overload hands the text to the lexer instead of copying it.
DesignFile parseDesign(const std::string &Source, DiagnosticEngine &Diags);
DesignFile parseDesign(std::string &&Source, DiagnosticEngine &Diags);

/// Convenience: lex and parse \p Source as a statement list.
StmtPtr parseStatements(const std::string &Source, DiagnosticEngine &Diags);

/// Lexes and parses declarations followed by statements (a
/// StatementProgram, ast/Design.h). The rvalue overload hands the text to
/// the lexer instead of copying it.
StatementProgram parseStatementProgram(const std::string &Source,
                                       DiagnosticEngine &Diags);
StatementProgram parseStatementProgram(std::string &&Source,
                                       DiagnosticEngine &Diags);

} // namespace vif

#endif // VIF_PARSE_PARSER_H
