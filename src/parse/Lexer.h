//===- parse/Lexer.h - VHDL1 lexer ------------------------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hand-written lexer for VHDL1: identifiers/keywords (case insensitive),
/// decimal integers, character and string literals, `--` line comments and
/// the operator/punctuation set of the fragment.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_PARSE_LEXER_H
#define VIF_PARSE_LEXER_H

#include "parse/Token.h"
#include "support/Diagnostics.h"

#include <string>

namespace vif {

class Lexer {
public:
  Lexer(std::string Source, DiagnosticEngine &Diags);

  /// Lexes the entire input, handing the lexer's copy of the source to the
  /// stream as its text. The result always ends with an Eof token; on
  /// malformed input, errors are reported to the diagnostic engine and the
  /// offending characters are skipped. A lexer lexes once.
  TokenStream lex();

private:
  Token lexOne();
  char peek(unsigned Ahead = 0) const;
  char advance();
  /// Consumes the run of \p Len bytes at Pos, none of them a newline.
  void skipInLine(size_t Len) {
    Pos += Len;
    Col += static_cast<unsigned>(Len);
  }
  bool atEnd() const { return Pos >= Source.size(); }
  SourceLoc loc() const { return SourceLoc(Line, Col); }
  void skipTrivia();

  /// A token spelled by Source[Offset, Offset + Length); the lexer keeps
  /// sources under 4 GiB, so both fit the token's 32-bit range.
  Token make(TokenKind K, SourceLoc Loc, size_t Offset = 0, size_t Length = 0);

  std::string Source;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Col = 1;
};

} // namespace vif

#endif // VIF_PARSE_LEXER_H
