//===- parse/Token.h - VHDL1 tokens -----------------------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds and token storage for the VHDL1 lexer. VHDL keywords and
/// identifiers are case insensitive; the lexer normalizes identifier
/// spellings to lowercase and recognizes keywords in any case. Literal
/// bodies keep their exact case ('U' and 'u' are different characters,
/// only the former is std_logic).
///
//===----------------------------------------------------------------------===//

#ifndef VIF_PARSE_TOKEN_H
#define VIF_PARSE_TOKEN_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vif {

enum class TokenKind : uint8_t {
  Eof,
  Identifier,
  IntLiteral,
  CharLiteral,   ///< '0', 'U', ...
  StringLiteral, ///< "0101"

  // Keywords.
  KwArchitecture,
  KwAnd,
  KwBegin,
  KwBlock,
  KwDownto,
  KwElse,
  KwElsif,
  KwEnd,
  KwEntity,
  KwIf,
  KwIn,
  KwInout,
  KwIs,
  KwLoop,
  KwNand,
  KwNor,
  KwNot,
  KwNull,
  KwOf,
  KwOn,
  KwOr,
  KwOut,
  KwPort,
  KwProcess,
  KwSignal,
  KwStdLogic,
  KwStdLogicVector,
  KwThen,
  KwTo,
  KwUntil,
  KwVariable,
  KwWait,
  KwWhile,
  KwXnor,
  KwXor,

  // Punctuation and operators.
  LParen,
  RParen,
  Semi,
  Colon,
  Comma,
  ColonEq,   ///< :=
  LessEq,    ///< <= (signal assignment or relational, by context)
  Less,      ///< <
  Greater,   ///< >
  GreaterEq, ///< >=
  Eq,        ///< =
  NotEq,     ///< /=
  Plus,
  Minus,
  Star,
  Amp,
};

/// Human-readable token-kind name for diagnostics.
const char *tokenKindName(TokenKind K);

/// One token of a TokenStream, 24 bytes. An IntLiteral carries its value;
/// any other token the range of the stream's text that spells it (empty
/// for keywords and punctuation), so lexing allocates nothing per token.
struct Token {
  struct Range {
    uint32_t Offset;
    uint32_t Length;
  };

  SourceLoc Loc;
  union {
    int64_t Value;  ///< IntLiteral
    Range Spelling; ///< every other kind
  };
  TokenKind K = TokenKind::Eof;

  Token() : Value(0) {}

  bool is(TokenKind Kind) const { return K == Kind; }
  /// The value of an IntLiteral; 0 for any other token.
  int64_t intValue() const { return K == TokenKind::IntLiteral ? Value : 0; }
};

static_assert(sizeof(Token) <= 24, "a token is three words");

/// The lexer's output: the tokens and the text their spellings index into
/// (the lexer's copy of the source, identifiers lowercased in place;
/// literal bodies keep their case). Always ends with an Eof token.
class TokenStream {
public:
  /// Identifier spelling (lowercased), literal body, or empty.
  std::string_view text(const Token &T) const {
    if (T.is(TokenKind::IntLiteral))
      return {};
    return std::string_view(Text).substr(T.Spelling.Offset,
                                         T.Spelling.Length);
  }

  size_t size() const { return Tokens.size(); }
  bool empty() const { return Tokens.empty(); }
  const Token &operator[](size_t I) const { return Tokens[I]; }
  const Token &back() const { return Tokens.back(); }

private:
  friend class Lexer;

  std::string Text;
  std::vector<Token> Tokens;
};

} // namespace vif

#endif // VIF_PARSE_TOKEN_H
