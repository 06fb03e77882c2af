//===- parse/Lexer.cpp ----------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "parse/Lexer.h"

#include <cstdint>
#include <cstring>

using namespace vif;

const char *vif::tokenKindName(TokenKind K) {
  switch (K) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::CharLiteral:
    return "character literal";
  case TokenKind::StringLiteral:
    return "string literal";
  case TokenKind::KwArchitecture:
    return "'architecture'";
  case TokenKind::KwAnd:
    return "'and'";
  case TokenKind::KwBegin:
    return "'begin'";
  case TokenKind::KwBlock:
    return "'block'";
  case TokenKind::KwDownto:
    return "'downto'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwElsif:
    return "'elsif'";
  case TokenKind::KwEnd:
    return "'end'";
  case TokenKind::KwEntity:
    return "'entity'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwIn:
    return "'in'";
  case TokenKind::KwInout:
    return "'inout'";
  case TokenKind::KwIs:
    return "'is'";
  case TokenKind::KwLoop:
    return "'loop'";
  case TokenKind::KwNand:
    return "'nand'";
  case TokenKind::KwNor:
    return "'nor'";
  case TokenKind::KwNot:
    return "'not'";
  case TokenKind::KwNull:
    return "'null'";
  case TokenKind::KwOf:
    return "'of'";
  case TokenKind::KwOn:
    return "'on'";
  case TokenKind::KwOr:
    return "'or'";
  case TokenKind::KwOut:
    return "'out'";
  case TokenKind::KwPort:
    return "'port'";
  case TokenKind::KwProcess:
    return "'process'";
  case TokenKind::KwSignal:
    return "'signal'";
  case TokenKind::KwStdLogic:
    return "'std_logic'";
  case TokenKind::KwStdLogicVector:
    return "'std_logic_vector'";
  case TokenKind::KwThen:
    return "'then'";
  case TokenKind::KwTo:
    return "'to'";
  case TokenKind::KwUntil:
    return "'until'";
  case TokenKind::KwVariable:
    return "'variable'";
  case TokenKind::KwWait:
    return "'wait'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwXnor:
    return "'xnor'";
  case TokenKind::KwXor:
    return "'xor'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::ColonEq:
    return "':='";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::Eq:
    return "'='";
  case TokenKind::NotEq:
    return "'/='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Amp:
    return "'&'";
  }
  return "token";
}

namespace {

/// ASCII character classes. Letters and digits are ASCII only, as in the
/// C locale: every other byte is a bad character outside literals.
enum : uint8_t { Letter = 1, Digit = 2, IdentCont = 4 };

struct CharClasses {
  uint8_t Of[256] = {};
  constexpr CharClasses() {
    for (int C = 'a'; C <= 'z'; ++C)
      Of[C] = Of[C - 'a' + 'A'] = Letter | IdentCont;
    for (int C = '0'; C <= '9'; ++C)
      Of[C] = Digit | IdentCont;
    Of[static_cast<unsigned char>('_')] = IdentCont;
  }
  bool is(char C, uint8_t Class) const {
    return (Of[static_cast<unsigned char>(C)] & Class) != 0;
  }
};

constexpr CharClasses Chars;

char lowered(char C) {
  return C >= 'A' && C <= 'Z' ? static_cast<char>(C - 'A' + 'a') : C;
}

struct Keyword {
  std::string_view Spelling;
  TokenKind K;
};

constexpr Keyword Keywords[] = {
    {"architecture", TokenKind::KwArchitecture},
    {"and", TokenKind::KwAnd},
    {"begin", TokenKind::KwBegin},
    {"block", TokenKind::KwBlock},
    {"downto", TokenKind::KwDownto},
    {"else", TokenKind::KwElse},
    {"elsif", TokenKind::KwElsif},
    {"end", TokenKind::KwEnd},
    {"entity", TokenKind::KwEntity},
    {"if", TokenKind::KwIf},
    {"in", TokenKind::KwIn},
    {"inout", TokenKind::KwInout},
    {"is", TokenKind::KwIs},
    {"loop", TokenKind::KwLoop},
    {"nand", TokenKind::KwNand},
    {"nor", TokenKind::KwNor},
    {"not", TokenKind::KwNot},
    {"null", TokenKind::KwNull},
    {"of", TokenKind::KwOf},
    {"on", TokenKind::KwOn},
    {"or", TokenKind::KwOr},
    {"out", TokenKind::KwOut},
    {"port", TokenKind::KwPort},
    {"process", TokenKind::KwProcess},
    {"signal", TokenKind::KwSignal},
    {"std_logic", TokenKind::KwStdLogic},
    {"std_logic_vector", TokenKind::KwStdLogicVector},
    {"then", TokenKind::KwThen},
    {"to", TokenKind::KwTo},
    {"until", TokenKind::KwUntil},
    {"variable", TokenKind::KwVariable},
    {"wait", TokenKind::KwWait},
    {"while", TokenKind::KwWhile},
    {"xnor", TokenKind::KwXnor},
    {"xor", TokenKind::KwXor},
};

/// Keywords by a hash of (length, first letter, last letter) that no two
/// of them share, so a lookup is one probe and at most one compare. A new
/// keyword that collides fails to compile here.
struct KeywordTable {
  static constexpr unsigned Size = 256;
  uint8_t Slot[Size] = {}; ///< keyword index + 1; 0 is empty

  static constexpr unsigned hash(size_t Length, char First, char Last) {
    return (static_cast<unsigned>(Length) * 31u +
            static_cast<unsigned char>(First) * 7u +
            static_cast<unsigned char>(Last)) %
           Size;
  }

  constexpr KeywordTable() {
    for (size_t I = 0; I < sizeof(Keywords) / sizeof(Keywords[0]); ++I) {
      std::string_view S = Keywords[I].Spelling;
      unsigned H = hash(S.size(), S.front(), S.back());
      if (Slot[H] != 0)
        throw "keyword hash collision";
      Slot[H] = static_cast<uint8_t>(I + 1);
    }
  }
};

constexpr KeywordTable KeywordSlots;

/// The keyword spelled by the lowercased, non-empty \p Word, or
/// Identifier.
TokenKind keywordKind(std::string_view Word) {
  unsigned Slot = KeywordSlots.Slot[KeywordTable::hash(
      Word.size(), Word.front(), Word.back())];
  if (Slot == 0)
    return TokenKind::Identifier;
  const Keyword &KW = Keywords[Slot - 1];
  if (KW.Spelling.size() != Word.size())
    return TokenKind::Identifier;
  // A byte loop: keywords are short, shorter than a library call's setup.
  for (size_t I = 0; I < Word.size(); ++I)
    if (KW.Spelling[I] != Word[I])
      return TokenKind::Identifier;
  return KW.K;
}

} // namespace

Lexer::Lexer(std::string Source, DiagnosticEngine &Diags)
    : Source(std::move(Source)), Diags(Diags) {}

char Lexer::peek(unsigned Ahead) const {
  return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

void Lexer::skipTrivia() {
  // Locals, not members, in the loops: the lexer writes lowercased
  // spellings through char pointers, which may alias any member.
  const char *Text = Source.data();
  size_t P = Pos, N = Source.size();
  unsigned L = Line, C = Col;
  while (P < N) {
    char Ch = Text[P];
    if (Ch == ' ' || Ch == '\t' || Ch == '\r') {
      ++P;
      ++C;
    } else if (Ch == '\n') {
      ++P;
      ++L;
      C = 1;
    } else if (Ch == '-' && P + 1 < N && Text[P + 1] == '-') {
      const char *NL =
          static_cast<const char *>(std::memchr(Text + P, '\n', N - P));
      size_t End = NL ? static_cast<size_t>(NL - Text) : N;
      C += static_cast<unsigned>(End - P);
      P = End;
    } else {
      break;
    }
  }
  Pos = P;
  Line = L;
  Col = C;
}

Token Lexer::make(TokenKind K, SourceLoc Loc, size_t Offset, size_t Length) {
  Token T;
  T.K = K;
  T.Loc = Loc;
  T.Spelling = {static_cast<uint32_t>(Offset), static_cast<uint32_t>(Length)};
  return T;
}

TokenStream Lexer::lex() {
  TokenStream Stream;
  // Spellings are 32-bit offsets; a source that long cannot be lexed in
  // memory anyway (at five bytes a token, its tokens alone would take
  // about 20 GiB).
  if (Source.size() >= UINT32_MAX) {
    Diags.error(loc(), "source text too large");
    Pos = Source.size();
  } else {
    // Real code spends at least three bytes per token (the designs and
    // workloads here average four to six), so this sizes the vector once
    // for them, and the pages past the tokens actually lexed are never
    // touched; denser input regrows it. Reserving for the worst case, one
    // token per byte, would claim 24 bytes of address space per byte.
    Stream.Tokens.reserve(Source.size() / 3 + 2);
  }
  for (;;) {
    Token T = lexOne();
    Stream.Tokens.push_back(T);
    if (T.is(TokenKind::Eof))
      break;
  }
  Stream.Text = std::move(Source);
  return Stream;
}

Token Lexer::lexOne() {
  // The error-recovery arms loop back here instead of recursing: recovery
  // once per bad byte must cost a loop iteration, not a stack frame
  // (megabytes of garbage input would otherwise overflow the stack).
  for (;;) {
    skipTrivia();
    SourceLoc Start = loc();
    if (atEnd())
      return make(TokenKind::Eof, Start);

    size_t Begin = Pos;
    char C = advance();

    if (Chars.is(C, Letter)) {
      // Lowercase the spelling in place: the stream's text is the
      // lexer's own copy of the source.
      char *Text = Source.data();
      size_t End = Pos, N = Source.size();
      Text[Begin] = lowered(C);
      while (End < N && Chars.is(Text[End], IdentCont)) {
        Text[End] = lowered(Text[End]);
        ++End;
      }
      skipInLine(End - Pos);
      TokenKind K =
          keywordKind(std::string_view(Source).substr(Begin, End - Begin));
      if (K != TokenKind::Identifier)
        return make(K, Start);
      return make(TokenKind::Identifier, Start, Begin, End - Begin);
    }

    if (Chars.is(C, Digit)) {
      // Accumulate with an explicit overflow check: a digit run longer
      // than int64 holds (fuzzed inputs produce them) must saturate with
      // a diagnostic, not wrap through signed overflow.
      const int64_t Max = INT64_MAX;
      int64_t Value = C - '0';
      bool Overflow = false;
      const char *Text = Source.data();
      size_t End = Pos, N = Source.size();
      for (; End < N && Chars.is(Text[End], Digit); ++End) {
        int64_t D = Text[End] - '0';
        if (!Overflow && Value > (Max - D) / 10) {
          Overflow = true;
          Value = Max;
        }
        if (!Overflow)
          Value = Value * 10 + D;
      }
      skipInLine(End - Pos);
      if (Overflow)
        Diags.error(Start, "integer literal too large");
      Token T = make(TokenKind::IntLiteral, Start);
      T.Value = Value;
      return T;
    }

    switch (C) {
    case '\'': {
      // Character literal: exactly one character between ticks.
      if (atEnd() || peek(1) != '\'') {
        Diags.error(Start, "malformed character literal");
        continue;
      }
      size_t Body = Pos;
      advance();
      advance(); // closing tick
      return make(TokenKind::CharLiteral, Start, Body, 1);
    }
    case '"': {
      const char *Text = Source.data();
      size_t Body = Pos, End = Pos, N = Source.size();
      while (End < N && Text[End] != '"' && Text[End] != '\n')
        ++End;
      skipInLine(End - Pos);
      Token T = make(TokenKind::StringLiteral, Start, Body, End - Body);
      if (atEnd() || peek() != '"') {
        Diags.error(Start, "unterminated string literal");
        return T;
      }
      advance(); // closing quote
      return T;
    }
    case '(':
      return make(TokenKind::LParen, Start);
    case ')':
      return make(TokenKind::RParen, Start);
    case ';':
      return make(TokenKind::Semi, Start);
    case ',':
      return make(TokenKind::Comma, Start);
    case ':':
      if (peek() == '=') {
        advance();
        return make(TokenKind::ColonEq, Start);
      }
      return make(TokenKind::Colon, Start);
    case '<':
      if (peek() == '=') {
        advance();
        return make(TokenKind::LessEq, Start);
      }
      return make(TokenKind::Less, Start);
    case '>':
      if (peek() == '=') {
        advance();
        return make(TokenKind::GreaterEq, Start);
      }
      return make(TokenKind::Greater, Start);
    case '=':
      return make(TokenKind::Eq, Start);
    case '/':
      if (peek() == '=') {
        advance();
        return make(TokenKind::NotEq, Start);
      }
      Diags.error(Start, "expected '=' after '/'");
      continue;
    case '+':
      return make(TokenKind::Plus, Start);
    case '-':
      return make(TokenKind::Minus, Start);
    case '*':
      return make(TokenKind::Star, Start);
    case '&':
      return make(TokenKind::Amp, Start);
    default:
      Diags.error(Start, std::string("unexpected character '") + C + "'");
      continue;
    }
  }
}
