//===- tests/lexer_test.cpp - VHDL1 lexer ---------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "parse/Lexer.h"

#include <gtest/gtest.h>

using namespace vif;

namespace {

TokenStream lex(const std::string &Source, DiagnosticEngine &Diags) {
  return Lexer(Source, Diags).lex();
}

std::vector<TokenKind> kinds(const std::string &Source) {
  DiagnosticEngine Diags;
  std::vector<TokenKind> Result;
  TokenStream Tokens = lex(Source, Diags);
  for (size_t I = 0; I < Tokens.size(); ++I)
    Result.push_back(Tokens[I].K);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Result;
}

TEST(Lexer, EmptyInputIsJustEof) {
  EXPECT_EQ(kinds(""), std::vector<TokenKind>{TokenKind::Eof});
  EXPECT_EQ(kinds("   \n\t  "), std::vector<TokenKind>{TokenKind::Eof});
}

TEST(Lexer, KeywordsAreCaseInsensitive) {
  auto K = kinds("ENTITY Entity entity eNtItY");
  EXPECT_EQ(K, (std::vector<TokenKind>{
                   TokenKind::KwEntity, TokenKind::KwEntity,
                   TokenKind::KwEntity, TokenKind::KwEntity,
                   TokenKind::Eof}));
}

TEST(Lexer, IdentifiersLowercased) {
  DiagnosticEngine Diags;
  auto Tokens = lex("FooBar foo_bar2", Diags);
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens.text(Tokens[0]), "foobar");
  EXPECT_EQ(Tokens.text(Tokens[1]), "foo_bar2");
}

TEST(Lexer, IntegerLiterals) {
  DiagnosticEngine Diags;
  auto Tokens = lex("0 7 123", Diags);
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].intValue(), 0);
  EXPECT_EQ(Tokens[1].intValue(), 7);
  EXPECT_EQ(Tokens[2].intValue(), 123);
}

TEST(Lexer, CharAndStringLiterals) {
  DiagnosticEngine Diags;
  auto Tokens = lex("'1' 'U' \"01ZX\" \"\"", Diags);
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_EQ(Tokens[0].K, TokenKind::CharLiteral);
  EXPECT_EQ(Tokens.text(Tokens[0]), "1");
  EXPECT_EQ(Tokens.text(Tokens[1]), "U");
  EXPECT_EQ(Tokens[2].K, TokenKind::StringLiteral);
  EXPECT_EQ(Tokens.text(Tokens[2]), "01ZX");
  EXPECT_EQ(Tokens.text(Tokens[3]), "");
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(Lexer, LiteralBodiesKeepCase) {
  DiagnosticEngine Diags;
  auto Tokens = lex("\"uU\"", Diags);
  EXPECT_EQ(Tokens.text(Tokens[0]), "uU")
      << "literal bodies are case sensitive";
}

TEST(Lexer, OperatorsAndPunctuation) {
  auto K = kinds("( ) ; : , := <= < > >= = /= + - * &");
  EXPECT_EQ(K, (std::vector<TokenKind>{
                   TokenKind::LParen, TokenKind::RParen, TokenKind::Semi,
                   TokenKind::Colon, TokenKind::Comma, TokenKind::ColonEq,
                   TokenKind::LessEq, TokenKind::Less, TokenKind::Greater,
                   TokenKind::GreaterEq, TokenKind::Eq, TokenKind::NotEq,
                   TokenKind::Plus, TokenKind::Minus, TokenKind::Star,
                   TokenKind::Amp, TokenKind::Eof}));
}

TEST(Lexer, MaximalMunchOnCompoundOperators) {
  auto K = kinds("a<=b");
  EXPECT_EQ(K, (std::vector<TokenKind>{TokenKind::Identifier,
                                       TokenKind::LessEq,
                                       TokenKind::Identifier,
                                       TokenKind::Eof}));
  K = kinds("a:=1");
  EXPECT_EQ(K[1], TokenKind::ColonEq);
}

TEST(Lexer, CommentsAreSkipped) {
  auto K = kinds("a -- this is a comment <= := entity\nb");
  EXPECT_EQ(K, (std::vector<TokenKind>{TokenKind::Identifier,
                                       TokenKind::Identifier,
                                       TokenKind::Eof}));
}

TEST(Lexer, CommentAtEndOfFile) {
  auto K = kinds("a -- no newline at end");
  EXPECT_EQ(K.size(), 2u);
}

TEST(Lexer, MinusVsComment) {
  auto K = kinds("a - b");
  EXPECT_EQ(K[1], TokenKind::Minus);
}

TEST(Lexer, SourceLocations) {
  DiagnosticEngine Diags;
  auto Tokens = lex("ab\n  cd", Diags);
  EXPECT_EQ(Tokens[0].Loc.Line, 1u);
  EXPECT_EQ(Tokens[0].Loc.Col, 1u);
  EXPECT_EQ(Tokens[1].Loc.Line, 2u);
  EXPECT_EQ(Tokens[1].Loc.Col, 3u);
}

TEST(Lexer, ErrorsReportedAndRecovered) {
  DiagnosticEngine Diags;
  auto Tokens = lex("a ? b", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  // The bad character is skipped; both identifiers survive.
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens.text(Tokens[0]), "a");
  EXPECT_EQ(Tokens.text(Tokens[1]), "b");
}

TEST(Lexer, UnterminatedString) {
  DiagnosticEngine Diags;
  lex("\"0101", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, SlashRequiresEq) {
  DiagnosticEngine Diags;
  lex("a / b", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, StdLogicTypeNamesAreKeywords) {
  auto K = kinds("std_logic std_logic_vector");
  EXPECT_EQ(K[0], TokenKind::KwStdLogic);
  EXPECT_EQ(K[1], TokenKind::KwStdLogicVector);
}

TEST(Lexer, WaitRelatedKeywords) {
  auto K = kinds("wait on until downto to inout");
  EXPECT_EQ(K, (std::vector<TokenKind>{
                   TokenKind::KwWait, TokenKind::KwOn, TokenKind::KwUntil,
                   TokenKind::KwDownto, TokenKind::KwTo, TokenKind::KwInout,
                   TokenKind::Eof}));
}

} // namespace
