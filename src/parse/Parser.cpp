//===- parse/Parser.cpp ---------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"

#include "parse/Lexer.h"

#include <algorithm>
#include <cassert>

using namespace vif;

Parser::Parser(TokenStream Tokens, AstArena &Arena, DiagnosticEngine &Diags)
    : Tokens(std::move(Tokens)), Arena(Arena), Diags(Diags) {
  assert(!this->Tokens.empty() &&
         this->Tokens.back().is(TokenKind::Eof) &&
         "token stream must end with Eof");
}

const Token &Parser::peek(unsigned Ahead) const {
  size_t I = Index + Ahead;
  if (I >= Tokens.size())
    I = Tokens.size() - 1; // Eof
  return Tokens[I];
}

const Token &Parser::consume() {
  const Token &T = cur();
  if (!at(TokenKind::Eof))
    ++Index;
  return T;
}

bool Parser::accept(TokenKind K) {
  if (!at(K))
    return false;
  consume();
  return true;
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (accept(K))
    return true;
  Diags.error(cur().Loc, std::string("expected ") + tokenKindName(K) +
                             " in " + Context + ", found " +
                             tokenKindName(cur().K));
  return false;
}

std::string_view Parser::curName() {
  std::string_view Text = Tokens.text(cur());
  auto It = Names.find(Text);
  if (It != Names.end())
    return *It;
  return *Names.insert(Arena.copyString(Text)).first;
}

void Parser::skipToSemi() {
  while (!at(TokenKind::Eof) && !at(TokenKind::Semi))
    consume();
  accept(TokenKind::Semi);
}

//===----------------------------------------------------------------------===//
// Design units
//===----------------------------------------------------------------------===//

void Parser::parseDesignFile(DesignFile &File) {
  assert(&File.Arena == &Arena && "the file must own the parser's arena");
  while (!at(TokenKind::Eof)) {
    if (at(TokenKind::KwEntity)) {
      File.Entities.push_back(parseEntity());
      continue;
    }
    if (at(TokenKind::KwArchitecture)) {
      File.Architectures.push_back(parseArchitecture());
      continue;
    }
    Diags.error(cur().Loc,
                std::string("expected 'entity' or 'architecture', found ") +
                    tokenKindName(cur().K));
    consume();
  }
}

Entity Parser::parseEntity() {
  Entity E;
  SourceLoc Start = cur().Loc;
  expect(TokenKind::KwEntity, "entity declaration");
  E.Name = curText();
  expect(TokenKind::Identifier, "entity declaration");
  expect(TokenKind::KwIs, "entity declaration");
  expect(TokenKind::KwPort, "entity declaration");
  expect(TokenKind::LParen, "port clause");
  E.Ports = parsePortList();
  expect(TokenKind::RParen, "port clause");
  expect(TokenKind::Semi, "port clause");
  expect(TokenKind::KwEnd, "entity declaration");
  if (at(TokenKind::KwEntity))
    consume(); // optional "end entity name;"
  if (at(TokenKind::Identifier)) {
    if (curText() != E.Name)
      Diags.error(cur().Loc, "entity name '" + curText() +
                                 "' at end does not match '" + E.Name + "'");
    consume();
  }
  expect(TokenKind::Semi, "entity declaration");
  E.Range = SourceRange(Start, cur().Loc);
  return E;
}

std::vector<Port> Parser::parsePortList() {
  std::vector<Port> Ports;
  for (;;) {
    Port P;
    P.Range = SourceRange(cur().Loc);
    // A port item may declare several names at once: a, b : in std_logic.
    std::vector<std::string> Names;
    Names.push_back(curText());
    if (!expect(TokenKind::Identifier, "port declaration"))
      return Ports;
    while (accept(TokenKind::Comma)) {
      Names.push_back(curText());
      if (!expect(TokenKind::Identifier, "port declaration"))
        return Ports;
    }
    expect(TokenKind::Colon, "port declaration");
    if (accept(TokenKind::KwIn))
      P.Mode = PortMode::In;
    else if (accept(TokenKind::KwOut))
      P.Mode = PortMode::Out;
    else if (accept(TokenKind::KwInout))
      P.Mode = PortMode::InOut;
    else
      Diags.error(cur().Loc, "expected port mode 'in', 'out' or 'inout'");
    P.Ty = parseType();
    for (const std::string &Name : Names) {
      Port Item = P;
      Item.Name = Name;
      Ports.push_back(std::move(Item));
    }
    if (!accept(TokenKind::Semi))
      return Ports;
    // Allow a trailing semicolon before ')'.
    if (at(TokenKind::RParen))
      return Ports;
  }
}

Type Parser::parseType() {
  if (accept(TokenKind::KwStdLogic))
    return Type::scalar();
  if (accept(TokenKind::KwStdLogicVector)) {
    expect(TokenKind::LParen, "vector type");
    bool Neg1 = accept(TokenKind::Minus);
    int Z1 = static_cast<int>(cur().intValue()) * (Neg1 ? -1 : 1);
    expect(TokenKind::IntLiteral, "vector range");
    bool Downto = true;
    if (accept(TokenKind::KwDownto))
      Downto = true;
    else if (accept(TokenKind::KwTo))
      Downto = false;
    else
      Diags.error(cur().Loc, "expected 'downto' or 'to' in vector range");
    bool Neg2 = accept(TokenKind::Minus);
    int Z2 = static_cast<int>(cur().intValue()) * (Neg2 ? -1 : 1);
    expect(TokenKind::IntLiteral, "vector range");
    expect(TokenKind::RParen, "vector type");
    if (Downto ? Z1 < Z2 : Z1 > Z2) {
      Diags.error(cur().Loc, "vector range runs against its direction");
      return Type::vector(Z1, Z1, Downto);
    }
    return Type::vector(Z1, Z2, Downto);
  }
  Diags.error(cur().Loc,
              std::string("expected 'std_logic' or 'std_logic_vector', "
                          "found ") +
                  tokenKindName(cur().K));
  return Type::scalar();
}

Architecture Parser::parseArchitecture() {
  Architecture A;
  SourceLoc Start = cur().Loc;
  expect(TokenKind::KwArchitecture, "architecture body");
  A.Name = curText();
  expect(TokenKind::Identifier, "architecture body");
  expect(TokenKind::KwOf, "architecture body");
  A.EntityName = curText();
  expect(TokenKind::Identifier, "architecture body");
  expect(TokenKind::KwIs, "architecture body");
  A.Decls = parseDeclarations();
  expect(TokenKind::KwBegin, "architecture body");
  while (!at(TokenKind::KwEnd) && !at(TokenKind::Eof))
    if (ConcStmtPtr S = parseConcStmt())
      A.Stmts.push_back(std::move(S));
  expect(TokenKind::KwEnd, "architecture body");
  if (at(TokenKind::KwArchitecture))
    consume(); // optional "end architecture name;"
  if (at(TokenKind::Identifier)) {
    if (curText() != A.Name)
      Diags.error(cur().Loc, "architecture name '" + curText() +
                                 "' at end does not match '" + A.Name + "'");
    consume();
  }
  expect(TokenKind::Semi, "architecture body");
  A.Range = SourceRange(Start, cur().Loc);
  return A;
}

std::vector<Decl> Parser::parseDeclarations() {
  std::vector<Decl> Decls;
  while (at(TokenKind::KwVariable) || at(TokenKind::KwSignal)) {
    Decl D;
    D.Range = SourceRange(cur().Loc);
    D.K = at(TokenKind::KwVariable) ? Decl::Kind::Variable
                                    : Decl::Kind::Signal;
    consume();
    std::vector<std::string> Names;
    Names.push_back(curText());
    if (!expect(TokenKind::Identifier, "declaration")) {
      skipToSemi();
      continue;
    }
    while (accept(TokenKind::Comma)) {
      Names.push_back(curText());
      if (!expect(TokenKind::Identifier, "declaration"))
        break;
    }
    expect(TokenKind::Colon, "declaration");
    D.Ty = parseType();
    if (accept(TokenKind::ColonEq))
      D.Init = parseExpression();
    expect(TokenKind::Semi, "declaration");
    for (size_t I = 0; I < Names.size(); ++I) {
      Decl Item;
      Item.K = D.K;
      Item.Name = Names[I];
      Item.Ty = D.Ty;
      Item.Range = D.Range;
      // The names share the one initializer node.
      Item.Init = D.Init;
      Decls.push_back(std::move(Item));
    }
  }
  return Decls;
}

ConcStmtPtr Parser::parseConcStmt() {
  SourceLoc Start = cur().Loc;
  // label : process ... | label : block ... | signal assignment.
  if (at(TokenKind::Identifier) && peek().is(TokenKind::Colon)) {
    std::string Label = curText();
    consume();
    consume(); // ':'
    if (at(TokenKind::KwProcess))
      return parseProcess(std::move(Label), Start);
    if (at(TokenKind::KwBlock))
      return parseBlock(std::move(Label), Start);
    Diags.error(cur().Loc, "expected 'process' or 'block' after label");
    skipToSemi();
    return nullptr;
  }
  // Concurrent signal assignment.
  if (at(TokenKind::Identifier)) {
    std::string_view Target = curName();
    consume();
    std::optional<SliceSpec> Slice = parseSliceSuffix();
    if (!expect(TokenKind::LessEq, "concurrent signal assignment")) {
      skipToSemi();
      return nullptr;
    }
    Expr *Value = parseExpression();
    expect(TokenKind::Semi, "concurrent signal assignment");
    return std::make_unique<ConcAssignStmt>(Target, Slice, Value,
                                            SourceRange(Start, cur().Loc));
  }
  Diags.error(cur().Loc, std::string("expected concurrent statement, found ") +
                             tokenKindName(cur().K));
  consume();
  return nullptr;
}

ConcStmtPtr Parser::parseProcess(std::string Label, SourceLoc Start) {
  expect(TokenKind::KwProcess, "process statement");
  std::vector<Decl> Decls = parseDeclarations();
  expect(TokenKind::KwBegin, "process statement");
  Stmt *Body = parseStatementList();
  expect(TokenKind::KwEnd, "process statement");
  expect(TokenKind::KwProcess, "process statement");
  if (at(TokenKind::Identifier)) {
    if (curText() != Label)
      Diags.error(cur().Loc, "process label '" + curText() +
                                 "' at end does not match '" + Label + "'");
    consume();
  }
  expect(TokenKind::Semi, "process statement");
  return std::make_unique<ProcessStmt>(std::move(Label), std::move(Decls),
                                       Body, SourceRange(Start, cur().Loc));
}

ConcStmtPtr Parser::parseBlock(std::string Label, SourceLoc Start) {
  expect(TokenKind::KwBlock, "block statement");
  std::vector<Decl> Decls = parseDeclarations();
  expect(TokenKind::KwBegin, "block statement");
  std::vector<ConcStmtPtr> Body;
  while (!at(TokenKind::KwEnd) && !at(TokenKind::Eof))
    if (ConcStmtPtr S = parseConcStmt())
      Body.push_back(std::move(S));
  expect(TokenKind::KwEnd, "block statement");
  expect(TokenKind::KwBlock, "block statement");
  if (at(TokenKind::Identifier)) {
    if (curText() != Label)
      Diags.error(cur().Loc, "block label '" + curText() +
                                 "' at end does not match '" + Label + "'");
    consume();
  }
  expect(TokenKind::Semi, "block statement");
  return std::make_unique<BlockStmt>(std::move(Label), std::move(Decls),
                                     std::move(Body),
                                     SourceRange(Start, cur().Loc));
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

bool Parser::atStmtListEnd() const {
  return at(TokenKind::KwEnd) || at(TokenKind::KwElse) ||
         at(TokenKind::KwElsif) || at(TokenKind::Eof);
}

Stmt *Parser::parseStatementList() {
  SourceLoc Start = cur().Loc;
  size_t Base = OpenStmts.size();
  while (!atStmtListEnd())
    if (Stmt *S = parseStmt())
      OpenStmts.push_back(S);
  size_t Count = OpenStmts.size() - Base;
  // A one-statement list is that statement.
  Stmt *List = Count == 1 ? OpenStmts[Base]
                          : Arena.make<CompoundStmt>(
                                Arena.copy(OpenStmts.data() + Base, Count),
                                SourceRange(Start, cur().Loc));
  OpenStmts.resize(Base);
  return List;
}

Stmt *Parser::parseStmtImpl() {
  SourceLoc Start = cur().Loc;
  if (accept(TokenKind::KwNull)) {
    expect(TokenKind::Semi, "null statement");
    return Arena.make<NullStmt>(SourceRange(Start, cur().Loc));
  }
  if (at(TokenKind::KwIf)) {
    consume();
    return parseIf(Start);
  }
  if (at(TokenKind::KwWhile)) {
    consume();
    return parseWhile(Start);
  }
  if (at(TokenKind::KwWait)) {
    consume();
    return parseWait(Start);
  }
  if (at(TokenKind::Identifier))
    return parseAssignment();
  Diags.error(cur().Loc, std::string("expected statement, found ") +
                             tokenKindName(cur().K));
  consume();
  return nullptr;
}

Stmt *Parser::parseIfImpl(SourceLoc Start) {
  Expr *Cond = parseExpression();
  expect(TokenKind::KwThen, "if statement");
  Stmt *Then = parseStatementList();
  Stmt *Else;
  if (at(TokenKind::KwElsif)) {
    // elsif desugars into a nested if that reuses this 'end if'.
    SourceLoc ElsifLoc = consume().Loc;
    Else = parseIf(ElsifLoc);
    // Past the nesting budget the elsif arm is only a diagnostic; an if
    // still needs both branches.
    if (!Else)
      Else = Arena.make<NullStmt>(SourceRange(ElsifLoc));
    return Arena.make<IfStmt>(Cond, Then, Else,
                              SourceRange(Start, cur().Loc));
  }
  if (accept(TokenKind::KwElse))
    Else = parseStatementList();
  else
    Else = Arena.make<NullStmt>(SourceRange(cur().Loc));
  expect(TokenKind::KwEnd, "if statement");
  expect(TokenKind::KwIf, "if statement");
  expect(TokenKind::Semi, "if statement");
  return Arena.make<IfStmt>(Cond, Then, Else, SourceRange(Start, cur().Loc));
}

Stmt *Parser::parseWhile(SourceLoc Start) {
  Expr *Cond = parseExpression();
  expect(TokenKind::KwLoop, "while loop");
  Stmt *Body = parseStatementList();
  expect(TokenKind::KwEnd, "while loop");
  expect(TokenKind::KwLoop, "while loop");
  expect(TokenKind::Semi, "while loop");
  return Arena.make<WhileStmt>(Cond, Body, SourceRange(Start, cur().Loc));
}

Stmt *Parser::parseWait(SourceLoc Start) {
  OnNames.clear();
  bool HasOn = false;
  if (accept(TokenKind::KwOn)) {
    HasOn = true;
    OnNames.push_back(curName());
    expect(TokenKind::Identifier, "wait statement");
    while (accept(TokenKind::Comma)) {
      OnNames.push_back(curName());
      expect(TokenKind::Identifier, "wait statement");
    }
  }
  ArenaArray<std::string_view> On = Arena.copy(OnNames);
  Expr *Until = nullptr;
  if (accept(TokenKind::KwUntil))
    Until = parseExpression();
  expect(TokenKind::Semi, "wait statement");
  return Arena.make<WaitStmt>(On, HasOn, Until,
                              SourceRange(Start, cur().Loc));
}

Stmt *Parser::parseAssignment() {
  SourceLoc Start = cur().Loc;
  std::string_view Target = curName();
  consume();
  std::optional<SliceSpec> Slice = parseSliceSuffix();
  if (accept(TokenKind::ColonEq)) {
    Expr *Value = parseExpression();
    expect(TokenKind::Semi, "variable assignment");
    return Arena.make<VarAssignStmt>(Target, Slice, Value,
                                     SourceRange(Start, cur().Loc));
  }
  if (accept(TokenKind::LessEq)) {
    Expr *Value = parseExpression();
    expect(TokenKind::Semi, "signal assignment");
    return Arena.make<SignalAssignStmt>(Target, Slice, Value,
                                        SourceRange(Start, cur().Loc));
  }
  Diags.error(cur().Loc, "expected ':=' or '<=' in assignment");
  skipToSemi();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

// Grammar (loosely following VHDL operator classes):
//   expr     ::= rel { (and|or|nand|nor|xor|xnor) rel }
//   rel      ::= add [ (=|/=|<|<=|>|>=) add ]
//   add      ::= mul { (+|-|&) mul }
//   mul      ::= primary { * primary }
//   primary  ::= literal | name [slice] | (expr) | not primary
// Unlike strict VHDL we allow mixing different logical operators without
// parentheses (left-associative); this accepts a superset of legal VHDL.

Expr *Parser::parseExpression() {
  Expr *LHS = parseRelational();
  for (;;) {
    BinaryOpKind Op;
    if (at(TokenKind::KwAnd))
      Op = BinaryOpKind::And;
    else if (at(TokenKind::KwOr))
      Op = BinaryOpKind::Or;
    else if (at(TokenKind::KwNand))
      Op = BinaryOpKind::Nand;
    else if (at(TokenKind::KwNor))
      Op = BinaryOpKind::Nor;
    else if (at(TokenKind::KwXor))
      Op = BinaryOpKind::Xor;
    else if (at(TokenKind::KwXnor))
      Op = BinaryOpKind::Xnor;
    else
      return LHS;
    SourceLoc Loc = consume().Loc;
    Expr *RHS = parseRelational();
    if (!LHS || !RHS)
      return LHS ? LHS : RHS;
    LHS = Arena.make<BinaryExpr>(Op, LHS, RHS, SourceRange(Loc));
  }
}

Expr *Parser::parseRelational() {
  Expr *LHS = parseAdditive();
  BinaryOpKind Op;
  if (at(TokenKind::Eq))
    Op = BinaryOpKind::Eq;
  else if (at(TokenKind::NotEq))
    Op = BinaryOpKind::Ne;
  else if (at(TokenKind::Less))
    Op = BinaryOpKind::Lt;
  else if (at(TokenKind::LessEq))
    Op = BinaryOpKind::Le;
  else if (at(TokenKind::Greater))
    Op = BinaryOpKind::Gt;
  else if (at(TokenKind::GreaterEq))
    Op = BinaryOpKind::Ge;
  else
    return LHS;
  SourceLoc Loc = consume().Loc;
  Expr *RHS = parseAdditive();
  if (!LHS || !RHS)
    return LHS ? LHS : RHS;
  return Arena.make<BinaryExpr>(Op, LHS, RHS, SourceRange(Loc));
}

Expr *Parser::parseAdditive() {
  Expr *LHS = parseMultiplicative();
  for (;;) {
    BinaryOpKind Op;
    if (at(TokenKind::Plus))
      Op = BinaryOpKind::Add;
    else if (at(TokenKind::Minus))
      Op = BinaryOpKind::Sub;
    else if (at(TokenKind::Amp))
      Op = BinaryOpKind::Concat;
    else
      return LHS;
    SourceLoc Loc = consume().Loc;
    Expr *RHS = parseMultiplicative();
    if (!LHS || !RHS)
      return LHS ? LHS : RHS;
    LHS = Arena.make<BinaryExpr>(Op, LHS, RHS, SourceRange(Loc));
  }
}

Expr *Parser::parseMultiplicative() {
  Expr *LHS = parsePrimary();
  while (at(TokenKind::Star)) {
    SourceLoc Loc = consume().Loc;
    Expr *RHS = parsePrimary();
    if (!LHS || !RHS)
      return LHS ? LHS : RHS;
    LHS = Arena.make<BinaryExpr>(BinaryOpKind::Mul, LHS, RHS,
                                 SourceRange(Loc));
  }
  return LHS;
}

Expr *Parser::parsePrimaryImpl() {
  SourceLoc Start = cur().Loc;
  if (at(TokenKind::KwNot)) {
    consume();
    Expr *Sub = parsePrimary();
    if (!Sub)
      return nullptr;
    return Arena.make<UnaryExpr>(UnaryOpKind::Not, Sub,
                                 SourceRange(Start, cur().Loc));
  }
  if (at(TokenKind::CharLiteral)) {
    std::string_view Text = Tokens.text(cur());
    const Token &T = consume();
    std::optional<StdLogic> V =
        Text.size() == 1 ? stdLogicFromChar(Text[0]) : std::nullopt;
    if (!V) {
      Diags.error(T.Loc,
                  "'" + std::string(Text) + "' is not a std_logic value");
      V = StdLogic::U;
    }
    return Arena.make<LogicLiteralExpr>(*V, SourceRange(T.Loc));
  }
  if (at(TokenKind::StringLiteral))
    return parseVectorLiteral();
  if (at(TokenKind::LParen)) {
    consume();
    Expr *Sub = parseExpression();
    expect(TokenKind::RParen, "parenthesized expression");
    return Sub;
  }
  if (at(TokenKind::Identifier)) {
    std::string_view Name = curName();
    SourceLoc Loc = consume().Loc;
    if (at(TokenKind::LParen)) {
      std::optional<SliceSpec> Slice = parseSliceSuffix();
      if (Slice)
        return Arena.make<SliceExpr>(Name, *Slice,
                                     SourceRange(Loc, cur().Loc));
      return nullptr;
    }
    return Arena.make<NameExpr>(Name, SourceRange(Loc));
  }
  Diags.error(Start, std::string("expected expression, found ") +
                         tokenKindName(cur().K));
  consume();
  return nullptr;
}

Expr *Parser::parseVectorLiteral() {
  std::string_view Text = Tokens.text(cur());
  const Token &T = consume();
  // The bits go straight into the arena; a character outside the
  // nine-valued alphabet makes the whole literal 'U's after a diagnostic.
  StdLogic *Bits = Text.empty() ? nullptr
                                : Arena.allocateArray<StdLogic>(Text.size());
  for (size_t I = 0; I < Text.size(); ++I) {
    std::optional<StdLogic> V = stdLogicFromChar(Text[I]);
    if (!V) {
      Diags.error(T.Loc, "string literal \"" + std::string(Text) +
                             "\" contains characters outside std_logic");
      std::fill(Bits, Bits + Text.size(), StdLogic::U);
      break;
    }
    Bits[I] = *V;
  }
  return Arena.make<VectorLiteralExpr>(ArenaArray<StdLogic>(Bits, Text.size()),
                                       SourceRange(T.Loc));
}

std::optional<SliceSpec> Parser::parseSliceSuffix() {
  if (!at(TokenKind::LParen))
    return std::nullopt;
  consume();
  SliceSpec Slice;
  Slice.Z1 = static_cast<int>(cur().intValue());
  if (!expect(TokenKind::IntLiteral, "slice")) {
    skipToSemi();
    return std::nullopt;
  }
  if (accept(TokenKind::KwDownto))
    Slice.Downto = true;
  else if (accept(TokenKind::KwTo))
    Slice.Downto = false;
  else {
    Diags.error(cur().Loc, "expected 'downto' or 'to' in slice");
    skipToSemi();
    return std::nullopt;
  }
  Slice.Z2 = static_cast<int>(cur().intValue());
  if (!expect(TokenKind::IntLiteral, "slice")) {
    skipToSemi();
    return std::nullopt;
  }
  expect(TokenKind::RParen, "slice");
  return Slice;
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

DesignFile vif::parseDesign(std::string Source, DiagnosticEngine &Diags) {
  DesignFile File;
  Parser P(Lexer(std::move(Source), Diags).lex(), File.Arena, Diags);
  P.parseDesignFile(File);
  return File;
}

StatementProgram vif::parseStatementProgram(std::string Source,
                                            DiagnosticEngine &Diags) {
  StatementProgram Prog;
  Parser P(Lexer(std::move(Source), Diags).lex(), Prog.Arena, Diags);
  Prog.Decls = P.parseDeclarations();
  Prog.Body = P.parseStatementList();
  return Prog;
}
