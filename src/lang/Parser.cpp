//===- Parser.cpp - Mini-C recursive-descent parser ---------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include <optional>

using namespace bugassist;

namespace {

class Parser {
public:
  Parser(std::vector<Token> Tokens, DiagEngine &Diags)
      : Tokens(std::move(Tokens)), Diags(Diags) {}

  std::unique_ptr<Program> parse();

private:
  // --- token plumbing ------------------------------------------------------
  const Token &peek(int Ahead = 0) const {
    size_t P = Pos + static_cast<size_t>(Ahead);
    return P < Tokens.size() ? Tokens[P] : Tokens.back();
  }
  const Token &advance() { return Tokens[Pos < Tokens.size() - 1 ? Pos++ : Pos]; }
  bool check(TokenKind K) const { return peek().is(K); }
  bool accept(TokenKind K) {
    if (!check(K))
      return false;
    advance();
    return true;
  }
  bool expect(TokenKind K, const char *Context) {
    if (accept(K))
      return true;
    Diags.error(peek().Loc, std::string("expected ") + tokenKindName(K) +
                                " " + Context + ", found " +
                                tokenKindName(peek().Kind));
    return false;
  }
  bool atTypeKeyword() const {
    return check(TokenKind::KwInt) || check(TokenKind::KwBool) ||
           check(TokenKind::KwVoid);
  }

  // --- grammar -------------------------------------------------------------
  std::optional<Type> parseScalarType();
  std::unique_ptr<VarDecl> parseVarDecl(Type Base, bool AllowInit);
  std::unique_ptr<FunctionDecl> parseFunctionRest(Type RetTy,
                                                  const Token &NameTok);
  std::unique_ptr<BlockStmt> parseBlock();
  StmtPtr parseStmt();
  StmtPtr parseSimpleAssignNoSemi();
  ExprPtr parseExpr() { return parseConditional(); }
  ExprPtr parseConditional();
  ExprPtr parseBinary(int MinPrec);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  // --- nesting cap -----------------------------------------------------------
  // Statements and expressions recurse once per nesting level, here and in
  // every pass after parsing, so a pathological input (thousands of nested
  // parentheses) must be a compile error rather than a stack overflow. A
  // left-associative operator chain builds one tree level per operator, so
  // its operators count as levels too. A fixed cap, far above anything a
  // real program nests.
  static constexpr int MaxNesting = 256;

  /// Enters one nesting level. \returns false past the cap (reporting the
  /// error once, at the first level too deep).
  bool enterLevel() {
    if (++Depth == MaxNesting + 1)
      Diags.error(peek().Loc, "nesting deeper than " +
                                  std::to_string(MaxNesting) + " levels");
    return Depth <= MaxNesting;
  }

  /// Leaves every level entered during its lifetime.
  class LevelScope {
  public:
    explicit LevelScope(Parser &P) : P(P), Saved(P.Depth) {}
    ~LevelScope() { P.Depth = Saved; }

  private:
    Parser &P;
    int Saved;
  };

  std::vector<Token> Tokens;
  DiagEngine &Diags;
  size_t Pos = 0;
  int Depth = 0;
};

/// Precedence table for binary operators; higher binds tighter.
int binPrec(TokenKind K) {
  switch (K) {
  case TokenKind::PipePipe:
    return 1;
  case TokenKind::AmpAmp:
    return 2;
  case TokenKind::Pipe:
    return 3;
  case TokenKind::Caret:
    return 4;
  case TokenKind::Amp:
    return 5;
  case TokenKind::EqEq:
  case TokenKind::NotEq:
    return 6;
  case TokenKind::Lt:
  case TokenKind::Le:
  case TokenKind::Gt:
  case TokenKind::Ge:
    return 7;
  case TokenKind::Shl:
  case TokenKind::Shr:
    return 8;
  case TokenKind::Plus:
  case TokenKind::Minus:
    return 9;
  case TokenKind::Star:
  case TokenKind::Slash:
  case TokenKind::Percent:
    return 10;
  default:
    return 0;
  }
}

BinaryOp binOpFor(TokenKind K) {
  switch (K) {
  case TokenKind::PipePipe:
    return BinaryOp::LogOr;
  case TokenKind::AmpAmp:
    return BinaryOp::LogAnd;
  case TokenKind::Pipe:
    return BinaryOp::BitOr;
  case TokenKind::Caret:
    return BinaryOp::BitXor;
  case TokenKind::Amp:
    return BinaryOp::BitAnd;
  case TokenKind::EqEq:
    return BinaryOp::Eq;
  case TokenKind::NotEq:
    return BinaryOp::Ne;
  case TokenKind::Lt:
    return BinaryOp::Lt;
  case TokenKind::Le:
    return BinaryOp::Le;
  case TokenKind::Gt:
    return BinaryOp::Gt;
  case TokenKind::Ge:
    return BinaryOp::Ge;
  case TokenKind::Shl:
    return BinaryOp::Shl;
  case TokenKind::Shr:
    return BinaryOp::Shr;
  case TokenKind::Plus:
    return BinaryOp::Add;
  case TokenKind::Minus:
    return BinaryOp::Sub;
  case TokenKind::Star:
    return BinaryOp::Mul;
  case TokenKind::Slash:
    return BinaryOp::Div;
  case TokenKind::Percent:
    return BinaryOp::Rem;
  default:
    assert(false && "not a binary operator token");
    return BinaryOp::Add;
  }
}

std::optional<Type> Parser::parseScalarType() {
  if (accept(TokenKind::KwInt))
    return Type::intTy();
  if (accept(TokenKind::KwBool))
    return Type::boolTy();
  if (accept(TokenKind::KwVoid))
    return Type::voidTy();
  return std::nullopt;
}

std::unique_ptr<VarDecl> Parser::parseVarDecl(Type Base, bool AllowInit) {
  Token NameTok = peek();
  if (!expect(TokenKind::Identifier, "in declaration"))
    return nullptr;
  Type Ty = Base;
  if (accept(TokenKind::LBracket)) {
    if (!Base.isInt()) {
      Diags.error(NameTok.Loc, "only int arrays are supported");
      return nullptr;
    }
    Token SizeTok = peek();
    if (!expect(TokenKind::IntLiteral, "as array size"))
      return nullptr;
    if (SizeTok.IntValue <= 0 || SizeTok.IntValue > 1 << 20) {
      Diags.error(SizeTok.Loc, "array size out of range");
      return nullptr;
    }
    if (!expect(TokenKind::RBracket, "after array size"))
      return nullptr;
    Ty = Type::arrayTy(static_cast<int>(SizeTok.IntValue));
  }
  auto D = std::make_unique<VarDecl>(NameTok.Text, Ty, NameTok.Loc);
  if (accept(TokenKind::Assign)) {
    if (!AllowInit || Ty.isArray()) {
      Diags.error(peek().Loc, "initializer not allowed here");
      return nullptr;
    }
    ExprPtr Init = parseExpr();
    if (!Init)
      return nullptr;
    D->setInit(std::move(Init));
  }
  return D;
}

std::unique_ptr<FunctionDecl> Parser::parseFunctionRest(Type RetTy,
                                                        const Token &NameTok) {
  auto F = std::make_unique<FunctionDecl>(NameTok.Text, RetTy, NameTok.Loc);
  if (!expect(TokenKind::LParen, "after function name"))
    return nullptr;
  if (!check(TokenKind::RParen)) {
    do {
      std::optional<Type> PT = parseScalarType();
      if (!PT || PT->isVoid()) {
        Diags.error(peek().Loc, "expected parameter type");
        return nullptr;
      }
      auto P = parseVarDecl(*PT, /*AllowInit=*/false);
      if (!P)
        return nullptr;
      P->setParam(true);
      F->params().push_back(std::move(P));
    } while (accept(TokenKind::Comma));
  }
  if (!expect(TokenKind::RParen, "after parameters"))
    return nullptr;
  auto Body = parseBlock();
  if (!Body)
    return nullptr;
  F->setBody(std::move(Body));
  return F;
}

std::unique_ptr<BlockStmt> Parser::parseBlock() {
  SourceLoc Loc = peek().Loc;
  if (!expect(TokenKind::LBrace, "to open block"))
    return nullptr;
  std::vector<StmtPtr> Stmts;
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
    StmtPtr S = parseStmt();
    if (!S)
      return nullptr;
    Stmts.push_back(std::move(S));
  }
  if (!expect(TokenKind::RBrace, "to close block"))
    return nullptr;
  return std::make_unique<BlockStmt>(std::move(Stmts), Loc);
}

/// Parses `x = e` or `a[i] = e` without the trailing semicolon (for-loop
/// headers and regular assignment statements share this).
StmtPtr Parser::parseSimpleAssignNoSemi() {
  Token NameTok = peek();
  if (!expect(TokenKind::Identifier, "as assignment target"))
    return nullptr;
  ExprPtr Index;
  if (accept(TokenKind::LBracket)) {
    Index = parseExpr();
    if (!Index || !expect(TokenKind::RBracket, "after index"))
      return nullptr;
  }
  if (!expect(TokenKind::Assign, "in assignment"))
    return nullptr;
  ExprPtr Value = parseExpr();
  if (!Value)
    return nullptr;
  return std::make_unique<AssignStmt>(NameTok.Text, std::move(Index),
                                      std::move(Value), NameTok.Loc);
}

StmtPtr Parser::parseStmt() {
  SourceLoc Loc = peek().Loc;
  LevelScope Level(*this);
  if (!enterLevel())
    return nullptr;

  if (check(TokenKind::LBrace))
    return parseBlock();

  if (atTypeKeyword()) {
    std::optional<Type> T = parseScalarType();
    if (T->isVoid()) {
      Diags.error(Loc, "cannot declare a void variable");
      return nullptr;
    }
    auto D = parseVarDecl(*T, /*AllowInit=*/true);
    if (!D || !expect(TokenKind::Semi, "after declaration"))
      return nullptr;
    return std::make_unique<DeclStmt>(std::move(D), Loc);
  }

  if (accept(TokenKind::KwIf)) {
    if (!expect(TokenKind::LParen, "after 'if'"))
      return nullptr;
    ExprPtr Cond = parseExpr();
    if (!Cond || !expect(TokenKind::RParen, "after condition"))
      return nullptr;
    StmtPtr Then = parseStmt();
    if (!Then)
      return nullptr;
    StmtPtr Else;
    if (accept(TokenKind::KwElse)) {
      Else = parseStmt();
      if (!Else)
        return nullptr;
    }
    return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                    std::move(Else), Loc);
  }

  if (accept(TokenKind::KwWhile)) {
    if (!expect(TokenKind::LParen, "after 'while'"))
      return nullptr;
    ExprPtr Cond = parseExpr();
    if (!Cond || !expect(TokenKind::RParen, "after condition"))
      return nullptr;
    StmtPtr Body = parseStmt();
    if (!Body)
      return nullptr;
    return std::make_unique<WhileStmt>(std::move(Cond), std::move(Body), Loc);
  }

  if (accept(TokenKind::KwFor)) {
    // Desugar: for (init; cond; step) body
    //   ==>    { init; while (cond) { body; step; } }
    if (!expect(TokenKind::LParen, "after 'for'"))
      return nullptr;
    StmtPtr Init;
    if (!check(TokenKind::Semi)) {
      Init = parseSimpleAssignNoSemi();
      if (!Init)
        return nullptr;
    }
    if (!expect(TokenKind::Semi, "after for-initializer"))
      return nullptr;
    ExprPtr Cond;
    if (!check(TokenKind::Semi)) {
      Cond = parseExpr();
      if (!Cond)
        return nullptr;
    } else {
      Cond = std::make_unique<BoolLiteral>(true, Loc);
    }
    if (!expect(TokenKind::Semi, "after for-condition"))
      return nullptr;
    StmtPtr Step;
    if (!check(TokenKind::RParen)) {
      Step = parseSimpleAssignNoSemi();
      if (!Step)
        return nullptr;
    }
    if (!expect(TokenKind::RParen, "after for-header"))
      return nullptr;
    StmtPtr Body = parseStmt();
    if (!Body)
      return nullptr;

    std::vector<StmtPtr> Inner;
    Inner.push_back(std::move(Body));
    if (Step)
      Inner.push_back(std::move(Step));
    auto LoopBody = std::make_unique<BlockStmt>(std::move(Inner), Loc);
    auto Loop =
        std::make_unique<WhileStmt>(std::move(Cond), std::move(LoopBody), Loc);
    std::vector<StmtPtr> Outer;
    if (Init)
      Outer.push_back(std::move(Init));
    Outer.push_back(std::move(Loop));
    return std::make_unique<BlockStmt>(std::move(Outer), Loc);
  }

  if (accept(TokenKind::KwReturn)) {
    ExprPtr Value;
    if (!check(TokenKind::Semi)) {
      Value = parseExpr();
      if (!Value)
        return nullptr;
    }
    if (!expect(TokenKind::Semi, "after 'return'"))
      return nullptr;
    return std::make_unique<ReturnStmt>(std::move(Value), Loc);
  }

  if (accept(TokenKind::KwAssert) || check(TokenKind::KwAssume)) {
    bool IsAssume = accept(TokenKind::KwAssume);
    if (!expect(TokenKind::LParen, IsAssume ? "after 'assume'"
                                            : "after 'assert'"))
      return nullptr;
    ExprPtr Cond = parseExpr();
    if (!Cond || !expect(TokenKind::RParen, "after condition") ||
        !expect(TokenKind::Semi, "after statement"))
      return nullptr;
    if (IsAssume)
      return std::make_unique<AssumeStmt>(std::move(Cond), Loc);
    return std::make_unique<AssertStmt>(std::move(Cond), Loc);
  }

  if (check(TokenKind::Identifier)) {
    // Call statement or assignment.
    if (peek(1).is(TokenKind::LParen)) {
      ExprPtr Call = parsePostfix();
      if (!Call || !expect(TokenKind::Semi, "after call"))
        return nullptr;
      return std::make_unique<ExprStmt>(std::move(Call), Loc);
    }
    StmtPtr S = parseSimpleAssignNoSemi();
    if (!S || !expect(TokenKind::Semi, "after assignment"))
      return nullptr;
    return S;
  }

  Diags.error(Loc, std::string("expected statement, found ") +
                       tokenKindName(peek().Kind));
  return nullptr;
}

ExprPtr Parser::parseConditional() {
  LevelScope Level(*this);
  if (!enterLevel())
    return nullptr;
  ExprPtr Cond = parseBinary(1);
  if (!Cond)
    return nullptr;
  if (!accept(TokenKind::Question))
    return Cond;
  SourceLoc Loc = Cond->loc();
  ExprPtr Then = parseConditional();
  if (!Then || !expect(TokenKind::Colon, "in conditional expression"))
    return nullptr;
  ExprPtr Else = parseConditional();
  if (!Else)
    return nullptr;
  return std::make_unique<ConditionalExpr>(std::move(Cond), std::move(Then),
                                           std::move(Else), Loc);
}

ExprPtr Parser::parseBinary(int MinPrec) {
  LevelScope Level(*this);
  ExprPtr Lhs = parseUnary();
  if (!Lhs)
    return nullptr;
  for (;;) {
    int Prec = binPrec(peek().Kind);
    if (Prec == 0 || Prec < MinPrec)
      return Lhs;
    if (!enterLevel()) // Lhs becomes one level deeper
      return nullptr;
    Token OpTok = advance();
    ExprPtr Rhs = parseBinary(Prec + 1);
    if (!Rhs)
      return nullptr;
    Lhs = std::make_unique<BinaryExpr>(binOpFor(OpTok.Kind), std::move(Lhs),
                                       std::move(Rhs), OpTok.Loc);
  }
}

ExprPtr Parser::parseUnary() {
  SourceLoc Loc = peek().Loc;
  std::optional<UnaryOp> Op;
  if (accept(TokenKind::Minus))
    Op = UnaryOp::Neg;
  else if (accept(TokenKind::Bang))
    Op = UnaryOp::LogNot;
  else if (accept(TokenKind::Tilde))
    Op = UnaryOp::BitNot;
  if (!Op)
    return parsePostfix();
  LevelScope Level(*this);
  if (!enterLevel())
    return nullptr;
  ExprPtr E = parseUnary();
  return E ? std::make_unique<UnaryExpr>(*Op, std::move(E), Loc) : nullptr;
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  if (!E)
    return nullptr;
  for (;;) {
    if (accept(TokenKind::LBracket)) {
      SourceLoc Loc = E->loc();
      ExprPtr Index = parseExpr();
      if (!Index || !expect(TokenKind::RBracket, "after index"))
        return nullptr;
      E = std::make_unique<ArrayIndex>(std::move(E), std::move(Index), Loc);
      continue;
    }
    return E;
  }
}

ExprPtr Parser::parsePrimary() {
  Token T = peek();
  if (accept(TokenKind::IntLiteral))
    return std::make_unique<IntLiteral>(T.IntValue, T.Loc);
  if (accept(TokenKind::KwTrue))
    return std::make_unique<BoolLiteral>(true, T.Loc);
  if (accept(TokenKind::KwFalse))
    return std::make_unique<BoolLiteral>(false, T.Loc);
  if (accept(TokenKind::LParen)) {
    ExprPtr E = parseExpr();
    if (!E || !expect(TokenKind::RParen, "after expression"))
      return nullptr;
    return E;
  }
  if (accept(TokenKind::Identifier)) {
    if (accept(TokenKind::LParen)) {
      std::vector<ExprPtr> Args;
      if (!check(TokenKind::RParen)) {
        do {
          ExprPtr A = parseExpr();
          if (!A)
            return nullptr;
          Args.push_back(std::move(A));
        } while (accept(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen, "after call arguments"))
        return nullptr;
      return std::make_unique<CallExpr>(T.Text, std::move(Args), T.Loc);
    }
    return std::make_unique<VarRef>(T.Text, T.Loc);
  }
  Diags.error(T.Loc, std::string("expected expression, found ") +
                         tokenKindName(T.Kind));
  return nullptr;
}

std::unique_ptr<Program> Parser::parse() {
  auto Prog = std::make_unique<Program>();
  while (!check(TokenKind::Eof)) {
    SourceLoc Loc = peek().Loc;
    std::optional<Type> T = parseScalarType();
    if (!T) {
      Diags.error(Loc, std::string("expected declaration, found ") +
                           tokenKindName(peek().Kind));
      return nullptr;
    }
    Token NameTok = peek();
    if (!expect(TokenKind::Identifier, "as declaration name"))
      return nullptr;
    if (check(TokenKind::LParen)) {
      auto F = parseFunctionRest(*T, NameTok);
      if (!F)
        return nullptr;
      Prog->functions().push_back(std::move(F));
      continue;
    }
    // Global variable: reuse the tail of parseVarDecl by rewinding is
    // awkward, so duplicate the array/init suffix handling here.
    if (T->isVoid()) {
      Diags.error(Loc, "cannot declare a void variable");
      return nullptr;
    }
    Type Ty = *T;
    if (accept(TokenKind::LBracket)) {
      Token SizeTok = peek();
      if (!expect(TokenKind::IntLiteral, "as array size"))
        return nullptr;
      if (!expect(TokenKind::RBracket, "after array size"))
        return nullptr;
      Ty = Type::arrayTy(static_cast<int>(SizeTok.IntValue));
    }
    auto G = std::make_unique<VarDecl>(NameTok.Text, Ty, NameTok.Loc);
    G->setGlobal(true);
    if (accept(TokenKind::Assign)) {
      ExprPtr Init = parseExpr();
      if (!Init)
        return nullptr;
      G->setInit(std::move(Init));
    }
    if (!expect(TokenKind::Semi, "after global declaration"))
      return nullptr;
    Prog->globals().push_back(std::move(G));
  }
  return Prog;
}

} // namespace

std::unique_ptr<Program> bugassist::parseProgram(std::string_view Source,
                                                 DiagEngine &Diags) {
  Lexer L(Source, Diags);
  std::vector<Token> Tokens = L.lexAll();
  if (Diags.hasErrors())
    return nullptr;
  Parser P(std::move(Tokens), Diags);
  auto Prog = P.parse();
  if (Diags.hasErrors())
    return nullptr;
  return Prog;
}
