//===- AstWalk.cpp - Ordinal-stable AST traversals ----------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lang/AstWalk.h"

using namespace bugassist;

namespace {

// The walks are templates over the node pointer type, so the mutable and
// the const entry points share one recursion (the AST's accessors hand out
// child pointers from const nodes; ExprT / StmtT restore the constness).

template <typename ExprT, typename FnT>
void visitExpr(ExprT *E, size_t &Ordinal, const FnT &Fn) {
  if (!E)
    return;
  Fn(E, Ordinal++);
  switch (E->kind()) {
  case Expr::ArrayIndexKind:
    visitExpr<ExprT>(cast<ArrayIndex>(E)->base(), Ordinal, Fn);
    visitExpr<ExprT>(cast<ArrayIndex>(E)->index(), Ordinal, Fn);
    break;
  case Expr::UnaryKind:
    visitExpr<ExprT>(cast<UnaryExpr>(E)->operand(), Ordinal, Fn);
    break;
  case Expr::BinaryKind:
    visitExpr<ExprT>(cast<BinaryExpr>(E)->lhs(), Ordinal, Fn);
    visitExpr<ExprT>(cast<BinaryExpr>(E)->rhs(), Ordinal, Fn);
    break;
  case Expr::ConditionalKind:
    visitExpr<ExprT>(cast<ConditionalExpr>(E)->cond(), Ordinal, Fn);
    visitExpr<ExprT>(cast<ConditionalExpr>(E)->thenExpr(), Ordinal, Fn);
    visitExpr<ExprT>(cast<ConditionalExpr>(E)->elseExpr(), Ordinal, Fn);
    break;
  case Expr::CallKind:
    for (const auto &A : cast<CallExpr>(E)->args())
      visitExpr<ExprT>(A.get(), Ordinal, Fn);
    break;
  default:
    break;
  }
}

template <typename ExprT, typename FnT>
void visitStmtExprs(const Stmt *S, size_t &Ordinal, const FnT &Fn) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::BlockStmtKind:
    for (const auto &Sub : cast<BlockStmt>(S)->stmts())
      visitStmtExprs<ExprT>(Sub.get(), Ordinal, Fn);
    break;
  case Stmt::DeclStmtKind:
    visitExpr<ExprT>(cast<DeclStmt>(S)->decl()->init(), Ordinal, Fn);
    break;
  case Stmt::AssignStmtKind:
    visitExpr<ExprT>(cast<AssignStmt>(S)->index(), Ordinal, Fn);
    visitExpr<ExprT>(cast<AssignStmt>(S)->value(), Ordinal, Fn);
    break;
  case Stmt::IfStmtKind:
    visitExpr<ExprT>(cast<IfStmt>(S)->cond(), Ordinal, Fn);
    visitStmtExprs<ExprT>(cast<IfStmt>(S)->thenStmt(), Ordinal, Fn);
    visitStmtExprs<ExprT>(cast<IfStmt>(S)->elseStmt(), Ordinal, Fn);
    break;
  case Stmt::WhileStmtKind:
    visitExpr<ExprT>(cast<WhileStmt>(S)->cond(), Ordinal, Fn);
    visitStmtExprs<ExprT>(cast<WhileStmt>(S)->body(), Ordinal, Fn);
    break;
  case Stmt::ReturnStmtKind:
    visitExpr<ExprT>(cast<ReturnStmt>(S)->value(), Ordinal, Fn);
    break;
  case Stmt::AssertStmtKind:
    visitExpr<ExprT>(cast<AssertStmt>(S)->cond(), Ordinal, Fn);
    break;
  case Stmt::AssumeStmtKind:
    visitExpr<ExprT>(cast<AssumeStmt>(S)->cond(), Ordinal, Fn);
    break;
  case Stmt::ExprStmtKind:
    visitExpr<ExprT>(cast<ExprStmt>(S)->expr(), Ordinal, Fn);
    break;
  }
}

template <typename StmtT, typename FnT>
void visitStmt(StmtT *S, size_t &Ordinal, const FnT &Fn) {
  if (!S)
    return;
  Fn(S, Ordinal++);
  switch (S->kind()) {
  case Stmt::BlockStmtKind:
    for (const auto &Sub : cast<BlockStmt>(S)->stmts())
      visitStmt<StmtT>(Sub.get(), Ordinal, Fn);
    break;
  case Stmt::IfStmtKind:
    visitStmt<StmtT>(cast<IfStmt>(S)->thenStmt(), Ordinal, Fn);
    visitStmt<StmtT>(cast<IfStmt>(S)->elseStmt(), Ordinal, Fn);
    break;
  case Stmt::WhileStmtKind:
    visitStmt<StmtT>(cast<WhileStmt>(S)->body(), Ordinal, Fn);
    break;
  default:
    break;
  }
}

template <typename ExprT, typename FnT>
void walkExprs(const Program &P, const FnT &Fn) {
  size_t Ordinal = 0;
  for (const auto &G : P.globals())
    visitExpr<ExprT>(G->init(), Ordinal, Fn);
  for (const auto &F : P.functions())
    visitStmtExprs<ExprT>(F->body(), Ordinal, Fn);
}

template <typename StmtT, typename FnT>
void walkStmts(const Program &P, const FnT &Fn) {
  size_t Ordinal = 0;
  for (const auto &F : P.functions())
    visitStmt<StmtT>(F->body(), Ordinal, Fn);
}

} // namespace

void bugassist::forEachExpr(Program &P,
                            const std::function<void(Expr *, size_t)> &Fn) {
  walkExprs<Expr>(P, Fn);
}

void bugassist::forEachExpr(
    const Program &P, const std::function<void(const Expr *, size_t)> &Fn) {
  walkExprs<const Expr>(P, Fn);
}

void bugassist::forEachStmt(Program &P,
                            const std::function<void(Stmt *, size_t)> &Fn) {
  walkStmts<Stmt>(P, Fn);
}

void bugassist::forEachStmt(
    const Program &P, const std::function<void(const Stmt *, size_t)> &Fn) {
  walkStmts<const Stmt>(P, Fn);
}

void bugassist::forEachSubExpr(const Expr *Root,
                               const std::function<void(const Expr *)> &Fn) {
  size_t Ordinal = 0;
  visitExpr<const Expr>(Root, Ordinal,
                        [&](const Expr *E, size_t) { Fn(E); });
}

void bugassist::forEachSubExpr(const Stmt *Root,
                               const std::function<void(const Expr *)> &Fn) {
  size_t Ordinal = 0;
  visitStmtExprs<const Expr>(Root, Ordinal,
                             [&](const Expr *E, size_t) { Fn(E); });
}

void bugassist::forEachSubStmt(const Stmt *Root,
                               const std::function<void(const Stmt *)> &Fn) {
  size_t Ordinal = 0;
  visitStmt<const Stmt>(Root, Ordinal,
                        [&](const Stmt *S, size_t) { Fn(S); });
}
