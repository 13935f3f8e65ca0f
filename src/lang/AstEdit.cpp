//===- AstEdit.cpp - Ordinal-addressed program edits ----------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lang/AstEdit.h"

#include "lang/Sema.h"

#include <set>

using namespace bugassist;

namespace {

/// The BlockStmt that directly owns \p Target, or null.
BlockStmt *findOwnerBlock(Program &P, const Stmt *Target) {
  BlockStmt *Owner = nullptr;
  forEachStmt(P, [&](Stmt *S, size_t) {
    if (auto *B = dyn_cast<BlockStmt>(S))
      for (const auto &Sub : B->stmts())
        if (Sub.get() == Target)
          Owner = B;
  });
  return Owner;
}

Expr *findExprByOrdinal(Program &P, size_t Wanted) {
  Expr *Found = nullptr;
  forEachExpr(P, [&](Expr *E, size_t Ordinal) {
    if (Ordinal == Wanted)
      Found = E;
  });
  return Found;
}

Stmt *findStmtByOrdinal(Program &P, size_t Wanted) {
  Stmt *Found = nullptr;
  forEachStmt(P, [&](Stmt *S, size_t Ordinal) {
    if (Ordinal == Wanted)
      Found = S;
  });
  return Found;
}

/// `old` +/- |Delta| as a new expression, reusing the wrapped node's loc so
/// the edit stays on its line.
ExprPtr wrapPlusMinus(const Expr *Old, int64_t Delta) {
  BinaryOp Op = Delta >= 0 ? BinaryOp::Add : BinaryOp::Sub;
  int64_t Mag = Delta >= 0 ? Delta : -Delta;
  return std::make_unique<BinaryExpr>(
      Op, cloneExpr(Old), std::make_unique<IntLiteral>(Mag, Old->loc()),
      Old->loc());
}

/// Applies \p E to \p P in place; false when its target is missing.
bool applyInPlace(Program &P, const Edit &E) {
  if (E.GlobalIndex >= 0) {
    // WrapInit on a global.
    VarDecl *G = P.globals()[static_cast<size_t>(E.GlobalIndex)].get();
    if (!G->init())
      return false;
    G->setInit(wrapPlusMinus(G->init(), E.Delta));
    return true;
  }
  if (!E.IsStmt) {
    Expr *X = findExprByOrdinal(P, E.Ordinal);
    if (!X)
      return false;
    switch (E.Action) {
    case Edit::SwapOp:
      cast<BinaryExpr>(X)->setOp(E.NewOp);
      return true;
    case Edit::PerturbInt: {
      auto *L = cast<IntLiteral>(X);
      L->setValue(L->value() + E.Delta);
      return true;
    }
    case Edit::RenameRef:
      cast<VarRef>(X)->setName(E.NewName);
      return true;
    case Edit::WrapExprIndex: {
      auto *AI = cast<ArrayIndex>(X);
      AI->setIndex(wrapPlusMinus(AI->index(), E.Delta));
      return true;
    }
    default:
      return false;
    }
  }
  Stmt *St = findStmtByOrdinal(P, E.Ordinal);
  if (!St)
    return false;
  switch (E.Action) {
  case Edit::WrapStmtIndex: {
    auto *A = cast<AssignStmt>(St);
    if (!A->index())
      return false;
    A->setIndex(wrapPlusMinus(A->index(), E.Delta));
    return true;
  }
  case Edit::DropStmt: {
    BlockStmt *B = findOwnerBlock(P, St);
    if (!B)
      return false;
    auto &Stmts = B->stmts();
    for (auto It = Stmts.begin(); It != Stmts.end(); ++It)
      if (It->get() == St) {
        Stmts.erase(It);
        return true;
      }
    return false;
  }
  case Edit::DuplicateStmt: {
    BlockStmt *B = findOwnerBlock(P, St);
    if (!B || E.InsertPos > B->stmts().size())
      return false;
    // cloneStmt keeps the original SourceLoc, so the duplicate lands on
    // the original's line.
    B->stmts().insert(B->stmts().begin() + static_cast<long>(E.InsertPos),
                      cloneStmt(St));
    return true;
  }
  case Edit::WrapInit: {
    VarDecl *D = cast<DeclStmt>(St)->decl();
    if (!D->init())
      return false;
    D->setInit(wrapPlusMinus(D->init(), E.Delta));
    return true;
  }
  case Edit::NegateCond: {
    Expr *Cond = St->kind() == Stmt::IfStmtKind ? cast<IfStmt>(St)->cond()
                                                : cast<WhileStmt>(St)->cond();
    auto *BE = dyn_cast<BinaryExpr>(Cond);
    if (BE && isComparisonOp(BE->op())) {
      BE->setOp(E.NewOp);
      return true;
    }
    ExprPtr NewCond = std::make_unique<UnaryExpr>(
        UnaryOp::LogNot, cloneExpr(Cond), Cond->loc());
    if (St->kind() == Stmt::IfStmtKind)
      cast<IfStmt>(St)->setCond(std::move(NewCond));
    else
      cast<WhileStmt>(St)->setCond(std::move(NewCond));
    return true;
  }
  default:
    return false;
  }
}

} // namespace

Edit bugassist::swapOpEdit(size_t Ordinal, uint32_t Line, BinaryOp Old,
                           BinaryOp New) {
  Edit E;
  E.Action = Edit::SwapOp;
  E.Ordinal = Ordinal;
  E.Line = Line;
  E.NewOp = New;
  E.Description = std::string("'") + binaryOpSpelling(Old) + "' -> '" +
                  binaryOpSpelling(New) + "'";
  return E;
}

Edit bugassist::perturbIntEdit(size_t Ordinal, uint32_t Line, int64_t Value,
                               int64_t Delta) {
  Edit E;
  E.Action = Edit::PerturbInt;
  E.Ordinal = Ordinal;
  E.Line = Line;
  E.Delta = Delta;
  E.Description = "constant " + std::to_string(Value) + " -> " +
                  std::to_string(Value + Delta);
  return E;
}

std::unique_ptr<Program> bugassist::applyEdit(const Program &P,
                                              const Edit &E) {
  auto Clone = cloneProgram(P);
  DiagEngine Diags;
  if (!applyInPlace(*Clone, E) || !analyzeProgram(*Clone, Diags))
    return nullptr;
  return Clone;
}

void bugassist::forEachEditableExpr(
    const Program &P, const std::function<void(const Expr *, size_t)> &Fn) {
  std::set<const Expr *> Spec;
  auto Mark = [&](const Expr *E) { Spec.insert(E); };
  forEachStmt(P, [&](const Stmt *S, size_t) {
    if (const auto *A = dyn_cast<AssertStmt>(S))
      forEachSubExpr(A->cond(), Mark);
    else if (const auto *A = dyn_cast<AssumeStmt>(S))
      forEachSubExpr(A->cond(), Mark);
  });
  forEachExpr(P, [&](const Expr *E, size_t Ordinal) {
    if (!Spec.count(E))
      Fn(E, Ordinal);
  });
}
