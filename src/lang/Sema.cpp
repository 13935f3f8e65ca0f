//===- Sema.cpp - Mini-C semantic analysis -------------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lang/Sema.h"

#include "lang/AstWalk.h"
#include "lang/Parser.h"

#include <map>
#include <set>
#include <vector>

using namespace bugassist;

namespace {

class Sema {
public:
  Sema(Program &Prog, DiagEngine &Diags) : Prog(Prog), Diags(Diags) {}

  bool run();

private:
  // --- scopes ----------------------------------------------------------------
  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }
  bool declare(VarDecl *D) {
    auto &Top = Scopes.back();
    if (Top.count(D->name())) {
      Diags.error(D->loc(), "redeclaration of '" + D->name() + "'");
      return false;
    }
    Top[D->name()] = D;
    return true;
  }
  VarDecl *lookup(const std::string &Name) {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return Found->second;
    }
    return nullptr;
  }

  // --- checking ----------------------------------------------------------------
  bool checkFunction(FunctionDecl &F);
  bool checkStmt(Stmt *S);
  /// Type checks \p E; returns false (with diagnostics) on error. On
  /// success E->type() is set.
  bool checkExpr(Expr *E);
  bool requireType(Expr *E, Type Expected, const char *Context);

  void markRecursion();

  Program &Prog;
  DiagEngine &Diags;
  std::vector<std::map<std::string, VarDecl *>> Scopes;
  FunctionDecl *CurFunction = nullptr;
};

bool Sema::run() {
  bool Ok = true;

  // Globals: unique names, literal initializers only.
  pushScope();
  for (const auto &G : Prog.globals()) {
    G->setGlobal(true);
    if (!declare(G.get()))
      Ok = false;
    if (Expr *Init = G->init()) {
      if (!isa<IntLiteral>(Init) && !isa<BoolLiteral>(Init)) {
        Diags.error(Init->loc(),
                    "global initializer must be a literal constant");
        Ok = false;
      } else if (!checkExpr(Init)) {
        Ok = false;
      } else if ((G->type().isInt() && !Init->type().isInt()) ||
                 (G->type().isBool() && !Init->type().isBool())) {
        Diags.error(Init->loc(), "initializer type mismatch for global '" +
                                     G->name() + "'");
        Ok = false;
      }
    }
  }

  // Function table: unique names.
  std::set<std::string> FunctionNames;
  for (const auto &F : Prog.functions()) {
    if (!FunctionNames.insert(F->name()).second) {
      Diags.error(F->loc(), "redefinition of function '" + F->name() + "'");
      Ok = false;
    }
  }

  for (const auto &F : Prog.functions())
    if (!checkFunction(*F))
      Ok = false;

  popScope();
  if (Ok)
    markRecursion();
  return Ok;
}

bool Sema::checkFunction(FunctionDecl &F) {
  CurFunction = &F;
  pushScope();
  bool Ok = true;
  for (const auto &P : F.params()) {
    P->setParam(true);
    if (!declare(P.get()))
      Ok = false;
  }
  if (!F.body()) {
    Diags.error(F.loc(), "function '" + F.name() + "' has no body");
    Ok = false;
  } else if (!checkStmt(F.body())) {
    Ok = false;
  }
  popScope();
  CurFunction = nullptr;
  return Ok;
}

bool Sema::checkStmt(Stmt *S) {
  switch (S->kind()) {
  case Stmt::BlockStmtKind: {
    auto *B = cast<BlockStmt>(S);
    pushScope();
    bool Ok = true;
    for (const auto &Sub : B->stmts())
      if (!checkStmt(Sub.get()))
        Ok = false;
    popScope();
    return Ok;
  }
  case Stmt::DeclStmtKind: {
    auto *D = cast<DeclStmt>(S);
    VarDecl *V = D->decl();
    bool Ok = true;
    if (Expr *Init = V->init()) {
      Ok = checkExpr(Init);
      if (Ok && !(Init->type() == V->type())) {
        Diags.error(Init->loc(), "cannot initialize '" + V->name() + "' of type " +
                                     V->type().str() + " with " +
                                     Init->type().str());
        Ok = false;
      }
    }
    // Declare after checking the initializer so `int x = x;` is an error.
    if (!declare(V))
      Ok = false;
    return Ok;
  }
  case Stmt::AssignStmtKind: {
    auto *A = cast<AssignStmt>(S);
    VarDecl *Target = lookup(A->target());
    if (!Target) {
      Diags.error(A->loc(), "use of undeclared variable '" + A->target() + "'");
      return false;
    }
    A->setTargetDecl(Target);
    bool Ok = checkExpr(A->value());
    if (A->index()) {
      if (!Target->type().isArray()) {
        Diags.error(A->loc(), "'" + A->target() + "' is not an array");
        return false;
      }
      if (!checkExpr(A->index()))
        return false;
      if (!A->index()->type().isInt()) {
        Diags.error(A->index()->loc(), "array index must be int");
        return false;
      }
      if (Ok && !A->value()->type().isInt()) {
        Diags.error(A->value()->loc(), "array elements are int");
        Ok = false;
      }
      return Ok;
    }
    if (Target->type().isArray()) {
      Diags.error(A->loc(), "cannot assign whole arrays");
      return false;
    }
    if (Ok && !(A->value()->type() == Target->type())) {
      Diags.error(A->value()->loc(),
                  "cannot assign " + A->value()->type().str() + " to '" +
                      A->target() + "' of type " + Target->type().str());
      Ok = false;
    }
    return Ok;
  }
  case Stmt::IfStmtKind: {
    auto *I = cast<IfStmt>(S);
    bool Ok = checkExpr(I->cond()) &&
              requireType(I->cond(), Type::boolTy(), "if condition");
    if (!checkStmt(I->thenStmt()))
      Ok = false;
    if (I->elseStmt() && !checkStmt(I->elseStmt()))
      Ok = false;
    return Ok;
  }
  case Stmt::WhileStmtKind: {
    auto *W = cast<WhileStmt>(S);
    bool Ok = checkExpr(W->cond()) &&
              requireType(W->cond(), Type::boolTy(), "while condition");
    if (!checkStmt(W->body()))
      Ok = false;
    return Ok;
  }
  case Stmt::ReturnStmtKind: {
    auto *R = cast<ReturnStmt>(S);
    assert(CurFunction && "return outside function");
    if (CurFunction->returnType().isVoid()) {
      if (R->value()) {
        Diags.error(R->loc(), "void function cannot return a value");
        return false;
      }
      return true;
    }
    if (!R->value()) {
      Diags.error(R->loc(), "non-void function must return a value");
      return false;
    }
    if (!checkExpr(R->value()))
      return false;
    if (!(R->value()->type() == CurFunction->returnType())) {
      Diags.error(R->value()->loc(),
                  "return type mismatch: expected " +
                      CurFunction->returnType().str() + ", got " +
                      R->value()->type().str());
      return false;
    }
    return true;
  }
  case Stmt::AssertStmtKind: {
    auto *A = cast<AssertStmt>(S);
    return checkExpr(A->cond()) &&
           requireType(A->cond(), Type::boolTy(), "assert condition");
  }
  case Stmt::AssumeStmtKind: {
    auto *A = cast<AssumeStmt>(S);
    return checkExpr(A->cond()) &&
           requireType(A->cond(), Type::boolTy(), "assume condition");
  }
  case Stmt::ExprStmtKind: {
    auto *E = cast<ExprStmt>(S);
    if (!isa<CallExpr>(E->expr())) {
      Diags.error(E->loc(), "only calls may be used as statements");
      return false;
    }
    return checkExpr(E->expr());
  }
  }
  return false;
}

bool Sema::requireType(Expr *E, Type Expected, const char *Context) {
  if (E->type() == Expected)
    return true;
  Diags.error(E->loc(), std::string(Context) + " must be " + Expected.str() +
                            ", got " + E->type().str());
  return false;
}

bool Sema::checkExpr(Expr *E) {
  switch (E->kind()) {
  case Expr::IntLiteralKind:
    E->setType(Type::intTy());
    return true;
  case Expr::BoolLiteralKind:
    E->setType(Type::boolTy());
    return true;
  case Expr::VarRefKind: {
    auto *V = cast<VarRef>(E);
    VarDecl *D = lookup(V->name());
    if (!D) {
      Diags.error(V->loc(), "use of undeclared variable '" + V->name() + "'");
      return false;
    }
    V->setDecl(D);
    V->setType(D->type());
    return true;
  }
  case Expr::ArrayIndexKind: {
    auto *A = cast<ArrayIndex>(E);
    if (!checkExpr(A->base()) || !checkExpr(A->index()))
      return false;
    if (!A->base()->type().isArray()) {
      Diags.error(A->loc(), "subscripted value is not an array");
      return false;
    }
    if (!A->index()->type().isInt()) {
      Diags.error(A->index()->loc(), "array index must be int");
      return false;
    }
    E->setType(Type::intTy());
    return true;
  }
  case Expr::UnaryKind: {
    auto *U = cast<UnaryExpr>(E);
    if (!checkExpr(U->operand()))
      return false;
    switch (U->op()) {
    case UnaryOp::Neg:
    case UnaryOp::BitNot:
      if (!U->operand()->type().isInt()) {
        Diags.error(U->loc(), "operand of arithmetic negation must be int");
        return false;
      }
      E->setType(Type::intTy());
      return true;
    case UnaryOp::LogNot:
      if (!U->operand()->type().isBool()) {
        Diags.error(U->loc(), "operand of '!' must be bool");
        return false;
      }
      E->setType(Type::boolTy());
      return true;
    }
    return false;
  }
  case Expr::BinaryKind: {
    auto *B = cast<BinaryExpr>(E);
    if (!checkExpr(B->lhs()) || !checkExpr(B->rhs()))
      return false;
    Type L = B->lhs()->type(), R = B->rhs()->type();
    if (isLogicalOp(B->op())) {
      if (!L.isBool() || !R.isBool()) {
        Diags.error(B->loc(), std::string("operands of '") +
                                  binaryOpSpelling(B->op()) +
                                  "' must be bool");
        return false;
      }
      E->setType(Type::boolTy());
      return true;
    }
    if (B->op() == BinaryOp::Eq || B->op() == BinaryOp::Ne) {
      if (!(L == R) || !L.isScalar()) {
        Diags.error(B->loc(), "equality operands must have the same scalar type");
        return false;
      }
      E->setType(Type::boolTy());
      return true;
    }
    if (isComparisonOp(B->op())) {
      if (!L.isInt() || !R.isInt()) {
        Diags.error(B->loc(), std::string("operands of '") +
                                  binaryOpSpelling(B->op()) +
                                  "' must be int");
        return false;
      }
      E->setType(Type::boolTy());
      return true;
    }
    // Arithmetic / bitwise / shifts.
    if (!L.isInt() || !R.isInt()) {
      Diags.error(B->loc(), std::string("operands of '") +
                                binaryOpSpelling(B->op()) + "' must be int");
      return false;
    }
    E->setType(Type::intTy());
    return true;
  }
  case Expr::ConditionalKind: {
    auto *C = cast<ConditionalExpr>(E);
    if (!checkExpr(C->cond()) || !checkExpr(C->thenExpr()) ||
        !checkExpr(C->elseExpr()))
      return false;
    if (!requireType(C->cond(), Type::boolTy(), "conditional guard"))
      return false;
    if (!(C->thenExpr()->type() == C->elseExpr()->type()) ||
        !C->thenExpr()->type().isScalar()) {
      Diags.error(C->loc(), "conditional arms must have the same scalar type");
      return false;
    }
    E->setType(C->thenExpr()->type());
    return true;
  }
  case Expr::CallKind: {
    auto *C = cast<CallExpr>(E);
    FunctionDecl *F = Prog.findFunction(C->callee());
    if (!F) {
      Diags.error(C->loc(), "call to undeclared function '" + C->callee() + "'");
      return false;
    }
    C->setDecl(F);
    if (C->args().size() != F->params().size()) {
      Diags.error(C->loc(), "wrong number of arguments to '" + C->callee() +
                                "': expected " +
                                std::to_string(F->params().size()) + ", got " +
                                std::to_string(C->args().size()));
      return false;
    }
    bool Ok = true;
    for (size_t I = 0; I < C->args().size(); ++I) {
      Expr *Arg = C->args()[I].get();
      if (!checkExpr(Arg)) {
        Ok = false;
        continue;
      }
      const Type &PT = F->params()[I]->type();
      if (PT.isArray()) {
        // Arrays are passed by reference; the argument must be a plain
        // array variable of the same size.
        auto *VR = dyn_cast<VarRef>(Arg);
        if (!VR || !VR->type().isArray() ||
            VR->type().ArraySize != PT.ArraySize) {
          Diags.error(Arg->loc(),
                      "array argument must be an array variable of type " +
                          PT.str());
          Ok = false;
        }
        continue;
      }
      if (!(Arg->type() == PT)) {
        Diags.error(Arg->loc(), "argument " + std::to_string(I + 1) +
                                    " to '" + C->callee() + "' must be " +
                                    PT.str() + ", got " + Arg->type().str());
        Ok = false;
      }
    }
    E->setType(F->returnType());
    return Ok;
  }
  }
  return false;
}

void Sema::markRecursion() {
  // Build the call graph and mark every function on a cycle (or reaching
  // itself) as recursive.
  std::map<const FunctionDecl *, std::set<FunctionDecl *>> Callees;
  for (const auto &F : Prog.functions()) {
    std::set<FunctionDecl *> Out;
    forEachSubExpr(F->body(), [&](const Expr *E) {
      if (const auto *C = dyn_cast<CallExpr>(E); C && C->decl())
        Out.insert(C->decl());
    });
    Callees[F.get()] = std::move(Out);
  }

  // DFS reachability: F is recursive if F reaches F.
  for (const auto &F : Prog.functions()) {
    std::set<const FunctionDecl *> Visited;
    std::vector<const FunctionDecl *> Stack;
    for (FunctionDecl *C : Callees[F.get()])
      Stack.push_back(C);
    bool Recursive = false;
    while (!Stack.empty()) {
      const FunctionDecl *Cur = Stack.back();
      Stack.pop_back();
      if (Cur == F.get()) {
        Recursive = true;
        break;
      }
      if (!Visited.insert(Cur).second)
        continue;
      for (FunctionDecl *C : Callees[Cur])
        Stack.push_back(C);
    }
    F->setRecursive(Recursive);
  }
}

} // namespace

bool bugassist::analyzeProgram(Program &Prog, DiagEngine &Diags) {
  Sema S(Prog, Diags);
  return S.run();
}

std::unique_ptr<Program> bugassist::parseAndAnalyze(std::string_view Source,
                                                    DiagEngine &Diags) {
  auto Prog = parseProgram(Source, Diags);
  if (!Prog)
    return nullptr;
  if (!analyzeProgram(*Prog, Diags))
    return nullptr;
  return Prog;
}
