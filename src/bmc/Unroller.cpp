//===- Unroller.cpp - Mini-C to guarded SSA ------------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Architecture notes:
//  * Storage cells hold the *current* SSA id of every live scalar / array
//    element; branches snapshot the whole cell table, execute both sides,
//    and emit phi definitions for cells that diverged (if-conversion).
//  * Each frame carries a Returned flag as an ordinary storage cell, so
//    the phi machinery merges early returns for free. The flag of a callee
//    frame is seeded with the caller's inactivity, which makes one flag per
//    frame sufficient for gating assignments and obligations.
//  * Loops unroll recursively inside their own guard; the bound emits
//    CBMC-style unwinding assumptions.
//
//===----------------------------------------------------------------------===//

#include "bmc/Unroller.h"

#include <cassert>
#include <map>

using namespace bugassist;

SymExprPtr bugassist::cloneSymExpr(const SymExpr *E) {
  if (!E)
    return nullptr;
  auto N = std::make_unique<SymExpr>();
  N->Kind = E->Kind;
  N->IsBool = E->IsBool;
  N->IntVal = E->IntVal;
  N->BoolVal = E->BoolVal;
  N->Id = E->Id;
  N->UOp = E->UOp;
  N->BOp = E->BOp;
  N->Elems = E->Elems;
  for (const auto &Op : E->Ops)
    N->Ops.push_back(cloneSymExpr(Op.get()));
  return N;
}

void bugassist::collectSymExprUses(const SymExpr *E, std::vector<SsaId> &Out) {
  if (!E)
    return;
  if (E->Kind == SymExpr::Use)
    Out.push_back(E->Id);
  for (SsaId Id : E->Elems)
    Out.push_back(Id);
  for (const auto &Op : E->Ops)
    collectSymExprUses(Op.get(), Out);
}

std::vector<bool> bugassist::specCone(const UnrolledProgram &UP) {
  std::vector<bool> Needed(UP.Vars.size(), false);
  std::vector<SsaId> Work;
  auto Mark = [&](SsaId Id) {
    if (Id != NoSsa && !Needed[Id]) {
      Needed[Id] = true;
      Work.push_back(Id);
    }
  };

  // Roots: the spec and everything that constrains feasibility.
  for (const TraceObligation &O : UP.Obligations) {
    Mark(O.Guard);
    Mark(O.Cond);
  }
  for (const TraceAssumption &A : UP.Assumptions) {
    Mark(A.Guard);
    Mark(A.Cond);
  }
  Mark(UP.RetVal);

  std::vector<const TraceDef *> DefOf(UP.Vars.size(), nullptr);
  for (const TraceDef &D : UP.Defs)
    DefOf[D.Def] = &D;

  // Transitive closure over RHS uses.
  std::vector<SsaId> Uses;
  while (!Work.empty()) {
    SsaId Id = Work.back();
    Work.pop_back();
    const TraceDef *D = DefOf[Id];
    if (!D || !D->Rhs)
      continue;
    Uses.clear();
    collectSymExprUses(D->Rhs.get(), Uses);
    for (SsaId U : Uses)
      Mark(U);
  }
  return Needed;
}

namespace {

/// Light constant folding on SymExpr builders -- only within a single
/// statement's tree (cross-statement folding would hide statements from the
/// localization, since soft statements must stay replaceable).
SymExprPtr foldNot(SymExprPtr A) {
  if (A->Kind == SymExpr::ConstBool)
    return SymExpr::constBool(!A->BoolVal);
  return SymExpr::unary(UnaryOp::LogNot, std::move(A));
}

SymExprPtr foldAnd(SymExprPtr A, SymExprPtr B) {
  if (A->Kind == SymExpr::ConstBool)
    return A->BoolVal ? std::move(B) : SymExpr::constBool(false);
  if (B->Kind == SymExpr::ConstBool)
    return B->BoolVal ? std::move(A) : SymExpr::constBool(false);
  return SymExpr::binary(BinaryOp::LogAnd, std::move(A), std::move(B));
}

class Unroller {
public:
  Unroller(const Program &Prog, const UnrollOptions &Opts)
      : Prog(Prog), Opts(Opts) {}

  UnrolledProgram run(const std::string &Entry);

private:
  // --- storage ---------------------------------------------------------------
  using StorageKey = int;

  struct StorageCell {
    bool IsArray = false;
    SsaId Scalar = NoSsa;
    std::vector<SsaId> Elems;
  };

  struct Frame {
    const FunctionDecl *Fn = nullptr;
    std::map<const VarDecl *, StorageKey> Locals;
    StorageKey RetKey = -1;
    StorageKey ReturnedKey = -1;
    bool Trusted = false;
  };

  StorageKey allocCell() {
    Storage.emplace_back();
    return static_cast<StorageKey>(Storage.size() - 1);
  }

  StorageKey keyOf(const VarDecl *D) {
    if (D->isGlobal()) {
      auto It = GlobalVars.find(D);
      assert(It != GlobalVars.end() && "global not initialized");
      return It->second;
    }
    auto &Locals = Frames.back().Locals;
    auto It = Locals.find(D);
    assert(It != Locals.end() && "sema guarantees resolution");
    return It->second;
  }

  SsaId returnedId() { return Storage[Frames.back().ReturnedKey].Scalar; }

  // --- SSA emission ------------------------------------------------------------
  SsaId newSsa(bool IsBool, std::string Name) {
    UP.Vars.push_back({IsBool, std::move(Name)});
    Shadow.push_back(std::nullopt);
    return static_cast<SsaId>(UP.Vars.size() - 1);
  }

  SsaId emitDef(DefRole Role, bool IsBool, SymExprPtr Rhs, uint32_t Line,
                std::string Label) {
    SsaId Id = newSsa(IsBool, Label);
    TraceDef D;
    D.Def = Id;
    D.Role = Role;
    D.Line = Line;
    D.Label = std::move(Label);
    D.Unwinding = CurUnwind;
    D.Trusted = (!Frames.empty() && Frames.back().Trusted) ||
                (Line != 0 && Opts.HardLines.count(Line) != 0);
    D.Shadow = shadowEval(Rhs.get());
    Shadow[Id] = D.Shadow;
    D.Rhs = std::move(Rhs);
    UP.Defs.push_back(std::move(D));
    return Id;
  }

  SymExprPtr useOf(SsaId Id) { return SymExpr::use(Id, UP.Vars[Id].IsBool); }

  // --- shadow (concolic) evaluation ---------------------------------------------
  std::optional<int64_t> shadowEval(const SymExpr *E) {
    if (!E || !Opts.ConcreteInputs)
      return std::nullopt;
    switch (E->Kind) {
    case SymExpr::ConstInt:
      return wrapToWidth(E->IntVal, Opts.BitWidth);
    case SymExpr::ConstBool:
      return E->BoolVal ? 1 : 0;
    case SymExpr::Use:
      return Shadow[E->Id];
    case SymExpr::Unary: {
      auto V = shadowEval(E->Ops[0].get());
      if (!V)
        return std::nullopt;
      return evalUnaryOp(E->UOp, *V, Opts.BitWidth);
    }
    case SymExpr::Binary: {
      auto A = shadowEval(E->Ops[0].get());
      auto B = shadowEval(E->Ops[1].get());
      if (!A || !B)
        return std::nullopt;
      bool DivZero = false;
      // Encoder-aligned /0 semantics: result 0.
      return evalBinaryOp(E->BOp, *A, *B, Opts.BitWidth, DivZero);
    }
    case SymExpr::Ite: {
      auto C = shadowEval(E->Ops[0].get());
      if (!C)
        return std::nullopt;
      return shadowEval(E->Ops[*C != 0 ? 1 : 2].get());
    }
    case SymExpr::ArrayRead: {
      auto Idx = shadowEval(E->Ops[0].get());
      if (!Idx)
        return std::nullopt;
      if (*Idx < 0 || *Idx >= static_cast<int64_t>(E->Elems.size()))
        return 0; // encoder-aligned OOB read
      return Shadow[E->Elems[static_cast<size_t>(*Idx)]];
    }
    }
    return std::nullopt;
  }

  // --- guards -----------------------------------------------------------------
  SsaId guardAnd(SsaId G, SymExprPtr Extra, uint32_t Line) {
    if (G == TrueId) {
      if (Extra->Kind == SymExpr::Use)
        return Extra->Id;
      return emitDef(DefRole::Guard, true, std::move(Extra), Line, "guard");
    }
    return emitDef(DefRole::Guard, true, foldAnd(useOf(G), std::move(Extra)),
                   Line, "guard");
  }

  /// Guard for obligations/assumptions at the current point: the branch
  /// guard strengthened with "this frame has not returned".
  SsaId effGuard(uint32_t Line) {
    SsaId Returned = returnedId();
    if (Returned == FalseId)
      return CurGuard;
    return emitDef(DefRole::Guard, true,
                   foldAnd(useOf(CurGuard), foldNot(useOf(Returned))), Line,
                   "active");
  }

  /// Condition a statement's effect on "not yet returned".
  SymExprPtr gateByReturned(SymExprPtr NewVal, SsaId OldVal) {
    SsaId Returned = returnedId();
    if (Returned == FalseId)
      return NewVal;
    return SymExpr::ite(useOf(Returned), useOf(OldVal), std::move(NewVal));
  }

  // --- expression translation -----------------------------------------------
  /// Role used for sub-definitions materialized while translating the
  /// current statement (array indexes, stored values).
  struct StmtCtx {
    DefRole TempRole = DefRole::ArrayStore;
    uint32_t Line = 0;
  };

  SymExprPtr evalExpr(const Expr *E, const StmtCtx &Ctx);
  SsaId materialize(SymExprPtr Tree, bool IsBool, const StmtCtx &Ctx,
                    const char *Label) {
    if (Tree->Kind == SymExpr::Use)
      return Tree->Id;
    return emitDef(Ctx.TempRole, IsBool, std::move(Tree), Ctx.Line, Label);
  }

  void emitBoundsObligation(SsaId IdxId, int Size, SourceLoc Loc) {
    if (!Opts.CheckArrayBounds)
      return;
    SymExprPtr InBounds = foldAnd(
        SymExpr::binary(BinaryOp::Ge, useOf(IdxId), SymExpr::constInt(0)),
        SymExpr::binary(BinaryOp::Lt, useOf(IdxId),
                        SymExpr::constInt(Size)));
    SsaId Cond = emitDef(DefRole::SpecEval, true, std::move(InBounds),
                         Loc.Line, "array bounds");
    UP.Obligations.push_back({effGuard(Loc.Line), Cond, Loc, "array bounds"});
  }

  SsaId inlineCall(const CallExpr *C, const StmtCtx &Ctx);

  // --- statement execution -----------------------------------------------------
  void execStmt(const Stmt *S);
  void execBlock(const BlockStmt *B) {
    for (const auto &Sub : B->stmts())
      execStmt(Sub.get());
  }
  void unrollLoop(const WhileStmt *W);
  void mergeBranches(SsaId CondId, std::vector<StorageCell> ThenState,
                     std::vector<StorageCell> ElseState, size_t PrefixSize,
                     uint32_t Line);
  SsaId emitDefBootstrap(bool IsBool, SymExprPtr Rhs, std::string Name);

  const Program &Prog;
  const UnrollOptions &Opts;
  UnrolledProgram UP;
  std::vector<std::optional<int64_t>> Shadow;
  std::vector<StorageCell> Storage;
  std::vector<Frame> Frames;
  std::map<const VarDecl *, StorageKey> GlobalVars;
  std::map<const FunctionDecl *, int> InlineDepth;

  SsaId TrueId = NoSsa;
  SsaId FalseId = NoSsa;
  SsaId ZeroId = NoSsa;
  SsaId CurGuard = NoSsa;
  uint32_t CurUnwind = 0;
};

SymExprPtr Unroller::evalExpr(const Expr *E, const StmtCtx &Ctx) {
  switch (E->kind()) {
  case Expr::IntLiteralKind:
    return SymExpr::constInt(
        wrapToWidth(cast<IntLiteral>(E)->value(), Opts.BitWidth));
  case Expr::BoolLiteralKind:
    return SymExpr::constBool(cast<BoolLiteral>(E)->value());
  case Expr::VarRefKind: {
    const auto *V = cast<VarRef>(E);
    const StorageCell &Cell = Storage[keyOf(V->decl())];
    assert(!Cell.IsArray && "sema rejects bare array reads");
    return useOf(Cell.Scalar);
  }
  case Expr::ArrayIndexKind: {
    const auto *A = cast<ArrayIndex>(E);
    const auto *Base = cast<VarRef>(A->base());
    // Snapshot BEFORE evaluating the index: index evaluation cannot write.
    std::vector<SsaId> Elems = Storage[keyOf(Base->decl())].Elems;
    SymExprPtr IdxTree = evalExpr(A->index(), Ctx);
    SsaId IdxId = materialize(std::move(IdxTree), false, Ctx, "index");
    emitBoundsObligation(IdxId, static_cast<int>(Elems.size()), A->loc());
    return SymExpr::arrayRead(std::move(Elems), useOf(IdxId));
  }
  case Expr::UnaryKind: {
    const auto *U = cast<UnaryExpr>(E);
    return SymExpr::unary(U->op(), evalExpr(U->operand(), Ctx));
  }
  case Expr::BinaryKind: {
    const auto *B = cast<BinaryExpr>(E);
    SymExprPtr L = evalExpr(B->lhs(), Ctx);
    SymExprPtr R = evalExpr(B->rhs(), Ctx);
    return SymExpr::binary(B->op(), std::move(L), std::move(R));
  }
  case Expr::ConditionalKind: {
    const auto *C = cast<ConditionalExpr>(E);
    SymExprPtr Cond = evalExpr(C->cond(), Ctx);
    SymExprPtr T = evalExpr(C->thenExpr(), Ctx);
    SymExprPtr F = evalExpr(C->elseExpr(), Ctx);
    return SymExpr::ite(std::move(Cond), std::move(T), std::move(F));
  }
  case Expr::CallKind: {
    const auto *C = cast<CallExpr>(E);
    SsaId Ret = inlineCall(C, Ctx);
    if (Ret == NoSsa)
      return SymExpr::constInt(0); // void call in expression: unreachable
    return useOf(Ret);
  }
  }
  return SymExpr::constInt(0);
}

SsaId Unroller::inlineCall(const CallExpr *C, const StmtCtx &Ctx) {
  const FunctionDecl *Fn = C->decl();
  assert(Fn && "sema resolves calls");

  int &Depth = InlineDepth[Fn];
  if (Depth >= Opts.MaxInlineDepth) {
    // Recursion bound reached: make paths that get here infeasible
    // (CBMC-style unwinding assumption) and return a dummy value.
    UP.Assumptions.push_back({effGuard(C->loc().Line), FalseId, C->loc()});
    return Fn->returnType().isVoid()
               ? NoSsa
               : (Fn->returnType().isBool() ? FalseId : ZeroId);
  }
  ++Depth;

  Frame NewFrame;
  NewFrame.Fn = Fn;
  NewFrame.Trusted =
      Frames.back().Trusted || Opts.TrustedFunctions.count(Fn->name()) != 0;

  // Bind parameters. Scalars get a ParamBind definition at the call line
  // (soft: a wrong argument is a candidate fix); arrays alias the caller's
  // storage cell.
  for (size_t I = 0; I < Fn->params().size(); ++I) {
    const VarDecl *P = Fn->params()[I].get();
    const Expr *Arg = C->args()[I].get();
    if (P->type().isArray()) {
      NewFrame.Locals[P] = keyOf(cast<VarRef>(Arg)->decl());
      continue;
    }
    SymExprPtr ArgTree = evalExpr(Arg, Ctx);
    SsaId ArgId =
        emitDef(DefRole::ParamBind, P->type().isBool(), std::move(ArgTree),
                C->loc().Line, Fn->name() + ":" + P->name());
    StorageKey K = allocCell();
    Storage[K].Scalar = ArgId;
    NewFrame.Locals[P] = K;
  }

  // Return-value accumulator (0 / false if the body falls off the end) and
  // the Returned flag, seeded with the caller's inactivity so one flag
  // suffices for gating.
  NewFrame.RetKey = allocCell();
  Storage[NewFrame.RetKey].Scalar = Fn->returnType().isBool() ? FalseId : ZeroId;
  NewFrame.ReturnedKey = allocCell();
  Storage[NewFrame.ReturnedKey].Scalar = returnedId();

  Frames.push_back(NewFrame);
  execBlock(Fn->body());
  SsaId Ret = Storage[Frames.back().RetKey].Scalar;
  Frames.pop_back();
  --Depth;
  return Fn->returnType().isVoid() ? NoSsa : Ret;
}

void Unroller::mergeBranches(SsaId CondId, std::vector<StorageCell> ThenState,
                             std::vector<StorageCell> ElseState,
                             size_t PrefixSize, uint32_t Line) {
  // Only cells that existed before the split are merged: indexes beyond
  // PrefixSize were allocated inside a branch (branch-local declarations,
  // inlined callee frames) and the two sides reuse them for unrelated
  // variables. Those cells are dead after the join.
  size_t N = PrefixSize;
  assert(ThenState.size() >= N && ElseState.size() >= N &&
         "branches cannot shrink storage");
  Storage.resize(N);
  for (size_t I = 0; I < N; ++I) {
    StorageCell &Out = Storage[I];
    const StorageCell &T = ThenState[I];
    const StorageCell &F = ElseState[I];
    Out = T;
    if (T.IsArray) {
      assert(F.IsArray && T.Elems.size() == F.Elems.size() &&
             "branch-incompatible cell");
      for (size_t J = 0; J < T.Elems.size(); ++J) {
        if (T.Elems[J] == F.Elems[J])
          continue;
        Out.Elems[J] = emitDef(
            DefRole::Phi, false,
            SymExpr::ite(useOf(CondId), useOf(T.Elems[J]), useOf(F.Elems[J])),
            Line, "phi");
      }
      continue;
    }
    if (T.Scalar == F.Scalar || T.Scalar == NoSsa || F.Scalar == NoSsa)
      continue;
    Out.Scalar = emitDef(
        DefRole::Phi, UP.Vars[T.Scalar].IsBool,
        SymExpr::ite(useOf(CondId), useOf(T.Scalar), useOf(F.Scalar)), Line,
        "phi");
  }
}

void Unroller::unrollLoop(const WhileStmt *W) {
  uint32_t Line = W->loc().Line;
  int Bound = Opts.MaxLoopUnwind;
  auto It = Opts.LoopUnwindByLine.find(Line);
  if (It != Opts.LoopUnwindByLine.end())
    Bound = It->second;

  // Iteration k is `if (cond) { body; <iteration k + 1> }`. Nesting is
  // unrolled with an explicit stack, not recursion, so the bound is not
  // limited by the call stack: enter every iteration going forward, emit
  // the unwind check innermost, then join the iterations innermost first.
  // The SSA order is exactly that of the nested ifs.
  struct OpenIteration {
    SsaId CondId;
    std::vector<StorageCell> Before; ///< storage when the condition held
    SsaId OuterGuard;
    uint32_t SavedUnwind;
  };
  std::vector<OpenIteration> Open;
  for (int Iteration = 1; Iteration <= Bound; ++Iteration) {
    uint32_t SavedUnwind = CurUnwind;
    CurUnwind = static_cast<uint32_t>(Iteration);
    UP.MaxUnwinding = std::max(UP.MaxUnwinding, CurUnwind);

    StmtCtx Ctx{DefRole::CondEval, Line};
    SsaId CondId =
        materialize(evalExpr(W->cond(), Ctx), true, Ctx, "loop cond");
    Open.push_back({CondId, Storage, CurGuard, SavedUnwind});
    CurGuard = guardAnd(CurGuard, useOf(CondId), Line);
    execStmt(W->body());
  }

  // Unwinding bound: evaluate the condition once more (hard) and assume it
  // is false on every path still active here.
  StmtCtx Ctx{DefRole::SpecEval, Line};
  SsaId CondId =
      materialize(evalExpr(W->cond(), Ctx), true, Ctx, "unwind check");
  SsaId NotCond = emitDef(DefRole::SpecEval, true, foldNot(useOf(CondId)),
                          Line, "unwind assumption");
  UP.Assumptions.push_back({effGuard(Line), NotCond, W->loc()});

  for (; !Open.empty(); Open.pop_back()) {
    OpenIteration &Top = Open.back();
    std::vector<StorageCell> After = std::move(Storage);
    size_t PrefixSize = Top.Before.size();
    CurGuard = Top.OuterGuard;
    CurUnwind = Top.SavedUnwind;
    mergeBranches(Top.CondId, std::move(After), std::move(Top.Before),
                  PrefixSize, Line);
  }
}

void Unroller::execStmt(const Stmt *S) {
  switch (S->kind()) {
  case Stmt::BlockStmtKind:
    execBlock(cast<BlockStmt>(S));
    return;

  case Stmt::DeclStmtKind: {
    const VarDecl *D = cast<DeclStmt>(S)->decl();
    StorageKey K = allocCell();
    Frames.back().Locals[D] = K;
    if (D->type().isArray()) {
      Storage[K].IsArray = true;
      Storage[K].Elems.assign(static_cast<size_t>(D->type().ArraySize),
                              ZeroId);
      return;
    }
    if (const Expr *Init = D->init()) {
      StmtCtx Ctx{DefRole::ArrayStore, S->loc().Line};
      SymExprPtr Rhs = evalExpr(Init, Ctx);
      Storage[K].Scalar =
          emitDef(DefRole::UserAssign, D->type().isBool(), std::move(Rhs),
                  S->loc().Line, D->name());
      return;
    }
    Storage[K].Scalar = D->type().isBool() ? FalseId : ZeroId;
    return;
  }

  case Stmt::AssignStmtKind: {
    const auto *A = cast<AssignStmt>(S);
    StorageKey K = keyOf(A->targetDecl());
    StmtCtx Ctx{DefRole::ArrayStore, S->loc().Line};

    if (!A->index()) {
      SymExprPtr Rhs = evalExpr(A->value(), Ctx);
      bool IsBool = A->targetDecl()->type().isBool();
      Rhs = gateByReturned(std::move(Rhs), Storage[K].Scalar);
      Storage[K].Scalar = emitDef(DefRole::UserAssign, IsBool, std::move(Rhs),
                                  S->loc().Line, A->target());
      return;
    }

    // Array element write: materialize index and value, then update every
    // element under the statement's group. OOB writes leave the array
    // unchanged (matching the interpreter's unchecked semantics); a bounds
    // obligation fires when checking is on. Access cells through K, never
    // through a reference: expression evaluation can grow Storage.
    size_t NumElems = Storage[K].Elems.size();
    SymExprPtr IdxTree = evalExpr(A->index(), Ctx);
    SsaId IdxId = materialize(std::move(IdxTree), false, Ctx, "store index");
    emitBoundsObligation(IdxId, static_cast<int>(NumElems), S->loc());
    SymExprPtr ValTree = evalExpr(A->value(), Ctx);
    SsaId ValId = emitDef(DefRole::UserAssign, false, std::move(ValTree),
                          S->loc().Line, A->target() + "[.]");

    SsaId Returned = returnedId();
    for (size_t J = 0; J < NumElems; ++J) {
      SymExprPtr Hit = SymExpr::binary(
          BinaryOp::Eq, useOf(IdxId),
          SymExpr::constInt(static_cast<int64_t>(J)));
      if (Returned != FalseId)
        Hit = foldAnd(foldNot(useOf(Returned)), std::move(Hit));
      SsaId OldElem = Storage[K].Elems[J];
      Storage[K].Elems[J] = emitDef(
          DefRole::ArrayStore, false,
          SymExpr::ite(std::move(Hit), useOf(ValId), useOf(OldElem)),
          S->loc().Line, A->target() + "[" + std::to_string(J) + "]");
    }
    return;
  }

  case Stmt::IfStmtKind: {
    const auto *I = cast<IfStmt>(S);
    StmtCtx Ctx{DefRole::CondEval, S->loc().Line};
    SymExprPtr CondTree = evalExpr(I->cond(), Ctx);
    SsaId CondId = (CondTree->Kind == SymExpr::Use)
                       ? CondTree->Id
                       : emitDef(DefRole::CondEval, true, std::move(CondTree),
                                 S->loc().Line, "if cond");

    std::vector<StorageCell> Before = Storage;
    size_t PrefixSize = Before.size();
    SsaId OuterGuard = CurGuard;

    CurGuard = guardAnd(OuterGuard, useOf(CondId), S->loc().Line);
    execStmt(I->thenStmt());
    std::vector<StorageCell> ThenState = std::move(Storage);

    Storage = Before;
    CurGuard = guardAnd(OuterGuard, foldNot(useOf(CondId)), S->loc().Line);
    if (I->elseStmt())
      execStmt(I->elseStmt());
    std::vector<StorageCell> ElseState = std::move(Storage);

    CurGuard = OuterGuard;
    mergeBranches(CondId, std::move(ThenState), std::move(ElseState),
                  PrefixSize, S->loc().Line);
    return;
  }

  case Stmt::WhileStmtKind:
    unrollLoop(cast<WhileStmt>(S));
    return;

  case Stmt::ReturnStmtKind: {
    const auto *R = cast<ReturnStmt>(S);
    // Note: capture keys, not a Frame reference -- evaluating the return
    // expression can inline calls, growing the Frames vector.
    StorageKey RetKey = Frames.back().RetKey;
    StorageKey ReturnedKey = Frames.back().ReturnedKey;
    bool IsBool = Frames.back().Fn->returnType().isBool();
    if (R->value()) {
      StmtCtx Ctx{DefRole::ArrayStore, S->loc().Line};
      SymExprPtr Rhs = evalExpr(R->value(), Ctx);
      Rhs = gateByReturned(std::move(Rhs), Storage[RetKey].Scalar);
      Storage[RetKey].Scalar = emitDef(DefRole::UserAssign, IsBool,
                                       std::move(Rhs), S->loc().Line,
                                       "return");
    }
    Storage[ReturnedKey].Scalar = TrueId;
    return;
  }

  case Stmt::AssertStmtKind: {
    const auto *A = cast<AssertStmt>(S);
    StmtCtx Ctx{DefRole::SpecEval, S->loc().Line};
    SsaId CondId =
        materialize(evalExpr(A->cond(), Ctx), true, Ctx, "assert cond");
    UP.Obligations.push_back(
        {effGuard(S->loc().Line), CondId, S->loc(), "assert"});
    return;
  }

  case Stmt::AssumeStmtKind: {
    const auto *A = cast<AssumeStmt>(S);
    StmtCtx Ctx{DefRole::SpecEval, S->loc().Line};
    SsaId CondId =
        materialize(evalExpr(A->cond(), Ctx), true, Ctx, "assume cond");
    UP.Assumptions.push_back({effGuard(S->loc().Line), CondId, S->loc()});
    return;
  }

  case Stmt::ExprStmtKind: {
    StmtCtx Ctx{DefRole::ArrayStore, S->loc().Line};
    (void)evalExpr(cast<ExprStmt>(S)->expr(), Ctx);
    return;
  }
  }
}

UnrolledProgram Unroller::run(const std::string &Entry) {
  const FunctionDecl *Fn = Prog.findFunction(Entry);
  assert(Fn && "entry function must exist");

  // Constant pool.
  TrueId = emitDefBootstrap(true, SymExpr::constBool(true), "true");
  FalseId = emitDefBootstrap(true, SymExpr::constBool(false), "false");
  ZeroId = emitDefBootstrap(false, SymExpr::constInt(0), "zero");
  CurGuard = TrueId;

  // Globals.
  for (const auto &G : Prog.globals()) {
    StorageKey K = allocCell();
    GlobalVars[G.get()] = K;
    if (G->type().isArray()) {
      Storage[K].IsArray = true;
      Storage[K].Elems.assign(static_cast<size_t>(G->type().ArraySize),
                              ZeroId);
      continue;
    }
    if (const Expr *Init = G->init()) {
      // Sema guarantees literal initializers.
      SymExprPtr Rhs;
      if (const auto *IL = dyn_cast<IntLiteral>(Init))
        Rhs = SymExpr::constInt(wrapToWidth(IL->value(), Opts.BitWidth));
      else
        Rhs = SymExpr::constBool(cast<BoolLiteral>(Init)->value());
      Storage[K].Scalar = emitDef(DefRole::UserAssign, G->type().isBool(),
                                  std::move(Rhs), G->loc().Line, G->name());
      continue;
    }
    Storage[K].Scalar = G->type().isBool() ? FalseId : ZeroId;
  }

  // Entry frame and inputs.
  Frame Top;
  Top.Fn = Fn;
  Top.Trusted = Opts.TrustedFunctions.count(Fn->name()) != 0;
  size_t InputCursor = 0;
  auto NextConcrete = [&](bool IsArrayElem, size_t ParamIdx,
                          size_t ElemIdx) -> std::optional<int64_t> {
    if (!Opts.ConcreteInputs)
      return std::nullopt;
    const InputVector &In = *Opts.ConcreteInputs;
    if (ParamIdx >= In.size())
      return std::nullopt;
    const InputValue &V = In[ParamIdx];
    if (IsArrayElem) {
      if (!V.IsArray || ElemIdx >= V.Array.size())
        return std::nullopt;
      return wrapToWidth(V.Array[ElemIdx], Opts.BitWidth);
    }
    return V.IsArray ? std::nullopt
                     : std::optional<int64_t>(
                           wrapToWidth(V.Scalar, Opts.BitWidth));
  };
  (void)InputCursor;
  for (size_t I = 0; I < Fn->params().size(); ++I) {
    const VarDecl *P = Fn->params()[I].get();
    StorageKey K = allocCell();
    Top.Locals[P] = K;
    UP.InputShapes.push_back({P->name(), P->type().isArray(),
                              P->type().ArraySize, P->type().isBool()});
    if (P->type().isArray()) {
      Storage[K].IsArray = true;
      for (int J = 0; J < P->type().ArraySize; ++J) {
        SsaId Id = newSsa(false, P->name() + "[" + std::to_string(J) + "]");
        TraceDef D;
        D.Def = Id;
        D.Role = DefRole::Input;
        D.Line = P->loc().Line;
        D.Label = UP.Vars[Id].Name;
        D.Shadow = NextConcrete(true, I, static_cast<size_t>(J));
        Shadow[Id] = D.Shadow;
        UP.Defs.push_back(std::move(D));
        UP.Inputs.push_back({Id, UP.Vars[Id].Name, false});
        Storage[K].Elems.push_back(Id);
      }
      continue;
    }
    bool IsBool = P->type().isBool();
    SsaId Id = newSsa(IsBool, P->name());
    TraceDef D;
    D.Def = Id;
    D.Role = DefRole::Input;
    D.Line = P->loc().Line;
    D.Label = P->name();
    D.Shadow = NextConcrete(false, I, 0);
    if (IsBool && D.Shadow)
      D.Shadow = *D.Shadow != 0 ? 1 : 0;
    Shadow[Id] = D.Shadow;
    UP.Defs.push_back(std::move(D));
    UP.Inputs.push_back({Id, P->name(), IsBool});
    Storage[K].Scalar = Id;
  }
  Top.RetKey = allocCell();
  Storage[Top.RetKey].Scalar = Fn->returnType().isBool() ? FalseId : ZeroId;
  Top.ReturnedKey = allocCell();
  Storage[Top.ReturnedKey].Scalar = FalseId;

  Frames.push_back(Top);
  execBlock(Fn->body());
  if (!Fn->returnType().isVoid()) {
    UP.RetVal = Storage[Frames.back().RetKey].Scalar;
    UP.RetIsBool = Fn->returnType().isBool();
  }
  Frames.pop_back();

  return std::move(UP);
}

SsaId Unroller::emitDefBootstrap(bool IsBool, SymExprPtr Rhs,
                                 std::string Name) {
  // emitDef for the constant pool, before any frame exists. Constants keep
  // their shadow value unconditionally so trusted-only folding works even
  // without concrete inputs.
  SsaId Id = newSsa(IsBool, Name);
  TraceDef D;
  D.Def = Id;
  D.Role = DefRole::Synth;
  D.Label = std::move(Name);
  D.Shadow = Rhs->Kind == SymExpr::ConstBool
                 ? std::optional<int64_t>(Rhs->BoolVal ? 1 : 0)
                 : std::optional<int64_t>(
                       wrapToWidth(Rhs->IntVal, Opts.BitWidth));
  Shadow[Id] = D.Shadow;
  D.Rhs = std::move(Rhs);
  UP.Defs.push_back(std::move(D));
  return Id;
}

} // namespace

UnrolledProgram bugassist::unrollProgram(const Program &Prog,
                                         const std::string &Entry,
                                         const UnrollOptions &Opts) {
  Unroller U(Prog, Opts);
  return U.run(Entry);
}
