//===- MutantGenerator.cpp - Seeded fault-catalog mutation engine ---------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mutate/MutantGenerator.h"

#include "lang/AstEdit.h"
#include "lang/Sema.h"

#include <algorithm>
#include <map>

using namespace bugassist;

namespace {

/// A discovered opportunity for one fault class; the seeded draw picks a
/// site uniformly and then fills in the class-specific payload.
struct Site {
  size_t Ordinal = 0;
  bool IsStmt = false;
  int GlobalIndex = -1;
  uint32_t Line = 0;
  int64_t Value = 0;                     ///< current literal value
  BinaryOp Op = BinaryOp::Add;           ///< current operator (Op/Branch)
  bool CondIsComparison = false;         ///< Branch: flip vs. !(...) wrap
  bool HasLiteral = false;               ///< Index: literal vs. wrap flavor
  std::vector<std::string> Alternatives; ///< Assign: candidate RHS names
  size_t BlockIndex = 0;                 ///< AddCode: position in owner
  size_t BlockSize = 0;                  ///< AddCode: owner child count
};

bool stmtContainsSpec(const Stmt *S) {
  bool Found = false;
  forEachSubStmt(S, [&](const Stmt *Sub) {
    Found |= isa<AssertStmt>(Sub) || isa<AssumeStmt>(Sub);
  });
  return Found;
}

/// The negation of a comparison operator (Lt <-> Ge etc.); non-comparison
/// conditions are negated by wrapping in LogNot instead.
BinaryOp negatedComparison(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt:
    return BinaryOp::Ge;
  case BinaryOp::Le:
    return BinaryOp::Gt;
  case BinaryOp::Gt:
    return BinaryOp::Le;
  case BinaryOp::Ge:
    return BinaryOp::Lt;
  case BinaryOp::Eq:
    return BinaryOp::Ne;
  default:
    return BinaryOp::Eq; // Ne
  }
}

} // namespace

struct MutantGenerator::Impl {
  MutantGeneratorOptions Opts;
  std::unique_ptr<Program> Base;
  Rng Stream;
  std::array<std::vector<Site>, NumErrorTypes> Sites;
  /// Classes actually drawn from: requested (or all), sites present.
  std::vector<ErrorType> Enabled;
  size_t NextClass = 0;

  Impl(const Program &BaseProg, MutantGeneratorOptions O)
      : Opts(std::move(O)), Base(cloneProgram(BaseProg)), Stream(Opts.Seed) {
    DiagEngine Diags;
    bool Ok = analyzeProgram(*Base, Diags);
    assert(Ok && "MutantGenerator requires an analyzable base program");
    (void)Ok;
    discover();
    std::vector<ErrorType> Wanted =
        Opts.Classes.empty()
            ? std::vector<ErrorType>(std::begin(AllErrorTypes),
                                     std::end(AllErrorTypes))
            : Opts.Classes;
    for (ErrorType T : Wanted)
      if (!sitesFor(T).empty())
        Enabled.push_back(T);
  }

  std::vector<Site> &sitesFor(ErrorType T) {
    return Sites[static_cast<size_t>(T)];
  }

  bool lineProtected(uint32_t Line) const {
    return Line == 0 || Opts.ProtectedLines.count(Line) != 0;
  }

  void discover();
  bool plan(ErrorType T, Edit &E);
  std::vector<GeneratedMutant> generate(size_t N);
};

void MutantGenerator::Impl::discover() {
  // Pass 1: pointer-keyed context, no ordinals involved. InitExprs marks
  // initializer interiors (Init class, not Const); IndexExprs marks
  // subscript interiors (Index class, not Const); AssignRhs maps each
  // VarRef inside an assignment RHS to its enclosing function (for
  // visible-name alternatives).
  std::set<const Expr *> InitExprs, IndexExprs;
  std::map<const Expr *, const FunctionDecl *> AssignRhs;
  std::map<const Stmt *, std::pair<const BlockStmt *, size_t>> Owner;

  auto MarkTree = [](const Expr *Root, std::set<const Expr *> &Into) {
    forEachSubExpr(Root, [&](const Expr *E) { Into.insert(E); });
  };

  for (const auto &G : Base->globals())
    if (G->init())
      MarkTree(G->init(), InitExprs);

  for (const auto &F : Base->functions())
    forEachSubStmt(F->body(), [&](const Stmt *S) {
      if (const auto *B = dyn_cast<BlockStmt>(S)) {
        for (size_t I = 0; I < B->stmts().size(); ++I)
          Owner[B->stmts()[I].get()] = {B, I};
      } else if (const auto *D = dyn_cast<DeclStmt>(S)) {
        if (const Expr *Init = D->decl()->init())
          MarkTree(Init, InitExprs);
      } else if (const auto *A = dyn_cast<AssignStmt>(S)) {
        if (A->index())
          MarkTree(A->index(), IndexExprs);
        forEachSubExpr(A->value(), [&](const Expr *E) {
          if (E->kind() == Expr::VarRefKind)
            AssignRhs[E] = F.get();
        });
      }
    });
  // Subscript interiors of array *reads* (a[i] on the RHS).
  forEachExpr(*Base, [&](Expr *E, size_t) {
    if (auto *AI = dyn_cast<ArrayIndex>(E))
      MarkTree(AI->index(), IndexExprs);
  });

  // Pass 2: expression-addressed sites outside the specification,
  // classified via the pass-1 context.
  forEachEditableExpr(*Base, [&](const Expr *E, size_t Ordinal) {
    uint32_t Line = E->loc().Line;
    if (lineProtected(Line))
      return;
    Site S;
    S.Ordinal = Ordinal;
    S.Line = Line;
    switch (E->kind()) {
    case Expr::BinaryKind: {
      auto *BE = cast<BinaryExpr>(E);
      if (!nearMissOps(BE->op()).empty()) {
        S.Op = BE->op();
        sitesFor(ErrorType::Op).push_back(S);
      }
      break;
    }
    case Expr::IntLiteralKind: {
      S.Value = cast<IntLiteral>(E)->value();
      S.HasLiteral = true;
      if (IndexExprs.count(E))
        sitesFor(ErrorType::Index).push_back(S);
      else if (InitExprs.count(E))
        sitesFor(ErrorType::Init).push_back(S);
      else
        sitesFor(ErrorType::Const).push_back(S);
      break;
    }
    case Expr::VarRefKind: {
      auto It = AssignRhs.find(E);
      if (It == AssignRhs.end() || IndexExprs.count(E))
        break;
      const auto *VR = cast<VarRef>(E);
      if (!VR->decl() || !VR->decl()->type().isScalar())
        break;
      // Visible same-type scalars: globals plus the enclosing function's
      // parameters. Locals are skipped (their scope here is unknown);
      // shadowing-induced type clashes are caught by the re-sema retry.
      Type Ty = VR->decl()->type();
      for (const auto &G : Base->globals())
        if (G->type() == Ty && G->name() != VR->name())
          S.Alternatives.push_back(G->name());
      for (const auto &Param : It->second->params())
        if (Param->type() == Ty && Param->name() != VR->name())
          S.Alternatives.push_back(Param->name());
      if (!S.Alternatives.empty())
        sitesFor(ErrorType::Assign).push_back(S);
      break;
    }
    case Expr::ArrayIndexKind:
      // Wrap flavor (index -> index +/- 1) for non-literal subscripts; a
      // literal subscript is already a literal-flavor site above.
      if (cast<ArrayIndex>(E)->index()->kind() != Expr::IntLiteralKind)
        sitesFor(ErrorType::Index).push_back(S);
      break;
    default:
      break;
    }
  });

  // Pass 3: statement-addressed sites.
  forEachStmt(*Base, [&](Stmt *St, size_t Ordinal) {
    uint32_t Line = St->loc().Line;
    if (lineProtected(Line))
      return;
    Site S;
    S.Ordinal = Ordinal;
    S.IsStmt = true;
    S.Line = Line;
    auto It = Owner.find(St);
    bool Owned = It != Owner.end();
    switch (St->kind()) {
    case Stmt::AssignStmtKind: {
      const auto *A = cast<AssignStmt>(St);
      if (Owned) {
        S.BlockIndex = It->second.second;
        S.BlockSize = It->second.first->stmts().size();
        sitesFor(ErrorType::AddCode).push_back(S);
        sitesFor(ErrorType::Code).push_back(S);
      }
      if (A->index() && A->index()->kind() != Expr::IntLiteralKind)
        sitesFor(ErrorType::Index).push_back(S);
      break;
    }
    case Stmt::ExprStmtKind:
      if (Owned)
        sitesFor(ErrorType::Code).push_back(S);
      break;
    case Stmt::IfStmtKind:
    case Stmt::WhileStmtKind: {
      // Dropping a statement that contains the spec would mutate the
      // property, not the program -- exclude those from the Code class.
      if (Owned && !stmtContainsSpec(St))
        sitesFor(ErrorType::Code).push_back(S);
      const Expr *Cond = St->kind() == Stmt::IfStmtKind
                             ? cast<IfStmt>(St)->cond()
                             : cast<WhileStmt>(St)->cond();
      if (!lineProtected(Cond->loc().Line)) {
        Site B = S;
        B.Line = Cond->loc().Line;
        if (const auto *BE = dyn_cast<BinaryExpr>(Cond))
          if (isComparisonOp(BE->op())) {
            B.CondIsComparison = true;
            B.Op = BE->op();
          }
        sitesFor(ErrorType::Branch).push_back(B);
      }
      break;
    }
    case Stmt::DeclStmtKind:
      if (cast<DeclStmt>(St)->decl()->init())
        sitesFor(ErrorType::Init).push_back(S);
      break;
    default:
      break;
    }
  });

  // Globals with initializers: the wrap flavor of Init.
  for (size_t I = 0; I < Base->globals().size(); ++I) {
    const VarDecl *G = Base->globals()[I].get();
    if (!G->init() || lineProtected(G->loc().Line))
      continue;
    Site S;
    S.GlobalIndex = static_cast<int>(I);
    S.Line = G->loc().Line;
    sitesFor(ErrorType::Init).push_back(S);
  }
}

bool MutantGenerator::Impl::plan(ErrorType T, Edit &E) {
  std::vector<Site> &Pool = sitesFor(T);
  if (Pool.empty())
    return false;
  const Site &S = Pool[Stream.below(Pool.size())];
  E.IsStmt = S.IsStmt;
  E.Ordinal = S.Ordinal;
  E.GlobalIndex = S.GlobalIndex;
  E.Line = S.Line;
  static const int64_t Deltas[] = {1, -1, 2, -2};
  switch (T) {
  case ErrorType::Op: {
    std::vector<BinaryOp> Alts = nearMissOps(S.Op);
    E = swapOpEdit(S.Ordinal, S.Line, S.Op, Alts[Stream.below(Alts.size())]);
    break;
  }
  case ErrorType::Const:
    E = perturbIntEdit(S.Ordinal, S.Line, S.Value, Deltas[Stream.below(4)]);
    break;
  case ErrorType::Assign:
    E.Action = Edit::RenameRef;
    E.NewName = S.Alternatives[Stream.below(S.Alternatives.size())];
    E.Description = "rhs variable -> '" + E.NewName + "'";
    break;
  case ErrorType::Code:
    E.Action = Edit::DropStmt;
    E.Description = "dropped statement";
    break;
  case ErrorType::AddCode:
    E.Action = Edit::DuplicateStmt;
    // Re-insert anywhere after the original within the same block.
    E.InsertPos =
        S.BlockIndex + 1 + Stream.below(S.BlockSize - S.BlockIndex);
    E.Description = "duplicated statement";
    break;
  case ErrorType::Init:
    if (S.HasLiteral) {
      E = perturbIntEdit(S.Ordinal, S.Line, S.Value, Deltas[Stream.below(4)]);
      E.Description = "init " + E.Description;
    } else {
      E.Action = Edit::WrapInit;
      E.Delta = Stream.chance(1, 2) ? 1 : -1;
      E.Description = std::string("init skewed by ") +
                      (E.Delta > 0 ? "+1" : "-1");
    }
    break;
  case ErrorType::Index: {
    int64_t Delta = Stream.chance(1, 2) ? 1 : -1;
    if (S.HasLiteral) {
      E = perturbIntEdit(S.Ordinal, S.Line, S.Value, Delta);
      E.Description = "index " + std::to_string(S.Value) + " -> " +
                      std::to_string(S.Value + Delta);
    } else {
      E.Action = S.IsStmt ? Edit::WrapStmtIndex : Edit::WrapExprIndex;
      E.Delta = Delta;
      E.Description = std::string("index skewed by ") +
                      (Delta > 0 ? "+1" : "-1");
    }
    break;
  }
  case ErrorType::Branch:
    E.Action = Edit::NegateCond;
    if (S.CondIsComparison) {
      E.NewOp = negatedComparison(S.Op);
      E.Description = std::string("'") + binaryOpSpelling(S.Op) + "' -> '" +
                      binaryOpSpelling(E.NewOp) + "'";
    } else {
      E.NewOp = BinaryOp::Add; // sentinel: wrap in !(...)
      E.Description = "negated condition";
    }
    break;
  }
  E.Description = "line " + std::to_string(E.Line) + ": " + E.Description;
  return true;
}

std::vector<GeneratedMutant> MutantGenerator::Impl::generate(size_t N) {
  std::vector<GeneratedMutant> Out;
  if (Enabled.empty())
    return Out;
  for (size_t Slot = 0; Slot < N; ++Slot) {
    ErrorType T = Enabled[NextClass % Enabled.size()];
    ++NextClass;
    for (unsigned Attempt = 0; Attempt < Opts.MaxAttemptsPerMutant;
         ++Attempt) {
      Edit E;
      if (!plan(T, E))
        break;
      // A null mutant failed re-sema, e.g. an RHS rename that no longer
      // type-checks.
      std::unique_ptr<Program> Mutant = applyEdit(*Base, E);
      if (!Mutant)
        continue;
      GeneratedMutant M;
      M.Spec.Type = T;
      M.Spec.Line = E.Line;
      M.Spec.Description = std::move(E.Description);
      M.Prog = std::move(Mutant);
      Out.push_back(std::move(M));
      break;
    }
  }
  return Out;
}

MutantGenerator::MutantGenerator(const Program &Base,
                                 MutantGeneratorOptions Opts)
    : M(std::make_unique<Impl>(Base, std::move(Opts))) {}

MutantGenerator::~MutantGenerator() = default;

size_t MutantGenerator::siteCount(ErrorType T) const {
  return M->Sites[static_cast<size_t>(T)].size();
}

std::vector<GeneratedMutant> MutantGenerator::generate(size_t N) {
  return M->generate(N);
}
