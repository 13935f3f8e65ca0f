//===- AstEdit.h - Ordinal-addressed program edits --------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one edit module. The mutation engine (mutate/MutantGenerator.cpp)
/// injects the paper's Table 2 faults with these edits, and the repair
/// engine (core/Repair.cpp) tries Algorithm 2's off-by-one and near-miss
/// operator fixes with them. Both plan an Edit against a program, address
/// it by the ordinals of lang/AstWalk.h, and apply it with applyEdit to a
/// fresh clone, so a mutant keeps its base program's line numbering.
///
/// Both engines edit the code under test, never its specification: an
/// expression inside an assert or assume condition is never an edit site
/// (forEachEditableExpr).
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_LANG_ASTEDIT_H
#define BUGASSIST_LANG_ASTEDIT_H

#include "lang/AstWalk.h"

#include <memory>
#include <string>

namespace bugassist {

/// One planned edit, addressed so it can be replayed on any clone of the
/// program it was planned on. Exactly one of the Action cases applies.
struct Edit {
  enum ActionTy {
    SwapOp,        ///< expr ordinal: BinaryExpr op -> NewOp
    PerturbInt,    ///< expr ordinal: IntLiteral value += Delta
    RenameRef,     ///< expr ordinal: VarRef -> NewName (re-sema resolves)
    WrapExprIndex, ///< expr ordinal: ArrayIndex index -> index +/- 1
    WrapStmtIndex, ///< stmt ordinal: AssignStmt index -> index +/- 1
    DropStmt,      ///< stmt ordinal: erase from owner block
    DuplicateStmt, ///< stmt ordinal: re-insert a clone at InsertPos
    WrapInit,      ///< stmt ordinal (DeclStmt) or global: init -> init + 1
    NegateCond,    ///< stmt ordinal (If/While): comparison flip or !(cond)
  } Action = SwapOp;
  bool IsStmt = false;
  size_t Ordinal = 0;
  int GlobalIndex = -1; ///< WrapInit on a global instead of a DeclStmt
  int64_t Delta = 0;
  BinaryOp NewOp = BinaryOp::Add;
  std::string NewName;
  size_t InsertPos = 0;
  uint32_t Line = 0;
  std::string Description;
};

/// The BinaryExpr at expression ordinal \p Ordinal, now \p Old, becomes
/// \p New; described as `'<' -> '<='`.
Edit swapOpEdit(size_t Ordinal, uint32_t Line, BinaryOp Old, BinaryOp New);

/// The IntLiteral at expression ordinal \p Ordinal, now \p Value, becomes
/// Value + Delta; described as `constant 5 -> 6`.
Edit perturbIntEdit(size_t Ordinal, uint32_t Line, int64_t Value,
                    int64_t Delta);

/// Applies \p E to a clone of \p P and re-runs sema on it. \returns
/// nullptr when the edit does not apply or the edited program no longer
/// analyzes (e.g. an operator swap or a rename created a type error).
std::unique_ptr<Program> applyEdit(const Program &P, const Edit &E);

/// Visits every expression of \p P an edit may touch, with its forEachExpr
/// ordinal: all of them except those inside an assert or assume condition.
void forEachEditableExpr(const Program &P,
                         const std::function<void(const Expr *, size_t)> &Fn);

} // namespace bugassist

#endif // BUGASSIST_LANG_ASTEDIT_H
