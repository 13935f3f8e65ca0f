//===- AstWalk.h - Ordinal-stable AST traversals ----------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Preorder walks over a whole program with a running ordinal that is
/// stable across cloneProgram copies: an edit addressed by the base
/// program's ordinal N applies to the clone's ordinal N. This is the
/// addressing of the one edit module (lang/AstEdit.h), through which the
/// mutation engine (mutate/MutantGenerator.cpp) and the repair engine
/// (core/Repair.cpp) plan and apply every edit. Each walk has a const
/// overload for planning on a program that must not change.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_LANG_ASTWALK_H
#define BUGASSIST_LANG_ASTWALK_H

#include "lang/Ast.h"

#include <functional>

namespace bugassist {

/// Visits every expression in \p P in preorder (globals' initializers
/// first, then each function body in order), calling \p Fn with the node
/// and its running ordinal.
void forEachExpr(Program &P, const std::function<void(Expr *, size_t)> &Fn);
void forEachExpr(const Program &P,
                 const std::function<void(const Expr *, size_t)> &Fn);

/// Visits every statement in \p P in preorder (blocks included, before
/// their children), calling \p Fn with the node and its running ordinal.
void forEachStmt(Program &P, const std::function<void(Stmt *, size_t)> &Fn);
void forEachStmt(const Program &P,
                 const std::function<void(const Stmt *, size_t)> &Fn);

/// Subtree walks, in the preorder the whole-program walks number nodes
/// in: \p Root and every expression under it; every expression under the
/// statement \p Root; \p Root and every statement nested in it.
void forEachSubExpr(const Expr *Root,
                    const std::function<void(const Expr *)> &Fn);
void forEachSubExpr(const Stmt *Root,
                    const std::function<void(const Expr *)> &Fn);
void forEachSubStmt(const Stmt *Root,
                    const std::function<void(const Stmt *)> &Fn);

} // namespace bugassist

#endif // BUGASSIST_LANG_ASTWALK_H
