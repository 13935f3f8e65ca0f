//===- Canonical.h - Greedy canonicalization of MaxSAT optima ---*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonicalization of an optimal MaxSAT model: among minimum-weight
/// models, greedily prefer keeping soft clauses satisfied in index
/// (program) order, so falsification lands on the latest statements. This
/// pins the reported CoMSS deterministically regardless of
/// search-heuristic history -- essential once heuristic state persists
/// across solve() calls, and once serve answers from clones of a cached
/// session: every session canonicalizes to the same set, so localization
/// results do not depend on which session produced them.
///
/// The Fu-Malik session probes under its live assumption guards, whose
/// models are exactly the optimal assignments (FuMalik.cpp, canonicalize),
/// and binds the mechanics through CanonicalHooks.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_MAXSAT_CANONICAL_H
#define BUGASSIST_MAXSAT_CANONICAL_H

#include "cnf/Lit.h"
#include "maxsat/MaxSat.h"
#include "sat/Solver.h"

#include <functional>
#include <vector>

namespace bugassist {

/// Binds greedyCanonicalize to a concrete incremental session.
struct CanonicalHooks {
  /// Solves the session's solver under its base assumptions -- which must
  /// hold the cost at the proven optimum -- plus \p Extra. A True answer
  /// becomes the solver's model, and so the new witness.
  std::function<LBool(const std::vector<Lit> &Extra)> Probe;
  /// A literal that, when assumed, forces soft clause \p I satisfied.
  std::function<Lit(size_t I)> SatisfyLit;
};

/// Greedily canonicalizes the optimum whose witness is \p S's last model,
/// via incremental probes on \p S; on return that model is the canonical
/// witness. Only soft-clause literals are read from it. A clause satisfied
/// by the current witness commits for free; each falsified position is
/// located by a gallop-then-binary search over the maximal
/// additionally-satisfiable prefix ("satisfy [Begin, E) too" is monotone
/// in E). The first probe always tries just
/// one more clause, so an already-canonical witness costs exactly one
/// (cheap, UNSAT-by-assumption) probe per falsified clause. \returns false
/// when a probe exhausted the conflict budget; the witness is then the last
/// True probe's model.
bool greedyCanonicalize(const std::vector<SoftClause> &Soft,
                        const CanonicalHooks &Hooks, Solver &S);

} // namespace bugassist

#endif // BUGASSIST_MAXSAT_CANONICAL_H
