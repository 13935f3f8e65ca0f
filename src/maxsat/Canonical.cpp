//===- Canonical.cpp - Greedy canonicalization of MaxSAT optima --------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "maxsat/Canonical.h"

#include <algorithm>

using namespace bugassist;

bool bugassist::greedyCanonicalize(const std::vector<SoftClause> &Soft,
                                   const CanonicalHooks &Hooks, Solver &S) {
  const size_t N = Soft.size();
  std::vector<Lit> Committed;
  auto Satisfied = [&](size_t J) { return clauseSatisfied(Soft[J].Lits, S); };
  // Probe(Begin, E): can clauses [Begin, E) be satisfied on top of the
  // committed prefix (under the session's optimum-holding base)? On
  // success the solver's model is the new witness.
  auto Probe = [&](size_t Begin, size_t E) -> LBool {
    std::vector<Lit> Extra = Committed;
    for (size_t J = Begin; J < E; ++J)
      Extra.push_back(Hooks.SatisfyLit(J));
    return Hooks.Probe(Extra);
  };

  size_t Begin = 0; // clauses [0, Begin) are committed satisfied
  while (Begin < N) {
    if (Satisfied(Begin)) {
      Committed.push_back(Hooks.SatisfyLit(Begin)); // free commit
      ++Begin;
      continue;
    }
    // The witness falsifies clause Begin. Find the largest E with [Begin, E)
    // satisfiable; E == Begin (the current witness) is SAT, E == N is
    // UNSAT (the optimum falsifies something >= Begin). Gallop from the
    // left -- the witness is usually already canonical, making the very
    // first one-clause probe UNSAT -- then binary search the rest.
    size_t Lo = Begin, Hi = N;
    size_t Step = 1;
    bool Galloping = true;
    while (Lo + 1 < Hi) {
      size_t Mid;
      if (Galloping) {
        Mid = std::min(Lo + Step, Hi - 1);
        Step *= 2;
      } else {
        Mid = Lo + (Hi - Lo + 1) / 2;
      }
      LBool R = Probe(Begin, Mid);
      if (R == LBool::Undef)
        return false; // budget exhausted: keep the optimum found so far
      if (R == LBool::False) {
        Hi = Mid;
        Galloping = false;
        continue;
      }
      // The fresh witness may satisfy well past Mid.
      Lo = Mid;
      while (Lo < Hi - 1 && Satisfied(Lo))
        ++Lo;
    }
    // [Begin, Lo) satisfiable, [Begin, Lo + 1) not: Lo stays falsified.
    // Re-probe only if the current witness lost it (a failed probe does
    // not restore the earlier model).
    if (Lo > Begin && !Satisfied(Lo - 1)) {
      if (Probe(Begin, Lo) != LBool::True)
        return false; // budget exhausted mid-search
    }
    for (size_t J = Begin; J < Lo; ++J)
      Committed.push_back(Hooks.SatisfyLit(J));
    Begin = Lo + 1;
  }
  return true;
}
