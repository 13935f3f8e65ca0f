//===- BruteForce.h - Test oracles and random CNF ---------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference oracles the solver and MaxSAT property tests compare
/// against: plain enumeration of all 2^NumVars assignments, so they only
/// suit small instances (a few dozen thousand assignments at most). Also
/// the random k-CNF generator and model check those tests share.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_TESTS_BRUTEFORCE_H
#define BUGASSIST_TESTS_BRUTEFORCE_H

#include "maxsat/MaxSat.h"
#include "sat/Solver.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace bugassist {

/// Weighted partial MaxSAT by enumeration. \returns the least total weight
/// of soft clauses falsified by a model of the hard clauses, or UINT64_MAX
/// when the hard clauses are unsatisfiable.
inline uint64_t bruteForceOptimum(const MaxSatInstance &Inst) {
  uint64_t Best = UINT64_MAX;
  for (uint64_t Mask = 0; Mask < (1ull << Inst.NumVars) && Best != 0;
       ++Mask) {
    auto Satisfied = [Mask](ClauseView C) {
      return std::any_of(C.begin(), C.end(), [Mask](Lit L) {
        return (((Mask >> L.var()) & 1) != 0) != L.negated();
      });
    };
    if (!Inst.forEachHard(Satisfied))
      continue;
    uint64_t Cost = 0;
    for (const SoftClause &S : Inst.Soft)
      if (!Satisfied(S.Lits))
        Cost += S.Weight;
    Best = std::min(Best, Cost);
  }
  return Best;
}

/// The canonical optimum by enumeration: what a MaxSAT session reports.
struct BruteForceAnswer {
  bool HardUnsat = false;
  uint64_t Cost = 0;
  /// Indices of the soft clauses the canonical optimum falsifies.
  std::vector<size_t> FalsifiedSoft;
};

/// Weighted partial MaxSAT by enumeration, canonicalized: among the
/// optimal assignments, the one whose satisfied-soft vector is
/// lexicographically greatest in index order (satisfied beats falsified at
/// the first index where two optima differ).
inline BruteForceAnswer bruteForceCanonical(const MaxSatInstance &Inst) {
  BruteForceAnswer Best;
  Best.HardUnsat = true;
  std::vector<bool> BestSat;
  for (uint64_t Mask = 0; Mask < (1ull << Inst.NumVars); ++Mask) {
    auto Satisfied = [Mask](ClauseView C) {
      return std::any_of(C.begin(), C.end(), [Mask](Lit L) {
        return (((Mask >> L.var()) & 1) != 0) != L.negated();
      });
    };
    if (!Inst.forEachHard(Satisfied))
      continue;
    uint64_t Cost = 0;
    std::vector<bool> Sat(Inst.Soft.size());
    for (size_t I = 0; I < Inst.Soft.size(); ++I) {
      Sat[I] = Satisfied(Inst.Soft[I].Lits);
      if (!Sat[I])
        Cost += Inst.Soft[I].Weight;
    }
    // std::vector<bool> orders false < true, so greater means "satisfies
    // the earliest clause the other falsifies".
    if (Best.HardUnsat || Cost < Best.Cost ||
        (Cost == Best.Cost && Sat > BestSat)) {
      Best.HardUnsat = false;
      Best.Cost = Cost;
      BestSat = std::move(Sat);
    }
  }
  for (size_t I = 0; I < BestSat.size(); ++I)
    if (!BestSat[I])
      Best.FalsifiedSoft.push_back(I);
  return Best;
}

/// Satisfiability of \p Clauses over variables [0, NumVars) by enumeration.
inline bool bruteForceSat(int NumVars, const std::vector<Clause> &Clauses) {
  MaxSatInstance Inst;
  Inst.NumVars = NumVars;
  Inst.Hard = Clauses;
  return bruteForceOptimum(Inst) != UINT64_MAX;
}

/// \returns true if \p S's last model satisfies every clause of \p Clauses.
inline bool modelSatisfies(Solver &S,
                           const std::vector<Clause> &Clauses) {
  return std::all_of(Clauses.begin(), Clauses.end(), [&S](const Clause &C) {
    return std::any_of(C.begin(), C.end(), [&S](Lit L) {
      return S.modelValue(L) == LBool::True;
    });
  });
}

/// \p NumClauses random clauses of \p ClauseLen distinct variables from
/// [0, NumVars), each literal negated with probability 1/2.
inline std::vector<Clause> randomInstance(Rng &R, int NumVars, int NumClauses,
                                          int ClauseLen) {
  std::vector<Clause> Cs;
  for (int I = 0; I < NumClauses; ++I) {
    Clause C;
    std::set<Var> Used;
    while (static_cast<int>(C.size()) < ClauseLen) {
      Var V = static_cast<Var>(R.below(NumVars));
      if (!Used.insert(V).second)
        continue;
      C.push_back(mkLit(V, R.chance(1, 2)));
    }
    Cs.push_back(std::move(C));
  }
  return Cs;
}

} // namespace bugassist

#endif // BUGASSIST_TESTS_BRUTEFORCE_H
