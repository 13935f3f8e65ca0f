//===- Answer.h - MaxSAT/SAT answer lines -----------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `o` / `s` / `v` answer lines of the `maxsat` and `sat` commands, in
/// the MaxSAT-Evaluation / SAT-competition format, the engine rule of
/// `maxsat`, and the one-solver decision of `sat`. The CLI and serve both
/// solve and render through here, so a serve body is the one-shot stdout
/// minus the CLI's `c` comment lines by construction.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_MAXSAT_ANSWER_H
#define BUGASSIST_MAXSAT_ANSWER_H

#include "maxsat/MaxSat.h"

#include <string>
#include <string_view>

namespace bugassist {

/// The engine of a `maxsat` query: "linear" and "fumalik" force theirs,
/// "auto" picks linear search as soon as a soft weight differs from 1
/// (Fu-Malik ignores weights). \returns true for linear search.
bool useLinearSearch(std::string_view Engine, bool AnyNonUnitWeight);

/// `o <cost>` / `s OPTIMUM FOUND` / `s UNSATISFIABLE` / `s UNKNOWN` and the
/// `v` model line (when \p Model). A budget-stopped run reports its best
/// upper bound and witness; with \p Comments the proven lower bound is
/// added as a `c lower bound` line.
std::string renderMaxSatAnswer(const MaxSatResult &R, int NumVars, bool Model,
                               bool Comments);

/// Outcome of one `sat` query.
struct SatAnswer {
  LBool Result = LBool::Undef;
  /// The model over the original variables [0, NumVars); empty unless
  /// Result is True.
  std::vector<LBool> Model;
  SolverStats Stats;
};

/// Decides \p Clauses on one solver: install \p Bud (when set, so loading
/// and the load-time preprocessing pass inside solve() count against it
/// too), load them, solve. When NumVars alone overflows the budget's
/// memory cap the answer is Undef and no solver state is allocated.
SatAnswer solveSat(const std::vector<Clause> &Clauses, int NumVars,
                   const Solver::Options &Opts,
                   const Solver::Budget &Bud = Solver::Budget());

/// `s SATISFIABLE` / `s UNSATISFIABLE` / `s UNKNOWN` and the `0`-terminated
/// `v` line (when \p Model).
std::string renderSatAnswer(const SatAnswer &R, int NumVars, bool Model);

} // namespace bugassist

#endif // BUGASSIST_MAXSAT_ANSWER_H
