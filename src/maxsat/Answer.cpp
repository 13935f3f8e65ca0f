//===- Answer.cpp - MaxSAT/SAT answer lines ---------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "maxsat/Answer.h"

using namespace bugassist;

namespace {

void appendModelLine(std::string &Out, const std::vector<LBool> &Model,
                     int NumVars, bool TrailingZero) {
  Out += "v";
  for (int V = 0; V < NumVars; ++V) {
    Out += Model[V] == LBool::True ? " " : " -";
    Out += std::to_string(V + 1);
  }
  if (TrailingZero)
    Out += " 0";
  Out += '\n';
}

} // namespace

bool bugassist::useLinearSearch(std::string_view Engine,
                                bool AnyNonUnitWeight) {
  return Engine == "linear" || (Engine == "auto" && AnyNonUnitWeight);
}

std::string bugassist::renderMaxSatAnswer(const MaxSatResult &R, int NumVars,
                                          bool Model, bool Comments) {
  std::string Out;
  switch (R.Status) {
  case MaxSatStatus::Optimum:
    Out = "o " + std::to_string(R.Cost) + "\ns OPTIMUM FOUND\n";
    if (Model)
      appendModelLine(Out, R.Model, NumVars, /*TrailingZero=*/false);
    break;
  case MaxSatStatus::HardUnsat:
    Out = "s UNSATISFIABLE\n";
    break;
  case MaxSatStatus::Unknown:
    // Anytime output: the o-line reports the best (timing-dependent) upper
    // bound witnessed before the budget bit, v its model.
    if (R.UpperBound == UINT64_MAX)
      return "s UNKNOWN\n";
    Out = "o " + std::to_string(R.UpperBound) + "\n";
    if (Comments && R.LowerBound > 0)
      Out += "c lower bound " + std::to_string(R.LowerBound) + "\n";
    Out += "s UNKNOWN\n";
    if (Model && !R.BestModel.empty())
      appendModelLine(Out, R.BestModel, NumVars, /*TrailingZero=*/false);
    break;
  }
  return Out;
}

SatAnswer bugassist::solveSat(const std::vector<Clause> &Clauses,
                              int NumVars, const Solver::Options &Opts,
                              const Solver::Budget &Bud) {
  SatAnswer A;
  if (!Bud.admitsVars(NumVars))
    return A; // Undef before any solver state is allocated
  Solver S(Opts);
  if (!Bud.unlimited())
    S.setBudget(Bud);
  S.ensureVars(NumVars);
  for (const Clause &C : Clauses)
    if (!S.addClause(C))
      break; // root-level UNSAT: solve() reports False immediately
  A.Result = S.solve();
  if (A.Result == LBool::True)
    A.Model = readModel(S, NumVars);
  A.Stats = S.stats();
  return A;
}

std::string bugassist::renderSatAnswer(const SatAnswer &R, int NumVars,
                                       bool Model) {
  std::string Out = R.Result == LBool::True    ? "s SATISFIABLE\n"
                    : R.Result == LBool::False ? "s UNSATISFIABLE\n"
                                               : "s UNKNOWN\n";
  if (Model && R.Result == LBool::True)
    appendModelLine(Out, R.Model, NumVars, /*TrailingZero=*/true);
  return Out;
}
