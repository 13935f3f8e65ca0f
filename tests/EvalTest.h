//===- EvalTest.h - Run a concrete test through the encoding ----*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SAT-side twin of Interpreter::run, for the differential tests that
/// hold the encoding to the interpreter (bmc_test, reduce_test,
/// property_test): one concrete test solved through the CNF with every
/// statement enabled.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_TESTS_EVALTEST_H
#define BUGASSIST_TESTS_EVALTEST_H

#include "bmc/TraceFormula.h"

#include <optional>

namespace bugassist {

/// What one test did in the encoded program.
struct EvalOutcome {
  /// False when an assume/unwinding assumption rejects the input.
  bool Feasible = false;
  /// Truth of the obligation conjunction (asserts + bounds checks).
  bool ObligationsHold = false;
  int64_t RetValue = 0;
};

/// Runs \p Test through \p TF with every selector on. \returns
/// std::nullopt only when the conflict budget is exhausted.
inline std::optional<EvalOutcome> evaluateTest(const TraceFormula &TF,
                                               const InputVector &Test,
                                               uint64_t ConflictBudget = 0) {
  const EncodedProgram &EP = TF.encoded();
  Solver Solve;
  bool Ok = Solve.addFormula(EP.Formula);
  for (const ClauseGroup &G : EP.Formula.groups())
    Ok = Ok && Solve.addClause({mkLit(G.Selector)});
  // With no obligations and no golden, the test clauses are the input
  // bindings alone.
  Spec BindOnly;
  BindOnly.CheckObligations = false;
  if (Ok)
    for (Clause &C : TF.testClauses(Test, BindOnly))
      Ok = Ok && Solve.addClause(std::move(C));

  EvalOutcome Out;
  if (!Ok)
    return Out; // infeasible: an assumption rejected the test

  if (ConflictBudget)
    Solve.setConflictBudget(ConflictBudget);
  LBool R = Solve.solve();
  if (R == LBool::Undef)
    return std::nullopt;
  if (R == LBool::False)
    return Out;

  Out.Feasible = true;
  Out.ObligationsHold = Solve.modelValue(EP.SpecLit) == LBool::True;
  if (!EP.RetWord.empty()) {
    int64_t V = 0;
    for (size_t B = 0; B < EP.RetWord.size(); ++B)
      if (Solve.modelValue(EP.RetWord[B]) == LBool::True)
        V |= (1ll << B);
    if (EP.RetWord.size() > 1 && (V & (1ll << (EP.RetWord.size() - 1))))
      V |= ~((1ll << EP.RetWord.size()) - 1);
    Out.RetValue = V;
  }
  return Out;
}

} // namespace bugassist

#endif // BUGASSIST_TESTS_EVALTEST_H
