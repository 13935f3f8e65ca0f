//===- TraceFormula.h - Hard/soft instances per the paper -------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembles the paper's formulas from an encoded program:
///
///   Phi_H = [[test]] /\ p /\ TF1     (hard)      -- Algorithm 1, line 5
///   Phi_S = TF2 (selector units)     (soft)      -- Algorithm 1, line 6
///
/// where p is the specification: the conjunction of assert/bounds
/// obligations and, optionally, a golden-output constraint on the entry's
/// return value (the Section 6.1 TCAS methodology). Also provides the
/// counterexample-generation side (Section 4.1): solve TF /\ [[selectors]]
/// /\ not p and read the failing input back from the model.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_BMC_TRACEFORMULA_H
#define BUGASSIST_BMC_TRACEFORMULA_H

#include "bmc/Encoder.h"
#include "interp/Interpreter.h"
#include "maxsat/MaxSat.h"

#include <optional>

namespace bugassist {

/// The specification p. Obligations (asserts, array bounds) always come
/// from the program; a golden return value can be added per test.
struct Spec {
  bool CheckObligations = true;
  std::optional<int64_t> GoldenReturn;
};

/// Wraps an EncodedProgram with the instance builders the BugAssist
/// algorithms need. The encoded CNF is built once; per-test input bindings
/// and spec assertions are appended per instance.
class TraceFormula {
public:
  explicit TraceFormula(EncodedProgram EP) : EP(std::move(EP)) {}

  const EncodedProgram &encoded() const { return EP; }

  /// Builds the partial MaxSAT instance (Phi_H, Phi_S) for \p Test. The
  /// instance borrows TF1 (MaxSatInstance::Formula points at encoded()'s
  /// formula), so this TraceFormula must stay alive, and unmoved, until
  /// every session is built from the instance.
  MaxSatInstance localizationInstance(const InputVector &Test,
                                      const Spec &S) const;

  /// The test-independent part of localizationInstance: Formula = TF1
  /// (borrowed, same lifetime rule), Hard empty, Soft/PreferTrue = the full
  /// selector structure, and no witness model (MaxSatInstance::Witness
  /// false: reports need only the falsified selectors). Every
  /// localization session is built over this instance and completed with
  /// testClauses() (localizeFault); a never-solved one can first be
  /// preprocessed and cloned per query (serve). Selector guard variables
  /// allocated on top of NumVars land at the same IDs as in the per-test
  /// instance because testClauses adds no variables.
  MaxSatInstance sharedInstance() const;

  /// The per-test hard clauses ([[test]] /\ p) that localizationInstance
  /// appends to TF1, in the same order: input bindings, the SpecLit unit,
  /// then golden-return units. Add them to a sharedInstance() session (or
  /// a clone of one) to obtain the exact per-test instance.
  std::vector<Clause> testClauses(const InputVector &Test, const Spec &S) const;

  /// Searches for an input violating \p S with every statement enabled
  /// (bounded model checking; Section 4.1). \returns the counterexample
  /// input, or std::nullopt if none exists within the encoding bounds --
  /// decided, also when no run is feasible at all -- or when the conflict
  /// budget or \p Budget (e.g. a request deadline) ran out first, which
  /// leaves \p Decided false.
  std::optional<InputVector>
  findCounterexample(const Spec &S, bool &Decided, uint64_t ConflictBudget = 0,
                     const Solver::Budget &Budget = Solver::Budget()) const;

  /// \returns the source line of clause group \p G.
  uint32_t lineOfGroup(GroupId G) const { return EP.Formula.group(G).Line; }

  /// Result of executing one concrete test *through the CNF encoding*.
  struct EvalOutcome {
    /// False when an assume/unwinding assumption rejects the input.
    bool Feasible = false;
    /// Truth of the obligation conjunction (asserts + bounds checks).
    bool ObligationsHold = false;
    int64_t RetValue = 0;
  };

  /// Runs \p Test through the encoded program with every statement enabled
  /// -- the SAT-side twin of Interpreter::run, used by differential tests
  /// and by repair validation. \returns std::nullopt only when a conflict
  /// budget is exhausted.
  std::optional<EvalOutcome> evaluateTest(const InputVector &Test,
                                          uint64_t ConflictBudget = 0) const;

private:
  /// Hard unit clauses pinning the input words to \p Test ("[[test]]").
  std::vector<Clause> bindInput(const InputVector &Test) const;
  /// Flattens \p Test into per-element scalar values matching InputWords.
  std::vector<int64_t> flatten(const InputVector &Test) const;

  EncodedProgram EP;
};

} // namespace bugassist

#endif // BUGASSIST_BMC_TRACEFORMULA_H
