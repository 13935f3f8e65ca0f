//===- TraceFormula.cpp - Hard/soft instances per the paper ---------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "bmc/TraceFormula.h"

#include "sat/Solver.h"

#include <cassert>

using namespace bugassist;

std::vector<int64_t> TraceFormula::flatten(const InputVector &Test) const {
  std::vector<int64_t> Flat;
  assert(Test.size() == EP.InputShapes.size() && "input arity mismatch");
  for (size_t I = 0; I < Test.size(); ++I) {
    const InputShape &Shape = EP.InputShapes[I];
    if (Shape.IsArray) {
      assert(Test[I].IsArray &&
             Test[I].Array.size() == static_cast<size_t>(Shape.ArraySize) &&
             "array input shape mismatch");
      for (int64_t V : Test[I].Array)
        Flat.push_back(V);
    } else {
      assert(!Test[I].IsArray && "scalar input shape mismatch");
      Flat.push_back(Shape.IsBool ? (Test[I].Scalar != 0) : Test[I].Scalar);
    }
  }
  assert(Flat.size() == EP.InputWords.size() && "flattened arity mismatch");
  return Flat;
}

std::vector<Clause> TraceFormula::bindInput(const InputVector &Test) const {
  std::vector<Clause> Binds;
  std::vector<int64_t> Flat = flatten(Test);
  for (size_t I = 0; I < Flat.size(); ++I) {
    const Word &W = EP.InputWords[I];
    for (size_t B = 0; B < W.size(); ++B) {
      bool BitSet = (Flat[I] >> B) & 1;
      Binds.push_back({BitSet ? W[B] : ~W[B]});
    }
  }
  return Binds;
}

MaxSatInstance TraceFormula::sharedInstance() const {
  MaxSatInstance Inst;
  Inst.NumVars = EP.Formula.numVars();
  Inst.Formula = &EP.Formula;
  // Only the spec's cone: a definition outside it is a circuit over fresh
  // variables nothing live reads, so leaving its clauses out keeps the
  // formula's models over every other variable, under every selector
  // assignment. A root unit fixes each variable only those clauses
  // mention, which keeps it out of the search.
  Inst.Omit = &EP.OutsideCone;
  Inst.Hard.reserve(EP.OutsideVars.size());
  for (Var V : EP.OutsideVars)
    Inst.Hard.push_back({mkLit(V, /*Negated=*/true)});
  // Localization reads only which selectors the optimum falsifies, never
  // the assignment behind it, so no session rebuilds eliminated variables.
  Inst.Witness = false;

  // Phi_S = TF2: one soft unit clause per clause group (selector),
  // weighted per group (Eq. 3 weights in loop-diagnosis mode). Selector
  // phases start at true so the search departs from the unmodified
  // program.
  for (const ClauseGroup &G : EP.Formula.groups()) {
    Inst.Soft.push_back({{mkLit(G.Selector)}, G.Weight});
    Inst.PreferTrue.push_back(G.Selector);
  }
  // The test interface arrives later (testClauses on a clone adds unit
  // clauses over these variables), so a base session preprocessed before
  // the test is bound must not eliminate them.
  for (const Word &W : EP.InputWords)
    for (Lit L : W)
      Inst.Frozen.push_back(L.var());
  if (EP.SpecLit != NullLit)
    Inst.Frozen.push_back(EP.SpecLit.var());
  for (Lit L : EP.RetWord)
    Inst.Frozen.push_back(L.var());
  return Inst;
}

std::vector<Clause> TraceFormula::testClauses(const InputVector &Test,
                                              const Spec &S) const {
  // [[test]]: the input equals the failing test (hard).
  std::vector<Clause> Hard = bindInput(Test);

  // p: the specification *holds* (hard) -- making the instance UNSAT for a
  // failing test, which is what CoMSS extraction needs.
  if (S.CheckObligations)
    Hard.push_back({EP.SpecLit});
  if (S.GoldenReturn) {
    assert(!EP.RetWord.empty() && "golden spec requires a return value");
    int64_t G = *S.GoldenReturn;
    for (size_t B = 0; B < EP.RetWord.size(); ++B) {
      bool BitSet = (G >> B) & 1;
      Hard.push_back({BitSet ? EP.RetWord[B] : ~EP.RetWord[B]});
    }
  }
  return Hard;
}

MaxSatInstance TraceFormula::localizationInstance(const InputVector &Test,
                                                  const Spec &S) const {
  // Keep the clause order of a sharedInstance session completed with
  // testClauses: TF1's cone (the borrowed Formula, loaded first), the
  // outside-only units, then [[test]] /\ p, with the soft selector units
  // after NumVars -- sharedInstance already placed the soft side.
  MaxSatInstance Inst = sharedInstance();
  for (Clause &C : testClauses(Test, S))
    Inst.Hard.push_back(std::move(C));
  return Inst;
}

std::optional<InputVector>
TraceFormula::findCounterexample(const Spec &S, bool &Decided,
                                 uint64_t ConflictBudget,
                                 const Solver::Budget &Budget) const {
  Decided = false;
  Solver Solve;
  if (!Budget.unlimited())
    Solve.setBudget(Budget);
  // A root conflict here means no run is feasible within the bounds (say a
  // constant loop longer than the unwinding): decided, no violation.
  if (!Solve.addFormula(EP.Formula)) {
    Decided = true;
    return std::nullopt;
  }

  // The program as written: every selector on.
  for (const ClauseGroup &G : EP.Formula.groups())
    if (!Solve.addClause({mkLit(G.Selector)})) {
      Decided = true;
      return std::nullopt;
    }

  // not p: either an obligation fails, or the return differs from golden.
  Clause NotSpec;
  if (S.CheckObligations)
    NotSpec.push_back(~EP.SpecLit);
  if (S.GoldenReturn) {
    assert(!EP.RetWord.empty() && "golden spec requires a return value");
    int64_t G = *S.GoldenReturn;
    for (size_t B = 0; B < EP.RetWord.size(); ++B) {
      bool BitSet = (G >> B) & 1;
      NotSpec.push_back(BitSet ? ~EP.RetWord[B] : EP.RetWord[B]);
    }
  }
  if (NotSpec.empty()) {
    Decided = true; // empty spec cannot be violated
    return std::nullopt;
  }
  if (!Solve.addClause(NotSpec)) {
    Decided = true;
    return std::nullopt;
  }

  if (ConflictBudget)
    Solve.setConflictBudget(ConflictBudget);
  LBool R = Solve.solve();
  if (R == LBool::Undef)
    return std::nullopt;
  Decided = true;
  if (R == LBool::False)
    return std::nullopt;

  // Read the failing input back from the model.
  InputVector Cex;
  size_t Cursor = 0;
  auto ReadWord = [&](const Word &W) {
    int64_t V = 0;
    for (size_t B = 0; B < W.size(); ++B)
      if (Solve.modelValue(W[B]) == LBool::True)
        V |= (1ll << B);
    // Sign-extend full-width words.
    if (W.size() > 1 && (V & (1ll << (W.size() - 1))))
      V |= ~((1ll << W.size()) - 1);
    return V;
  };
  for (const InputShape &Shape : EP.InputShapes) {
    if (Shape.IsArray) {
      std::vector<int64_t> Vals;
      for (int J = 0; J < Shape.ArraySize; ++J)
        Vals.push_back(ReadWord(EP.InputWords[Cursor++]));
      Cex.push_back(InputValue::array(std::move(Vals)));
    } else {
      Cex.push_back(InputValue::scalar(ReadWord(EP.InputWords[Cursor++])));
    }
  }
  return Cex;
}
