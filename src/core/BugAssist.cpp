//===- BugAssist.cpp - Error localization via MaxSAT -----------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/BugAssist.h"

#include "bmc/Encoder.h"
#include "sat/Solver.h"

#include <algorithm>
#include <map>

using namespace bugassist;

LocalizationReport bugassist::enumerateCoMSSesOn(MaxSatSession &Session,
                                                 const CnfFormula &F,
                                                 const LocalizeOptions &Opts) {
  LocalizationReport Report;
  std::set<uint32_t> AllLines;

  // Query-wide resource budget: one deadline / conflict cap / arena cap
  // covers the whole enumeration. Exhaustion mid-round surfaces as an
  // Unknown solve(), which flags the report Incomplete below.
  if (Opts.Budget.any())
    Session.setBudget(Opts.Budget.solverBudget());
  while (Report.Diagnoses.size() < Opts.MaxDiagnoses) {
    MaxSatResult R = Session.solve();
    Report.SatCalls += R.SatCalls;
    Report.Search = R.Search; // cumulative over the session
    if (R.Status == MaxSatStatus::HardUnsat) {
      Report.Exhausted = true; // "No more suspects"
      break;
    }
    if (R.Status != MaxSatStatus::Optimum) {
      // Budget exhausted: whatever was enumerated so far stands, flagged
      // incomplete -- the anytime contract of the whole pipeline.
      Report.Incomplete = true;
      break;
    }
    if (R.FalsifiedSoft.empty()) {
      // The formula is satisfiable without removing anything: the test is
      // not failing under this spec.
      Report.Exhausted = true;
      break;
    }

    // CoMSS -> diagnosis. Soft index == group id (the instance never
    // drops soft clauses; see below).
    Diagnosis D;
    D.Cost = R.Cost;
    Clause Blocking; // beta = (lambda_1 \/ ... \/ lambda_k), hard
    for (size_t SoftIdx : R.FalsifiedSoft) {
      const ClauseGroup &CG = F.group(static_cast<GroupId>(SoftIdx));
      D.Lines.push_back(CG.Line);
      D.Unwindings.push_back(CG.Unwinding);
      AllLines.insert(CG.Line);
      Blocking.push_back(mkLit(CG.Selector));
    }
    // Sort lines (with parallel unwindings) for stable output.
    std::vector<size_t> Order(D.Lines.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return std::make_pair(D.Lines[A], D.Unwindings[A]) <
             std::make_pair(D.Lines[B], D.Unwindings[B]);
    });
    Diagnosis Sorted;
    Sorted.Cost = D.Cost;
    for (size_t I : Order) {
      Sorted.Lines.push_back(D.Lines[I]);
      Sorted.Unwindings.push_back(D.Unwindings[I]);
    }
    Report.Diagnoses.push_back(std::move(Sorted));

    // Phi_H := Phi_H + beta (Algorithm 1, line 14). Deviation from the
    // paper's "Phi_S := Phi_S \ beta": the selectors STAY soft. Removing
    // them would let later rounds disable those statements at zero cost,
    // silently bundling earlier diagnoses into new "CoMSSes" that look
    // smaller than they are. Keeping them soft preserves the paper's
    // intent ("other combinations of these locations are still allowed")
    // with honest costs; the hard beta still bans the reported CoMSS and
    // all of its supersets.
    Session.addHardClause(Blocking);
  }

  Report.AllLines.assign(AllLines.begin(), AllLines.end());
  return Report;
}

std::unique_ptr<MaxSatSession>
bugassist::makeLocalizationSession(const MaxSatInstance &Inst,
                                   const LocalizeOptions &Opts) {
  Solver::Options SOpts;
  SOpts.Preprocess = Opts.Preprocess;
  return makeMaxSatSession(Inst, Opts.Weighted, Opts.ConflictBudget, SOpts,
                           /*Canonical=*/true);
}

LocalizationReport bugassist::localizeFault(const TraceFormula &TF,
                                            const InputVector &FailingTest,
                                            const Spec &S,
                                            const LocalizeOptions &Opts,
                                            MaxSatSession *Session) {
  // Algorithm 1, lines 7-14, on ONE incremental MaxSAT session: the solver
  // (hard formula, learned clauses, heuristic state) persists across
  // diagnoses, and each blocking clause beta is added incrementally.
  std::unique_ptr<MaxSatSession> Own;
  if (!Session) {
    Own = makeLocalizationSession(TF.sharedInstance(), Opts);
    Session = Own.get();
  }
  // Phi_H = [[test]] /\ p /\ TF1 (Algorithm 1, line 5): the bindings and
  // spec units range over original variables only, so guard numbering is
  // the same on every session.
  for (const Clause &C : TF.testClauses(FailingTest, S))
    Session->addHardClause(C);
  return enumerateCoMSSesOn(*Session, TF.encoded().Formula, Opts);
}

bool bugassist::isValidCorrection(const TraceFormula &TF,
                                  const InputVector &FailingTest,
                                  const Spec &S,
                                  const std::vector<uint32_t> &Lines,
                                  uint64_t ConflictBudget) {
  MaxSatInstance Inst = TF.localizationInstance(FailingTest, S);
  const CnfFormula &F = TF.encoded().Formula;
  Solver Solve;
  if (!Inst.loadHard(Solve))
    return false;
  bool Ok = true;
  const std::set<uint32_t> LineSet(Lines.begin(), Lines.end());
  for (const ClauseGroup &G : F.groups()) {
    bool Off = LineSet.count(G.Line) != 0;
    Ok = Ok && Solve.addClause({mkLit(G.Selector, /*Negated=*/Off)});
  }
  if (!Ok)
    return false;
  if (ConflictBudget)
    Solve.setConflictBudget(ConflictBudget);
  return Solve.solve() == LBool::True;
}

BugAssistDriver::BugAssistDriver(const Program &Prog, std::string Entry,
                                 UnrollOptions UOpts, EncodeOptions EOpts)
    : Unroll(UOpts), UP(unrollProgram(Prog, Entry, UOpts)),
      TF((EOpts.BitWidth = UOpts.BitWidth, encodeProgram(UP, EOpts))) {}

std::optional<InputVector>
BugAssistDriver::findCounterexample(const Spec &S,
                                    uint64_t ConflictBudget) const {
  bool Decided = false;
  return TF.findCounterexample(S, Decided, ConflictBudget);
}

LocalizationReport BugAssistDriver::localize(const InputVector &FailingTest,
                                             const Spec &S,
                                             const LocalizeOptions &Opts) const {
  return localizeFault(TF, FailingTest, S, Opts);
}
