//===- LoopDiagnosis.cpp - Faulty loop-iteration diagnosis -------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LoopDiagnosis.h"

#include "bmc/Encoder.h"

using namespace bugassist;

LoopDiagnosisResult bugassist::diagnoseLoopFault(const Program &Prog,
                                                 const std::string &Entry,
                                                 const InputVector &FailingTest,
                                                 const Spec &S,
                                                 LoopDiagnosisOptions Opts) {
  UnrolledProgram UP = unrollProgram(Prog, Entry, Opts.Unroll);

  EncodeOptions EO;
  EO.BitWidth = Opts.Unroll.BitWidth;
  EO.PerIterationGroups = true;
  EO.BaseWeight = Opts.BaseWeight;
  TraceFormula TF(encodeProgram(UP, EO));

  LoopDiagnosisResult Result;
  LocalizeOptions LO = Opts.Localize;
  LO.Weighted = true; // Eq. 3 weights need the weighted solver

  std::unique_ptr<MaxSatSession> Session =
      makeLocalizationSession(TF.sharedInstance(), LO);
  if (Opts.RestrictToLoopGroups) {
    // Pin every non-loop statement enabled: its selector becomes a hard
    // unit, and its soft clause is trivially satisfied alongside.
    for (const ClauseGroup &G : TF.encoded().Formula.groups())
      if (G.Unwinding == 0)
        Session->addHardClause({mkLit(G.Selector)});
  }
  Result.Report = localizeFault(TF, FailingTest, S, LO, Session.get());

  for (size_t D = 0; D < Result.Report.Diagnoses.size(); ++D) {
    const Diagnosis &Diag = Result.Report.Diagnoses[D];
    for (size_t I = 0; I < Diag.Lines.size(); ++I) {
      IterationSuspect IS{Diag.Lines[I], Diag.Unwindings[I]};
      if (D == 0)
        Result.First.push_back(IS);
      Result.All.push_back(IS);
    }
  }
  return Result;
}
