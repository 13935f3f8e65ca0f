//===- FuzzSweep.cpp - Differential mutant sweep --------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mutate/FuzzSweep.h"

#include "interp/Interpreter.h"

using namespace bugassist;

FuzzResult bugassist::runFuzzSweep(const FuzzSubject &Subject,
                                   const FuzzOptions &Opts,
                                   const FuzzProgress &Progress) {
  FuzzResult Res;

  MutantGeneratorOptions GenOpts;
  GenOpts.Seed = Opts.Seed;
  GenOpts.Classes = Opts.Classes;
  GenOpts.ProtectedLines = Subject.ProtectedLines;
  MutantGenerator Gen(*Subject.Base, GenOpts);
  std::vector<GeneratedMutant> Mutants = Gen.generate(Opts.Count);
  Res.Generated = Mutants.size();

  // Pool judging runs encoder-aligned, exactly like the pipeline's
  // concrete judge, but with lowered fuel (runaway-loop mutants).
  ExecOptions EO;
  EO.BitWidth = Subject.Unroll.BitWidth;
  EO.CheckArrayBounds =
      Subject.Unroll.CheckArrayBounds && Subject.CheckObligations;
  EO.CheckDivByZero = Subject.CheckObligations;
  EO.MaxSteps = Opts.MaxInterpSteps;
  std::vector<int64_t> GoldenOut =
      goldenOutputs(*Subject.Base, Subject.Pool, Subject.Entry, EO);

  size_t Done = 0;
  for (GeneratedMutant &M : Mutants) {
    FuzzClassStats &Row = Res.PerClass[static_cast<size_t>(M.Spec.Type)];
    ++Row.Mutants;
    ++Done;

    FailingTests FT =
        segregateFailingTests(GoldenOut, *M.Prog, Subject.Pool, Subject.Entry,
                              EO, Opts.MaxFailingTests, Opts.MaxPassingTests);
    if (FT.Inputs.empty()) {
      if (Progress)
        Progress(Done, Mutants.size());
      continue; // behavior-preserving (or pool-invisible) mutant
    }

    // Encode the mutant once; both configs and the repair run share
    // this prepared driver -- the encode-once seam under test.
    PreparedProgram P;
    P.Prog = std::move(M.Prog);
    P.Driver = std::make_unique<BugAssistDriver>(*P.Prog, Subject.Entry,
                                                 Subject.Unroll,
                                                 Subject.Encode);

    // The segregator judges by return value; the pipeline's concrete
    // judge is stricter (trap statuses, obligations). Try the failing
    // tests in order until one localizes.
    PipelineRequest Base;
    Base.Entry = Subject.Entry;
    Base.Unroll = Subject.Unroll;
    Base.Encode = Subject.Encode;
    Base.CheckObligations = Subject.CheckObligations;
    Base.Localize.MaxDiagnoses = Opts.MaxDiagnoses;

    PipelineResult FirstRes;
    size_t UsedTest = SIZE_MAX;
    for (size_t T = 0; T < FT.Inputs.size(); ++T) {
      PipelineRequest R = Base;
      R.Input = FT.Inputs[T];
      R.GoldenReturn = FT.Goldens[T];
      PipelineResult PR = runLocalizePipeline(P, R);
      if (PR.Status == PipelineStatus::Localized) {
        FirstRes = std::move(PR);
        UsedTest = T;
        break;
      }
    }
    if (UsedTest == SIZE_MAX) {
      if (Progress)
        Progress(Done, Mutants.size());
      continue; // return-diff only visible outside the encoding bounds
    }
    ++Row.Failing;

    // Differential: reports are canonical, so localizing without
    // preprocessing must reproduce the default report byte for byte.
    PipelineRequest NoPre = Base;
    NoPre.Input = FT.Inputs[UsedTest];
    NoPre.GoldenReturn = FT.Goldens[UsedTest];
    NoPre.Localize.Preprocess = false;
    if (renderLocalizeOutput(runLocalizePipeline(P, NoPre), /*Json=*/false) !=
        renderLocalizeOutput(FirstRes, /*Json=*/false)) {
      ++Row.Mismatches;
      ++Res.TotalMismatches;
      Res.MismatchNotes.push_back(
          std::string(errorTypeName(M.Spec.Type)) + " mutant (" +
          M.Spec.Description +
          "): report at no-preprocess differs from default");
    }

    if (!FirstRes.Report.Diagnoses.empty())
      ++Row.Localized;
    bool Hit = false;
    for (uint32_t L : FirstRes.Report.AllLines)
      Hit = Hit || L == M.Spec.Line;
    if (!Hit) {
      if (Progress)
        Progress(Done, Mutants.size());
      continue;
    }
    ++Row.Hits;

    if (Opts.TryRepair) {
      // Candidate lines come from the differential report; the localized
      // test leads so the prescreen and the goldens stay aligned with it.
      std::vector<InputVector> Tests;
      std::vector<int64_t> Goldens;
      Tests.push_back(FT.Inputs[UsedTest]);
      Goldens.push_back(FT.Goldens[UsedTest]);
      for (size_t T = 0; T < FT.Inputs.size(); ++T) {
        if (T == UsedTest)
          continue;
        Tests.push_back(FT.Inputs[T]);
        Goldens.push_back(FT.Goldens[T]);
      }
      // Regression witnesses: a candidate must keep these passing, or it
      // "repairs" the failures by breaking correct behavior elsewhere.
      for (size_t T = 0; T < FT.PassingInputs.size(); ++T) {
        Tests.push_back(FT.PassingInputs[T]);
        Goldens.push_back(FT.PassingGoldens[T]);
      }
      RepairOptions RO;
      RO.Unroll = Subject.Unroll;
      RO.MaxCandidates = Opts.RepairMaxCandidates;
      RO.VerifyBudget = Opts.RepairVerifyBudget;
      RO.MaxInterpSteps = Opts.MaxInterpSteps;
      std::set<uint32_t> Seen;
      for (const Diagnosis &D : FirstRes.Report.Diagnoses)
        for (uint32_t L : D.Lines)
          if (Seen.insert(L).second)
            RO.CandidateLines.push_back(L);
      Spec S;
      S.CheckObligations = Subject.CheckObligations;
      RepairResult RR = repairProgram(*P.Prog, *P.Driver, Subject.Entry,
                                      Tests, S, &Goldens, RO);
      if (RR.Found)
        ++Row.Repaired;
    }
    if (Progress)
      Progress(Done, Mutants.size());
  }
  return Res;
}

std::string bugassist::renderFuzzScorecard(const FuzzSubject &Subject,
                                           const FuzzOptions &Opts,
                                           const FuzzResult &Res) {
  std::string Out = "{\n";
  Out += "  \"subject\": \"" + Subject.Name + "\",\n";
  Out += "  \"seed\": " + std::to_string(Opts.Seed) + ",\n";
  Out += "  \"requested\": " + std::to_string(Opts.Count) + ",\n";
  Out += "  \"generated\": " + std::to_string(Res.Generated) + ",\n";
  Out += "  \"pool\": " + std::to_string(Subject.Pool.size()) + ",\n";
  Out += "  \"classes\": [";
  bool FirstRow = true;
  for (ErrorType T : AllErrorTypes) {
    const FuzzClassStats &Row = Res.PerClass[static_cast<size_t>(T)];
    if (Row.Mutants == 0)
      continue;
    Out += FirstRow ? "\n" : ",\n";
    FirstRow = false;
    Out += std::string("    {\"class\": \"") + errorTypeName(T) +
           "\", \"mutants\": " + std::to_string(Row.Mutants) +
           ", \"failing\": " + std::to_string(Row.Failing) +
           ", \"localized\": " + std::to_string(Row.Localized) +
           ", \"hits\": " + std::to_string(Row.Hits) +
           ", \"repaired\": " + std::to_string(Row.Repaired) +
           ", \"mismatches\": " + std::to_string(Row.Mismatches) + "}";
  }
  Out += FirstRow ? "],\n" : "\n  ],\n";
  FuzzClassStats Total;
  for (const FuzzClassStats &Row : Res.PerClass) {
    Total.Mutants += Row.Mutants;
    Total.Failing += Row.Failing;
    Total.Localized += Row.Localized;
    Total.Hits += Row.Hits;
    Total.Repaired += Row.Repaired;
    Total.Mismatches += Row.Mismatches;
  }
  Out += "  \"total\": {\"mutants\": " + std::to_string(Total.Mutants) +
         ", \"failing\": " + std::to_string(Total.Failing) +
         ", \"localized\": " + std::to_string(Total.Localized) +
         ", \"hits\": " + std::to_string(Total.Hits) +
         ", \"repaired\": " + std::to_string(Total.Repaired) +
         ", \"mismatches\": " + std::to_string(Total.Mismatches) + "}\n";
  Out += "}\n";
  return Out;
}
