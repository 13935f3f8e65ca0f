//===- tcas_test.cpp - TCAS benchmark tests (Section 6.1) -------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "programs/TcasMutants.h"

#include "core/BugAssist.h"
#include "core/Pipeline.h"
#include "lang/Sema.h"
#include "programs/Tcas.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace bugassist;

namespace {

std::unique_ptr<Program> compile(const std::string &Src) {
  DiagEngine Diags;
  auto P = parseAndAnalyze(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.render();
  return P;
}

int64_t runTcas(const Program &P, const InputVector &In) {
  Interpreter I(P, tcasExecOptions());
  ExecResult R = I.run("main", In);
  EXPECT_EQ(R.Status, ExecStatus::Ok);
  return R.ReturnValue;
}

InputVector tcasInput(int64_t Cvs, int64_t Hc, int64_t Ttrv, int64_t Ota,
                      int64_t Otar, int64_t Otra, int64_t Alv, int64_t Us,
                      int64_t Ds, int64_t Orac, int64_t Ocap, int64_t Ci) {
  return {InputValue::scalar(Cvs),  InputValue::scalar(Hc),
          InputValue::scalar(Ttrv), InputValue::scalar(Ota),
          InputValue::scalar(Otar), InputValue::scalar(Otra),
          InputValue::scalar(Alv),  InputValue::scalar(Us),
          InputValue::scalar(Ds),   InputValue::scalar(Orac),
          InputValue::scalar(Ocap), InputValue::scalar(Ci)};
}

/// The first pool test on which \p Faulty's return differs from the golden
/// program's, with the golden return in \p Want (empty when none does).
InputVector firstFailingTest(const Program &Faulty, int64_t &Want) {
  auto Golden = compile(tcasSource());
  Interpreter GI(*Golden, tcasExecOptions());
  Interpreter FI(Faulty, tcasExecOptions());
  for (const InputVector &In : tcasTestPool(600)) {
    int64_t G = GI.run("main", In).ReturnValue;
    if (FI.run("main", In).ReturnValue != G) {
      Want = G;
      return In;
    }
  }
  return {};
}

} // namespace

namespace bugassist {
/// Solver befriends SolverTestAccess: the load-order test reads the problem
/// clauses, in ProblemClauses order, straight out of the arena.
struct SolverTestAccess {
  static std::vector<std::pair<int32_t, Clause>> problemClauses(Solver &S) {
    std::vector<std::pair<int32_t, Clause>> Out;
    for (Solver::ClauseRef CR : S.ProblemClauses)
      Out.push_back({CR, Clause(S.clauseLits(CR),
                                S.clauseLits(CR) + S.clauseSize(CR))});
    return Out;
  }
};
} // namespace bugassist

TEST(Tcas, CorrectVersionCompilesAndRuns) {
  auto P = compile(tcasSource());
  // Disabled system: not enabled -> UNRESOLVED.
  EXPECT_EQ(runTcas(*P, tcasInput(601, 0, 1, 2000, 100, 2500, 1, 500, 400,
                                  0, 2, 0)),
            0);
}

TEST(Tcas, UpwardAdvisoryScenario) {
  auto P = compile(tcasSource());
  // Own below threat, descend blocked: Down_Separation below ALIM(0)=400,
  // Up above; intruder not TCAS-equipped.
  int64_t Out = runTcas(
      *P, tcasInput(/*Cvs=*/800, /*Hc=*/1, /*Ttrv=*/1, /*Ota=*/2000,
                    /*Otar=*/100, /*Otra=*/2800, /*Alv=*/0, /*Us=*/700,
                    /*Ds=*/300, /*Orac=*/0, /*Ocap=*/2, /*Ci=*/0));
  EXPECT_EQ(Out, 1);
}

TEST(Tcas, DownwardAdvisoryScenario) {
  auto P = compile(tcasSource());
  // Own above threat; descend-side else branch fires with Up_Separation
  // comfortably above ALIM(0) = 400 and no upward preference.
  int64_t Out = runTcas(
      *P, tcasInput(/*Cvs=*/800, /*Hc=*/1, /*Ttrv=*/1, /*Ota=*/2800,
                    /*Otar=*/100, /*Otra=*/2000, /*Alv=*/0, /*Us=*/700,
                    /*Ds=*/700, /*Orac=*/0, /*Ocap=*/2, /*Ci=*/0));
  EXPECT_EQ(Out, 2);
}

TEST(Tcas, PoolIsDeterministic) {
  auto A = tcasTestPool(50, 7);
  auto B = tcasTestPool(50, 7);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_TRUE(A[I] == B[I]) << "test " << I;
  auto C = tcasTestPool(50, 8);
  bool AnyDiff = false;
  for (size_t I = 0; I < A.size(); ++I)
    AnyDiff |= !(A[I] == C[I]);
  EXPECT_TRUE(AnyDiff);
}

TEST(Tcas, AllMutantsCompile) {
  ASSERT_EQ(tcasMutants().size(), 41u);
  for (const TcasMutant &M : tcasMutants()) {
    DiagEngine Diags;
    auto P = parseAndAnalyze(M.Source, Diags);
    EXPECT_TRUE(P != nullptr)
        << "v" << M.Version << ": " << Diags.render();
    EXPECT_FALSE(M.BugLines.empty()) << "v" << M.Version;
    EXPECT_EQ(M.ErrorCount, static_cast<int>(M.BugLines.size()))
        << "v" << M.Version;
  }
}

TEST(Tcas, MutantsDifferFromBaseExceptNeutralOnes) {
  auto Golden = compile(tcasSource());
  auto Pool = tcasTestPool(1600); // the paper's pool size
  Interpreter GI(*Golden, tcasExecOptions());

  size_t VersionsWithFailures = 0;
  for (const TcasMutant &M : tcasMutants()) {
    auto P = compile(M.Source);
    Interpreter MI(*P, tcasExecOptions());
    size_t Failing = 0;
    for (const InputVector &In : Pool) {
      int64_t Want = GI.run("main", In).ReturnValue;
      int64_t Got = MI.run("main", In).ReturnValue;
      Failing += Want != Got;
    }
    if (M.Version == 33 || M.Version == 38) {
      EXPECT_EQ(Failing, 0u) << "v" << M.Version
                             << " is designed to be failure-free";
    }
    VersionsWithFailures += Failing > 0;
  }
  // The 39 Table 1 versions must all be distinguishable by the pool.
  EXPECT_EQ(VersionsWithFailures, 39u);
}

TEST(Tcas, LocalizationPinpointsFigure2Fault) {
  // v2 is the Figure 2 case study: constant 100 -> 300 on line 24.
  const TcasMutant &V2 = tcasMutants()[1];
  ASSERT_EQ(V2.Version, 2);
  ASSERT_EQ(V2.BugLines.size(), 1u);
  const uint32_t BugLine = V2.BugLines[0];

  auto Faulty = compile(V2.Source);
  int64_t Want = 0;
  InputVector Failing = firstFailingTest(*Faulty, Want);
  ASSERT_FALSE(Failing.empty()) << "pool does not exercise v2";

  BugAssistDriver Driver(*Faulty, "main", tcasUnrollOptions());
  Spec S;
  S.CheckObligations = false;
  S.GoldenReturn = Want;
  LocalizeOptions LO;
  LO.MaxDiagnoses = 32;
  LocalizationReport R = Driver.localize(Failing, S, LO);
  ASSERT_FALSE(R.Diagnoses.empty());
  EXPECT_TRUE(std::find(R.AllLines.begin(), R.AllLines.end(), BugLine) !=
              R.AllLines.end())
      << "line " << BugLine << " not among reported lines";
  // SizeReduc: suspect set is a small fraction of the ~100-line program.
  EXPECT_LT(R.AllLines.size(), 30u);
}

TEST(Tcas, LocalizationSampleAcrossVersions) {
  // Spot-check detection on a few structurally different versions.
  auto Golden = compile(tcasSource());
  Interpreter GI(*Golden, tcasExecOptions());
  auto Pool = tcasTestPool(600);

  for (int Version : {5, 12, 16, 28, 37}) {
    const TcasMutant &M = tcasMutants()[static_cast<size_t>(Version - 1)];
    ASSERT_EQ(M.Version, Version);
    auto Faulty = compile(M.Source);
    Interpreter FI(*Faulty, tcasExecOptions());

    InputVector Failing;
    int64_t Want = 0;
    for (const InputVector &In : Pool) {
      int64_t G = GI.run("main", In).ReturnValue;
      if (FI.run("main", In).ReturnValue != G) {
        Failing = In;
        Want = G;
        break;
      }
    }
    ASSERT_FALSE(Failing.empty()) << "v" << Version << " not exercised";

    BugAssistDriver Driver(*Faulty, "main", tcasUnrollOptions());
    Spec S;
    S.CheckObligations = false;
    S.GoldenReturn = Want;
    LocalizeOptions LO;
    LO.MaxDiagnoses = 32;
    LocalizationReport R = Driver.localize(Failing, S, LO);
    ASSERT_FALSE(R.Diagnoses.empty()) << "v" << Version;
    bool Detected = false;
    for (uint32_t L : M.BugLines)
      Detected |= std::find(R.AllLines.begin(), R.AllLines.end(), L) !=
                  R.AllLines.end();
    EXPECT_TRUE(Detected) << "v" << Version << " bug line not reported";
  }
}

TEST(Tcas, BorrowedFormulaLoadsLikeACopyInHard) {
  // localizationInstance borrows TF1 through MaxSatInstance::Formula, with
  // the clauses outside the spec's cone marked off through Omit, and keeps
  // only the outside-only units and [[test]] /\ p in Hard. Loading it must
  // equal loading the same clauses copied into Hard in that order: the
  // cone's clauses of Formula first. Loaded after the test units, TF1
  // would be simplified against them, and the arena -- and with it the
  // search -- would differ.
  auto Faulty = compile(tcasMutants()[1].Source);
  int64_t Want = 0;
  InputVector Failing = firstFailingTest(*Faulty, Want);
  ASSERT_FALSE(Failing.empty()) << "pool does not exercise v2";
  BugAssistDriver Driver(*Faulty, "main", tcasUnrollOptions());
  const TraceFormula &TF = Driver.formula();
  Spec S;
  S.CheckObligations = false;
  S.GoldenReturn = Want;

  MaxSatInstance Borrowed = TF.localizationInstance(Failing, S);
  ASSERT_EQ(Borrowed.Formula, &TF.encoded().Formula);
  ASSERT_EQ(Borrowed.Omit, &TF.encoded().OutsideCone);
  ASSERT_GT(TF.encoded().numOutsideClauses(), 0u)
      << "v2 has definitions outside the spec's cone";
  ASSERT_FALSE(Borrowed.Hard.empty());
  MaxSatInstance Copied = Borrowed;
  Copied.Formula = nullptr;
  Copied.Omit = nullptr;
  Copied.Hard.clear();
  ClauseRange TF1 = TF.encoded().Formula.hardClauses();
  for (size_t I = 0; I < TF1.size(); ++I)
    if (!TF.encoded().OutsideCone[I])
      Copied.Hard.push_back(TF1[I].vec());
  for (const Clause &C : Borrowed.Hard)
    Copied.Hard.push_back(C);

  LocalizeOptions LO;
  LO.MaxDiagnoses = 32;
  auto A = makeLocalizationSession(Borrowed, LO);
  auto B = makeLocalizationSession(Copied, LO);
  EXPECT_EQ(SolverTestAccess::problemClauses(A->solver()),
            SolverTestAccess::problemClauses(B->solver()));

  const CnfFormula &F = TF.encoded().Formula;
  LocalizationReport RA = enumerateCoMSSesOn(*A, F, LO);
  LocalizationReport RB = enumerateCoMSSesOn(*B, F, LO);
  ASSERT_FALSE(RA.Diagnoses.empty());
  ASSERT_EQ(RA.Diagnoses.size(), RB.Diagnoses.size());
  for (size_t D = 0; D < RA.Diagnoses.size(); ++D) {
    EXPECT_EQ(RA.Diagnoses[D].Lines, RB.Diagnoses[D].Lines) << "diagnosis " << D;
    EXPECT_EQ(RA.Diagnoses[D].Cost, RB.Diagnoses[D].Cost) << "diagnosis " << D;
  }
  EXPECT_EQ(RA.AllLines, RB.AllLines);
  EXPECT_EQ(RA.Exhausted, RB.Exhausted);
  EXPECT_EQ(RA.SatCalls, RB.SatCalls);
  const SolverStats &SA = RA.Search, &SB = RB.Search;
  EXPECT_EQ(SA.Conflicts, SB.Conflicts);
  EXPECT_EQ(SA.Decisions, SB.Decisions);
  EXPECT_EQ(SA.Propagations, SB.Propagations);
  EXPECT_EQ(SA.LearnedClauses, SB.LearnedClauses);
  EXPECT_EQ(SA.DeletedClauses, SB.DeletedClauses);
  EXPECT_EQ(SA.VarsEliminated, SB.VarsEliminated);
  EXPECT_EQ(SA.ClausesSubsumed, SB.ClausesSubsumed);
  EXPECT_EQ(SA.LitsSelfSubsumed, SB.LitsSelfSubsumed);
  EXPECT_EQ(SA.ReconstructBytes, SB.ReconstructBytes);
}

TEST(Tcas, LocalizationRebuildsNoModel) {
  // Localization reads only which selectors each optimum falsifies, so
  // its instances ask for no witness model and the session never rebuilds
  // the variables preprocessing eliminated. Asking for a witness costs a
  // rebuild per optimum and changes nothing else.
  auto Faulty = compile(tcasMutants()[1].Source);
  int64_t Want = 0;
  InputVector Failing = firstFailingTest(*Faulty, Want);
  ASSERT_FALSE(Failing.empty()) << "pool does not exercise v2";
  BugAssistDriver Driver(*Faulty, "main", tcasUnrollOptions());
  const TraceFormula &TF = Driver.formula();
  Spec S;
  S.CheckObligations = false;
  S.GoldenReturn = Want;

  MaxSatInstance Bare = TF.localizationInstance(Failing, S);
  EXPECT_FALSE(Bare.Witness);
  MaxSatInstance Witnessed = Bare;
  Witnessed.Witness = true;

  LocalizeOptions LO;
  LO.MaxDiagnoses = 32;
  const CnfFormula &F = TF.encoded().Formula;
  auto A = makeLocalizationSession(Bare, LO);
  auto B = makeLocalizationSession(Witnessed, LO);
  LocalizationReport RA = enumerateCoMSSesOn(*A, F, LO);
  LocalizationReport RB = enumerateCoMSSesOn(*B, F, LO);
  ASSERT_FALSE(RA.Diagnoses.empty());
  EXPECT_GT(RA.Search.VarsEliminated, 0u);
  EXPECT_EQ(RA.Search.ModelRebuilds, 0u);
  EXPECT_GE(RB.Search.ModelRebuilds, 1u);
  EXPECT_EQ(renderLocalizationReport(RA), renderLocalizationReport(RB));
  EXPECT_EQ(RA.SatCalls, RB.SatCalls);
  EXPECT_EQ(RA.Search.Conflicts, RB.Search.Conflicts);
  EXPECT_EQ(RA.Search.Propagations, RB.Search.Propagations);

  // The one-shot driver, which localize runs, rebuilds no model either.
  EXPECT_EQ(Driver.localize(Failing, S, LO).Search.ModelRebuilds, 0u);
}
