//===- repair_test.cpp - Algorithm 2 repair tests --------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Repair.h"

#include "core/Pipeline.h"
#include "interp/Interpreter.h"
#include "lang/Sema.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

using namespace bugassist;

namespace {

std::unique_ptr<Program> compile(std::string_view Src) {
  DiagEngine Diags;
  auto P = parseAndAnalyze(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.render();
  return P;
}

} // namespace

TEST(Repair, OffByOneOnMotivatingExample) {
  // Paper Section 2: the fix for Program 1 is changing the constant 2 on
  // the else branch; kappa - 1 = 1 passes all inputs.
  const char *Src = "int Array[3];\n"
                    "int main(int index) {\n"
                    "  if (index != 1)\n"
                    "    index = 2;\n"
                    "  else\n"
                    "    index = index + 2;\n"
                    "  int i = index;\n"
                    "  assert(i >= 0 && i < 3);\n"
                    "  return Array[i];\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  RepairResult R =
      repairProgram(*P, Driver, "main", {{InputValue::scalar(1)}}, Spec{});
  ASSERT_TRUE(R.Found) << "tried " << R.CandidatesTried << " candidates";
  // Valid fixes exist on the branch condition (line 3) and the else-branch
  // constant (line 6, the paper's suggested kappa-1 fix); either passes
  // verification.
  EXPECT_TRUE(R.Suggestion.Line == 3u || R.Suggestion.Line == 6u)
      << "line " << R.Suggestion.Line << ": " << R.Suggestion.Description;

  // Whatever was chosen, the fixed program must pass every input.
  Interpreter I(*R.Suggestion.FixedProgram, ExecOptions{16});
  for (int64_t X = -4; X <= 4; ++X)
    EXPECT_EQ(I.run("main", {InputValue::scalar(X)}).Status, ExecStatus::Ok)
        << "x=" << X;
}

TEST(Repair, OperatorSwapBoundaryCheck) {
  // Classic boundary bug: <= should be <.
  const char *Src = "int main(int x) {\n"
                    "  assume(x >= 0 && x <= 20);\n"
                    "  bool ok = x <= 10;\n"
                    "  int y = ok ? x : 0;\n"
                    "  assert(y < 10);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  RepairResult R =
      repairProgram(*P, Driver, "main", {{InputValue::scalar(10)}}, Spec{});
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Suggestion.Line, 3u);
  EXPECT_NE(R.Suggestion.Description.find("'<='"), std::string::npos)
      << R.Suggestion.Description;
}

TEST(Repair, StrncatStyleOffByOne) {
  // Section 6.3 shape: the last argument to a trusted copy routine is one
  // too large; the library writes a terminator one past the copied length.
  const char *Src =
      "int SIZE_BUG;\n"
      "void copyN(int dest[8], int src[8], int n) {\n"
      "  int k = 0;\n"
      "  while (k < n) { dest[k] = src[k]; k = k + 1; }\n"
      "  dest[n] = 0;\n"
      "}\n"
      "int main(int s0) {\n"
      "  int buf[8];\n"
      "  int data[8];\n"
      "  data[0] = s0;\n"
      "  copyN(buf, data, 8);\n"
      "  return buf[0];\n"
      "}\n";
  auto P = compile(Src);
  UnrollOptions UO;
  UO.MaxLoopUnwind = 10;
  UO.TrustedFunctions.insert("copyN");
  BugAssistDriver Driver(*P, "main", UO);
  RepairResult R =
      repairProgram(*P, Driver, "main", {{InputValue::scalar(1)}}, Spec{});
  ASSERT_TRUE(R.Found) << "suspects:" << R.SuspectLines.size();
  // The fix is at the call site (line 11): 8 -> 7; the library itself is
  // trusted and untouched.
  EXPECT_EQ(R.Suggestion.Line, 11u);
  EXPECT_NE(R.Suggestion.Description.find("8 -> 7"), std::string::npos)
      << R.Suggestion.Description;
}

TEST(Repair, GoldenOutputDrivenRepair) {
  // max() with inverted comparison; goldens come from the true max.
  const char *Src = "int main(int a, int b) {\n"
                    "  if (a < b) return a;\n"
                    "  return b;\n"
                    "}\n";
  auto P = compile(Src);
  std::vector<InputVector> Fails = {
      {InputValue::scalar(1), InputValue::scalar(5)},
      {InputValue::scalar(7), InputValue::scalar(2)},
  };
  std::vector<int64_t> Goldens = {5, 7};
  Spec S;
  S.CheckObligations = false;
  BugAssistDriver Driver(*P, "main");
  RepairResult R = repairProgram(*P, Driver, "main", Fails, S, &Goldens);
  ASSERT_TRUE(R.Found);
  // '<' -> '>' (or an equivalent swap) on line 2 fixes both tests.
  EXPECT_EQ(R.Suggestion.Line, 2u);
  Interpreter I(*R.Suggestion.FixedProgram, ExecOptions{16});
  EXPECT_EQ(I.run("main", Fails[0]).ReturnValue, 5);
  EXPECT_EQ(I.run("main", Fails[1]).ReturnValue, 7);
}

TEST(Repair, ReportsFailureWhenNoNearMissFixExists) {
  // The bug is a completely wrong algorithm; no single off-by-one or
  // operator swap can satisfy the spec for all inputs.
  const char *Src = "int main(int x) {\n"
                    "  assume(x >= 0 && x <= 7);\n"
                    "  int y = 0;\n"
                    "  assert(y == x * x);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  RepairResult R =
      repairProgram(*P, Driver, "main", {{InputValue::scalar(2)}}, Spec{});
  EXPECT_FALSE(R.Found);
  EXPECT_FALSE(R.SuspectLines.empty()) << "localization should still work";
}

TEST(Repair, RespectsCandidateLineRestriction) {
  const char *Src = "int main(int x) {\n"
                    "  int a = 3;\n"
                    "  int b = 3;\n"
                    "  assert(a + b == 5);\n"
                    "  return a + b;\n"
                    "}\n";
  auto P = compile(Src);
  RepairOptions Opts;
  Opts.CandidateLines = {3}; // only allow touching line 3
  BugAssistDriver Driver(*P, "main");
  RepairResult R = repairProgram(*P, Driver, "main", {{InputValue::scalar(0)}},
                                 Spec{}, nullptr, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Suggestion.Line, 3u);
  EXPECT_NE(R.Suggestion.Description.find("3 -> 2"), std::string::npos);
}

TEST(Repair, MaxCandidatesBudget) {
  const char *Src = "int main(int x) {\n"
                    "  int y = x + 1;\n"
                    "  assert(y == x + 2);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  RepairOptions Opts;
  Opts.MaxCandidates = 0;
  BugAssistDriver Driver(*P, "main");
  RepairResult R = repairProgram(*P, Driver, "main", {{InputValue::scalar(0)}},
                                 Spec{}, nullptr, Opts);
  EXPECT_FALSE(R.Found);
  EXPECT_EQ(R.CandidatesTried, 0u);
  EXPECT_TRUE(R.Truncated) << "budget-cut must be flagged, not a decided no";
}

// --- pooled path --------------------------------------------------------------

TEST(RepairPooled, PrescreenIsHarmlessWhenDisabled) {
  const char *Src = "int main(int x) {\n"
                    "  assume(x >= 0 && x <= 20);\n"
                    "  bool ok = x <= 10;\n"
                    "  int y = ok ? x : 0;\n"
                    "  assert(y < 10);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  std::vector<InputVector> Fails = {{InputValue::scalar(10)}};

  RepairOptions On;
  RepairResult WithScreen =
      repairProgram(*P, Driver, "main", Fails, Spec{}, nullptr, On);
  RepairOptions Off;
  Off.PrescreenLines = false;
  RepairResult WithoutScreen =
      repairProgram(*P, Driver, "main", Fails, Spec{}, nullptr, Off);

  ASSERT_TRUE(WithScreen.Found);
  ASSERT_TRUE(WithoutScreen.Found);
  EXPECT_EQ(WithScreen.Suggestion.Line, WithoutScreen.Suggestion.Line);
  EXPECT_EQ(WithScreen.Suggestion.Description,
            WithoutScreen.Suggestion.Description);
  EXPECT_EQ(WithoutScreen.Stats.PrescreenSatCalls, 0u);
  // The prescreen only ever narrows the candidate plan.
  EXPECT_LE(WithScreen.Stats.CandidatesPlanned,
            WithoutScreen.Stats.CandidatesPlanned);
}

TEST(RepairPipeline, EmptyReportTriesNoRepair) {
  // A localization that ends with no diagnosis leaves repair no line to
  // mutate. An interrupt injected at the localization session's first
  // clause allocation stops the search before its first diagnosis. A
  // second localization (a fresh session, the fault spent) would find the
  // fix lines, so any suspect line here means repair localized again.
  const char *Src = "int main(int x) {\n"
                    "  assume(x >= 0 && x <= 20);\n"
                    "  bool ok = x <= 10;\n"
                    "  int y = ok ? x : 0;\n"
                    "  assert(y < 10);\n"
                    "  return y;\n"
                    "}\n";
  PreparedProgram Prep;
  Prep.Prog = compile(Src);
  Prep.Driver = std::make_unique<BugAssistDriver>(*Prep.Prog, "main");
  RepairRequest RR;
  RR.Inputs = {{InputValue::scalar(10)}};

  RepairPipelineResult Res;
  {
    faultinject::ScopedFault Fault(faultinject::Event::Allocation,
                                   faultinject::Fault::Interrupt, 1);
    Res = runRepairPipeline(Prep, RR);
  }
  ASSERT_EQ(Res.Status, PipelineStatus::Localized);
  EXPECT_TRUE(Res.Report.Diagnoses.empty());
  EXPECT_TRUE(Res.Report.Incomplete);
  EXPECT_EQ(Res.Code, ErrorCode::BudgetExhausted);
  EXPECT_TRUE(Res.Repair.SuspectLines.empty());
  EXPECT_EQ(Res.Repair.Stats.PrescreenSatCalls, 0u);
  EXPECT_EQ(Res.Repair.CandidatesTried, 0u);
  EXPECT_FALSE(Res.Repair.Found);

  // Without the fault the same request localizes and repairs.
  RepairPipelineResult Clean = runRepairPipeline(Prep, RR);
  ASSERT_FALSE(Clean.Report.Diagnoses.empty());
  EXPECT_FALSE(Clean.Repair.SuspectLines.empty());
  EXPECT_TRUE(Clean.Repair.Found);
}

namespace {

/// Failing tests for a checked-in TCAS mutant, segregated from the
/// session pool exactly as the bench/serve stack does, with regression
/// witnesses for the candidate screen flattened in behind them.
FailingTests tcasFailingTests(const Program &Faulty, size_t MaxTests,
                              size_t MaxPassing = 0) {
  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  EXPECT_TRUE(Golden != nullptr);
  FailingTests FT =
      segregateFailingTests(*Golden, Faulty, tcasTestPool(300), "main",
                            tcasExecOptions(), MaxTests, MaxPassing);
  for (size_t T = 0; T < FT.PassingInputs.size(); ++T) {
    FT.Inputs.push_back(FT.PassingInputs[T]);
    FT.Goldens.push_back(FT.PassingGoldens[T]);
  }
  return FT;
}

} // namespace

TEST(RepairPooled, TcasV1OperatorSwapKnownAnswer) {
  // v1 weakens `Own_Tracked_Alt_Rate <= 600` to `<`; the near-miss swap
  // restores the boundary on the recorded fault line.
  const TcasMutant &V = tcasMutants()[0];
  ASSERT_EQ(V.Version, 1);
  auto P = compile(V.Source);
  // A boundary bug fails on almost nothing (one pool test), so failing
  // witnesses alone cannot screen out imposter fixes on correlated branch
  // conditions: regression witnesses do.
  FailingTests FT = tcasFailingTests(*P, 24, /*MaxPassing=*/64);
  ASSERT_FALSE(FT.Inputs.empty()) << "v1 must fail on the session pool";

  BugAssistDriver Driver(*P, "main", tcasUnrollOptions());
  Spec S;
  S.CheckObligations = false;
  RepairOptions RO;
  RO.MaxCandidates = 128;
  RepairResult R =
      repairProgram(*P, Driver, "main", FT.Inputs, S, &FT.Goldens, RO);
  ASSERT_TRUE(R.Found) << "tried " << R.CandidatesTried;
  EXPECT_EQ(R.Suggestion.Line, V.BugLines[0]);
  EXPECT_NE(R.Suggestion.Description.find("'<' -> '<='"), std::string::npos)
      << R.Suggestion.Description;
}

TEST(RepairPooled, TcasV5OffByOneKnownAnswer) {
  // v5 assigns the downward advisory code (2) where the upward one (1)
  // belongs; kappa-1 is the paper's off-by-one fix.
  const TcasMutant &V = tcasMutants()[4];
  ASSERT_EQ(V.Version, 5);
  auto P = compile(V.Source);
  FailingTests FT = tcasFailingTests(*P, 6);
  ASSERT_FALSE(FT.Inputs.empty()) << "v5 must fail on the session pool";

  BugAssistDriver Driver(*P, "main", tcasUnrollOptions());
  Spec S;
  S.CheckObligations = false;
  RepairOptions RO;
  RO.MaxCandidates = 128;
  RepairResult R =
      repairProgram(*P, Driver, "main", FT.Inputs, S, &FT.Goldens, RO);
  ASSERT_TRUE(R.Found) << "tried " << R.CandidatesTried;
  EXPECT_EQ(R.Suggestion.Line, V.BugLines[0]);
  EXPECT_NE(R.Suggestion.Description.find("2 -> 1"), std::string::npos)
      << R.Suggestion.Description;
}

TEST(RepairPooled, DirectCallMatchesPipeline) {
  // Without candidate lines, repairProgram localizes on one session and
  // prescreens on a clone of it: the sequence runRepairPipeline runs with
  // a session of its own. On the same prepared program both must land on
  // the same report, suspect lines, suggestion and work counters.
  struct Case {
    std::string Name, Source;
    UnrollOptions Unroll;
    std::vector<InputVector> Inputs;
    std::vector<int64_t> Goldens;
  };
  std::vector<Case> Cases;
  // max() with an inverted comparison, repaired against its goldens.
  Cases.push_back({"max",
                   "int main(int a, int b) {\n"
                   "  if (a < b) return a;\n"
                   "  return b;\n"
                   "}\n",
                   UnrollOptions(),
                   {{InputValue::scalar(1), InputValue::scalar(5)},
                    {InputValue::scalar(7), InputValue::scalar(2)}},
                   {5, 7}});
  for (int Version : {1, 5, 9, 17, 30}) {
    const TcasMutant &V = tcasMutants()[Version - 1];
    FailingTests FT = tcasFailingTests(*compile(V.Source), 6);
    if (!FT.Inputs.empty())
      Cases.push_back({"v" + std::to_string(Version), V.Source,
                       tcasUnrollOptions(), FT.Inputs, FT.Goldens});
  }
  ASSERT_GE(Cases.size(), 4u);

  for (const Case &C : Cases) {
    PreparedProgram Prep;
    Prep.Prog = compile(C.Source);
    Prep.Driver =
        std::make_unique<BugAssistDriver>(*Prep.Prog, "main", C.Unroll);
    RepairRequest RR;
    RR.Unroll = C.Unroll;
    RR.CheckObligations = false;
    RR.Inputs = C.Inputs;
    RR.Goldens = C.Goldens;
    RR.Repair.MaxCandidates = 64;
    RepairPipelineResult Pipe = runRepairPipeline(Prep, RR);
    ASSERT_EQ(Pipe.Status, PipelineStatus::Localized) << C.Name;

    Spec S;
    S.CheckObligations = false;
    LocalizationReport Report;
    RepairResult Direct =
        repairProgram(*Prep.Prog, *Prep.Driver, "main", C.Inputs, S,
                      &C.Goldens, RR.Repair, nullptr, &Report);
    EXPECT_EQ(renderLocalizationReport(Report),
              renderLocalizationReport(Pipe.Report))
        << C.Name;
    const RepairResult &P = Pipe.Repair;
    EXPECT_EQ(Direct.SuspectLines, P.SuspectLines) << C.Name;
    EXPECT_EQ(Direct.Found, P.Found) << C.Name;
    EXPECT_EQ(Direct.Suggestion.Line, P.Suggestion.Line) << C.Name;
    EXPECT_EQ(Direct.Suggestion.Description, P.Suggestion.Description)
        << C.Name;
    EXPECT_EQ(Direct.Truncated, P.Truncated) << C.Name;
    EXPECT_EQ(Direct.CandidatesTried, P.CandidatesTried) << C.Name;
    const RepairStats &A = Direct.Stats, &B = P.Stats;
    EXPECT_EQ(A.LinesConsidered, B.LinesConsidered) << C.Name;
    EXPECT_EQ(A.LinesScreenedOut, B.LinesScreenedOut) << C.Name;
    EXPECT_EQ(A.PrescreenSatCalls, B.PrescreenSatCalls) << C.Name;
    EXPECT_EQ(A.CandidatesPlanned, B.CandidatesPlanned) << C.Name;
    EXPECT_EQ(A.CandidatesTried, B.CandidatesTried) << C.Name;
    EXPECT_EQ(A.SemaRejected, B.SemaRejected) << C.Name;
    EXPECT_EQ(A.TestScreenRejected, B.TestScreenRejected) << C.Name;
    EXPECT_EQ(A.BmcRejected, B.BmcRejected) << C.Name;
    EXPECT_EQ(A.FormulaBuilds, B.FormulaBuilds) << C.Name;
    // Localization reuses the prepared formula, and a goldens-only spec
    // skips the BMC verification: no unroll+encode at all.
    EXPECT_EQ(A.FormulaBuilds, 0u) << C.Name;
    EXPECT_GT(A.PrescreenSatCalls, 0u) << C.Name;
  }
}

TEST(RepairPrescreen, KeepsExactlyTheValidCorrectionLinesOnTcas) {
  // The prescreen answers "can freeing line L alone make the failing test
  // pass?" -- isValidCorrection(TF, test, spec, {L}) -- on a localization
  // session rather than a private solver. Over every TCAS version with a
  // failing pool test, both prescreen homes must agree with that oracle:
  // the clone of the localization session runRepairPipeline takes (one
  // line set, compared by count), and the session repairProgram binds
  // when the lines are given (one line at a time, compared line by line).
  size_t Versions = 0, LinesChecked = 0, LinesRuledOut = 0;
  for (const TcasMutant &V : tcasMutants()) {
    auto P = compile(V.Source);
    FailingTests FT = tcasFailingTests(*P, 1);
    if (FT.Inputs.empty())
      continue;
    ++Versions;
    Spec S;
    S.CheckObligations = false;
    S.GoldenReturn = FT.Goldens[0];

    PreparedProgram Prep;
    Prep.Driver =
        std::make_unique<BugAssistDriver>(*P, "main", tcasUnrollOptions());
    Prep.Prog = std::move(P);
    const TraceFormula &TF = Prep.Driver->formula();

    RepairRequest RR;
    RR.Unroll = tcasUnrollOptions();
    RR.CheckObligations = false;
    RR.Inputs = FT.Inputs;
    RR.Goldens = FT.Goldens;
    RR.Repair.MaxCandidates = 0; // the prescreen is all this test reads
    RepairPipelineResult Res = runRepairPipeline(Prep, RR);
    ASSERT_EQ(Res.Status, PipelineStatus::Localized) << "v" << V.Version;
    const RepairStats &St = Res.Repair.Stats;
    EXPECT_EQ(St.PrescreenSatCalls, Res.Repair.SuspectLines.size());

    size_t Invalid = 0;
    for (uint32_t L : Res.Repair.SuspectLines) {
      bool Valid = isValidCorrection(TF, FT.Inputs[0], S, {L});
      Invalid += !Valid;
      RepairOptions RO;
      RO.CandidateLines = {L};
      RO.MaxCandidates = 0;
      RepairResult One = repairProgram(*Prep.Prog, *Prep.Driver, "main",
                                       {FT.Inputs[0]}, S, nullptr, RO);
      EXPECT_EQ(One.Stats.PrescreenSatCalls, 1u);
      EXPECT_EQ(One.Stats.LinesScreenedOut, Valid ? 0u : 1u)
          << "v" << V.Version << " line " << L;
      ++LinesChecked;
    }
    EXPECT_EQ(St.LinesScreenedOut, Invalid) << "v" << V.Version;
    LinesRuledOut += Invalid;
  }
  // The sweep must actually exercise both verdicts.
  EXPECT_GE(Versions, 30u);
  EXPECT_GT(LinesRuledOut, 0u);
  EXPECT_LT(LinesRuledOut, LinesChecked);
}
