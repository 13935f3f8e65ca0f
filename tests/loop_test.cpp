//===- loop_test.cpp - Section 5.2 loop-iteration diagnosis tests ----------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LoopDiagnosis.h"

#include "core/Pipeline.h"
#include "lang/Sema.h"
#include "programs/TcasMutants.h"

#include <gtest/gtest.h>

using namespace bugassist;

namespace {

std::unique_ptr<Program> compile(std::string_view Src) {
  DiagEngine Diags;
  auto P = parseAndAnalyze(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.render();
  return P;
}

// Program 3 of the paper (Section 6.4): nearest integer square root with
// the bug `res = i` (should be `res = i - 1`). With val = 50 the loop runs
// 7 times and the weighted localization must tie loop suspects to the last
// feasible iteration. Source lines:
//  1 int main() {
//  2   int val = 50;
//  3   int i = 1;
//  4   int v = 0;
//  5   int res = 0;
//  6   while (v < val) {
//  7     v = v + 2 * i + 1;
//  8     i = i + 1;
//  9   }
// 10   res = i;
// 11   assert(res * res <= val && (res + 1) * (res + 1) > val);
// 12   return res;
// 13 }
const char *Squareroot = "int main() {\n"
                         "  int val = 50;\n"
                         "  int i = 1;\n"
                         "  int v = 0;\n"
                         "  int res = 0;\n"
                         "  while (v < val) {\n"
                         "    v = v + 2 * i + 1;\n"
                         "    i = i + 1;\n"
                         "  }\n"
                         "  res = i;\n"
                         "  assert(res * res <= val && (res + 1) * (res + 1) > val);\n"
                         "  return res;\n"
                         "}\n";

} // namespace

TEST(LoopDiagnosis, SquarerootLocalizesOutsideLoopFirst) {
  auto P = compile(Squareroot);
  LoopDiagnosisOptions Opts;
  Opts.Unroll.MaxLoopUnwind = 10;
  Opts.Localize.MaxDiagnoses = 12;
  LoopDiagnosisResult R =
      diagnoseLoopFault(*P, "main", /*FailingTest=*/{}, Spec{}, Opts);

  ASSERT_FALSE(R.First.empty());
  // Non-loop soft clauses carry the base weight alpha, which is lighter
  // than any alpha + eta - kappa, so the optimal CoMSS blames a statement
  // outside the loop first -- exactly the paper's point that the fault of
  // Program 3 lies at `res = i` (line 10) even though the loop must be
  // analyzed to see it.
  EXPECT_EQ(R.First[0].Iteration, 0u);
  bool Line10First = false;
  for (const IterationSuspect &IS : R.First)
    Line10First |= IS.Line == 10;
  EXPECT_TRUE(Line10First) << "first diagnosis should include res = i";
}

TEST(LoopDiagnosis, SquarerootReportsLastFeasibleIteration) {
  auto P = compile(Squareroot);
  LoopDiagnosisOptions Opts;
  Opts.Unroll.MaxLoopUnwind = 10;
  Opts.Localize.MaxDiagnoses = 16;
  LoopDiagnosisResult R =
      diagnoseLoopFault(*P, "main", /*FailingTest=*/{}, Spec{}, Opts);

  // Loop-body suspects must appear among the enumerated diagnoses. The
  // cheapest CoMSS that fixes the failure *by changing only the loop* is
  // at kappa = 7: the last executed iteration of the 7-iteration run (the
  // paper narrates this boundary as the loop's 8th unwinding, where i
  // first carries the bad value 8).
  std::vector<IterationSuspect> LoopSuspects;
  for (const IterationSuspect &IS : R.All)
    if (IS.Iteration > 0)
      LoopSuspects.push_back(IS);
  ASSERT_FALSE(LoopSuspects.empty()) << "no per-iteration suspects reported";

  std::optional<uint32_t> FirstSingletonLoopIter;
  for (const Diagnosis &D : R.Report.Diagnoses) {
    if (D.Lines.size() == 1 && D.Unwindings[0] > 0) {
      FirstSingletonLoopIter = D.Unwindings[0];
      break;
    }
  }
  ASSERT_TRUE(FirstSingletonLoopIter.has_value())
      << "no pure in-loop diagnosis enumerated";
  EXPECT_EQ(*FirstSingletonLoopIter, 7u);
}

TEST(LoopDiagnosis, IterationWeightsPreferLateIterations) {
  // A loop that goes wrong only at the 3rd iteration: x doubles each round
  // and the spec wants x <= 4 at the end; disabling iteration 3 alone is
  // the cheapest loop fix.
  const char *Src = "int main() {\n"
                    "  int x = 1;\n"
                    "  int k = 0;\n"
                    "  while (k < 3) {\n"
                    "    x = x * 2;\n"
                    "    k = k + 1;\n"
                    "  }\n"
                    "  assert(x <= 4);\n"
                    "  return x;\n"
                    "}\n";
  auto P = compile(Src);
  LoopDiagnosisOptions Opts;
  Opts.Unroll.MaxLoopUnwind = 5;
  Opts.Localize.MaxDiagnoses = 10;
  LoopDiagnosisResult R =
      diagnoseLoopFault(*P, "main", /*FailingTest=*/{}, Spec{}, Opts);

  std::vector<IterationSuspect> LoopSuspects;
  for (const IterationSuspect &IS : R.All)
    if (IS.Iteration > 0)
      LoopSuspects.push_back(IS);
  ASSERT_FALSE(LoopSuspects.empty());
  EXPECT_EQ(LoopSuspects.front().Iteration, 3u)
      << "the failure is introduced at iteration 3";
}

TEST(LoopDiagnosis, RestrictedModeAnswersIterationDirectly) {
  // With everything outside the loop pinned enabled, the first CoMSS must
  // consist of loop groups only and name the boundary iteration.
  auto P = compile(Squareroot);
  LoopDiagnosisOptions Opts;
  Opts.Unroll.MaxLoopUnwind = 10;
  Opts.RestrictToLoopGroups = true;
  Opts.Localize.MaxDiagnoses = 3;
  LoopDiagnosisResult R =
      diagnoseLoopFault(*P, "main", /*FailingTest=*/{}, Spec{}, Opts);
  ASSERT_FALSE(R.First.empty());
  for (const IterationSuspect &IS : R.First)
    EXPECT_GT(IS.Iteration, 0u) << "non-loop suspect in restricted mode";
  EXPECT_EQ(R.First[0].Iteration, 7u)
      << "the last executed iteration is the cheapest in-loop fix";
}

TEST(LoopDiagnosis, NoLoopMeansNoIterationSuspects) {
  const char *Src = "int main(int x) {\n"
                    "  int y = x + 1;\n"
                    "  assert(y == x);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  LoopDiagnosisOptions Opts;
  LoopDiagnosisResult R = diagnoseLoopFault(
      *P, "main", {InputValue::scalar(0)}, Spec{}, Opts);
  ASSERT_FALSE(R.All.empty());
  for (const IterationSuspect &IS : R.All)
    EXPECT_EQ(IS.Iteration, 0u);
}

// The search path is pinned, not only the report: the solver's bookkeeping
// (watch-list maintenance, root-level simplification) may get cheaper, but
// it must hand the search the same clauses in the same order, or the
// counterexample BMC finds -- and every report built on it -- moves. The
// program is the sum loop of the deep-unwind benchmark workload at its
// variant 2 (fault threshold 36); the figures were recorded before
// watch-list removal became deferred.
TEST(SearchPath, DeepUnwindSumLoopIsPinned) {
  const char *Src = "int main(int n, int k) {\n"
                    "  assume(n >= 0 && n <= 60);\n"
                    "  int i = 0;\n"
                    "  int s = 0;\n"
                    "  while (i < n) {\n"
                    "    s = s + k;\n"
                    "    i = i + 1;\n"
                    "  }\n"
                    "  if (n > 36)\n"
                    "    s = s + 1;\n"
                    "  assert(s == n * k);\n"
                    "  return s;\n"
                    "}\n";
  PipelineRequest Req;
  Req.Unroll.MaxLoopUnwind = 200;
  Req.Unroll.BitWidth = 8;
  Req.Localize.MaxDiagnoses = 8;
  PipelineResult R = runLocalizePipeline(Src, Req);
  ASSERT_EQ(R.Status, PipelineStatus::Localized) << R.Message;
  EXPECT_EQ(renderInputVector(R.FailingInput), "42,-113");
  EXPECT_EQ(R.Report.AllLines, (std::vector<uint32_t>{4, 5, 6, 7, 9, 10}));
  EXPECT_EQ(R.Report.SatCalls, 23u);
  EXPECT_EQ(R.Report.Search.Conflicts, 117u);
  EXPECT_EQ(R.Report.Search.Decisions, 12334u);
  EXPECT_EQ(R.Report.Search.Propagations, 197436u);
}

TEST(SearchPath, TcasV2LocalizeCountersArePinned) {
  // `bugassist localize` on TCAS v2 with default options.
  PipelineResult R =
      runLocalizePipeline(tcasMutants()[1].Source, PipelineRequest());
  ASSERT_EQ(R.Status, PipelineStatus::Localized) << R.Message;
  EXPECT_EQ(R.Report.SatCalls, 33u);
  EXPECT_EQ(R.Report.Search.Conflicts, 6u);
  EXPECT_EQ(R.Report.Search.Decisions, 103u);
  EXPECT_EQ(R.Report.Search.Propagations, 21029u);
}
