//===- loop_test.cpp - Section 5.2 loop-iteration diagnosis tests ----------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LoopDiagnosis.h"

#include "bmc/Unroller.h"
#include "core/Pipeline.h"
#include "lang/Sema.h"
#include "programs/TcasMutants.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace bugassist;

namespace bugassist {
/// White-box access to the solver's root assignment (Solver befriends it).
struct SolverTestAccess {
  static bool fixedAtRoot(const Solver &S, Var V) {
    return S.Assigns[V] != LBool::Undef && S.VarLevel[V] == 0;
  }
};
} // namespace bugassist

namespace {

/// The sum loop of the deep-unwind benchmark workload at its variant 2
/// (fault threshold 36); line 5 is the loop head.
const char *const SumLoopSrc = "int main(int n, int k) {\n"
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
// program is the sum loop; the search figures were recorded once
// the localization formula left out the definitions outside the spec's
// cone (the loop line's unread per-iteration phis), whose variables no
// longer reach the search or the elimination.
TEST(SearchPath, DeepUnwindSumLoopIsPinned) {
  PipelineRequest Req;
  Req.Unroll.MaxLoopUnwind = 200;
  Req.Unroll.BitWidth = 8;
  Req.Localize.MaxDiagnoses = 8;
  PipelineResult R = runLocalizePipeline(SumLoopSrc, Req);
  ASSERT_EQ(R.Status, PipelineStatus::Localized) << R.Message;
  EXPECT_EQ(renderInputVector(R.FailingInput), "42,-113");
  EXPECT_EQ(R.Report.AllLines, (std::vector<uint32_t>{4, 5, 6, 7, 9, 10}));
  EXPECT_EQ(R.Report.SatCalls, 13u);
  EXPECT_EQ(R.Report.Search.Conflicts, 71u);
  EXPECT_EQ(R.Report.Search.Decisions, 9489u);
  EXPECT_EQ(R.Report.Search.Propagations, 149991u);
  EXPECT_EQ(R.Report.Search.VarsEliminated, 11575u);
  EXPECT_EQ(R.Report.Search.ClausesSubsumed, 2823u);
  EXPECT_EQ(R.Report.Search.LitsSelfSubsumed, 3241u);
  EXPECT_EQ(R.Report.Search.ReconstructBytes, 1370652u);
}

TEST(SearchPath, TcasV2LocalizeCountersArePinned) {
  // `bugassist localize` on TCAS v2 with default options.
  PipelineResult R =
      runLocalizePipeline(tcasMutants()[1].Source, PipelineRequest());
  ASSERT_EQ(R.Status, PipelineStatus::Localized) << R.Message;
  EXPECT_EQ(R.Report.SatCalls, 17u);
  EXPECT_EQ(R.Report.Search.Conflicts, 1u);
  EXPECT_EQ(R.Report.Search.Decisions, 89u);
  EXPECT_EQ(R.Report.Search.Propagations, 7024u);
  EXPECT_EQ(R.Report.Search.VarsEliminated, 1462u);
  EXPECT_EQ(R.Report.Search.ClausesSubsumed, 770u);
  EXPECT_EQ(R.Report.Search.LitsSelfSubsumed, 999u);
  EXPECT_EQ(R.Report.Search.ReconstructBytes, 133552u);
}

// The localization formula leaves out the definitions outside the spec's
// cone and nothing else. On the sum loop at unwind 200 they are the loop
// head's per-iteration phis that nothing reads: their clauses are exactly
// the marked ones, the group selectors stay soft and free, and the
// variables only those clauses mention are fixed at the root, so the
// search never decides them.
TEST(SpecCone, SumLoopLeavesOutOnlyTheUnreadLoopPhis) {
  auto P = compile(SumLoopSrc);
  UnrollOptions UO;
  UO.MaxLoopUnwind = 200;
  UO.BitWidth = 8;
  UnrolledProgram UP = unrollProgram(*P, "main", UO);
  EncodeOptions EO;
  EO.BitWidth = 8;
  TraceFormula TF(encodeProgram(UP, EO));
  const EncodedProgram &EP = TF.encoded();

  // Outside the cone: one loop-head phi per iteration, plus three
  // constant definitions that emit nothing (checked below).
  std::vector<bool> Cone = specCone(UP);
  auto IsDeadPhi = [&](const TraceDef &D) {
    return !Cone[D.Def] && D.Role == DefRole::Phi && D.Line == 5;
  };
  size_t DeadPhis = 0, Dead = 0;
  for (const TraceDef &D : UP.Defs) {
    Dead += D.Role != DefRole::Input && !Cone[D.Def];
    DeadPhis += IsDeadPhi(D);
  }
  EXPECT_EQ(DeadPhis, 200u);
  EXPECT_EQ(Dead, 203u);

  // The marked clauses are exactly what the dead phis emitted: the program
  // without them encodes to the rest. A marked clause mentions an
  // outside-only variable; no other clause does.
  UnrolledProgram NoPhis = unrollProgram(*P, "main", UO);
  NoPhis.Defs.erase(
      std::remove_if(NoPhis.Defs.begin(), NoPhis.Defs.end(), IsDeadPhi),
      NoPhis.Defs.end());
  const EncodedProgram Rest = encodeProgram(NoPhis, EO);
  ASSERT_GT(EP.numOutsideClauses(), 0u);
  EXPECT_EQ(EP.Formula.numClauses() - EP.numOutsideClauses(),
            Rest.Formula.numClauses());
  EXPECT_EQ(static_cast<size_t>(EP.Formula.numVars()) - EP.OutsideVars.size(),
            static_cast<size_t>(Rest.Formula.numVars()));
  EXPECT_EQ(Rest.numOutsideClauses(), 0u);
  std::vector<bool> Outside(EP.Formula.numVars(), false);
  for (Var V : EP.OutsideVars)
    Outside[V] = true;
  ClauseRange TF1 = EP.Formula.hardClauses();
  ASSERT_EQ(EP.OutsideCone.size(), TF1.size());
  size_t Mismatched = 0;
  for (size_t I = 0; I < TF1.size(); ++I) {
    bool Mentions = false;
    for (Lit L : TF1[I])
      Mentions = Mentions || Outside[L.var()];
    Mismatched += Mentions != EP.OutsideCone[I];
  }
  EXPECT_EQ(Mismatched, 0u);

  // Group selectors stay free: soft, and never fixed as outside-only.
  MaxSatInstance Inst = TF.sharedInstance();
  ASSERT_EQ(Inst.Soft.size(), EP.Formula.numGroups());
  for (const ClauseGroup &G : EP.Formula.groups())
    EXPECT_FALSE(Outside[G.Selector]) << G.Label;

  // Outside-only variables are fixed at the root, before and after the
  // search, so no decision ever lands on one.
  LocalizeOptions LO;
  LO.MaxDiagnoses = 8;
  auto Session = makeLocalizationSession(Inst, LO);
  for (Var V : EP.OutsideVars)
    ASSERT_TRUE(SolverTestAccess::fixedAtRoot(Session->solver(), V)) << V;
  LocalizationReport Rep =
      localizeFault(TF, {InputValue::scalar(42), InputValue::scalar(-113)},
                    Spec{}, LO, Session.get());
  EXPECT_EQ(Rep.AllLines, (std::vector<uint32_t>{4, 5, 6, 7, 9, 10}));
  for (Var V : EP.OutsideVars)
    ASSERT_TRUE(SolverTestAccess::fixedAtRoot(Session->solver(), V)) << V;
}
