//===- reduce_test.cpp - Trace reduction tests (Section 6.2) ----------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "reduce/Concretizer.h"
#include "reduce/DeltaDebug.h"
#include "reduce/Slicer.h"

#include "bmc/TraceFormula.h"
#include "EvalTest.h"
#include "bmc/Unroller.h"
#include "core/BugAssist.h"
#include "interp/Interpreter.h"
#include "lang/Sema.h"

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

// --- slicing ("S") ----------------------------------------------------------------

TEST(Slicer, DropsIrrelevantComputation) {
  // z-chain is dead relative to the assertion on y.
  const char *Src = "int main(int x) {\n"
                    "  int y = x + 1;\n"
                    "  int z = x * 17;\n"
                    "  z = z + 3;\n"
                    "  z = z * z;\n"
                    "  assert(y > x);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  UnrolledProgram UP = unrollProgram(*P, "main");
  SliceStats Stats;
  UnrolledProgram Sliced = sliceProgram(UP, &Stats);
  EXPECT_EQ(Stats.AssignsBefore, 5u); // y, z, z, z, return
  EXPECT_LE(Stats.AssignsAfter, 2u);  // y and the return at most
  EXPECT_LT(Stats.DefsAfter, Stats.DefsBefore);
}

TEST(Slicer, KeepsEverythingTheSpecNeeds) {
  const char *Src = "int main(int x) {\n"
                    "  int a = x + 1;\n"
                    "  int b = a * 2;\n"
                    "  assert(b != 4);\n"
                    "  return b;\n"
                    "}\n";
  auto P = compile(Src);
  UnrolledProgram UP = unrollProgram(*P, "main");
  SliceStats Stats;
  UnrolledProgram Sliced = sliceProgram(UP, &Stats);
  EXPECT_EQ(Stats.AssignsBefore, Stats.AssignsAfter)
      << "nothing here is dead";
}

TEST(Slicer, SlicedFormulaStillLocalizes) {
  const char *Src = "int main(int x) {\n"
                    "  int noise = x * 31;\n"
                    "  noise = noise + noise;\n"
                    "  int y = x + 2;\n" // bug: should be x + 1
                    "  assert(y == x + 1);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  UnrolledProgram UP = unrollProgram(*P, "main");
  UnrolledProgram Sliced = sliceProgram(UP);
  TraceFormula TF(encodeProgram(Sliced, EncodeOptions{}));
  LocalizationReport R =
      localizeFault(TF, {InputValue::scalar(0)}, Spec{});
  ASSERT_FALSE(R.Diagnoses.empty());
  bool Line4 = false;
  for (uint32_t L : R.AllLines)
    Line4 |= L == 4;
  EXPECT_TRUE(Line4) << "bug line must survive slicing";
  // Noise lines cannot be blamed (they are not even encoded).
  for (uint32_t L : R.AllLines) {
    EXPECT_NE(L, 2u);
    EXPECT_NE(L, 3u);
  }
}

TEST(Slicer, InputsAlwaysSurvive) {
  const char *Src = "int main(int x, int unused) {\n"
                    "  assert(x >= 0 || x < 0);\n"
                    "  return x;\n"
                    "}\n";
  auto P = compile(Src);
  UnrolledProgram UP = unrollProgram(*P, "main");
  UnrolledProgram Sliced = sliceProgram(UP);
  size_t Inputs = 0;
  for (const TraceDef &D : Sliced.Defs)
    if (D.Role == DefRole::Input)
      ++Inputs;
  EXPECT_EQ(Inputs, 2u) << "input binding requires every input def";
  // And the sliced encoding still evaluates tests.
  TraceFormula TF(encodeProgram(Sliced, EncodeOptions{}));
  auto Out = evaluateTest(TF, {InputValue::scalar(3), InputValue::scalar(9)});
  ASSERT_TRUE(Out && Out->Feasible);
  EXPECT_EQ(Out->RetValue, 3);
}

// --- concretization ("C") -------------------------------------------------------

TEST(Concretizer, TrustedCircuitsBecomeConstants) {
  const char *Src =
      "int digest(int x) { int h = x * 31; h = h + (x >> 2); return h ^ 7; }\n"
      "int main(int x) {\n"
      "  int d = digest(12);\n"
      "  int y = x + d;\n"
      "  assert(y != 100);\n"
      "  return y;\n"
      "}\n";
  auto P = compile(Src);
  UnrollOptions UO;
  UO.TrustedFunctions.insert("digest");
  UO.ConcreteInputs = InputVector{InputValue::scalar(1)};
  UnrolledProgram UP = unrollProgram(*P, "main", UO);

  EXPECT_GT(countConcretizableDefs(UP), 0u);
  ReductionReport R = measureConcretization(UP);
  EXPECT_LT(R.ClausesAfter, R.ClausesBefore);
  EXPECT_LT(R.VarsAfter, R.VarsBefore);
  EXPECT_LT(R.AssignsAfter, R.AssignsBefore);
}

TEST(Concretizer, ConcretizedFormulaAgreesOnSeedInput) {
  const char *Src =
      "int table(int k) { return k * k + 3; }\n"
      "int main(int x) {\n"
      "  int t = table(5);\n"
      "  return t + x;\n"
      "}\n";
  auto P = compile(Src);
  UnrollOptions UO;
  UO.TrustedFunctions.insert("table");
  UO.ConcreteInputs = InputVector{InputValue::scalar(4)};
  UnrolledProgram UP = unrollProgram(*P, "main", UO);
  EncodeOptions EO;
  EO.ConcretizeTrusted = true;
  TraceFormula TF(encodeProgram(UP, EO));
  auto Out = evaluateTest(TF, {InputValue::scalar(4)});
  ASSERT_TRUE(Out && Out->Feasible);
  EXPECT_EQ(Out->RetValue, 32); // 28 + 4
}

// --- delta debugging ("D") -------------------------------------------------------

TEST(DeltaDebug, MinimizesArrayInput) {
  // Fails iff element 3 is 7, regardless of the rest.
  const char *Src = "int main(int a[6]) {\n"
                    "  assert(a[3] != 7);\n"
                    "  return a[0];\n"
                    "}\n";
  auto P = compile(Src);
  Interpreter I(*P, ExecOptions{16});
  auto Fails = [&](const InputVector &In) {
    return I.run("main", In).Status == ExecStatus::AssertFail;
  };
  InputVector Failing{InputValue::array({9, 8, 1, 7, 2, 5})};
  ASSERT_TRUE(Fails(Failing));
  DdminStats Stats;
  InputVector Min = minimizeFailingInput(Failing, Fails, &Stats);
  EXPECT_TRUE(Fails(Min));
  // Only the one relevant atom survives.
  EXPECT_EQ(Stats.AtomsAfter, 1u);
  EXPECT_EQ(Min[0].Array[3], 7);
  EXPECT_EQ(Min[0].Array[0], 0);
}

TEST(DeltaDebug, MinimizesAcrossMultipleParams) {
  // Fails iff x + y == 12 with x, y nonzero: ddmin cannot drop either, but
  // must drop the irrelevant z.
  const char *Src = "int main(int x, int y, int z) {\n"
                    "  assert(x + y != 12);\n"
                    "  return z;\n"
                    "}\n";
  auto P = compile(Src);
  Interpreter I(*P, ExecOptions{16});
  auto Fails = [&](const InputVector &In) {
    return I.run("main", In).Status == ExecStatus::AssertFail;
  };
  InputVector Failing{InputValue::scalar(5), InputValue::scalar(7),
                      InputValue::scalar(99)};
  DdminStats Stats;
  InputVector Min = minimizeFailingInput(Failing, Fails, &Stats);
  EXPECT_TRUE(Fails(Min));
  EXPECT_EQ(Min[2].Scalar, 0) << "z is irrelevant";
  EXPECT_EQ(Min[0].Scalar, 5);
  EXPECT_EQ(Min[1].Scalar, 7);
  EXPECT_EQ(Stats.AtomsAfter, 2u);
}

TEST(DeltaDebug, OneMinimality) {
  // Failure needs all three of the first atoms.
  const char *Src = "int main(int a[5]) {\n"
                    "  assert(a[0] + a[1] + a[2] != 6);\n"
                    "  return 0;\n"
                    "}\n";
  auto P = compile(Src);
  Interpreter I(*P, ExecOptions{16});
  auto Fails = [&](const InputVector &In) {
    return I.run("main", In).Status == ExecStatus::AssertFail;
  };
  InputVector Failing{InputValue::array({1, 2, 3, 4, 5})};
  DdminStats Stats;
  InputVector Min = minimizeFailingInput(Failing, Fails, &Stats);
  EXPECT_TRUE(Fails(Min));
  EXPECT_EQ(Stats.AtomsAfter, 3u);
  EXPECT_EQ(Min[0].Array[3], 0);
  EXPECT_EQ(Min[0].Array[4], 0);
}

TEST(DeltaDebug, ShrinksLoopTraceForLocalization) {
  // The Table 3 schedule scenario in miniature: a loop consumes the input
  // until a sentinel; a large failing input minimizes to just the
  // sentinel, and the trace formula shrinks accordingly.
  const char *Src = "int main(int a[8]) {\n"
                    "  int k = 0;\n"
                    "  int bad = 0;\n"
                    "  while (k < 8) {\n"
                    "    if (a[k] == 5) bad = bad + 1;\n"
                    "    k = k + 1;\n"
                    "  }\n"
                    "  assert(bad == 0);\n"
                    "  return bad;\n"
                    "}\n";
  auto P = compile(Src);
  Interpreter I(*P, ExecOptions{16});
  auto Fails = [&](const InputVector &In) {
    return I.run("main", In).Status == ExecStatus::AssertFail;
  };
  InputVector Failing{InputValue::array({1, 2, 5, 3, 4, 9, 8, 7})};
  InputVector Min = minimizeFailingInput(Failing, Fails);
  size_t NonZero = 0;
  for (int64_t V : Min[0].Array)
    NonZero += V != 0;
  EXPECT_EQ(NonZero, 1u);
}
