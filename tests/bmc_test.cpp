//===- bmc_test.cpp - Unroller / Encoder / TraceFormula tests ------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "bmc/TraceFormula.h"
#include "EvalTest.h"

#include "bmc/Encoder.h"
#include "bmc/Unroller.h"
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

TraceFormula makeFormula(std::string_view Src, UnrollOptions UOpts = {},
                         EncodeOptions EOpts = {}) {
  auto P = compile(Src);
  EOpts.BitWidth = UOpts.BitWidth;
  UnrolledProgram UP = unrollProgram(*P, "main", UOpts);
  return TraceFormula(encodeProgram(UP, EOpts));
}

} // namespace

TEST(Unroller, StraightLineSsa) {
  auto P = compile("int main(int x) { int y = x + 1; y = y * 2; return y; }");
  UnrolledProgram UP = unrollProgram(*P, "main");
  // Inputs: x. UserAssign defs: y=x+1, y=y*2, return y.
  EXPECT_EQ(UP.Inputs.size(), 1u);
  EXPECT_EQ(UP.numAssignDefs(), 3u);
  EXPECT_NE(UP.RetVal, NoSsa);
  EXPECT_TRUE(UP.Obligations.empty());
}

TEST(Unroller, BranchProducesPhi) {
  auto P = compile("int main(int x) {"
                   "  int y = 0;"
                   "  if (x > 0) y = 1; else y = 2;"
                   "  return y;"
                   "}");
  UnrolledProgram UP = unrollProgram(*P, "main");
  bool SawPhi = false;
  for (const TraceDef &D : UP.Defs)
    SawPhi |= D.Role == DefRole::Phi;
  EXPECT_TRUE(SawPhi);
}

TEST(Unroller, LoopUnwindingBoundsDefs) {
  const char *Src = "int main(int n) {"
                    "  int s = 0; int i = 0;"
                    "  while (i < n) { s = s + i; i = i + 1; }"
                    "  return s;"
                    "}";
  auto P = compile(Src);
  UnrollOptions O3;
  O3.MaxLoopUnwind = 3;
  UnrollOptions O6;
  O6.MaxLoopUnwind = 6;
  UnrolledProgram U3 = unrollProgram(*P, "main", O3);
  UnrolledProgram U6 = unrollProgram(*P, "main", O6);
  EXPECT_GT(U6.Defs.size(), U3.Defs.size());
  EXPECT_EQ(U3.MaxUnwinding, 3u);
  EXPECT_EQ(U6.MaxUnwinding, 6u);
  // One unwinding assumption per bound.
  EXPECT_EQ(U3.Assumptions.size(), 1u);
}

TEST(Unroller, DeepUnwindingDoesNotRecurse) {
  // Each iteration nests inside the previous one's guard. Unrolling keeps
  // that nesting on an explicit stack, so a bound far beyond what one
  // call frame per iteration could survive still unrolls, 4 defs per
  // iteration (condition, path guard, body, join) plus 7.
  auto P = compile("int main(int n) {"
                   "  int i = 0;"
                   "  while (i < n) { i = i + 1; }"
                   "  return i;"
                   "}");
  UnrollOptions O;
  O.MaxLoopUnwind = 1000;
  EXPECT_EQ(unrollProgram(*P, "main", O).Defs.size(), 4007u);
  O.MaxLoopUnwind = 200000;
  UnrolledProgram Deep = unrollProgram(*P, "main", O);
  EXPECT_EQ(Deep.Defs.size(), 800007u);
  EXPECT_EQ(Deep.MaxUnwinding, 200000u);
  EXPECT_EQ(Deep.Assumptions.size(), 1u);
}

TEST(Unroller, AssertMakesObligation) {
  auto P = compile("int main(int x) { assert(x < 10); return x; }");
  UnrolledProgram UP = unrollProgram(*P, "main");
  ASSERT_EQ(UP.Obligations.size(), 1u);
  EXPECT_EQ(UP.Obligations[0].Loc.Line, 1u);
}

TEST(Unroller, ArrayAccessMakesBoundsObligations) {
  auto P = compile("int main(int i) { int a[3]; a[i] = 1; return a[i]; }");
  UnrollOptions On;
  UnrolledProgram UP = unrollProgram(*P, "main", On);
  EXPECT_EQ(UP.Obligations.size(), 2u); // write + read
  UnrollOptions Off;
  Off.CheckArrayBounds = false;
  UnrolledProgram UP2 = unrollProgram(*P, "main", Off);
  EXPECT_TRUE(UP2.Obligations.empty());
}

TEST(Unroller, TrustedFunctionsMarked) {
  const char *Src = "int lib(int x) { return x * 2; }"
                    "int main(int x) { return lib(x) + 1; }";
  auto P = compile(Src);
  UnrollOptions O;
  O.TrustedFunctions.insert("lib");
  UnrolledProgram UP = unrollProgram(*P, "main", O);
  bool SawTrusted = false, SawUntrusted = false;
  for (const TraceDef &D : UP.Defs) {
    if (D.Role == DefRole::UserAssign) {
      if (D.Trusted)
        SawTrusted = true;
      else
        SawUntrusted = true;
    }
  }
  EXPECT_TRUE(SawTrusted);   // lib's return statement
  EXPECT_TRUE(SawUntrusted); // main's return statement
}

TEST(Unroller, ShadowValuesWithConcreteInputs) {
  const char *Src = "int main(int x) { int y = x + 1; return y * 2; }";
  auto P = compile(Src);
  UnrollOptions O;
  O.ConcreteInputs = InputVector{InputValue::scalar(5)};
  UnrolledProgram UP = unrollProgram(*P, "main", O);
  ASSERT_NE(UP.RetVal, NoSsa);
  // Find the def of the return value; its shadow must be (5+1)*2 = 12.
  bool Found = false;
  for (const TraceDef &D : UP.Defs)
    if (D.Def == UP.RetVal) {
      ASSERT_TRUE(D.Shadow.has_value());
      EXPECT_EQ(*D.Shadow, 12);
      Found = true;
    }
  EXPECT_TRUE(Found);
}

TEST(Unroller, InputShapesRecorded) {
  auto P = compile("int main(int x, bool b, int a[3]) { return x; }");
  UnrolledProgram UP = unrollProgram(*P, "main");
  ASSERT_EQ(UP.InputShapes.size(), 3u);
  EXPECT_FALSE(UP.InputShapes[0].IsArray);
  EXPECT_TRUE(UP.InputShapes[1].IsBool);
  EXPECT_TRUE(UP.InputShapes[2].IsArray);
  EXPECT_EQ(UP.InputShapes[2].ArraySize, 3);
  EXPECT_EQ(UP.Inputs.size(), 5u); // x, b, a[0..2]
}

// --- encoder + trace formula end-to-end -----------------------------------------

TEST(TraceFormula, EvaluateStraightLine) {
  TraceFormula TF = makeFormula(
      "int main(int x, int y) { return x * y + 1; }");
  auto Out = evaluateTest(TF, {InputValue::scalar(6), InputValue::scalar(7)});
  ASSERT_TRUE(Out.has_value());
  EXPECT_TRUE(Out->Feasible);
  EXPECT_TRUE(Out->ObligationsHold);
  EXPECT_EQ(Out->RetValue, 43);
}

TEST(TraceFormula, EvaluateBranches) {
  TraceFormula TF = makeFormula("int main(int x) {"
                                "  if (x < 0) return -x;"
                                "  return x;"
                                "}");
  auto Neg = evaluateTest(TF, {InputValue::scalar(-9)});
  ASSERT_TRUE(Neg && Neg->Feasible);
  EXPECT_EQ(Neg->RetValue, 9);
  auto Pos = evaluateTest(TF, {InputValue::scalar(4)});
  ASSERT_TRUE(Pos && Pos->Feasible);
  EXPECT_EQ(Pos->RetValue, 4);
}

TEST(TraceFormula, EvaluateLoop) {
  UnrollOptions O;
  O.MaxLoopUnwind = 12;
  TraceFormula TF = makeFormula("int main(int n) {"
                                "  int s = 0; int i = 1;"
                                "  while (i <= n) { s = s + i; i = i + 1; }"
                                "  return s;"
                                "}",
                                O);
  auto Out = evaluateTest(TF, {InputValue::scalar(10)});
  ASSERT_TRUE(Out && Out->Feasible);
  EXPECT_EQ(Out->RetValue, 55);
}

TEST(TraceFormula, UnwindingAssumptionRejectsDeepLoops) {
  UnrollOptions O;
  O.MaxLoopUnwind = 4;
  TraceFormula TF = makeFormula("int main(int n) {"
                                "  int i = 0;"
                                "  while (i < n) { i = i + 1; }"
                                "  return i;"
                                "}",
                                O);
  // n = 3 fits in 4 unwindings; n = 10 does not and is infeasible.
  auto Ok = evaluateTest(TF, {InputValue::scalar(3)});
  ASSERT_TRUE(Ok.has_value());
  EXPECT_TRUE(Ok->Feasible);
  EXPECT_EQ(Ok->RetValue, 3);
  auto Deep = evaluateTest(TF, {InputValue::scalar(10)});
  ASSERT_TRUE(Deep.has_value());
  EXPECT_FALSE(Deep->Feasible);
}

TEST(TraceFormula, EvaluateCallsAndGlobals) {
  TraceFormula TF = makeFormula("int g;"
                                "void bump(int v) { g = g + v; }"
                                "int main(int x) {"
                                "  bump(x); bump(2 * x);"
                                "  return g;"
                                "}");
  auto Out = evaluateTest(TF, {InputValue::scalar(5)});
  ASSERT_TRUE(Out && Out->Feasible);
  EXPECT_EQ(Out->RetValue, 15);
}

TEST(TraceFormula, EvaluateEarlyReturn) {
  TraceFormula TF = makeFormula("int main(int x) {"
                                "  if (x > 0) return 1;"
                                "  x = 99;"
                                "  return x;"
                                "}");
  auto Out = evaluateTest(TF, {InputValue::scalar(7)});
  ASSERT_TRUE(Out && Out->Feasible);
  EXPECT_EQ(Out->RetValue, 1);
  auto Out2 = evaluateTest(TF, {InputValue::scalar(-1)});
  ASSERT_TRUE(Out2 && Out2->Feasible);
  EXPECT_EQ(Out2->RetValue, 99);
}

TEST(TraceFormula, EvaluateArrays) {
  TraceFormula TF = makeFormula("int main(int i, int v) {"
                                "  int a[4];"
                                "  a[i] = v;"
                                "  a[3] = 7;"
                                "  return a[i] + a[3];"
                                "}");
  auto Out = evaluateTest(TF, {InputValue::scalar(1), InputValue::scalar(5)});
  ASSERT_TRUE(Out && Out->Feasible);
  EXPECT_TRUE(Out->ObligationsHold);
  EXPECT_EQ(Out->RetValue, 12);
  // i = 3: the a[3] = 7 write overwrites a[i]; result 14.
  auto Out2 = evaluateTest(TF, {InputValue::scalar(3), InputValue::scalar(5)});
  ASSERT_TRUE(Out2 && Out2->Feasible);
  EXPECT_EQ(Out2->RetValue, 14);
  // i = 9: obligations fail (out of bounds).
  auto Bad = evaluateTest(TF, {InputValue::scalar(9), InputValue::scalar(5)});
  ASSERT_TRUE(Bad && Bad->Feasible);
  EXPECT_FALSE(Bad->ObligationsHold);
}

TEST(TraceFormula, EvaluateRecursion) {
  UnrollOptions O;
  O.MaxInlineDepth = 8;
  TraceFormula TF = makeFormula(
      "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }"
      "int main(int n) { return fact(n); }",
      O);
  auto Out = evaluateTest(TF, {InputValue::scalar(5)});
  ASSERT_TRUE(Out && Out->Feasible);
  EXPECT_EQ(Out->RetValue, 120);
  // Depth 9 would need more inlining: infeasible, not wrong.
  auto Deep = evaluateTest(TF, {InputValue::scalar(12)});
  ASSERT_TRUE(Deep.has_value());
  EXPECT_FALSE(Deep->Feasible);
}

TEST(TraceFormula, AssumeRejectsInputs) {
  TraceFormula TF =
      makeFormula("int main(int x) { assume(x > 0); return x; }");
  auto Ok = evaluateTest(TF, {InputValue::scalar(3)});
  ASSERT_TRUE(Ok.has_value());
  EXPECT_TRUE(Ok->Feasible);
  auto Bad = evaluateTest(TF, {InputValue::scalar(-3)});
  ASSERT_TRUE(Bad.has_value());
  EXPECT_FALSE(Bad->Feasible);
}

TEST(TraceFormula, CounterexampleForAssert) {
  TraceFormula TF = makeFormula("int main(int x) {"
                                "  int y = x * 2;"
                                "  assert(y != 10);"
                                "  return y;"
                                "}");
  bool Decided = false;
  auto Cex = TF.findCounterexample(Spec{}, Decided);
  ASSERT_TRUE(Decided);
  ASSERT_TRUE(Cex.has_value());
  ASSERT_EQ(Cex->size(), 1u);
  EXPECT_EQ((*Cex)[0].Scalar, 5);
}

TEST(TraceFormula, NoCounterexampleForSafeProgram) {
  TraceFormula TF = makeFormula("int main(int x) {"
                                "  int y = x * x;"
                                "  assert(y * y >= 0 || true);"
                                "  return y;"
                                "}");
  bool Decided = false;
  auto Cex = TF.findCounterexample(Spec{}, Decided);
  EXPECT_TRUE(Decided);
  EXPECT_FALSE(Cex.has_value());
}

TEST(TraceFormula, CounterexampleForGoldenOutput) {
  // Spec: main must return 1 (golden); inputs >= 4 return 0.
  TraceFormula TF = makeFormula("int main(int x) {"
                                "  if (x < 4) return 1;"
                                "  return 0;"
                                "}");
  Spec S;
  S.GoldenReturn = 1;
  bool Decided = false;
  auto Cex = TF.findCounterexample(S, Decided);
  ASSERT_TRUE(Decided);
  ASSERT_TRUE(Cex.has_value());
  EXPECT_GE((*Cex)[0].Scalar, 4);
}

TEST(TraceFormula, PaperProgram1Counterexample) {
  const char *Src = "int Array[3];\n"
                    "int main(int index) {\n"
                    "  if (index != 1)\n"
                    "    index = 2;\n"
                    "  else\n"
                    "    index = index + 2;\n"
                    "  int i = index;\n"
                    "  return Array[i];\n"
                    "}\n";
  TraceFormula TF = makeFormula(Src);
  bool Decided = false;
  auto Cex = TF.findCounterexample(Spec{}, Decided);
  ASSERT_TRUE(Decided);
  ASSERT_TRUE(Cex.has_value()) << "bounds violation must be found";
  EXPECT_EQ((*Cex)[0].Scalar, 1) << "only index == 1 fails";
}

TEST(Encoder, ConcretizeTrustedShrinksFormula) {
  const char *Src = "int lib(int x) { int t = x * x; return t + x; }"
                    "int main(int x) { int y = lib(3); return y + x; }";
  auto P = compile(Src);
  UnrollOptions UO;
  UO.TrustedFunctions.insert("lib");
  UO.ConcreteInputs = InputVector{InputValue::scalar(2)};
  UnrolledProgram UP = unrollProgram(*P, "main", UO);

  EncodeOptions Plain;
  Plain.BitWidth = UO.BitWidth;
  EncodeOptions Conc = Plain;
  Conc.ConcretizeTrusted = true;
  EncodedProgram EPlain = encodeProgram(UP, Plain);
  EncodedProgram EConc = encodeProgram(UP, Conc);
  EXPECT_LT(EConc.Formula.numClauses(), EPlain.Formula.numClauses());

  // Semantics preserved for the seeding input.
  TraceFormula TF(std::move(EConc));
  auto Out = evaluateTest(TF, {InputValue::scalar(2)});
  ASSERT_TRUE(Out && Out->Feasible);
  EXPECT_EQ(Out->RetValue, 14); // lib(3) = 12, +2
}

TEST(Encoder, PerIterationGroupsAndWeights) {
  const char *Src = "int main(int n) {"
                    "  int i = 0;"
                    "  while (i < n) { i = i + 1; }"
                    "  return i;"
                    "}";
  auto P = compile(Src);
  UnrollOptions UO;
  UO.MaxLoopUnwind = 5;
  UnrolledProgram UP = unrollProgram(*P, "main", UO);

  EncodeOptions EO;
  EO.PerIterationGroups = true;
  EO.BaseWeight = 2;
  EncodedProgram EP = encodeProgram(UP, EO);
  // Expect groups for iterations 1..5 with strictly decreasing weights
  // alpha + eta - kappa (Eq. 3).
  std::map<uint32_t, uint64_t> WeightByIter;
  for (const ClauseGroup &G : EP.Formula.groups())
    if (G.Unwinding > 0)
      WeightByIter[G.Unwinding] = G.Weight;
  ASSERT_EQ(WeightByIter.size(), 5u);
  for (uint32_t K = 1; K <= 5; ++K)
    EXPECT_EQ(WeightByIter[K], 2u + 5u - K) << "iteration " << K;
}

TEST(TraceFormula, LocalizationInstanceShape) {
  TraceFormula TF = makeFormula("int main(int x) {"
                                "  int y = x + 1;"
                                "  assert(y == x + 2);"
                                "  return y;"
                                "}");
  MaxSatInstance Inst =
      TF.localizationInstance({InputValue::scalar(0)}, Spec{});
  EXPECT_FALSE(Inst.Soft.empty());
  // All soft clauses are unit selectors.
  for (const SoftClause &S : Inst.Soft)
    EXPECT_EQ(S.Lits.size(), 1u);
}
