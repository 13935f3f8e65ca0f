//===- property_test.cpp - Differential encoder/interpreter testing ---------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The trace formula is only trustworthy if the CNF encoding computes the
// exact same function as the reference interpreter. This harness generates
// random mini-C programs (arithmetic, branches, bounded loops, arrays,
// asserts, assumes) and checks, for random inputs:
//   interpreter Ok          <-> formula feasible, obligations hold, and the
//                               return values agree bit for bit;
//   interpreter Assert/Bounds-> obligations fail;
//   interpreter AssumeFail   -> formula infeasible.
//
//===----------------------------------------------------------------------===//

#include "bmc/TraceFormula.h"
#include "EvalTest.h"

#include "bmc/Encoder.h"
#include "bmc/Unroller.h"
#include "core/BugAssist.h"
#include "core/Pipeline.h"
#include "lang/Sema.h"
#include "reduce/Slicer.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace bugassist;

namespace {

/// Generates a random mini-C program over int params a, b and bool p.
class ProgramGen {
public:
  explicit ProgramGen(Rng &R) : R(R) {}

  std::string generate() {
    Src.clear();
    Vars = {"a", "b"};
    Src += "int main(int a, int b, bool p) {\n";
    if (R.chance(1, 3))
      Src += "  assume(a > -50 && a < 50);\n";
    int NumDecls = static_cast<int>(R.range(1, 3));
    for (int I = 0; I < NumDecls; ++I) {
      std::string Name = "v" + std::to_string(I);
      Src += "  int " + Name + " = " + intExpr(2) + ";\n";
      Vars.push_back(Name);
    }
    if (R.chance(1, 2)) {
      Src += "  int arr[4];\n";
      HasArray = true;
      Src += "  arr[" + intExpr(1) + "] = " + intExpr(2) + ";\n";
    }
    int NumStmts = static_cast<int>(R.range(3, 7));
    for (int I = 0; I < NumStmts; ++I)
      stmt(1);
    if (R.chance(2, 3))
      Src += "  assert(" + boolExpr(2) + ");\n";
    Src += "  return " + intExpr(3) + ";\n";
    Src += "}\n";
    return Src;
  }

private:
  void stmt(int Depth) {
    switch (R.below(Depth > 2 ? 2 : 4)) {
    case 0:
      Src += "  " + pickVar() + " = " + intExpr(3) + ";\n";
      return;
    case 1:
      if (HasArray) {
        Src += "  arr[" + intExpr(1) + "] = " + intExpr(2) + ";\n";
        return;
      }
      Src += "  " + pickVar() + " = " + intExpr(2) + ";\n";
      return;
    case 2: {
      Src += "  if (" + boolExpr(2) + ") {\n";
      stmt(Depth + 1);
      if (R.chance(1, 2)) {
        Src += "  } else {\n";
        stmt(Depth + 1);
      }
      Src += "  }\n";
      return;
    }
    case 3: {
      // Bounded counting loop; w# names are unique per loop.
      std::string W = "w" + std::to_string(LoopCount++);
      int64_t Bound = R.range(1, 3);
      Src += "  int " + W + " = 0;\n";
      Src += "  while (" + W + " < " + std::to_string(Bound) + ") {\n";
      stmt(Depth + 1);
      Src += "  " + W + " = " + W + " + 1;\n";
      Src += "  }\n";
      return;
    }
    }
  }

  std::string pickVar() { return Vars[R.below(Vars.size())]; }

  std::string intExpr(int Depth) {
    if (Depth == 0 || R.chance(1, 3)) {
      if (R.chance(1, 3))
        return std::to_string(R.range(-20, 20));
      if (HasArray && R.chance(1, 5))
        return "arr[" + std::to_string(R.range(0, 3)) + "]";
      return pickVar();
    }
    static const char *Ops[] = {"+", "-", "*", "&", "|", "^",
                                "<<", ">>", "/", "%"};
    const char *Op = Ops[R.below(10)];
    std::string L = intExpr(Depth - 1);
    std::string Rhs = intExpr(Depth - 1);
    if (R.chance(1, 6))
      return "(p ? " + L + " : " + Rhs + ")";
    return "(" + L + " " + Op + " " + Rhs + ")";
  }

  std::string boolExpr(int Depth) {
    if (Depth == 0 || R.chance(1, 3)) {
      static const char *Cmps[] = {"<", "<=", ">", ">=", "==", "!="};
      return "(" + intExpr(1) + " " + Cmps[R.below(6)] + " " + intExpr(1) +
             ")";
    }
    switch (R.below(3)) {
    case 0:
      return "(" + boolExpr(Depth - 1) + " && " + boolExpr(Depth - 1) + ")";
    case 1:
      return "(" + boolExpr(Depth - 1) + " || " + boolExpr(Depth - 1) + ")";
    default:
      return "!" + boolExpr(Depth - 1);
    }
  }

  Rng &R;
  std::string Src;
  std::vector<std::string> Vars;
  bool HasArray = false;
  int LoopCount = 0;
};

struct DiffCase {
  uint64_t Seed;
  int Programs;
};

class DifferentialTest : public ::testing::TestWithParam<DiffCase> {};

} // namespace

TEST_P(DifferentialTest, EncoderMatchesInterpreter) {
  const auto &P = GetParam();
  Rng R(P.Seed);
  const int Width = 8;

  int Checked = 0;
  for (int N = 0; N < P.Programs; ++N) {
    ProgramGen Gen(R);
    std::string Src = Gen.generate();
    DiagEngine Diags;
    auto Prog = parseAndAnalyze(Src, Diags);
    ASSERT_TRUE(Prog != nullptr) << Diags.render() << "\n" << Src;

    UnrollOptions UO;
    UO.BitWidth = Width;
    UO.MaxLoopUnwind = 5;
    UnrolledProgram UP = unrollProgram(*Prog, "main", UO);
    EncodeOptions EO;
    EO.BitWidth = Width;
    TraceFormula TF(encodeProgram(UP, EO));

    ExecOptions IO;
    IO.BitWidth = Width;
    IO.CheckDivByZero = false; // encoder-aligned /0 -> 0

    Interpreter Interp(*Prog, IO);

    for (int T = 0; T < 6; ++T) {
      InputVector In = {
          InputValue::scalar(wrapToWidth(static_cast<int64_t>(R.next()), Width)),
          InputValue::scalar(wrapToWidth(static_cast<int64_t>(R.next()), Width)),
          InputValue::scalar(R.chance(1, 2) ? 1 : 0)};
      ExecResult IR = Interp.run("main", In);
      auto FR = evaluateTest(TF, In);
      ASSERT_TRUE(FR.has_value());

      if (IR.Status == ExecStatus::AssumeFail) {
        EXPECT_FALSE(FR->Feasible)
            << "assume divergence\n"
            << Src << "inputs: " << In[0].Scalar << "," << In[1].Scalar
            << "," << In[2].Scalar;
        ++Checked;
        continue;
      }
      ASSERT_NE(IR.Status, ExecStatus::StepLimit) << Src;
      ASSERT_TRUE(FR->Feasible)
          << "feasibility divergence\n"
          << Src << "inputs: " << In[0].Scalar << "," << In[1].Scalar << ","
          << In[2].Scalar;

      bool InterpOk = IR.Status == ExecStatus::Ok;
      EXPECT_EQ(FR->ObligationsHold, InterpOk)
          << "obligation divergence (interp status "
          << static_cast<int>(IR.Status) << ")\n"
          << Src << "inputs: " << In[0].Scalar << "," << In[1].Scalar << ","
          << In[2].Scalar;
      if (InterpOk) {
        EXPECT_EQ(FR->RetValue, IR.ReturnValue)
            << "return divergence\n"
            << Src << "inputs: " << In[0].Scalar << "," << In[1].Scalar
            << "," << In[2].Scalar;
      }
      ++Checked;
    }
  }
  EXPECT_GT(Checked, P.Programs * 3) << "too few comparisons executed";
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, DifferentialTest,
                         ::testing::Values(DiffCase{31, 12}, DiffCase{32, 12},
                                           DiffCase{33, 12}, DiffCase{34, 12},
                                           DiffCase{35, 12}, DiffCase{36, 12},
                                           DiffCase{37, 12},
                                           DiffCase{38, 12}));

// Property: slicing preserves feasibility, obligation truth, and the
// return value for every test (it only removes what the spec cannot see).
TEST(DifferentialSlicing, SlicedFormulaEquivalent) {
  Rng R(4242);
  for (int N = 0; N < 20; ++N) {
    ProgramGen Gen(R);
    std::string Src = Gen.generate();
    DiagEngine Diags;
    auto Prog = parseAndAnalyze(Src, Diags);
    ASSERT_TRUE(Prog != nullptr) << Diags.render();

    UnrollOptions UO;
    UO.BitWidth = 8;
    UO.MaxLoopUnwind = 5;
    UnrolledProgram UP = unrollProgram(*Prog, "main", UO);
    UnrolledProgram Sliced = sliceProgram(UP);

    EncodeOptions EO;
    EO.BitWidth = 8;
    TraceFormula Full(encodeProgram(UP, EO));
    TraceFormula Lean(encodeProgram(Sliced, EO));

    for (int T = 0; T < 4; ++T) {
      InputVector In = {
          InputValue::scalar(wrapToWidth(static_cast<int64_t>(R.next()), 8)),
          InputValue::scalar(wrapToWidth(static_cast<int64_t>(R.next()), 8)),
          InputValue::scalar(R.chance(1, 2) ? 1 : 0)};
      auto A = evaluateTest(Full, In);
      auto B = evaluateTest(Lean, In);
      ASSERT_TRUE(A.has_value() && B.has_value());
      EXPECT_EQ(A->Feasible, B->Feasible) << Src;
      if (A->Feasible && B->Feasible) {
        EXPECT_EQ(A->ObligationsHold, B->ObligationsHold) << Src;
        EXPECT_EQ(A->RetValue, B->RetValue) << Src;
      }
    }
  }
}

// Property: localization over the spec's cone reports exactly what the
// whole formula reports. The product path (localizeFault on a
// sharedInstance session) leaves out the definitions outside the cone;
// the reference instance loads every encoded clause, as BMC does.
TEST(DifferentialSlicing, ConeLocalizationMatchesWholeFormula) {
  Rng R(5151);
  int Localized = 0;
  int ConeCut = 0; // failing tests whose formula had clauses outside the cone
  for (int N = 0; N < 20; ++N) {
    ProgramGen Gen(R);
    std::string Src = Gen.generate();
    DiagEngine Diags;
    auto Prog = parseAndAnalyze(Src, Diags);
    ASSERT_TRUE(Prog != nullptr) << Diags.render();

    UnrollOptions UO;
    UO.BitWidth = 8;
    UO.MaxLoopUnwind = 5;
    EncodeOptions EO;
    EO.BitWidth = 8;
    TraceFormula TF(encodeProgram(unrollProgram(*Prog, "main", UO), EO));

    for (int T = 0; T < 3; ++T) {
      InputVector In = {
          InputValue::scalar(wrapToWidth(static_cast<int64_t>(R.next()), 8)),
          InputValue::scalar(wrapToWidth(static_cast<int64_t>(R.next()), 8)),
          InputValue::scalar(R.chance(1, 2) ? 1 : 0)};
      LocalizeOptions LO;
      LO.MaxDiagnoses = 8;
      LocalizationReport Cone = localizeFault(TF, In, Spec{}, LO);

      MaxSatInstance Whole = TF.localizationInstance(In, Spec{});
      Whole.Omit = nullptr;
      Whole.Hard = TF.testClauses(In, Spec{});
      auto Session = makeLocalizationSession(Whole, LO);
      LocalizationReport Ref =
          enumerateCoMSSesOn(*Session, TF.encoded().Formula, LO);
      EXPECT_EQ(renderLocalizationReport(Cone), renderLocalizationReport(Ref))
          << Src << "inputs: " << In[0].Scalar << "," << In[1].Scalar << ","
          << In[2].Scalar;
      bool Failed = !Ref.Diagnoses.empty();
      Localized += Failed;
      ConeCut += Failed && TF.encoded().numOutsideClauses() > 0;
    }
  }
  EXPECT_GT(Localized, 0) << "no generated test failed";
  // The comparison means something only where the cone left clauses out.
  EXPECT_GT(ConeCut, 0) << "no failing test had clauses outside the cone";
}
