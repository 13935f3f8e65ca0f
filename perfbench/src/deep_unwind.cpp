//===- deep_unwind.cpp - Workload: looping programs at deep unwinds -------===//
//
// Part of the BugAssist-Repro benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
//
// One op is one generated looping program, localized through the one-shot
// runLocalizePipeline(source, ...) with the failing input found by BMC.
// Two shapes -- a sum loop with an input-bounded trip count and the
// paper's Program 3 square-root loop -- at unwind 200: the formula grows
// with the unwind while the report stays at a handful of diagnoses, so
// unroll/encode, clause loading and preprocessing dominate. Every op is at
// the same unwind so that all ops cost about the same: a run's rounds are
// then alike, and a burst of load from other tenants of the host moves
// one op, not the round's median.
//
// Each shape has a few seeded variants (input bound, fault threshold). Both
// shapes carry one injected fault whose failing inputs are known by
// construction, which checks the BMC counterexample independently of the
// code under test.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "interp/Interpreter.h"
#include "lang/Sema.h"
#include "support/Rng.h"

#include <algorithm>

using namespace perfbench;
using namespace bugassist;

namespace {

constexpr int Unwind = 200;
constexpr int Variants = 4;
/// Ops per round: one of each shape.
constexpr size_t RoundOps = 2;
constexpr int BitWidth = 8;
constexpr uint32_t FaultLine = 10;

enum Shape { Sum, Sqrt };
const char *shapeName(Shape S) { return S == Sum ? "sum" : "sqrt"; }

struct LoopProgram {
  Shape Kind;
  int Unwind;
  int Variant;
  int Bound;     ///< assume()d upper bound of the loop-driving input
  int Threshold; ///< Sum: the fault fires for n > Threshold
  std::string Source;
};

LoopProgram makeProgram(Shape Kind, int Unwind, int Variant) {
  LoopProgram P{Kind, Unwind, Variant, 0, 0, ""};
  if (Kind == Sum) {
    // Variants move only the fault threshold (and so the failing inputs
    // and the counterexample), not the formula's size: every run of a
    // slot costs about the same, whatever the seed.
    P.Bound = 60;
    P.Threshold = 20 + 8 * Variant;
    // Line 10 adds one once the trip count passes the threshold.
    P.Source = "int main(int n, int k) {\n"
               "  assume(n >= 0 && n <= " + std::to_string(P.Bound) + ");\n"
               "  int i = 0;\n"
               "  int s = 0;\n"
               "  while (i < n) {\n"
               "    s = s + k;\n"
               "    i = i + 1;\n"
               "  }\n"
               "  if (n > " + std::to_string(P.Threshold) + ")\n"
               "    s = s + 1;\n"
               "  assert(s == n * k);\n"
               "  return s;\n"
               "}\n";
  } else {
    P.Bound = 100 - Variant;
    // Line 10 is Program 3's fault: res = i instead of i - 1, so every
    // input in range fails.
    P.Source = "int main(int val) {\n"
               "  assume(val >= 0 && val <= " + std::to_string(P.Bound) +
               ");\n"
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
  }
  return P;
}

/// The failing inputs by construction.
bool failsByConstruction(const LoopProgram &P, const InputVector &In) {
  if (P.Kind == Sum)
    return In.size() == 2 && In[0].Scalar > P.Threshold &&
           In[0].Scalar <= P.Bound;
  return In.size() == 1 && In[0].Scalar >= 0 && In[0].Scalar <= P.Bound;
}

PipelineRequest requestFor(const LoopProgram &P) {
  PipelineRequest R;
  R.Unroll.MaxLoopUnwind = P.Unwind;
  R.Unroll.BitWidth = BitWidth;
  R.Localize.MaxDiagnoses = 8;
  return R;
}

std::string keyOf(const LoopProgram &P) {
  return std::string("deep-unwind ") + shapeName(P.Kind) + " " +
         std::to_string(P.Unwind) + " " + std::to_string(P.Variant);
}

struct Outcome {
  PipelineResult Res;
  bool Hit = false;
};

OpOutput runProgram(const LoopProgram &P, bool Traced, Outcome &O) {
  PipelineRequest Req = requestFor(P);
  OpOutput Out;
  if (!Traced) {
    O.Res = runLocalizePipeline(P.Source, Req);
    Out.Text = renderLocalizeOutput(O.Res, /*Json=*/false);
    if (O.Res.Status == PipelineStatus::Localized)
      Out.Counters = searchCounters(O.Res.Report);
  } else {
    DiagEngine Diags;
    std::unique_ptr<Program> Prog;
    {
      SpanScope S("lang.parse_sema");
      Prog = parseAndAnalyze(P.Source, Diags);
    }
    if (!Prog) {
      O.Res = PipelineResult();
      return Out;
    }
    Out = localizeTraced(*Prog, Req, &O.Res);
  }
  const std::vector<uint32_t> &L = O.Res.Report.AllLines;
  O.Hit = O.Res.Status == PipelineStatus::Localized &&
          std::find(L.begin(), L.end(), FaultLine) != L.end();
  return Out;
}

std::string expectedValue(const OpOutput &Out, const Outcome &O) {
  return hex64(fnv1a(Out.Text)) + " hit=" + (O.Hit ? "1" : "0");
}

/// Golden behaviour by Interpreter over a grid of inputs, compared with
/// the failing set known by construction.
std::string segregate(const LoopProgram &P, const Program &Prog) {
  ExecOptions EO;
  EO.BitWidth = BitWidth;
  Interpreter I(Prog, EO);
  for (int64_t X = 0; X <= P.Bound; ++X)
    for (int64_t K = -128; K < 128; K += (P.Kind == Sum ? 17 : 256)) {
      InputVector In = {InputValue::scalar(X)};
      if (P.Kind == Sum)
        In.push_back(InputValue::scalar(K));
      bool Fails = I.run("main", In).Status == ExecStatus::AssertFail;
      if (Fails != failsByConstruction(P, In))
        return keyOf(P) + ": input " + renderInputVector(In) +
               (Fails ? " fails" : " passes") +
               " in the Interpreter, not by construction";
    }
  return "";
}

std::vector<LoopProgram> universe() {
  std::vector<LoopProgram> U;
  for (Shape S : {Sum, Sqrt})
    for (int V = 0; V < Variants; ++V)
      U.push_back(makeProgram(S, Unwind, V));
  return U;
}

} // namespace

RunResult perfbench::runDeepUnwind(const Args &A, const Expected &E) {
  RunResult R;
  R.Localizes = true;
  // The run's programs in rounds of RoundOps, shapes alternating within a
  // round; each slot's variant (fault threshold / input bound, which leave
  // the formula's size alone) is drawn from the seed. driveOps stops only
  // at round boundaries, so every round measures the same mix.
  std::vector<LoopProgram> Programs;
  std::string SetupError;
  auto Setup = [&] {
    Programs.clear();
    Rng Draw(A.Seed);
    for (int Rep = 0; Rep < 8; ++Rep)
      for (size_t K = 0; K < RoundOps; ++K)
        Programs.push_back(makeProgram(K % 2 ? Sqrt : Sum, Unwind,
                                       static_cast<int>(Draw.below(Variants))));
    SetupError.clear();
    for (const LoopProgram &P : Programs) {
      DiagEngine Diags;
      std::unique_ptr<Program> Prog;
      {
        SpanScope S("lang.setup_parse");
        Prog = parseAndAnalyze(P.Source, Diags);
      }
      SpanScope S("interp.segregate");
      std::string Bad = Prog ? segregate(P, *Prog)
                             : keyOf(P) + ": does not compile";
      if (!Bad.empty() && SetupError.empty())
        SetupError = Bad;
    }
  };
  runSetup(A, R, Setup, 3);
  if (!SetupError.empty())
    R.fail(SetupError);

  Outcome Last;
  auto Run = [&](size_t Item, bool Traced) {
    return runProgram(Programs[Item], Traced, Last);
  };
  auto Check = [&](size_t Item, const OpOutput &Out) {
    const LoopProgram &P = Programs[Item];
    std::string Key = keyOf(P);
    if (Last.Res.Status != PipelineStatus::Localized) {
      R.fail(Key + ": not localized");
      return;
    }
    ++R.Localized;
    R.Hits += Last.Hit;
    if (!failsByConstruction(P, Last.Res.FailingInput))
      R.fail(Key + ": BMC counterexample " +
             renderInputVector(Last.Res.FailingInput) +
             " does not fail by construction");
    const std::string *Want = E.find(Key);
    std::string Got = expectedValue(Out, Last);
    if (!Want)
      R.fail(Key + ": no expected entry");
    else if (*Want != Got)
      R.fail(Key + ": expected " + *Want + ", got " + Got);
  };
  driveOps(A, Programs.size(), Run, Check, R, RoundOps, Setup);
  return R;
}

void perfbench::recordDeepUnwind(std::string &Out) {
  for (const LoopProgram &P : universe()) {
    Outcome O;
    OpOutput Res = runProgram(P, /*Traced=*/false, O);
    Out += keyOf(P) + " = " + expectedValue(Res, O) + "\n";
  }
}
