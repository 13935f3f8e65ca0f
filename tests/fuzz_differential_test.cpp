//===- fuzz_differential_test.cpp - Bounded differential fuzz sweep ----------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Tier-1 bounded version of the `bugassist fuzz` campaign: ~100 fixed-seed
// mutants across TCAS v0 and two SmallDemos subjects. Every localized
// mutant is diagnosed under two configurations (default, preprocessing
// off) inside runFuzzSweep, which byte-compares the canonical reports; any
// mismatch is a test failure, not a warning. The per-class tallies must be
// identical on a rerun with the same seed, and repairs the sweep machinery
// accepts must re-verify clean under BMC.
//
//===----------------------------------------------------------------------===//

#include "mutate/FuzzSweep.h"

#include "core/Repair.h"
#include "lang/Sema.h"
#include "programs/SmallDemos.h"
#include "programs/Tcas.h"

#include <gtest/gtest.h>

using namespace bugassist;

namespace {

std::unique_ptr<Program> compile(std::string_view Src) {
  DiagEngine Diags;
  auto P = parseAndAnalyze(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.render();
  return P;
}

void expectNoMismatches(const FuzzResult &R) {
  EXPECT_EQ(R.TotalMismatches, 0u);
  for (const std::string &Note : R.MismatchNotes)
    ADD_FAILURE() << Note;
}

bool sameTallies(const FuzzResult &A, const FuzzResult &B) {
  for (size_t I = 0; I < NumErrorTypes; ++I) {
    const FuzzClassStats &X = A.PerClass[I], &Y = B.PerClass[I];
    if (X.Mutants != Y.Mutants || X.Failing != Y.Failing ||
        X.Localized != Y.Localized || X.Hits != Y.Hits ||
        X.Repaired != Y.Repaired || X.Mismatches != Y.Mismatches)
      return false;
  }
  return A.Generated == B.Generated;
}

} // namespace

TEST(FuzzDifferential, TcasSweepIsMismatchFreeAndDeterministic) {
  auto Base = compile(tcasSource());
  FuzzSubject Subject;
  Subject.Base = Base.get();
  Subject.Name = "tcas";
  Subject.Unroll = tcasUnrollOptions();
  Subject.CheckObligations = false;
  Subject.Pool = tcasTestPool(300);
  Subject.ProtectedLines = Subject.Unroll.HardLines;

  FuzzOptions Opts;
  Opts.Seed = 1;
  Opts.Count = 60;
  FuzzResult R = runFuzzSweep(Subject, Opts);
  EXPECT_EQ(R.Generated, 60u);
  expectNoMismatches(R);

  // Some mutants must actually exercise the full path, or the
  // differential is vacuous.
  size_t Failing = 0, Hits = 0;
  for (const FuzzClassStats &Row : R.PerClass) {
    Failing += Row.Failing;
    Hits += Row.Hits;
  }
  EXPECT_GT(Failing, 10u);
  EXPECT_GT(Hits, 5u);

  // Same seed, same options => the sweep itself is deterministic.
  FuzzResult Again = runFuzzSweep(Subject, Opts);
  EXPECT_TRUE(sameTallies(R, Again)) << "sweep is not deterministic";
}

TEST(FuzzDifferential, Program1SweepIsMismatchFree) {
  auto Base = compile(program1Source());
  FuzzSubject Subject;
  Subject.Base = Base.get();
  Subject.Name = "program1";
  Subject.Unroll.BitWidth = 16;
  Subject.CheckObligations = true;
  for (int64_t X = -6; X <= 6; ++X)
    Subject.Pool.push_back({InputValue::scalar(X)});

  FuzzOptions Opts;
  Opts.Seed = 2;
  Opts.Count = 24;
  FuzzResult R = runFuzzSweep(Subject, Opts);
  EXPECT_EQ(R.Generated, 24u);
  expectNoMismatches(R);
}

TEST(FuzzDifferential, Program3FixedSweepIsMismatchFree) {
  // The squareroot demo, from its *fixed* source: mutants are judged
  // against a verified-correct golden, the paper's Table 1 setup.
  auto Base = compile(program3FixedSource());
  FuzzSubject Subject;
  Subject.Base = Base.get();
  Subject.Name = "program3";
  Subject.Unroll.BitWidth = 16;
  Subject.Unroll.MaxLoopUnwind = 10;
  Subject.CheckObligations = true;
  Subject.Pool.push_back({}); // main() takes no inputs

  FuzzOptions Opts;
  Opts.Seed = 3;
  Opts.Count = 16;
  FuzzResult R = runFuzzSweep(Subject, Opts);
  EXPECT_EQ(R.Generated, 16u);
  expectNoMismatches(R);
}

TEST(FuzzDifferential, AcceptedRepairsReverifyCleanUnderBmc) {
  // Drive the same pooled repair path the sweep uses, but keep the fixed
  // programs and independently re-verify each: BMC on the accepted mutant
  // must find no counterexample within the encoding bounds.
  auto Base = compile(program1Source());
  UnrollOptions UO;
  UO.BitWidth = 16;

  MutantGeneratorOptions GenOpts;
  GenOpts.Seed = 4;
  MutantGenerator Gen(*Base, GenOpts);
  auto Mutants = Gen.generate(16);
  ASSERT_FALSE(Mutants.empty());

  size_t Accepted = 0;
  for (GeneratedMutant &M : Mutants) {
    // A failing input for this mutant, if one exists in bounds.
    BugAssistDriver Driver(*M.Prog, "main", UO);
    auto Cex = Driver.findCounterexample(Spec{});
    if (!Cex)
      continue;
    RepairOptions RO;
    RO.Unroll = UO;
    RO.MaxCandidates = 64;
    RO.MaxInterpSteps = 100000;
    RepairResult R =
        repairProgram(*M.Prog, Driver, "main", {*Cex}, Spec{}, nullptr, RO);
    if (!R.Found)
      continue;
    ++Accepted;
    BugAssistDriver Fixed(*R.Suggestion.FixedProgram, "main", UO);
    EXPECT_FALSE(Fixed.findCounterexample(Spec{}).has_value())
        << "accepted repair for '" << M.Spec.Description
        << "' still has a counterexample";
  }
  EXPECT_GT(Accepted, 0u) << "no repair was ever accepted; test is vacuous";
}
