//===- cli_test.cpp - bugassist CLI end-to-end tests --------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Drives the installed `bugassist` binary and holds it to the PR's
// acceptance bar: `bugassist localize` on a TCAS mutant reproduces the
// library-driver diagnosis byte for byte, and
// the input/report serializations of core/Pipeline.h are exactly what the
// CLI prints. Also covers the input-vector syntax and the sat subcommand.
//
//===----------------------------------------------------------------------===//

#include "CliTestUtils.h"
#include "core/Pipeline.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>

using namespace bugassist;

using clitest::Cli;
using clitest::exitStatus;
using clitest::Instances;
using clitest::runCommand;

namespace {

/// Writes \p Text to a fresh temp file and returns its path.
std::string writeTempFile(const std::string &Text) {
  char Path[] = "/tmp/bugassist_cli_XXXXXX";
  int Fd = mkstemp(Path);
  EXPECT_GE(Fd, 0);
  EXPECT_EQ(write(Fd, Text.data(), Text.size()),
            static_cast<ssize_t>(Text.size()));
  close(Fd);
  return Path;
}

} // namespace

// --- input-vector syntax ------------------------------------------------------

TEST(InputVector, RendersAndParsesScalarsAndArrays) {
  InputVector In = {InputValue::scalar(3), InputValue::array({1, -2, 4}),
                    InputValue::scalar(-7)};
  std::string Text = renderInputVector(In);
  EXPECT_EQ(Text, "3,[1,-2,4],-7");
  std::string Error;
  auto Back = parseInputVector(Text, Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(*Back, In);
}

TEST(InputVector, ParsesEmptyAndWhitespace) {
  std::string Error;
  auto Empty = parseInputVector("", Error);
  ASSERT_TRUE(Empty.has_value());
  EXPECT_TRUE(Empty->empty());

  auto Spaced = parseInputVector(" 1 , [ 2 , 3 ] ", Error);
  ASSERT_TRUE(Spaced.has_value()) << Error;
  ASSERT_EQ(Spaced->size(), 2u);
  EXPECT_EQ((*Spaced)[1].Array, (std::vector<int64_t>{2, 3}));

  auto EmptyArray = parseInputVector("[]", Error);
  ASSERT_TRUE(EmptyArray.has_value()) << Error;
  EXPECT_TRUE((*EmptyArray)[0].Array.empty());
}

TEST(InputVector, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(parseInputVector("1,,2", Error).has_value());
  EXPECT_FALSE(parseInputVector("[1,2", Error).has_value());
  EXPECT_FALSE(parseInputVector("abc", Error).has_value());
  EXPECT_FALSE(parseInputVector("1 2", Error).has_value());
  EXPECT_FALSE(parseInputVector("[1,x]", Error).has_value());
}

// --- localize: byte-for-byte parity with the library driver -------------------

TEST(BugassistCli, LocalizeMatchesLibraryDriver) {
  // TCAS v2, the Figure 2 fault. Find one failing test the library way.
  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  auto Faulty = parseAndAnalyze(tcasMutants()[1].Source, Diags);
  ASSERT_TRUE(Golden && Faulty) << Diags.render();
  FailingTests Failing =
      segregateFailingTests(*Golden, *Faulty, tcasTestPool(1600), "main",
                            tcasExecOptions(), /*MaxTests=*/1);
  ASSERT_EQ(Failing.Inputs.size(), 1u);

  // The library-driver diagnosis through the pipeline seam.
  PipelineRequest R;
  R.Unroll = tcasUnrollOptions();
  R.Input = Failing.Inputs[0];
  R.GoldenReturn = Failing.Goldens[0];
  R.CheckObligations = false;
  R.Localize.MaxDiagnoses = 24;
  PipelineResult Lib = runLocalizePipeline(*Faulty, R);
  ASSERT_EQ(Lib.Status, PipelineStatus::Localized);
  ASSERT_FALSE(Lib.Report.Diagnoses.empty());
  std::string Expected = "failing input: " +
                         renderInputVector(Lib.FailingInput) + "\n" +
                         renderLocalizationReport(Lib.Report);

  // The same run through the CLI. HardLines 69-84 is exactly
  // tcasUnrollOptions()'s harness pinning.
  std::string Source = writeTempFile(tcasMutants()[1].Source);
  int Exit = 0;
  std::string Out = runCommand(
      Cli + " localize " + Source + " --input \"" +
          renderInputVector(Failing.Inputs[0]) + "\" --golden " +
          std::to_string(Failing.Goldens[0]) +
          " --no-obligations --no-bounds --bitwidth 16 --hard-lines 69-84"
          " --max-diagnoses 24",
      Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(Out, Expected) << "CLI diverged from the library driver";

  // The injected fault line must be among the suspects (Detect# = hit).
  for (uint32_t BugLine : tcasMutants()[1].BugLines)
    EXPECT_NE(Out.find(" " + std::to_string(BugLine)), std::string::npos);

  std::remove(Source.c_str());
}

TEST(BugassistCli, LocalizeJsonContainsReport) {
  std::string Prog = writeTempFile("int Array[3];\n"
                                   "int main(int index) {\n"
                                   "  if (index != 1)\n"
                                   "    index = 2;\n"
                                   "  else\n"
                                   "    index = index + 2;\n"
                                   "  int i = index;\n"
                                   "  assert(i >= 0 && i < 3);\n"
                                   "  return Array[i];\n"
                                   "}\n");
  int Exit = 0;
  std::string Out = runCommand(Cli + " localize " + Prog + " --json", Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("\"input\": \"1\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"suspect_lines\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"exhausted\": true"), std::string::npos) << Out;
  std::remove(Prog.c_str());
}

TEST(BugassistCli, LocalizeRejectsNonFailingInput) {
  std::string Prog = writeTempFile("int main(int x) {\n"
                                   "  assert(x >= 0 || x < 0);\n"
                                   "  return x;\n"
                                   "}\n");
  int Exit = 0;
  runCommand(Cli + " localize " + Prog + " --input \"5\" 2>/dev/null", Exit);
  EXPECT_NE(Exit, 0); // nothing to localize: the spec holds
  std::remove(Prog.c_str());
}

// localize takes one failing input. A second --input (or --golden) is
// rejected before anything runs, never dropped in favour of the last one.
TEST(BugassistCli, LocalizeRejectsARepeatedInputOrGolden) {
  std::string Prog = writeTempFile("int main(int x) {\n"
                                   "  assert(x + 1 < 5);\n"
                                   "  return x;\n"
                                   "}\n");
  for (const char *Args :
       {" --input 9 --input 1", " --input 1 --input 9",
        " --input 9 --golden 9 --golden 1", " --input=9 --input=9"}) {
    std::string Cmd = Cli + " localize " + Prog + Args;
    int Exit = 0;
    std::string Out = runCommand(Cmd + " 2>/dev/null", Exit);
    EXPECT_EQ(exitStatus(Exit), 1) << Args;
    EXPECT_TRUE(Out.empty()) << Args << ": " << Out;
    std::string Err = runCommand(Cmd + " 2>&1 >/dev/null", Exit);
    EXPECT_NE(Err.find("localize takes one failing input"), std::string::npos)
        << Args << ": " << Err;
  }
  // Given once, the failing input 9 is localized.
  int Exit = 0;
  std::string Out =
      runCommand(Cli + " localize " + Prog + " --input 9 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 0) << Out;
  EXPECT_EQ(Out.rfind("failing input: 9\n", 0), 0u) << Out;
  std::remove(Prog.c_str());
}

// A program without the requested entry function is a bad request: every
// command that unrolls it exits 1 with empty stdout instead of crashing.
TEST(BugassistCli, MissingEntryFunctionExitsOneWithNoOutput) {
  std::string Prog = writeTempFile("int f(int x) { return x; }\n");
  for (const char *Args : {" localize %s --input 1", " localize %s --entry g",
                           " repair %s --input 1",
                           " repair %s --entry g --input 1"}) {
    std::string Cmd = Cli + Args;
    Cmd.replace(Cmd.find("%s"), 2, Prog);
    int Exit = 0;
    std::string Out = runCommand(Cmd + " 2>/dev/null", Exit);
    EXPECT_EQ(exitStatus(Exit), 1) << Cmd;
    EXPECT_TRUE(Out.empty()) << Cmd << ": " << Out;
    std::string Err = runCommand(Cmd + " 2>&1 >/dev/null", Exit);
    EXPECT_NE(Err.find("no function '"), std::string::npos) << Cmd << Err;
  }
  std::remove(Prog.c_str());
}

// --- sat / dump-tcas ----------------------------------------------------------

TEST(BugassistCli, SatDecidesCheckedInInstances) {
  int Exit = 0;
  std::string Out =
      runCommand(Cli + " sat " + Instances + "/mini.cnf", Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("s SATISFIABLE\n"), std::string::npos) << Out;

  Out = runCommand(Cli + " sat " + Instances + "/mini_unsat.cnf", Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("s UNSATISFIABLE\n"), std::string::npos) << Out;
}

// sat and maxsat --stats append two counter lines after the answer, the
// second with the inprocessing counters. The search is deterministic, so
// the lines are pinned byte for byte: they fix the solver path (load,
// preprocess, solve on one solver) and prove the inprocessing counters
// are live.
TEST(BugassistCli, SatAndMaxsatStatsArePinned) {
  struct Case {
    std::string Args;
    std::string Tail; ///< the expected end of stdout, verbatim
  };
  const Case Cases[] = {
      {"sat " + Instances + "/adder_miter8.cnf",
       "s UNSATISFIABLE\n"
       "c sat_calls=1 conflicts=143 propagations=1242 restarts=0\n"
       "c vars_eliminated=787 clauses_subsumed=3 lits_self_subsumed=4 "
       "reconstruction_bytes=27900\n"},
      {"sat " + Instances + "/adder_miter8.cnf --no-preprocess",
       "s UNSATISFIABLE\n"
       "c sat_calls=1 conflicts=224 propagations=39202 restarts=0\n"
       "c vars_eliminated=0 clauses_subsumed=0 lits_self_subsumed=0 "
       "reconstruction_bytes=0\n"},
      {"maxsat " + Instances + "/php_soft8.wcnf",
       "o 1\ns OPTIMUM FOUND\n"
       "c sat_calls=3 conflicts=4311 propagations=59558 restarts=0\n"
       "c vars_eliminated=560 clauses_subsumed=0 lits_self_subsumed=0 "
       "reconstruction_bytes=17248\n"},
  };
  for (const Case &C : Cases) {
    int Exit = 0;
    std::string Out =
        runCommand(Cli + " " + C.Args + " --stats --no-model", Exit);
    EXPECT_EQ(exitStatus(Exit), 0) << C.Args;
    ASSERT_GE(Out.size(), C.Tail.size()) << C.Args << "\n" << Out;
    EXPECT_EQ(Out.substr(Out.size() - C.Tail.size()), C.Tail) << C.Args;
  }
}

// --- resource budgets & the exit-code contract --------------------------------
//
// Documented contract: 0 complete, 1 input/usage error, 2 budget
// exhausted (best-so-far result printed).

namespace {

/// DIMACS CNF text of PHP(Holes + 1, Holes) -- UNSAT, and hopeless to
/// refute within a tiny budget for Holes >= 9.
std::string pigeonholeCnf(int Holes) {
  int Pigeons = Holes + 1;
  auto VarOf = [&](int P, int H) { return P * Holes + H + 1; };
  std::string Text;
  int NumClauses = Pigeons + Holes * (Pigeons * (Pigeons - 1) / 2);
  Text += "p cnf " + std::to_string(Pigeons * Holes) + " " +
          std::to_string(NumClauses) + "\n";
  for (int P = 0; P < Pigeons; ++P) {
    for (int H = 0; H < Holes; ++H)
      Text += std::to_string(VarOf(P, H)) + " ";
    Text += "0\n";
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        Text += "-" + std::to_string(VarOf(P1, H)) + " -" +
                std::to_string(VarOf(P2, H)) + " 0\n";
  return Text;
}

} // namespace

TEST(BugassistCli, BadBudgetFlagValuesExitOneWithNoOutput) {
  const std::string Wcnf = Instances + "/weighted.wcnf";
  for (const std::string &Flags :
       {std::string("--timeout 0"), std::string("--timeout abc"),
        std::string("--timeout -1"), std::string("--max-conflicts -1"),
        std::string("--max-conflicts notanumber"),
        std::string("--max-memory-mb 0"), std::string("--timeout")}) {
    int Exit = 0;
    std::string Out = runCommand(
        Cli + " maxsat " + Wcnf + " " + Flags + " 2>/dev/null", Exit);
    EXPECT_EQ(exitStatus(Exit), 1) << "flags: " << Flags;
    EXPECT_TRUE(Out.empty()) << "partial stdout for flags: " << Flags;
  }
}

TEST(BugassistCli, SatBudgetExhaustionExitsTwoWithUnknown) {
  std::string Cnf = writeTempFile(pigeonholeCnf(9));
  int Exit = 0;
  std::string Out = runCommand(Cli + " sat " + Cnf + " --timeout 0.05", Exit);
  EXPECT_EQ(exitStatus(Exit), 2);
  EXPECT_NE(Out.find("s UNKNOWN\n"), std::string::npos) << Out;
  // The same instance without a budget still exits 0 on easy inputs: the
  // contract is about exhaustion, not about the flags being present.
  Out = runCommand(Cli + " sat " + Instances + "/mini.cnf --timeout 30", Exit);
  EXPECT_EQ(exitStatus(Exit), 0);
  EXPECT_NE(Out.find("s SATISFIABLE\n"), std::string::npos) << Out;
  std::remove(Cnf.c_str());
}

TEST(BugassistCli, MaxsatBudgetExhaustionIsAnytime) {
  // budget/budget_hard.wcnf is soft-PHP(10, 9): optimum 1, refutation hopeless.
  // A tiny deadline must exit 2 promptly and still print an o-line upper
  // bound with its witnessing v-line.
  int Exit = 0;
  auto Begin = std::chrono::steady_clock::now();
  std::string Out = runCommand(
      Cli + " maxsat " + Instances + "/budget/budget_hard.wcnf --timeout 0.05",
      Exit);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Begin)
                       .count();
  EXPECT_EQ(exitStatus(Exit), 2);
  EXPECT_LT(Seconds, 1.0) << "deadline not honored promptly";
  EXPECT_NE(Out.find("\no "), std::string::npos)
      << "no anytime upper bound\n" << Out;
  EXPECT_NE(Out.find("s UNKNOWN\n"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\nv "), std::string::npos) << "no witness model\n" << Out;
  // A generous budget that never trips leaves complete runs at exit 0.
  Out = runCommand(
      Cli + " maxsat " + Instances + "/weighted.wcnf --timeout 30", Exit);
  EXPECT_EQ(exitStatus(Exit), 0);
  EXPECT_NE(Out.find("o 2\ns OPTIMUM FOUND\n"), std::string::npos) << Out;
}

TEST(BugassistCli, MaxsatSolvesLargeWeightsPromptly) {
  // Weights in the millions split cores like any other weights: no data
  // structure grows with their size, so the answer comes at once.
  int Exit = 0;
  auto Begin = std::chrono::steady_clock::now();
  std::string Out = runCommand(
      Cli + " maxsat " + Instances + "/big_weights.wcnf --no-model", Exit);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Begin)
                       .count();
  EXPECT_EQ(exitStatus(Exit), 0);
  EXPECT_NE(Out.find("\no 3000000\ns OPTIMUM FOUND\n"), std::string::npos)
      << Out;
  EXPECT_LT(Seconds, 1.0);
}

TEST(BugassistCli, MemoryCapBoundsPerVariableState) {
  // A 30-byte header declaring 30M variables: their per-variable solver
  // state alone is gigabytes. Under a 100 MiB cap, sat and maxsat must
  // answer UNKNOWN with exit 2 without allocating it; the 4 GB
  // address-space limit turns an attempt into a bad_alloc abort (134).
  // ASan and TSan reserve terabytes of address space at start-up, so
  // sanitizer builds run without the limit.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const std::string Limit;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  const std::string Limit;
#else
  const std::string Limit = "ulimit -v 4000000; ";
#endif
#else
  const std::string Limit = "ulimit -v 4000000; ";
#endif
  std::string Cnf = writeTempFile("p cnf 30000000 1\n1 30000000 0\n");
  std::string Wcnf = writeTempFile("p wcnf 30000000 1 2\n2 1 30000000 0\n");
  for (const std::string &Args :
       {" sat " + Cnf, " maxsat " + Cnf, " maxsat " + Wcnf}) {
    int Exit = 0;
    std::string Out =
        runCommand(Limit + Cli + Args + " --max-memory-mb 100 2>&1", Exit);
    EXPECT_EQ(exitStatus(Exit), 2) << Args << "\n" << Out;
    EXPECT_NE(Out.find("s UNKNOWN\n"), std::string::npos) << Args << "\n"
                                                          << Out;
  }
  std::remove(Cnf.c_str());
  std::remove(Wcnf.c_str());
}

TEST(BugassistCli, LocalizeExpiredDeadlineGivesAnEmptyIncompleteReport) {
  // A microsecond deadline is already expired by the first budget poll,
  // so the INCOMPLETE report deterministically carries zero diagnoses.
  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  auto Faulty = parseAndAnalyze(tcasMutants()[1].Source, Diags);
  ASSERT_TRUE(Golden && Faulty) << Diags.render();
  FailingTests Failing =
      segregateFailingTests(*Golden, *Faulty, tcasTestPool(1600), "main",
                            tcasExecOptions(), /*MaxTests=*/1);
  ASSERT_EQ(Failing.Inputs.size(), 1u);

  std::string Source = writeTempFile(tcasMutants()[1].Source);
  std::string Base =
      Cli + " localize " + Source + " --input \"" +
      renderInputVector(Failing.Inputs[0]) + "\" --golden " +
      std::to_string(Failing.Goldens[0]) +
      " --no-obligations --no-bounds --bitwidth 16 --hard-lines 69-84"
      " --timeout 0.000001";
  int Exit = 0;
  std::string Out = runCommand(Base, Exit);
  EXPECT_EQ(exitStatus(Exit), 2);
  EXPECT_NE(Out.find("INCOMPLETE: resource budget exhausted"),
            std::string::npos)
      << Out;
  EXPECT_EQ(Out.find("diagnosis "), std::string::npos) << Out;
  std::remove(Source.c_str());
}

TEST(BugassistCli, LocalizeConflictCapIsExact) {
  // The CI localize smoke command (TCAS v2, a pinned failing test) under a
  // one-conflict cap: the cap is checked at every conflict, so the query
  // stops after exactly one and reports what it enumerated as INCOMPLETE.
  std::string Source = writeTempFile(tcasMutants()[1].Source);
  int Exit = 0;
  std::string Out = runCommand(
      Cli + " localize " + Source +
          " --input \"1052,1,0,6677,118,1329,0,790,890,0,2,1\" --golden 2"
          " --no-obligations --no-bounds --bitwidth 16 --hard-lines 69-84"
          " --max-diagnoses 24 --max-conflicts 1 --stats",
      Exit);
  EXPECT_EQ(exitStatus(Exit), 2) << Out;
  EXPECT_NE(Out.find("INCOMPLETE: resource budget exhausted"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\nconflicts:    1\n"), std::string::npos) << Out;
  std::remove(Source.c_str());
}

TEST(BugassistCli, LocalizeTimeoutBoundsTheCounterexampleSearch) {
  // Two nested countdown loops at --unwind 100: without an input the BMC
  // counterexample search runs for seconds. --timeout counts from the start
  // of the command and bounds that search too, which then ends as a budget
  // stop (exit 2), never as "no spec violation found".
  std::string Source = writeTempFile("int main(int n, int m) {\n"
                                     "  assume(n >= 0 && n <= 50);\n"
                                     "  assume(m >= 0 && m <= 50);\n"
                                     "  int s = 0;\n"
                                     "  int i = n;\n"
                                     "  while (i > 0) {\n"
                                     "    int j = m;\n"
                                     "    while (j > 0) {\n"
                                     "      s = s + 1;\n"
                                     "      j = j - 1;\n"
                                     "    }\n"
                                     "    i = i - 1;\n"
                                     "  }\n"
                                     "  assert(s == n * m + 1);\n"
                                     "  return s;\n"
                                     "}\n");
  int Exit = 0;
  std::string Out = runCommand(Cli + " localize " + Source +
                                   " --unwind 100 --bitwidth 8 --timeout 0.2",
                               Exit);
  EXPECT_EQ(exitStatus(Exit), 2) << Out;
  EXPECT_EQ(Out,
            "INCOMPLETE: resource budget exhausted before the counterexample "
            "search found a failing input\n");
  std::remove(Source.c_str());
}

TEST(BugassistCli, InfeasibleRunsAreDecidedNotBudgetStops) {
  // Every run is infeasible by unit propagation alone: a constant loop
  // longer than --unwind (the unwinding assumption), or an assume that
  // contradicts constants. The counterexample search is decided -- no run
  // within the bounds violates the spec -- with no budget in play.
  const char *Programs[] = {"int main() {\n"
                            "  int i = 0;\n"
                            "  while (i < 100) {\n"
                            "    i = i + 1;\n"
                            "  }\n"
                            "  assert(i == 99);\n"
                            "  return i;\n"
                            "}\n",
                            "int main() {\n"
                            "  int x = 3;\n"
                            "  assume(x > 5);\n"
                            "  assert(x == 4);\n"
                            "  return x;\n"
                            "}\n"};
  for (const char *Program : Programs) {
    std::string Source = writeTempFile(Program);
    int Exit = 0;
    std::string Out =
        runCommand(Cli + " localize " + Source + " --unwind 10", Exit);
    EXPECT_EQ(exitStatus(Exit), 0) << Program << Out;
    EXPECT_EQ(Out, "no spec violation found within the unwinding bounds\n")
        << Program;
    std::remove(Source.c_str());
  }
}

TEST(BugassistCli, DumpTcasRoundTripsThroughTheParser) {
  int Exit = 0;
  std::string Out = runCommand(Cli + " dump-tcas 2", Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(Out, tcasMutants()[1].Source);

  Out = runCommand(Cli + " dump-tcas 0", Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(Out, tcasSource());
}

// --- repair -------------------------------------------------------------------

namespace {

/// `--input "..." --golden N` pairs for up to \p MaxTests failing tests of
/// a checked-in TCAS mutant, segregated from the session pool, followed
/// by up to \p MaxPassing passing pairs as regression witnesses (the
/// first input drives localization; the rest only screen candidates).
std::string tcasRepairArgs(size_t MutantIdx, size_t MaxTests,
                           size_t MaxPassing = 0) {
  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  auto Faulty = parseAndAnalyze(tcasMutants()[MutantIdx].Source, Diags);
  EXPECT_TRUE(Golden && Faulty) << Diags.render();
  FailingTests Failing =
      segregateFailingTests(*Golden, *Faulty, tcasTestPool(300), "main",
                            tcasExecOptions(), MaxTests, MaxPassing);
  EXPECT_FALSE(Failing.Inputs.empty());
  std::string Args;
  for (size_t I = 0; I < Failing.Inputs.size(); ++I)
    Args += " --input \"" + renderInputVector(Failing.Inputs[I]) +
            "\" --golden " + std::to_string(Failing.Goldens[I]);
  for (size_t I = 0; I < Failing.PassingInputs.size(); ++I)
    Args += " --input \"" + renderInputVector(Failing.PassingInputs[I]) +
            "\" --golden " + std::to_string(Failing.PassingGoldens[I]);
  return Args;
}

} // namespace

TEST(BugassistCli, RepairTcasV1OperatorSwap) {
  // v1 weakens a `<=` boundary to `<`; `bugassist repair` must propose
  // the swap back on the recorded fault line.
  std::string Source = writeTempFile(tcasMutants()[0].Source);
  int Exit = 0;
  // v1 fails on almost nothing (one pool test), so passing regression
  // witnesses carry the screen against imposter fixes on correlated
  // branch conditions.
  std::string Out = runCommand(
      Cli + " repair " + Source + tcasRepairArgs(0, 24, /*MaxPassing=*/64) +
          " --no-obligations --no-bounds --bitwidth 16 --hard-lines 69-84",
      Exit);
  EXPECT_EQ(exitStatus(Exit), 0);
  std::string Expected = "repair: line " +
                         std::to_string(tcasMutants()[0].BugLines[0]) +
                         ": '<' -> '<='";
  EXPECT_NE(Out.find(Expected), std::string::npos) << Out;
  EXPECT_NE(Out.find("fixed program:\n"), std::string::npos) << Out;
  std::remove(Source.c_str());
}

TEST(BugassistCli, RepairTcasV5OffByOneJson) {
  // v5 assigns advisory code 2 where 1 belongs: the paper's kappa-1 fix,
  // through the --json schema.
  std::string Source = writeTempFile(tcasMutants()[4].Source);
  int Exit = 0;
  std::string Out = runCommand(
      Cli + " repair " + Source + tcasRepairArgs(4, 6) +
          " --no-obligations --no-bounds --bitwidth 16 --hard-lines 69-84"
          " --json",
      Exit);
  EXPECT_EQ(exitStatus(Exit), 0);
  EXPECT_NE(Out.find("\"found\": true"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"line\": " +
                     std::to_string(tcasMutants()[4].BugLines[0])),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"fix\": \"constant 2 -> 1\""), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"suspect_lines\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"truncated\": false"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"stats\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"candidates_tried\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"fixed_program\""), std::string::npos) << Out;
  std::remove(Source.c_str());
}

TEST(BugassistCli, RepairExitCodeContract) {
  // 1: usage error (no failing input given).
  std::string Prog = writeTempFile("int main(int x) {\n"
                                   "  assert(x == 0);\n"
                                   "  return x;\n"
                                   "}\n");
  int Exit = 0;
  runCommand(Cli + " repair " + Prog + " 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 1);

  // 1: the input does not fail, so there is nothing to repair.
  runCommand(Cli + " repair " + Prog + " --input \"0\" 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 1);
  std::remove(Prog.c_str());

  // 2: candidate budget truncated the search without a decided answer.
  std::string Hard = writeTempFile("int main(int x) {\n"
                                   "  assume(x >= 0 && x <= 7);\n"
                                   "  int y = 0;\n"
                                   "  assert(y == x * x);\n"
                                   "  return y;\n"
                                   "}\n");
  std::string Out = runCommand(
      Cli + " repair " + Hard + " --input \"2\" --max-candidates 1", Exit);
  EXPECT_EQ(exitStatus(Exit), 2);
  EXPECT_NE(Out.find("repair: NONE within candidate budget"),
            std::string::npos)
      << Out;
  std::remove(Hard.c_str());
}

TEST(BugassistCli, RepairNeverEditsTheSpec) {
  // The only blamed line holds the assert, whose `<` -> `<=` would make
  // the failing input pass by weakening the property. Repair edits the
  // code under test only, so nothing is planned and the answer is a
  // decided "none" (exit 0).
  std::string Prog = writeTempFile("int main(int x) {\n"
                                   "  assume(x >= 0 && x <= 5);\n"
                                   "  int y = x; assert(y < 5);\n"
                                   "  return y;\n"
                                   "}\n");
  int Exit = 0;
  std::string Out =
      runCommand(Cli + " repair " + Prog + " --input 5", Exit);
  EXPECT_EQ(exitStatus(Exit), 0) << Out;
  EXPECT_EQ(Out, "failing input: 5\n"
                 "suspect lines: 3\n"
                 "prescreen: 0 of 1 lines ruled out (1 sat calls)\n"
                 "candidates: 0 tried of 0 planned (0 failed tests, 0 "
                 "failed verification)\n"
                 "repair: none validated (template space exhausted)\n");
  std::remove(Prog.c_str());
}

TEST(BugassistCli, RepairTimeoutBoundsTheWholeRequest) {
  // Without a timeout this repair runs for tens of seconds, almost all of
  // it in candidate unroll/encode/BMC verification after localization has
  // finished. --timeout 2 is one deadline over the whole request: the
  // candidate loop stops at it with the budget-truncated answer (exit 2).
  std::string Prog = writeTempFile("int main(int n, int k) {\n"
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
                                   "}\n");
  int Exit = 0;
  auto Begin = std::chrono::steady_clock::now();
  std::string Out = runCommand(Cli + " repair " + Prog +
                                   " --unwind 1000 --bitwidth 8"
                                   " --input \"42,-31\" --timeout 2",
                               Exit);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Begin)
                       .count();
  EXPECT_EQ(exitStatus(Exit), 2) << Out;
  EXPECT_LT(Seconds, 10.0);
  EXPECT_NE(Out.find("failing input: 42,-31\n"), std::string::npos) << Out;
  std::remove(Prog.c_str());
}

TEST(BugassistCli, RepairOnABudgetStoppedLocalizationIsTruncated) {
  // A deadline that expires before localization's first solve leaves no
  // suspect line. That is a budget stop, not a searched-and-empty
  // template space: the text and the JSON both say truncated.
  std::string Prog = writeTempFile("int main(int n, int k) {\n"
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
                                   "}\n");
  std::string Cmd = Cli + " repair " + Prog +
                    " --unwind 100 --bitwidth 8 --input \"42,-31\""
                    " --timeout 0.000001";
  int Exit = 0;
  std::string Out = runCommand(Cmd, Exit);
  EXPECT_EQ(exitStatus(Exit), 2) << Out;
  EXPECT_NE(Out.find("suspect lines:\n"), std::string::npos) << Out;
  EXPECT_NE(Out.find("repair: NONE within candidate budget (more candidates "
                     "exist)\n"),
            std::string::npos)
      << Out;
  Out = runCommand(Cmd + " --json", Exit);
  EXPECT_EQ(exitStatus(Exit), 2) << Out;
  EXPECT_NE(Out.find("\"truncated\": true"), std::string::npos) << Out;
  std::remove(Prog.c_str());
}

// --- fuzz ---------------------------------------------------------------------

TEST(BugassistCli, FuzzTcasScorecardIsDeterministicAndMismatchFree) {
  int Exit = 0;
  std::string Cmd = Cli + " fuzz tcas --seed 1 --count 12 --pool 200";
  std::string Out = runCommand(Cmd, Exit);
  EXPECT_EQ(exitStatus(Exit), 0) << Out;
  EXPECT_NE(Out.find("\"subject\": \"tcas\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"generated\": 12"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"total\""), std::string::npos) << Out;
  // Zero preprocess mismatches, by contract.
  EXPECT_EQ(Out.find("\"mismatches\": 1"), std::string::npos) << Out;

  std::string Again = runCommand(Cmd, Exit);
  EXPECT_EQ(Out, Again) << "scorecard must be byte-identical across runs";
}

TEST(BugassistCli, FuzzRejectsUnknownClass) {
  int Exit = 0;
  runCommand(Cli + " fuzz tcas --classes bogus 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 1);
}

TEST(BugassistCli, FuzzRunsOnAFileSubject) {
  std::string Prog = writeTempFile("int main(int x) {\n"
                                   "  int y;\n"
                                   "  y = 0;\n"
                                   "  if (x < 5) {\n"
                                   "    y = 1;\n"
                                   "  }\n"
                                   "  return y;\n"
                                   "}\n");
  int Exit = 0;
  std::string Out = runCommand(
      Cli + " fuzz " + Prog + " --seed 3 --count 8 --pool 32", Exit);
  EXPECT_EQ(exitStatus(Exit), 0) << Out;
  EXPECT_NE(Out.find("\"generated\": 8"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("\"mismatches\": 1"), std::string::npos) << Out;
  std::remove(Prog.c_str());
}
