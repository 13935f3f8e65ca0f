//===- serve_test.cpp - bugassist serve end-to-end tests ----------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Holds `bugassist serve` to its documented contract (docs/SERVE.md): a
// batch of requests produces bodies byte-identical to the equivalent
// one-shot CLI runs at every pool width (--threads), each distinct program is
// parsed and encoded exactly once (cache counters asserted), a budget
// exhaustion returns INCOMPLETE without poisoning the pool, and a
// malformed request line is rejected without killing the daemon loop.
//
// Frames are compared as parsed (id, status, exit, body) tuples, never as
// raw streams: per the determinism contract, elapsed_ms and -- at widths
// above one -- *which* of two same-program requests pays the cache miss
// are scheduling-dependent, while everything else is not.
//
//===----------------------------------------------------------------------===//

#include "CliTestUtils.h"
#include "core/Pipeline.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "serve/FormulaCache.h"
#include "serve/Json.h"
#include "serve/LocalizeServer.h"
#include "serve/OrderedEmitter.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace bugassist;

using clitest::Cli;
using clitest::exitStatus;
using clitest::Instances;
using clitest::runCommand;

namespace {

/// Writes \p Text to a fresh temp file and returns its path.
std::string writeTempFile(const std::string &Text) {
  char Path[] = "/tmp/bugassist_serve_XXXXXX";
  int Fd = mkstemp(Path);
  EXPECT_GE(Fd, 0);
  EXPECT_EQ(write(Fd, Text.data(), Text.size()),
            static_cast<ssize_t>(Text.size()));
  close(Fd);
  return Path;
}

/// One parsed response frame: the header fields the contract makes
/// deterministic, the verbatim body, and the trailer keys (values of the
/// timing/search counters are machine-dependent; their presence is not).
struct Frame {
  std::string Id;
  std::string Cmd;
  std::string Status;
  int64_t Exit = -1;
  std::string Code;       ///< structured error code ("ok", "cancelled", ...)
  std::string CacheField; ///< "hit", "miss", or "" when absent
  std::string ErrorField; ///< "" when absent
  std::string Body;
  JsonValue Trailer;
};

/// Splits a serve output stream into frames, failing the test on any
/// framing violation (non-JSON header, body shorter than `bytes`, missing
/// trailer).
std::vector<Frame> parseFrames(const std::string &Raw) {
  std::vector<Frame> Frames;
  size_t Pos = 0;
  while (Pos < Raw.size()) {
    size_t Nl = Raw.find('\n', Pos);
    EXPECT_NE(Nl, std::string::npos) << "unterminated header line";
    if (Nl == std::string::npos)
      break;
    std::string Error;
    auto Header = parseJson(Raw.substr(Pos, Nl - Pos), Error);
    EXPECT_TRUE(Header.has_value()) << "bad header: " << Error;
    if (!Header)
      break;

    Frame F;
    const JsonValue *Id = Header->find("id");
    const JsonValue *Cmd = Header->find("cmd");
    const JsonValue *Status = Header->find("status");
    const JsonValue *Exit = Header->find("exit");
    const JsonValue *Bytes = Header->find("bytes");
    EXPECT_TRUE(Id && Cmd && Status && Exit && Bytes)
        << "header missing a required field: " << Raw.substr(Pos, Nl - Pos);
    if (!(Id && Cmd && Status && Exit && Bytes))
      break;
    F.Id = Id->Text;
    F.Cmd = Cmd->Text;
    F.Status = Status->Text;
    std::optional<int64_t> ExitVal = Exit->asInt64();
    std::optional<int64_t> BodyLenVal = Bytes->asInt64();
    EXPECT_TRUE(ExitVal && BodyLenVal);
    if (!(ExitVal && BodyLenVal))
      break;
    F.Exit = *ExitVal;
    int64_t BodyLen = *BodyLenVal;
    if (const JsonValue *C = Header->find("code"))
      F.Code = C->Text;
    if (const JsonValue *C = Header->find("cache"))
      F.CacheField = C->Text;
    if (const JsonValue *E = Header->find("error"))
      F.ErrorField = E->Text;

    Pos = Nl + 1;
    EXPECT_LE(Pos + static_cast<size_t>(BodyLen), Raw.size())
        << "body shorter than advertised for id " << F.Id;
    F.Body = Raw.substr(Pos, static_cast<size_t>(BodyLen));
    Pos += static_cast<size_t>(BodyLen);

    Nl = Raw.find('\n', Pos);
    EXPECT_NE(Nl, std::string::npos) << "missing trailer for id " << F.Id;
    if (Nl == std::string::npos)
      break;
    auto Trailer = parseJson(Raw.substr(Pos, Nl - Pos), Error);
    EXPECT_TRUE(Trailer.has_value()) << "bad trailer: " << Error;
    if (Trailer)
      F.Trailer = std::move(*Trailer);
    Pos = Nl + 1;
    Frames.push_back(std::move(F));
  }
  return Frames;
}

/// Runs a batch through the library entry point at \p Threads.
struct LibRun {
  ServeSummary Summary;
  std::vector<Frame> Frames;
  std::string ErrLine;
};

LibRun runServeOpts(const std::string &Batch, const ServeOptions &SO) {
  LibRun R;
  LocalizeServer Server(SO);
  std::istringstream In(Batch);
  std::ostringstream Out, Err;
  R.Summary = Server.run(In, Out, Err);
  R.Frames = parseFrames(Out.str());
  R.ErrLine = Err.str();
  return R;
}

LibRun runServe(const std::string &Batch, size_t Threads) {
  ServeOptions SO;
  SO.Threads = Threads;
  return runServeOpts(Batch, SO);
}

/// Drops DIMACS `c` comment lines: serve maxsat/sat bodies are the
/// one-shot CLI stdout minus these.
std::string stripCommentLines(const std::string &Text) {
  std::string Out;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    size_t End = Nl == std::string::npos ? Text.size() : Nl + 1;
    if (!(Text[Pos] == 'c' && (Pos + 1 == End || Text[Pos + 1] == ' ' ||
                               Text[Pos + 1] == '\n')))
      Out.append(Text, Pos, End - Pos);
    Pos = End;
  }
  return Out;
}

/// The failing TCAS v2 test the cli_test parity test uses, found the
/// library way once per process.
struct TcasFailure {
  std::string Input;
  int64_t Golden = 0;
};

const TcasFailure &tcasV2Failure() {
  static TcasFailure F = [] {
    DiagEngine Diags;
    auto Golden = parseAndAnalyze(tcasSource(), Diags);
    auto Faulty = parseAndAnalyze(tcasMutants()[1].Source, Diags);
    EXPECT_TRUE(Golden && Faulty) << Diags.render();
    FailingTests Failing =
        segregateFailingTests(*Golden, *Faulty, tcasTestPool(1600), "main",
                              tcasExecOptions(), /*MaxTests=*/1);
    EXPECT_EQ(Failing.Inputs.size(), 1u);
    TcasFailure R;
    R.Input = renderInputVector(Failing.Inputs[0]);
    R.Golden = Failing.Goldens[0];
    return R;
  }();
  return F;
}

/// The request mirroring cli_test's flag set for TCAS v2, minus the id.
std::string tcasV2RequestFields() {
  const TcasFailure &F = tcasV2Failure();
  return "\"cmd\":\"localize\",\"tcas\":2,\"input\":\"" + F.Input +
         "\",\"golden\":" + std::to_string(F.Golden) +
         ",\"check_obligations\":false,\"bounds\":false,\"bitwidth\":16,"
         "\"hard_lines\":\"69-84\",\"max_diagnoses\":24";
}

const char *ArrayProgram = "int Array[3];\n"
                           "int main(int index) {\n"
                           "  if (index != 1)\n"
                           "    index = 2;\n"
                           "  else\n"
                           "    index = index + 2;\n"
                           "  int i = index;\n"
                           "  assert(i >= 0 && i < 3);\n"
                           "  return Array[i];\n"
                           "}\n";

} // namespace

// --- batch mode: byte parity with the one-shot CLI ----------------------------

TEST(ServeBatch, MixedBatchMatchesOneShotCliAtEveryThreadWidth) {
  const std::string CnfText = "p cnf 2 2\n1 2 0\n-1 0\n";

  // One-shot CLI expectations, computed once.
  int Exit = 0;
  std::string TcasFile = writeTempFile(tcasMutants()[1].Source);
  const TcasFailure &F = tcasV2Failure();
  std::string LocalizeExpected = runCommand(
      Cli + " localize " + TcasFile + " --input \"" + F.Input +
          "\" --golden " + std::to_string(F.Golden) +
          " --no-obligations --no-bounds --bitwidth 16 --hard-lines 69-84"
          " --max-diagnoses 24",
      Exit);
  ASSERT_EQ(exitStatus(Exit), 0);
  ASSERT_FALSE(LocalizeExpected.empty());

  std::string ArrayFile = writeTempFile(ArrayProgram);
  std::string JsonExpected =
      runCommand(Cli + " localize " + ArrayFile + " --json", Exit);
  ASSERT_EQ(exitStatus(Exit), 0);

  std::string MaxSatExpected = stripCommentLines(
      runCommand(Cli + " maxsat " + Instances + "/weighted.wcnf", Exit));
  ASSERT_EQ(exitStatus(Exit), 0);

  std::string CnfFile = writeTempFile(CnfText);
  std::string SatExpected =
      stripCommentLines(runCommand(Cli + " sat " + CnfFile, Exit));
  ASSERT_EQ(exitStatus(Exit), 0);

  // The batch: two identical TCAS queries (one must hit the cache), a
  // JSON localize on inline source, a maxsat by file, a sat by inline CNF.
  std::string Batch =
      "{\"id\":\"t1\"," + tcasV2RequestFields() + "}\n" +
      "{\"id\":\"t2\"," + tcasV2RequestFields() + "}\n" +
      "{\"id\":\"arr\",\"cmd\":\"localize\",\"source\":\"" +
      jsonEscape(ArrayProgram) + "\",\"json\":true}\n" +
      "{\"id\":\"ms\",\"cmd\":\"maxsat\",\"file\":\"" + Instances +
      "/weighted.wcnf\"}\n" +
      "{\"id\":\"st\",\"cmd\":\"sat\",\"cnf\":\"" + jsonEscape(CnfText) +
      "\"}\n";
  std::string BatchFile = writeTempFile(Batch);

  std::vector<Frame> First;
  for (size_t Threads : {1u, 2u, 4u}) {
    std::string ErrFile = writeTempFile("");
    std::string Out = runCommand(Cli + " serve --batch " + BatchFile +
                                     " --threads " +
                                     std::to_string(Threads) + " 2>" +
                                     ErrFile,
                                 Exit);
    EXPECT_EQ(exitStatus(Exit), 0) << "threads " << Threads;

    std::vector<Frame> Frames = parseFrames(Out);
    ASSERT_EQ(Frames.size(), 5u) << "threads " << Threads;

    // Responses arrive in request order, all ok/exit 0.
    const char *Ids[] = {"t1", "t2", "arr", "ms", "st"};
    int Misses = 0, Hits = 0;
    for (size_t I = 0; I < 5; ++I) {
      EXPECT_EQ(Frames[I].Id, Ids[I]) << "threads " << Threads;
      EXPECT_EQ(Frames[I].Status, "ok");
      EXPECT_EQ(Frames[I].Exit, 0);
      Misses += Frames[I].CacheField == "miss";
      Hits += Frames[I].CacheField == "hit";
    }
    // Two distinct programs were encoded; the third localize of a known
    // program hit. Which of t1/t2 pays the miss is scheduling-dependent
    // at widths above one, so only the totals are asserted.
    EXPECT_EQ(Misses, 2) << "threads " << Threads;
    EXPECT_EQ(Hits, 1) << "threads " << Threads;

    // Bodies are the one-shot CLI's stdout, byte for byte.
    EXPECT_EQ(Frames[0].Body, LocalizeExpected) << "threads " << Threads;
    EXPECT_EQ(Frames[1].Body, LocalizeExpected) << "cache-hit body diverged";
    EXPECT_EQ(Frames[2].Body, JsonExpected) << "threads " << Threads;
    EXPECT_EQ(Frames[3].Body, MaxSatExpected) << "threads " << Threads;
    EXPECT_EQ(Frames[4].Body, SatExpected) << "threads " << Threads;

    // The stderr summary mirrors the counters.
    std::ifstream ErrIn(ErrFile);
    std::string Summary((std::istreambuf_iterator<char>(ErrIn)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(Summary.find("\"requests\":5"), std::string::npos) << Summary;
    EXPECT_NE(Summary.find("\"ok\":5"), std::string::npos) << Summary;
    EXPECT_NE(Summary.find("\"cache_hits\":1"), std::string::npos) << Summary;
    EXPECT_NE(Summary.find("\"cache_misses\":2"), std::string::npos)
        << Summary;
    std::remove(ErrFile.c_str());

    if (First.empty())
      First = Frames;
    else
      for (size_t I = 0; I < 5; ++I)
        EXPECT_EQ(Frames[I].Body, First[I].Body)
            << "thread-count nondeterminism at width " << Threads
            << " for id " << Frames[I].Id;
  }

  std::remove(TcasFile.c_str());
  std::remove(ArrayFile.c_str());
  std::remove(CnfFile.c_str());
  std::remove(BatchFile.c_str());
}

// Every failure class the two surfaces share comes out the same way on
// both: the CLI's exit status is the frame's `exit` (1 with empty stdout
// and an empty body for errors, 2 with identical bytes for a budget stop),
// and the CLI's diagnostic is `bugassist: ` plus the frame's `error`.
TEST(ServeBatch, ErrorOutcomesMatchTheOneShotCli) {
  std::string Bad = writeTempFile("int main( {\n");
  std::string NoEntry = writeTempFile("int f(int x) { return x; }\n");
  std::string Holds = writeTempFile("int main(int x) {\n"
                                    "  assert(x + 1 < 5);\n"
                                    "  return x;\n"
                                    "}\n");
  std::string V2 = writeTempFile(tcasMutants()[1].Source);
  std::string BadCnf = writeTempFile("p cnf 2 1\n1 x 0\n");
  const std::string Missing = "/nonexistent/bugassist_parity.ba";
  const std::string Php = Instances + "/php_soft8.wcnf";
  const std::string Adder = Instances + "/adder_miter8.cnf";
  const TcasFailure &F = tcasV2Failure();

  struct Case {
    std::string Args;    ///< CLI argv after the binary
    std::string Request; ///< the same command as a request, minus the id
    const char *Code;
    /// False where a conflict cap stops a localization: the conflict it
    /// bites at depends on search history, and serve searches a clone of
    /// a base preprocessed before the test was bound.
    bool SameBody = true;
  };
  const std::string V2Flags =
      " --input \"" + F.Input + "\" --golden " + std::to_string(F.Golden) +
      " --no-obligations --no-bounds --hard-lines 69-84 --max-diagnoses 24";
  const std::string V2Fields =
      ",\"input\":\"" + F.Input + "\",\"golden\":" +
      std::to_string(F.Golden) +
      ",\"check_obligations\":false,\"bounds\":false,"
      "\"hard_lines\":\"69-84\",\"max_diagnoses\":24";
  auto file = [](const std::string &Cmd, const std::string &Path) {
    return "\"cmd\":\"" + Cmd + "\",\"file\":\"" + Path + "\"";
  };
  const std::vector<Case> Cases = {
      {"localize " + Bad + " --input 1",
       file("localize", Bad) + ",\"input\":\"1\"", "compile-error"},
      {"repair " + Bad + " --input 1",
       file("repair", Bad) + ",\"inputs\":[\"1\"]", "compile-error"},
      {"localize " + NoEntry + " --input 1",
       file("localize", NoEntry) + ",\"input\":\"1\"", "bad-request"},
      {"repair " + NoEntry + " --entry g --input 1",
       file("repair", NoEntry) + ",\"entry\":\"g\",\"inputs\":[\"1\"]",
       "bad-request"},
      {"localize " + Holds + " --input 1",
       file("localize", Holds) + ",\"input\":\"1\"", "input-not-failing"},
      {"repair " + Holds + " --input 1",
       file("repair", Holds) + ",\"inputs\":[\"1\"]", "input-not-failing"},
      {"repair " + Holds, file("repair", Holds) + ",\"inputs\":[]",
       "bad-request"},
      {"repair " + Holds + " --input 9 --golden 1 --golden 2",
       file("repair", Holds) + ",\"inputs\":[\"9\"],\"goldens\":[1,2]",
       "bad-request"},
      {"localize " + Missing + " --input 1",
       file("localize", Missing) + ",\"input\":\"1\"", "file-unreadable"},
      {"maxsat " + Missing, file("maxsat", Missing), "file-unreadable"},
      {"maxsat " + BadCnf, file("maxsat", BadCnf), "bad-dimacs"},
      {"sat " + BadCnf, file("sat", BadCnf), "bad-dimacs"},
      {"localize " + V2 + V2Flags + " --max-conflicts 1",
       file("localize", V2) + V2Fields + ",\"max_conflicts\":1",
       "budget-exhausted", /*SameBody=*/false},
      {"localize " + V2 + V2Flags + " --timeout 0.000001",
       file("localize", V2) + V2Fields + ",\"timeout\":0.000001",
       "budget-exhausted"},
      {"maxsat " + Php + " --max-conflicts 1",
       file("maxsat", Php) + ",\"max_conflicts\":1", "budget-exhausted"},
      {"sat " + Adder + " --max-conflicts 1",
       file("sat", Adder) + ",\"max_conflicts\":1", "budget-exhausted"},
  };

  std::string Batch;
  for (size_t I = 0; I < Cases.size(); ++I)
    Batch += "{\"id\":\"" + std::to_string(I) + "\"," + Cases[I].Request +
             "}\n";
  LibRun R = runServe(Batch, /*Threads=*/2);
  ASSERT_EQ(R.Frames.size(), Cases.size());

  std::string ErrFile = writeTempFile("");
  for (size_t I = 0; I < Cases.size(); ++I) {
    const Case &C = Cases[I];
    const Frame &Fr = R.Frames[I];
    int Raw = 0;
    std::string Out = runCommand(Cli + " " + C.Args + " 2>" + ErrFile, Raw);
    std::ifstream ErrIn(ErrFile);
    std::string Err((std::istreambuf_iterator<char>(ErrIn)),
                    std::istreambuf_iterator<char>());
    int Exit = exitStatus(Raw);

    EXPECT_EQ(Fr.Code, C.Code) << C.Args << ": " << Fr.ErrorField;
    EXPECT_EQ(Fr.Exit, Exit) << C.Args << ": " << Fr.ErrorField << Err;
    if (Exit == 1) {
      EXPECT_EQ(Fr.Status, "error") << C.Args;
      EXPECT_TRUE(Out.empty()) << C.Args << ": " << Out;
      EXPECT_TRUE(Fr.Body.empty()) << C.Args << ": " << Fr.Body;
      // Both name the failure in the same words, except for the CLI's own
      // file read: `cannot read 'PATH'`.
      if (Fr.Code != "file-unreadable") {
        std::string Want = "bugassist: " + Fr.ErrorField;
        if (Want.back() != '\n')
          Want += '\n';
        EXPECT_EQ(Err, Want) << C.Args;
      }
    } else {
      EXPECT_EQ(Exit, 2) << C.Args;
      EXPECT_EQ(Fr.Status, "incomplete") << C.Args;
      if (C.SameBody)
        EXPECT_EQ(Fr.Body, stripCommentLines(Out)) << C.Args;
      else
        for (const std::string &Body : {Fr.Body, Out})
          EXPECT_NE(Body.find("\nINCOMPLETE: resource budget exhausted"),
                    std::string::npos)
              << C.Args << ": " << Body;
    }
  }
  for (const std::string &Path : {Bad, NoEntry, Holds, V2, BadCnf, ErrFile})
    std::remove(Path.c_str());
}

// --- cache keying -------------------------------------------------------------

TEST(ServeLib, CacheMissesCountDistinctProgramOptionKeys) {
  // Same source at different encode-relevant options is a different key;
  // repeating an exact key is a hit -- including spelling out a default
  // explicitly (keys are by value, not by field presence). 5 requests,
  // 3 keys: default, bitwidth 8, unwind 4.
  std::string Req = "{\"cmd\":\"localize\",\"source\":\"" +
                    jsonEscape(ArrayProgram) + "\"";
  std::string Batch = Req + "}\n" + Req + "}\n" + Req + ",\"bitwidth\":8}\n" +
                      Req + ",\"unwind\":4}\n" + Req + ",\"bitwidth\":16}\n";
  LibRun R = runServe(Batch, /*Threads=*/2);
  EXPECT_EQ(R.Summary.Requests, 5u);
  EXPECT_EQ(R.Summary.Ok, 5u);
  EXPECT_EQ(R.Summary.CacheMisses, 3u) << R.ErrLine;
  EXPECT_EQ(R.Summary.CacheHits, 2u) << R.ErrLine;
  EXPECT_EQ(R.Summary.ExitCode, 0);
  // Same key => same cached formula => identical bodies. bitwidth:16 is
  // the documented default, so the last request shares the first's key.
  ASSERT_EQ(R.Frames.size(), 5u);
  EXPECT_EQ(R.Frames[0].Body, R.Frames[1].Body);
  EXPECT_EQ(R.Frames[0].Body, R.Frames[4].Body);
}

// --- failure isolation --------------------------------------------------------

TEST(ServeLib, BudgetExhaustionIsIncompleteAndDoesNotPoisonThePool) {
  // b pays a one-conflict budget and must come back INCOMPLETE (exit 2);
  // a and c run the same query unbudgeted and must agree byte for byte,
  // proving the exhausted session left no residue in cache or pool.
  std::string Batch = "{\"id\":\"a\"," + tcasV2RequestFields() + "}\n" +
                      "{\"id\":\"b\"," + tcasV2RequestFields() +
                      ",\"max_conflicts\":1}\n" + "{\"id\":\"c\"," +
                      tcasV2RequestFields() + "}\n";
  LibRun R = runServe(Batch, /*Threads=*/2);
  ASSERT_EQ(R.Frames.size(), 3u);
  EXPECT_EQ(R.Frames[0].Status, "ok");
  EXPECT_EQ(R.Frames[0].Exit, 0);
  EXPECT_EQ(R.Frames[1].Status, "incomplete");
  EXPECT_EQ(R.Frames[1].Exit, 2);
  EXPECT_NE(R.Frames[1].Body.find("INCOMPLETE"), std::string::npos)
      << R.Frames[1].Body;
  EXPECT_EQ(R.Frames[2].Status, "ok");
  EXPECT_EQ(R.Frames[2].Body, R.Frames[0].Body);
  // One program, one encode: the budgeted query shares the cached formula.
  EXPECT_EQ(R.Summary.CacheMisses, 1u);
  EXPECT_EQ(R.Summary.CacheHits, 2u);
  EXPECT_EQ(R.Summary.Incomplete, 1u);
  EXPECT_EQ(R.Summary.ExitCode, 2);
}

TEST(ServeLib, TimeoutBoundsTheCounterexampleSearch) {
  // No input: the request's timeout, counted from the request's start,
  // also bounds the BMC counterexample search. Already expired when the
  // search starts, it stops it, and the request answers incomplete with
  // the one INCOMPLETE line instead of localizing a BMC-found input.
  const char *Sum = "int main(int n, int k) {\n"
                    "  int i = 0;\n"
                    "  int s = 0;\n"
                    "  while (i < n) {\n"
                    "    s = s + k;\n"
                    "    i = i + 1;\n"
                    "  }\n"
                    "  assert(s == n * k + 1);\n"
                    "  return s;\n"
                    "}\n";
  std::string Batch = "{\"id\":\"n\",\"cmd\":\"localize\",\"source\":\"" +
                      jsonEscape(Sum) +
                      "\",\"unwind\":4,\"bitwidth\":8,\"timeout\":0.000001}\n";
  LibRun R = runServe(Batch, /*Threads=*/1);
  ASSERT_EQ(R.Frames.size(), 1u);
  EXPECT_EQ(R.Frames[0].Status, "incomplete");
  EXPECT_EQ(R.Frames[0].Exit, 2);
  EXPECT_EQ(R.Frames[0].Body,
            "INCOMPLETE: resource budget exhausted before the counterexample "
            "search found a failing input\n");
  EXPECT_EQ(R.Summary.Incomplete, 1u);
}

TEST(ServeLib, MalformedRequestsAreRejectedWithoutKillingTheDaemon) {
  std::string Valid = "{\"id\":\"good\",\"cmd\":\"sat\",\"cnf\":\"" +
                      jsonEscape("p cnf 1 1\n1 0\n") + "\"}";
  std::string Batch =
      // Not JSON at all.
      "this is not json\n"
      // Valid JSON, unknown command.
      "{\"id\":\"e1\",\"cmd\":\"bogus\"}\n"
      // Unknown field for the command.
      "{\"id\":\"e2\",\"cmd\":\"sat\",\"golden\":3}\n"
      // A field no command has any more: one engine solves every weight.
      "{\"id\":\"e2w\",\"cmd\":\"localize\",\"tcas\":1,\"weighted\":true}\n"
      // Missing program source.
      "{\"id\":\"e3\",\"cmd\":\"localize\"}\n"
      // Conflicting program sources.
      "{\"id\":\"e4\",\"cmd\":\"localize\",\"tcas\":1,\"source\":\"x\"}\n"
      // Uncompilable program: reaches a worker, still isolated.
      "{\"id\":\"e5\",\"cmd\":\"localize\",\"source\":\"int main( {\"}\n" +
      Valid + "\n";
  LibRun R = runServe(Batch, /*Threads=*/1);
  ASSERT_EQ(R.Frames.size(), 8u);
  for (size_t I = 0; I < 7; ++I) {
    EXPECT_EQ(R.Frames[I].Status, "error") << "frame " << I;
    EXPECT_EQ(R.Frames[I].Exit, 1) << "frame " << I;
    EXPECT_FALSE(R.Frames[I].ErrorField.empty()) << "frame " << I;
    EXPECT_TRUE(R.Frames[I].Body.empty()) << "frame " << I;
  }
  EXPECT_EQ(R.Frames[0].Cmd, "unknown");
  EXPECT_NE(R.Frames[0].ErrorField.find("bad JSON"), std::string::npos);
  EXPECT_EQ(R.Frames[2].Id, "e2");
  EXPECT_NE(R.Frames[2].ErrorField.find("unknown field"), std::string::npos);
  EXPECT_EQ(R.Frames[3].Id, "e2w");
  EXPECT_NE(R.Frames[3].ErrorField.find("unknown field 'weighted'"),
            std::string::npos)
      << R.Frames[3].ErrorField;
  EXPECT_NE(R.Frames[6].ErrorField.find("does not compile"),
            std::string::npos);
  // The daemon survived all seven and answered the valid request.
  EXPECT_EQ(R.Frames[7].Id, "good");
  EXPECT_EQ(R.Frames[7].Status, "ok");
  EXPECT_EQ(R.Frames[7].Body, "s SATISFIABLE\nv 1 0\n");
  EXPECT_EQ(R.Summary.Errors, 7u);
  EXPECT_EQ(R.Summary.Ok, 1u);
  EXPECT_EQ(R.Summary.ExitCode, 1);
}

// Requests naming an entry function the program lacks are bad requests:
// the daemon answers each with an error frame and goes on to the next. Run
// through the CLI so a crash would show as a lost process, not a test abort.
TEST(ServeCli, MissingEntryFunctionIsABadRequestAndTheBatchGoesOn) {
  std::string Src = jsonEscape("int f(int x) { return x; }\n");
  std::string Batch = writeTempFile(
      "{\"id\":\"nomain\",\"cmd\":\"localize\",\"source\":\"" + Src +
      "\",\"input\":\"1\"}\n"
      "{\"id\":\"g\",\"cmd\":\"localize\",\"source\":\"" + Src +
      "\",\"entry\":\"g\"}\n"
      "{\"id\":\"repair-g\",\"cmd\":\"repair\",\"source\":\"" + Src +
      "\",\"entry\":\"g\",\"inputs\":[\"1\"]}\n"
      "{\"id\":\"tcas\"," + tcasV2RequestFields() + "}\n");
  int Exit = 0;
  std::string Out = runCommand(
      Cli + " serve --batch " + Batch + " --threads 2 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 1); // the aggregate code: some request failed
  std::vector<Frame> Frames = parseFrames(Out);
  ASSERT_EQ(Frames.size(), 4u) << Out;
  const char *Ids[] = {"nomain", "g", "repair-g"};
  const char *Names[] = {"main", "g", "g"};
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_EQ(Frames[I].Id, Ids[I]);
    EXPECT_EQ(Frames[I].Status, "error") << Frames[I].Id;
    EXPECT_EQ(Frames[I].Code, "bad-request") << Frames[I].Id;
    EXPECT_EQ(Frames[I].ErrorField,
              std::string("no function '") + Names[I] + "' in the program");
    EXPECT_TRUE(Frames[I].Body.empty()) << Frames[I].Id;
  }
  EXPECT_EQ(Frames[3].Id, "tcas");
  EXPECT_EQ(Frames[3].Status, "ok") << Frames[3].ErrorField;
  std::remove(Batch.c_str());
}

// --- protocol details ---------------------------------------------------------

TEST(ServeLib, FramesCarryTheDocumentedFieldsInRequestOrder) {
  // Exercises the remaining documented request fields (entry, model,
  // timeout, max_memory_mb, wcnf inline) and checks every
  // trailer key on every response, with responses in request order at a
  // width above one.
  std::string EntryProgram = "int check(int x) {\n"
                             "  int y = x + 1;\n"
                             "  assert(y != 4);\n"
                             "  return y;\n"
                             "}\n";
  std::string NoBugProgram = "int main(int x) {\n"
                             "  assert(x >= 0 || x < 0);\n"
                             "  return x;\n"
                             "}\n";
  std::string Wcnf = "p wcnf 2 3 10\n10 1 0\n1 2 0\n2 -2 0\n";
  std::string Batch =
      "{\"id\":\"r0\",\"cmd\":\"localize\",\"source\":\"" +
      jsonEscape(EntryProgram) +
      "\",\"entry\":\"check\",\"input\":\"3\","
      "\"timeout\":600,\"max_memory_mb\":2048}\n"
      "{\"id\":\"r1\",\"cmd\":\"localize\",\"source\":\"" +
      jsonEscape(NoBugProgram) + "\"}\n"
      "{\"id\":\"r2\",\"cmd\":\"maxsat\",\"wcnf\":\"" + jsonEscape(Wcnf) +
      "\",\"model\":false}\n"
      "{\"id\":\"r3\",\"cmd\":\"maxsat\",\"wcnf\":\"" + jsonEscape(Wcnf) +
      "\"}\n";
  LibRun R = runServe(Batch, /*Threads=*/4);
  ASSERT_EQ(R.Frames.size(), 4u);

  EXPECT_EQ(R.Frames[0].Id, "r0");
  EXPECT_EQ(R.Frames[0].Status, "ok");
  EXPECT_NE(R.Frames[0].Body.find("failing input: 3"), std::string::npos)
      << R.Frames[0].Body;

  // No counterexample within bounds: still ok, explanatory body.
  EXPECT_EQ(R.Frames[1].Id, "r1");
  EXPECT_EQ(R.Frames[1].Status, "ok");
  EXPECT_EQ(R.Frames[1].Exit, 0);
  EXPECT_NE(R.Frames[1].Body.find("no spec violation"), std::string::npos)
      << R.Frames[1].Body;

  // model:false suppresses the v-line and nothing else (unit weight-2
  // soft clause -2 falsified keeps weight-1 soft 2 true, or vice versa:
  // optimum cost 1 either way).
  EXPECT_EQ(R.Frames[2].Id, "r2");
  EXPECT_EQ(R.Frames[2].Body, "o 1\ns OPTIMUM FOUND\n");
  EXPECT_EQ(R.Frames[3].Id, "r3");
  EXPECT_NE(R.Frames[3].Body.find("s OPTIMUM FOUND\n"), std::string::npos);
  EXPECT_NE(R.Frames[3].Body.find("v "), std::string::npos);

  const std::vector<std::string> Keys = {
      "id",           "elapsed_ms",      "sat_calls",
      "conflicts",    "decisions",       "propagations",
      "restarts",     "vars_eliminated", "clauses_subsumed",
      "lits_self_subsumed", "reconstruction_bytes"};
  for (const Frame &F : R.Frames) {
    std::vector<std::string> Got;
    for (const auto &KV : F.Trailer.Members)
      Got.push_back(KV.first);
    EXPECT_EQ(Got, Keys) << "trailer keys for id " << F.Id;
  }
}

TEST(ServeLib, LargeWeightsAreSolved) {
  // Weights in the millions (bench/instances/big_weights.wcnf): the
  // optimum sets 2 and falsifies only the weight-3000000 clause -2.
  std::string Wcnf = "p wcnf 3 5 100000000\n"
                     "5000000 -1 0\n"
                     "3000000 -2 0\n"
                     "4000000 2 3 0\n"
                     "2000000 -3 0\n"
                     "100000000 1 2 0\n";
  LibRun R = runServe("{\"id\":\"big\",\"cmd\":\"maxsat\",\"wcnf\":\"" +
                          jsonEscape(Wcnf) + "\",\"model\":false}\n",
                      /*Threads=*/1);
  ASSERT_EQ(R.Frames.size(), 1u);
  EXPECT_EQ(R.Frames[0].Status, "ok") << R.Frames[0].ErrorField;
  EXPECT_EQ(R.Frames[0].Body, "o 3000000\ns OPTIMUM FOUND\n");
}

TEST(ServeCli, BatchFileMustExistAndThreadsMustBeSane) {
  int Exit = 0;
  runCommand(Cli + " serve --batch /nonexistent/batch.jsonl 2>/dev/null",
             Exit);
  EXPECT_EQ(exitStatus(Exit), 1);
  runCommand(Cli + " serve --threads 0 --batch /dev/null 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 1);
  runCommand(Cli + " serve --threads 65 --batch /dev/null 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 1);
  // An empty batch is a clean, zero-request run.
  std::string Out =
      runCommand(Cli + " serve --batch /dev/null 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 0);
  EXPECT_TRUE(Out.empty());
}

// --- the ordered emitter ------------------------------------------------------

TEST(OrderedEmitterUnit, FlushesContiguousRunAsSoonAsNextArrives) {
  std::ostringstream Out;
  OrderedEmitter E(Out);
  E.emit(1, "B");
  EXPECT_EQ(E.written(), 0u); // stalled behind the missing index 0
  EXPECT_EQ(E.pending(), 1u);
  EXPECT_TRUE(Out.str().empty());
  E.emit(0, "A"); // completes the run: both flush in one go, in order
  EXPECT_EQ(Out.str(), "AB");
  EXPECT_EQ(E.written(), 2u);
  EXPECT_EQ(E.pending(), 0u);
}

TEST(OrderedEmitterUnit, OutOfOrderCompletionWithErrorsInterleaved) {
  // The serve reality: successes, errors, and incompletes complete in
  // scheduler order, not request order; the stream must still read
  // 0,1,2,3,4 with every payload whole.
  std::ostringstream Out;
  OrderedEmitter E(Out);
  E.emit(3, "[3:error]");
  E.emit(1, "[1:incomplete]");
  E.emit(4, "[4:ok]");
  EXPECT_TRUE(Out.str().empty());
  E.emit(0, "[0:ok]"); // flushes 0 and 1
  EXPECT_EQ(Out.str(), "[0:ok][1:incomplete]");
  E.emit(2, "[2:ok]"); // flushes the rest
  EXPECT_EQ(Out.str(), "[0:ok][1:incomplete][2:ok][3:error][4:ok]");
  EXPECT_EQ(E.written(), 5u);
}

TEST(OrderedEmitterUnit, EmitIsIdempotentPerIndexAndFirstPayloadWins) {
  std::ostringstream Out;
  OrderedEmitter E(Out);
  E.emit(1, "original");
  E.emit(1, "retry"); // a crashed worker's retry: dropped while pending
  E.emit(0, "head");
  EXPECT_EQ(Out.str(), "headoriginal");
  E.emit(0, "late"); // and dropped after writing, too
  E.emit(1, "later");
  EXPECT_EQ(Out.str(), "headoriginal");
  EXPECT_EQ(E.written(), 2u);
}

TEST(OrderedEmitterUnit, WriterDeathLeavesNoPartialFrameAndPayloadSurvives) {
  // A worker dying inside emit() -- after recording, before writing --
  // must leave zero bytes on the stream (no partial frame), and the
  // recorded payload must still come out whole, written exactly once by
  // whoever flushes next.
  std::ostringstream Out;
  OrderedEmitter E(Out);
  {
    faultinject::ScopedFault Fault("emitterflush:badalloc@1");
    EXPECT_THROW(E.emit(0, "whole frame\n"), std::bad_alloc);
  }
  EXPECT_TRUE(Out.str().empty()); // nothing partial escaped
  EXPECT_EQ(E.pending(), 1u);     // but the payload is safely recorded
  E.emit(0, "the retry's recomputation"); // first payload wins
  EXPECT_EQ(Out.str(), "whole frame\n");
  EXPECT_EQ(E.written(), 1u);
}

// --- self-healing under injected faults ---------------------------------------

namespace {

/// Soft pigeonhole WCNF text: every clause soft at weight 1, empty hard
/// part. The first Fu-Malik core needs the full PHP refutation -- far
/// beyond any test budget for Holes >= 9 -- but the anytime upper bound
/// and witness are instant, so budget/watchdog/drain interruptions all
/// come back `incomplete` fast.
std::string softPigeonWcnf(int Holes) {
  int Pigeons = Holes + 1;
  auto V = [&](int P, int H) { return P * Holes + H + 1; };
  std::vector<std::string> Lines;
  for (int P = 0; P < Pigeons; ++P) {
    std::string L = "1";
    for (int H = 0; H < Holes; ++H)
      L += " " + std::to_string(V(P, H));
    Lines.push_back(L + " 0");
  }
  for (int H = 0; H < Holes; ++H)
    for (int P = 0; P < Pigeons; ++P)
      for (int Q = P + 1; Q < Pigeons; ++Q)
        Lines.push_back("1 -" + std::to_string(V(P, H)) + " -" +
                        std::to_string(V(Q, H)) + " 0");
  std::string Out = "p wcnf " + std::to_string(Pigeons * Holes) + " " +
                    std::to_string(Lines.size()) + " 1000\n";
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

/// Compares the deterministic frame fields (id, status, exit, code, body)
/// of two runs; cache hit/miss attribution is scheduling-dependent at
/// widths above one and deliberately excluded.
void expectSameFrames(const std::vector<Frame> &Got,
                      const std::vector<Frame> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    EXPECT_EQ(Got[I].Id, Want[I].Id) << "frame " << I;
    EXPECT_EQ(Got[I].Status, Want[I].Status) << "frame " << I;
    EXPECT_EQ(Got[I].Exit, Want[I].Exit) << "frame " << I;
    EXPECT_EQ(Got[I].Code, Want[I].Code) << "frame " << I;
    EXPECT_EQ(Got[I].Body, Want[I].Body) << "frame " << I;
  }
}

} // namespace

TEST(ServeSelfHealing, CacheFillCrashIsRetriedAndTheEntryIsNotPoisoned) {
  // The first fill of the cache entry throws, killing the worker inside
  // lookup(). The entry must not be poisoned: the respawned worker's
  // retry re-runs the build under the same key and both requests succeed,
  // byte-identical to the fault-free run.
  std::string Req = "{\"cmd\":\"localize\",\"source\":\"" +
                    jsonEscape(ArrayProgram) + "\"}";
  std::string Batch = Req + "\n" + Req + "\n";
  LibRun Clean = runServe(Batch, /*Threads=*/1);
  ASSERT_EQ(Clean.Summary.Ok, 2u);

  LibRun Faulty;
  {
    faultinject::ScopedFault Fault("cachefill:badalloc@1");
    Faulty = runServe(Batch, /*Threads=*/1);
  }
  EXPECT_EQ(Faulty.Summary.Ok, 2u);
  EXPECT_EQ(Faulty.Summary.Errors, 0u);
  EXPECT_EQ(Faulty.Summary.Respawns, 1u) << Faulty.ErrLine;
  EXPECT_EQ(Faulty.Summary.Retries, 1u) << Faulty.ErrLine;
  EXPECT_EQ(Faulty.Summary.ExitCode, 0);
  expectSameFrames(Faulty.Frames, Clean.Frames);
}

TEST(ServeSelfHealing, PreprocessCrashHealsAndTheBaseSessionIsNotPoisoned) {
  // The injected OOM escapes from the cached base session's preprocess
  // inside cloneSession(); the half-built base must be dropped (not left
  // mid-pass for the next clone), the worker respawned, and the retry
  // must rebuild and answer identically to the fault-free run.
  std::string Req = "{\"cmd\":\"localize\",\"source\":\"" +
                    jsonEscape(ArrayProgram) + "\"}";
  std::string Batch = Req + "\n" + Req + "\n";
  LibRun Clean = runServe(Batch, /*Threads=*/1);
  ASSERT_EQ(Clean.Summary.Ok, 2u);

  LibRun Faulty;
  {
    faultinject::ScopedFault Fault("simplify:badalloc@1");
    Faulty = runServe(Batch, /*Threads=*/1);
  }
  EXPECT_EQ(Faulty.Summary.Ok, 2u);
  EXPECT_EQ(Faulty.Summary.Respawns, 1u) << Faulty.ErrLine;
  EXPECT_EQ(Faulty.Summary.Retries, 1u) << Faulty.ErrLine;
  EXPECT_EQ(Faulty.Summary.ExitCode, 0);
  expectSameFrames(Faulty.Frames, Clean.Frames);
}

TEST(ServeSelfHealing, RetriesExhaustedYieldsWorkerCrashedErrorResponse) {
  // Every cache fill crashes (period 1): the initial attempt and the
  // single allowed retry both die, so the request must come back as a
  // structured worker-crashed error -- not vanish, not hang -- and the
  // pool must end the run at full strength.
  std::string Batch = "{\"id\":\"doomed\",\"cmd\":\"localize\",\"source\":\"" +
                      jsonEscape(ArrayProgram) + "\"}\n";
  ServeOptions SO;
  SO.Threads = 1;
  SO.MaxRetries = 1;
  SO.RetryBackoffMs = 0.1;
  LibRun R;
  {
    faultinject::ScopedFault Fault("cachefill:badalloc@1/1");
    R = runServeOpts(Batch, SO);
  }
  ASSERT_EQ(R.Frames.size(), 1u);
  EXPECT_EQ(R.Frames[0].Id, "doomed");
  EXPECT_EQ(R.Frames[0].Status, "error");
  EXPECT_EQ(R.Frames[0].Code, "worker-crashed");
  EXPECT_NE(R.Frames[0].ErrorField.find("worker crashed on every attempt"),
            std::string::npos)
      << R.Frames[0].ErrorField;
  EXPECT_EQ(R.Summary.Errors, 1u);
  EXPECT_EQ(R.Summary.Retries, 1u);
  EXPECT_EQ(R.Summary.Respawns, 2u); // both attempts died
  EXPECT_EQ(R.Summary.ExitCode, 1);
}

TEST(ServeSelfHealing, ErrorCodesClassifyOutcomesInTheHeader) {
  std::string Batch =
      "{\"id\":\"bad\",\"cmd\":\"sat\"}\n"
      "{\"id\":\"nofile\",\"cmd\":\"sat\",\"file\":\"/nonexistent.cnf\"}\n"
      "{\"id\":\"ok\",\"cmd\":\"sat\",\"cnf\":\"p cnf 1 1\\n1 0\\n\"}\n"
      "{\"id\":\"slow\",\"cmd\":\"maxsat\",\"wcnf\":\"" +
      jsonEscape(softPigeonWcnf(9)) + "\",\"max_conflicts\":1}\n";
  LibRun R = runServe(Batch, /*Threads=*/1);
  ASSERT_EQ(R.Frames.size(), 4u);
  EXPECT_EQ(R.Frames[0].Code, "bad-request");
  EXPECT_EQ(R.Frames[1].Code, "file-unreadable");
  EXPECT_EQ(R.Frames[2].Code, "ok");
  EXPECT_EQ(R.Frames[3].Status, "incomplete");
  EXPECT_EQ(R.Frames[3].Code, "budget-exhausted");
}

TEST(ServeSelfHealing, WatchdogEscalatesOverdueQueries) {
  // The soft-PHP(9) Fu-Malik core is far beyond any test-scale search, so
  // without the watchdog this request would run (nearly) forever. The
  // watchdog must interrupt it, the response must be an honest
  // `incomplete` with the anytime bound, and the next request must be
  // unaffected.
  std::string Batch = "{\"id\":\"stuck\",\"cmd\":\"maxsat\",\"wcnf\":\"" +
                      jsonEscape(softPigeonWcnf(9)) +
                      "\"}\n"
                      "{\"id\":\"after\",\"cmd\":\"sat\",\"cnf\":\"p cnf 1 1"
                      "\\n1 0\\n\"}\n";
  ServeOptions SO;
  SO.Threads = 1;
  SO.WatchdogSeconds = 0.25;
  LibRun R = runServeOpts(Batch, SO);
  ASSERT_EQ(R.Frames.size(), 2u);
  EXPECT_EQ(R.Frames[0].Id, "stuck");
  EXPECT_EQ(R.Frames[0].Status, "incomplete");
  EXPECT_EQ(R.Frames[0].Exit, 2);
  EXPECT_NE(R.Frames[0].Body.find("s UNKNOWN"), std::string::npos)
      << R.Frames[0].Body;
  EXPECT_EQ(R.Frames[1].Id, "after");
  EXPECT_EQ(R.Frames[1].Status, "ok");
  EXPECT_EQ(R.Summary.Incomplete, 1u);
  EXPECT_EQ(R.Summary.ExitCode, 2);
}

namespace {

/// An istream buffer that serves a fixed prefix, then *blocks* on
/// underflow until feed() or release() -- a stand-in for a daemon's idle
/// stdin, so drain tests can interrupt a server that is mid-batch rather
/// than one that already saw EOF, and ordering tests can send a request
/// only after an earlier one was answered.
class BlockingStringBuf : public std::streambuf {
public:
  explicit BlockingStringBuf(std::string T) : Text(std::move(T)) {
    setg(Text.data(), Text.data(), Text.data() + Text.size());
  }
  /// Appends \p More to what the reader sees next.
  void feed(std::string More) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Pending += More;
    }
    Cv.notify_all();
  }
  /// Ends the stream once everything fed was read.
  void release() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Released = true;
    }
    Cv.notify_all();
  }

protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Released || !Pending.empty(); });
    if (Pending.empty())
      return traits_type::eof();
    Text = std::move(Pending);
    Pending.clear();
    setg(Text.data(), Text.data(), Text.data() + Text.size());
    return traits_type::to_int_type(Text[0]);
  }

private:
  std::string Text;
  std::string Pending;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Released = false;
};

/// An ostream buffer that counts the frames flushed into it, so a test can
/// wait for a response. Only the writer touches the text until the server
/// returns.
class FrameCountingBuf : public std::stringbuf {
public:
  void waitForFrames(size_t N) {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Frames >= N; });
  }

protected:
  int sync() override {
    size_t N = 0;
    for (size_t Pos = 0;
         (Pos = str().find("\"elapsed_ms\":", Pos)) != std::string::npos;
         ++Pos)
      ++N; // one trailer per frame
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Frames = N;
    }
    Cv.notify_all();
    return 0;
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  size_t Frames = 0;
};

} // namespace

TEST(ServeSelfHealing, DrainAnswersEveryAcceptedRequestExactlyOnce) {
  // Three unboundedly slow requests, width 1: one is in flight when the
  // drain arrives, the others are still queued (the pool's own-deque pop
  // order is newest-first, so which one is in flight is a scheduling
  // accident -- the assertions below are order-agnostic). The drain must
  // interrupt the in-flight solve (-> incomplete), answer the queued ones
  // with `cancelled`, and produce exactly one well-formed frame per id.
  std::string Slow = jsonEscape(softPigeonWcnf(9));
  std::string Batch =
      "{\"id\":\"r0\",\"cmd\":\"maxsat\",\"wcnf\":\"" + Slow + "\"}\n" +
      "{\"id\":\"r1\",\"cmd\":\"maxsat\",\"wcnf\":\"" + Slow + "\"}\n" +
      "{\"id\":\"r2\",\"cmd\":\"maxsat\",\"wcnf\":\"" + Slow + "\"}\n";
  BlockingStringBuf Buf(Batch);
  std::istream In(&Buf);
  std::ostringstream Out, Err;
  ServeOptions SO;
  SO.Threads = 1;
  LocalizeServer Server(SO);
  ServeSummary Summary;
  std::thread Runner([&] { Summary = Server.run(In, Out, Err); });
  // Let the slow solve get going, then drain -- exactly what the CLI's
  // SIGTERM handler does -- and unblock the (daemon-idle) input stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  LocalizeServer::requestDrain();
  Buf.release();
  Runner.join();

  std::vector<Frame> Frames = parseFrames(Out.str());
  ASSERT_EQ(Frames.size(), 3u);
  size_t Incomplete = 0, Cancelled = 0;
  for (size_t I = 0; I < 3; ++I) {
    const Frame &F = Frames[I];
    EXPECT_EQ(F.Id, "r" + std::to_string(I)); // response order == intake order
    EXPECT_EQ(F.Exit, 2) << "id " << F.Id;
    if (F.Status == "incomplete") {
      ++Incomplete; // the interrupted in-flight solve: honest anytime answer
      EXPECT_NE(F.Body.find("s UNKNOWN"), std::string::npos) << F.Body;
    } else {
      ++Cancelled;
      EXPECT_EQ(F.Status, "cancelled") << "id " << F.Id;
      EXPECT_EQ(F.Code, "cancelled") << "id " << F.Id;
      EXPECT_TRUE(F.Body.empty()) << "id " << F.Id;
    }
  }
  EXPECT_EQ(Incomplete, 1u);
  EXPECT_EQ(Cancelled, 2u);
  EXPECT_TRUE(Summary.Drained);
  EXPECT_EQ(Summary.Cancelled, 2u);
  EXPECT_EQ(Summary.Incomplete, 1u);
  EXPECT_EQ(Summary.ExitCode, 2);
}

// --- one cancellation path: the request's budget -----------------------------

namespace {

/// Two nested countdown loops (CI's nest.ba): without an input, the BMC
/// counterexample search runs for seconds at unwind 60.
const char *NestProgram = "int main(int n, int m) {\n"
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
                          "}\n";

/// Localizes in milliseconds, but its right fix (line 6, `d = 0`) leaves
/// the verifier a proof that 16-bit multiplication commutes: seconds of
/// search per candidate, all inside candidate verification.
const char *CommuteProgram = "int main(int x, int y) {\n"
                             "  int a = x * y;\n"
                             "  int b = y * x;\n"
                             "  int d = 0;\n"
                             "  if (x == 3)\n"
                             "    d = 1;\n"
                             "  assert(a - b + d == 0);\n"
                             "  return d;\n"
                             "}\n";

std::string commuteRepairRequest(const std::string &Id) {
  return "{\"id\":\"" + Id + "\",\"cmd\":\"repair\",\"source\":\"" +
         jsonEscape(CommuteProgram) + "\",\"inputs\":[\"3,5\"]}\n";
}

double secondsSince(std::chrono::steady_clock::time_point T) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T)
      .count();
}

} // namespace

TEST(ServeCancel, WatchdogBoundsTheCounterexampleSearch) {
  // The watchdog is the request's deadline, so it stops the BMC search
  // too: the answer is the one INCOMPLETE line, not a localization of
  // whatever input the search found after the deadline.
  std::string Batch = "{\"id\":\"nest\",\"cmd\":\"localize\",\"source\":\"" +
                      jsonEscape(NestProgram) +
                      "\",\"unwind\":60,\"bitwidth\":8}\n";
  ServeOptions SO;
  SO.WatchdogSeconds = 0.25;
  LibRun R = runServeOpts(Batch, SO);
  ASSERT_EQ(R.Frames.size(), 1u);
  EXPECT_EQ(R.Frames[0].Status, "incomplete");
  EXPECT_EQ(R.Frames[0].Exit, 2);
  EXPECT_EQ(R.Frames[0].Body,
            "INCOMPLETE: resource budget exhausted before the counterexample "
            "search found a failing input\n");
}

TEST(ServeCancel, WatchdogStopsARepairInsideCandidateVerification) {
  // Localization and the prescreen finish well inside the watchdog; the
  // second candidate's verification does not, and the deadline stops it
  // there instead of letting it run its full conflict budget.
  ServeOptions SO;
  SO.WatchdogSeconds = 1.5;
  auto Start = std::chrono::steady_clock::now();
  LibRun R = runServeOpts(commuteRepairRequest("c"), SO);
  ASSERT_EQ(R.Frames.size(), 1u);
  EXPECT_EQ(R.Frames[0].Status, "incomplete");
  EXPECT_EQ(R.Frames[0].Exit, 2);
  EXPECT_EQ(R.Frames[0].Body,
            "failing input: 3,5\n"
            "suspect lines: 6 5 3 2\n"
            "prescreen: 0 of 4 lines ruled out (4 sat calls)\n"
            "candidates: 2 tried of 7 planned (1 failed tests, 1 failed "
            "verification)\n"
            "repair: NONE within candidate budget (more candidates exist)\n");
  EXPECT_LT(secondsSince(Start), 10.0);
}

TEST(ServeCancel, DrainDuringARepairAnswersEveryRequestExactlyOnce) {
  // The drain reaches the in-flight repair through its budget's cancel
  // flag wherever it is -- here inside a candidate's verification -- and
  // the queued repairs answer `cancelled`: one frame per id, promptly.
  std::string Batch = commuteRepairRequest("r0") +
                      commuteRepairRequest("r1") +
                      commuteRepairRequest("r2");
  BlockingStringBuf Buf(Batch);
  std::istream In(&Buf);
  std::ostringstream Out, Err;
  LocalizeServer Server(ServeOptions{});
  ServeSummary Summary;
  std::thread Runner([&] { Summary = Server.run(In, Out, Err); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto Drained = std::chrono::steady_clock::now();
  LocalizeServer::requestDrain();
  Buf.release();
  Runner.join();
  EXPECT_LT(secondsSince(Drained), 10.0);

  std::vector<Frame> Frames = parseFrames(Out.str());
  ASSERT_EQ(Frames.size(), 3u);
  size_t Incomplete = 0, Cancelled = 0;
  for (size_t I = 0; I < 3; ++I) {
    const Frame &F = Frames[I];
    EXPECT_EQ(F.Id, "r" + std::to_string(I));
    EXPECT_EQ(F.Exit, 2) << "id " << F.Id;
    if (F.Status == "incomplete") {
      ++Incomplete;
      EXPECT_NE(F.Body.find("repair: NONE within candidate budget"),
                std::string::npos)
          << F.Body;
    } else {
      ++Cancelled;
      EXPECT_EQ(F.Status, "cancelled") << "id " << F.Id;
    }
  }
  EXPECT_EQ(Incomplete, 1u);
  EXPECT_EQ(Cancelled, 2u);
  EXPECT_EQ(Summary.Cancelled, 2u);
  EXPECT_EQ(Summary.Incomplete, 1u);
}

TEST(ServeCancel, ABaseBuildTheTimeoutStoppedIsNotCached) {
  // The first request's timeout stops the base session's preprocessing
  // (or, on a slow build, arrives before it starts). The next same-key
  // request has no timeout and must get what a fresh server answers --
  // report and preprocessing counters -- so no stopped base was cached.
  std::string Fields = "\"cmd\":\"localize\",\"source\":\"" +
                       jsonEscape(NestProgram) +
                       "\",\"unwind\":30,\"bitwidth\":8,\"input\":\"3,48\","
                       "\"max_diagnoses\":1";
  std::string Timed = "{\"id\":\"t\"," + Fields + ",\"timeout\":0.2}\n";
  std::string Full = "{\"id\":\"f\"," + Fields + "}\n";
  LibRun Fresh = runServe(Full, /*Threads=*/1);
  ASSERT_EQ(Fresh.Frames.size(), 1u);
  ASSERT_EQ(Fresh.Frames[0].Status, "ok");

  // Send the second request only once the first was answered.
  BlockingStringBuf Buf(Timed);
  std::istream In(&Buf);
  FrameCountingBuf OutBuf;
  std::ostream Out(&OutBuf);
  std::ostringstream Err;
  LocalizeServer Server(ServeOptions{});
  ServeSummary Summary;
  std::thread Runner([&] { Summary = Server.run(In, Out, Err); });
  OutBuf.waitForFrames(1);
  Buf.feed(Full);
  Buf.release();
  Runner.join();

  std::vector<Frame> Frames = parseFrames(OutBuf.str());
  ASSERT_EQ(Frames.size(), 2u);
  EXPECT_EQ(Frames[0].Status, "incomplete");
  EXPECT_EQ(Frames[0].Exit, 2);
  EXPECT_EQ(Frames[1].Status, "ok");
  EXPECT_EQ(Frames[1].CacheField, "hit");
  EXPECT_EQ(Frames[1].Body, Fresh.Frames[0].Body);
  for (const char *Key : {"vars_eliminated", "clauses_subsumed",
                          "lits_self_subsumed", "reconstruction_bytes"}) {
    const JsonValue *Got = Frames[1].Trailer.find(Key);
    const JsonValue *Want = Fresh.Frames[0].Trailer.find(Key);
    ASSERT_TRUE(Got && Want) << Key;
    EXPECT_EQ(Got->Text, Want->Text) << Key;
  }
  EXPECT_EQ(Summary.CacheMisses, 1u);
}

TEST(ServeCancel, ACancelledBasePassIsHandedOutButNotCached) {
  // The cache build itself, without timing: a pass the cancel flag stops
  // at its first poll goes to that caller alone, carries no budget, and
  // the next clone gets a freshly built, fully preprocessed base.
  FormulaCache Cache;
  const CachedProgram &CP =
      Cache.lookup(NestProgram, "main", UnrollOptions{}, EncodeOptions{});
  ASSERT_NE(CP.prepared(), nullptr);
  std::atomic<bool> Cancel{true};
  Solver::Budget B;
  B.Cancel = &Cancel;
  std::unique_ptr<MaxSatSession> Stopped = CP.cloneSession(B);
  EXPECT_EQ(Stopped->stats().VarsEliminated, 0u);
  EXPECT_TRUE(Stopped->solver().budget().unlimited());
  std::unique_ptr<MaxSatSession> First = CP.cloneSession();
  std::unique_ptr<MaxSatSession> Second = CP.cloneSession(B);
  EXPECT_GT(First->stats().VarsEliminated, 0u);
  EXPECT_EQ(Second->stats().VarsEliminated, First->stats().VarsEliminated);
  EXPECT_TRUE(Second->solver().budget().unlimited());
}

// --- the checked-in smoke batch -----------------------------------------------

TEST(ServeCli, CheckedInSmokeBatchRunsClean) {
  // bench/serve/tcas_smoke.jsonl is what CI's serve-smoke job replays;
  // keep it green from the test suite too so a stale batch file cannot
  // pass review. Location-independent: TCAS programs are baked in.
  std::string Batch = Instances + "/../serve/tcas_smoke.jsonl";
  int Exit = 0;
  std::string Out = runCommand(
      Cli + " serve --batch " + Batch + " --threads 2 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 0);
  std::vector<Frame> Frames = parseFrames(Out);
  ASSERT_FALSE(Frames.empty());
  for (const Frame &F : Frames) {
    EXPECT_EQ(F.Status, "ok") << "id " << F.Id << ": " << F.ErrorField;
    EXPECT_EQ(F.Exit, 0);
  }
}

// --- repair requests ----------------------------------------------------------

namespace {

const char *OffByOneProgram = "int main(int x) {\n"
                              "  int y;\n"
                              "  y = 0;\n"
                              "  if (x < 10) {\n"
                              "    y = 1;\n"
                              "  }\n"
                              "  return y;\n"
                              "}\n";

} // namespace

TEST(ServeRepair, BodyMatchesOneShotCliAndCachesTheProgram) {
  // A repair response body is the `bugassist repair` stdout byte for
  // byte, and the compiled program is shared with the localize cache: a
  // repeated request must hit.
  std::string SrcFile = writeTempFile(OffByOneProgram);
  int Exit = 0;
  std::string TextExpected = runCommand(
      Cli + " repair " + SrcFile + " --input \"10\" --golden 1", Exit);
  ASSERT_EQ(exitStatus(Exit), 0);
  ASSERT_NE(TextExpected.find("repair: line 4: '<' -> '<='"),
            std::string::npos)
      << TextExpected;
  std::string JsonExpected = runCommand(
      Cli + " repair " + SrcFile + " --input \"10\" --golden 1 --json",
      Exit);
  ASSERT_EQ(exitStatus(Exit), 0);

  std::string Fields = "\"cmd\":\"repair\",\"source\":\"" +
                       jsonEscape(OffByOneProgram) +
                       "\",\"inputs\":[\"10\"],\"goldens\":[1]";
  std::string Batch = "{\"id\":\"r1\"," + Fields + "}\n" +
                      "{\"id\":\"r2\"," + Fields + "}\n" +
                      "{\"id\":\"rj\"," + Fields + ",\"json\":true}\n";
  LibRun R = runServe(Batch, /*Threads=*/1);
  ASSERT_EQ(R.Frames.size(), 3u);
  for (const Frame &F : R.Frames) {
    EXPECT_EQ(F.Cmd, "repair");
    EXPECT_EQ(F.Status, "ok");
    EXPECT_EQ(F.Exit, 0);
    EXPECT_EQ(F.Code, "ok");
  }
  // One program, three requests: exactly one build. Which request pays
  // the miss is scheduling-dependent (the pool pops newest-first), so
  // only the totals are asserted.
  int Misses = 0, Hits = 0;
  for (const Frame &F : R.Frames) {
    Misses += F.CacheField == "miss";
    Hits += F.CacheField == "hit";
  }
  EXPECT_EQ(Misses, 1);
  EXPECT_EQ(Hits, 2);
  EXPECT_EQ(R.Frames[0].Body, TextExpected);
  EXPECT_EQ(R.Frames[1].Body, TextExpected) << "cache-hit body diverged";
  EXPECT_EQ(R.Frames[2].Body, JsonExpected);
  std::remove(SrcFile.c_str());
}

TEST(ServeRepair, RequestValidationRejectsBadTestVectors) {
  // No inputs at all, and a goldens array of the wrong length: both are
  // request errors that must not kill the daemon or touch the cache.
  std::string Batch =
      "{\"id\":\"noin\",\"cmd\":\"repair\",\"source\":\"" +
      jsonEscape(OffByOneProgram) + "\"}\n" +
      "{\"id\":\"skew\",\"cmd\":\"repair\",\"source\":\"" +
      jsonEscape(OffByOneProgram) +
      "\",\"inputs\":[\"10\"],\"goldens\":[1,2]}\n" +
      "{\"id\":\"ok\",\"cmd\":\"repair\",\"source\":\"" +
      jsonEscape(OffByOneProgram) +
      "\",\"inputs\":[\"10\"],\"goldens\":[1]}\n";
  LibRun R = runServe(Batch, /*Threads=*/1);
  ASSERT_EQ(R.Frames.size(), 3u);
  EXPECT_EQ(R.Frames[0].Status, "error");
  EXPECT_NE(R.Frames[0].ErrorField.find("inputs"), std::string::npos)
      << R.Frames[0].ErrorField;
  EXPECT_EQ(R.Frames[1].Status, "error");
  EXPECT_NE(R.Frames[1].ErrorField.find("goldens"), std::string::npos)
      << R.Frames[1].ErrorField;
  EXPECT_EQ(R.Frames[2].Status, "ok");
  EXPECT_NE(R.Frames[2].Body.find("repair: line 4: '<' -> '<='"),
            std::string::npos)
      << R.Frames[2].Body;
}

TEST(ServeRepair, TcasFramesMatchOneShotCliAtWidthsOneAndTwo) {
  // The prescreen runs on a clone of the request's cloned base session in
  // serve and on a clone of the one-shot session in the CLI; the bodies,
  // `prescreen:` counters included, must still be the same bytes.
  const TcasFailure &F = tcasV2Failure();
  std::string Flags = " --no-obligations --no-bounds --bitwidth 16"
                      " --hard-lines 69-84 --max-diagnoses 24";
  int Exit = 0;
  std::string V2 = writeTempFile(runCommand(Cli + " dump-tcas 2", Exit));
  ASSERT_EQ(exitStatus(Exit), 0);
  std::string Expected =
      runCommand(Cli + " repair " + V2 + " --input \"" + F.Input +
                     "\" --golden " + std::to_string(F.Golden) + Flags,
                 Exit);
  ASSERT_EQ(exitStatus(Exit), 0) << Expected;
  ASSERT_NE(Expected.find("\nprescreen: "), std::string::npos) << Expected;
  ASSERT_EQ(Expected.find("prescreen: 0 of"), std::string::npos)
      << "the prescreen must rule lines out here to be compared at all";

  std::string Fields =
      "\"cmd\":\"repair\",\"tcas\":2,\"inputs\":[\"" + F.Input +
      "\"],\"goldens\":[" + std::to_string(F.Golden) +
      "],\"check_obligations\":false,\"bounds\":false,\"bitwidth\":16,"
      "\"hard_lines\":\"69-84\",\"max_diagnoses\":24";
  std::string Batch = "{\"id\":\"r1\"," + Fields + "}\n" +
                      "{\"id\":\"r2\"," + Fields + "}\n";
  for (size_t Threads : {1u, 2u}) {
    LibRun R = runServe(Batch, Threads);
    ASSERT_EQ(R.Frames.size(), 2u);
    for (const Frame &Fr : R.Frames) {
      EXPECT_EQ(Fr.Status, "ok") << Fr.ErrorField;
      EXPECT_EQ(Fr.Body, Expected) << "width " << Threads << " id " << Fr.Id;
    }
  }
  std::remove(V2.c_str());
}

// Hostile nesting is rejected per request: a 20,000-deep expression is a
// compile error, a line of 50,000 nested JSON arrays is a bad request, and
// the request after them is still answered. Run through the CLI so a stack
// overflow would show as a lost process with missing frames.
TEST(ServeCli, DeepNestingIsRejectedAndTheBatchGoesOn) {
  std::string DeepSource = "int main(int x) {\n  return " +
                           std::string(20000, '(') + "x" +
                           std::string(20000, ')') + ";\n}\n";
  std::string Batch = writeTempFile(
      "{\"id\":\"deep-src\",\"cmd\":\"localize\",\"source\":\"" +
      jsonEscape(DeepSource) + "\",\"input\":\"1\",\"golden\":2}\n" +
      std::string(50000, '[') + std::string(50000, ']') + "\n" +
      "{\"id\":\"after\",\"cmd\":\"sat\",\"cnf\":\"" +
      jsonEscape("p cnf 1 1\n1 0\n") + "\"}\n");
  int Exit = 0;
  std::string Out = runCommand(
      Cli + " serve --batch " + Batch + " --threads 2 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 1); // the aggregate code: some request failed
  std::vector<Frame> Frames = parseFrames(Out);
  ASSERT_EQ(Frames.size(), 3u) << Out.substr(0, 500);
  EXPECT_EQ(Frames[0].Id, "deep-src");
  EXPECT_EQ(Frames[0].Code, "compile-error");
  EXPECT_NE(Frames[0].ErrorField.find("nesting deeper than"),
            std::string::npos)
      << Frames[0].ErrorField;
  EXPECT_EQ(Frames[1].Status, "error");
  EXPECT_EQ(Frames[1].Code, "bad-request");
  EXPECT_NE(Frames[1].ErrorField.find("nesting deeper than"),
            std::string::npos)
      << Frames[1].ErrorField;
  EXPECT_EQ(Frames[2].Id, "after");
  EXPECT_EQ(Frames[2].Status, "ok");
  EXPECT_EQ(Frames[2].Body, "s SATISFIABLE\nv 1 0\n");
  std::remove(Batch.c_str());
}
