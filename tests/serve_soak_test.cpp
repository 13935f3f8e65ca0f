//===- serve_soak_test.cpp - serve self-healing soak tests ----------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The tentpole acceptance proof for the self-healing serve pool: a batch
// of ~1000 mixed requests replayed at widths 1, 2, and 4 under an active
// fault-injection campaign (queue-pop, emitter-flush, cache-fill, and
// simplifier crash sites all armed) must lose no response, duplicate no
// response, emit in request order, and -- because retried attempts re-run
// byte-identical queries -- produce ok-bodies identical to the fault-free
// run. A second batch crashes every worker repeatedly and must still
// complete per the documented exit contract; a third injects parse faults
// at the intake boundary and must answer every line exactly once.
//
// Everything runs in-process through LocalizeServer::run, so the soak is
// cheap enough for every CI run (no subprocesses, no temp files). Frames
// are parsed only after the campaign is disarmed: parseJson is itself a
// fault site, and the harness must not crash on its own instrumentation.
//
//===----------------------------------------------------------------------===//

#include "serve/Json.h"
#include "serve/LocalizeServer.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace bugassist;

namespace {

/// One parsed response frame: the fields the determinism contract covers.
/// Cache hit/miss attribution is scheduling-dependent at widths above one
/// and deliberately not captured.
struct Frame {
  std::string Id;
  std::string Status;
  int64_t Exit = -1;
  std::string Code;
  std::string Body;
};

/// Splits a serve output stream into frames, failing the test on any
/// framing violation. Callers must disarm any fault campaign first --
/// this goes through parseJson, which is itself an injection site.
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
    const JsonValue *Status = Header->find("status");
    const JsonValue *Exit = Header->find("exit");
    const JsonValue *Bytes = Header->find("bytes");
    EXPECT_TRUE(Id && Status && Exit && Bytes) << "header missing a field";
    if (!(Id && Status && Exit && Bytes))
      break;
    F.Id = Id->Text;
    F.Status = Status->Text;
    std::optional<int64_t> ExitVal = Exit->asInt64();
    std::optional<int64_t> BodyLen = Bytes->asInt64();
    EXPECT_TRUE(ExitVal && BodyLen) << "non-numeric exit/bytes";
    if (!(ExitVal && BodyLen))
      break;
    F.Exit = *ExitVal;
    if (const JsonValue *C = Header->find("code"))
      F.Code = C->Text;
    Pos = Nl + 1;
    EXPECT_LE(Pos + static_cast<size_t>(*BodyLen), Raw.size())
        << "body shorter than advertised for id " << F.Id;
    if (Pos + static_cast<size_t>(*BodyLen) > Raw.size())
      break;
    F.Body = Raw.substr(Pos, static_cast<size_t>(*BodyLen));
    Pos += static_cast<size_t>(*BodyLen);
    Nl = Raw.find('\n', Pos);
    EXPECT_NE(Nl, std::string::npos) << "missing trailer for id " << F.Id;
    if (Nl == std::string::npos)
      break;
    std::string TrailerError;
    EXPECT_TRUE(parseJson(Raw.substr(Pos, Nl - Pos), TrailerError).has_value())
        << "bad trailer: " << TrailerError;
    Pos = Nl + 1;
    Frames.push_back(std::move(F));
  }
  Frames.shrink_to_fit();
  return Frames;
}

/// A run's raw output stream plus its summary. Parsing is the caller's
/// job, after disarming (see parseFrames).
struct SoakRun {
  ServeSummary Summary;
  std::string Raw;
  std::string ErrLine;
};

SoakRun runRaw(const std::string &Batch, const ServeOptions &SO) {
  SoakRun R;
  LocalizeServer Server(SO);
  std::istringstream In(Batch);
  std::ostringstream Out, Err;
  R.Summary = Server.run(In, Out, Err);
  R.Raw = Out.str();
  R.ErrLine = Err.str();
  return R;
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

/// A deterministic ~N-line workload: trivial SAT/UNSAT/MaxSAT requests
/// leavened with repeated localize queries (exercising the formula cache
/// from several workers) and well-formed-but-invalid requests (exercising
/// the inline-error path). Every line carries a positional id rI so runs
/// can be compared frame-by-frame.
std::string soakBatch(size_t N) {
  const std::string Sat =
      "\"cmd\":\"sat\",\"cnf\":\"" + jsonEscape("p cnf 2 2\n1 2 0\n-1 0\n") +
      "\"";
  const std::string Unsat =
      "\"cmd\":\"sat\",\"cnf\":\"" + jsonEscape("p cnf 1 2\n1 0\n-1 0\n") +
      "\"";
  const std::string MaxSat =
      "\"cmd\":\"maxsat\",\"wcnf\":\"" +
      jsonEscape("p wcnf 1 2 5\n1 1 0\n1 -1 0\n") + "\"";
  const std::string Localize =
      "\"cmd\":\"localize\",\"source\":\"" + jsonEscape(ArrayProgram) + "\"";
  const std::string Invalid = "\"cmd\":\"sat\""; // no cnf/file: bad-request
  std::string Batch;
  for (size_t I = 0; I < N; ++I) {
    const std::string *Fields;
    if (I % 40 == 13)
      Fields = &Localize;
    else if (I % 40 == 27)
      Fields = &Invalid;
    else
      Fields = (I % 3 == 0) ? &Sat : (I % 3 == 1) ? &Unsat : &MaxSat;
    Batch += "{\"id\":\"r" + std::to_string(I) + "\"," + *Fields + "}\n";
  }
  return Batch;
}

/// Frame-by-frame equality on the deterministic fields. \p Limit bounds
/// how many mismatches are reported before bailing, so a systemic
/// divergence does not produce a thousand-line failure log.
void expectSameFrames(const std::vector<Frame> &Got,
                      const std::vector<Frame> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  size_t Reported = 0;
  for (size_t I = 0; I < Want.size() && Reported < 10; ++I) {
    if (Got[I].Id == Want[I].Id && Got[I].Status == Want[I].Status &&
        Got[I].Exit == Want[I].Exit && Got[I].Code == Want[I].Code &&
        Got[I].Body == Want[I].Body)
      continue;
    ++Reported;
    EXPECT_EQ(Got[I].Id, Want[I].Id) << "frame " << I;
    EXPECT_EQ(Got[I].Status, Want[I].Status) << "frame " << I;
    EXPECT_EQ(Got[I].Exit, Want[I].Exit) << "frame " << I;
    EXPECT_EQ(Got[I].Code, Want[I].Code) << "frame " << I;
    EXPECT_EQ(Got[I].Body, Want[I].Body) << "frame " << I;
  }
}

} // namespace

TEST(ServeSoak, MixedBatchSurvivesTheFaultCampaignAtEveryWidth) {
  const size_t N = 1000;
  std::string Batch = soakBatch(N);

  // The fault-free reference run, width 1: the ground truth every
  // campaign run must reproduce byte-for-byte.
  ServeOptions Ref;
  Ref.Threads = 1;
  SoakRun Clean = runRaw(Batch, Ref);
  std::vector<Frame> Want = parseFrames(Clean.Raw);
  ASSERT_EQ(Want.size(), N);
  ASSERT_EQ(Clean.Summary.Requests, N);
  ASSERT_EQ(Clean.Summary.Errors, N / 40); // the invalid lines, nothing else

  // The campaign arms every crash site in the serve path: workers throw
  // before dequeue (queue-pop), after computing but before writing
  // (emitter-flush), inside the cache's once-fill, and mid-preprocess.
  // All are badalloc (crash) faults, so with the default two
  // retries every request must still heal to its reference answer.
  const char *Campaign = "queuepop:badalloc@5/7;"
                         "emitterflush:badalloc@13/29;"
                         "cachefill:badalloc@1/2;"
                         "simplify:badalloc@2/400";
  for (size_t Width : {1u, 2u, 4u}) {
    SoakRun Faulty;
    {
      faultinject::ScopedFault Fault(Campaign);
      ServeOptions SO;
      SO.Threads = Width;
      Faulty = runRaw(Batch, SO);
    }
    SCOPED_TRACE("width " + std::to_string(Width) + ": " + Faulty.ErrLine);
    std::vector<Frame> Got = parseFrames(Faulty.Raw);
    expectSameFrames(Got, Want);
    EXPECT_EQ(Faulty.Summary.Requests, N);
    EXPECT_EQ(Faulty.Summary.Ok, Clean.Summary.Ok);
    EXPECT_EQ(Faulty.Summary.Errors, Clean.Summary.Errors);
    EXPECT_EQ(Faulty.Summary.Incomplete, 0u);
    EXPECT_EQ(Faulty.Summary.ExitCode, Clean.Summary.ExitCode);
    // The campaign actually bit: this is a soak, not a smoke.
    EXPECT_GT(Faulty.Summary.Respawns, 10u);
  }
}

TEST(ServeSoak, EveryWorkerCrashingRepeatedlyStillCompletesTheBatch) {
  // Every second queue-pop throws -- across the whole pool, for the
  // whole batch. Pops fire *before* dequeue, so no request is lost and
  // no retry budget is consumed: the batch must complete clean (exit 0),
  // answered in order, identical to the fault-free run, with every
  // crash contained and counted.
  const size_t N = 60;
  std::string Batch;
  for (size_t I = 0; I < N; ++I)
    Batch += "{\"id\":\"r" + std::to_string(I) +
             "\",\"cmd\":\"sat\",\"cnf\":\"" +
             jsonEscape("p cnf 2 2\n1 2 0\n-1 0\n") + "\"}\n";

  ServeOptions Ref;
  Ref.Threads = 1;
  std::vector<Frame> Want = parseFrames(runRaw(Batch, Ref).Raw);
  ASSERT_EQ(Want.size(), N);

  SoakRun Faulty;
  {
    faultinject::ScopedFault Fault("queuepop:badalloc@1/2");
    ServeOptions SO;
    SO.Threads = 2;
    Faulty = runRaw(Batch, SO);
  }
  expectSameFrames(parseFrames(Faulty.Raw), Want);
  EXPECT_EQ(Faulty.Summary.Ok, N);
  EXPECT_EQ(Faulty.Summary.Errors, 0u);
  EXPECT_EQ(Faulty.Summary.ExitCode, 0);
  EXPECT_GE(Faulty.Summary.Respawns, 4u) << Faulty.ErrLine;
}

TEST(ServeSoak, ParserFaultsAreAnsweredExactlyOncePerLineAndIntakeLives) {
  // Probabilistic transient parse failures at the intake boundary: each
  // afflicted line must produce exactly one inline error frame -- in its
  // request-order slot -- and intake must keep going. The seeded stream
  // makes the run reproducible.
  const size_t N = 300;
  std::string Batch;
  for (size_t I = 0; I < N; ++I)
    Batch += "{\"id\":\"r" + std::to_string(I) +
             "\",\"cmd\":\"sat\",\"cnf\":\"" +
             jsonEscape("p cnf 1 1\n1 0\n") + "\"}\n";

  SoakRun R;
  {
    faultinject::ScopedFault Fault("jsonparse:interrupt%0.08;seed=7");
    ServeOptions SO;
    SO.Threads = 2;
    R = runRaw(Batch, SO);
  }
  std::vector<Frame> Frames = parseFrames(R.Raw);
  ASSERT_EQ(Frames.size(), N);
  size_t Ok = 0, Errors = 0;
  for (size_t I = 0; I < N; ++I) {
    const Frame &F = Frames[I];
    if (F.Status == "ok") {
      ++Ok;
      // Ok frames sit in their request-order slots with their own ids.
      EXPECT_EQ(F.Id, "r" + std::to_string(I));
      EXPECT_EQ(F.Body, "s SATISFIABLE\nv 1 0\n");
    } else {
      ++Errors;
      EXPECT_EQ(F.Status, "error") << "frame " << I;
      EXPECT_EQ(F.Code, "bad-request") << "frame " << I;
      EXPECT_TRUE(F.Body.empty()) << "frame " << I;
    }
  }
  EXPECT_EQ(Ok, R.Summary.Ok);
  EXPECT_EQ(Errors, R.Summary.Errors);
  EXPECT_GT(Errors, 0u) << "the campaign never fired; the soak proves "
                           "nothing at this seed";
  EXPECT_LT(Errors, N / 2);
  EXPECT_EQ(R.Summary.Requests, N);
  EXPECT_EQ(R.Summary.ExitCode, 1);
}
