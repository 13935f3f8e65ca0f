//===- serve_tcas.cpp - Workload: closed-loop serve over TCAS mutants -----===//
//
// Part of the BugAssist-Repro benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
//
// One op is one serve request. A seeded stream of `localize` and `repair`
// JSON lines over a fixed dozen hand-made TCAS versions (sent as `source`,
// one localize request per failing pool test plus one repair request each)
// drives LocalizeServer::run at pool width 2 from one feeder thread, as a
// closed loop with 2 requests outstanding, in batches of 500 requests per
// run() call. FormulaCache hits skip parse, encode and preprocessing, so
// time goes to session clones, search, canonicalization and queueing.
//
// Every frame body must equal the one-shot renderLocalizeOutput /
// renderRepairOutput of the same request, whose digest must equal
// perfbench/expected.txt.
//
// The traced run answers the first half-window of the stream on the
// benchmark's own two threads through the public pieces serve is made of
// (FormulaCache::lookup, CachedProgram::cloneSession per query) with a span
// per call, answers the same requests again untraced on the same path for
// trace.overhead_ratio, then sends them through the real server for the
// serve-layer metrics and the frame checks.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "interp/Interpreter.h"
#include "lang/Sema.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "serve/FormulaCache.h"
#include "serve/LocalizeServer.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

using namespace perfbench;
using namespace bugassist;

namespace {

constexpr size_t Versions = 12;
constexpr uint64_t VersionSeed = 20110601;
constexpr size_t PoolSize = 400;
constexpr size_t MaxFailing = 4;
constexpr size_t MaxPassing = 8;
constexpr size_t Outstanding = 2;
/// Requests per LocalizeServer::run call (one `--batch` file's worth). The
/// server keeps every request of a run until it returns, so fixed batches
/// keep peak memory independent of throughput.
constexpr size_t BatchSize = 500;

ExecOptions poolExecOptions() {
  ExecOptions EO = tcasExecOptions();
  EO.BitWidth = tcasUnrollOptions().BitWidth;
  EO.CheckArrayBounds = false;
  EO.CheckDivByZero = false;
  return EO;
}

/// One distinct request of the stream: its JSON line (minus the id) and
/// the equivalent one-shot library request.
struct ServeRequest {
  const TcasMutant *Version = nullptr;
  bool Repair = false;
  size_t Test = 0; ///< localize: index into the version's failing tests
  std::string Json; ///< everything after {"id":"...",
  PipelineRequest Localize;
  RepairRequest RepairReq;

  std::string key() const {
    return "serve-tcas v" + std::to_string(Version->Version) +
           (Repair ? " repair" : " t" + std::to_string(Test));
  }
};

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out + "\"";
}

/// Builds the localize requests (one per failing test) and the repair
/// request of one TCAS version, or nothing when no pool test fails.
void requestsFor(const TcasMutant &V, const std::vector<int64_t> &Golden,
                 const std::vector<InputVector> &Pool,
                 std::vector<ServeRequest> &Out) {
  std::unique_ptr<Program> Prog;
  {
    DiagEngine Diags;
    SpanScope S("lang.setup_parse");
    Prog = parseAndAnalyze(V.Source, Diags);
  }
  if (!Prog)
    return;
  FailingTests FT;
  {
    SpanScope S("interp.segregate");
    FT = segregateFailingTests(Golden, *Prog, Pool, "main", poolExecOptions(),
                               MaxFailing, MaxPassing);
  }
  if (FT.Inputs.empty())
    return;
  const std::string Common =
      "\"source\":" + jsonString(V.Source) +
      ",\"check_obligations\":false,\"bounds\":false,\"bitwidth\":16,"
      "\"hard_lines\":\"69-84\",\"max_diagnoses\":8";
  PipelineRequest Base;
  Base.Unroll = tcasUnrollOptions();
  Base.CheckObligations = false;
  Base.Localize.MaxDiagnoses = 8;
  for (size_t T = 0; T < FT.Inputs.size(); ++T) {
    ServeRequest R;
    R.Version = &V;
    R.Test = T;
    R.Json = "\"cmd\":\"localize\"," + Common + ",\"input\":\"" +
             renderInputVector(FT.Inputs[T]) +
             "\",\"golden\":" + std::to_string(FT.Goldens[T]) + "}";
    R.Localize = Base;
    R.Localize.Input = FT.Inputs[T];
    R.Localize.GoldenReturn = FT.Goldens[T];
    Out.push_back(std::move(R));
  }
  ServeRequest R;
  R.Version = &V;
  R.Repair = true;
  RepairRequest &RR = R.RepairReq;
  RR.Unroll = Base.Unroll;
  RR.CheckObligations = false;
  RR.Localize = Base.Localize;
  RR.Repair.MaxCandidates = 64;
  RR.Inputs = FT.Inputs;
  RR.Goldens = FT.Goldens;
  RR.Inputs.insert(RR.Inputs.end(), FT.PassingInputs.begin(),
                   FT.PassingInputs.end());
  RR.Goldens.insert(RR.Goldens.end(), FT.PassingGoldens.begin(),
                    FT.PassingGoldens.end());
  std::string Inputs, Goldens;
  for (size_t I = 0; I < RR.Inputs.size(); ++I) {
    Inputs += (I ? ",\"" : "\"") + renderInputVector(RR.Inputs[I]) + "\"";
    Goldens += (I ? "," : "") + std::to_string(RR.Goldens[I]);
  }
  R.Json = "\"cmd\":\"repair\"," + Common + ",\"inputs\":[" + Inputs +
           "],\"goldens\":[" + Goldens + "],\"max_candidates\":64}";
  Out.push_back(std::move(R));
}

/// The requests of a set of TCAS versions (indices into tcasMutants()).
std::vector<ServeRequest> buildRequests(const std::vector<size_t> &Candidates,
                                        size_t Want) {
  std::unique_ptr<Program> Golden;
  {
    DiagEngine Diags;
    SpanScope S("lang.setup_parse");
    Golden = parseAndAnalyze(tcasSource(), Diags);
  }
  std::vector<InputVector> Pool = tcasTestPool(PoolSize);
  std::vector<int64_t> GoldenOut;
  {
    SpanScope S("interp.segregate");
    GoldenOut = goldenOutputs(*Golden, Pool, "main", poolExecOptions());
  }
  std::vector<ServeRequest> Out;
  size_t Taken = 0;
  for (size_t I : Candidates) {
    if (Taken == Want)
      break;
    size_t Before = Out.size();
    requestsFor(tcasMutants()[I], GoldenOut, Pool, Out);
    Taken += Out.size() != Before;
  }
  return Out;
}

/// The one-shot answer to a request, rendered, plus what the checks need.
struct OneShot {
  std::string Body;
  bool Hit = false;
  bool Repaired = false;
  std::string RepairError;
};

OneShot oneShot(const ServeRequest &R) {
  OneShot O;
  const std::vector<uint32_t> &Bug = R.Version->BugLines;
  auto HitIn = [&](const std::vector<uint32_t> &Lines) {
    for (uint32_t L : Lines)
      if (std::find(Bug.begin(), Bug.end(), L) != Bug.end())
        return true;
    return false;
  };
  if (!R.Repair) {
    PipelineResult Res = runLocalizePipeline(R.Version->Source, R.Localize);
    O.Body = renderLocalizeOutput(Res, /*Json=*/false);
    O.Hit = Res.Status == PipelineStatus::Localized &&
            HitIn(Res.Report.AllLines);
    return O;
  }
  const RepairRequest &RR = R.RepairReq;
  std::string Error;
  std::unique_ptr<PreparedProgram> P = prepareProgram(
      R.Version->Source, RR.Entry, RR.Unroll, RR.Encode, Error);
  if (!P)
    return O;
  RepairPipelineResult Res = runRepairPipeline(*P, RR);
  O.Body = renderRepairOutput(Res, /*Json=*/false);
  O.Repaired = Res.Repair.Found;
  O.RepairError =
      verifyRepair(Res.Repair, RR.Inputs, RR.Goldens, poolExecOptions());
  return O;
}

std::string expectedValue(const OneShot &O, bool Repair) {
  return hex64(fnv1a(O.Body)) +
         (Repair ? std::string(" repaired=") + (O.Repaired ? "1" : "0")
                 : std::string(" hit=") + (O.Hit ? "1" : "0"));
}

// --- closed-loop transport ------------------------------------------------

/// Request lines in: underflow() blocks until the feeder pushes a line or
/// closes the stream.
class FeedBuf : public std::streambuf {
public:
  void push(const std::string &Line) {
    std::lock_guard<std::mutex> L(Mu);
    Pending += Line;
    Cv.notify_all();
  }
  void close() {
    std::lock_guard<std::mutex> L(Mu);
    Closed = true;
    Cv.notify_all();
  }

protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [&] { return !Pending.empty() || Closed; });
    if (Pending.empty())
      return traits_type::eof();
    Cur.swap(Pending);
    Pending.clear();
    setg(Cur.data(), Cur.data(), Cur.data() + Cur.size());
    return traits_type::to_int_type(Cur[0]);
  }

private:
  std::mutex Mu; // guards Pending, Closed
  std::condition_variable Cv;
  std::string Pending;
  bool Closed = false;
  std::string Cur; // the get area, owned by the reading thread
};

struct Frame {
  std::string Id;
  std::string Status;
  double ElapsedMs = 0; ///< the trailer's elapsed_ms: service time
  double DoneMs = 0;    ///< when the last byte of the frame arrived
  /// The body equals the first body answered for the same request.
  bool SameAsFirst = false;
};

/// One body per distinct request: later frames are compared with it as
/// they arrive, so memory does not grow with the requests served.
struct Bodies {
  explicit Bodies(size_t NumReqs) : First(NumReqs), Seen(NumReqs, 0) {}
  std::vector<std::string> First;
  std::vector<char> Seen;
};

/// Response frames out: parses header / body / trailer as the emitter
/// writes them and timestamps each completed frame.
class FrameSink : public std::streambuf {
public:
  FrameSink(const std::vector<size_t> &Stream, Bodies &Seen)
      : Stream(Stream), Known(Seen) {}

  std::mutex Mu; // guards Frames, Known and the parse buffer
  std::condition_variable Cv;
  std::vector<Frame> Frames;

protected:
  std::streamsize xsputn(const char *S, std::streamsize N) override {
    std::lock_guard<std::mutex> L(Mu);
    Buf.append(S, static_cast<size_t>(N));
    parse();
    return N;
  }
  int_type overflow(int_type C) override {
    if (traits_type::eq_int_type(C, traits_type::eof()))
      return traits_type::not_eof(C);
    std::lock_guard<std::mutex> L(Mu);
    Buf.push_back(traits_type::to_char_type(C));
    parse();
    return C;
  }

private:
  static std::string field(const std::string &Line, const char *Key) {
    std::string K = std::string("\"") + Key + "\":";
    size_t P = Line.find(K);
    if (P == std::string::npos)
      return "";
    P += K.size();
    if (P < Line.size() && Line[P] == '"') {
      size_t E = Line.find('"', P + 1);
      return Line.substr(P + 1, E - P - 1);
    }
    size_t E = Line.find_first_of(",}", P);
    return Line.substr(P, E - P);
  }

  void parse() {
    for (;;) {
      if (Pos > (1u << 16)) {
        Buf.erase(0, Pos);
        Pos = 0;
      }
      size_t HeadEnd = Buf.find('\n', Pos);
      if (HeadEnd == std::string::npos)
        return;
      std::string Head = Buf.substr(Pos, HeadEnd - Pos);
      size_t Bytes = std::stoul(field(Head, "bytes"));
      size_t BodyEnd = HeadEnd + 1 + Bytes;
      if (Buf.size() <= BodyEnd)
        return;
      size_t TrailEnd = Buf.find('\n', BodyEnd);
      if (TrailEnd == std::string::npos)
        return;
      Frame F;
      F.Id = field(Head, "id");
      F.Status = field(Head, "status");
      size_t K = F.Id.size() > 1 ? std::stoul(F.Id.substr(1)) : SIZE_MAX;
      if (K < Stream.size()) {
        size_t Req = Stream[K];
        if (!Known.Seen[Req]) {
          Known.Seen[Req] = 1;
          Known.First[Req] = Buf.substr(HeadEnd + 1, Bytes);
        }
        F.SameAsFirst =
            Buf.compare(HeadEnd + 1, Bytes, Known.First[Req]) == 0;
      }
      std::string Elapsed =
          field(Buf.substr(BodyEnd, TrailEnd - BodyEnd), "elapsed_ms");
      F.ElapsedMs = Elapsed.empty() ? 0 : std::stod(Elapsed);
      F.DoneMs = nowMs();
      Frames.push_back(std::move(F));
      Pos = TrailEnd + 1;
      Cv.notify_all();
    }
  }

  const std::vector<size_t> &Stream;
  Bodies &Known;
  std::string Buf;
  size_t Pos = 0;
};

/// What the server answered for requests Stream[0, N), batch by batch.
struct ServerRun {
  explicit ServerRun(size_t NumReqs) : Known(NumReqs) {}
  std::vector<Frame> Frames;
  std::vector<double> SendMs;
  Bodies Known;
  uint64_t CacheHits = 0, CacheMisses = 0, Retries = 0, Respawns = 0;
  double WallMs = 0;
  double CpuS = 0;
};

/// Streams requests Stream[Begin, Begin + Count) through one
/// LocalizeServer::run at pool width 2 from a feeder thread keeping
/// Outstanding requests in flight, then closes the input. \returns the
/// batch as one round.
Round runBatch(const std::vector<ServeRequest> &Reqs,
               const std::vector<size_t> &Stream, size_t Begin, size_t Count,
               ServerRun &Run) {
  FeedBuf In;
  FrameSink Out(Stream, Run.Known);
  std::istream InS(&In);
  std::ostream OutS(&Out);
  std::ostringstream Err;
  ServeOptions SO;
  SO.Threads = 2;
  LocalizeServer Server(SO);
  std::vector<double> SendMs;
  double Cpu0 = cpuSeconds(), T0 = nowMs();
  std::thread Feeder([&] {
    for (size_t I = 0; I < Count; ++I) {
      {
        std::unique_lock<std::mutex> L(Out.Mu);
        Out.Cv.wait(L, [&] { return I - Out.Frames.size() < Outstanding; });
      }
      SendMs.push_back(nowMs());
      In.push("{\"id\":\"r" + std::to_string(Begin + I) + "\"," +
              Reqs[Stream[Begin + I]].Json + "\n");
    }
    In.close();
  });
  ServeSummary Sum = Server.run(InS, OutS, Err);
  Feeder.join();
  Round Batch;
  Batch.WallS = (nowMs() - T0) / 1000.0;
  Batch.CpuS = cpuSeconds() - Cpu0;
  Run.WallMs += Batch.WallS * 1000.0;
  Run.CpuS += Batch.CpuS;
  Run.CacheHits += Sum.CacheHits;
  Run.CacheMisses += Sum.CacheMisses;
  Run.Retries += Sum.Retries;
  Run.Respawns += Sum.Respawns;
  std::lock_guard<std::mutex> L(Out.Mu);
  for (size_t I = 0; I < Out.Frames.size() && I < SendMs.size(); ++I)
    Batch.LatenciesMs.push_back(Out.Frames[I].DoneMs - SendMs[I]);
  Run.SendMs.insert(Run.SendMs.end(), SendMs.begin(), SendMs.end());
  for (Frame &F : Out.Frames)
    Run.Frames.push_back(std::move(F));
  return Batch;
}

/// Checks every frame against the memoized one-shot answer of its request
/// and the expected digests; tallies quality.
void checkFrames(const std::vector<ServeRequest> &Reqs,
                 const std::vector<size_t> &Stream, const ServerRun &Run,
                 const Expected &E, RunResult &R) {
  std::vector<std::unique_ptr<OneShot>> Memo(Reqs.size());
  if (Run.Frames.size() != Run.SendMs.size())
    R.fail("sent " + std::to_string(Run.SendMs.size()) + " requests, got " +
           std::to_string(Run.Frames.size()) + " frames");
  for (size_t K = 0; K < Run.Frames.size(); ++K) {
    const Frame &F = Run.Frames[K];
    const ServeRequest &Req = Reqs[Stream[K]];
    std::string Key = Req.key();
    if (F.Id != "r" + std::to_string(K) || F.Status != "ok") {
      R.fail(Key + ": frame " + F.Id + " status " + F.Status);
      continue;
    }
    std::unique_ptr<OneShot> &O = Memo[Stream[K]];
    if (!O) {
      O = std::make_unique<OneShot>(oneShot(Req));
      const std::string *Want = E.find(Key);
      std::string Got = expectedValue(*O, Req.Repair);
      if (!Want)
        R.fail(Key + ": no expected entry");
      else if (*Want != Got)
        R.fail(Key + ": expected " + *Want + ", got " + Got);
      if (!O->RepairError.empty())
        R.fail(Key + ": " + O->RepairError);
    }
    if (!F.SameAsFirst)
      R.fail(Key + ": frame " + F.Id + " differs from the request's first");
    else if (Run.Known.First[Stream[K]] != O->Body)
      R.fail(Key + ": serve body differs from the one-shot output");
    if (Req.Repair) {
      ++R.RepairAttempts;
      R.Repaired += O->Repaired;
    } else {
      ++R.Localized;
      R.Hits += O->Hit;
    }
  }
}

/// The serve path of the traced run, made of the public pieces the server
/// is built from: FormulaCache::lookup, CachedProgram::cloneSession per
/// query (whose first call per program builds and preprocesses the base
/// session, so that cost is counted under maxsat.clone), then the back half
/// of localize or repair on the clone.
class TracedServe {
public:
  std::string answer(const ServeRequest &R) {
    const PipelineRequest &P = R.Repair ? toPipeline(R.RepairReq) : R.Localize;
    const CachedProgram *CP;
    {
      SpanScope S("serve.cache_lookup");
      CP = &Cache.lookup(R.Version->Source, P.Entry, P.Unroll, P.Encode);
    }
    const PreparedProgram &Prep = *CP->prepared();
    std::unique_ptr<MaxSatSession> Session;
    {
      SpanScope S("maxsat.clone");
      Session = std::make_unique<TimedSession>(
          CP->cloneSession(R.Repair ? R.RepairReq.Localize.Weighted
                                    : R.Localize.Localize.Weighted));
    }
    std::string Body;
    if (!R.Repair) {
      Body = localizeOnSession(*Prep.Prog, Prep.Driver->formula(), R.Localize,
                               *Session)
                 .Text;
    } else {
      RepairPipelineResult Res;
      {
        SpanScope S("core.repair");
        Res = runRepairPipeline(Prep, R.RepairReq, Session.get());
      }
      SpanScope S("core.render");
      Body = renderRepairOutput(Res, /*Json=*/false);
      countSearch(Res.Report);
      countRepair(Res.Repair);
    }
    SpanScope S("maxsat.release");
    Session.reset();
    return Body;
  }

private:
  static PipelineRequest toPipeline(const RepairRequest &RR) {
    PipelineRequest P;
    P.Entry = RR.Entry;
    P.Unroll = RR.Unroll;
    P.Encode = RR.Encode;
    return P;
  }

  FormulaCache Cache;
};

/// Answers Stream[0, Limit) through a fresh TracedServe (cold cache) on two
/// threads, each taking the next request when it finishes one, until
/// \p DeadlineMs. \returns the wall time; Bodies[K] holds request K's
/// answer and \p Answered how many of the first requests were answered.
double answerOnTwoThreads(const std::vector<ServeRequest> &Reqs,
                          const std::vector<size_t> &Stream, size_t Limit,
                          double DeadlineMs, std::vector<std::string> &Bodies,
                          size_t &Answered) {
  TracedServe Serve;
  std::atomic<size_t> Next{0};
  double T0 = nowMs();
  auto Worker = [&] {
    while (nowMs() < DeadlineMs) {
      size_t K = Next.fetch_add(1);
      if (K >= Limit)
        return;
      SpanScope Root("op", static_cast<uint32_t>(K + 1));
      Bodies[K] = Serve.answer(Reqs[Stream[K]]);
    }
  };
  std::thread W1(Worker), W2(Worker);
  W1.join();
  W2.join();
  Answered = std::min(Next.load(), Limit);
  return nowMs() - T0;
}

void serveMetrics(const ServerRun &Run, RunResult &R) {
  double Service = 0, Wait = 0;
  size_t N = std::min(Run.Frames.size(), Run.SendMs.size());
  for (size_t K = 0; K < N; ++K) {
    double Latency = Run.Frames[K].DoneMs - Run.SendMs[K];
    Service += Run.Frames[K].ElapsedMs;
    Wait += Latency - Run.Frames[K].ElapsedMs;
  }
  double Den = N ? static_cast<double>(N) : 1;
  uint64_t Lookups = Run.CacheHits + Run.CacheMisses;
  R.Layer["serve.service_ms"] = Service / Den;
  R.Layer["serve.wait_ms"] = Wait / Den;
  R.Layer["serve.cache_hit_ratio"] =
      Lookups ? static_cast<double>(Run.CacheHits) / Lookups : 0;
  R.Layer["serve.effective_parallelism"] =
      Run.WallMs > 0 ? Run.CpuS * 1000.0 / Run.WallMs : 0;
  R.Layer["serve.retries"] = static_cast<double>(Run.Retries);
  R.Layer["serve.respawns"] = static_cast<double>(Run.Respawns);
}

} // namespace

RunResult perfbench::runServeTcas(const Args &A, const Expected &E) {
  RunResult R;
  R.Localizes = R.Repairs = true;
  std::vector<ServeRequest> Reqs;
  std::vector<size_t> Stream;
  auto Setup = [&] {
    // A fixed dozen versions, so every run serves the same programs; the
    // seed draws the request stream over them.
    Reqs = buildRequests(seededOrder(tcasMutants().size(), VersionSeed),
                         Versions);
    Rng Draw(A.Seed);
    Stream.clear();
    for (size_t K = 0; K < 100000 && !Reqs.empty(); ++K)
      Stream.push_back(Draw.below(Reqs.size()));
  };
  runSetup(A, R, Setup, 3);
  if (Reqs.empty()) {
    R.fail("no TCAS version has a failing pool test");
    return R;
  }

  if (!A.Trace) {
    // Whole batches until the window closes; each batch is one round.
    ServerRun Run(Reqs.size());
    double Deadline = nowMs() + A.Seconds * 1000.0;
    for (size_t Begin = 0; nowMs() < Deadline; Begin += BatchSize) {
      if (Begin + BatchSize > Stream.size()) {
        R.fail("request stream exhausted");
        break;
      }
      R.Rounds.push_back(runBatch(Reqs, Stream, Begin, BatchSize, Run));
      R.LatenciesMs.insert(R.LatenciesMs.end(),
                           R.Rounds.back().LatenciesMs.begin(),
                           R.Rounds.back().LatenciesMs.end());
      // Set-up again between batches, as driveOps does between rounds; it
      // rebuilds the same requests and stream.
      timeSetup(R, Setup);
    }
    R.Attempted = Run.SendMs.size();
    R.WallS = Run.WallMs / 1000.0;
    R.CpuS = Run.CpuS;
    checkFrames(Reqs, Stream, Run, E, R);
    return R;
  }

  // Traced half: the serve path on two threads, closed loop, then the same
  // requests again untraced on the same path for trace.overhead_ratio.
  std::vector<std::string> TracedBody(Stream.size()), PlainBody(Stream.size());
  size_t N = 0, Again = 0;
  Tracer::get().enable(true);
  R.TracedWallMs = answerOnTwoThreads(Reqs, Stream, Stream.size(),
                                      nowMs() + A.Seconds * 500.0, TracedBody,
                                      N);
  Tracer::get().enable(false);
  R.UntracedWallMs = answerOnTwoThreads(Reqs, Stream, N, HUGE_VAL, PlainBody,
                                        Again);

  // The same requests through the real server: serve.* metrics and the
  // frame checks.
  ServerRun Run(Reqs.size());
  for (size_t Begin = 0; Begin < N; Begin += BatchSize)
    runBatch(Reqs, Stream, Begin, std::min(BatchSize, N - Begin), Run);
  R.Attempted = N;
  serveMetrics(Run, R);
  checkFrames(Reqs, Stream, Run, E, R);
  for (size_t K = 0; K < Run.Frames.size() && K < N; ++K)
    if (TracedBody[K] != Run.Known.First[Stream[K]] ||
        PlainBody[K] != TracedBody[K])
      R.fail(Reqs[Stream[K]].key() +
             ": traced serve path differs from the server's frame");
  return R;
}

void perfbench::recordServeTcas(std::string &Out) {
  std::vector<size_t> All(tcasMutants().size());
  for (size_t I = 0; I < All.size(); ++I)
    All[I] = I;
  for (const ServeRequest &R : buildRequests(All, All.size()))
    Out += R.key() + " = " + expectedValue(oneShot(R), R.Repair) + "\n";
}
