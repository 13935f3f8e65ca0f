//===- LocalizeServer.cpp - Batch/daemon localization service -------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Self-healing pool protocol (docs/SERVE.md, "Failure semantics"): each
// worker thread runs workerBody; an exception escaping it -- a crashed
// request, an injected queue-pop fault -- is caught at the thread
// boundary, a death note naming the in-flight request (if any) goes to
// the monitor thread, and the thread exits. The monitor joins the corpse,
// respawns the slot, and hands the replacement the in-flight request with
// an incremented attempt count: bounded retries under exponential
// backoff, the last attempt under a degraded budget, and an error
// response with code `worker-crashed` when every attempt dies. Response
// emission is idempotent per request index (OrderedEmitter), and outcome
// tallying is once per request (Request::Tallied), so no crash/retry
// interleaving can lose, duplicate, or double-count a response.
//
//===----------------------------------------------------------------------===//

#include "serve/LocalizeServer.h"

#include "core/Command.h"
#include "serve/FormulaCache.h"
#include "serve/Json.h"
#include "serve/OrderedEmitter.h"
#include "serve/RequestQueue.h"
#include "support/FileUtil.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <vector>

using namespace bugassist;

namespace {

using Clock = std::chrono::steady_clock;

/// The process-global drain request: SIGINT/SIGTERM handlers (installed
/// by the CLI) set it via LocalizeServer::requestDrain, run() clears it
/// on entry and polls it at every stage boundary.
std::atomic<bool> DrainFlag{false};

/// Degraded budget for the final retry of a crash-looping request: enough
/// conflicts to finish any well-behaved query, small enough that a
/// pathological one comes back `incomplete` instead of crashing forever.
constexpr uint64_t DegradedMaxConflicts = 200000;

uint64_t elapsedMs(Clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            Start)
          .count());
}

// --- requests ----------------------------------------------------------------

/// One request line, decoded. Invalid lines never become one of these --
/// the reader answers them directly.
struct Request {
  std::string Id;
  /// The decoded fields of every option the request's `cmd` takes, its
  /// program or formula text included (core/OptionTable.h); Opts.Cmd is
  /// the command.
  CommandOptions Opts{Command::Localize};
  /// The header's `cmd`: "unknown" until a valid one parsed.
  const char *Cmd = "unknown";

  /// Set by the first attempt to record this request's outcome in the
  /// summary counters; retries of a crashed worker re-compute the
  /// response (emission is idempotent) but must not re-count it.
  mutable std::atomic<bool> Tallied{false};
};

/// Decodes one request object through the option table, then reads its
/// `file`, if any. An explicit id replaces \p Req.Id as soon as it parses,
/// so even rejected requests get an addressable error response. \p Code
/// classifies the rejection (BadRequest unless a finer code applies).
bool parseRequest(const JsonValue &Root, Request &Req, std::string &Error,
                  ErrorCode &Code) {
  Code = ErrorCode::BadRequest;
  if (!Root.isObject()) {
    Error = "request must be a JSON object";
    return false;
  }
  // The header names a valid cmd whatever else the request gets wrong.
  const JsonValue *CmdV = Root.find("cmd");
  Command C = Command::Localize;
  bool Served =
      CmdV && CmdV->isString() && parseServedCommand(CmdV->Text, C);
  if (Served)
    Req.Cmd = commandName(C);
  if (const JsonValue *Id = Root.find("id")) {
    if (!Id->isString()) {
      Error = "field 'id' must be a string";
      return false;
    }
    Req.Id = Id->Text;
  }
  if (!Served) {
    Error = !CmdV                ? "missing required field 'cmd'"
            : !CmdV->isString() ? "field 'cmd' must be a string"
                                : "field 'cmd' must be \"localize\", "
                                  "\"repair\", \"maxsat\", or \"sat\"";
    return false;
  }
  CommandOptions &O = Req.Opts;
  O.Cmd = C;
  for (const auto &[Key, Val] : Root.Members)
    if (Key != "id" && Key != "cmd" && !applyRequestField(Key, Val, O, Error))
      return false;

  if (O.SourceKeys != 1) {
    Error = std::string(O.SourceKeys ? "conflicting program fields"
                                     : "missing program") +
            ": give exactly one of " +
            (C == Command::MaxSat ? "'wcnf' or 'file'"
             : C == Command::Sat  ? "'cnf' or 'file'"
                                  : "'source', 'file', or 'tcas'");
    return false;
  }
  if (!checkOptions(O, Error))
    return false;
  if (!O.SourceFile.empty()) {
    auto Text = readFileToString(O.SourceFile);
    if (!Text) {
      Error = "cannot read file '" + O.SourceFile + "'";
      Code = ErrorCode::FileUnreadable;
      return false;
    }
    O.Source = std::move(*Text);
  }
  return true;
}

// --- responses ---------------------------------------------------------------

/// A computed response plus its summary classification. The class is
/// applied to the counters exactly once per request (Request::Tallied),
/// no matter how many crash retries re-compute the response.
struct Outcome {
  std::string Frame;
  enum Class : char { Ok = 'o', Incomplete = 'i', Error = 'e',
                      Cancelled = 'c' } Kind = Error;
};

/// The framed response to \p R -- header line, body bytes, stats trailer
/// line: `ok` (exit 0), `incomplete` (exit 2) on a budget stop,
/// `cancelled` (exit 2) when drained, else `error` (exit 1).
Outcome respond(const Request &Req, const CommandResult &R,
                const char *Cache = nullptr, uint64_t ElapsedMs = 0) {
  struct {
    Outcome::Class Kind;
    const char *Status;
    int Exit;
  } C = {Outcome::Error, "error", 1};
  if (R.Code == ErrorCode::Ok)
    C = {Outcome::Ok, "ok", 0};
  else if (R.Code == ErrorCode::BudgetExhausted)
    C = {Outcome::Incomplete, "incomplete", 2};
  else if (R.Code == ErrorCode::Cancelled)
    C = {Outcome::Cancelled, "cancelled", 2};
  Outcome O;
  O.Kind = C.Kind;
  std::string &Out = O.Frame;
  Out = "{\"id\":\"" + jsonEscape(Req.Id) + "\",\"cmd\":\"" + Req.Cmd +
        "\",\"status\":\"" + C.Status +
        "\",\"exit\":" + std::to_string(C.Exit) + ",\"code\":\"" +
        errorCodeName(R.Code) + "\"";
  if (Cache)
    Out += std::string(",\"cache\":\"") + Cache + "\"";
  if (!R.Error.empty())
    Out += ",\"error\":\"" + jsonEscape(R.Error) + "\"";
  Out += ",\"bytes\":" + std::to_string(R.Body.size()) + "}\n";
  Out += R.Body;
  const SolverStats &S = R.Search;
  Out += "{\"id\":\"" + jsonEscape(Req.Id) +
         "\",\"elapsed_ms\":" + std::to_string(ElapsedMs) +
         ",\"sat_calls\":" + std::to_string(R.SatCalls) +
         ",\"conflicts\":" + std::to_string(S.Conflicts) +
         ",\"decisions\":" + std::to_string(S.Decisions) +
         ",\"propagations\":" + std::to_string(S.Propagations) +
         ",\"restarts\":" + std::to_string(S.Restarts) +
         ",\"vars_eliminated\":" + std::to_string(S.VarsEliminated) +
         ",\"clauses_subsumed\":" + std::to_string(S.ClausesSubsumed) +
         ",\"lits_self_subsumed\":" + std::to_string(S.LitsSelfSubsumed) +
         ",\"reconstruction_bytes\":" + std::to_string(S.ReconstructBytes) +
         "}\n";
  return O;
}

// --- in-flight registry ------------------------------------------------------

/// Per-worker registry of the solver answering the in-flight request,
/// with its watchdog deadline. The watchdog thread and the drain sweep
/// call interrupt() under the same mutex the worker uses to register /
/// clear, so an interrupt can never land on a destroyed solver.
class FlightTable {
public:
  explicit FlightTable(size_t Workers)
      : Solvers(Workers, nullptr), Deadline(Workers), HasDeadline(Workers, 0) {
  }

  /// Registers \p S as worker \p W's solver; nullptr clears the slot.
  void set(size_t W, Solver *S, double WatchdogSeconds) {
    std::lock_guard<std::mutex> Lock(Mu);
    Solvers[W] = S;
    HasDeadline[W] = WatchdogSeconds > 0;
    if (WatchdogSeconds > 0)
      Deadline[W] = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           WatchdogSeconds));
  }

  /// Drain: interrupt every in-flight solve.
  void interruptAll() {
    std::lock_guard<std::mutex> Lock(Mu);
    for (Solver *S : Solvers)
      if (S)
        S->interrupt();
  }

  /// Watchdog tick: interrupt solves past their deadline. \returns how
  /// many were escalated (the summary does not report it; tests can).
  size_t interruptOverdue() {
    std::lock_guard<std::mutex> Lock(Mu);
    Clock::time_point Now = Clock::now();
    size_t N = 0;
    for (size_t W = 0; W < Solvers.size(); ++W)
      if (Solvers[W] && HasDeadline[W] && Now >= Deadline[W]) {
        Solvers[W]->interrupt();
        ++N;
      }
    return N;
  }

private:
  std::mutex Mu;
  std::vector<Solver *> Solvers;
  std::vector<Clock::time_point> Deadline;
  std::vector<char> HasDeadline;
};

/// Answers one request through the command runner (core/Command.h) on
/// worker \p W: programs resolve through \p Cache, localization runs on a
/// clone of the cached base session, and the solving solver sits in
/// \p Flights, where the watchdog and the drain interrupt it. \p Degraded
/// marks the final retry of a crash-looping request: its conflict budget is
/// clamped so the attempt ends `incomplete` rather than in another crash.
/// Budgets never change *what* is computed, only how far, so a degraded
/// attempt that completes is still byte-identical.
Outcome processRequest(const Request &Req, FormulaCache &Cache,
                       FlightTable &Flights, size_t W, double WatchdogSeconds,
                       bool Degraded) {
  auto Start = Clock::now();
  CommandOptions O = Req.Opts;
  QueryBudget &B = O.Query.Localize.Budget;
  if (Degraded)
    B.MaxConflicts = B.MaxConflicts
                         ? std::min(B.MaxConflicts, DegradedMaxConflicts)
                         : DegradedMaxConflicts;
  // sat solves inside solveSat, out of the flight table's reach: the
  // watchdog rides in as its deadline instead.
  if (O.Cmd == Command::Sat && B.TimeoutSeconds <= 0)
    B.TimeoutSeconds = WatchdogSeconds;

  const char *CacheStr = nullptr;
  CommandEnv Env;
  Env.Resolve = [&](const CommandOptions &Q) {
    bool Hit = false;
    const CachedProgram &CP = Cache.lookup(Q.Source, Q.Query.Entry,
                                           Q.Query.Unroll, Q.Query.Encode,
                                           &Hit);
    CacheStr = Hit ? "hit" : "miss";
    ResolvedProgram P;
    P.Prepared = CP.prepared();
    P.Code = CP.errorCode();
    P.Error = CP.error();
    // The encode-once fast path: a clone of the cached base session,
    // primed with TF1 + the soft selectors, completed per test.
    if (P.Prepared)
      P.Session = CP.cloneSession();
    return P;
  };
  Env.Solving = [&](Solver *S) { Flights.set(W, S, WatchdogSeconds); };
  CommandResult R = runCommand(O, Env); // sets CacheStr
  return respond(Req, R, CacheStr, elapsedMs(Start));
}

/// Per-response outcome counters shared by the workers.
struct Tally {
  std::atomic<uint64_t> Ok{0};
  std::atomic<uint64_t> Incomplete{0};
  std::atomic<uint64_t> Errors{0};
  std::atomic<uint64_t> Cancelled{0};

  void count(Outcome::Class K) {
    switch (K) {
    case Outcome::Ok:         ++Ok; break;
    case Outcome::Incomplete: ++Incomplete; break;
    case Outcome::Error:      ++Errors; break;
    case Outcome::Cancelled:  ++Cancelled; break;
    }
  }
};

/// A worker's death note to the monitor: which pool slot died, and which
/// request (if any) was in flight at what attempt number.
struct DeathNote {
  size_t Slot = 0;
  bool Clean = false; ///< normal exit (queue drained), not a crash
  bool HasIndex = false;
  size_t Index = 0;
  int Attempt = 0;
  std::string What; ///< exception text, for the final error response
};

} // namespace

void LocalizeServer::requestDrain() {
  DrainFlag.store(true, std::memory_order_relaxed);
}

bool LocalizeServer::drainRequested() {
  return DrainFlag.load(std::memory_order_relaxed);
}

ServeSummary LocalizeServer::run(std::istream &In, std::ostream &Out,
                                 std::ostream &Err) {
  auto Start = Clock::now();
  DrainFlag.store(false, std::memory_order_relaxed);
  size_t Threads = Opts.Threads ? Opts.Threads : 1;

  FormulaCache Cache;
  RequestQueue Queue(Threads);
  OrderedEmitter Emitter(Out);
  Tally T;
  FlightTable Flights(Threads);
  std::atomic<uint64_t> Respawns{0}, Retries{0};

  // Request slots live here; the queue carries indexes. The mutex covers
  // only the vector itself (push_back can reallocate under a reader) --
  // each Request is immutable once enqueued (Tallied aside, which is
  // atomic).
  std::mutex SlotsMu;
  std::vector<std::unique_ptr<Request>> Slots;
  auto slot = [&](size_t Index) -> const Request & {
    std::lock_guard<std::mutex> Lock(SlotsMu);
    return *Slots[Index];
  };

  // Tally exactly once per request, then emit (emission is idempotent, so
  // the order does not matter for the stream, only for the counters).
  auto tally = [&](const Request &Req, Outcome::Class K) {
    if (!Req.Tallied.exchange(true, std::memory_order_relaxed))
      T.count(K);
  };
  auto tallyAndEmit = [&](size_t Index, const Request &Req, Outcome O) {
    tally(Req, O.Kind);
    Emitter.emit(Index, std::move(O.Frame));
  };
  // Emission from the reader and monitor threads must never throw: emit()
  // records the payload before writing a byte, so after a failure -- a
  // real OOM, an injected flush fault -- the response is already recorded
  // and the next emit or the final flushReady() writes it. Workers
  // deliberately do NOT go through this: an emit-time crash there is a
  // worker death, contained and retried by the pool protocol.
  auto emitNoThrow = [&](size_t Index, std::string Frame) {
    try {
      Emitter.emit(Index, std::move(Frame));
    } catch (...) {
    }
  };

  // One request attempt on worker W. Throws = this worker dies.
  auto handle = [&](size_t W, size_t Index, int Attempt) {
    const Request &Req = slot(Index);
    if (DrainFlag.load(std::memory_order_relaxed)) {
      // Accepted but drained before any work started: answer `cancelled`
      // so the client still gets exactly one response for the id.
      tallyAndEmit(Index, Req,
                   respond(Req, CommandResult::failure(
                                    ErrorCode::Cancelled,
                                    "request drained before execution")));
      return;
    }
    bool Degraded = Attempt > 0 && Attempt >= Opts.MaxRetries;
    tallyAndEmit(Index, Req,
                 processRequest(Req, Cache, Flights, W, Opts.WatchdogSeconds,
                                Degraded));
  };

  // Death notes flow from dying workers to the monitor thread.
  std::mutex NotesMu;
  std::condition_variable NotesCv;
  std::deque<DeathNote> Notes;
  auto postNote = [&](DeathNote N) {
    {
      std::lock_guard<std::mutex> Lock(NotesMu);
      Notes.push_back(std::move(N));
    }
    NotesCv.notify_one();
  };

  // The worker thread body. Resume carries a dead predecessor's in-flight
  // request into the respawned thread: it is re-run first (at its bumped
  // attempt count), then the worker joins the ordinary pop loop.
  auto workerBody = [&](size_t W, bool Resume, size_t ResumeIndex,
                        int ResumeAttempt) {
    bool InFlight = false;
    size_t Cur = 0;
    int Attempt = 0;
    try {
      if (Resume) {
        InFlight = true;
        Cur = ResumeIndex;
        Attempt = ResumeAttempt;
        handle(W, Cur, Attempt);
        InFlight = false;
      }
      for (;;) {
        InFlight = false;
        size_t Index;
        // pop() itself can be a crash site (injected queue-pop faults);
        // it throws *before* dequeuing, so no request is lost with the
        // worker -- whoever pops next (usually the respawn) gets it.
        if (!Queue.pop(W, Index))
          break;
        InFlight = true;
        Cur = Index;
        Attempt = 0;
        handle(W, Cur, 0);
      }
      postNote({W, /*Clean=*/true, false, 0, 0, ""});
    } catch (const std::exception &E) {
      Flights.set(W, nullptr, 0); // belt and braces: the runner clears it
      postNote({W, false, InFlight, Cur, Attempt, E.what()});
    } catch (...) {
      Flights.set(W, nullptr, 0);
      postNote({W, false, InFlight, Cur, Attempt, "unknown exception"});
    }
  };

  std::vector<std::thread> Pool(Threads);
  for (size_t W = 0; W < Threads; ++W)
    Pool[W] = std::thread(workerBody, W, false, size_t{0}, 0);

  // The monitor: joins dead workers, emits the final error when a request
  // exhausted its retries, and respawns the slot. Exits once every slot
  // has posted a clean (queue-drained) exit.
  std::atomic<bool> PoolDone{false};
  std::thread Monitor([&] {
    size_t Remaining = Threads;
    while (Remaining > 0) {
      DeathNote N;
      {
        std::unique_lock<std::mutex> Lock(NotesMu);
        NotesCv.wait(Lock, [&] { return !Notes.empty(); });
        N = std::move(Notes.front());
        Notes.pop_front();
      }
      if (N.Clean) {
        --Remaining;
        continue;
      }
      // The dead thread posted its note as its final act; join reclaims
      // it, then the slot is respawned -- the pool never shrinks.
      Pool[N.Slot].join();
      ++Respawns;
      bool Resume = N.HasIndex;
      int NextAttempt = N.Attempt + 1;
      if (Resume && NextAttempt > Opts.MaxRetries) {
        // Every attempt crashed: answer the request with a structured
        // error so it is not lost, and respawn the worker fresh.
        const Request &Req = slot(N.Index);
        Outcome O = respond(
            Req, CommandResult::failure(ErrorCode::WorkerCrashed,
                                        "worker crashed on every attempt: " +
                                            N.What));
        tally(Req, O.Kind);
        emitNoThrow(N.Index, std::move(O.Frame));
        Resume = false;
      } else if (Resume) {
        ++Retries;
        // Exponential backoff before the retry: transient conditions
        // (memory pressure, a fault campaign burst) get time to pass.
        double Ms = Opts.RetryBackoffMs;
        for (int K = 1; K < NextAttempt; ++K)
          Ms *= 2;
        Ms = std::min(Ms, 1000.0);
        if (Ms > 0)
          std::this_thread::sleep_for(std::chrono::duration<double,
                                                            std::milli>(Ms));
      }
      Pool[N.Slot] = std::thread(workerBody, N.Slot, Resume, N.Index,
                                 Resume ? NextAttempt : 0);
    }
    PoolDone.store(true, std::memory_order_relaxed);
  });

  // The watchdog: escalates past-deadline queries via Solver::interrupt()
  // so a stuck solve frees its worker as an `incomplete` response instead
  // of holding its response slot forever.
  std::mutex WdMu;
  std::condition_variable WdCv;
  bool WdStop = false;
  std::thread Watchdog;
  if (Opts.WatchdogSeconds > 0)
    Watchdog = std::thread([&] {
      std::unique_lock<std::mutex> Lock(WdMu);
      while (!WdCv.wait_for(Lock, std::chrono::milliseconds(20),
                            [&] { return WdStop; })) {
        Flights.interruptOverdue();
        if (DrainFlag.load(std::memory_order_relaxed))
          Flights.interruptAll();
      }
    });

  // Reader loop (this thread): one JSON object per line; blank lines are
  // ignored. A line that fails to parse or validate is answered with an
  // error response in its slot -- the daemon survives and later requests
  // are unaffected. A drain request stops intake between lines (and the
  // CLI installs its signal handlers without SA_RESTART, so a daemon
  // blocked in getline on stdin is kicked out by the signal itself).
  size_t NumRequests = 0;
  std::string Line;
  while (!DrainFlag.load(std::memory_order_relaxed) &&
         std::getline(In, Line)) {
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    size_t Index = NumRequests++;
    auto Req = std::make_unique<Request>();
    Req->Id = std::to_string(Index + 1); // the 1-based request number
    std::string Error;
    ErrorCode Code = ErrorCode::BadRequest;
    bool ParsedOk = false;
    try {
      std::optional<JsonValue> Root = parseJson(Line, Error);
      if (!Root)
        Error = "bad JSON: " + Error;
      else
        ParsedOk = parseRequest(*Root, *Req, Error, Code);
    } catch (const std::exception &E) {
      // An exception out of parsing (an injected fault, a real OOM on a
      // huge line) must not kill intake: answer the line and move on.
      Error = std::string("internal error parsing request: ") + E.what();
      Code = ErrorCode::Internal;
      ParsedOk = false;
    }
    if (!ParsedOk) {
      // Malformed request: answered inline (ordering still holds -- the
      // emitter serializes), with cmd "unknown" unless a valid cmd parsed.
      ++T.Errors;
      emitNoThrow(Index,
                  respond(*Req, CommandResult::failure(Code, Error)).Frame);
      continue;
    }
    {
      std::lock_guard<std::mutex> Lock(SlotsMu);
      if (Slots.size() <= Index)
        Slots.resize(Index + 1);
      Slots[Index] = std::move(Req);
    }
    Queue.push(Index);
  }
  bool Drained = DrainFlag.load(std::memory_order_relaxed);
  Queue.close();
  // Drain: keep interrupting in-flight solves until the pool is done, so
  // a request that registered its solver between sweeps is still caught.
  // Queued-not-started requests answer themselves `cancelled` in handle().
  while (Drained && !PoolDone.load(std::memory_order_relaxed)) {
    Flights.interruptAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Monitor.join();
  for (std::thread &Worker : Pool)
    if (Worker.joinable())
      Worker.join();
  if (Watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> Lock(WdMu);
      WdStop = true;
    }
    WdCv.notify_one();
    Watchdog.join();
  }
  // A worker that died between recording its response and flushing it
  // leaves the payload stranded in the emitter; write whatever became
  // contiguous so every accepted request's response reaches the stream.
  Emitter.flushReady();

  ServeSummary S;
  S.Requests = NumRequests;
  S.Ok = T.Ok;
  S.Incomplete = T.Incomplete;
  S.Errors = T.Errors;
  S.Cancelled = T.Cancelled;
  FormulaCacheStats CS = Cache.stats();
  S.CacheHits = CS.Hits;
  S.CacheMisses = CS.Misses;
  S.Respawns = Respawns;
  S.Retries = Retries;
  S.Drained = Drained;
  S.ExitCode = S.Errors ? 1 : (S.Incomplete || S.Cancelled) ? 2 : 0;

  Err << "{\"requests\":" << S.Requests << ",\"ok\":" << S.Ok
      << ",\"incomplete\":" << S.Incomplete << ",\"errors\":" << S.Errors
      << ",\"cancelled\":" << S.Cancelled
      << ",\"cache_hits\":" << S.CacheHits
      << ",\"cache_misses\":" << S.CacheMisses
      << ",\"respawns\":" << S.Respawns << ",\"retries\":" << S.Retries
      << ",\"drained\":" << (S.Drained ? "true" : "false")
      << ",\"threads\":" << Threads << ",\"elapsed_ms\":" << elapsedMs(Start)
      << "}\n";
  Err.flush();
  return S;
}
