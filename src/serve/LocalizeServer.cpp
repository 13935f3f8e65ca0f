//===- LocalizeServer.cpp - Batch/daemon localization service -------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The pool (docs/SERVE.md, "Worker crashes"): the calling thread reads
// and decodes request lines into a bounded FIFO, and Threads identical
// workers each loop pop -> attempt -> emit. An exception escaping an
// attempt -- a real OOM, an injected fault -- is caught in the worker,
// which retries the request in place: bounded retries under exponential
// backoff, the last attempt under a degraded budget, and an error
// response with code `worker-crashed` when every attempt threw. A request
// is tallied once, by the worker that emits its frame, and freed as soon
// as the frame is emitted; emission is idempotent per request index
// (OrderedEmitter), so a failed emit cannot lose or duplicate a frame.
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
#include <istream>
#include <optional>
#include <ostream>
#include <thread>
#include <vector>

using namespace bugassist;

namespace {

using Clock = std::chrono::steady_clock;

/// The process-global drain request: SIGINT/SIGTERM handlers (installed
/// by the CLI) set it via LocalizeServer::requestDrain, run() clears it
/// on entry and polls it between requests, and every request's budget
/// carries it as its cancel flag (QueryBudget::Cancel).
std::atomic<bool> DrainFlag{false};

/// Degraded budget for the final retry of a crash-looping request: enough
/// conflicts to finish any well-behaved query, small enough that a
/// pathological one comes back `incomplete` instead of crashing forever.
constexpr uint64_t DegradedMaxConflicts = 200000;

/// Base of the exponential backoff between crash retries: retry k sleeps
/// RetryBackoffMs * 2^(k-1) ms, at most a second, so transient conditions
/// (memory pressure, a fault campaign burst) get time to pass.
constexpr double RetryBackoffMs = 5.0;

/// Queued requests per worker. The reader blocks once 2 x Threads
/// decoded requests wait, so a run holds at most 3 x Threads + 1 requests
/// (queued, one per worker, one being pushed) whatever its input length.
constexpr size_t QueuedPerWorker = 2;

uint64_t elapsedMs(Clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            Start)
          .count());
}

// --- requests ----------------------------------------------------------------

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

/// A computed response plus its summary classification, which the worker
/// emitting the frame applies to the counters.
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

/// Answers one request through the command runner (core/Command.h):
/// programs resolve through \p Cache and localization runs on a clone of
/// the cached base session. The watchdog is the request's deadline (the
/// smaller of its timeout and \p WatchdogSeconds) and the drain its cancel
/// flag, so every solver of the request -- the base build, the BMC search,
/// localization, repair's prescreen and verifications -- answers to both.
/// \p Degraded marks the final retry of a crash-looping request: its
/// conflict budget is clamped so the attempt ends `incomplete` rather than
/// in another crash. Budgets never change *what* is computed, only how
/// far, so a request that completes is byte-identical.
Outcome processRequest(const Request &Req, FormulaCache &Cache,
                       double WatchdogSeconds, bool Degraded) {
  auto Start = Clock::now();
  CommandOptions O = Req.Opts;
  QueryBudget &B = O.Query.Localize.Budget;
  if (Degraded)
    B.MaxConflicts = B.MaxConflicts
                         ? std::min(B.MaxConflicts, DegradedMaxConflicts)
                         : DegradedMaxConflicts;
  if (WatchdogSeconds > 0)
    B.TimeoutSeconds = B.TimeoutSeconds > 0
                           ? std::min(B.TimeoutSeconds, WatchdogSeconds)
                           : WatchdogSeconds;
  B.Cancel = &DrainFlag;

  const char *CacheStr = nullptr;
  CommandEnv Env;
  Env.Resolve = [&](const CommandOptions &Q, const QueryBudget &Budget) {
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
    // primed with TF1 + the soft selectors, completed per test. A request
    // whose budget ran out while resolving builds no base it cannot use;
    // its pipeline stages then stop at their first budget poll.
    if (P.Prepared && !Budget.expired())
      P.Session = CP.cloneSession(Budget.deadline());
    return P;
  };
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
  RequestQueue Queue(QueuedPerWorker * Threads);
  OrderedEmitter Emitter(Out);
  Tally T;
  std::atomic<uint64_t> Respawns{0}, Retries{0};

  // emit() records the payload before writing a byte, so after it threw
  // -- a real OOM, an injected flush fault -- the frame is recorded and
  // flushReady() writes it; the thread goes on.
  auto emitNoThrow = [&](size_t Index, std::string Frame) {
    try {
      Emitter.emit(Index, std::move(Frame));
    } catch (...) {
      ++Respawns;
      Emitter.flushReady();
    }
  };

  // Answers one request, retrying in place an attempt that threw.
  auto answer = [&](const Request &Req) -> Outcome {
    for (int Attempt = 0;; ++Attempt) {
      std::string What;
      try {
        if (DrainFlag.load(std::memory_order_relaxed))
          // Accepted but drained before any work started: answer
          // `cancelled` so the client still gets exactly one response.
          return respond(Req, CommandResult::failure(
                                  ErrorCode::Cancelled,
                                  "request drained before execution"));
        bool Degraded = Attempt > 0 && Attempt >= Opts.MaxRetries;
        return processRequest(Req, Cache, Opts.WatchdogSeconds, Degraded);
      } catch (const std::exception &E) {
        What = E.what();
      } catch (...) {
        What = "unknown exception";
      }
      ++Respawns;
      if (Attempt >= Opts.MaxRetries)
        return respond(Req, CommandResult::failure(
                                ErrorCode::WorkerCrashed,
                                "worker crashed on every attempt: " + What));
      ++Retries;
      double Ms = std::min(RetryBackoffMs * (1 << Attempt), 1000.0);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(Ms));
    }
  };

  std::vector<std::thread> Pool;
  for (size_t W = 0; W < Threads; ++W)
    Pool.emplace_back([&] {
      for (;;) {
        std::unique_ptr<Request> Req;
        try {
          if (!Queue.pop(Req))
            return;
        } catch (...) {
          ++Respawns; // pop throws before taking anything: pop again
          continue;
        }
        Outcome O = answer(*Req);
        T.count(O.Kind);
        emitNoThrow(Req->Index, std::move(O.Frame));
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
    Req->Index = Index;
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
    Queue.push(std::move(Req));
  }
  bool Drained = DrainFlag.load(std::memory_order_relaxed);
  Queue.close();
  // On a drain, in-flight requests see the flag through their budgets and
  // end `incomplete`; queued ones answer themselves `cancelled`.
  for (std::thread &Worker : Pool)
    Worker.join();

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
