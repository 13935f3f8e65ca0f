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

#include "cnf/DimacsReader.h"
#include "core/OptionTable.h"
#include "core/Pipeline.h"
#include "maxsat/Answer.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
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
  /// The decoded fields of every option the request's `cmd` takes
  /// (core/OptionTable.h); Opts.Cmd is the command.
  CommandOptions Opts{Command::Localize};
  /// The program: mini-C text (localize / repair) or DIMACS (maxsat / sat).
  std::string Source;

  /// Set by the first attempt to record this request's outcome in the
  /// summary counters; retries of a crashed worker re-compute the
  /// response (emission is idempotent) but must not re-count it.
  mutable std::atomic<bool> Tallied{false};

  const char *cmd() const { return commandName(Opts.Cmd); }
  const QueryBudget &budget() const { return Opts.Query.Localize.Budget; }
};

/// Decodes one request object. \p Req.Id is always usable afterwards (the
/// explicit id when one parsed, else the 1-based request number), so even
/// rejected requests get an addressable error response. \p Code
/// classifies the rejection (BadRequest unless a finer code applies).
bool parseRequest(const JsonValue &Root, size_t Index, Request &Req,
                  std::string &Error, ErrorCode &Code) {
  Code = ErrorCode::BadRequest;
  Req.Id = std::to_string(Index + 1);
  if (!Root.isObject()) {
    Error = "request must be a JSON object";
    return false;
  }
  if (const JsonValue *Id = Root.find("id")) {
    if (!Id->isString()) {
      Error = "field 'id' must be a string";
      return false;
    }
    Req.Id = Id->Text;
  }
  const JsonValue *CmdV = Root.find("cmd");
  if (!CmdV || !CmdV->isString()) {
    Error = CmdV ? "field 'cmd' must be a string"
                 : "missing required field 'cmd'";
    return false;
  }
  Command C;
  if (!parseServedCommand(CmdV->Text, C)) {
    Error = "field 'cmd' must be \"localize\", \"repair\", \"maxsat\", or "
            "\"sat\"";
    return false;
  }
  Req.Opts.Cmd = C;
  // Program-shaped commands take mini-C; maxsat/sat take DIMACS.
  const bool Prog = C == Command::Localize || C == Command::Repair;
  const char *Inline = Prog ? "source" : C == Command::MaxSat ? "wcnf" : "cnf";

  int ProgramSources = 0; // source/tcas/file, or wcnf/cnf/file
  for (const auto &[Key, Val] : Root.Members) {
    if (Key == "id" || Key == "cmd")
      continue; // handled above
    if (Key == Inline || Key == "file") {
      if (!Val.isString()) {
        Error = "field '" + Key + "' must be a string";
        return false;
      }
      Req.Source = Val.Text;
      if (Key == "file") {
        auto Text = readFileToString(Val.Text);
        if (!Text) {
          Error = "cannot read file '" + Val.Text + "'";
          Code = ErrorCode::FileUnreadable;
          return false;
        }
        Req.Source = std::move(*Text);
      }
      ++ProgramSources;
    } else if (Prog && Key == "tcas") {
      int64_t N = 0, Last = static_cast<int64_t>(tcasMutants().size());
      if (!Val.isNumber() || !parseBoundedInt(Val.Text, 0, Last, N)) {
        Error = "field 'tcas' must be an integer in [0, " +
                std::to_string(Last) + "]";
        return false;
      }
      Req.Source = N == 0 ? tcasSource()
                          : tcasMutants()[static_cast<size_t>(N - 1)].Source;
      ++ProgramSources;
    } else if (!applyRequestField(Key, Val, Req.Opts, Error)) {
      return false;
    }
  }

  const char *Wanted = Prog ? "'source', 'file', or 'tcas'"
                            : C == Command::MaxSat ? "'wcnf' or 'file'"
                                                   : "'cnf' or 'file'";
  if (ProgramSources == 0) {
    Error = std::string("missing program: give exactly one of ") + Wanted;
    return false;
  }
  if (ProgramSources > 1) {
    Error = std::string("conflicting program fields: give exactly one of ") +
            Wanted;
    return false;
  }
  if (C == Command::Repair) {
    const RepairRequest &R = Req.Opts.Query;
    if (R.Inputs.empty()) {
      Error = "repair requires a non-empty 'inputs' array";
      return false;
    }
    if (!R.Goldens.empty() && R.Goldens.size() != R.Inputs.size()) {
      Error = "'goldens' must match 'inputs' in length";
      return false;
    }
  }
  return true;
}

// --- responses ---------------------------------------------------------------

/// Everything the stats trailer line carries.
struct ResponseStats {
  uint64_t ElapsedMs = 0;
  uint64_t SatCalls = 0;
  SolverStats Search;
};

/// One fully framed response: header line, body bytes, stats trailer line.
std::string frameResponse(const std::string &Id, const char *CmdStr,
                          const char *Status, int Exit, ErrorCode Code,
                          const char *Cache, const std::string &ErrorMsg,
                          const std::string &Body,
                          const ResponseStats &St) {
  std::string Out = "{\"id\":\"" + jsonEscape(Id) + "\",\"cmd\":\"" + CmdStr +
                    "\",\"status\":\"" + Status +
                    "\",\"exit\":" + std::to_string(Exit) +
                    ",\"code\":\"" + errorCodeName(Code) + "\"";
  if (Cache)
    Out += std::string(",\"cache\":\"") + Cache + "\"";
  if (!ErrorMsg.empty())
    Out += ",\"error\":\"" + jsonEscape(ErrorMsg) + "\"";
  Out += ",\"bytes\":" + std::to_string(Body.size()) + "}\n";
  Out += Body;
  Out += "{\"id\":\"" + jsonEscape(Id) +
         "\",\"elapsed_ms\":" + std::to_string(St.ElapsedMs) +
         ",\"sat_calls\":" + std::to_string(St.SatCalls) +
         ",\"conflicts\":" + std::to_string(St.Search.Conflicts) +
         ",\"decisions\":" + std::to_string(St.Search.Decisions) +
         ",\"propagations\":" + std::to_string(St.Search.Propagations) +
         ",\"restarts\":" + std::to_string(St.Search.Restarts) +
         ",\"vars_eliminated\":" + std::to_string(St.Search.VarsEliminated) +
         ",\"clauses_subsumed\":" + std::to_string(St.Search.ClausesSubsumed) +
         ",\"lits_self_subsumed\":" +
         std::to_string(St.Search.LitsSelfSubsumed) +
         ",\"reconstruction_bytes\":" +
         std::to_string(St.Search.ReconstructBytes) + "}\n";
  return Out;
}

/// A computed response plus its summary classification. The class is
/// applied to the counters exactly once per request (Request::Tallied),
/// no matter how many crash retries re-compute the response.
struct Outcome {
  std::string Frame;
  enum Class : char { Ok = 'o', Incomplete = 'i', Error = 'e',
                      Cancelled = 'c' } Kind = Error;
};

Outcome respondError(const Request &Req, ErrorCode Code,
                     const std::string &Message, const char *Cache = nullptr,
                     uint64_t ElapsedMs = 0) {
  ResponseStats St;
  St.ElapsedMs = ElapsedMs;
  return {frameResponse(Req.Id, Req.cmd(), "error",
                        /*Exit=*/1, Code, Cache, Message, "", St),
          Outcome::Error};
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

  void set(size_t W, Solver *S, double WatchdogSeconds) {
    std::lock_guard<std::mutex> Lock(Mu);
    Solvers[W] = S;
    HasDeadline[W] = WatchdogSeconds > 0;
    if (WatchdogSeconds > 0)
      Deadline[W] = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           WatchdogSeconds));
  }

  void clear(size_t W) {
    std::lock_guard<std::mutex> Lock(Mu);
    Solvers[W] = nullptr;
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

/// RAII registration of one request's solver in the flight table.
struct FlightGuard {
  FlightGuard(FlightTable &Table, size_t W, Solver *S, double WatchdogSeconds)
      : Table(Table), W(W) {
    Table.set(W, S, WatchdogSeconds);
  }
  ~FlightGuard() { Table.clear(W); }
  FlightTable &Table;
  size_t W;
};

/// What a worker needs besides the request itself.
struct WorkerCtx {
  size_t Worker = 0;
  FlightTable *Flights = nullptr;
  double WatchdogSeconds = 0;
  /// Final retry of a crash-looping request: clamp the conflict budget so
  /// the attempt ends in `incomplete` rather than another crash-and-burn
  /// cycle. Budgets never change *what* is computed, only how far, so a
  /// degraded attempt that completes is still byte-identical.
  bool Degraded = false;

  uint64_t degradedConflicts(uint64_t Requested) const {
    if (!Degraded)
      return Requested;
    return Requested ? std::min(Requested, DegradedMaxConflicts)
                     : DegradedMaxConflicts;
  }
};

// --- per-command processing --------------------------------------------------

/// The error frame for a cache entry that holds no prepared program.
Outcome respondUnprepared(const Request &Req, const CachedProgram &CP,
                          const char *Cache, uint64_t ElapsedMs) {
  if (CP.errorCode() == ErrorCode::BadRequest)
    return respondError(Req, ErrorCode::BadRequest, CP.error(), Cache,
                        ElapsedMs);
  return respondError(Req, ErrorCode::CompileError,
                      "program does not compile: " + CP.error(), Cache,
                      ElapsedMs);
}

Outcome processLocalize(const Request &Req, FormulaCache &Cache,
                        const WorkerCtx &Ctx) {
  auto Start = Clock::now();
  bool Hit = false;
  const RepairRequest &Q = Req.Opts.Query;
  const CachedProgram &CP =
      Cache.lookup(Req.Source, Q.Entry, Q.Unroll, Q.Encode, &Hit);
  const char *CacheStr = Hit ? "hit" : "miss";
  if (!CP.prepared())
    return respondUnprepared(Req, CP, CacheStr, elapsedMs(Start));

  PipelineRequest R = Req.Opts.localizeRequest();
  R.Localize.Budget.MaxConflicts =
      Ctx.degradedConflicts(R.Localize.Budget.MaxConflicts);

  // The encode-once fast path: a clone of the cached base session, primed
  // with TF1 + the soft selectors, completed per-test inside the pipeline.
  std::unique_ptr<MaxSatSession> Session =
      CP.cloneSession(R.Localize.Weighted);
  std::optional<FlightGuard> Flight;
  if (Ctx.Flights)
    Flight.emplace(*Ctx.Flights, Ctx.Worker, &Session->solver(),
                   Ctx.WatchdogSeconds);
  PipelineResult Res = runLocalizePipeline(*CP.prepared(), R, Session.get());
  Flight.reset();

  if (Res.Status == PipelineStatus::InputNotFailing)
    return respondError(Req, Res.Code, "nothing to localize: " + Res.Message,
                        CacheStr, elapsedMs(Start));

  // Localized or NoCounterexample: the body is the one-shot CLI's stdout,
  // byte for byte.
  std::string Body = renderLocalizeOutput(Res, Req.Opts.Json);
  bool Incomplete = Res.Report.Incomplete;
  ResponseStats St;
  St.ElapsedMs = elapsedMs(Start);
  St.SatCalls = Res.Report.SatCalls;
  St.Search = Res.Report.Search;
  return {frameResponse(Req.Id, Req.cmd(),
                        Incomplete ? "incomplete" : "ok", Incomplete ? 2 : 0,
                        Res.Code, CacheStr, "", Body, St),
          Incomplete ? Outcome::Incomplete : Outcome::Ok};
}

Outcome processRepair(const Request &Req, FormulaCache &Cache,
                      const WorkerCtx &Ctx) {
  auto Start = Clock::now();
  RepairRequest R = Req.Opts.Query;
  R.Localize.Budget.startClock(); // `timeout` counts from the request start
  bool Hit = false;
  const CachedProgram &CP =
      Cache.lookup(Req.Source, R.Entry, R.Unroll, R.Encode, &Hit);
  const char *CacheStr = Hit ? "hit" : "miss";
  if (!CP.prepared())
    return respondUnprepared(Req, CP, CacheStr, elapsedMs(Start));

  R.Localize.Budget.MaxConflicts =
      Ctx.degradedConflicts(R.Localize.Budget.MaxConflicts);

  // Same encode-once fast path as localize: the cached base session
  // serves the localization stage, and runRepairPipeline prescreens lines
  // on a clone of it. The request's `timeout` is one deadline over the
  // whole repair (localization, prescreen, each candidate's verification,
  // the candidate loop). The watchdog rides the localization solve only:
  // the prescreen and verification solvers are internal to repairProgram
  // and bounded by verify_budget and that deadline.
  std::unique_ptr<MaxSatSession> Session =
      CP.cloneSession(R.Localize.Weighted);
  std::optional<FlightGuard> Flight;
  if (Ctx.Flights)
    Flight.emplace(*Ctx.Flights, Ctx.Worker, &Session->solver(),
                   Ctx.WatchdogSeconds);
  RepairPipelineResult Res =
      runRepairPipeline(*CP.prepared(), R, Session.get());
  Flight.reset();

  if (Res.Status != PipelineStatus::Localized)
    return respondError(Req, Res.Code, "nothing to repair: " + Res.Message,
                        CacheStr, elapsedMs(Start));

  // The body is the one-shot CLI's stdout, byte for byte.
  std::string Body = renderRepairOutput(Res, Req.Opts.Json);
  bool Incomplete = Res.Code == ErrorCode::BudgetExhausted;
  ResponseStats St;
  St.ElapsedMs = elapsedMs(Start);
  St.SatCalls = Res.Report.SatCalls + Res.Repair.Stats.PrescreenSatCalls;
  St.Search = Res.Report.Search;
  return {frameResponse(Req.Id, Req.cmd(),
                        Incomplete ? "incomplete" : "ok", Incomplete ? 2 : 0,
                        Res.Code, CacheStr, "", Body, St),
          Incomplete ? Outcome::Incomplete : Outcome::Ok};
}

Outcome processMaxSat(const Request &Req, const WorkerCtx &Ctx) {
  auto Start = Clock::now();
  DimacsParseError Err;
  auto Parsed = parseDimacs(Req.Source, Err);
  if (!Parsed)
    return respondError(Req, ErrorCode::BadDimacs, "bad wcnf: " + Err.render(),
                        nullptr, elapsedMs(Start));

  bool AnyWeight = false;
  MaxSatInstance Inst = toMaxSatInstance(std::move(*Parsed), &AnyWeight);
  Inst.Witness = Req.Opts.Model; // no v line, no model to rebuild
  Solver::Budget B = Req.budget().solverBudget();
  B.MaxConflicts = Ctx.degradedConflicts(B.MaxConflicts);
  MaxSatResult R; // Unknown when the variables alone overflow the cap
  if (B.admitsVars(Inst.NumVars)) {
    std::unique_ptr<MaxSatSession> Session =
        makeMaxSatSession(Inst, AnyWeight, /*ConflictBudget=*/0,
                          Solver::Options(), /*Canonical=*/true);
    if (Req.budget().any() || Ctx.Degraded)
      Session->setBudget(B);
    std::optional<FlightGuard> Flight;
    if (Ctx.Flights)
      Flight.emplace(*Ctx.Flights, Ctx.Worker, &Session->solver(),
                     Ctx.WatchdogSeconds);
    R = Session->solve();
  }

  // The CLI's o/s/v lines with the `c` comment lines removed.
  std::string Body =
      renderMaxSatAnswer(R, Inst.NumVars, Req.Opts.Model, /*Comments=*/false);
  bool Incomplete = R.Status == MaxSatStatus::Unknown;
  ResponseStats St;
  St.ElapsedMs = elapsedMs(Start);
  St.SatCalls = R.SatCalls;
  St.Search = R.Search;
  return {frameResponse(Req.Id, Req.cmd(),
                        Incomplete ? "incomplete" : "ok", Incomplete ? 2 : 0,
                        Incomplete ? ErrorCode::BudgetExhausted
                                   : ErrorCode::Ok,
                        nullptr, "", Body, St),
          Incomplete ? Outcome::Incomplete : Outcome::Ok};
}

Outcome processSat(const Request &Req, const WorkerCtx &Ctx) {
  auto Start = Clock::now();
  DimacsParseError Err;
  auto Parsed = parseDimacs(Req.Source, Err);
  if (!Parsed)
    return respondError(Req, ErrorCode::BadDimacs, "bad cnf: " + Err.render(),
                        nullptr, elapsedMs(Start));

  // WCNF soft clauses are decided as hard, as the sat CLI does (which
  // warns on a `c` line; serve bodies carry no comment lines).
  std::vector<Clause> Clauses = std::move(Parsed->Hard);
  for (DimacsSoftClause &C : Parsed->Soft)
    Clauses.push_back(std::move(C.Lits));

  // The solver is internal to solveSat, so the watchdog cannot reach it
  // via the flight table; its deadline rides in as a budget deadline
  // instead, which the solver polls at the same cadence as the interrupt
  // flag.
  Solver::Budget B = Req.budget().solverBudget();
  B.MaxConflicts = Ctx.degradedConflicts(B.MaxConflicts);
  if (Ctx.WatchdogSeconds > 0 && Req.budget().TimeoutSeconds <= 0)
    B.setDeadlineIn(Ctx.WatchdogSeconds);
  SatAnswer R =
      solveSat(Clauses, Parsed->NumVars, Req.Opts.Model, Solver::Options(), B);
  std::string Body = renderSatAnswer(R, Parsed->NumVars, Req.Opts.Model);

  bool Incomplete = R.Result == LBool::Undef;
  ResponseStats St;
  St.ElapsedMs = elapsedMs(Start);
  St.SatCalls = 1;
  St.Search = R.Stats;
  return {frameResponse(Req.Id, Req.cmd(),
                        Incomplete ? "incomplete" : "ok", Incomplete ? 2 : 0,
                        Incomplete ? ErrorCode::BudgetExhausted
                                   : ErrorCode::Ok,
                        nullptr, "", Body, St),
          Incomplete ? Outcome::Incomplete : Outcome::Ok};
}

Outcome processRequest(const Request &Req, FormulaCache &Cache,
                       const WorkerCtx &Ctx) {
  switch (Req.Opts.Cmd) {
  case Command::Localize:
    return processLocalize(Req, Cache, Ctx);
  case Command::Repair:
    return processRepair(Req, Cache, Ctx);
  case Command::MaxSat:
    return processMaxSat(Req, Ctx);
  case Command::Sat:
    return processSat(Req, Ctx);
  default:
    break;
  }
  return respondError(Req, ErrorCode::Internal, "unreachable");
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
      ResponseStats St;
      tallyAndEmit(Index, Req,
                   {frameResponse(Req.Id, Req.cmd(), "cancelled",
                                  /*Exit=*/2, ErrorCode::Cancelled, nullptr,
                                  "request drained before execution", "", St),
                    Outcome::Cancelled});
      return;
    }
    WorkerCtx Ctx;
    Ctx.Worker = W;
    Ctx.Flights = &Flights;
    Ctx.WatchdogSeconds = Opts.WatchdogSeconds;
    Ctx.Degraded = Attempt > 0 && Attempt >= Opts.MaxRetries;
    Outcome O = processRequest(Req, Cache, Ctx);
    tallyAndEmit(Index, Req, std::move(O));
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
      Flights.clear(W); // belt and braces; FlightGuard normally did this
      postNote({W, false, InFlight, Cur, Attempt, E.what()});
    } catch (...) {
      Flights.clear(W);
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
        Outcome O = respondError(Req, ErrorCode::WorkerCrashed,
                                 "worker crashed on every attempt: " + N.What);
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
    std::string Error;
    ErrorCode Code = ErrorCode::BadRequest;
    bool ParsedOk = false;
    std::optional<JsonValue> Root;
    try {
      Root = parseJson(Line, Error);
      if (!Root) {
        Error = "bad JSON: " + Error;
        Req->Id = std::to_string(Index + 1);
      } else {
        ParsedOk = parseRequest(*Root, Index, *Req, Error, Code);
      }
    } catch (const std::exception &E) {
      // An exception out of parsing (an injected fault, a real OOM on a
      // huge line) must not kill intake: answer the line and move on.
      Error = std::string("internal error parsing request: ") + E.what();
      Code = ErrorCode::Internal;
      if (Req->Id.empty())
        Req->Id = std::to_string(Index + 1);
      ParsedOk = false;
    }
    if (!ParsedOk) {
      // Malformed request: answered inline (ordering still holds -- the
      // emitter serializes), with cmd "unknown" unless a valid cmd parsed.
      std::string CmdText = "unknown";
      Command C;
      if (Root)
        if (const JsonValue *CmdV = Root->find("cmd"))
          if (CmdV->isString() && parseServedCommand(CmdV->Text, C))
            CmdText = CmdV->Text;
      ++T.Errors;
      ResponseStats St;
      emitNoThrow(Index, frameResponse(Req->Id, CmdText.c_str(), "error",
                                       /*Exit=*/1, Code, nullptr, Error, "",
                                       St));
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
