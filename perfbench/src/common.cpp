//===- common.cpp - Shared harness of the benchmark workloads -------------===//
//
// Part of the BugAssist-Repro benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "bmc/Encoder.h"
#include "bmc/Unroller.h"
#include "interp/Interpreter.h"
#include "support/Rng.h"

#include <algorithm>
#include <fstream>
#include <sys/resource.h>

using namespace perfbench;
using namespace bugassist;

bool Expected::load(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    // "<workload> <item...> = <value...>": the key is everything before
    // " = ".
    size_t Eq = Line.find(" = ");
    if (Eq == std::string::npos)
      return false;
    Lines[Line.substr(0, Eq)] = Line.substr(Eq + 3);
  }
  return !Lines.empty();
}

const std::string *Expected::find(const std::string &Key) const {
  auto It = Lines.find(Key);
  return It == Lines.end() ? nullptr : &It->second;
}

void RunResult::fail(const std::string &Note) {
  ++Failed;
  if (FailNotes.size() < 20)
    FailNotes.push_back(Note);
}

uint64_t perfbench::fnv1a(const std::string &S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string perfbench::hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

double perfbench::cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

std::vector<size_t> perfbench::seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng R(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

void perfbench::timeSetup(RunResult &R, const std::function<void()> &Setup) {
  double T0 = nowMs();
  Setup();
  R.SetupS.push_back((nowMs() - T0) / 1000.0);
}

void perfbench::runSetup(const Args &A, RunResult &R,
                         const std::function<void()> &Setup, int Reps) {
  for (int I = 0; I < Reps; ++I)
    timeSetup(R, Setup);
  if (A.Trace) {
    Tracer::get().enable(true);
    {
      SpanScope Root("setup", 0);
      Setup();
    }
    Tracer::get().enable(false);
  }
}

void perfbench::driveOps(const Args &A, size_t NumItems, const OpRun &Run,
                         const OpCheck &Check, RunResult &R,
                         size_t RoundSize,
                         const std::function<void()> &Setup) {
  auto Done = [&](size_t I, double Deadline) {
    return I % RoundSize == 0 && nowMs() >= Deadline;
  };
  if (NumItems == 0) {
    R.fail("workload generated no inputs");
    return;
  }
  if (!A.Trace) {
    double RoundCpu = cpuSeconds(), RoundT = nowMs();
    double Deadline = RoundT + A.Seconds * 1000.0, LastSetup = RoundT;
    for (size_t I = 0; !Done(I, Deadline); ++I) {
      size_t Item = I % NumItems;
      double S = nowMs();
      OpOutput Out = Run(Item, false);
      double Lat = nowMs() - S;
      R.LatenciesMs.push_back(Lat);
      ++R.Attempted;
      Check(Item, Out);
      if (I % RoundSize == 0)
        R.Rounds.emplace_back();
      R.Rounds.back().LatenciesMs.push_back(Lat);
      if ((I + 1) % RoundSize == 0) {
        double Cpu = cpuSeconds(), T = nowMs();
        R.Rounds.back().CpuS = Cpu - RoundCpu;
        R.Rounds.back().WallS = (T - RoundT) / 1000.0;
        // Set-up repetitions spread over the whole run, about one a
        // second, sample the host's speed across it, not only at its start.
        if (T - LastSetup >= 1000.0) {
          timeSetup(R, Setup);
          LastSetup = nowMs();
        }
        RoundCpu = cpuSeconds();
        RoundT = nowMs();
      }
    }
    for (const Round &Rd : R.Rounds) {
      R.WallS += Rd.WallS;
      R.CpuS += Rd.CpuS;
    }
    return;
  }

  // Traced half, then the untraced twin of exactly the same ops.
  std::vector<OpOutput> Traced;
  double Deadline = nowMs() + A.Seconds * 500.0;
  Tracer::get().enable(true);
  for (size_t I = 0; !Done(I, Deadline); ++I) {
    size_t Item = I % NumItems;
    double S = nowMs();
    {
      SpanScope Root("op", static_cast<uint32_t>(I + 1));
      Traced.push_back(Run(Item, true));
    }
    R.TracedWallMs += nowMs() - S;
    ++R.Attempted;
    Check(Item, Traced.back());
  }
  Tracer::get().enable(false);
  for (size_t I = 0; I < Traced.size(); ++I) {
    size_t Item = I % NumItems;
    double S = nowMs();
    OpOutput Out = Run(Item, false);
    R.UntracedWallMs += nowMs() - S;
    if (Out.Text != Traced[I].Text)
      R.fail("item " + std::to_string(Item) +
             ": traced output differs from the untraced run");
    else if (Out.Counters != Traced[I].Counters)
      R.fail("item " + std::to_string(Item) +
             ": traced solver counters differ from the untraced run (" +
             Traced[I].Counters + " vs " + Out.Counters + ")");
  }
}

namespace {

ExecOptions execOptionsFor(const PipelineRequest &R) {
  ExecOptions EO;
  EO.BitWidth = R.Unroll.BitWidth;
  EO.CheckArrayBounds = R.Unroll.CheckArrayBounds && R.CheckObligations;
  EO.CheckDivByZero = R.CheckObligations;
  return EO;
}

/// The one-shot pipeline's concrete judge of a given input: \returns true
/// when the input violates the request's spec (and so gets localized).
bool judgeInput(const Program &Prog, const PipelineRequest &Req) {
  SpanScope S("interp.judge");
  Interpreter I(Prog, execOptionsFor(Req));
  ExecResult Run = I.run(Req.Entry, *Req.Input);
  if (Run.Status == ExecStatus::SetupError ||
      Run.Status == ExecStatus::AssumeFail)
    return false;
  if (Req.CheckObligations && Run.failed())
    return true;
  return Req.GoldenReturn && Run.Status == ExecStatus::Ok &&
         Run.ReturnValue != *Req.GoldenReturn;
}

void countFormula(const UnrolledProgram *UP, const TraceFormula &TF) {
  Tracer &T = Tracer::get();
  if (UP)
    T.count("bmc.ssa_defs", static_cast<double>(UP->Defs.size()));
  const CnfFormula &F = TF.encoded().Formula;
  T.count("bmc.cnf_vars", F.numVars());
  T.count("bmc.cnf_clauses", static_cast<double>(F.numClauses()));
  T.count("bmc.groups", static_cast<double>(F.numGroups()));
}

OpOutput finish(PipelineResult &Res, PipelineResult *Out) {
  OpOutput O;
  {
    SpanScope S("core.render");
    O.Text = renderLocalizeOutput(Res, /*Json=*/false);
  }
  if (Res.Status == PipelineStatus::Localized) {
    O.Counters = searchCounters(Res.Report);
    countSearch(Res.Report);
  }
  if (Out)
    *Out = std::move(Res);
  return O;
}

} // namespace

std::string perfbench::searchCounters(const LocalizationReport &Rep) {
  const SolverStats &S = Rep.Search;
  return "sat_calls=" + std::to_string(Rep.SatCalls) +
         " conflicts=" + std::to_string(S.Conflicts) +
         " decisions=" + std::to_string(S.Decisions) +
         " propagations=" + std::to_string(S.Propagations) +
         " eliminated=" + std::to_string(S.VarsEliminated);
}

void perfbench::countSearch(const LocalizationReport &Rep) {
  Tracer::get().count("maxsat.diagnoses",
                      static_cast<double>(Rep.Diagnoses.size()));
  countSolver(Rep.Search);
}

void perfbench::countSolver(const SolverStats &S) {
  Tracer &T = Tracer::get();
  T.count("sat.conflicts", static_cast<double>(S.Conflicts));
  T.count("sat.decisions", static_cast<double>(S.Decisions));
  T.count("sat.propagations", static_cast<double>(S.Propagations));
  T.count("sat.learnts", static_cast<double>(S.LearnedClauses));
  // DeletedClauses counts every arena free (learnt reduction, BVE, guard
  // retirement), so it is exported under that name, not as deletions.
  T.count("sat.arena_frees", static_cast<double>(S.DeletedClauses));
  T.count("sat.vars_eliminated", static_cast<double>(S.VarsEliminated));
  T.count("sat.reconstruct_bytes", static_cast<double>(S.ReconstructBytes));
}

void perfbench::countRepair(const RepairResult &Rep) {
  Tracer &T = Tracer::get();
  T.count("core.repairs_found", Rep.Found ? 1 : 0);
  T.count("core.repair_candidates_tried",
          static_cast<double>(Rep.CandidatesTried));
  T.count("core.repair_formula_builds",
          static_cast<double>(Rep.Stats.FormulaBuilds));
}

OpOutput perfbench::localizeOneShot(const Program &Prog,
                                    const PipelineRequest &Req,
                                    PipelineResult *Out) {
  PipelineResult Res = runLocalizePipeline(Prog, Req);
  OpOutput O;
  O.Text = renderLocalizeOutput(Res, /*Json=*/false);
  if (Res.Status == PipelineStatus::Localized)
    O.Counters = searchCounters(Res.Report);
  if (Out)
    *Out = std::move(Res);
  return O;
}

OpOutput perfbench::localizeTraced(const Program &Prog,
                                   const PipelineRequest &Req,
                                   PipelineResult *Out) {
  // Mirrors runLocalizePipeline(Program, R) at width 1: BugAssistDriver's
  // unroll + encode, the concrete judge (or BMC), localizationInstance,
  // the canonical Fu-Malik/linear session, and the enumeration loop.
  UnrollOptions U = Req.Unroll;
  EncodeOptions E = Req.Encode;
  E.BitWidth = U.BitWidth;
  UnrolledProgram UP;
  {
    SpanScope S("bmc.unroll");
    UP = unrollProgram(Prog, Req.Entry, U);
  }
  std::unique_ptr<TraceFormula> TF;
  {
    SpanScope S("bmc.encode");
    TF = std::make_unique<TraceFormula>(encodeProgram(UP, E));
  }
  countFormula(&UP, *TF);

  PipelineResult Res;
  Res.SpecUsed.CheckObligations = Req.CheckObligations;
  Res.SpecUsed.GoldenReturn = Req.GoldenReturn;
  if (Req.Input) {
    if (!judgeInput(Prog, Req)) {
      Res.Status = PipelineStatus::InputNotFailing;
      Res.Code = ErrorCode::InputNotFailing;
      SpanScope S("bmc.release");
      TF.reset();
      return finish(Res, Out);
    }
    Res.FailingInput = *Req.Input;
  } else {
    std::optional<InputVector> Cex;
    {
      SpanScope S("bmc.cex");
      bool Decided = false;
      Cex = TF->findCounterexample(Res.SpecUsed, Decided,
                                   Req.BmcConflictBudget);
    }
    if (!Cex) {
      Res.Status = PipelineStatus::NoCounterexample;
      Res.Code = ErrorCode::Ok;
      Res.Message = "no spec violation found within the unwinding bounds";
      SpanScope S("bmc.release");
      TF.reset();
      return finish(Res, Out);
    }
    Res.FailingInput = *Cex;
  }

  MaxSatInstance Inst;
  {
    SpanScope S("bmc.instance");
    Inst = TF->localizationInstance(Res.FailingInput, Res.SpecUsed);
  }
  Solver::Options SO;
  SO.Preprocess = Req.Localize.Preprocess;
  std::unique_ptr<MaxSatSession> Session;
  {
    SpanScope S("maxsat.build");
    Session = makeMaxSatSession(Inst, Req.Localize.Weighted,
                                Req.Localize.ConflictBudget, SO,
                                /*Canonical=*/true);
  }
  // The load-time simplification pass, run explicitly the way serve's
  // FormulaCache::cloneSession does so it gets its own span. The first
  // solve() then skips it; driveOps checks that report bytes and width-1
  // solver counters still equal the one-shot run's.
  {
    SpanScope S("sat.preprocess");
    Session->solver().preprocess();
  }
  auto Timed = std::make_unique<TimedSession>(std::move(Session));
  {
    SpanScope S("core.enumerate");
    Res.Report =
        enumerateCoMSSesOn(*Timed, TF->encoded().Formula, Req.Localize);
  }
  {
    SpanScope S("maxsat.release");
    Timed.reset();
  }
  {
    SpanScope S("bmc.release");
    TF.reset();
  }
  Res.Status = PipelineStatus::Localized;
  Res.Code = Res.Report.Incomplete ? ErrorCode::BudgetExhausted : ErrorCode::Ok;
  return finish(Res, Out);
}

OpOutput perfbench::localizeOnSession(const Program &Prog,
                                      const TraceFormula &TF,
                                      const PipelineRequest &Req,
                                      MaxSatSession &Session,
                                      PipelineResult *Out) {
  PipelineResult Res;
  Res.SpecUsed.CheckObligations = Req.CheckObligations;
  Res.SpecUsed.GoldenReturn = Req.GoldenReturn;
  if (!judgeInput(Prog, Req)) {
    Res.Status = PipelineStatus::InputNotFailing;
    Res.Code = ErrorCode::InputNotFailing;
    return finish(Res, Out);
  }
  Res.FailingInput = *Req.Input;
  std::vector<Clause> Test;
  {
    SpanScope S("bmc.instance");
    Test = TF.testClauses(Res.FailingInput, Res.SpecUsed);
  }
  for (const Clause &C : Test)
    Session.addHardClause(C);
  {
    SpanScope S("core.enumerate");
    Res.Report = enumerateCoMSSesOn(Session, TF.encoded().Formula,
                                    Req.Localize);
  }
  Res.Status = PipelineStatus::Localized;
  Res.Code = Res.Report.Incomplete ? ErrorCode::BudgetExhausted : ErrorCode::Ok;
  return finish(Res, Out);
}

std::string perfbench::verifyRepair(const RepairResult &Rep,
                                    const std::vector<InputVector> &Inputs,
                                    const std::vector<int64_t> &Goldens,
                                    const ExecOptions &EO) {
  if (!Rep.Found)
    return "";
  if (!Rep.Suggestion.FixedProgram)
    return "accepted repair carries no program";
  Interpreter I(*Rep.Suggestion.FixedProgram, EO);
  for (size_t T = 0; T < Inputs.size(); ++T) {
    ExecResult Run = I.run("main", Inputs[T]);
    if (Run.Status != ExecStatus::Ok || Run.ReturnValue != Goldens[T])
      return "accepted repair (" + Rep.Suggestion.Description +
             ") fails test " + renderInputVector(Inputs[T]);
  }
  return "";
}
