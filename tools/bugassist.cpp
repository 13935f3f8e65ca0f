//===- bugassist.cpp - The BugAssist command-line tool ------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The user-facing entry point to the pipeline (docs/CLI.md is the full
// reference):
//
//   bugassist localize <prog.ba> [--input "..."] [--golden N] ...
//       parse -> sema -> unroll -> trace formula -> CoMSS enumeration on a
//       mini-C source file; prints the ranked per-line report (text or
//       --json). Without --input, a failing input is found by BMC.
//
//   bugassist repair <prog.ba> --input "..." [--golden N] ...
//       localize, then run Algorithm 2 over the suspect lines: off-by-one
//       and near-miss-operator mutants, screened on the failing tests and
//       re-verified by BMC, all through the encode-once Pipeline seam.
//
//   bugassist fuzz <tcas|prog.ba> [--seed N] [--count N] ...
//       deterministic differential sweep: seeded mutants of a golden
//       subject, each localized with preprocessing on and off (reports
//       must be byte-identical), scored
//       against the known fault line, repaired on hits; Table-1-style
//       JSON scorecard per fault class.
//
//   bugassist maxsat <file.wcnf>
//       partial (weighted) MaxSAT on a DIMACS/WCNF instance, MaxSAT-
//       Evaluation-style output (o/s/v lines).
//
//   bugassist sat <file.cnf>
//       plain SAT on one solver (SAT-competition-style s/v lines).
//
//   bugassist dump-tcas [N | --list]
//       prints the checked-in TCAS sources (0 = correct version, 1..41 =
//       the faulty Siemens-style mutants) so they can be fed back into
//       `bugassist localize`.
//
// The localize report is canonical: the session canonicalizes its optima
// (see maxsat/Canonical.h), and solver statistics -- which depend on search
// history -- are printed only under --stats.
//
//===----------------------------------------------------------------------===//

#include "cnf/DimacsReader.h"
#include "core/OptionTable.h"
#include "core/Pipeline.h"
#include "lang/Sema.h"
#include "maxsat/Answer.h"
#include "maxsat/MaxSat.h"
#include "mutate/FuzzSweep.h"
#include "programs/FaultCatalog.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "serve/LocalizeServer.h"
#include "support/FaultInject.h"
#include "support/FileUtil.h"
#include "support/Rng.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

using namespace bugassist;

namespace {

// Exit-code contract (docs/CLI.md): 0 = the run completed (a decided
// answer, including UNSATISFIABLE), 1 = input or usage error, 2 = a
// resource budget stopped the run early (the partial output printed is
// best-so-far, flagged INCOMPLETE / UNKNOWN).
constexpr int ExitComplete = 0;
constexpr int ExitInputError = 1;
constexpr int ExitBudgetExhausted = 2;

int usage(const char *Argv0) {
  std::fputs(renderUsage(Argv0).c_str(), stderr);
  return ExitInputError;
}

// --- localize ----------------------------------------------------------------

int cmdLocalize(const std::string &Path, CommandOptions &O) {
  auto Source = readFileToString(Path);
  if (!Source) {
    std::fprintf(stderr, "bugassist: cannot read '%s'\n", Path.c_str());
    return 1;
  }

  PipelineResult Res = runLocalizePipeline(*Source, O.localizeRequest());
  switch (Res.Status) {
  case PipelineStatus::CompileError:
    std::fprintf(stderr, "bugassist: %s does not compile:\n%s", Path.c_str(),
                 Res.Message.c_str());
    return 1;
  case PipelineStatus::InputNotFailing:
    std::fprintf(stderr, "bugassist: nothing to localize: %s\n",
                 Res.Message.c_str());
    return 1;
  case PipelineStatus::NoCounterexample:
  case PipelineStatus::Localized:
    break;
  }

  // The canonical output bytes, shared with serve mode so batch responses
  // diff clean against one-shot runs.
  std::string Body = renderLocalizeOutput(Res, O.Json);
  std::fwrite(Body.data(), 1, Body.size(), stdout);
  if (Res.Status == PipelineStatus::NoCounterexample)
    return 0;
  if (O.Stats)
    std::printf("%s", renderSearchStats(Res.Report).c_str());
  // The partial report was still printed (INCOMPLETE-marked); the exit
  // code tells scripts the enumeration did not finish.
  return Res.Report.Incomplete ? ExitBudgetExhausted : ExitComplete;
}

// --- repair ------------------------------------------------------------------

int cmdRepair(const std::string &Path, CommandOptions &O) {
  // --timeout bounds the whole command, parsing and encoding included.
  O.Query.Localize.Budget.startClock();
  const RepairRequest &R = O.Query;
  if (R.Inputs.empty()) {
    std::fprintf(stderr, "bugassist: repair requires at least one --input\n");
    return 1;
  }
  if (!R.Goldens.empty() && R.Goldens.size() != R.Inputs.size()) {
    std::fprintf(stderr,
                 "bugassist: %zu --golden values for %zu --input values\n",
                 R.Goldens.size(), R.Inputs.size());
    return 1;
  }
  auto Source = readFileToString(Path);
  if (!Source) {
    std::fprintf(stderr, "bugassist: cannot read '%s'\n", Path.c_str());
    return 1;
  }

  std::string Error;
  ErrorCode Code = ErrorCode::Ok;
  auto Prepared =
      prepareProgram(*Source, R.Entry, R.Unroll, R.Encode, Error, &Code);
  if (!Prepared) {
    if (Code == ErrorCode::BadRequest)
      std::fprintf(stderr, "bugassist: nothing to repair: %s\n",
                   Error.c_str());
    else
      std::fprintf(stderr, "bugassist: %s does not compile:\n%s",
                   Path.c_str(), Error.c_str());
    return 1;
  }
  RepairPipelineResult Res = runRepairPipeline(*Prepared, R);
  switch (Res.Status) {
  case PipelineStatus::CompileError:
  case PipelineStatus::NoCounterexample:
  case PipelineStatus::InputNotFailing:
    std::fprintf(stderr, "bugassist: nothing to repair: %s\n",
                 Res.Message.c_str());
    return 1;
  case PipelineStatus::Localized:
    break;
  }
  // Canonical output bytes, shared with serve's `repair` command.
  std::string Body = renderRepairOutput(Res, O.Json);
  std::fwrite(Body.data(), 1, Body.size(), stdout);
  return Res.Code == ErrorCode::BudgetExhausted ? ExitBudgetExhausted
                                                : ExitComplete;
}

// --- fuzz --------------------------------------------------------------------

/// Seeded pool for a file subject: uniform scalars in a small signed range
/// (and per-element for arrays), matching the spirit of tcasTestPool.
std::vector<InputVector> genericTestPool(const FunctionDecl &Entry,
                                         size_t Count, uint64_t Seed) {
  Rng R(Seed);
  std::vector<InputVector> Pool;
  Pool.reserve(Count);
  for (size_t I = 0; I < Count; ++I) {
    InputVector In;
    for (const auto &P : Entry.params()) {
      if (P->type().isArray()) {
        std::vector<int64_t> Vs;
        for (int J = 0; J < P->type().ArraySize; ++J)
          Vs.push_back(R.range(-100, 100));
        In.push_back(InputValue::array(std::move(Vs)));
      } else if (P->type().isBool()) {
        In.push_back(InputValue::scalar(static_cast<int64_t>(R.below(2))));
      } else {
        In.push_back(InputValue::scalar(R.range(-100, 100)));
      }
    }
    Pool.push_back(std::move(In));
  }
  return Pool;
}

int cmdFuzz(const std::string &Target, CommandOptions &O) {
  FuzzOptions &Opts = O.Fuzz;
  for (const std::string &List : O.FuzzClasses)
    for (size_t Pos = 0; Pos < List.size();) {
      size_t Comma = List.find(',', Pos);
      if (Comma == std::string::npos)
        Comma = List.size();
      std::string Name = List.substr(Pos, Comma - Pos);
      ErrorType T;
      if (!errorTypeFromName(Name.c_str(), T)) {
        std::fprintf(stderr, "bugassist: unknown fault class '%s'\n",
                     Name.c_str());
        return 1;
      }
      Opts.Classes.push_back(T);
      Pos = Comma + 1;
    }
  const UnrollOptions &Unroll = O.Query.Unroll;

  FuzzSubject Subject;
  std::unique_ptr<Program> Owned;
  DiagEngine Diags;
  if (Target == "tcas") {
    const UnrollOptions Default;
    if (Unroll.MaxLoopUnwind != Default.MaxLoopUnwind ||
        Unroll.BitWidth != Default.BitWidth ||
        Unroll.CheckArrayBounds != Default.CheckArrayBounds)
      std::fprintf(stderr,
                   "bugassist: note: tcas subject fixes unroll options; "
                   "--unwind/--bitwidth/--no-bounds ignored\n");
    Owned = parseAndAnalyze(tcasSource(), Diags);
    if (!Owned) {
      std::fprintf(stderr, "bugassist: internal: tcas does not compile\n");
      return 1;
    }
    Subject.Name = "tcas";
    Subject.Unroll = tcasUnrollOptions();
    Subject.Unroll.HardLines.insert(Unroll.HardLines.begin(),
                                    Unroll.HardLines.end());
    Subject.CheckObligations = false; // golden-return methodology
    Subject.Pool = tcasTestPool(O.FuzzPool ? O.FuzzPool : 400);
  } else {
    auto Source = readFileToString(Target);
    if (!Source) {
      std::fprintf(stderr, "bugassist: cannot read '%s'\n", Target.c_str());
      return 1;
    }
    Owned = parseAndAnalyze(*Source, Diags);
    if (!Owned) {
      std::fprintf(stderr, "bugassist: %s does not compile:\n%s",
                   Target.c_str(), Diags.render().c_str());
      return 1;
    }
    const std::string &Entry = O.Query.Entry;
    const FunctionDecl *EntryFn = Owned->findFunction(Entry);
    if (!EntryFn) {
      std::fprintf(stderr, "bugassist: no function '%s' in %s\n",
                   Entry.c_str(), Target.c_str());
      return 1;
    }
    size_t Dot = Target.find_last_of("/\\");
    Subject.Name = Dot == std::string::npos ? Target : Target.substr(Dot + 1);
    Subject.Entry = Entry;
    Subject.Unroll = Unroll;
    Subject.CheckObligations = true;
    Subject.Pool =
        genericTestPool(*EntryFn, O.FuzzPool ? O.FuzzPool : 256, 20110601);
  }
  Subject.Base = Owned.get();
  Subject.ProtectedLines = Subject.Unroll.HardLines;

  FuzzProgress Progress;
  if (O.FuzzProgress)
    Progress = [](size_t Done, size_t Total) {
      if (Done % 10 == 0 || Done == Total)
        std::fprintf(stderr, "fuzz: %zu/%zu\n", Done, Total);
    };
  FuzzResult Res = runFuzzSweep(Subject, Opts, Progress);
  std::string Card = renderFuzzScorecard(Subject, Opts, Res);
  std::fwrite(Card.data(), 1, Card.size(), stdout);
  for (const std::string &Note : Res.MismatchNotes)
    std::fprintf(stderr, "MISMATCH: %s\n", Note.c_str());
  // Any differential mismatch is a failure, not a warning.
  return Res.TotalMismatches == 0 ? ExitComplete : ExitInputError;
}

// --- maxsat / sat ------------------------------------------------------------

/// The `--stats` block of maxsat and sat: two `c` lines, the second with
/// the inprocessing counters.
void printDimacsStats(uint64_t SatCalls, const SolverStats &S) {
  std::printf("c sat_calls=%llu conflicts=%llu propagations=%llu "
              "restarts=%llu\n",
              static_cast<unsigned long long>(SatCalls),
              static_cast<unsigned long long>(S.Conflicts),
              static_cast<unsigned long long>(S.Propagations),
              static_cast<unsigned long long>(S.Restarts));
  std::printf("c vars_eliminated=%llu clauses_subsumed=%llu "
              "lits_self_subsumed=%llu reconstruction_bytes=%llu\n",
              static_cast<unsigned long long>(S.VarsEliminated),
              static_cast<unsigned long long>(S.ClausesSubsumed),
              static_cast<unsigned long long>(S.LitsSelfSubsumed),
              static_cast<unsigned long long>(S.ReconstructBytes));
}

int cmdMaxsat(const std::string &Path, CommandOptions &O) {
  const LocalizeOptions &Knobs = O.Query.Localize;

  DimacsParseError Err;
  auto Parsed = readDimacsFile(Path, Err);
  if (!Parsed) {
    std::fprintf(stderr, "bugassist: %s: %s\n", Path.c_str(),
                 Err.render().c_str());
    return 1;
  }

  bool FromWcnf = Parsed->Weighted;
  bool AnyWeight = false;
  MaxSatInstance Inst = toMaxSatInstance(std::move(*Parsed), &AnyWeight);
  Inst.Witness = O.Model; // no v line, no model to rebuild
  std::printf("c %s: %d vars, %zu hard, %zu soft%s, engine=%s\n",
              Path.c_str(), Inst.NumVars, Inst.Hard.size(), Inst.Soft.size(),
              FromWcnf ? "" : " (cnf)", AnyWeight ? "linear" : "fumalik");

  Solver::Options SOpts;
  SOpts.Preprocess = Knobs.Preprocess;
  Solver::Budget Bud = Knobs.Budget.solverBudget();
  MaxSatResult R; // Unknown when the variables alone overflow the cap
  if (Bud.admitsVars(Inst.NumVars)) {
    std::unique_ptr<MaxSatSession> Session = makeMaxSatSession(
        Inst, AnyWeight, /*ConflictBudget=*/0, SOpts, /*Canonical=*/true);
    if (Knobs.Budget.any())
      Session->setBudget(Bud);
    R = Session->solve();
  }

  std::fputs(renderMaxSatAnswer(R, Inst.NumVars, O.Model, /*Comments=*/true)
                 .c_str(),
             stdout);
  if (O.Stats)
    printDimacsStats(R.SatCalls, R.Search);
  return R.Status == MaxSatStatus::Unknown ? ExitBudgetExhausted
                                           : ExitComplete;
}

int cmdSat(const std::string &Path, CommandOptions &O) {
  const LocalizeOptions &Knobs = O.Query.Localize;

  DimacsParseError Err;
  auto Parsed = readDimacsFile(Path, Err);
  if (!Parsed) {
    std::fprintf(stderr, "bugassist: %s: %s\n", Path.c_str(),
                 Err.render().c_str());
    return 1;
  }
  // Soft clauses of a WCNF are solved as hard here; warn instead of
  // silently deciding a different formula.
  std::vector<Clause> Clauses = std::move(Parsed->Hard);
  if (!Parsed->Soft.empty()) {
    std::printf("c warning: treating %zu soft clauses as hard (use the "
                "maxsat command for optimization)\n",
                Parsed->Soft.size());
    for (DimacsSoftClause &C : Parsed->Soft)
      Clauses.push_back(std::move(C.Lits));
  }
  std::printf("c %s: %d vars, %zu clauses\n", Path.c_str(),
              Parsed->NumVars, Clauses.size());

  Solver::Options SOpts;
  SOpts.Preprocess = Knobs.Preprocess;
  SatAnswer R = solveSat(Clauses, Parsed->NumVars, O.Model, SOpts,
                         Knobs.Budget.solverBudget());
  std::fputs(renderSatAnswer(R, Parsed->NumVars, O.Model).c_str(), stdout);
  // One solve call, as serve's sat trailer counts it.
  if (O.Stats)
    printDimacsStats(/*SatCalls=*/1, R.Stats);
  return R.Result == LBool::Undef ? ExitBudgetExhausted : ExitComplete;
}

// --- serve -------------------------------------------------------------------

/// SIGINT/SIGTERM -> graceful drain. requestDrain is one atomic store
/// (async-signal-safe); the handlers are installed *without* SA_RESTART so
/// a daemon blocked reading stdin is kicked out of the read by the signal
/// and notices the flag immediately.
extern "C" void serveDrainHandler(int) { LocalizeServer::requestDrain(); }

void installDrainHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = serveDrainHandler;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // no SA_RESTART: interrupt blocking reads
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
}

int cmdServe(const std::string &, CommandOptions &O) {
  const std::string &FaultSpec = O.ServeFaults, &BatchPath = O.ServeBatch;

  if (!FaultSpec.empty()) {
    std::string Error;
    if (!faultinject::armSpec(FaultSpec, Error)) {
      std::fprintf(stderr, "bugassist: bad fault spec: %s\n", Error.c_str());
      return ExitInputError;
    }
  }
  installDrainHandlers();

  LocalizeServer Server(O.Serve);
  if (BatchPath.empty()) {
    // Daemon loop: requests on stdin until EOF, responses flushed as their
    // turn in the request order arrives.
    ServeSummary S = Server.run(std::cin, std::cout, std::cerr);
    return S.ExitCode;
  }
  std::ifstream Batch(BatchPath);
  if (!Batch) {
    std::fprintf(stderr, "bugassist: cannot read '%s'\n", BatchPath.c_str());
    return ExitInputError;
  }
  ServeSummary S = Server.run(Batch, std::cout, std::cerr);
  return S.ExitCode;
}

// --- dump-tcas ---------------------------------------------------------------

int cmdDumpTcas(int Argc, char **Argv) {
  if (Argc >= 1 && std::strcmp(Argv[0], "--list") == 0) {
    std::printf("%-4s %-7s %-7s %-10s %s\n", "ver", "type", "errors",
                "bug lines", "description");
    for (const TcasMutant &M : tcasMutants()) {
      std::string Lines;
      for (uint32_t L : M.BugLines)
        Lines += (Lines.empty() ? "" : ",") + std::to_string(L);
      std::printf("v%-3d %-7s %-7d %-10s %s\n", M.Version,
                  errorTypeName(M.Type), M.ErrorCount, Lines.c_str(),
                  M.Description.c_str());
    }
    return 0;
  }
  int64_t Version = 0;
  if (Argc >= 1 && std::strcmp(Argv[0], "golden") != 0 &&
      !parseBoundedInt(Argv[0], 0, tcasMutants().size(), Version)) {
    std::fprintf(stderr,
                 "bugassist: dump-tcas takes 0/golden or a version 1..41\n");
    return 1;
  }
  const std::string &Source =
      Version == 0 ? tcasSource()
                   : tcasMutants()[static_cast<size_t>(Version - 1)].Source;
  std::fwrite(Source.data(), 1, Source.size(), stdout);
  if (!Source.empty() && Source.back() != '\n')
    std::printf("\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage(argv[0]);
  const char *Cmd = argv[1];
  if (std::strcmp(Cmd, "dump-tcas") == 0)
    return cmdDumpTcas(argc - 2, argv + 2);
  if (std::strcmp(Cmd, "--help") == 0 || std::strcmp(Cmd, "-h") == 0 ||
      std::strcmp(Cmd, "help") == 0) {
    usage(argv[0]);
    return 0;
  }
  using Runner = int (*)(const std::string &, CommandOptions &);
  static const std::pair<Command, Runner> Commands[] = {
      {Command::Localize, cmdLocalize}, {Command::Repair, cmdRepair},
      {Command::Fuzz, cmdFuzz},         {Command::MaxSat, cmdMaxsat},
      {Command::Sat, cmdSat},           {Command::Serve, cmdServe}};
  for (const auto &[C, Run] : Commands) {
    if (std::strcmp(Cmd, commandName(C)) != 0)
      continue;
    // Every command but serve names its subject (a file, or fuzz's `tcas`)
    // before the options.
    int First = C == Command::Serve ? 2 : 3;
    if (argc < First)
      return usage(argv[0]);
    CommandOptions O(C);
    // Test-only fault campaign: the env var arms one for a whole harness
    // run; an explicit --faults flag overrides it.
    if (const char *Env = std::getenv("BUGASSIST_FAULTS");
        Env && C == Command::Serve)
      O.ServeFaults = Env;
    std::string Error;
    if (!parseCommandLine(argc - First, argv + First, O, Error)) {
      std::fprintf(stderr, "bugassist: %s\n", Error.c_str());
      return ExitInputError;
    }
    return Run(First == 3 ? argv[2] : "", O);
  }
  std::fprintf(stderr, "bugassist: unknown command '%s'\n", Cmd);
  return usage(argv[0]);
}
