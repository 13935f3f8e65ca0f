//===- bugassist.cpp - The BugAssist command-line tool ------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The user-facing entry point to the pipeline; docs/CLI.md is the
// reference and `bugassist --help` lists every command and flag. The
// option table (core/OptionTable.h) decodes every command's flags.
// localize, repair, maxsat and sat read their positional file and run
// through the runner serve answers requests with (core/Command.h), so
// their stdout is a serve frame body, plus the DIMACS `c` lines and
// `--stats`. fuzz, serve and dump-tcas are driven here.
//
//===----------------------------------------------------------------------===//

#include "core/Command.h"
#include "lang/Sema.h"
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

// --- localize / repair / maxsat / sat ----------------------------------------

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

/// localize, repair, maxsat and sat: the file is the program or formula,
/// answered by the runner serve uses too, on a fresh program and session.
int cmdServed(const std::string &Path, CommandOptions &O) {
  O.Query.Localize.Budget.startClock(); // --timeout counts from here
  auto Source = readFileToString(Path);
  if (!Source) {
    std::fprintf(stderr, "bugassist: cannot read '%s'\n", Path.c_str());
    return ExitInputError;
  }
  O.Source = std::move(*Source);

  CommandEnv Env;
  Env.CommentLabel = Path.c_str();
  CommandResult R = runCommand(O, Env);
  if (R.failed()) {
    bool Newline = !R.Error.empty() && R.Error.back() == '\n';
    std::fprintf(stderr, "bugassist: %s%s", R.Error.c_str(),
                 Newline ? "" : "\n");
    return ExitInputError;
  }
  std::fwrite(R.Body.data(), 1, R.Body.size(), stdout);
  if (O.Stats && R.Searched) {
    if (O.Cmd == Command::Localize)
      std::fputs(renderSearchStats(R.SatCalls, R.Search, R.ProbeConflicts,
                                   R.ConeClauses, R.OutsideClauses)
                     .c_str(),
                 stdout);
    else
      printDimacsStats(R.SatCalls, R.Search);
  }
  // A budget stop still printed its best-so-far answer, marked INCOMPLETE
  // or UNKNOWN; the exit code tells scripts the run did not finish.
  return R.Code == ErrorCode::BudgetExhausted ? ExitBudgetExhausted
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
      {Command::Localize, cmdServed}, {Command::Repair, cmdServed},
      {Command::Fuzz, cmdFuzz},        {Command::MaxSat, cmdServed},
      {Command::Sat, cmdServed},       {Command::Serve, cmdServe}};
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
