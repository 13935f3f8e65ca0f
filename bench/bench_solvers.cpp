//===- bench_solvers.cpp - SAT / MaxSAT micro-benchmarks (A2) ----------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Solver-substrate benchmarks: CDCL on random 3-SAT around the phase
// transition and on pigeonhole instances, Fu-Malik and linear-search
// partial MaxSAT on localization-shaped instances, and -- the headline --
// the Fu-Malik TCAS localization workload run both through the incremental
// one-persistent-solver engine and a rebuilt-per-diagnosis baseline.
//
// Every workload is emitted as machine-readable JSON (BENCH_solvers.json:
// wall time, conflicts, propagations, SatCalls) so the perf trajectory is
// tracked across PRs. `--json=PATH` overrides the output path.
//
//===----------------------------------------------------------------------===//

#include "cnf/DimacsReader.h"
#include "core/BugAssist.h"
#include "core/Pipeline.h"
#include "lang/Sema.h"
#include "maxsat/MaxSat.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "sat/Solver.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace bugassist;

namespace {

struct WorkloadResult {
  std::string Name;
  double WallSeconds = 0;
  uint64_t Conflicts = 0;
  uint64_t Propagations = 0;
  uint64_t SatCalls = 0;
  uint64_t Restarts = 0;
  uint64_t RestartsBlocked = 0;
  uint64_t LbdSum = 0;
  uint64_t LbdCount = 0;
  uint64_t VarsEliminated = 0;
  uint64_t ClausesSubsumed = 0;
  uint64_t Extra = 0; ///< workload-specific (cost, diagnoses, ...)
  const char *ExtraKey = nullptr;

  void addSearch(const SolverStats &S) {
    Conflicts += S.Conflicts;
    Propagations += S.Propagations;
    Restarts += S.Restarts;
    RestartsBlocked += S.RestartsBlocked;
    LbdSum += S.LbdSum;
    LbdCount += S.LbdCount;
    VarsEliminated += S.VarsEliminated;
    ClausesSubsumed += S.ClausesSubsumed;
  }
  double avgLbd() const {
    return LbdCount ? static_cast<double>(LbdSum) /
                          static_cast<double>(LbdCount)
                    : 0.0;
  }
};

std::vector<WorkloadResult> Results;

void record(WorkloadResult R) {
  std::printf("%-44s %9.3fs  conflicts=%-9llu propagations=%-11llu "
              "sat_calls=%-5llu restarts=%llu/%llu avg_lbd=%.2f",
              R.Name.c_str(), R.WallSeconds,
              static_cast<unsigned long long>(R.Conflicts),
              static_cast<unsigned long long>(R.Propagations),
              static_cast<unsigned long long>(R.SatCalls),
              static_cast<unsigned long long>(R.Restarts),
              static_cast<unsigned long long>(R.RestartsBlocked), R.avgLbd());
  if (R.ExtraKey)
    std::printf("  %s=%llu", R.ExtraKey,
                static_cast<unsigned long long>(R.Extra));
  std::printf("\n");
  Results.push_back(std::move(R));
}

// --- plain SAT workloads ----------------------------------------------------

std::vector<Clause> random3Sat(Rng &R, int Vars, int Clauses) {
  std::vector<Clause> Cs;
  for (int I = 0; I < Clauses; ++I) {
    Clause C;
    std::set<Var> Used;
    while (C.size() < 3) {
      Var V = static_cast<Var>(R.below(static_cast<uint64_t>(Vars)));
      if (!Used.insert(V).second)
        continue;
      C.push_back(mkLit(V, R.chance(1, 2)));
    }
    Cs.push_back(std::move(C));
  }
  return Cs;
}

void benchPhaseTransition(int Vars, int Rounds) {
  WorkloadResult W;
  W.Name = "sat_phase_transition_v" + std::to_string(Vars);
  Timer T;
  uint64_t Seed = 1;
  for (int I = 0; I < Rounds; ++I) {
    Rng R(Seed++);
    auto Cs = random3Sat(R, Vars, static_cast<int>(Vars * 4.26));
    Solver S;
    S.ensureVars(Vars);
    bool Ok = true;
    for (const Clause &C : Cs)
      Ok = Ok && S.addClause(C);
    if (Ok)
      S.solve();
    ++W.SatCalls;
    W.addSearch(S.stats());
  }
  W.WallSeconds = T.seconds();
  record(std::move(W));
}

std::vector<Clause> pigeonholeClauses(int Holes) {
  int Pigeons = Holes + 1;
  auto VarOf = [Holes](int P, int H) { return P * Holes + H; };
  std::vector<Clause> Cs;
  for (int P = 0; P < Pigeons; ++P) {
    Clause C;
    for (int H = 0; H < Holes; ++H)
      C.push_back(mkLit(VarOf(P, H)));
    Cs.push_back(std::move(C));
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        Cs.push_back({~mkLit(VarOf(P1, H)), ~mkLit(VarOf(P2, H))});
  return Cs;
}

void benchPigeonhole(int Holes) {
  WorkloadResult W;
  W.Name = "sat_pigeonhole_h" + std::to_string(Holes);
  Timer T;
  Solver S;
  S.ensureVars((Holes + 1) * Holes);
  for (const Clause &C : pigeonholeClauses(Holes))
    S.addClause(C);
  S.solve();
  W.WallSeconds = T.seconds();
  W.SatCalls = 1;
  W.addSearch(S.stats());
  record(std::move(W));
}

// --- MaxSAT workloads -------------------------------------------------------

/// Localization-shaped MaxSAT: a chain of "statements" y_{i+1} = f(y_i)
/// modeled as selector-guarded equivalences, with contradictory hard
/// endpoints; the optimum disables exactly one selector.
MaxSatInstance selectorChain(int Length) {
  MaxSatInstance Inst;
  Inst.NumVars = (Length + 1) + Length;
  auto Y = [](int I) { return mkLit(I); };
  auto Sel = [Length](int I) { return mkLit(Length + I); };
  Inst.Hard.push_back({Y(0)});
  Inst.Hard.push_back({~Y(Length)});
  for (int I = 1; I <= Length; ++I) {
    Inst.Hard.push_back({~Sel(I), ~Y(I - 1), Y(I)});
    Inst.Hard.push_back({~Sel(I), Y(I - 1), ~Y(I)});
    Inst.Soft.push_back({{Sel(I)}, 1});
  }
  return Inst;
}

template <typename Fn>
void benchMaxSat(const std::string &Name, const MaxSatInstance &Inst, Fn Solve) {
  WorkloadResult W;
  W.Name = Name;
  Timer T;
  MaxSatResult R = Solve(Inst);
  W.WallSeconds = T.seconds();
  W.addSearch(R.Search);
  W.SatCalls = R.SatCalls;
  W.Extra = R.Cost;
  W.ExtraKey = "cost";
  record(std::move(W));
}

// --- external DIMACS / WCNF instances (--wcnf DIR) --------------------------

/// Sweeps every *.cnf / *.wcnf file in \p Dir (sorted by name) through the
/// solver substrate: CNF instances are decided, WCNF instances are
/// optimized with the auto-selected MaxSAT engine. This is how
/// MaxSAT-Evaluation benchmark directories become bench workloads without
/// any code changes.
void benchWcnfSweep(const std::string &Dir) {
  std::vector<std::string> Files;
  DIR *D = opendir(Dir.c_str());
  if (!D) {
    std::printf("--wcnf: cannot open directory '%s'\n", Dir.c_str());
    return;
  }
  while (dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    auto EndsWith = [&](const char *Suffix) {
      size_t L = std::strlen(Suffix);
      return Name.size() >= L &&
             Name.compare(Name.size() - L, L, Suffix) == 0;
    };
    if (EndsWith(".cnf") || EndsWith(".wcnf"))
      Files.push_back(std::move(Name));
  }
  closedir(D);
  std::sort(Files.begin(), Files.end());
  if (Files.empty()) {
    std::printf("--wcnf: no .cnf/.wcnf files in '%s'\n", Dir.c_str());
    return;
  }

  for (const std::string &Name : Files) {
    DimacsParseError Err;
    auto Parsed = readDimacsFile(Dir + "/" + Name, Err);
    if (!Parsed) {
      std::printf("%-44s skipped: %s\n", Name.c_str(), Err.render().c_str());
      continue;
    }
    // Each instance runs twice -- preprocessing on (the default path) and
    // off (`_nopre`) -- so the JSON carries its own same-machine baseline
    // for the conflicts/propagations/wall comparison.
    for (bool Preprocess : {true, false}) {
      Solver::Options Opts;
      Opts.Preprocess = Preprocess;
      WorkloadResult W;
      W.Name = "dimacs_" + Name;
      if (!Preprocess)
        W.Name += "_nopre";

      auto RunOnce = [&](WorkloadResult &Out) {
        if (Parsed->Soft.empty()) {
          Timer T;
          Solver S{Opts};
          S.ensureVars(Parsed->NumVars);
          bool Ok = true;
          for (const Clause &C : Parsed->Hard)
            Ok = Ok && S.addClause(C);
          Out.Extra = Ok && S.solve() == LBool::True;
          Out.SatCalls = 1;
          Out.addSearch(S.stats());
          Out.WallSeconds = T.seconds();
          Out.ExtraKey = "sat";
        } else {
          bool AnyWeight = false;
          MaxSatInstance Inst = toMaxSatInstance(*Parsed, &AnyWeight);
          Timer T;
          auto Session = makeMaxSatSession(Inst, AnyWeight,
                                           /*ConflictBudget=*/0, Opts,
                                           /*Canonical=*/true);
          MaxSatResult R = Session->solve();
          Out.WallSeconds = T.seconds();
          Out.SatCalls = R.SatCalls;
          Out.addSearch(R.Search);
          Out.Extra = R.Status == MaxSatStatus::Optimum ? R.Cost : 0;
          Out.ExtraKey =
              R.Status == MaxSatStatus::Optimum ? "cost" : "hard_unsat";
        }
      };
      // Some checked-in instances solve in microseconds, where a single
      // wall measurement is scheduler noise: keep the first run's search
      // statistics (the deterministic part) and a best-of-N wall time,
      // with more reps the shorter the workload so the minimum settles.
      RunOnce(W);
      int WallReps = W.WallSeconds < 0.001 ? 25 : 5;
      for (int Rep = 1; Rep < WallReps; ++Rep) {
        WorkloadResult Retime;
        RunOnce(Retime);
        W.WallSeconds = std::min(W.WallSeconds, Retime.WallSeconds);
      }
      record(std::move(W));
    }
  }
}

// --- the TCAS Fu-Malik localization workload --------------------------------

/// Algorithm 1's enumeration without an incremental session: a fresh
/// Fu-Malik solve per diagnosis on the instance plus the blocking clauses
/// so far, so learned clauses never outlive one diagnosis. This is the
/// baseline the incremental driver is measured against.
void rebuiltEnumerate(MaxSatInstance Inst, const CnfFormula &F,
                      size_t MaxDiagnoses, WorkloadResult &W) {
  for (size_t Diagnoses = 0; Diagnoses < MaxDiagnoses;) {
    MaxSatResult R = solveFuMalik(Inst);
    W.SatCalls += R.SatCalls;
    W.addSearch(R.Search);
    if (R.Status != MaxSatStatus::Optimum || R.FalsifiedSoft.empty())
      break;
    Clause Blocking;
    for (size_t SoftIdx : R.FalsifiedSoft)
      Blocking.push_back(mkLit(F.group(static_cast<GroupId>(SoftIdx)).Selector));
    Inst.Hard.push_back(std::move(Blocking));
    ++Diagnoses;
    ++W.Extra; // total diagnoses across runs
  }
}

void benchTcasLocalization(size_t NumMutants, size_t TestsPerMutant,
                           size_t MaxDiagnoses) {
  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  if (!Golden) {
    std::printf("golden TCAS failed to compile\n");
    return;
  }
  auto Pool = tcasTestPool(400);
  auto GoldenOut = goldenOutputs(*Golden, Pool, "main", tcasExecOptions());

  WorkloadResult Inc, Reb;
  Inc.Name = "tcas_fumalik_localize_incremental";
  Inc.ExtraKey = "diagnoses";
  Reb.Name = "tcas_fumalik_localize_rebuilt";
  Reb.ExtraKey = "diagnoses";

  size_t MutantsUsed = 0;
  for (const TcasMutant &M : tcasMutants()) {
    if (MutantsUsed >= NumMutants)
      break;
    DiagEngine D2;
    auto Faulty = parseAndAnalyze(M.Source, D2);
    if (!Faulty)
      continue;
    FailingTests Failing = segregateFailingTests(
        GoldenOut, *Faulty, Pool, "main", tcasExecOptions(), TestsPerMutant);
    if (Failing.Inputs.empty())
      continue;
    ++MutantsUsed;

    BugAssistDriver Driver(*Faulty, "main", tcasUnrollOptions());
    for (size_t Idx = 0; Idx < Failing.Inputs.size(); ++Idx) {
      Spec S;
      S.CheckObligations = false;
      S.GoldenReturn = Failing.Goldens[Idx];

      LocalizeOptions LO;
      LO.MaxDiagnoses = MaxDiagnoses;
      Timer T1;
      LocalizationReport Rep = Driver.localize(Failing.Inputs[Idx], S, LO);
      Inc.WallSeconds += T1.seconds();
      Inc.SatCalls += Rep.SatCalls;
      Inc.addSearch(Rep.Search);
      Inc.Extra += Rep.Diagnoses.size();

      MaxSatInstance Inst =
          Driver.formula().localizationInstance(Failing.Inputs[Idx], S);
      const CnfFormula &F = Driver.formula().encoded().Formula;

      Timer T2;
      rebuiltEnumerate(Inst, F, MaxDiagnoses, Reb);
      Reb.WallSeconds += T2.seconds();
    }
  }
  if (MutantsUsed == 0) {
    std::printf("no TCAS mutant with failing tests found\n");
    return;
  }
  double WorkInc = static_cast<double>(Inc.Conflicts + Inc.Propagations);
  double WorkReb = static_cast<double>(Reb.Conflicts + Reb.Propagations);
  double WallInc = Inc.WallSeconds, WallReb = Reb.WallSeconds;
  record(std::move(Inc));
  record(std::move(Reb));
  std::printf("tcas incremental vs rebuilt (%zu mutants): "
              "conflicts+propagations %.2fx, wall %.2fx\n",
              MutantsUsed, WorkInc > 0 ? WorkReb / WorkInc : 0.0,
              WallInc > 0 ? WallReb / WallInc : 0.0);
}

void writeJson(const char *Path) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::printf("cannot open %s\n", Path);
    return;
  }
  unsigned Cores = std::thread::hardware_concurrency();
  std::fprintf(F,
               "{\n  \"bench\": \"bench_solvers\",\n"
               "  \"hardware_concurrency\": %u,\n  \"workloads\": [\n",
               Cores);
  for (size_t I = 0; I < Results.size(); ++I) {
    const WorkloadResult &W = Results[I];
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"wall_s\": %.6f, "
                 "\"conflicts\": %llu, \"propagations\": %llu, "
                 "\"sat_calls\": %llu, \"restarts\": %llu, "
                 "\"restarts_blocked\": %llu, \"avg_lbd\": %.3f, "
                 "\"vars_eliminated\": %llu, \"clauses_subsumed\": %llu",
                 W.Name.c_str(), W.WallSeconds,
                 static_cast<unsigned long long>(W.Conflicts),
                 static_cast<unsigned long long>(W.Propagations),
                 static_cast<unsigned long long>(W.SatCalls),
                 static_cast<unsigned long long>(W.Restarts),
                 static_cast<unsigned long long>(W.RestartsBlocked),
                 W.avgLbd(),
                 static_cast<unsigned long long>(W.VarsEliminated),
                 static_cast<unsigned long long>(W.ClausesSubsumed));
    if (W.ExtraKey)
      std::fprintf(F, ", \"%s\": %llu", W.ExtraKey,
                   static_cast<unsigned long long>(W.Extra));
    std::fprintf(F, "}%s\n", I + 1 < Results.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Path);
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = "BENCH_solvers.json";
  const char *WcnfDir = nullptr;
  bool Quick = false, Smoke = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
    else if (std::strncmp(argv[I], "--wcnf=", 7) == 0)
      WcnfDir = argv[I] + 7;
    else if (std::strcmp(argv[I], "--wcnf") == 0 && I + 1 < argc)
      WcnfDir = argv[++I];
    else if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = Quick = true; // smoke: CI-sized subset of the quick run
  }

  int PhaseVars = Smoke ? 60 : 100;
  int PhaseRounds = Smoke ? 2 : Quick ? 4 : 16;
  int Holes = Smoke ? 5 : Quick ? 6 : 7;
  benchPhaseTransition(PhaseVars, PhaseRounds);
  benchPigeonhole(Holes);
  if (!Quick)
    benchPigeonhole(8); // the larger refutation

  std::vector<int> ChainLens = Smoke ? std::vector<int>{100}
                                     : std::vector<int>{200, 800};
  for (int Len : ChainLens) {
    MaxSatInstance Chain = selectorChain(Len);
    std::string Suffix = "_chain" + std::to_string(Len);
    benchMaxSat("maxsat_fumalik_incremental" + Suffix, Chain,
                [](const MaxSatInstance &I) { return solveFuMalik(I); });
    benchMaxSat("maxsat_linear_incremental" + Suffix, Chain,
                [](const MaxSatInstance &I) { return solveLinear(I); });
  }

  benchTcasLocalization(/*NumMutants=*/Quick ? 1 : 6,
                        /*TestsPerMutant=*/Quick ? 1 : 2,
                        /*MaxDiagnoses=*/Smoke ? 8 : 24);

  // External DIMACS/WCNF instances ride along after the standard suite,
  // each solved with inprocessing on and off (the *_nopre twin) so the
  // recorded JSON carries its own preprocessing baseline.
  if (WcnfDir)
    benchWcnfSweep(WcnfDir);

  writeJson(JsonPath);
  return 0;
}
