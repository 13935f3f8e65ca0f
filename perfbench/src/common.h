//===- common.h - Shared harness of the benchmark workloads -----*- C++ -*-===//
//
// Part of the BugAssist-Repro benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "trace.h"

#include "core/Pipeline.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ExpectedPath;
  std::string SpansPath; ///< optional span dump of the traced run
};

/// Reference outputs recorded at the parent commit (`perfbench --record`):
/// one "key value..." line per input of each workload's fixed universe.
class Expected {
public:
  bool load(const std::string &Path);
  /// \returns the recorded value for \p Key, or nullptr.
  const std::string *find(const std::string &Key) const;

private:
  std::map<std::string, std::string> Lines;
};

/// One slice of the measured window: a round of ops (for serve, one batch
/// of requests), the same work in every round of a run. Each end-to-end
/// time metric is the run's best round: load from other tenants of the host
/// only ever adds time, so the least-disturbed round is the steadiest
/// reading of the program's own cost.
struct Round {
  double WallS = 0;
  double CpuS = 0;
  std::vector<double> LatenciesMs;
};

/// Everything one run measured and checked.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> FailNotes;
  std::vector<double> LatenciesMs;
  std::vector<Round> Rounds;
  double WallS = 0; ///< measured window: the rounds' walls summed
  double CpuS = 0;  ///< user+sys over the same rounds, all threads
  std::vector<double> SetupS;
  // Quality, over ops where it applies (printed, checked, not timed).
  uint64_t Localized = 0;
  uint64_t Hits = 0;
  uint64_t Repaired = 0;
  uint64_t RepairAttempts = 0;
  bool Localizes = false;
  bool Repairs = false;
  /// Traced run only: per-layer metrics and the untraced twin's wall.
  std::map<std::string, double> Layer;
  double TracedWallMs = 0;
  double UntracedWallMs = 0;

  void fail(const std::string &Note);
};

uint64_t fnv1a(const std::string &S, uint64_t H = 0xcbf29ce484222325ull);
std::string hex64(uint64_t V);
/// Process user+sys CPU seconds (all threads).
double cpuSeconds();
/// SplitMix64-seeded Fisher-Yates permutation of [0, N).
std::vector<size_t> seededOrder(size_t N, uint64_t Seed);

/// Times one run of \p Setup into R.SetupS; setup_s is their median.
void timeSetup(RunResult &R, const std::function<void()> &Setup);

/// Runs \p Setup untraced \p Reps times and, in a traced run, once more
/// under a "setup" root span.
void runSetup(const Args &A, RunResult &R, const std::function<void()> &Setup,
              int Reps);

/// A single-threaded workload: Run(i, Traced) performs op i and returns
/// its rendered output plus the solver counters it produced; Check(i,
/// output) validates it (calling R.fail on any mismatch).
struct OpOutput {
  std::string Text;     ///< canonical rendered output, digest input
  std::string Counters; ///< width-1 solver counters, "" when none
};
using OpRun = std::function<OpOutput(size_t Item, bool Traced)>;
using OpCheck = std::function<void(size_t Item, const OpOutput &Out)>;

/// Untraced: runs ops over \p NumItems (cycling) for A.Seconds and records
/// latencies, timing \p Setup once more after each round (outside the
/// round's own timing). Traced: runs ops traced for half the window, then
/// replays the same ops untraced, requiring identical bytes and counters,
/// and records both walls for trace.overhead_ratio. The deadline is checked
/// only every \p RoundSize ops, so a run always measures whole rounds.
void driveOps(const Args &A, size_t NumItems, const OpRun &Run,
              const OpCheck &Check, RunResult &R, size_t RoundSize,
              const std::function<void()> &Setup);

/// The one-shot localization: runLocalizePipeline(Program, R), rendered.
OpOutput localizeOneShot(const bugassist::Program &Prog,
                         const bugassist::PipelineRequest &Req,
                         bugassist::PipelineResult *Res = nullptr);

/// The same query decomposed into the public calls the one-shot path
/// makes, each under its layer's span; output and counters are equal.
OpOutput localizeTraced(const bugassist::Program &Prog,
                        const bugassist::PipelineRequest &Req,
                        bugassist::PipelineResult *Res = nullptr);

/// The back half on a prepared formula and a fresh session over its
/// sharedInstance() (serve's path): judge, per-test clauses, enumerate,
/// render -- each under its layer's span.
OpOutput localizeOnSession(const bugassist::Program &Prog,
                           const bugassist::TraceFormula &TF,
                           const bugassist::PipelineRequest &Req,
                           bugassist::MaxSatSession &Session,
                           bugassist::PipelineResult *Res = nullptr);

/// Solver counters of a report, as compared between traced and untraced.
std::string searchCounters(const bugassist::LocalizationReport &Rep);
/// Adds a report's solver counters to the traced run's per-layer counts.
void countSearch(const bugassist::LocalizationReport &Rep);
void countSolver(const bugassist::SolverStats &S);
/// Adds a repair run's candidate funnel to the per-layer counts.
void countRepair(const bugassist::RepairResult &Rep);

/// Re-runs an accepted repair through the Interpreter on every test it
/// was screened on. \returns "" when all pass, else what failed.
std::string verifyRepair(const bugassist::RepairResult &Rep,
                         const std::vector<bugassist::InputVector> &Inputs,
                         const std::vector<int64_t> &Goldens,
                         const bugassist::ExecOptions &EO);

RunResult runTcasMutants(const Args &A, const Expected &E);
RunResult runServeTcas(const Args &A, const Expected &E);
RunResult runDeepUnwind(const Args &A, const Expected &E);
RunResult runWcnfSearch(const Args &A, const Expected &E);

/// `--record`: run every input of the workload's fixed universe and print
/// its expected-output lines.
void recordTcasMutants(std::string &Out);
void recordServeTcas(std::string &Out);
void recordDeepUnwind(std::string &Out);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
