//===- main.cpp - perfbench entry point: arguments, host probe, report ----===//
//
// Part of the BugAssist-Repro benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --expected FILE [--spans FILE]
//   perfbench --record FILE
//
// Prints one human-readable block, then one JSON line with the metrics of
// BENCHMARK.json (end-to-end with --trace 0, per-layer with --trace 1).
// Exits 1 when any correctness check failed, 2 on bad arguments.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// Cores this process can actually get right now: spin one thread per
/// online CPU for a fixed wall interval and divide the CPU time received
/// by the wall time. A shared or throttled host reads below nproc.
double probeCores(unsigned Threads) {
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Pool;
  double Cpu0 = cpuSeconds(), T0 = nowMs();
  for (unsigned I = 0; I < Threads; ++I)
    Pool.emplace_back([&Stop] {
      volatile uint64_t X = 0;
      while (!Stop.load(std::memory_order_relaxed))
        X = X + 1;
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Stop = true;
  for (std::thread &T : Pool)
    T.join();
  return (cpuSeconds() - Cpu0) / ((nowMs() - T0) / 1000.0);
}

/// CPU time the hypervisor gave to others while this guest wanted it, in
/// seconds summed over all CPUs (the "steal" column of /proc/stat), or -1
/// when the kernel does not report it.
double stealSeconds() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  unsigned long long V[8] = {};
  if (!(In >> Cpu) || Cpu != "cpu")
    return -1;
  for (unsigned long long &X : V)
    if (!(In >> X))
      return -1;
  return static_cast<double>(V[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Per-layer metrics from the traced run's spans and counters. The span
/// coverage is printed, not returned: it describes the run, not a layer.
void layerMetrics(const RunResult &R, std::vector<Metric> &Out) {
  SpanSummary S = summarizeSpans();
  std::map<std::string, double> C = Tracer::get().counters();
  double Ops = S.Ops ? static_cast<double>(S.Ops) : 1;
  auto Get = [](const std::map<std::string, double> &M, const char *K) {
    auto It = M.find(K);
    return It == M.end() ? 0.0 : It->second;
  };
  static const char *const OpSpans[] = {
      "lang.parse_sema", "interp.judge",     "core.render",
      "bmc.unroll",      "bmc.encode",       "bmc.instance",
      "bmc.cex",         "bmc.prepare",       "maxsat.build",
      "sat.preprocess",  "maxsat.clone",     "maxsat.solve",
      "maxsat.add_hard", "core.enumerate",   "cnf.dimacs_parse",
      "core.repair",     "serve.cache_lookup", "maxsat.release",
      "bmc.release"};
  for (const char *N : OpSpans)
    Out.push_back({std::string(N) + "_ms", Get(S.OpSelfMs, N) / Ops, "ms/op"});
  static const char *const SetupSpans[] = {"lang.setup_parse",
                                           "mutate.generate",
                                           "interp.segregate"};
  double Setups = S.Setups ? static_cast<double>(S.Setups) : 1;
  for (const char *N : SetupSpans)
    Out.push_back(
        {std::string(N) + "_ms", Get(S.SetupSelfMs, N) / Setups, "ms/setup"});
  static const char *const Counts[] = {
      "bmc.ssa_defs",    "bmc.cnf_vars",        "bmc.cnf_clauses",
      "bmc.groups",      "sat.vars_eliminated", "sat.reconstruct_bytes",
      "maxsat.solve_calls", "maxsat.sat_calls", "sat.conflicts",
      "sat.decisions",   "sat.propagations",    "sat.learnts",
      "sat.arena_frees", "core.repair_candidates_tried",
      "core.repair_formula_builds"};
  for (const char *N : Counts)
    Out.push_back({N, Get(C, N) / Ops, "count/op"});
  double Diag = Get(C, "maxsat.diagnoses");
  Out.push_back({"maxsat.sat_calls_per_diagnosis",
                 Diag ? Get(C, "maxsat.sat_calls") / Diag : 0, "ratio"});
  double Tried = Get(C, "core.repair_candidates_tried");
  Out.push_back({"core.repair_accept_ratio",
                 Tried ? Get(C, "core.repairs_found") / Tried : 0, "ratio"});
  static const std::pair<const char *, const char *> Serve[] = {
      {"serve.service_ms", "ms"},        {"serve.wait_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"}, {"serve.effective_parallelism", "ratio"},
      {"serve.retries", "count"},        {"serve.respawns", "count"}};
  for (const auto &[N, Unit] : Serve)
    Out.push_back({N, Get(R.Layer, N), Unit});
  Out.push_back({"trace.overhead_ratio",
                 R.UntracedWallMs > 0 ? R.TracedWallMs / R.UntracedWallMs : 0,
                 "ratio"});
  std::printf("  %-34s %14.4f (smallest share of an op's wall covered by "
              "layer spans, over %zu traced ops)\n",
              "trace.coverage_min", S.MinCoverage, S.Ops);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tcas-mutants|serve-tcas|"
               "deep-unwind|wcnf-search --seed N --seconds S --trace 0|1 "
               "--expected FILE [--spans FILE]\n"
               "       perfbench --record FILE\n");
  return 2;
}

int record(const std::string &Path) {
  std::string Out = "# Expected outputs per input of each workload's fixed "
                    "universe: \"<workload> <item> = <digest> <flags>\".\n"
                    "# Regenerate with: perfbench --record FILE\n";
  recordTcasMutants(Out);
  recordServeTcas(Out);
  recordDeepUnwind(Out);
  std::ofstream F(Path);
  F << Out;
  return F.good() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string RecordPath;
  int TraceFlag = -1;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      TraceFlag = V == "1" ? 1 : V == "0" ? 0 : -1;
    else if (K == "--expected")
      A.ExpectedPath = V;
    else if (K == "--spans")
      A.SpansPath = V;
    else if (K == "--record")
      RecordPath = V;
    else
      return usage();
    if (End && *End)
      return usage();
  }
  if (!RecordPath.empty())
    return record(RecordPath);
  if (TraceFlag < 0 || !(A.Seconds > 0) || A.ExpectedPath.empty())
    return usage();
  A.Trace = TraceFlag == 1;

  RunResult (*Fn)(const Args &, const Expected &) = nullptr;
  if (A.Workload == "tcas-mutants")
    Fn = runTcasMutants;
  else if (A.Workload == "serve-tcas")
    Fn = runServeTcas;
  else if (A.Workload == "deep-unwind")
    Fn = runDeepUnwind;
  else if (A.Workload == "wcnf-search")
    Fn = runWcnfSearch;
  else
    return usage();
  Expected E;
  if (!E.load(A.ExpectedPath)) {
    std::fprintf(stderr, "perfbench: cannot read expected outputs '%s'\n",
                 A.ExpectedPath.c_str());
    return 2;
  }

  double Steal0 = stealSeconds(), T0 = nowMs();
  RunResult R = Fn(A, E);
  double Steal = Steal0 < 0 ? -1 : stealSeconds() - Steal0;
  double RunS = (nowMs() - T0) / 1000.0;
  // After the run, so that its burst on every CPU does not precede the
  // timed set-up.
  long NProc = sysconf(_SC_NPROCESSORS_ONLN);
  double Cores = probeCores(static_cast<unsigned>(std::max(1L, NProc)));
  if (R.Attempted == 0)
    R.fail("no op completed");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0);
  std::printf("host: nproc=%ld cores_available=%.2f (CPU/wall of %ld "
              "spinning threads)\n",
              NProc, Cores, NProc);
  if (Steal >= 0)
    std::printf("host: %.2f s of CPU stolen by the hypervisor (all CPUs) "
                "during the %.2f s run\n",
                Steal, RunS);
  std::vector<Metric> M;
  double SetupS = quantile(R.SetupS, 0.5);
  double N = static_cast<double>(std::max<uint64_t>(R.Attempted, 1));
  if (!A.Trace) {
    // The best round of the run for each metric (see Round in common.h).
    std::vector<double> Tput, P50, Cpu;
    for (const Round &Rd : R.Rounds) {
      double Ops = static_cast<double>(Rd.LatenciesMs.size());
      if (Ops == 0 || Rd.WallS <= 0)
        continue;
      Tput.push_back(Ops / Rd.WallS);
      P50.push_back(quantile(Rd.LatenciesMs, 0.5));
      Cpu.push_back(Rd.CpuS * 1000.0 / Ops);
    }
    if (Tput.empty())
      R.fail("no complete round measured");
    M.push_back({"setup_s", SetupS, "s"});
    M.push_back({"throughput_ops_s", quantile(Tput, 1), "1/s"});
    M.push_back({"latency_p50_ms", quantile(P50, 0), "ms"});
    M.push_back({"cpu_ms_per_op", quantile(Cpu, 0), "ms"});
    M.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    for (const Metric &X : M)
      std::printf("  %-28s %12.4f %s\n", X.Name.c_str(), X.Value, X.Unit);
    if (R.LatenciesMs.size() >= 100)
      std::printf("  %-28s %12.4f ms (n=%zu)\n", "latency_p90_ms",
                  quantile(R.LatenciesMs, 0.9), R.LatenciesMs.size());
    else
      std::printf("  %-28s %12s (n=%zu < 100 ops)\n", "latency_p90_ms", "-",
                  R.LatenciesMs.size());
    std::printf("  %-28s %12.4f s (wall_s %.4f, %.2f cores busy)\n", "cpu_s",
                R.CpuS, R.WallS, R.WallS > 0 ? R.CpuS / R.WallS : 0);
    std::printf("  %-28s %12zu (median round: %.4f ops/s, p50 %.4f ms, "
                "cpu %.4f ms/op)\n",
                "rounds", Tput.size(), quantile(Tput, 0.5),
                quantile(P50, 0.5), quantile(Cpu, 0.5));
    std::printf("  %-28s %12.4f ops/s (p50 %.4f ms over all %zu ops)\n",
                "whole_run", R.WallS > 0 ? N / R.WallS : 0,
                quantile(R.LatenciesMs, 0.5), R.LatenciesMs.size());
    std::printf("  %-28s %12zu (quartiles %.4f %.4f %.4f s)\n", "setups",
                R.SetupS.size(), quantile(R.SetupS, 0.25), SetupS,
                quantile(R.SetupS, 0.75));
  } else {
    layerMetrics(R, M);
    for (const Metric &X : M)
      std::printf("  %-34s %14.4f %s\n", X.Name.c_str(), X.Value, X.Unit);
    if (!A.SpansPath.empty() && !writeSpans(A.SpansPath))
      R.fail("cannot write spans to " + A.SpansPath);
  }
  std::printf("  %-28s %12.4f (%llu of %llu ops)\n", "failed_ratio",
              static_cast<double>(R.Failed) / N,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  if (R.Localizes)
    std::printf("  %-28s %12.4f (%llu of %llu localized ops)\n", "hit_rate",
                R.Localized ? static_cast<double>(R.Hits) / R.Localized : 0,
                static_cast<unsigned long long>(R.Hits),
                static_cast<unsigned long long>(R.Localized));
  if (R.Repairs)
    std::printf("  %-28s %12.4f (%llu of %llu repair attempts)\n",
                "repair_rate",
                R.RepairAttempts
                    ? static_cast<double>(R.Repaired) / R.RepairAttempts
                    : 0,
                static_cast<unsigned long long>(R.Repaired),
                static_cast<unsigned long long>(R.RepairAttempts));
  for (const std::string &Note : R.FailNotes)
    std::printf("  FAILED: %s\n", Note.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed ? "false" : "true",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < M.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", M[I].Name.c_str(), M[I].Value, M[I].Unit);
  std::printf("}}\n");
  return R.Failed ? 1 : 0;
}
