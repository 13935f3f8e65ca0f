//===- trace.h - Span recorder and timed MaxSAT session ---------*- C++ -*-===//
//
// Part of the BugAssist-Repro benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instruments. A SpanScope records one span per public
/// library call made from the benchmark's own files: span name (its first
/// component is the layer), start, end, parent span and operation id.
/// Spans stay in per-thread memory until the run ends; self time per span
/// is its duration minus the part its children cover. With tracing off a
/// SpanScope is one branch on a global flag.
///
/// TimedSession decorates a MaxSatSession so the calls the core layer
/// makes into the maxsat layer (solve, addHardClause, clone) get spans too.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "maxsat/MaxSat.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline double nowMs() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char *Name; ///< "layer.call"; roots are "op" and "setup"
  double StartMs;
  double EndMs;
  int32_t Parent; ///< index in the same thread's buffer, -1 for roots
  uint32_t Op;    ///< operation id shared by every span of one op
};

/// Process-wide recorder. Each thread appends to its own buffer, so
/// recording takes no lock after a thread's first span.
class Tracer {
public:
  static Tracer &get();

  bool on() const { return On; }
  void enable(bool B) { On = B; }

  /// Adds \p V to the named per-run counter (no-op with tracing off).
  void count(const std::string &Name, double V);

  /// All spans of all threads, per thread.
  std::vector<const std::vector<Span> *> buffers() const;
  std::map<std::string, double> counters() const;

  /// Thread-local state used by SpanScope.
  struct ThreadState {
    std::vector<Span> *Buf = nullptr;
    int32_t Cur = -1;
    uint32_t Op = 0;
  };
  ThreadState &thread();

private:
  bool On = false;
  mutable std::mutex Mu; // guards Buffers and Counters
  std::vector<std::unique_ptr<std::vector<Span>>> Buffers;
  std::map<std::string, double> Counters;
};

/// Records a span for its lifetime when tracing is on.
class SpanScope {
public:
  explicit SpanScope(const char *Name);
  /// A root span ("op" or "setup") that starts operation \p Op.
  SpanScope(const char *Name, uint32_t Op);
  ~SpanScope();
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  void open(const char *Name);
  int32_t Idx = -1;
};

/// Self time per span name, split by root kind, plus per-op coverage.
struct SpanSummary {
  std::map<std::string, double> OpSelfMs;    ///< under "op" roots
  std::map<std::string, double> SetupSelfMs; ///< under "setup" roots
  size_t Ops = 0;
  size_t Setups = 0;
  /// Smallest share of an op's wall time covered by layer spans.
  double MinCoverage = 1;
};
SpanSummary summarizeSpans();

/// Writes every span as one JSON line (name, start, end, parent, op).
bool writeSpans(const std::string &Path);

/// Forwards every MaxSatSession call to the wrapped session, timing
/// solve / addHardClause / clone as maxsat-layer spans.
class TimedSession final : public bugassist::MaxSatSession {
public:
  explicit TimedSession(std::unique_ptr<bugassist::MaxSatSession> Inner)
      : Inner(std::move(Inner)) {}

  bugassist::MaxSatResult solve() override;
  bool addHardClause(const bugassist::Clause &C) override;
  const bugassist::SolverStats &stats() const override {
    return Inner->stats();
  }
  bugassist::Solver &solver() override { return Inner->solver(); }
  void setBudget(const bugassist::Solver::Budget &B) override {
    Inner->setBudget(B);
  }
  void clearBudget() override { Inner->clearBudget(); }
  std::unique_ptr<bugassist::MaxSatSession> clone() const override;

private:
  std::unique_ptr<bugassist::MaxSatSession> Inner;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
