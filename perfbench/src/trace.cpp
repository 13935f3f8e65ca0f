//===- trace.cpp - Span recorder and timed MaxSAT session -----------------===//
//
// Part of the BugAssist-Repro benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace perfbench;

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

Tracer::ThreadState &Tracer::thread() {
  thread_local ThreadState TS;
  if (!TS.Buf) {
    std::lock_guard<std::mutex> Lock(Mu);
    Buffers.push_back(std::make_unique<std::vector<Span>>());
    TS.Buf = Buffers.back().get();
  }
  return TS;
}

void Tracer::count(const std::string &Name, double V) {
  if (!On)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Counters[Name] += V;
}

std::vector<const std::vector<Span> *> Tracer::buffers() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<const std::vector<Span> *> Out;
  for (const auto &B : Buffers)
    Out.push_back(B.get());
  return Out;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters;
}

void SpanScope::open(const char *Name) {
  Tracer::ThreadState &TS = Tracer::get().thread();
  Idx = static_cast<int32_t>(TS.Buf->size());
  TS.Buf->push_back({Name, nowMs(), 0, TS.Cur, TS.Op});
  TS.Cur = Idx;
}

SpanScope::SpanScope(const char *Name) {
  if (Tracer::get().on())
    open(Name);
}

SpanScope::SpanScope(const char *Name, uint32_t Op) {
  if (!Tracer::get().on())
    return;
  Tracer::get().thread().Op = Op;
  open(Name);
}

SpanScope::~SpanScope() {
  if (Idx < 0)
    return;
  Tracer::ThreadState &TS = Tracer::get().thread();
  Span &S = (*TS.Buf)[Idx];
  S.EndMs = nowMs();
  TS.Cur = S.Parent;
}

SpanSummary perfbench::summarizeSpans() {
  SpanSummary Sum;
  for (const std::vector<Span> *Buf : Tracer::get().buffers()) {
    const std::vector<Span> &Spans = *Buf;
    std::vector<double> ChildMs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildMs[S.Parent] += S.EndMs - S.StartMs;
    // Each span's root decides whether it counts per op or per setup.
    std::vector<int32_t> Root(Spans.size());
    for (size_t I = 0; I < Spans.size(); ++I)
      Root[I] = Spans[I].Parent < 0 ? static_cast<int32_t>(I)
                                    : Root[Spans[I].Parent];
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      double Dur = S.EndMs - S.StartMs;
      double Self = Dur - ChildMs[I];
      bool UnderOp = std::strcmp(Spans[Root[I]].Name, "op") == 0;
      if (S.Parent < 0) {
        if (UnderOp) {
          ++Sum.Ops;
          double Cov = Dur > 0 ? ChildMs[I] / Dur : 1;
          Sum.MinCoverage = std::min(Sum.MinCoverage, Cov);
        } else {
          ++Sum.Setups;
        }
        continue;
      }
      (UnderOp ? Sum.OpSelfMs : Sum.SetupSelfMs)[S.Name] += Self;
    }
  }
  return Sum;
}

bool perfbench::writeSpans(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Thread = 0;
  for (const std::vector<Span> *Buf : Tracer::get().buffers()) {
    for (const Span &S : *Buf)
      std::fprintf(F,
                   "{\"thread\":%zu,\"name\":\"%s\",\"start_ms\":%.4f,"
                   "\"end_ms\":%.4f,\"parent\":%d,\"op\":%u}\n",
                   Thread, S.Name, S.StartMs, S.EndMs, S.Parent, S.Op);
    ++Thread;
  }
  return std::fclose(F) == 0;
}

bugassist::MaxSatResult TimedSession::solve() {
  bugassist::MaxSatResult R;
  {
    SpanScope S("maxsat.solve");
    R = Inner->solve();
  }
  Tracer::get().count("maxsat.solve_calls", 1);
  Tracer::get().count("maxsat.sat_calls", static_cast<double>(R.SatCalls));
  return R;
}

bool TimedSession::addHardClause(const bugassist::Clause &C) {
  SpanScope S("maxsat.add_hard");
  return Inner->addHardClause(C);
}

std::unique_ptr<bugassist::MaxSatSession> TimedSession::clone() const {
  std::unique_ptr<bugassist::MaxSatSession> C;
  {
    SpanScope S("maxsat.clone");
    C = Inner->clone();
  }
  if (!C)
    return nullptr;
  return std::make_unique<TimedSession>(std::move(C));
}
