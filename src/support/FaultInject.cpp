//===- FaultInject.cpp - programmable fault-injection campaigns -------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInject.h"

#include <cassert>
#include <cstdlib>
#include <new>

namespace bugassist {
namespace faultinject {

namespace detail {

std::atomic<bool> Armed{false};

namespace {

/// Per-event schedule state. All fields are atomics so a disarm racing an
/// in-flight onEvent is merely late, never undefined behavior. One
/// scripted rule + one probabilistic rule per event is enough for every
/// campaign the tests run; arm() overwrites the scripted slot.
struct Slot {
  std::atomic<uint64_t> Count{0};   ///< occurrences seen since arm
  std::atomic<uint64_t> FireAt{0};  ///< next scripted firing occurrence (0 = off)
  std::atomic<uint64_t> Period{0};  ///< 0 = one-shot, else repeat interval
  std::atomic<uint8_t> ScriptFault{0};
  std::atomic<uint32_t> ProbScaled{0}; ///< P(fire) * 2^32, 0 = off
  std::atomic<uint8_t> ProbFault{0};
  std::atomic<uint64_t> Fired{0};
};

Slot Slots[NumEvents];
std::atomic<uint64_t> RngState{0x9e3779b97f4a7c15ull};

Slot &slot(Event E) { return Slots[static_cast<size_t>(E)]; }

/// Shared xorshift64 draw; the CAS keeps concurrent draws distinct.
uint32_t nextRand() {
  uint64_t X = RngState.load(std::memory_order_relaxed);
  uint64_t N;
  do {
    N = X;
    N ^= N << 13;
    N ^= N >> 7;
    N ^= N << 17;
  } while (
      !RngState.compare_exchange_weak(X, N, std::memory_order_relaxed));
  return static_cast<uint32_t>(N >> 32);
}

/// After a one-shot exhausts, drop the armed flag if nothing anywhere is
/// still scheduled, restoring the single-load fast path. A racing arm()
/// re-raises the flag after writing its schedule, so the worst race costs
/// one extra slow-path call, never a missed fault.
void maybeDisarmFastPath() {
  for (const Slot &S : Slots)
    if (S.FireAt.load(std::memory_order_relaxed) ||
        S.ProbScaled.load(std::memory_order_relaxed))
      return;
  Armed.store(false, std::memory_order_relaxed);
}

void fire(Slot &S, Fault F) {
  S.Fired.fetch_add(1, std::memory_order_relaxed);
  if (F == Fault::BadAlloc)
    throw std::bad_alloc();
}

} // namespace

bool onEventSlow(Event E) {
  Slot &S = slot(E);
  uint64_t N = S.Count.fetch_add(1, std::memory_order_relaxed) + 1;

  // Scripted rule: occurrence numbers are unique per thread (fetch_add),
  // so exactly one thread matches FireAt; only it advances or clears the
  // schedule, making repeats exact even under contention.
  uint64_t FA = S.FireAt.load(std::memory_order_relaxed);
  if (FA && N == FA) {
    uint64_t P = S.Period.load(std::memory_order_relaxed);
    S.FireAt.store(P ? FA + P : 0, std::memory_order_relaxed);
    if (!P)
      maybeDisarmFastPath();
    fire(S, static_cast<Fault>(S.ScriptFault.load(std::memory_order_relaxed)));
    return true;
  }

  uint32_t Prob = S.ProbScaled.load(std::memory_order_relaxed);
  if (Prob && nextRand() < Prob) {
    fire(S, static_cast<Fault>(S.ProbFault.load(std::memory_order_relaxed)));
    return true;
  }
  return false;
}

} // namespace detail

using detail::Slots;

void arm(Event E, Fault F, uint64_t Nth, uint64_t Period) {
  detail::Slot &S = detail::slot(E);
  S.Count.store(0, std::memory_order_relaxed);
  S.ScriptFault.store(static_cast<uint8_t>(F), std::memory_order_relaxed);
  S.Period.store(Period, std::memory_order_relaxed);
  S.FireAt.store(Nth == 0 ? 1 : Nth, std::memory_order_relaxed);
  detail::Armed.store(true, std::memory_order_relaxed);
}

void armProbability(Event E, Fault F, double Probability) {
  if (Probability < 0)
    Probability = 0;
  if (Probability > 1)
    Probability = 1;
  detail::Slot &S = detail::slot(E);
  S.Count.store(0, std::memory_order_relaxed);
  S.ProbFault.store(static_cast<uint8_t>(F), std::memory_order_relaxed);
  // Scale into a uint32 threshold; a rate of 1.0 saturates (fires on every
  // draw but the all-ones one -- close enough for a test campaign, and it
  // keeps the comparison branch-free).
  uint64_t Scaled = static_cast<uint64_t>(Probability * 4294967296.0);
  if (Probability > 0 && Scaled == 0)
    Scaled = 1;
  if (Scaled > 0xffffffffull)
    Scaled = 0xffffffffull;
  S.ProbScaled.store(static_cast<uint32_t>(Scaled), std::memory_order_relaxed);
  if (Scaled)
    detail::Armed.store(true, std::memory_order_relaxed);
}

void setSeed(uint64_t Seed) {
  detail::RngState.store(Seed ? Seed : 0x9e3779b97f4a7c15ull,
                         std::memory_order_relaxed);
}

void disarm() {
  detail::Armed.store(false, std::memory_order_relaxed);
  for (detail::Slot &S : Slots) {
    S.FireAt.store(0, std::memory_order_relaxed);
    S.Period.store(0, std::memory_order_relaxed);
    S.ProbScaled.store(0, std::memory_order_relaxed);
    S.Count.store(0, std::memory_order_relaxed);
  }
}

uint64_t firedTotal() {
  uint64_t Total = 0;
  for (const detail::Slot &S : Slots)
    Total += S.Fired.load(std::memory_order_relaxed);
  return Total;
}

uint64_t firedCount(Event E) {
  return detail::slot(E).Fired.load(std::memory_order_relaxed);
}

namespace {

bool parseEvent(const std::string &Name, Event &E) {
  if (Name == "alloc")
    E = Event::Allocation;
  else if (Name == "restart")
    E = Event::Restart;
  else if (Name == "cachefill")
    E = Event::CacheFill;
  else if (Name == "jsonparse")
    E = Event::JsonParse;
  else if (Name == "queuepop")
    E = Event::QueuePop;
  else if (Name == "emitterflush")
    E = Event::EmitterFlush;
  else if (Name == "simplify")
    E = Event::SimplifyStep;
  else
    return false;
  return true;
}

bool parseFault(const std::string &Name, Fault &F) {
  if (Name == "badalloc")
    F = Fault::BadAlloc;
  else if (Name == "interrupt")
    F = Fault::Interrupt;
  else
    return false;
  return true;
}

bool parseU64(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtoull(Text.c_str(), &End, 10);
  return errno == 0 && End && *End == '\0';
}

} // namespace

bool armSpec(const std::string &Spec, std::string &Error) {
  disarm();
  for (detail::Slot &S : Slots)
    S.Fired.store(0, std::memory_order_relaxed);

  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Semi = Spec.find(';', Pos);
    std::string Clause = Spec.substr(
        Pos, Semi == std::string::npos ? std::string::npos : Semi - Pos);
    Pos = Semi == std::string::npos ? Spec.size() + 1 : Semi + 1;
    if (Clause.empty())
      continue;

    if (Clause.rfind("seed=", 0) == 0) {
      uint64_t Seed;
      if (!parseU64(Clause.substr(5), Seed)) {
        Error = "bad seed in fault spec clause '" + Clause + "'";
        disarm();
        return false;
      }
      setSeed(Seed);
      continue;
    }

    size_t Colon = Clause.find(':');
    size_t Sched = Clause.find_first_of("@%", Colon == std::string::npos
                                                  ? 0
                                                  : Colon + 1);
    Event E;
    Fault F = Fault::BadAlloc;
    if (Colon == std::string::npos || Sched == std::string::npos ||
        !parseEvent(Clause.substr(0, Colon), E) ||
        !parseFault(Clause.substr(Colon + 1, Sched - Colon - 1), F)) {
      Error = "bad fault spec clause '" + Clause +
              "' (want event:fault@N[/P] or event:fault%RATE)";
      disarm();
      return false;
    }
    std::string Rest = Clause.substr(Sched + 1);
    if (Clause[Sched] == '@') {
      uint64_t Nth, Period = 0;
      size_t Slash = Rest.find('/');
      bool Ok = parseU64(Rest.substr(0, Slash), Nth) && Nth > 0;
      if (Ok && Slash != std::string::npos)
        Ok = parseU64(Rest.substr(Slash + 1), Period) && Period > 0;
      if (!Ok) {
        Error = "bad occurrence schedule in fault spec clause '" + Clause +
                "'";
        disarm();
        return false;
      }
      arm(E, F, Nth, Period);
    } else {
      char *End = nullptr;
      errno = 0;
      double Rate = std::strtod(Rest.c_str(), &End);
      if (Rest.empty() || errno != 0 || !End || *End != '\0' || !(Rate > 0) ||
          Rate > 1) {
        Error = "bad rate in fault spec clause '" + Clause +
                "' (want a number in (0, 1])";
        disarm();
        return false;
      }
      armProbability(E, F, Rate);
    }
  }
  return true;
}

ScopedFault::ScopedFault(const std::string &Spec) {
  std::string Error;
  bool Ok = armSpec(Spec, Error);
  assert(Ok && "bad fault spec");
  (void)Ok;
}

} // namespace faultinject
} // namespace bugassist
