//===- FaultInject.h - programmable fault-injection campaigns ---*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-global fault-injection campaign engine for robustness tests:
/// arm per-event schedules -- scripted (fire at the Nth future occurrence,
/// optionally repeating every P occurrences after that) and seeded
/// probabilistic (fire each occurrence with probability p) -- and the next
/// thread to reach an instrumented event site suffers the configured fault.
/// The serve soak harness uses this to throw inside workers, poison cache
/// fills, and raise spurious interrupts by the hundred while asserting that
/// no response is ever lost, duplicated, or changed.
///
/// The hooks are compiled in unconditionally but cost a single relaxed
/// atomic load when disarmed (the default), so production paths pay
/// nothing measurable. Scripted one-shot firings are exact under
/// concurrency: occurrence numbers are claimed by fetch_add, so exactly
/// one thread observes the firing occurrence. Campaigns are armed from a
/// spec string (the CLI's `BUGASSIST_FAULTS` env var / `--faults` flag
/// route here); see parseSpec. Not intended for use outside tests.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SUPPORT_FAULTINJECT_H
#define BUGASSIST_SUPPORT_FAULTINJECT_H

#include <atomic>
#include <cstdint>
#include <string>

namespace bugassist {
namespace faultinject {

/// Instrumented event sites. The first two live in the solver (PR 6); the
/// rest instrument the serve stack and the inprocessing simplifier.
enum class Event : uint8_t {
  Allocation,   ///< Solver::allocClause (every clause allocation)
  Restart,      ///< Solver::solve restart boundary
  CacheFill,    ///< FormulaCache entry build (parse + encode)
  JsonParse,    ///< serve request-line JSON parse
  QueuePop,     ///< serve RequestQueue::pop, before anything is taken
  EmitterFlush, ///< OrderedEmitter flush (after recording the payload)
  SimplifyStep  ///< Simplifier elimination-queue step
};
constexpr size_t NumEvents = 7;

/// What happens when a schedule fires.
enum class Fault : uint8_t {
  BadAlloc, ///< throw std::bad_alloc from the event site (simulated OOM)
  Interrupt ///< report "fire" so the site raises a spurious interrupt /
            ///< transient failure of its own choosing
};

/// Arms a scripted rule on \p E: the \p Nth future occurrence (1-based;
/// 0 is treated as 1) triggers \p F; when \p Period is nonzero the rule
/// then re-fires every \p Period further occurrences (a repeating crash
/// campaign), else it disarms after the one shot. Occurrence counting is
/// global across all threads and starts at this call. Other events'
/// schedules are unaffected; call disarm() first for a clean slate.
void arm(Event E, Fault F, uint64_t Nth, uint64_t Period = 0);

/// Arms a probabilistic rule on \p E: every occurrence fires \p F with
/// probability \p Probability (clamped to [0, 1]), drawn from the shared
/// seeded generator (setSeed).
void armProbability(Event E, Fault F, double Probability);

/// Seeds the shared xorshift generator used by probabilistic rules.
/// Single-threaded runs replay identically for a given seed; concurrent
/// runs interleave draws nondeterministically but still reproduce the
/// same marginal fault rate.
void setSeed(uint64_t Seed);

/// Disarms every schedule and zeroes occurrence counters without firing.
/// Tests call this in teardown (via ScopedFault) so a fault armed but
/// never reached cannot leak into the next test. Fired counters survive
/// until the next arm via armSpec/ScopedFault spec form.
void disarm();

/// Parses and arms a campaign spec. Grammar (clauses separated by ';'):
///
///   spec    := clause (';' clause)*
///   clause  := event ':' fault sched | 'seed=' integer
///   sched   := '@' N [ '/' P ]      -- scripted: fire at the Nth
///              occurrence, then every P after that (omit P: one-shot)
///            | '%' RATE             -- probabilistic: rate in (0, 1]
///   event   := alloc | restart | cachefill | jsonparse | queuepop
///            | emitterflush | simplify
///   fault   := badalloc | interrupt
///
/// Example: "queuepop:badalloc@3/5;alloc:interrupt%0.001;seed=42".
/// Disarms everything first, then arms the clauses. \returns false and
/// fills \p Error (leaving the engine disarmed) on a malformed spec.
bool armSpec(const std::string &Spec, std::string &Error);

/// Total faults fired since the last counter reset (disarm keeps them;
/// armSpec and the ScopedFault spec ctor reset them).
uint64_t firedTotal();
/// Faults fired at \p E's sites since the last counter reset.
uint64_t firedCount(Event E);

/// RAII guard: arms in the constructor, disarms in the destructor, so a
/// fault armed but never reached cannot leak into the next test case.
class ScopedFault {
public:
  ScopedFault(Event E, Fault F, uint64_t Nth, uint64_t Period = 0) {
    arm(E, F, Nth, Period);
  }
  /// Spec form (resets fired counters). Asserts the spec parses; use
  /// armSpec directly to handle errors.
  explicit ScopedFault(const std::string &Spec);
  ScopedFault(const ScopedFault &) = delete;
  ScopedFault &operator=(const ScopedFault &) = delete;
  ~ScopedFault() { disarm(); }
};

namespace detail {
extern std::atomic<bool> Armed;
bool onEventSlow(Event E);
} // namespace detail

/// True while any schedule is armed. Single relaxed load; the
/// instrumented sites use it to skip the slow path entirely in normal
/// operation.
inline bool active() {
  return detail::Armed.load(std::memory_order_relaxed);
}

/// Event-site hook. Advances \p E's occurrence counter and evaluates its
/// schedules; on a firing occurrence either throws std::bad_alloc
/// (Fault::BadAlloc) or returns true (Fault::Interrupt -- the caller
/// raises its own interrupt flag or simulates a transient failure).
/// Returns false when disarmed, counting, or armed for different events.
inline bool onEvent(Event E) {
  return active() && detail::onEventSlow(E);
}

} // namespace faultinject
} // namespace bugassist

#endif // BUGASSIST_SUPPORT_FAULTINJECT_H
