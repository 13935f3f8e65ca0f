//===- BugAssist.h - Error localization via MaxSAT --------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Algorithm 1 and the surrounding driver: given a program, a
/// failing test, and a specification, enumerate minimal sets of source
/// lines (CoMSSes of the partial MaxSAT instance) whose replacement can
/// make the failure infeasible.
///
/// Every localization takes the same three steps: a session over the
/// test-independent trace formula (TraceFormula::sharedInstance), the
/// failing test and the spec bound on it as hard clauses
/// (TraceFormula::testClauses), and the enumeration (enumerateCoMSSesOn).
///
/// Typical use:
/// \code
///   BugAssistDriver Driver(Prog, "main");
///   auto Failing = Driver.findCounterexample(Spec{});      // Section 4.1
///   auto Report = Driver.localize(*Failing, Spec{});       // Algorithm 1
///   for (const Diagnosis &D : Report.Diagnoses)
///     ... D.Lines ...
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_CORE_BUGASSIST_H
#define BUGASSIST_CORE_BUGASSIST_H

#include "bmc/TraceFormula.h"
#include "bmc/Unroller.h"
#include "interp/Interpreter.h"
#include "lang/Ast.h"
#include "maxsat/MaxSat.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace bugassist {

/// One CoMSS mapped back to source: a minimal set of lines such that
/// simultaneously changing all of them can eliminate the failure.
struct Diagnosis {
  /// Source lines (sorted, unique).
  std::vector<uint32_t> Lines;
  /// Loop unwinding indexes per group when per-iteration grouping is on
  /// (parallel to Lines; 0 = not iteration-specific).
  std::vector<uint32_t> Unwindings;
  /// Total soft weight of the CoMSS.
  uint64_t Cost = 0;
};

/// Result of running Algorithm 1 to exhaustion (or to MaxDiagnoses).
struct LocalizationReport {
  std::vector<Diagnosis> Diagnoses;
  /// Union of all reported lines, sorted -- the paper's "potential bug
  /// locations" used for the SizeReduc% metric of Table 1.
  std::vector<uint32_t> AllLines;
  /// True when enumeration stopped because the hard part became UNSAT
  /// ("No more suspects") rather than hitting MaxDiagnoses.
  bool Exhausted = false;
  /// True when a resource budget (timeout / conflict cap / memory cap)
  /// stopped the enumeration early: Diagnoses holds every CoMSS completed
  /// before the budget bit, but more may exist. Mutually exclusive with
  /// Exhausted.
  bool Incomplete = false;
  uint64_t SatCalls = 0;
  /// Cumulative statistics of the incremental MaxSAT session's solver
  /// (conflicts, propagations, ...) over the whole enumeration.
  SolverStats Search;
  /// The anytime upper-bound probe's share of Search.Conflicts
  /// (MaxSatResult::ProbeConflicts).
  uint64_t ProbeConflicts = 0;
};

/// A resource budget for one whole query, as the user states it (the CLI's
/// --timeout / --max-conflicts / --max-memory-mb, serve's per-request
/// fields): unlike a per-call conflict budget it covers every solve of the
/// query. 0 = unlimited for each knob.
struct QueryBudget {
  /// Wall-clock deadline, in seconds.
  double TimeoutSeconds = 0;
  /// Total conflict cap.
  uint64_t MaxConflicts = 0;
  /// Memory cap per solver (clause arena plus per-variable state), in
  /// mebibytes.
  uint64_t MaxMemoryMb = 0;
  /// The instant TimeoutSeconds counts from. Unset, every solverBudget()
  /// call starts its own clock; a request with several stages (repair)
  /// pins it once through startClock() so all of them share one deadline.
  std::optional<std::chrono::steady_clock::time_point> Started;
  /// Cancels the request once it reads true (Solver::Budget::Cancel). Serve
  /// points it at its drain flag; unset on the CLI.
  const std::atomic<bool> *Cancel = nullptr;

  /// True when any knob is set.
  bool any() const {
    return TimeoutSeconds > 0 || MaxConflicts > 0 || MaxMemoryMb > 0 ||
           Cancel;
  }
  /// Starts the deadline clock now (no-op once started).
  void startClock() {
    if (!Started)
      Started = std::chrono::steady_clock::now();
  }
  /// The deadline and the cancel flag alone, for solvers that keep their
  /// own conflict and memory limits (the BMC search, serve's cache build,
  /// repair's prescreen and candidate verification).
  Solver::Budget deadline() const {
    Solver::Budget B;
    if (TimeoutSeconds > 0)
      B.setDeadlineAfter(Started ? *Started : std::chrono::steady_clock::now(),
                         TimeoutSeconds);
    B.Cancel = Cancel;
    return B;
  }
  /// True once the deadline has passed or the request was cancelled.
  bool expired() const { return deadline().expired(); }
  /// The Solver::Budget equivalent: deadline() plus the conflict and arena
  /// caps.
  Solver::Budget solverBudget() const {
    Solver::Budget B = deadline();
    B.MaxConflicts = MaxConflicts;
    B.MaxArenaBytes = MaxMemoryMb << 20;
    return B;
  }
};

struct LocalizeOptions {
  /// Stop after this many CoMSSes (the paper iterates interactively).
  size_t MaxDiagnoses = 16;
  /// Ignored: sessions solve every weight with one engine. It exists only
  /// for perfbench, which still names it; nothing in the library sets or
  /// reads it.
  bool Weighted = false;
  /// Per-SAT-call conflict budget (0 = unlimited).
  uint64_t ConflictBudget = 0;
  /// Run SatELite-style clause-database simplification (subsumption,
  /// self-subsuming resolution, bounded variable elimination) at solver
  /// load and restart boundaries. Canonicalized diagnoses are identical
  /// with it on or off; turn off to debug or to bound preprocessing cost.
  bool Preprocess = true;
  /// Query-wide resource budget. When it is set and runs out
  /// mid-enumeration, the report carries the diagnoses completed so far
  /// with Incomplete = true instead of running forever or aborting.
  QueryBudget Budget;
};

/// A never-solved localization session over \p Inst (normally
/// TF.sharedInstance()): Opts picks the per-call conflict budget and
/// preprocessing; optima are canonical. Never solved on return, so it can
/// be preprocessed and cloned before the enumeration starts.
std::unique_ptr<MaxSatSession>
makeLocalizationSession(const MaxSatInstance &Inst,
                        const LocalizeOptions &Opts = {});

/// Algorithm 1's enumeration loop on a session whose soft clauses mirror
/// \p F's clause groups (soft index == group id) and whose failing test is
/// already bound, installing Opts' query-wide budget first. Sessions
/// canonicalize their optima, so the report depends only on the formula,
/// never on which session produced it or what it was cloned from.
LocalizationReport enumerateCoMSSesOn(MaxSatSession &Session,
                                      const CnfFormula &F,
                                      const LocalizeOptions &Opts = {});

/// Algorithm 1 for one failing test: enumerates CoMSSes of (Phi_H, Phi_S),
/// blocking each one with a hard clause (lambda_1 \/ ... \/ lambda_k).
/// Runs on \p Session when given -- a never-solved session over
/// TF.sharedInstance(), e.g. serve's clone of a cached base, which is
/// consumed (blocking clauses accumulate; do not reuse it for another
/// test) -- else on one built by makeLocalizationSession. Either way it
/// binds TF.testClauses(FailingTest, S) through addHardClause, then
/// enumerates.
LocalizationReport localizeFault(const TraceFormula &TF,
                                 const InputVector &FailingTest,
                                 const Spec &S,
                                 const LocalizeOptions &Opts = {},
                                 MaxSatSession *Session = nullptr);

/// Decision procedure behind the paper's definition of a fix location:
/// \returns true iff replacing exactly the statements on \p Lines can make
/// the failing execution satisfy the spec (i.e., the trace formula with
/// those groups' selectors off and all others on is satisfiable). One SAT
/// call; deterministic, unlike enumeration order. \p ConflictBudget
/// bounds the call (0 = unlimited); exhaustion counts as "not valid".
bool isValidCorrection(const TraceFormula &TF, const InputVector &FailingTest,
                       const Spec &S, const std::vector<uint32_t> &Lines,
                       uint64_t ConflictBudget = 0);

/// End-to-end driver owning the unroll + encode pipeline for one program.
class BugAssistDriver {
public:
  /// \p Prog must have passed Sema and outlive the driver.
  BugAssistDriver(const Program &Prog, std::string Entry,
                  UnrollOptions UOpts = {}, EncodeOptions EOpts = {});

  const TraceFormula &formula() const { return TF; }
  const UnrolledProgram &unrolled() const { return UP; }
  /// The unroll options the formula was built with.
  const UnrollOptions &unrollOptions() const { return Unroll; }

  /// Bounded model checking for a failing input (Section 4.1). \returns
  /// std::nullopt when no violation exists within bounds (or on budget).
  /// Const (the solve runs on a throwaway solver), so a shared driver can
  /// serve concurrent queries.
  std::optional<InputVector> findCounterexample(const Spec &S,
                                                uint64_t ConflictBudget = 0) const;

  /// Algorithm 1 for one failing test (localizeFault on formula()).
  LocalizationReport localize(const InputVector &FailingTest, const Spec &S,
                              const LocalizeOptions &Opts = {}) const;

private:
  UnrollOptions Unroll;
  UnrolledProgram UP;
  TraceFormula TF;
};

} // namespace bugassist

#endif // BUGASSIST_CORE_BUGASSIST_H
