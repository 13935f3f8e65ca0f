//===- MaxSat.h - Partial MaxSAT interfaces ---------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Partial (weighted) MaxSAT: given hard clauses that must hold and soft
/// clauses with weights, find an assignment satisfying all hard clauses
/// that minimizes the total weight of falsified soft clauses. The paper
/// (Section 3.3) uses this to compute CoMSSes -- minimal sets of clauses
/// whose removal restores satisfiability -- which map to suspect program
/// statements.
///
/// One engine computes every optimum: Fu-Malik [10] as an *incremental
/// session* over one persistent CDCL solver (MiniSAT 1.14-style assumption
/// interface, as engineered in MSUnCORE [21], the solver the paper used).
/// Every soft clause is guarded once by an assumption literal A_i via the
/// hard clause (C_i \/ ~A_i). When a solve under all guards yields an
/// unsatisfiable core, the core's working copies are relaxed: the old
/// guard is *retired* -- it stops being assumed and the unit ~A_old is
/// added, which satisfies the stale guarded copy trivially and lets the
/// solver reclaim it -- and the relaxed copy (C_i \/ r_1 \/ ... \/ r_k \/
/// ~A_new) is added under a fresh guard. Hard clauses are therefore loaded
/// exactly once, and learned clauses, VSIDS activity, and saved phases
/// survive across relaxation rounds. Guard-retirement invariant: every
/// retired guard is root-level false, and the live (assumed) guards are
/// exactly those of the working copies.
///
/// Weights split cores (WPM1/WMSU1): a round charges the least weight
/// w_min in its core; copies of weight w_min are relaxed in place, and a
/// heavier copy keeps its guard at weight w - w_min while a relaxed copy
/// of weight w_min is appended under a fresh guard. With unit weights no
/// copy is ever split, so each soft clause keeps exactly one live copy and
/// the working formula equals the classic per-round rebuild.
///
/// Algorithm 1's CoMSS enumeration keeps one session alive across
/// diagnoses: each blocking clause beta is added incrementally through
/// MaxSatSession::addHardClause instead of restarting MaxSAT from scratch.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_MAXSAT_MAXSAT_H
#define BUGASSIST_MAXSAT_MAXSAT_H

#include "cnf/Cnf.h"
#include "cnf/DimacsReader.h"
#include "cnf/Lit.h"
#include "sat/Solver.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace bugassist {

/// One soft clause with its violation weight.
struct SoftClause {
  Clause Lits;
  uint64_t Weight = 1;
};

/// A partial MaxSAT instance. NumVars must cover every literal mentioned;
/// solvers allocate relaxation variables above it.
struct MaxSatInstance {
  int NumVars = 0;
  /// Borrowed hard clauses, loaded before Hard (may be null). The trace
  /// formula's instances (TraceFormula::sharedInstance and
  /// localizationInstance) point here instead of copying the formula.
  /// Lifetime: the formula must outlive every *session construction* from
  /// this instance only -- sessions copy the clauses into their solver's
  /// arena and keep no reference to the formula.
  const CnfFormula *Formula = nullptr;
  /// Borrowed per-clause mark over Formula (may be null): clause I is left
  /// out when (*Omit)[I]. The trace formula's instances omit the clauses
  /// of definitions outside the spec's cone (EncodedProgram::OutsideCone),
  /// under the same lifetime rule as Formula.
  const std::vector<bool> *Omit = nullptr;
  /// Owned hard clauses, loaded after Formula's.
  std::vector<Clause> Hard;
  std::vector<SoftClause> Soft;
  /// Branching hint: variables whose saved phase should start at true.
  /// BugAssist passes the selector variables here, so the search departs
  /// from "the program as written" instead of "every statement disabled".
  std::vector<Var> PreferTrue;
  /// Variables the *caller* will still talk about after the session is
  /// built: sessions freeze them (Solver::setFrozen) so inprocessing never
  /// eliminates them. Soft-clause variables and session auxiliaries
  /// (guards, relaxation literals, canonicalization selectors) are frozen
  /// automatically; list here only variables mentioned by clauses the
  /// caller adds later through addHardClause. Every localization session
  /// is built over TraceFormula::sharedInstance, which lists the trace
  /// formula's test-interface bits here: the failing test is bound
  /// afterwards (localizeFault), possibly on a clone of a base session
  /// preprocessed before any test was known (serve).
  std::vector<Var> Frozen;
  /// Whether results carry a witness: MaxSatResult::Model and BestModel
  /// over [0, NumVars). Reading one rebuilds the variables preprocessing
  /// eliminated (Solver::modelValue), so it is done once, at the end of
  /// solve(). The DIMACS front ends set it from --no-model / model:false,
  /// keeping it only to print `v` lines; localization reports only which
  /// soft clauses the optimum falsifies, so TraceFormula::sharedInstance
  /// clears it and its sessions never rebuild a model. Cost,
  /// FalsifiedSoft, the bounds and the search are the same either way.
  bool Witness = true;

  /// Visits every hard clause as a ClauseView: Formula's (minus Omit's),
  /// then Hard, in order. Stops early, returning false, as soon as \p Fn
  /// returns false. This order is the load order every reader (the
  /// sessions, repair validation, the test oracles) must share.
  template <typename Fn> bool forEachHard(Fn &&F) const {
    if (Formula) {
      ClauseRange R = Formula->hardClauses();
      for (size_t I = 0; I < R.size(); ++I)
        if (!(Omit && (*Omit)[I]) && !F(R[I]))
          return false;
    }
    for (const Clause &C : Hard)
      if (!F(ClauseView(C)))
        return false;
    return true;
  }

  /// Loads every hard clause into \p S (variables [0, NumVars) first).
  /// \returns false once \p S became UNSAT; the remaining clauses are
  /// then not loaded.
  bool loadHard(Solver &S) const {
    S.ensureVars(NumVars);
    return forEachHard([&S](ClauseView C) { return S.addClause(C); });
  }
};

/// Converts a parsed DIMACS/WCNF instance (cnf/DimacsReader.h) into a
/// MaxSAT instance -- the one bridge used by the CLI, the bench sweep and
/// the tests. \p AnyNonUnitWeight (optional) receives whether any soft
/// weight differs from 1; it exists only for perfbench, which predates the
/// weighted Fu-Malik session, and nothing in the library reads it.
inline MaxSatInstance toMaxSatInstance(DimacsInstance D,
                                       bool *AnyNonUnitWeight = nullptr) {
  MaxSatInstance Inst;
  Inst.NumVars = D.NumVars;
  Inst.Hard = std::move(D.Hard);
  Inst.Soft.reserve(D.Soft.size());
  bool AnyWeight = false;
  for (DimacsSoftClause &C : D.Soft) {
    AnyWeight = AnyWeight || C.Weight != 1;
    Inst.Soft.push_back({std::move(C.Lits), C.Weight});
  }
  if (AnyNonUnitWeight)
    *AnyNonUnitWeight = AnyWeight;
  return Inst;
}

enum class MaxSatStatus {
  Optimum,   ///< optimal model found
  HardUnsat, ///< hard clauses alone are inconsistent
  Unknown    ///< resource budget exhausted
};

/// Result of a MaxSAT call. On Optimum, Cost is the total weight of
/// falsified soft clauses (provably minimal) and FalsifiedSoft lists their
/// indices -- for BugAssist's encoding this is exactly the CoMSS (paper
/// Section 3.3) -- and, when the instance asked for a witness
/// (MaxSatInstance::Witness), Model satisfies all hard clauses and
/// falsifies exactly FalsifiedSoft. Without a witness Model and BestModel
/// stay empty; every other field is the same.
struct MaxSatResult {
  MaxSatStatus Status = MaxSatStatus::Unknown;
  uint64_t Cost = 0;
  std::vector<LBool> Model; ///< the optimum's witness (see above)
  std::vector<size_t> FalsifiedSoft;
  /// SAT calls issued during this solve().
  uint64_t SatCalls = 0;
  /// True when a budget stopped the canonical solve: the optimum (cost) is
  /// still proven, but FalsifiedSoft may not be the canonical set.
  bool CanonicalTruncated = false;
  // --- anytime bounds (meaningful on every status) --------------------------
  // On Optimum both bounds equal Cost and BestModel is the optimal model.
  // On Unknown (budget exhausted) they are the best-so-far knowledge:
  // LowerBound is a proven lower bound on the optimum (0 when nothing was
  // proven), UpperBound is the cost of the best model found (UINT64_MAX
  // when none was, and then BestModel is empty). On HardUnsat both bounds
  // are UINT64_MAX. BestModel is filled only for a witness instance.
  /// Proven lower bound on the optimum cost.
  uint64_t LowerBound = 0;
  /// Cost of the best model found so far (UINT64_MAX when none).
  uint64_t UpperBound = UINT64_MAX;
  /// Best hard-satisfying model found so far; witnesses UpperBound.
  std::vector<LBool> BestModel;
  /// Cumulative statistics of the underlying solver (for a session, totals
  /// since the session was created; for one-shot calls, totals of the call).
  SolverStats Search;
  /// The part of Search.Conflicts that the anytime upper-bound probe spent
  /// after the query budget stopped the search (same cumulative scope).
  uint64_t ProbeConflicts = 0;

  /// True when the run finished (Optimum or HardUnsat) rather than running
  /// out of budget.
  bool decided() const { return Status != MaxSatStatus::Unknown; }
};

/// An incremental MaxSAT session: one persistent solver, repeatedly
/// re-optimized as hard (blocking) clauses are added. This is the engine
/// behind Algorithm 1's CoMSS enumeration.
///
/// Contract:
///  * solve() and addHardClause() may be interleaved freely and called
///    any number of times; each solve() optimizes the initial instance
///    plus every clause added so far, and engine state (learnt clauses,
///    activities, relaxations, the proven lower bound) carries over
///    between calls.
///  * Calls must come from one thread at a time; a session is not
///    internally synchronized.
///  * After addHardClause() returns false -- or solve() reports
///    HardUnsat -- the hard formula is permanently unsatisfiable; further
///    solve() calls keep reporting HardUnsat.
///  * Soft clauses are fixed at creation; "removing" one (Algorithm 1's
///    deviation, see core/BugAssist.cpp) is expressed through hard
///    blocking clauses instead, which keeps reported costs honest.
class MaxSatSession {
public:
  virtual ~MaxSatSession() = default;

  /// Optimizes the current formula (initial instance plus every hard
  /// clause added so far). May be called repeatedly; state carries over.
  virtual MaxSatResult solve() = 0;

  /// Incrementally adds a hard clause (Algorithm 1's beta). \returns false
  /// when the hard formula became unsatisfiable (next solve() reports
  /// HardUnsat).
  virtual bool addHardClause(const Clause &C) = 0;

  /// Live statistics of the persistent solver, including the learnt-tier
  /// gauges, restart/blocked-restart counters and average LBD. The same
  /// totals are snapshotted into MaxSatResult::Search by solve().
  virtual const SolverStats &stats() const = 0;

  /// The persistent solver behind this session. Exposed so callers can
  /// preprocess a never-solved session and so serve's watchdog can
  /// interrupt a running solve; ordinary callers should not steer the
  /// solver mid-session.
  virtual Solver &solver() = 0;

  /// Installs a query-wide resource budget (sat/Solver.h's Solver::Budget)
  /// on the session's solver. When it is exhausted mid-solve() the
  /// session returns an anytime result: Status Unknown with the
  /// LowerBound/UpperBound/BestModel fields carrying the best-so-far
  /// knowledge. Re-install (or clear) before each user query; the
  /// exhausted state is sticky. The default forwards to solver().
  virtual void setBudget(const Solver::Budget &B) { solver().setBudget(B); }

  /// Removes any budget and clears the exhausted state.
  virtual void clearBudget() { solver().clearBudget(); }

  /// Deep-copies the whole session -- solver (arena, learnts, activities,
  /// saved phases), relaxation structure, and proven bounds -- into an
  /// independent session that continues from exactly the same state. Root
  /// level only: cloning while a solve() is in flight is undefined.
  ///
  /// This is the serve-mode "one encoding, many queries" primitive
  /// (src/serve/FormulaCache.h): a *base* session is built once per cached
  /// trace formula from the shared hard clauses + soft selectors and never
  /// solved; each query clones it and adds its per-test clauses through
  /// addHardClause. Because the base is immutable after construction,
  /// concurrent clone() calls from several pool workers are safe. The
  /// canonicalization contract makes the shortcut sound: a cloned session's
  /// search may diverge from a freshly built one's, but the reported
  /// optimum cost and canonical falsified-soft set depend only on the
  /// formula, so localization reports stay byte-identical (see
  /// docs/SERVE.md, "Determinism contract").
  virtual std::unique_ptr<MaxSatSession> clone() const = 0;
};

/// Creates a Fu-Malik core-guided session for (weighted) partial MaxSAT.
/// \p ConflictBudget bounds each underlying SAT call (0 = unlimited);
/// \p SolverOpts tunes the persistent solver (Glucose-style LBD retention
/// and EMA restarts; the defaults are what every front end runs). Every
/// reported optimum is canonicalized by one preference-ordered solve
/// (Solver.h) that prefers satisfying soft clauses in index order, so the
/// reported CoMSS is independent of search history and results are
/// byte-identical whichever session (fresh or cloned) produced them.
std::unique_ptr<MaxSatSession>
makeFuMalikSession(const MaxSatInstance &Inst, uint64_t ConflictBudget = 0,
                   const Solver::Options &SolverOpts = Solver::Options());

/// makeFuMalikSession under its older signature. It exists only for
/// perfbench, which still names it; \p Weighted and \p Canonical are
/// ignored, and nothing in the library or the tools calls it.
inline std::unique_ptr<MaxSatSession>
makeMaxSatSession(const MaxSatInstance &Inst, bool /*Weighted*/,
                  uint64_t ConflictBudget = 0,
                  const Solver::Options &SolverOpts = Solver::Options(),
                  bool /*Canonical*/ = false) {
  return makeFuMalikSession(Inst, ConflictBudget, SolverOpts);
}

/// One-shot convenience wrapper over makeFuMalikSession.
MaxSatResult solveFuMalik(const MaxSatInstance &Inst,
                          uint64_t ConflictBudget = 0,
                          const Solver::Options &SolverOpts = Solver::Options());

/// Evaluates \p C under \p Model. Clauses with unassigned variables count
/// as falsified only if no literal is true.
bool clauseSatisfied(const Clause &C, const std::vector<LBool> &Model);

/// Evaluates \p C under \p S's last model (Solver::modelValue). The
/// sessions evaluate soft clauses this way: their variables are frozen, so
/// the read never rebuilds eliminated variables.
bool clauseSatisfied(const Clause &C, Solver &S);

/// \p S's last model over variables [0, \p NumVars): a witness readout,
/// which rebuilds eliminated variables once if any were eliminated.
std::vector<LBool> readModel(Solver &S, int NumVars);

} // namespace bugassist

#endif // BUGASSIST_MAXSAT_MAXSAT_H
