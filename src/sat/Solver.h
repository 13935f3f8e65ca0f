//===- Solver.h - CDCL SAT solver -------------------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver in the MiniSAT lineage
/// (Een & Sorensson), built from scratch as the substrate the paper's
/// pipeline rests on: CBMC-style trace formulas are decided here, and the
/// MaxSAT layer drives it through the *assumptions* interface, harvesting
/// unsatisfiable cores over assumption literals (analyzeFinal) exactly the
/// way MSUnCORE does.
///
/// Features: two-watched-literal propagation, first-UIP learning with local
/// clause minimization, VSIDS variable activities with a binary heap, phase
/// saving, and incremental solving under assumptions with core extraction.
///
/// Learned-clause management is Glucose-style (Audemard & Simon, IJCAI'09):
/// every learnt clause carries its Literal Block Distance -- the number of
/// distinct decision levels among its literals -- computed at learn time and
/// tightened whenever the clause serves as a reason in conflict analysis.
/// Retention is three-tiered: *core* clauses (LBD <= 3, and all
/// binaries) are kept forever, *mid* clauses age out when they stop
/// participating in conflicts, and the *local* tier is rotated aggressively
/// by LBD-then-activity. Restarts follow glucose's dual-EMA scheme: a fast
/// EMA of recent learnt LBDs against the lifetime average triggers a
/// restart when the search degrades, and a trail-size EMA *blocks* pending
/// restarts when the assignment is unusually deep (the solver is probably
/// closing in on a model -- crucial for SAT-heavy searches). This is the
/// solver's only search policy; Solver::Options exposes the few scalars
/// tests tune to force its restart, blocking and reduction paths.
///
/// The solver is designed to stay alive across many solve() calls: clauses
/// can be added between calls, learned clauses / VSIDS activity / saved
/// phases persist, and retired selector variables can be released
/// (releaseVar) so long-running incremental MaxSAT sessions do not bloat
/// the decision heap. solve() also keeps its assumption decision levels on
/// the trail (van der Tak, Ramos & Heule, "Reusing the Assignment Trail in
/// CDCL Solvers"), so the next call with the same leading assumptions
/// starts from them instead of deciding and propagating them again. The
/// calls that change the root (addClause, releaseVar, preprocess,
/// eliminateVar, reduceLearntDb, forceGarbageCollect) first return to
/// level 0 themselves; callers never see the difference.
///
/// Clause literals live in a flat arena (MiniSAT-style ClauseAllocator:
/// header + activity + LBD words with inline literals, addressed by a
/// 32-bit ClauseRef), so propagation walks contiguous memory and deleted
/// clauses are reclaimed by relocating garbage collection.
/// Binary clauses are watched in dedicated lists whose Watcher carries the
/// whole clause (the Blocker is the other literal), so the propagation fast
/// path over them never touches the arena.
///
/// Removing a clause from a long watch list is deferred (MiniSAT's lazy
/// detach, kept exact to the order): entries past a list's committed count
/// are pending edits, replayed in order before the list is next read, so
/// every list is always read in the order eager removal would have left it
/// (see the watch-list section of the private state below).
///
/// A running solve() can be cancelled from another thread through its
/// Budget's Cancel flag, which is polled with the deadline (serve's drain
/// sets it).
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SAT_SOLVER_H
#define BUGASSIST_SAT_SOLVER_H

#include "cnf/Lit.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace bugassist {

class CnfFormula;

/// Aggregate statistics for solver-behaviour benches and tests.
struct SolverStats {
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t RestartsBlocked = 0; ///< restarts suppressed by the trail EMA
  uint64_t LearnedClauses = 0;
  uint64_t DeletedClauses = 0;
  uint64_t GcRuns = 0;
  uint64_t LbdSum = 0;   ///< sum of learn-time LBDs over all conflicts
  uint64_t LbdCount = 0; ///< conflicts that recorded an LBD (incl. units)
  uint64_t LbdTightened = 0; ///< reason-clause LBDs improved during analysis
  // Live learnt-tier gauges.
  uint64_t CoreLearnts = 0;
  uint64_t MidLearnts = 0;
  uint64_t LocalLearnts = 0;
  // Inprocessing (sat/Simplifier.h; all 0 when preprocessing is off).
  uint64_t VarsEliminated = 0;   ///< variables removed by bounded elimination
  uint64_t ClausesSubsumed = 0;  ///< clauses removed by backward subsumption
  uint64_t LitsSelfSubsumed = 0; ///< literals removed by self-subsumption
  /// Size of the model-reconstruction stack in bytes (a gauge, like the
  /// tier counts: it only grows while variables stay eliminated).
  uint64_t ReconstructBytes = 0;
  /// Model extensions run: reads of an eliminated variable's model value
  /// that rebuilt the eliminated variables (at most one per True answer).
  uint64_t ModelRebuilds = 0;
  /// Full root-level clause-database scans (simplifyLevel0 past its gate).
  uint64_t RootScans = 0;
  /// Assumption decision levels solve() kept from the previous call
  /// instead of deciding and propagating them again.
  uint64_t ReusedLevels = 0;

  /// Average learn-time LBD per conflict (unit learnts count with LBD 1),
  /// glucose's "average LBD" signal.
  double avgLearntLbd() const {
    return LbdCount
               ? static_cast<double>(LbdSum) / static_cast<double>(LbdCount)
               : 0.0;
  }
};

/// CDCL solver. Typical interactive use:
/// \code
///   Solver S;
///   S.addFormula(F);         // F's flat clauses, loaded as ClauseViews
///   S.addClause({A, ~B});    // or one clause (a Clause or a ClauseView)
///   LBool R = S.solve({assumption1, ~assumption2});
///   if (R == LBool::False) auto &Core = S.conflictCore();
/// \endcode
class Solver {
public:
  /// Knobs of the one search policy (Glucose EMA restarts and LBD tier
  /// retention). Only the knobs some caller sets are here; the EMA weights,
  /// the core and mid-tier cuts, the mid-tier age and the inprocessing
  /// interval are private constants.
  ///
  /// Orientation for tuners:
  ///  * The EMA restart scalars trade restart frequency against model
  ///    finding: a lower RestartMargin restarts more eagerly (good on
  ///    UNSAT-heavy refutations), a lower BlockMargin blocks restarts
  ///    sooner when the trail grows (good for SAT-heavy searches).
  struct Options {
    // -- Glucose EMA restarts ----
    double RestartMargin = 1.25;     ///< restart when fast > margin * lifetime
    uint64_t RestartMinConflicts = 50; ///< warmup conflicts after each restart
    double BlockMargin = 1.4;        ///< block when trail > margin * trail EMA
    uint64_t BlockMinConflicts = 100; ///< conflicts before blocking can fire

    // -- LBD tier retention ----
    double MaxLearntsBase = 1000.0; ///< floor of the first reduceDB trigger

    // -- inprocessing (sat/Simplifier.h) ----
    /// Run SatELite-style simplification (bounded variable elimination +
    /// subsumption + self-subsuming resolution) once at the first solve()
    /// and again at restart boundaries. Variables that outside code will
    /// assume or release must be frozen first (setFrozen); the
    /// MaxSAT sessions register their control variables automatically.
    bool Preprocess = true;
    /// Skip the pass while the problem has fewer clauses than this: on a
    /// handful-of-clauses formula even building the occurrence lists
    /// costs more than simplification can ever recover. Tests that probe
    /// the pass on tiny hand-built formulas set it to 0.
    size_t PreprocessMinClauses = 16;
  };

  Solver() : Solver(Options()) {}
  explicit Solver(const Options &O) : Opts(O) {}

  /// Solvers are copyable *between* solve() calls: the copy gets an
  /// independent arena, watch lists, learnt tiers, activities, saved
  /// phases, kept assumption levels and budget, and continues exactly where
  /// the original stood. This is the substrate of serve-mode session
  /// cloning (maxsat/MaxSat.h `MaxSatSession::clone`): one base solver is
  /// loaded with the shared hard clauses once and copied per query, which
  /// is a flat memcpy of the arena instead of per-clause re-simplification.
  /// Copying a solver whose solve() is in flight is undefined. The copy
  /// keeps the budget, and with it the pointer to the same Cancel flag.
  Solver(const Solver &) = default;
  Solver &operator=(const Solver &) = default;

  const Options &options() const { return Opts; }

  /// Allocates a fresh variable and returns it.
  Var newVar();

  /// Ensures variables [0, N) all exist.
  void ensureVars(int N);

  int numVars() const { return static_cast<int>(Assigns.size()); }

  /// Adds a clause at the root level (returning there first from the
  /// assumption levels a solve() kept); performs level-0 simplification in
  /// a reused member buffer, so once that buffer has grown a call allocates
  /// nothing but arena and watch-list space (the caller's literals are not
  /// modified).
  /// \returns false if the solver became trivially
  /// UNSAT (empty clause / conflicting units).
  bool addClause(ClauseView C);
  bool addClause(const Clause &C) { return addClause(ClauseView(C)); }

  /// Loads every hard clause of \p F (also allocating its variables).
  bool addFormula(const CnfFormula &F);

  /// Retires a variable from an incremental session: returns to the root
  /// level and fixes \p L there (so every clause mentioning it simplifies
  /// away or shrinks) and permanently removes the variable from branching.
  /// The MaxSAT layer calls this with ~A when assumption guard A is
  /// superseded, satisfying the stale guarded clause copy trivially without
  /// bloating the decision heap with dead selectors. \returns false if the
  /// solver became UNSAT.
  bool releaseVar(Lit L);

  /// \returns false once the clause database is known UNSAT regardless of
  /// assumptions.
  bool okay() const { return Ok; }

  /// Decides satisfiability. Undef is only returned when a conflict budget
  /// is set and exhausted.
  LBool solve() { return solve({}); }

  /// Decides satisfiability under \p Assumptions (literals forced true for
  /// this call only). On False, conflictCore() holds the subset of
  /// assumptions proved jointly inconsistent with the clauses.
  ///
  /// The call returns with its assumption levels kept on the trail: all of
  /// them after True, those before the failing assumption after False, none
  /// after Undef. The next call backtracks only to the first assumption
  /// that differs (SolverStats::ReusedLevels counts the levels it keeps).
  /// The root clean-up scan (simplifyLevel0) runs at entry only when it is
  /// both stale -- a root assignment or a freed problem clause since the
  /// last scan -- and due: the solver has propagated at least as many
  /// literals as the clause database held at the last scan (MiniSAT's
  /// simpDB_assigns / simpDB_props). A solver's first scan is unconditional.
  LBool solve(const std::vector<Lit> &Assumptions) {
    return solve(Assumptions, {}, 0);
  }

  /// A literal a preference-ordered solve() decides early, and the weight
  /// its falsification costs.
  struct Preference {
    Lit L;
    uint64_t Weight;
  };

  /// solve(Assumptions) with preference-ordered branching (OPT-SAT:
  /// Giunchiglia & Maratea, ECAI 2006; Rosa, Giunchiglia & Maratea,
  /// Constraints 2010), for this call only. After the assumption levels,
  /// the search decides the first unassigned literal of \p Prefer true,
  /// before any VSIDS or random decision; a listed literal already true is
  /// skipped, and one already false adds its weight to a running falsified
  /// sum. Tail rule: when the listed literals after the next one weigh
  /// less than \p Owed minus that sum, it is decided false instead. Both
  /// are branching choices, not learnt facts, so the answer is sound
  /// whatever \p Owed is. When every model falsifies listed weight \p Owed
  /// exactly, a True answer's model is lexicographically greatest over
  /// \p Prefer (true beats false at the first listed literal where two
  /// models differ). The listed variables must be frozen, like assumptions.
  LBool solve(const std::vector<Lit> &Assumptions,
              const std::vector<Preference> &Prefer, uint64_t Owed);

  /// Model access after a True result: the model of the last solve() that
  /// returned True, whatever was solved or added since. The value of a
  /// variable the simplifier never eliminated is read straight from the
  /// assignment the search found (a variable it left unassigned reads
  /// False). Eliminated variables are rebuilt lazily: the first read of one
  /// runs SatELite's model extension once, over the reconstruction stack as
  /// it stood at that answer (later passes only append to the stack, and
  /// their segments are left out), and counts a SolverStats::ModelRebuilds.
  /// Callers that read only frozen variables -- the MaxSAT sessions read
  /// soft-clause literals -- never pay for a rebuild.
  LBool modelValue(Var V) {
    if (ExtendPending != 0 && isEliminated(V))
      extendModel();
    LBool B = Model[V];
    return B == LBool::Undef ? LBool::False : B;
  }
  LBool modelValue(Lit L) {
    LBool B = modelValue(L.var());
    return L.negated() ? lboolNeg(B) : B;
  }

  /// After a False result under assumptions: the failed assumptions (each
  /// element is one of the assumption literals passed to solve()).
  const std::vector<Lit> &conflictCore() const { return ConflictCore; }

  /// Limits each following solve() call to \p MaxConflicts conflicts
  /// (0 = unlimited), checked at every conflict, so a call stops at exactly
  /// that many. When exhausted, solve returns Undef.
  void setConflictBudget(uint64_t MaxConflicts) { ConflictBudget = MaxConflicts; }

  // --- resource budgets (graceful degradation) -----------------------------

  /// A query-wide resource budget. Unlike the per-solve conflict budget
  /// above, every cap is cumulative across all solve() calls since
  /// setBudget() -- the MaxSAT sessions install one budget per user query
  /// and make dozens of solve() calls against it. A zero cap (or an unset
  /// deadline or cancel flag) means that dimension is unlimited.
  struct Budget {
    uint64_t MaxConflicts = 0;    ///< conflicts since setBudget (0 = off)
    uint64_t MaxPropagations = 0; ///< propagations since setBudget (0 = off)
    /// Solver memory cap: clause arena plus per-variable state (0 = off).
    uint64_t MaxArenaBytes = 0;
    std::chrono::steady_clock::time_point Deadline{};
    bool HasDeadline = false;
    /// Cooperative cancellation: the budget trips once *Cancel reads true.
    /// The owner sets it from any thread; the solver only reads it.
    const std::atomic<bool> *Cancel = nullptr;

    bool unlimited() const {
      return MaxConflicts == 0 && MaxPropagations == 0 && MaxArenaBytes == 0 &&
             !HasDeadline && !Cancel;
    }
    bool cancelled() const {
      return Cancel && Cancel->load(std::memory_order_relaxed);
    }
    /// True once the deadline has passed or the cancel flag is up.
    bool expired() const {
      return (HasDeadline && std::chrono::steady_clock::now() >= Deadline) ||
             cancelled();
    }
    /// True when the per-variable state of \p NumVars variables fits under
    /// MaxArenaBytes (always, with the cap off). Check it before sizing a
    /// solver: a DIMACS header can declare millions of variables in a few
    /// bytes, and their state is allocated before any clause is.
    bool admitsVars(int NumVars) const;
    /// Sets the deadline to now + \p Seconds on the steady clock.
    void setDeadlineIn(double Seconds) {
      setDeadlineAfter(std::chrono::steady_clock::now(), Seconds);
    }
    /// Sets the deadline to \p From + \p Seconds.
    void setDeadlineAfter(std::chrono::steady_clock::time_point From,
                          double Seconds) {
      Deadline =
          From + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(Seconds));
      HasDeadline = true;
    }
  };

  /// Installs \p B and starts counting against it from the solver's current
  /// cumulative stats. Exhaustion makes solve() return Undef -- never throw,
  /// never abort: arena growth past MaxArenaBytes is detected at the next
  /// allocation and degrades to Undef too. The conflict cap is exact: it is
  /// checked at every conflict, so a search stops at the MaxConflicts-th.
  /// The exhausted state is sticky (later solve() calls return Undef
  /// immediately) until the budget is replaced or cleared.
  void setBudget(const Budget &B);

  /// Removes any budget and clears the exhausted state.
  void clearBudget();

  const Budget &budget() const { return Bud; }

  /// True once any budget dimension has tripped; sticky until clearBudget()
  /// or the next setBudget().
  bool budgetExhausted() const { return BudgetExhaustedFlag; }

  /// Re-latches the exhausted state. The MaxSAT sessions briefly lift an
  /// exhausted budget to harvest a bounded best-effort witness (the anytime
  /// upper bound); this restores the sticky Unknown contract afterwards.
  void markBudgetExhausted() {
    if (BudgetArmed)
      BudgetExhaustedFlag = true;
  }

  /// True once a test-only fault hook (support/FaultInject.h) stopped the
  /// search. Sticky for the solver's lifetime.
  bool interrupted() const { return Interrupted; }

  const SolverStats &stats() const { return Stats; }

  /// LBDs of the live learnt clauses across all tiers, in no particular
  /// order. Introspection surface for tests and benches.
  std::vector<uint32_t> learntLbds() const;

  /// Forces a learned-clause reduction between solve() calls, at the root
  /// level (returning there first); normally reductions trigger
  /// automatically during search.
  void reduceLearntDb();

  /// Forces a relocating arena collection (normally triggered once a fifth
  /// of the arena is waste), at the root level (returning there first);
  /// exposed so tests can check that relocation preserves clause metadata.
  void forceGarbageCollect();

  /// Sets the saved phase of \p V to \p Phase; used to bias the search
  /// (e.g., prefer enabling selectors).
  void setPolarity(Var V, bool Phase) { SavedPhase[V] = Phase; }

  /// Raises \p V's VSIDS activity so it is decided early. BugAssist boosts
  /// the selector variables: deciding them first makes every descent start
  /// from a concrete candidate "program edit", which propagation then
  /// evaluates cheaply.
  void boostActivity(Var V, double Amount = 1.0);

  // --- inprocessing (sat/Simplifier.{h,cpp}) -------------------------------

  /// Marks \p V as off-limits for variable elimination. The frozen-variable
  /// contract: any variable that outside code will later pass to solve() as
  /// an assumption, retire through releaseVar, or mention in a clause added
  /// after the first solve() MUST be frozen before that solve. Violations
  /// are hard errors (std::logic_error), not silent unsoundness.
  /// releaseVar unfreezes (the variable is root-fixed afterwards, so
  /// elimination of its remaining occurrences is sound and desirable).
  void setFrozen(Var V, bool Frozen);

  /// True if \p V is frozen (setFrozen).
  bool isFrozen(Var V) const {
    return V < static_cast<Var>(FrozenVars.size()) && FrozenVars[V];
  }

  /// True once \p V has been eliminated by the simplifier. Eliminated
  /// variables have no clause occurrences; modelValue() restores their
  /// values from the reconstruction stack on first read.
  bool isEliminated(Var V) const {
    return V < static_cast<Var>(ElimVars.size()) && ElimVars[V] != 0;
  }

  /// Runs one full simplification pass now, between solve() calls, at the
  /// root level (returning there first). No-op unless Options::Preprocess
  /// is set. \returns okay().
  bool preprocess();

  /// Test hook: force-eliminates \p V regardless of the resolvent growth
  /// bounds (at the root level, returning there first). Throws
  /// std::logic_error if \p V is frozen; returns false (without
  /// eliminating) if \p V is assigned at the root. \returns true if \p V
  /// is eliminated on exit.
  bool eliminateVar(Var V);

private:
  friend class Simplifier;
  friend struct SolverTestAccess; // white-box watch-list checks in tests
  // --- clause storage -----------------------------------------------------
  //
  // Clauses live in one flat arena of 32-bit words (stored as Lit for
  // type-clean access): [header][activity][lbd][lit_0 ... lit_{n-1}]. A
  // ClauseRef is the word offset of the header. Header layout:
  // size << 3 | Reloced << 2 | Learnt << 1 | Freed. The activity word
  // holds float bits (learnt clauses) or, after relocation during garbage
  // collection, the forwarding ClauseRef into the new arena (and, while a
  // watch-list replay runs, a dropped clause's replay slot). The lbd word
  // packs the clause's Literal Block Distance with its retention flags:
  // bits 0..19 LBD, bit 20 Touched (used in a conflict since the last
  // reduction), bits 21..23 Age (reductions survived without being used).
  using ClauseRef = int32_t;
  static constexpr ClauseRef InvalidClause = -1;
  static constexpr int32_t FreedBit = 1;
  static constexpr int32_t LearntBit = 2;
  static constexpr int32_t RelocedBit = 4;
  static constexpr int32_t HeaderWords = 3;
  static constexpr uint32_t LbdMask = (1u << 20) - 1;
  static constexpr uint32_t TouchedBit = 1u << 20;
  static constexpr uint32_t AgeShift = 21;
  static constexpr uint32_t AgeMask = 7;

  int32_t header(ClauseRef CR) const { return Arena[CR].code(); }
  uint32_t clauseSize(ClauseRef CR) const {
    return static_cast<uint32_t>(header(CR)) >> 3;
  }
  bool clauseLearnt(ClauseRef CR) const { return header(CR) & LearntBit; }
  bool clauseFreed(ClauseRef CR) const { return header(CR) & FreedBit; }
  void setClauseSize(ClauseRef CR, uint32_t Size) {
    Arena[CR] = Lit::fromCode(static_cast<int32_t>(Size << 3) |
                              (header(CR) & 7));
  }
  Lit *clauseLits(ClauseRef CR) { return &Arena[CR + HeaderWords]; }
  const Lit *clauseLits(ClauseRef CR) const { return &Arena[CR + HeaderWords]; }
  float clauseActivity(ClauseRef CR) const;
  void setClauseActivity(ClauseRef CR, float A);

  uint32_t lbdWord(ClauseRef CR) const {
    return static_cast<uint32_t>(Arena[CR + 2].code());
  }
  void setLbdWord(ClauseRef CR, uint32_t W) {
    Arena[CR + 2] = Lit::fromCode(static_cast<int32_t>(W));
  }
  uint32_t clauseLbd(ClauseRef CR) const { return lbdWord(CR) & LbdMask; }
  void setClauseLbd(ClauseRef CR, uint32_t Lbd) {
    setLbdWord(CR, (lbdWord(CR) & ~LbdMask) | (Lbd & LbdMask));
  }
  bool clauseTouched(ClauseRef CR) const { return lbdWord(CR) & TouchedBit; }
  void setClauseTouched(ClauseRef CR, bool T) {
    setLbdWord(CR, T ? (lbdWord(CR) | TouchedBit) : (lbdWord(CR) & ~TouchedBit));
  }
  uint32_t clauseAge(ClauseRef CR) const {
    return (lbdWord(CR) >> AgeShift) & AgeMask;
  }
  void setClauseAge(ClauseRef CR, uint32_t Age) {
    setLbdWord(CR, (lbdWord(CR) & ~(AgeMask << AgeShift)) |
                       ((Age & AgeMask) << AgeShift));
  }

  struct Watcher {
    ClauseRef CRef;
    Lit Blocker;
  };

  /// Bytes newVar() allocates per variable, counted against
  /// Budget::MaxArenaBytes: the per-variable arrays (assignment, level,
  /// reason, activity, heap slot, flags, model) and four watch-list
  /// headers. Approximate: vector slack is not counted.
  static constexpr size_t VarStateBytes =
      2 * sizeof(LBool) + sizeof(int) + sizeof(ClauseRef) + sizeof(double) +
      sizeof(int) + sizeof(Var) + 4 * sizeof(char) +
      4 * sizeof(std::vector<Watcher>);
  /// Memory the budget's cap is checked against.
  size_t budgetedBytes() const {
    return Arena.size() * sizeof(Lit) + Assigns.size() * VarStateBytes;
  }

  // --- core CDCL ----------------------------------------------------------
  LBool search();
  ClauseRef propagate();
  void analyze(ClauseRef Confl, std::vector<Lit> &OutLearnt, int &OutBtLevel,
               uint32_t &OutLbd);
  void analyzeFinal(Lit P);
  void uncheckedEnqueue(Lit L, ClauseRef From);
  void cancelUntil(int Level);
  /// The running solve()'s next preference decision (see the Preference
  /// overload of solve), or NullLit once every listed literal is assigned.
  Lit pickPreferredLit();
  Lit pickBranchLit();
  void newDecisionLevel() { TrailLim.push_back(static_cast<int>(Trail.size())); }
  int decisionLevel() const { return static_cast<int>(TrailLim.size()); }
  /// Literals assigned at level 0 (the whole trail at the root).
  int64_t rootTrailSize() const {
    return TrailLim.empty() ? static_cast<int64_t>(Trail.size()) : TrailLim[0];
  }
  /// The one way a root-only entry point reaches level 0: drops the
  /// assumption levels the last solve() kept.
  void returnToRoot() { cancelUntil(0); }
  /// Leading levels of the kept trail that \p Assumptions can reuse: the
  /// common prefix of KeptAssumptions and \p Assumptions, up to the
  /// current decision level.
  int reusableLevels(const std::vector<Lit> &Assumptions) const;

  LBool value(Lit L) const {
    LBool B = Assigns[L.var()];
    return L.negated() ? lboolNeg(B) : B;
  }
  LBool value(Var V) const { return Assigns[V]; }
  int level(Var V) const { return VarLevel[V]; }

  ClauseRef allocClause(const std::vector<Lit> &Lits, bool Learnt);
  void attachClause(ClauseRef CR);
  void detachClause(ClauseRef CR);
  void rewatchAsBinary(ClauseRef CR);
  void removeClause(ClauseRef CR);
  /// Marks a problem or learnt clause freed in the arena (no watch work).
  void freeClause(ClauseRef CR);

  // --- deferred watch detach ---------------------------------------------
  /// A watch list id: Lit code * 2, plus 1 for the binary family.
  static uint32_t watchId(Lit L, bool Binary) {
    return static_cast<uint32_t>(L.code()) * 2 + (Binary ? 1 : 0);
  }
  std::vector<Watcher> &watchList(uint32_t Id) {
    return (Id & 1 ? BinWatches : Watches)[Id >> 1];
  }
  /// Removes \p CR's watcher from list \p Id, as eager swap-with-back
  /// would: at once on a short clean list, else as a drop record.
  void dropWatch(uint32_t Id, ClauseRef CR);
  /// Replays list \p Id's pending edits (the list must have some).
  void flushWatches(uint32_t Id);
  /// Replays list \p Id's edits when they fill its buffer (see .cpp).
  void flushWatchesIfFull(uint32_t Id);
  bool hasPendingEdits(uint32_t Id) const {
    return !WatchCommitted.empty() && WatchCommitted[Id] != NoPendingEdits;
  }
  void flushWatchesIfPending(uint32_t Id) {
    if (hasPendingEdits(Id))
      flushWatches(Id);
  }
  /// Replays every list's pending edits.
  void flushAllWatches();
  /// The binary fast path never normalizes clause literals during
  /// propagation, so a binary reason clause may have the implied literal at
  /// either position; callers reading reasons positionally fix it up here.
  void normalizeBinaryReason(ClauseRef CR, Lit Implied) {
    Lit *CL = clauseLits(CR);
    if (clauseSize(CR) == 2 && CL[0] != Implied)
      std::swap(CL[0], CL[1]);
  }
  bool isLocked(ClauseRef CR) const;
  void pushLearnt(ClauseRef CR, uint32_t Lbd);
  size_t reducibleLearnts() const;
  void reduceDB();
  void refreshTierGauges();
  void simplifyLevel0();
  void checkGarbage();
  void garbageCollect();

  // --- inprocessing helpers (implemented in Simplifier.cpp) ---------------
  /// Removes \p L from the clause (root level; clause must not be locked).
  /// Detaches, shrinks, re-attaches with two non-false watches; a clause
  /// collapsing to a unit is freed and its literal enqueued+propagated.
  /// \returns false if the solver became UNSAT.
  bool strengthenClause(ClauseRef CR, Lit L);
  /// Restores eliminated variables in Model by walking the reconstruction
  /// stack backwards from height ExtendPending (the stack's size at the
  /// last True answer), then clears ExtendPending. Only modelValue() calls
  /// it, on the first read of an eliminated variable.
  void extendModel();

  // --- LBD / restart machinery -------------------------------------------
  uint32_t computeLbd(const Lit *Lits, uint32_t Size);
  void onConflictLearnt(uint32_t Lbd);
  bool restartPending() const;
  bool shouldRestart() const;

  // --- activity heap ------------------------------------------------------
  void varBumpActivity(Var V);
  void varDecayActivity() { VarInc /= VarDecay; }
  void claBumpActivity(ClauseRef CR);
  void claDecayActivity() { ClaInc /= ClaDecay; }
  void insertVarOrder(Var V);
  void heapInsert(Var V);
  void heapDecrease(Var V);
  Var heapPop();
  bool heapEmpty() const { return Heap.empty(); }
  void heapPercolateUp(int I);
  void heapPercolateDown(int I);

  uint64_t nextRand() {
    RandState ^= RandState << 13;
    RandState ^= RandState >> 7;
    RandState ^= RandState << 17;
    return RandState;
  }

  // --- state ----------------------------------------------------------------
  Options Opts;
  bool Ok = true;
  std::vector<Lit> Arena; // flat clause storage (see layout above)
  size_t ArenaWasted = 0; // words occupied by freed/shrunk clauses
  std::vector<ClauseRef> ProblemClauses;
  // Learnt tiers, distributed by LBD; Core is never scanned for deletion.
  std::vector<ClauseRef> CoreLearnts;
  std::vector<ClauseRef> MidLearnts;
  std::vector<ClauseRef> LocalLearnts;
  std::vector<std::vector<Watcher>> Watches; // indexed by Lit code, size >= 3
  // Binary clauses get their own watch lists: the Watcher's Blocker IS the
  // other literal, so propagation over them never touches the arena (no
  // header load, no literal scan) -- see the fast path in propagate().
  std::vector<std::vector<Watcher>> BinWatches; // indexed by Lit code

  // Deferred detach. Invariant: while WatchCommitted[Id] holds a count C
  // (not NoPendingEdits), list Id is C committed watchers followed by
  // pending edits -- drop records {CR, NullLit} and plain pushed watchers
  // -- and the edits are replayed in their original order before the list
  // is next read (propagate, garbageCollect, the end of a simplification
  // pass). Replay reproduces exactly the order eager swap-with-back removal
  // would have produced. That exactness is load-bearing: propagation order
  // steers the search, so an order-preserving compaction (MiniSAT's
  // cleanAll) changes the models found and with them the BMC
  // counterexamples and the reports built on them.
  static constexpr uint32_t NoPendingEdits = UINT32_MAX;
  /// Clean lists up to this length keep the eager scan: replay bookkeeping
  /// would cost more than the scan it saves.
  static constexpr size_t EagerDetachMax = 64;
  /// By watchId; NoPendingEdits = clean. Empty while every list is clean
  /// (released by flushAllWatches, allocated by the next deferral).
  std::vector<uint32_t> WatchCommitted;
  // Replay scratch: a ClauseRef bitmap of the clauses the edits drop (all
  // zero outside flushWatches), and per dropped clause its parked activity
  // word and current position in the list being replayed.
  struct ReplaySlot {
    ClauseRef CR;
    Lit Parked;
    int32_t At;
  };
  std::vector<uint64_t> DropMarks;
  std::vector<ReplaySlot> ReplaySlots;

  std::vector<LBool> Assigns;
  std::vector<int> VarLevel;
  std::vector<ClauseRef> Reason;
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  int PropagationHead = 0;

  std::vector<double> Activity;
  double VarInc = 1.0;
  double VarDecay = 0.95;
  double ClaInc = 1.0;
  double ClaDecay = 0.999;
  std::vector<int> HeapIndex; // var -> position in Heap, -1 if absent
  std::vector<Var> Heap;

  std::vector<bool> SavedPhase;
  std::vector<bool> Released; // released vars never re-enter the heap
  // Inprocessing state (plain values: session cloning copies them).
  std::vector<char> FrozenVars; // explicit frozen marks (see setFrozen)
  std::vector<char> ElimVars;   // 1 once eliminated by the simplifier
  /// Model-reconstruction stack. Per eliminated variable one segment:
  /// for each clause of the stored occurrence side [lits...] with the
  /// eliminated variable's literal FIRST followed by a size word
  /// Lit::fromCode(n), then a single default unit [lit][size word 1].
  /// extendModel walks it backwards (MiniSAT's elimclauses layout).
  std::vector<Lit> ElimStack;
  // simplifyLevel0's gate (MiniSAT's simpDB_assigns): the root trail size
  // at the last full clause-database scan, and whether a problem clause was
  // freed since (its stale entry must still leave ProblemClauses, whose
  // size seeds MaxLearnts).
  int64_t SimpDbAssigns = -1;
  bool ProblemClauseFreed = false;
  // solve()'s amortization of that scan (MiniSAT's simpDB_props): the
  // Stats.Propagations value at which the scan is due again -- the count at
  // the last scan plus the literals of the clauses it kept.
  uint64_t SimpDbProps = 0;
  bool PreprocessedOnce = false;     // load-time pass already ran
  uint64_t LastInprocConflicts = 0;  // Stats.Conflicts at the last pass
  std::vector<char> Seen;
  std::vector<Lit> AnalyzeStack;
  std::vector<uint64_t> LbdStampOfLevel; // level -> last stamp that saw it
  uint64_t LbdStamp = 0;

  std::vector<Lit> CurAssumptions; // the running solve()'s assumptions
  // The running solve()'s preferences, the weight listed after each one,
  // and the owed weight; all empty outside a preference-ordered solve.
  std::vector<Preference> Preferences;
  std::vector<uint64_t> PreferAfter;
  uint64_t PreferOwed = 0;
  // The leading listed literals pickPreferredLit found assigned: per
  // literal, the highest level among it and those before, and the weight
  // falsified up to it. cancelUntil pops the entries whose levels it undoes.
  struct PreferScanned {
    int MaxLevel;
    uint64_t Falsified;
  };
  std::vector<PreferScanned> PreferScan;
  // The last solve()'s assumptions. Outside solve(), decision level I + 1
  // is the level of KeptAssumptions[I] (see solve()).
  std::vector<Lit> KeptAssumptions;
  std::vector<Lit> ConflictCore;
  // The last True answer's assignment, Undef where the search left a
  // variable unassigned (modelValue reads that as False). While
  // ExtendPending is nonzero, eliminated variables in it still hold their
  // search values: it is the ElimStack height extendModel must replay.
  std::vector<LBool> Model;
  size_t ExtendPending = 0;

  uint64_t ConflictBudget = 0;
  // Query-wide resource budget (see Budget above). The search loop keeps
  // the fast path cheap: the conflict cap is one compare per conflict
  // against ConflictCapAt, and the loop head pays one bool test plus a
  // countdown, with the clock read and propagation and memory comparisons
  // amortized over BudgetPollPeriod iterations (the arena cap additionally
  // flips the sticky flag directly from allocClause, so it is seen on the
  // very next iteration).
  static constexpr int BudgetPollPeriod = 1024;
  bool pollBudget(); // slow path; returns and latches BudgetExhaustedFlag
  Budget Bud;
  bool BudgetArmed = false;
  bool BudgetExhaustedFlag = false;
  uint64_t BudgetStartPropagations = 0;
  int BudgetPollCountdown = 0;
  // Stats.Conflicts value at which the budget's conflict cap trips
  // (UINT64_MAX without a cap).
  uint64_t ConflictCapAt = UINT64_MAX;
  uint64_t ConflictsThisSolve = 0;
  uint64_t ConflictsSinceRestart = 0;
  double MaxLearnts = 0;
  // Restart EMAs persist across solve() calls, like the learnt clauses
  // whose quality they track. Each EMA carries a bias divisor (the Adam
  // correction 1 - (1-alpha)^n, accumulated incrementally) so the
  // corrected value is unbiased from the first sample; otherwise a fresh
  // solver's trail EMA underestimates for ~1/alpha conflicts and ordinary
  // trails would spuriously block every pending restart.
  double FastLbdEma = 0;
  double FastLbdBias = 0;
  double TrailEma = 0;
  double TrailBias = 0;
  // Search-policy constants (no caller varies them).
  static constexpr double FastLbdAlpha = 1.0 / 32; // recent-LBD EMA weight
  static constexpr double TrailAlpha = 1.0 / 256;  // trail-size EMA weight
  static constexpr uint32_t CoreLbdCut = 3; // LBD <= cut or binary => core
  static constexpr uint32_t MidLbdCut = 6; // LBD <= cut => mid tier, aged
  static constexpr uint32_t MidMaxAge = 2; // reductions a mid clause may idle
  // The stored age saturates at AgeMask, so a larger MidMaxAge would never
  // be reached and mid clauses would become immortal.
  static_assert(MidMaxAge <= AgeMask + 1, "MidMaxAge exceeds the age field");
  // Conflicts between inprocessing passes at restart boundaries.
  static constexpr uint64_t InprocessIntervalConflicts = 20000;
  // Decision RNG: a fixed seed, and RandBranchThreshold random decisions
  // per 1024 (about 2%).
  uint64_t RandState = 0x1234567890abcdefull;
  static constexpr uint32_t RandBranchThreshold = 20;

  // Set only by the fault hooks, on the solving thread.
  bool Interrupted = false;

  SolverStats Stats;

  std::vector<Lit> AddBuf; // addClause's sort-and-simplify buffer
};

} // namespace bugassist

#endif // BUGASSIST_SAT_SOLVER_H
