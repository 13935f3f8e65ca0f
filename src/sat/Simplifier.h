//===- Simplifier.h - SatELite-style inprocessing ---------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clause-database simplification in the SatELite lineage (Een & Biere,
/// "Effective Preprocessing in SAT through Variable and Clause
/// Elimination", SAT'05), run as *inprocessing*: once when the solver first
/// solves and again at restart boundaries, so clauses learned or imported
/// between passes also feed the next pass's occurrence lists.
///
/// Three transformations, all satisfiability-preserving:
///
///  * **Backward subsumption** -- a clause C subsumes every clause D with
///    C (subseteq) D; D is removed. Candidates come from per-variable
///    occurrence lists over the arena, prefiltered by a 64-bit signature
///    (a Bloom bit per variable: C can only subsume D if
///    `Sig(C) & ~Sig(D) == 0`).
///
///  * **Self-subsuming resolution** -- if C = C' \/ l and D (supseteq)
///    C' \/ ~l, the resolvent on l strengthens D to D \ {~l}. Detected by
///    the same backward check (match all of C's literals in D, allowing
///    exactly one to match negated).
///
///  * **Bounded variable elimination** -- an unassigned, unfrozen variable
///    v is eliminated by replacing the clauses containing v with all
///    non-tautological resolvents on v, when that does not grow the clause
///    count (and no resolvent exceeds a size cap). One occurrence side plus
///    a default unit go to the solver's reconstruction stack so
///    Solver::extendModel can restore v's value in any model of the
///    reduced formula (MiniSAT's elimclauses scheme).
///
///    An attempt decides before it builds anything. It marks each positive
///    clause's literals in a per-pass array indexed by literal code and
///    scans each negative partner against it: a marked complement is a
///    tautology, and the unmarked literals give the resolvent's size. The
///    growth bounds apply to these counts; only when they hold are the
///    surviving pairs built, in (positive, negative) order, sorted and
///    deduplicated. Later sweeps of a pass skip a variable whose last
///    attempt failed while none of its clauses was added, removed or
///    strengthened and the root trail stayed put: a re-attempt would see
///    the same clauses and fail the same way, and a failed attempt has no
///    effect of its own. Neither shortcut changes the result: the same
///    variables go in the same order, with the same resolvents, the same
///    reconstruction stack and the same statistics as building every
///    resolvent and retrying every variable.
///
/// The frozen-variable contract (Solver::setFrozen) is what makes this
/// sound *incrementally*: elimination is equisatisfiable, not equivalent,
/// so variables the outside world will still talk about -- assumptions,
/// soft-clause guards and relaxation selectors, PB-counter outputs, the
/// clause-exchange original-variable prefix -- must never be eliminated.
/// Violations upstream surface as std::logic_error from the Solver, not as
/// wrong answers. Learnt clauses mentioning an eliminated variable are
/// swept after the pass (they are implied lemmas; dropping them is always
/// sound), so the LBD tiers never hold a clause over a ghost variable and
/// the relocating GC reclaims the eliminated originals like any other
/// freed clause.
///
/// A Simplifier is a transient: constructed on a Solver at decision level
/// 0, run once, discarded. It honours the solver's resource Budget, its
/// cancel flag included (a pass aborted mid-way leaves the database in a
/// consistent state -- every individual rewrite commits atomically).
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SAT_SIMPLIFIER_H
#define BUGASSIST_SAT_SIMPLIFIER_H

#include "cnf/Lit.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace bugassist {

class Solver;

class Simplifier {
public:
  /// Effort caps. The defaults keep a pass linear-ish in formula size;
  /// Solver::eliminateVar lifts them for targeted test eliminations.
  struct Limits {
    uint32_t MaxOccurrences = 400; ///< skip BVE on vars occurring more often
    uint32_t MaxResolventSize = 24; ///< never create longer resolvents
    uint32_t MaxClauseSize = 64; ///< longer clauses neither subsume nor resolve
    int MaxRounds = 3; ///< subsumption+BVE alternations per pass
  };

  explicit Simplifier(Solver &S) : S(S) {}

  /// Runs one full pass (subsumption fixpoint and BVE sweep, alternated
  /// until quiescent or the round cap). \returns Solver::okay().
  bool run(const Limits &L);
  bool run(); // default Limits (separate overload: Limits is incomplete here)

  /// Eliminates exactly \p V. With \p Forced, the growth bounds are
  /// ignored and eliminating a frozen variable throws std::logic_error
  /// (without it, frozen/assigned variables are silently skipped).
  /// \returns true if \p V is eliminated on exit.
  bool eliminateOne(Var V, bool Forced);

private:
  using ClauseRef = int32_t;

  /// One problem clause under consideration. Sig/Size are maintained
  /// eagerly on strengthening; Dead marks clauses removed mid-pass (their
  /// occurrence-list entries go stale and are skipped lazily).
  struct Entry {
    ClauseRef CR;
    uint64_t Sig;
    uint32_t Size;
    bool Dead;
  };

  Solver &S;
  Limits Lim;
  std::vector<Entry> Cs;
  std::vector<std::vector<int>> Occ; // var -> indices into Cs (stale-tolerant)
  std::vector<int> Queue;            // entry indices pending backward checks
  size_t QueueHead = 0;
  std::vector<char> InQueue;
  std::vector<Lit> Scratch; // resolvent / stored-clause assembly buffer
  // BVE attempt buffers, reused across the pass: the live occurrence
  // sides, the resolvent pairs that survive counting, and the committed
  // resolvents (flat literals, each ending at its ResEnds offset).
  std::vector<int> Pos, Neg;
  std::vector<std::pair<int, int>> Pairs;
  std::vector<Lit> ResLits;
  std::vector<size_t> ResEnds;
  // Resolvent counting: Mark[lit code] == Stamp marks a literal of the
  // clause (or pair) being counted; a fresh stamp clears every mark.
  std::vector<uint32_t> Mark;
  uint32_t Stamp = 0;
  // Re-sweep filter: Dirty[v] is set when a clause over v is added,
  // removed or strengthened; TriedAt[v] is the root trail length at v's
  // last failed attempt (NotTried before one).
  static constexpr uint32_t NotTried = UINT32_MAX;
  std::vector<char> Dirty;
  std::vector<uint32_t> TriedAt;
  // Variables assumed by the in-flight solve() are frozen for this pass
  // only (the assumptions of *future* solves must be frozen by the caller).
  std::vector<char> TempFrozen;
  bool AbortLatch = false; // sticky budget/cancel trip for this pass

  bool prepare();            // root propagate + simplify + collect entries
  void collect();            // build Cs/Occ/Queue from the problem clauses
  uint64_t signatureOf(ClauseRef CR) const;
  bool aborted();            // budget/cancel poll (amortized)
  bool varTouchable(Var V) const; // unassigned, unfrozen, not eliminated
  bool entrySatisfied(int EI);    // root-satisfied? (marks Dead, removes)
  void enqueue(int EI);

  /// Subsumption fixpoint over Queue. \returns number of database changes.
  uint64_t subsumptionFixpoint();
  /// Backward check of entry \p EI against its occurrence candidates.
  uint64_t backwardCheck(int EI);
  /// Does Cs[CI] subsume Cs[DI] (Flip = NullLit), or strengthen it by
  /// removing ~Flip (exactly one literal matched negated)?
  bool subsumeOrStrengthen(int CI, int DI, Lit &Flip);
  /// Applies self-subsuming resolution: removes \p L from entry \p EI.
  void strengthenEntry(int EI, Lit L);

  /// One left-to-right BVE sweep over all variables. \returns eliminations.
  uint64_t bveSweep();
  bool tryEliminate(Var V, bool Forced);
  /// Records in Pairs every (Pos, Neg) pair on \p V whose resolvent is
  /// neither tautological nor root-satisfied. \returns false as soon as
  /// a bound fails (never when \p Forced).
  bool countResolvents(Var V, bool Forced);
  /// Appends the sorted, deduplicated resolvent of Cs[PI] and Cs[NI] on
  /// \p V to ResLits (a pair that survived countResolvents).
  void buildResolvent(int PI, int NI, Var V);
  /// Installs a committed resolvent as a new problem clause + entry.
  void addResolvent(const Lit *Lits, size_t N);
  /// Sets Dirty for every variable of entry \p EI (before it changes).
  void touchEntry(int EI);
  /// A stamp no Mark entry holds yet, with room for \p Reserve more.
  uint32_t freshStamp(size_t Reserve);
  /// Pushes one side's clauses + the default unit for \p V (see
  /// Solver::ElimStack layout).
  void pushReconstruction(Var V, const std::vector<int> &StoredSide,
                          Lit Default);

  /// Drops learnt clauses that mention an eliminated variable.
  void sweepLearnts();
};

} // namespace bugassist

#endif // BUGASSIST_SAT_SIMPLIFIER_H
