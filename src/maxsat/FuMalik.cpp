//===- FuMalik.cpp - Core-guided partial MaxSAT ------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The Fu-Malik algorithm [10], the unsatisfiability-core-guided procedure
// engineered into MSUnCORE [21] that the paper's implementation calls:
// repeatedly solve; while UNSAT, take an unsatisfiable core, attach a fresh
// relaxation variable to every soft clause in the core, constrain exactly
// one relaxation per round to fire, and charge the core's cost.
//
// Weights are handled by splitting cores by weight (WPM1: Ansotegui, Bonet
// and Levy, SAT 2009; WMSU1: Manquinho, Marques-Silva and Planes, SAT
// 2009). Each working copy of a soft clause carries a weight; a round
// charges the least weight w_min in its core, relaxes the copies of weight
// w_min in place, and splits every heavier copy into an unrelaxed
// remainder of weight w - w_min plus a relaxed copy of weight w_min. With
// unit weights nothing is ever split, so the rounds are the classic ones.
//
// This implementation is fully incremental: ONE solver lives for the whole
// session. Hard clauses are loaded once; each working copy is guarded by an
// assumption literal, and a relaxation round retires the stale guard (stops
// assuming it and releases it as root-level false, so the superseded
// guarded copy is satisfied trivially and reclaimed) before re-guarding the
// relaxed copy. Learned clauses, VSIDS activity, and saved phases survive
// every round -- and every blocking clause the CoMSS enumeration adds.
//
//===----------------------------------------------------------------------===//

#include "maxsat/MaxSat.h"

#include "maxsat/Cardinality.h"
#include "sat/Solver.h"

#include <algorithm>
#include <cassert>

using namespace bugassist;

bool bugassist::clauseSatisfied(const Clause &C,
                                const std::vector<LBool> &Model) {
  for (Lit L : C) {
    if (L.var() >= static_cast<Var>(Model.size()))
      continue;
    LBool B = Model[L.var()];
    if (L.negated())
      B = lboolNeg(B);
    if (B == LBool::True)
      return true;
  }
  return false;
}

bool bugassist::clauseSatisfied(const Clause &C, Solver &S) {
  for (Lit L : C)
    if (S.modelValue(L) == LBool::True)
      return true;
  return false;
}

std::vector<LBool> bugassist::readModel(Solver &S, int NumVars) {
  std::vector<LBool> Model(static_cast<size_t>(NumVars));
  for (Var V = 0; V < NumVars; ++V)
    Model[V] = S.modelValue(V);
  return Model;
}

namespace {

void collectFalsifiedSoft(const std::vector<SoftClause> &Soft, Solver &S,
                          MaxSatResult &Res) {
  Res.FalsifiedSoft.clear();
  uint64_t Cost = 0;
  for (size_t I = 0; I < Soft.size(); ++I) {
    if (!clauseSatisfied(Soft[I].Lits, S)) {
      Res.FalsifiedSoft.push_back(I);
      Cost += Soft[I].Weight;
    }
  }
  Res.Cost = Cost;
}

class FuMalikSessionImpl final : public MaxSatSession {
public:
  FuMalikSessionImpl(const MaxSatInstance &Inst, uint64_t ConflictBudget,
                     const Solver::Options &SolverOpts)
      : S(SolverOpts), NumOrigVars(Inst.NumVars), Soft(Inst.Soft),
        Witness(Inst.Witness) {
    S.ensureVars(Inst.NumVars);
    // Frozen contract (sat/Simplifier.h): the session keeps talking about
    // these variables after the first solve() -- guards are assumed,
    // soft/relaxation literals get re-added by later relaxation rounds,
    // canonical solves prefer unit soft literals, and blocking clauses
    // arrive through addHardClause -- so inprocessing must not eliminate
    // them. Inst.Frozen carries the caller's own late-bound variables.
    for (Var V : Inst.Frozen)
      S.setFrozen(V, true);
    for (const SoftClause &SC : Inst.Soft)
      for (Lit L : SC.Lits)
        S.setFrozen(L.var(), true);
    if (!Inst.loadHard(S)) {
      HardBroken = true;
      return;
    }
    // Guard each soft clause exactly once: assumption literal A_i enforces
    // C_i through the hard clause (C_i \/ ~A_i); a final conflict yields a
    // core over the A_i, i.e., over working copies. Copy i starts as soft
    // clause i.
    Copies.reserve(Soft.size());
    for (const SoftClause &SC : Soft) {
      assert(SC.Weight > 0 && "soft clause weights must be positive");
      if (!addCopy(SC.Lits, SC.Weight))
        HardBroken = true; // impossible while A is fresh; defensive only
    }
    PreferTrue = Inst.PreferTrue;
    if (ConflictBudget)
      S.setConflictBudget(ConflictBudget);
  }

  bool addHardClause(const Clause &C) override {
    if (HardBroken)
      return false;
    HardBroken = !S.addClause(C);
    return !HardBroken;
  }

  const SolverStats &stats() const override { return S.stats(); }

  Solver &solver() override { return S; }

  /// Member-wise deep copy: the Solver copy carries the arena and learnt
  /// state, and every piece of relaxation bookkeeping (working copies,
  /// guards, the lower bound) is a plain value. Root level only.
  std::unique_ptr<MaxSatSession> clone() const override {
    return std::unique_ptr<MaxSatSession>(new FuMalikSessionImpl(*this));
  }

  MaxSatResult solve() override {
    MaxSatResult Res;
    bool HaveModel = false; // S's last model is this result's best model
    for (; !HardBroken;) {
      std::vector<Lit> Assumptions;
      Assumptions.reserve(Copies.size());
      for (const WorkingCopy &WC : Copies)
        Assumptions.push_back(mkLit(WC.Guard));
      // Phase saving overwrites polarities during search; re-seed the
      // "program as written" bias before every descent, exactly as the
      // per-round solver rebuild used to.
      for (Var V : PreferTrue)
        S.setPolarity(V, true);
      ++Res.SatCalls;
      LBool R = S.solve(Assumptions);

      if (R == LBool::Undef) {
        Res.Status = MaxSatStatus::Unknown;
        // Every completed round proved its w_min more of falsified weight.
        Res.LowerBound = LowerBound;
        HaveModel = harvestUpperBound(Res);
        break;
      }
      if (R == LBool::True) {
        Res.Status = MaxSatStatus::Optimum;
        HaveModel = true;
        // Canonicalize the optimum in one preference-ordered solve under
        // the same guards (Solver.h): every soft clause's satisfyLit in
        // index order, weighted like the clause, with the proven lower bound
        // owed. Its model satisfies the lexicographically greatest
        // soft-clause vector among all optimal assignments, so
        // falsification lands on the latest statements. The
        // guard-satisfying models are exactly the optimal assignments, so
        // no explicit cost bound is needed:
        //
        //  * Every guard-satisfying model is optimal. Each relaxation
        //    literal was born on one copy of weight w_min of its round, and
        //    splitting only divides that weight among the copies that
        //    inherit it. A soft clause the model falsifies has all its live
        //    copies satisfied by relaxation literals, and exactly one
        //    literal per round is true, so the falsified weight is at most
        //    the sum of the rounds' w_min, the proven lower bound.
        //
        //  * Every optimal assignment satisfies the guards under some
        //    choice of relaxation literals. A round's core is unsatisfiable
        //    with the hard clauses, so every assignment falsifies one of its
        //    copies; setting that copy's relaxation literal lowers the
        //    assignment's remaining cost by exactly w_min (a heavier copy
        //    keeps w - w_min unrelaxed). After the last round an optimal
        //    assignment's remaining cost is its cost minus the lower bound,
        //    which is 0: it satisfies every live copy. With unit weights
        //    this is the matching argument: each round's core meets the
        //    unmatched rest of the falsified set -- else a partial witness
        //    would satisfy the core outright -- so the set has a perfect
        //    matching into the rounds (Hall's condition).
        //
        //  * The model is the lexicographically greatest (OPT-SAT). The
        //    solver decides the first unassigned listed literal before
        //    anything else, so every decision below a listed literal is an
        //    assumption or an earlier listed literal, and a listed literal
        //    found false is false in every optimal model that agrees on the
        //    earlier ones. Every such model falsifies exactly the lower
        //    bound, so the tail rule only decides false what the cost
        //    already forces.
        //
        // The answer is therefore a pure function of (hard clauses,
        // optimum), not of this session's relaxation history: sessions with
        // different search histories report the same set. An Undef answer
        // (budget) keeps the round's witness, the solver's last model.
        //
        // It runs even when the witness is already canonical (it falsifies
        // exactly a suffix of the soft clauses): the state the solve leaves
        // behind speeds up the blocking-clause rounds that follow, and
        // skipping it cost TCAS serve requests about a third more conflicts.
        if (LowerBound > 0) {
          std::vector<Solver::Preference> Prefer;
          Prefer.reserve(Soft.size());
          for (size_t J = 0; J < Soft.size(); ++J)
            Prefer.push_back({satisfyLit(J), Soft[J].Weight});
          ++Res.SatCalls;
          LBool C = S.solve(Assumptions, Prefer, LowerBound);
          assert(C != LBool::False && "the round's optimum vanished");
          Res.CanonicalTruncated = C == LBool::Undef;
        }
        collectFalsifiedSoft(Soft, S, Res);
        // Fu-Malik invariant: the charged w_min sum == optimal cost. Holds
        // across incremental blocking clauses too, since LowerBound
        // accumulates over the session exactly as the optimum does.
        assert(Res.Cost == LowerBound &&
               "Fu-Malik cost does not match falsified soft weight");
        break;
      }

      // UNSAT: harvest the core over assumption literals via the
      // direct-indexed var -> copy map (no nested scan).
      std::vector<size_t> Core;
      for (Lit FL : S.conflictCore()) {
        Var V = FL.var();
        if (V < static_cast<Var>(CopyOfGuard.size()) && CopyOfGuard[V] >= 0)
          Core.push_back(static_cast<size_t>(CopyOfGuard[V]));
      }
      std::sort(Core.begin(), Core.end());
      Core.erase(std::unique(Core.begin(), Core.end()), Core.end());

      if (Core.empty()) {
        // Conflict involves no soft clause: hard part is UNSAT.
        Res.Status = MaxSatStatus::HardUnsat;
        break;
      }

      // Relax: fresh r per core copy; exactly one r true; charge w_min. A
      // copy of weight w_min is relaxed in place: its old guard is retired
      // -- dropped from the assumptions and fixed false at the root, which
      // satisfies the superseded guarded copy so the solver reclaims it --
      // and the relaxed copy goes in under a fresh guard. A heavier copy
      // keeps its guard and clause at weight w - w_min, and a relaxed copy
      // of weight w_min is appended under a fresh guard.
      uint64_t WMin = UINT64_MAX;
      for (size_t I : Core)
        WMin = std::min(WMin, Copies[I].Weight);
      std::vector<Lit> Relax;
      Relax.reserve(Core.size());
      for (size_t I : Core) {
        WorkingCopy &WC = Copies[I]; // addCopy below may invalidate it
        bool InPlace = WC.Weight == WMin;
        if (InPlace) {
          CopyOfGuard[WC.Guard] = -1;
          S.releaseVar(mkLit(WC.Guard, /*Negated=*/true));
        }
        Lit RL = mkLit(S.newVar());
        S.setFrozen(RL.var(), true); // future relaxed copies re-mention it
        Relax.push_back(RL);
        if (InPlace) {
          WC.Lits.push_back(RL);
          WC.Guard = newGuard(I);
          addGuarded(WC);
        } else {
          WC.Weight -= WMin;
          Clause Relaxed = WC.Lits;
          Relaxed.push_back(RL);
          addCopy(std::move(Relaxed), WMin);
        }
      }
      ClauseSink Sink{[this](Clause C) { S.addClause(std::move(C)); },
                      [this]() { return S.newVar(); }};
      encodeExactlyOne(Relax, Sink);
      LowerBound += WMin;
      if (!S.okay()) {
        Res.Status = MaxSatStatus::HardUnsat;
        break;
      }
    }
    if (HardBroken)
      Res.Status = MaxSatStatus::HardUnsat;
    if (Res.Status == MaxSatStatus::Optimum)
      Res.LowerBound = Res.UpperBound = Res.Cost;
    else if (Res.Status == MaxSatStatus::HardUnsat)
      Res.LowerBound = Res.UpperBound = UINT64_MAX;
    if (Witness && HaveModel) {
      Res.BestModel = readModel(S, NumOrigVars);
      if (Res.Status == MaxSatStatus::Optimum)
        Res.Model = Res.BestModel;
    }
    Res.Search = S.stats();
    Res.ProbeConflicts = ProbeConflicts;
    return Res;
  }

private:
  /// One guarded working copy of a soft clause: the clause plus the
  /// relaxation literals of the rounds it took part in, and the share of
  /// the soft clause's weight it still carries. The live copies of a soft
  /// clause always carry its whole weight between them.
  struct WorkingCopy {
    Clause Lits;
    Var Guard = NullVar;
    uint64_t Weight = 0;
  };

  /// Anytime upper bound after budget exhaustion: ANY model of the hard
  /// clauses alone bounds the optimum by its falsified-soft weight, so
  /// probe without the guard assumptions under a small bounded allowance.
  /// Only runs when the query budget (not the legacy per-call conflict
  /// cap) tripped, so unbudgeted flows behave exactly as before.
  /// \returns true when a model was found (S's model then witnesses it).
  bool harvestUpperBound(MaxSatResult &Res) {
    if (!S.budgetExhausted() || S.interrupted())
      return false;
    Solver::Budget Saved = S.budget();
    S.clearBudget();
    Solver::Budget Allowance;
    Allowance.MaxConflicts = 1000;
    S.setBudget(Allowance);
    ++Res.SatCalls;
    uint64_t Before = S.stats().Conflicts;
    bool Found = S.solve() == LBool::True;
    ProbeConflicts += S.stats().Conflicts - Before;
    if (Found) {
      uint64_t Ub = 0;
      for (const SoftClause &SC : Soft)
        if (!clauseSatisfied(SC.Lits, S))
          Ub += SC.Weight;
      Res.UpperBound = Ub;
    }
    S.setBudget(Saved);
    S.markBudgetExhausted(); // the query budget stays sticky-exhausted
    return Found;
  }

  /// A literal that, assumed true, forces original soft clause \p J to be
  /// satisfied: the clause's own literal when it is unit (the localization
  /// case), otherwise a lazily created selector T with (C_J \/ ~T). The
  /// selector clause is inert when T is unassumed, so it never perturbs
  /// ordinary rounds.
  Lit satisfyLit(size_t J) {
    if (Soft[J].Lits.size() == 1)
      return Soft[J].Lits[0];
    if (SatisfySelector.empty())
      SatisfySelector.assign(Soft.size(), NullVar);
    if (SatisfySelector[J] == NullVar) {
      Var T = S.newVar();
      S.setFrozen(T, true); // preferred by later canonical solves
      Clause C = Soft[J].Lits;
      C.push_back(mkLit(T, /*Negated=*/true));
      S.addClause(std::move(C));
      SatisfySelector[J] = T;
    }
    return mkLit(SatisfySelector[J]);
  }

  /// Appends working copy (\p Lits, \p W) under a fresh guard.
  bool addCopy(Clause Lits, uint64_t W) {
    WorkingCopy WC;
    WC.Lits = std::move(Lits);
    WC.Guard = newGuard(Copies.size());
    WC.Weight = W;
    Copies.push_back(std::move(WC));
    return addGuarded(Copies.back());
  }

  /// Adds the hard clause (Lits \/ ~Guard) that \p WC's guard enforces.
  bool addGuarded(const WorkingCopy &WC) {
    Clause Guarded = WC.Lits;
    Guarded.push_back(mkLit(WC.Guard, /*Negated=*/true));
    return S.addClause(std::move(Guarded));
  }

  Var newGuard(size_t CopyIdx) {
    Var A = S.newVar();
    // Guards are assumed every round; releaseVar unfreezes on retirement.
    S.setFrozen(A, true);
    if (static_cast<Var>(CopyOfGuard.size()) <= A)
      CopyOfGuard.resize(A + 1, -1);
    CopyOfGuard[A] = static_cast<int32_t>(CopyIdx);
    return A;
  }

  Solver S;
  int NumOrigVars;
  std::vector<SoftClause> Soft;     ///< original soft clauses (for re-eval)
  std::vector<Var> PreferTrue;
  /// Live working copies; copy i < Soft.size() started as soft clause i,
  /// later ones were split off heavier copies.
  std::vector<WorkingCopy> Copies;
  std::vector<int32_t> CopyOfGuard; ///< guard var -> copy idx, -1 otherwise
  std::vector<Var> SatisfySelector; ///< soft idx -> canonicalization selector
  /// Proven lower bound on the optimum: the sum of every round's w_min.
  uint64_t LowerBound = 0;
  /// Conflicts harvestUpperBound spent, over the session's life.
  uint64_t ProbeConflicts = 0;
  bool Witness; ///< fill Model/BestModel (MaxSatInstance::Witness)
  bool HardBroken = false;
};

} // namespace

std::unique_ptr<MaxSatSession>
bugassist::makeFuMalikSession(const MaxSatInstance &Inst,
                              uint64_t ConflictBudget,
                              const Solver::Options &SolverOpts) {
  return std::make_unique<FuMalikSessionImpl>(Inst, ConflictBudget,
                                              SolverOpts);
}

MaxSatResult bugassist::solveFuMalik(const MaxSatInstance &Inst,
                                     uint64_t ConflictBudget,
                                     const Solver::Options &SolverOpts) {
  return FuMalikSessionImpl(Inst, ConflictBudget, SolverOpts).solve();
}
