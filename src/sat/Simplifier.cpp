//===- Simplifier.cpp - SatELite-style inprocessing -------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Implements the Simplifier (see Simplifier.h for the algorithm overview)
// and the Solver entry points that belong to it: preprocess(),
// eliminateVar(), strengthenClause(), extendModel().
//
// Invariants relied on throughout, all established by prepare():
//  * decision level 0, propagation saturated, simplifyLevel0 done -- so a
//    non-satisfied problem clause holds only root-unassigned literals when
//    the pass starts. In-pass unit propagation (from strengthening and
//    unit resolvents) can falsify or satisfy literals afterwards; every
//    consumer re-validates against the arena and current assignment.
//  * A clause is locked (serves as a reason) only if it is root-satisfied,
//    so any clause that passes the entrySatisfied filter can be removed or
//    strengthened without corrupting Reason[].
//  * Occurrence lists are stale-tolerant: entries are never unlinked when
//    a clause dies or loses a literal, they are skipped (Dead flag) or
//    fail the literal scan.
//
//===----------------------------------------------------------------------===//

#include "sat/Simplifier.h"

#include "sat/Solver.h"
#include "support/FaultInject.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

using namespace bugassist;

// --- Solver entry points ----------------------------------------------------

bool Solver::preprocess() {
  assert(decisionLevel() == 0 && "preprocess only at the root level");
  if (!Opts.Preprocess || !Ok)
    return Ok;
  // The load-time decision is made exactly once (hence the latch before
  // the size check): a formula too small to amortize the pass skips it
  // for good, rather than paying it mid-session the moment incremental
  // clause additions cross the floor. Formulas that grow large through a
  // long run are inprocessed at restart boundaries anyway.
  PreprocessedOnce = true;
  if (ProblemClauses.size() < Opts.PreprocessMinClauses)
    return Ok;
  LastInprocConflicts = Stats.Conflicts;
  Simplifier Simp(*this);
  return Simp.run();
}

bool Solver::eliminateVar(Var V) {
  assert(decisionLevel() == 0 && "eliminate only at the root level");
  ensureVars(V + 1);
  if (ElimVars[V])
    return true;
  Simplifier Simp(*this);
  return Simp.eliminateOne(V, /*Forced=*/true);
}

bool Solver::strengthenClause(ClauseRef CR, Lit L) {
  assert(decisionLevel() == 0 && "strengthen only at the root level");
  assert(!clauseFreed(CR) && "strengthening a freed clause");
  assert(!isLocked(CR) && "strengthening a reason clause");
  detachClause(CR);
  uint32_t Size = clauseSize(CR);
  Lit *CL = clauseLits(CR);
  uint32_t K = 0;
  while (K < Size && CL[K] != L)
    ++K;
  assert(K < Size && "literal not in clause");
  CL[K] = CL[Size - 1];
  --Size;
  ++ArenaWasted;

  // Re-normalize against the root assignment: in-pass propagation may have
  // satisfied the clause or falsified literals, and watches must be
  // non-false at the root. Partition the unassigned literals to the front.
  bool Satisfied = false;
  uint32_t NonFalse = 0;
  for (uint32_t I = 0; I < Size; ++I) {
    if (value(CL[I]) == LBool::True) {
      Satisfied = true;
      break;
    }
    if (value(CL[I]) == LBool::Undef)
      std::swap(CL[NonFalse++], CL[I]);
  }
  if (Satisfied) {
    setClauseSize(CR, Size);
    freeClause(CR);
    return Ok;
  }
  ArenaWasted += Size - NonFalse;
  Size = NonFalse;
  setClauseSize(CR, Size);
  if (Size == 0) {
    Ok = false;
    return false;
  }
  if (Size == 1) {
    Lit U = CL[0];
    freeClause(CR);
    uncheckedEnqueue(U, InvalidClause);
    Ok = (propagate() == InvalidClause);
    return Ok;
  }
  attachClause(CR); // size 2 lands in BinWatches, preserving the invariant
  return true;
}

void Solver::extendModel() {
  // Walk the reconstruction stack backwards (see the ElimStack layout in
  // Solver.h). For each stored clause: if no literal is true under the
  // model, the leading literal (the eliminated variable's) is made true.
  // SatELite's extension argument guarantees at most one side of an
  // eliminated variable can be unsatisfied-by-the-rest, because the model
  // satisfies every resolvent. The default unit additionally never
  // overrides a value the search itself assigned (possible when a learnt
  // clause over the variable propagated at the root between its
  // elimination and the learnt sweep): such assignments are entailed, and
  // entailment makes the stored side satisfied without the flip.
  for (size_t I = ElimStack.size(); I > 0;) {
    int32_t N = ElimStack[--I].code();
    assert(N >= 1 && static_cast<size_t>(N) <= I && "corrupt elim stack");
    size_t Begin = I - static_cast<size_t>(N);
    bool Satisfied = false;
    for (size_t K = Begin; K < I; ++K) {
      Lit L = ElimStack[K];
      LBool B = Model[L.var()];
      if ((L.negated() ? lboolNeg(B) : B) == LBool::True) {
        Satisfied = true;
        break;
      }
    }
    if (!Satisfied) {
      Lit L0 = ElimStack[Begin];
      if (N > 1 || Model[L0.var()] == LBool::Undef)
        Model[L0.var()] = L0.negated() ? LBool::False : LBool::True;
    }
    I = Begin;
  }
}

// --- pass setup -------------------------------------------------------------

bool Simplifier::aborted() {
  if (AbortLatch)
    return true;
  if (S.InterruptRequested.load(std::memory_order_relaxed) || S.pollBudget())
    AbortLatch = true;
  return AbortLatch;
}

bool Simplifier::varTouchable(Var V) const {
  return S.value(V) == LBool::Undef && !S.ElimVars[V] && !S.isFrozen(V) &&
         !(V < static_cast<Var>(TempFrozen.size()) && TempFrozen[V]);
}

uint64_t Simplifier::signatureOf(ClauseRef CR) const {
  const Lit *CL = S.clauseLits(CR);
  uint32_t Size = S.clauseSize(CR);
  uint64_t Sig = 0;
  for (uint32_t I = 0; I < Size; ++I)
    Sig |= 1ull << (CL[I].var() & 63);
  return Sig;
}

bool Simplifier::prepare() {
  assert(S.decisionLevel() == 0 && "simplify only at the root level");
  if (!S.Ok)
    return false;
  if (S.propagate() != Solver::InvalidClause) {
    S.Ok = false;
    return false;
  }
  S.simplifyLevel0();
  if (!S.Ok)
    return false;
  TempFrozen.assign(S.numVars(), 0);
  for (Lit L : S.CurAssumptions)
    TempFrozen[L.var()] = 1;
  collect();
  return true;
}

void Simplifier::collect() {
  Cs.clear();
  Occ.assign(S.numVars(), {});
  Queue.clear();
  QueueHead = 0;
  InQueue.clear();
  for (ClauseRef CR : S.ProblemClauses) {
    if (S.clauseFreed(CR))
      continue;
    const Lit *CL = S.clauseLits(CR);
    uint32_t Size = S.clauseSize(CR);
    // simplifyLevel0 keeps root-satisfied clauses only while locked; those
    // stay out of the pass entirely.
    bool Satisfied = false;
    for (uint32_t I = 0; I < Size; ++I)
      if (S.value(CL[I]) == LBool::True) {
        Satisfied = true;
        break;
      }
    if (Satisfied)
      continue;
    int Idx = static_cast<int>(Cs.size());
    Cs.push_back({CR, signatureOf(CR), Size, false});
    InQueue.push_back(0);
    for (uint32_t I = 0; I < Size; ++I)
      Occ[CL[I].var()].push_back(Idx);
    enqueue(Idx);
  }
}

void Simplifier::enqueue(int EI) {
  if (InQueue[EI])
    return;
  InQueue[EI] = 1;
  Queue.push_back(EI);
}

bool Simplifier::entrySatisfied(int EI) {
  Entry &E = Cs[EI];
  if (E.Dead)
    return true;
  if (S.clauseFreed(E.CR)) {
    E.Dead = true;
    return true;
  }
  const Lit *CL = S.clauseLits(E.CR);
  for (uint32_t I = 0; I < E.Size; ++I) {
    if (S.value(CL[I]) == LBool::True) {
      E.Dead = true;
      if (!S.isLocked(E.CR))
        S.removeClause(E.CR);
      return true;
    }
  }
  return false;
}

// --- subsumption + self-subsuming resolution --------------------------------

uint64_t Simplifier::subsumptionFixpoint() {
  uint64_t Changes = 0;
  while (QueueHead < Queue.size()) {
    if (aborted() || !S.Ok)
      break;
    int EI = Queue[QueueHead++];
    InQueue[EI] = 0;
    Changes += backwardCheck(EI);
  }
  if (QueueHead >= Queue.size()) {
    Queue.clear();
    QueueHead = 0;
  }
  return Changes;
}

uint64_t Simplifier::backwardCheck(int EI) {
  Entry &E = Cs[EI];
  if (E.Dead || S.clauseFreed(E.CR) || entrySatisfied(EI))
    return 0;
  if (E.Size > Lim.MaxClauseSize)
    return 0; // too long to be an interesting subsumer

  // Candidates must contain every variable of E; the shortest occurrence
  // list among E's variables covers them all.
  const Lit *CL = S.clauseLits(E.CR);
  Var Best = CL[0].var();
  for (uint32_t I = 1; I < E.Size; ++I)
    if (Occ[CL[I].var()].size() < Occ[Best].size())
      Best = CL[I].var();

  uint64_t Changes = 0;
  auto &List = Occ[Best];
  for (size_t OI = 0; OI < List.size(); ++OI) {
    int DI = List[OI];
    if (DI == EI)
      continue;
    Entry &D = Cs[DI];
    if (D.Dead || S.clauseFreed(D.CR))
      continue;
    if (D.Size < E.Size)
      continue; // cannot contain E
    if (E.Sig & ~D.Sig)
      continue; // some variable of E is certainly missing from D
    if (entrySatisfied(DI))
      continue;
    Lit Flip = NullLit;
    if (!subsumeOrStrengthen(EI, DI, Flip))
      continue;
    if (Flip == NullLit) {
      // E (subseteq) D: D is redundant. D is unsatisfied, hence unlocked.
      S.removeClause(D.CR);
      D.Dead = true;
      ++S.Stats.ClausesSubsumed;
      ++Changes;
    } else {
      // E = E' \/ Flip, D (supseteq) E' \/ ~Flip: resolving on Flip
      // strengthens D in place by dropping ~Flip.
      strengthenEntry(DI, ~Flip);
      ++Changes;
      if (!S.Ok)
        break;
    }
  }
  return Changes;
}

bool Simplifier::subsumeOrStrengthen(int CI, int DI, Lit &Flip) {
  const Entry &C = Cs[CI];
  const Entry &D = Cs[DI];
  const Lit *CL = S.clauseLits(C.CR);
  const Lit *DL = S.clauseLits(D.CR);
  Flip = NullLit;
  for (uint32_t I = 0; I < C.Size; ++I) {
    Lit LC = CL[I];
    bool Found = false;
    for (uint32_t J = 0; J < D.Size; ++J) {
      if (DL[J] == LC) {
        Found = true;
        break;
      }
      if (DL[J] == ~LC) {
        if (Flip != NullLit)
          return false; // two flipped matches: plain resolution, not useful
        Flip = LC;
        Found = true;
        break;
      }
    }
    if (!Found)
      return false;
  }
  return true;
}

void Simplifier::strengthenEntry(int EI, Lit L) {
  Entry &E = Cs[EI];
  ++S.Stats.LitsSelfSubsumed;
  S.strengthenClause(E.CR, L);
  if (!S.Ok)
    return;
  if (S.clauseFreed(E.CR)) {
    E.Dead = true; // collapsed to a unit (enqueued) or became satisfied
    return;
  }
  E.Size = S.clauseSize(E.CR);
  E.Sig = signatureOf(E.CR);
  enqueue(EI); // a shorter clause is a stronger subsumer: recheck it
}

// --- bounded variable elimination -------------------------------------------

uint64_t Simplifier::bveSweep() {
  // Snapshot the variable order by occurrence count (cheapest first --
  // low-occurrence variables are both the most likely to eliminate and the
  // cheapest to try). Stale occurrence entries only overestimate.
  std::vector<std::pair<uint32_t, Var>> Order;
  for (Var V = 0; V < S.numVars(); ++V) {
    if (!varTouchable(V))
      continue;
    size_t N = Occ[V].size();
    if (N == 0 || N > Lim.MaxOccurrences)
      continue;
    Order.push_back({static_cast<uint32_t>(N), V});
  }
  std::sort(Order.begin(), Order.end());
  uint64_t Elims = 0;
  for (const auto &P : Order) {
    if (aborted() || !S.Ok)
      break;
    if (tryEliminate(P.second, /*Forced=*/false))
      ++Elims;
  }
  return Elims;
}

bool Simplifier::tryEliminate(Var V, bool Forced) {
  if (S.ElimVars[V])
    return false;
  if (S.isFrozen(V) ||
      (V < static_cast<Var>(TempFrozen.size()) && TempFrozen[V])) {
    if (Forced)
      throw std::logic_error(
          "Simplifier: attempt to eliminate a frozen variable");
    return false;
  }
  if (S.value(V) != LBool::Undef)
    return false; // root-fixed: its clauses simplify away instead

  // Gather the live occurrences, validated against the arena.
  std::vector<int> Pos, Neg;
  for (int EI : Occ[V]) {
    if (Cs[EI].Dead || S.clauseFreed(Cs[EI].CR) || entrySatisfied(EI))
      continue;
    const Entry &E = Cs[EI];
    const Lit *CL = S.clauseLits(E.CR);
    for (uint32_t I = 0; I < E.Size; ++I) {
      if (CL[I] == mkLit(V)) {
        Pos.push_back(EI);
        break;
      }
      if (CL[I] == mkLit(V, true)) {
        Neg.push_back(EI);
        break;
      }
    }
  }
  if (!Forced && Pos.size() + Neg.size() > Lim.MaxOccurrences)
    return false;

  // Count (and keep) the surviving resolvents; bail out as soon as the
  // bounded-growth criterion fails. Tautological and root-satisfied
  // resolvents do not count -- that asymmetry is what makes elimination
  // fire on real encodings (Tseitin definitions resolve mostly to
  // tautologies).
  std::vector<std::vector<Lit>> Resolvents;
  for (int PI : Pos) {
    for (int NI : Neg) {
      if (!resolve(PI, NI, V))
        continue;
      if (!Forced && Scratch.size() > Lim.MaxResolventSize)
        return false;
      Resolvents.push_back(Scratch);
      if (!Forced && Resolvents.size() > Pos.size() + Neg.size())
        return false;
    }
  }

  // Commit. Order matters: capture the reconstruction clauses before the
  // originals are freed, free the originals before resolvents allocate
  // (allocClause may grow the arena and invalidate literal pointers).
  bool StoreNeg = Pos.size() > Neg.size();
  pushReconstruction(V, StoreNeg ? Neg : Pos,
                     StoreNeg ? mkLit(V) : mkLit(V, true));
  for (int EI : Pos) {
    S.removeClause(Cs[EI].CR);
    Cs[EI].Dead = true;
  }
  for (int EI : Neg) {
    S.removeClause(Cs[EI].CR);
    Cs[EI].Dead = true;
  }
  S.ElimVars[V] = 1;
  ++S.Stats.VarsEliminated;
  S.Stats.ReconstructBytes = S.ElimStack.size() * sizeof(Lit);
  if (S.HeapIndex[V] != -1) {
    // Evict from the decision heap: raise to the top and pop (the same
    // trick releaseVar uses); insertVarOrder refuses eliminated vars.
    S.Activity[V] = 1e300;
    S.heapDecrease(V);
    Var Top = S.heapPop();
    assert(Top == V && "heap eviction failed");
    (void)Top;
    S.Activity[V] = 0.0;
  }
  for (const auto &R : Resolvents) {
    addResolvent(R);
    if (!S.Ok)
      break;
  }
  return true;
}

bool Simplifier::resolve(int PI, int NI, Var V) {
  Scratch.clear();
  auto Side = [&](int EI, Lit Pivot) -> bool {
    const Entry &E = Cs[EI];
    const Lit *CL = S.clauseLits(E.CR);
    for (uint32_t I = 0; I < E.Size; ++I) {
      Lit L = CL[I];
      if (L == Pivot)
        continue;
      if (S.value(L) == LBool::True)
        return false; // resolvent already satisfied at the root
      if (S.value(L) == LBool::False)
        continue; // root-false literals can never help
      Scratch.push_back(L);
    }
    return true;
  };
  if (!Side(PI, mkLit(V)) || !Side(NI, mkLit(V, true)))
    return false;
  std::sort(Scratch.begin(), Scratch.end());
  size_t J = 0;
  for (size_t I = 0; I < Scratch.size(); ++I) {
    if (J > 0 && Scratch[I] == Scratch[J - 1])
      continue; // duplicate
    if (J > 0 && Scratch[I] == ~Scratch[J - 1])
      return false; // tautology
    Scratch[J++] = Scratch[I];
  }
  Scratch.resize(J);
  return true;
}

void Simplifier::addResolvent(const std::vector<Lit> &Lits) {
  // Units enqueued by an earlier resolvent may have touched this one:
  // re-simplify against the current root assignment (mirrors addClause;
  // the literals are already sorted, deduplicated, and non-tautological).
  Scratch.clear();
  for (Lit L : Lits) {
    if (S.value(L) == LBool::True)
      return; // satisfied meanwhile
    if (S.value(L) == LBool::False)
      continue;
    Scratch.push_back(L);
  }
  if (Scratch.empty()) {
    S.Ok = false; // the empty resolvent: root-level UNSAT
    return;
  }
  if (Scratch.size() == 1) {
    S.uncheckedEnqueue(Scratch[0], Solver::InvalidClause);
    if (S.propagate() != Solver::InvalidClause)
      S.Ok = false;
    return;
  }
  ClauseRef CR = S.allocClause(Scratch, /*Learnt=*/false);
  S.ProblemClauses.push_back(CR);
  S.attachClause(CR);
  int Idx = static_cast<int>(Cs.size());
  Cs.push_back({CR, signatureOf(CR), static_cast<uint32_t>(Scratch.size()),
                false});
  InQueue.push_back(0);
  const Lit *CL = S.clauseLits(CR);
  for (uint32_t I = 0; I < Cs[Idx].Size; ++I)
    Occ[CL[I].var()].push_back(Idx);
  enqueue(Idx); // resolvents feed the next subsumption round
}

void Simplifier::pushReconstruction(Var V, const std::vector<int> &StoredSide,
                                    Lit Default) {
  // Layout per clause: [pivot literal][other live literals][size word];
  // then one [default literal][size word 1]. Root-false literals are
  // dropped (root assignments are permanent, so they can never satisfy the
  // clause in any later model).
  for (int EI : StoredSide) {
    const Entry &E = Cs[EI];
    const Lit *CL = S.clauseLits(E.CR);
    Scratch.clear();
    Lit Pivot = NullLit;
    for (uint32_t I = 0; I < E.Size; ++I) {
      Lit L = CL[I];
      if (L.var() == V) {
        Pivot = L;
        continue;
      }
      if (S.value(L) == LBool::False)
        continue;
      Scratch.push_back(L);
    }
    assert(Pivot != NullLit && "stored clause lost its pivot");
    S.ElimStack.push_back(Pivot);
    for (Lit L : Scratch)
      S.ElimStack.push_back(L);
    S.ElimStack.push_back(
        Lit::fromCode(static_cast<int32_t>(Scratch.size() + 1)));
  }
  S.ElimStack.push_back(Default);
  S.ElimStack.push_back(Lit::fromCode(1));
}

// --- learnt sweep + drivers -------------------------------------------------

void Simplifier::sweepLearnts() {
  // Learnt clauses are implied lemmas: dropping any of them is sound, and
  // any that mention an eliminated variable MUST go, or search would
  // branch on ghosts. A locked ghost learnt (it propagated at the root
  // between elimination and this sweep) stays -- it is root-satisfied and
  // serves as a Reason; extendModel handles the entailed value.
  auto Sweep = [&](std::vector<ClauseRef> &Set) {
    size_t J = 0;
    for (ClauseRef CR : Set) {
      if (S.clauseFreed(CR))
        continue;
      const Lit *CL = S.clauseLits(CR);
      uint32_t Size = S.clauseSize(CR);
      bool Ghost = false;
      for (uint32_t I = 0; I < Size; ++I)
        if (S.ElimVars[CL[I].var()]) {
          Ghost = true;
          break;
        }
      if (Ghost && !S.isLocked(CR)) {
        S.removeClause(CR);
        continue;
      }
      Set[J++] = CR;
    }
    Set.resize(J);
  };
  Sweep(S.CoreLearnts);
  Sweep(S.MidLearnts);
  Sweep(S.LocalLearnts);
}

bool Simplifier::run() { return run(Limits()); }

bool Simplifier::run(const Limits &L) {
  Lim = L;
  if (!prepare())
    return S.Ok;
  uint64_t TotalElims = 0;
  for (int Round = 0; Round < Lim.MaxRounds; ++Round) {
    // Test-only fault hook (one relaxed load when disarmed): BadAlloc
    // escapes to the caller -- the serve cache-poison tests crash a base
    // session build mid-preprocess here -- Interrupt abandons the pass
    // (always safe: the clause database is consistent between rounds).
    if (faultinject::active() &&
        faultinject::onEvent(faultinject::Event::SimplifyStep))
      break;
    uint64_t Subs = subsumptionFixpoint();
    if (!S.Ok || aborted())
      break;
    uint64_t Elims = bveSweep();
    TotalElims += Elims;
    if (!S.Ok || aborted())
      break;
    if (Subs == 0 && Elims == 0)
      break; // quiescent
  }
  if (S.Ok) {
    if (TotalElims)
      sweepLearnts();
    S.refreshTierGauges();
    // Search, and any session cloned from this solver, starts on replayed
    // watch lists.
    S.flushAllWatches();
    S.checkGarbage();
  }
  return S.Ok;
}

bool Simplifier::eliminateOne(Var V, bool Forced) {
  Lim = Limits();
  if (!prepare())
    return false;
  if (!tryEliminate(V, Forced))
    return false;
  if (S.Ok) {
    sweepLearnts();
    S.refreshTierGauges();
    S.flushAllWatches();
    S.checkGarbage();
  }
  return S.ElimVars[V] != 0;
}
