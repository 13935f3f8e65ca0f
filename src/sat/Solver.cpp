//===- Solver.cpp - CDCL SAT solver ----------------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The algorithm follows Een & Sorensson's "An Extensible SAT-solver"
// (MiniSAT), with the assumption-core extraction of MiniSAT 1.14+ that the
// Fu-Malik MaxSAT layer depends on, and Glucose-style learned-clause
// management (Audemard & Simon, "Predicting Learnt Clauses Quality in
// Modern SAT Solvers", IJCAI'09): LBD-keyed three-tier retention and
// dual-EMA adaptive restarts with trail-size blocking. Clause storage is a
// flat arena in the style of MiniSAT's ClauseAllocator: headers, activity,
// LBD and literals are inline in one contiguous buffer, so the propagation
// inner loop never chases a per-clause heap pointer, and freed clauses are
// reclaimed by a relocating garbage collector once a fifth of the arena is
// waste.
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "cnf/Cnf.h"
#include "support/FaultInject.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

using namespace bugassist;

float Solver::clauseActivity(ClauseRef CR) const {
  float A;
  int32_t Bits = Arena[CR + 1].code();
  std::memcpy(&A, &Bits, sizeof(A));
  return A;
}

void Solver::setClauseActivity(ClauseRef CR, float A) {
  int32_t Bits;
  std::memcpy(&Bits, &A, sizeof(Bits));
  Arena[CR + 1] = Lit::fromCode(Bits);
}

Var Solver::newVar() {
  Var V = static_cast<Var>(Assigns.size());
  Assigns.push_back(LBool::Undef);
  VarLevel.push_back(0);
  Reason.push_back(InvalidClause);
  Activity.push_back(0.0);
  HeapIndex.push_back(-1);
  SavedPhase.push_back(false); // fresh variables start negative (MiniSAT)
  Released.push_back(false);
  FrozenVars.push_back(0);
  ElimVars.push_back(0);
  Seen.push_back(0);
  Watches.emplace_back(); // positive literal
  Watches.emplace_back(); // negative literal
  BinWatches.emplace_back();
  BinWatches.emplace_back();
  if (!WatchCommitted.empty())
    WatchCommitted.resize(WatchCommitted.size() + 4, NoPendingEdits);
  heapInsert(V);
  return V;
}

void Solver::ensureVars(int N) {
  while (numVars() < N)
    newVar();
}

bool Solver::addClause(ClauseView C) {
  returnToRoot();
  if (!Ok)
    return false;
  for (Lit L : C) {
    assert(L.isValid() && "invalid literal");
    ensureVars(L.var() + 1);
    if (ElimVars[L.var()])
      throw std::logic_error(
          "Solver::addClause: clause mentions an eliminated variable -- "
          "variables used in clauses added after the first solve() must be "
          "frozen (Solver::setFrozen) before preprocessing runs");
  }

  // Level-0 simplification in the reused buffer: drop false literals,
  // detect tautologies and duplicate literals.
  AddBuf.assign(C.begin(), C.end());
  std::sort(AddBuf.begin(), AddBuf.end());
  size_t Kept = 0;
  Lit Prev = NullLit;
  for (size_t I = 0; I < AddBuf.size(); ++I) {
    Lit L = AddBuf[I];
    if (value(L) == LBool::True || L == ~Prev)
      return true; // satisfied or tautological
    if (value(L) == LBool::False || L == Prev)
      continue; // falsified or duplicate literal
    AddBuf[Kept++] = L;
    Prev = L;
  }
  AddBuf.resize(Kept);

  if (AddBuf.empty()) {
    Ok = false;
    return false;
  }
  if (AddBuf.size() == 1) {
    uncheckedEnqueue(AddBuf[0], InvalidClause);
    Ok = (propagate() == InvalidClause);
    return Ok;
  }
  ClauseRef CR = allocClause(AddBuf, /*Learnt=*/false);
  ProblemClauses.push_back(CR);
  attachClause(CR);
  return true;
}

bool Solver::addFormula(const CnfFormula &F) {
  ensureVars(F.numVars());
  for (ClauseView C : F.hardClauses())
    if (!addClause(C))
      return false;
  return true;
}

bool Solver::releaseVar(Lit L) {
  returnToRoot();
  ensureVars(L.var() + 1);
  Released[L.var()] = true;
  // A released variable is root-fixed below, so later elimination of its
  // remaining clause occurrences is sound again: unfreeze (the frozen
  // contract covers variables the session will still *use*).
  FrozenVars[L.var()] = 0;
  if (HeapIndex[L.var()] != -1) {
    // Evict from the decision heap by raising to the top and popping.
    Activity[L.var()] = 1e300;
    heapDecrease(L.var());
    Var Top = heapPop();
    assert(Top == L.var() && "heap eviction failed");
    (void)Top;
    Activity[L.var()] = 0.0;
  }
  return addClause(ClauseView(&L, 1));
}

void Solver::setFrozen(Var V, bool Frozen) {
  ensureVars(V + 1);
  FrozenVars[V] = Frozen ? 1 : 0;
}

bool Solver::Budget::admitsVars(int NumVars) const {
  return MaxArenaBytes == 0 ||
         static_cast<uint64_t>(NumVars) * VarStateBytes <= MaxArenaBytes;
}

void Solver::setBudget(const Budget &B) {
  Bud = B;
  BudgetArmed = !B.unlimited();
  BudgetExhaustedFlag = false;
  BudgetStartPropagations = Stats.Propagations;
  BudgetPollCountdown = 0; // poll on the first search iteration
  ConflictCapAt =
      B.MaxConflicts != 0 ? Stats.Conflicts + B.MaxConflicts : UINT64_MAX;
}

void Solver::clearBudget() {
  Bud = Budget();
  BudgetArmed = false;
  BudgetExhaustedFlag = false;
  ConflictCapAt = UINT64_MAX;
}

bool Solver::pollBudget() {
  if (!BudgetArmed)
    return false;
  if (BudgetExhaustedFlag)
    return true;
  // The conflict cap is not polled here: search() checks it at every
  // conflict.
  if ((Bud.MaxPropagations != 0 &&
       Stats.Propagations - BudgetStartPropagations >= Bud.MaxPropagations) ||
      (Bud.MaxArenaBytes != 0 && budgetedBytes() > Bud.MaxArenaBytes) ||
      Bud.expired())
    BudgetExhaustedFlag = true;
  return BudgetExhaustedFlag;
}

Solver::ClauseRef Solver::allocClause(const std::vector<Lit> &Lits,
                                      bool Learnt) {
  if (faultinject::active() &&
      faultinject::onEvent(faultinject::Event::Allocation))
    Interrupted = true;
  // The arena cap degrades, never throws: the clause is still allocated
  // (one-clause overshoot) and the sticky flag makes the search loop hand
  // back Undef on its next iteration.
  if (BudgetArmed && Bud.MaxArenaBytes != 0 &&
      budgetedBytes() + (HeaderWords + Lits.size()) * sizeof(Lit) >
          Bud.MaxArenaBytes)
    BudgetExhaustedFlag = true;
  ClauseRef CR = static_cast<ClauseRef>(Arena.size());
  int32_t Header = static_cast<int32_t>(Lits.size() << 3);
  if (Learnt)
    Header |= LearntBit;
  Arena.push_back(Lit::fromCode(Header));
  Arena.push_back(Lit::fromCode(0)); // activity slot
  Arena.push_back(Lit::fromCode(0)); // lbd/flags slot
  Arena.insert(Arena.end(), Lits.begin(), Lits.end());
  setClauseActivity(CR, Learnt ? static_cast<float>(ClaInc) : 0.0f);
  return CR;
}

void Solver::attachClause(ClauseRef CR) {
  const Lit *CL = clauseLits(CR);
  assert(clauseSize(CR) >= 2 && "cannot watch unit clause");
  // Size-2 clauses live in the dedicated binary lists: the Blocker IS the
  // implied literal, so propagation needs no arena access at all.
  bool Binary = clauseSize(CR) == 2;
  for (int I = 0; I < 2; ++I) {
    uint32_t Id = watchId(~CL[I], Binary);
    flushWatchesIfFull(Id);
    watchList(Id).push_back({CR, CL[1 - I]});
  }
}

void Solver::detachClause(ClauseRef CR) {
  const Lit *CL = clauseLits(CR);
  bool Binary = clauseSize(CR) == 2;
  dropWatch(watchId(~CL[0], Binary), CR);
  dropWatch(watchId(~CL[1], Binary), CR);
}

void Solver::rewatchAsBinary(ClauseRef CR) {
  // A clause that root-level trimming shrank to two literals migrates from
  // the long-clause watches into the binary lists (invariant: size 2 <=>
  // watched in BinWatches). The watched literals themselves are untouched
  // by trimming, so the stale entries are exactly at (~CL[0]) and (~CL[1]).
  const Lit *CL = clauseLits(CR);
  dropWatch(watchId(~CL[0], /*Binary=*/false), CR);
  dropWatch(watchId(~CL[1], /*Binary=*/false), CR);
  attachClause(CR);
}

void Solver::dropWatch(uint32_t Id, ClauseRef CR) {
  flushWatchesIfFull(Id);
  std::vector<Watcher> &WL = watchList(Id);
  if (!hasPendingEdits(Id)) {
    if (WL.size() <= EagerDetachMax) {
      for (size_t J = 0; J < WL.size(); ++J) {
        if (WL[J].CRef == CR) {
          WL[J] = WL.back();
          WL.pop_back();
          break;
        }
      }
      return;
    }
    if (WatchCommitted.empty())
      WatchCommitted.assign(2 * Watches.size(), NoPendingEdits);
    WatchCommitted[Id] = static_cast<uint32_t>(WL.size());
  }
  WL.push_back({CR, NullLit});
  // Bounds a list at twice its committed size, and makes each replay cost
  // O(edits) amortized.
  uint32_t Committed = WatchCommitted[Id];
  if (WL.size() - Committed > Committed)
    flushWatches(Id);
}

void Solver::flushWatchesIfFull(uint32_t Id) {
  // A full buffer is replayed rather than grown once its edits are a
  // sixteenth of its committed watchers: a deferred list then keeps about
  // the capacity eager removal would have left, at amortized O(1) per edit.
  if (!hasPendingEdits(Id))
    return;
  const std::vector<Watcher> &WL = watchList(Id);
  uint32_t Committed = WatchCommitted[Id];
  if (WL.size() == WL.capacity() && WL.size() - Committed >= Committed / 16)
    flushWatches(Id);
}

void Solver::flushWatches(uint32_t Id) {
  // Replays the edits against the committed prefix exactly as eager
  // swap-with-back would have applied them one by one. Only the positions
  // of clauses that some edit drops are tracked; the bitmap keeps the scan
  // of the prefix at one bit test per watcher.
  std::vector<Watcher> &WL = watchList(Id);
  size_t Committed = WatchCommitted[Id];
  WatchCommitted[Id] = NoPendingEdits;

  // Every clause was allocated with at least two literals, so clause
  // starts lie MinClauseWords apart and CR / MinClauseWords is a unique bit.
  constexpr size_t MinClauseWords = HeaderWords + 2;
  size_t Bits = Arena.size() / MinClauseWords + 1;
  if (DropMarks.size() * 64 < Bits)
    DropMarks.resize((Bits + 63) / 64, 0);
  auto Bit = [](ClauseRef CR) {
    return static_cast<size_t>(CR) / MinClauseWords;
  };
  auto Marked = [&](ClauseRef CR) {
    return (DropMarks[Bit(CR) >> 6] >> (Bit(CR) & 63)) & 1;
  };
  auto Flip = [&](ClauseRef CR) {
    DropMarks[Bit(CR) >> 6] ^= uint64_t(1) << (Bit(CR) & 63);
  };
  // While the replay runs, a dropped clause's activity word holds the
  // index of its slot (the way garbage collection parks forwarding refs
  // there); the slot keeps the word and the clause's current position.
  for (size_t R = Committed; R < WL.size(); ++R) {
    ClauseRef CR = WL[R].CRef;
    if (WL[R].Blocker == NullLit && !Marked(CR)) {
      Flip(CR);
      ReplaySlots.push_back({CR, Arena[CR + 1], -1});
      Arena[CR + 1] =
          Lit::fromCode(static_cast<int32_t>(ReplaySlots.size() - 1));
    }
  }
  auto Pos = [&](ClauseRef CR) -> int32_t & {
    return ReplaySlots[static_cast<size_t>(Arena[CR + 1].code())].At;
  };

  for (size_t J = 0; J < Committed; ++J)
    if (Marked(WL[J].CRef))
      Pos(WL[J].CRef) = static_cast<int32_t>(J);
  // In place: the replayed list WL[0, N) never outgrows the edits read so
  // far (N <= R), so a push overwrites at most the edit it came from.
  size_t N = Committed;
  for (size_t R = Committed, End = WL.size(); R < End; ++R) {
    Watcher E = WL[R];
    if (E.Blocker != NullLit) {
      WL[N] = E;
      if (Marked(E.CRef))
        Pos(E.CRef) = static_cast<int32_t>(N);
      ++N;
      continue;
    }
    int32_t &At = Pos(E.CRef);
    if (At < 0)
      continue; // not watched here: the eager scan finds nothing either
    size_t J = static_cast<size_t>(At);
    At = -1;
    WL[J] = WL[--N];
    if (J < N && Marked(WL[J].CRef))
      Pos(WL[J].CRef) = static_cast<int32_t>(J);
  }
  WL.resize(N);

  for (const ReplaySlot &Slot : ReplaySlots) {
    Flip(Slot.CR);
    Arena[Slot.CR + 1] = Slot.Parked;
  }
  ReplaySlots.clear();
}

void Solver::flushAllWatches() {
  for (uint32_t Id = 0; Id < WatchCommitted.size(); ++Id)
    flushWatchesIfPending(Id);
  // A solver at rest -- a cached base session, each clone of it -- carries
  // no replay state; the next deferred removal allocates it again.
  WatchCommitted = std::vector<uint32_t>();
  DropMarks = std::vector<uint64_t>();
}

bool Solver::isLocked(ClauseRef CR) const {
  // Binary clauses skip propagate()'s normalizing swap, so the implied
  // literal may sit at either position.
  const Lit *CL = clauseLits(CR);
  if (value(CL[0]) == LBool::True && Reason[CL[0].var()] == CR)
    return true;
  return clauseSize(CR) == 2 && value(CL[1]) == LBool::True &&
         Reason[CL[1].var()] == CR;
}

void Solver::removeClause(ClauseRef CR) {
  detachClause(CR);
  freeClause(CR);
}

void Solver::freeClause(ClauseRef CR) {
  if (!clauseLearnt(CR))
    ProblemClauseFreed = true;
  Arena[CR] = Lit::fromCode(header(CR) | FreedBit);
  ArenaWasted += HeaderWords + clauseSize(CR);
  ++Stats.DeletedClauses;
}

void Solver::uncheckedEnqueue(Lit L, ClauseRef From) {
  assert(value(L) == LBool::Undef && "enqueueing assigned literal");
  Assigns[L.var()] = L.negated() ? LBool::False : LBool::True;
  VarLevel[L.var()] = decisionLevel();
  Reason[L.var()] = From;
  SavedPhase[L.var()] = !L.negated();
  Trail.push_back(L);
}

Solver::ClauseRef Solver::propagate() {
  ClauseRef Confl = InvalidClause;
  while (PropagationHead < static_cast<int>(Trail.size())) {
    Lit P = Trail[PropagationHead++];
    ++Stats.Propagations;
    // Both lists of P are read below, so their pending edits replay first.
    // The replacement watches pushed while scanning land on other lists,
    // where a push is itself an edit: appending it is all it takes.
    flushWatchesIfPending(watchId(P, /*Binary=*/true));
    flushWatchesIfPending(watchId(P, /*Binary=*/false));

    // Binary fast path: the Blocker is the whole remaining clause, so each
    // watcher resolves with one value() lookup -- no header load, no
    // literal scan, no watch-list surgery.
    auto &BWL = BinWatches[P.code()];
    for (const Watcher &BW : BWL) {
      LBool BV = value(BW.Blocker);
      if (BV == LBool::False) {
        Confl = BW.CRef;
        break;
      }
      if (BV == LBool::Undef)
        uncheckedEnqueue(BW.Blocker, BW.CRef);
    }
    if (Confl != InvalidClause) {
      PropagationHead = static_cast<int>(Trail.size());
      break;
    }

    auto &WL = Watches[P.code()];
    size_t I = 0, J = 0;
    while (I < WL.size()) {
      Watcher W = WL[I];
      // Blocker literal already true: clause satisfied, keep the watch.
      if (value(W.Blocker) == LBool::True) {
        WL[J++] = WL[I++];
        continue;
      }
      Lit *CL = clauseLits(W.CRef);
      uint32_t Size = clauseSize(W.CRef);
      // Normalize so the false literal (~P) sits at index 1.
      Lit NotP = ~P;
      if (CL[0] == NotP)
        std::swap(CL[0], CL[1]);
      assert(CL[1] == NotP && "watch invariant broken");
      ++I;

      Lit First = CL[0];
      if (First != W.Blocker && value(First) == LBool::True) {
        WL[J++] = {W.CRef, First};
        continue;
      }

      // Look for a replacement watch.
      bool FoundWatch = false;
      for (uint32_t K = 2; K < Size; ++K) {
        if (value(CL[K]) != LBool::False) {
          std::swap(CL[1], CL[K]);
          Watches[(~CL[1]).code()].push_back({W.CRef, First});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;

      // Clause is unit or conflicting.
      WL[J++] = {W.CRef, First};
      if (value(First) == LBool::False) {
        Confl = W.CRef;
        PropagationHead = static_cast<int>(Trail.size());
        while (I < WL.size())
          WL[J++] = WL[I++];
        break;
      }
      uncheckedEnqueue(First, W.CRef);
    }
    WL.resize(J);
    if (Confl != InvalidClause)
      break;
  }
  return Confl;
}

uint32_t Solver::computeLbd(const Lit *Lits, uint32_t Size) {
  ++LbdStamp;
  uint32_t Distinct = 0;
  for (uint32_t I = 0; I < Size; ++I) {
    int L = level(Lits[I].var());
    if (L <= 0)
      continue;
    if (static_cast<size_t>(L) >= LbdStampOfLevel.size())
      LbdStampOfLevel.resize(static_cast<size_t>(L) + 1, 0);
    if (LbdStampOfLevel[L] != LbdStamp) {
      LbdStampOfLevel[L] = LbdStamp;
      ++Distinct;
    }
  }
  return Distinct ? Distinct : 1;
}

void Solver::analyze(ClauseRef Confl, std::vector<Lit> &OutLearnt,
                     int &OutBtLevel, uint32_t &OutLbd) {
  OutLearnt.clear();
  OutLearnt.push_back(NullLit); // slot for the asserting literal
  int PathCount = 0;
  Lit P = NullLit;
  int Index = static_cast<int>(Trail.size()) - 1;

  do {
    assert(Confl != InvalidClause && "no reason for implied literal");
    if (P != NullLit)
      normalizeBinaryReason(Confl, P);
    if (clauseLearnt(Confl)) {
      claBumpActivity(Confl);
      // Glucose: a learnt clause participating in conflict analysis gets
      // its LBD recomputed against the current levels; it can only
      // tighten, and a tightened clause is "interesting again" -- mark it
      // touched so the tier policy protects it at the next reduction.
      uint32_t Old = clauseLbd(Confl);
      if (Old > 2) {
        uint32_t New = computeLbd(clauseLits(Confl), clauseSize(Confl));
        if (New < Old) {
          setClauseLbd(Confl, New);
          ++Stats.LbdTightened;
        }
      }
      setClauseTouched(Confl, true);
    }
    const Lit *CL = clauseLits(Confl);
    uint32_t Size = clauseSize(Confl);
    for (uint32_t J = (P == NullLit ? 0 : 1); J < Size; ++J) {
      Lit Q = CL[J];
      if (Seen[Q.var()] || level(Q.var()) == 0)
        continue;
      Seen[Q.var()] = 1;
      varBumpActivity(Q.var());
      if (level(Q.var()) >= decisionLevel())
        ++PathCount;
      else
        OutLearnt.push_back(Q);
    }
    // Find the next literal on the trail to expand.
    while (!Seen[Trail[Index].var()])
      --Index;
    P = Trail[Index];
    --Index;
    Confl = Reason[P.var()];
    Seen[P.var()] = 0;
    --PathCount;
  } while (PathCount > 0);
  OutLearnt[0] = ~P;

  // Local clause minimization: a literal is redundant if the other literals
  // of its reason clause are all already in the learnt clause (marked seen).
  std::vector<Lit> Cleanup(OutLearnt.begin(), OutLearnt.end());
  for (Lit L : OutLearnt)
    Seen[L.var()] = 1;
  size_t Keep = 1;
  for (size_t I = 1; I < OutLearnt.size(); ++I) {
    Lit L = OutLearnt[I];
    ClauseRef R = Reason[L.var()];
    bool Redundant = false;
    if (R != InvalidClause) {
      normalizeBinaryReason(R, ~L); // ~L is the literal R implied
      Redundant = true;
      const Lit *RC = clauseLits(R);
      uint32_t RSize = clauseSize(R);
      for (uint32_t J = 1; J < RSize; ++J) {
        Lit Q = RC[J];
        if (!Seen[Q.var()] && level(Q.var()) > 0) {
          Redundant = false;
          break;
        }
      }
    }
    if (!Redundant)
      OutLearnt[Keep++] = L;
  }
  OutLearnt.resize(Keep);
  for (Lit L : Cleanup)
    Seen[L.var()] = 0;

  // The LBD of the minimized clause, measured before backjumping while the
  // trail levels are still those of the conflict.
  OutLbd = computeLbd(OutLearnt.data(), static_cast<uint32_t>(OutLearnt.size()));

  // Compute the backtrack level: second-highest decision level in clause.
  if (OutLearnt.size() == 1) {
    OutBtLevel = 0;
  } else {
    size_t MaxIdx = 1;
    for (size_t I = 2; I < OutLearnt.size(); ++I)
      if (level(OutLearnt[I].var()) > level(OutLearnt[MaxIdx].var()))
        MaxIdx = I;
    std::swap(OutLearnt[1], OutLearnt[MaxIdx]);
    OutBtLevel = level(OutLearnt[1].var());
  }
}

void Solver::analyzeFinal(Lit P) {
  // Called when assumption P is found forced false: collect the subset of
  // assumptions that (with the clauses) imply ~P. The resulting core holds
  // the assumption literals themselves (including P), so re-solving with
  // exactly the core as assumptions is again UNSAT.
  ConflictCore.clear();
  ConflictCore.push_back(P);
  if (decisionLevel() == 0)
    return;

  Seen[P.var()] = 1;
  for (int I = static_cast<int>(Trail.size()) - 1; I >= TrailLim[0]; --I) {
    Var V = Trail[I].var();
    if (!Seen[V])
      continue;
    if (Reason[V] == InvalidClause) {
      // Decision variable at this point == an assumption, decided true.
      assert(level(V) > 0 && "level-0 decision in final analysis");
      ConflictCore.push_back(Trail[I]);
    } else {
      normalizeBinaryReason(Reason[V], Trail[I]);
      const Lit *CL = clauseLits(Reason[V]);
      uint32_t Size = clauseSize(Reason[V]);
      for (uint32_t J = 1; J < Size; ++J)
        if (level(CL[J].var()) > 0)
          Seen[CL[J].var()] = 1;
    }
    Seen[V] = 0;
  }
  Seen[P.var()] = 0;
}

void Solver::cancelUntil(int Level) {
  if (decisionLevel() <= Level)
    return;
  for (int I = static_cast<int>(Trail.size()) - 1; I >= TrailLim[Level]; --I) {
    Var V = Trail[I].var();
    Assigns[V] = LBool::Undef;
    Reason[V] = InvalidClause;
    insertVarOrder(V);
  }
  PropagationHead = TrailLim[Level];
  Trail.resize(TrailLim[Level]);
  TrailLim.resize(Level);
  while (!PreferScan.empty() && PreferScan.back().MaxLevel > Level)
    PreferScan.pop_back();
}

Lit Solver::pickPreferredLit() {
  while (PreferScan.size() < Preferences.size()) {
    size_t I = PreferScan.size();
    PreferScanned Before = I ? PreferScan.back() : PreferScanned{0, 0};
    const Preference &P = Preferences[I];
    LBool B = value(P.L);
    if (B == LBool::Undef) {
      // Tail rule: decide P.L false when the rest cannot cover what is owed.
      uint64_t Left =
          PreferOwed > Before.Falsified ? PreferOwed - Before.Falsified : 0;
      return PreferAfter[I] < Left ? ~P.L : P.L;
    }
    PreferScan.push_back(
        {std::max(Before.MaxLevel, level(P.L.var())),
         Before.Falsified + (B == LBool::False ? P.Weight : 0)});
  }
  return NullLit;
}

Lit Solver::pickBranchLit() {
  Var Next = NullVar;
  // Occasional random decisions (about 2%) diversify restarts.
  if ((nextRand() & 1023) < RandBranchThreshold && !heapEmpty()) {
    Var Cand = Heap[nextRand() % Heap.size()];
    if (value(Cand) == LBool::Undef)
      Next = Cand;
  }
  while (Next == NullVar || value(Next) != LBool::Undef) {
    if (heapEmpty())
      return NullLit;
    Next = heapPop();
    if (value(Next) != LBool::Undef)
      Next = NullVar;
  }
  return mkLit(Next, /*Negated=*/!SavedPhase[Next]);
}

void Solver::pushLearnt(ClauseRef CR, uint32_t Lbd) {
  setClauseLbd(CR, Lbd);
  if (Lbd <= CoreLbdCut || clauseSize(CR) <= 2) {
    CoreLearnts.push_back(CR);
    ++Stats.CoreLearnts;
  } else if (Lbd <= MidLbdCut) {
    MidLearnts.push_back(CR);
    ++Stats.MidLearnts;
  } else {
    LocalLearnts.push_back(CR);
    ++Stats.LocalLearnts;
  }
}

size_t Solver::reducibleLearnts() const {
  // Core clauses are permanent and never count against the reduction
  // trigger.
  return MidLearnts.size() + LocalLearnts.size();
}

void Solver::onConflictLearnt(uint32_t Lbd) {
  Stats.LbdSum += Lbd;
  ++Stats.LbdCount;
  FastLbdEma += FastLbdAlpha * (static_cast<double>(Lbd) - FastLbdEma);
  FastLbdBias += FastLbdAlpha * (1.0 - FastLbdBias);
  double TrailSize = static_cast<double>(Trail.size());
  // Glucose blocking: an unusually deep trail at conflict time means the
  // solver is probably closing in on a model; cancel a pending restart
  // instead of throwing the assignment away. Decisive for SAT-heavy
  // searches. The bias-corrected trail EMA (and at least one prior sample)
  // keeps the comparison meaningful while the EMA warms up.
  if (ConflictsThisSolve >= Opts.BlockMinConflicts && TrailBias > 0 &&
      TrailSize > Opts.BlockMargin * (TrailEma / TrailBias) &&
      restartPending()) {
    ++Stats.RestartsBlocked;
    ConflictsSinceRestart = 0; // re-enter the warmup window
    // Drop the pending high-LBD signal: corrected fast EMA == lifetime avg.
    FastLbdEma = Stats.avgLearntLbd() * FastLbdBias;
  }
  TrailEma += TrailAlpha * (TrailSize - TrailEma);
  TrailBias += TrailAlpha * (1.0 - TrailBias);
}

bool Solver::restartPending() const {
  if (Stats.LbdCount == 0 || FastLbdBias <= 0)
    return false;
  return FastLbdEma / FastLbdBias > Opts.RestartMargin * Stats.avgLearntLbd();
}

bool Solver::shouldRestart() const {
  // At least one conflict must separate restarts, or a standing EMA signal
  // would spin the search loop without ever deciding.
  uint64_t Warmup = Opts.RestartMinConflicts ? Opts.RestartMinConflicts : 1;
  return ConflictsSinceRestart >= Warmup && restartPending();
}

LBool Solver::search() {
  std::vector<Lit> Learnt;
  int BtLevel = 0;
  uint32_t Lbd = 0;

  for (;;) {
    if (Interrupted)
      return LBool::Undef; // a fault hook stopped the search
    if (BudgetArmed && (BudgetExhaustedFlag || --BudgetPollCountdown <= 0)) {
      BudgetPollCountdown = BudgetPollPeriod;
      if (pollBudget())
        return LBool::Undef; // budget exhausted: degrade to Unknown
    }
    ClauseRef Confl = propagate();
    if (Confl != InvalidClause) {
      // Conflict.
      ++Stats.Conflicts;
      ++ConflictsThisSolve;
      ++ConflictsSinceRestart;
      if (decisionLevel() == 0) {
        Ok = false;
        return LBool::False;
      }
      analyze(Confl, Learnt, BtLevel, Lbd);
      onConflictLearnt(Lbd); // EMAs see the trail depth of the conflict
      cancelUntil(BtLevel);
      if (Learnt.size() == 1) {
        uncheckedEnqueue(Learnt[0], InvalidClause);
      } else {
        ClauseRef CR = allocClause(Learnt, /*Learnt=*/true);
        pushLearnt(CR, Lbd);
        attachClause(CR);
        claBumpActivity(CR);
        uncheckedEnqueue(Learnt[0], CR);
        ++Stats.LearnedClauses;
      }
      varDecayActivity();
      claDecayActivity();
      if (Stats.Conflicts >= ConflictCapAt) {
        BudgetExhaustedFlag = true; // the query's conflict cap, exactly
        return LBool::Undef;
      }
      if (ConflictBudget != 0 && ConflictsThisSolve >= ConflictBudget)
        return LBool::Undef; // this call's conflict budget, exactly
      continue;
    }

    // No conflict.
    if (shouldRestart()) {
      cancelUntil(0);
      return LBool::Undef; // restart
    }
    if (static_cast<double>(reducibleLearnts()) >= MaxLearnts)
      reduceDB();

    // Assumption decisions come first.
    Lit Next = NullLit;
    while (decisionLevel() < static_cast<int>(CurAssumptions.size())) {
      Lit A = CurAssumptions[decisionLevel()];
      if (value(A) == LBool::True) {
        newDecisionLevel(); // dummy level keeps the indexing aligned
      } else if (value(A) == LBool::False) {
        analyzeFinal(A);
        return LBool::False;
      } else {
        Next = A;
        break;
      }
    }
    if (Next == NullLit) {
      ++Stats.Decisions;
      Next = pickPreferredLit();
      if (Next == NullLit)
        Next = pickBranchLit();
      if (Next == NullLit)
        return LBool::True; // all variables assigned: model found
    }
    newDecisionLevel();
    uncheckedEnqueue(Next, InvalidClause);
  }
}

LBool Solver::solve(const std::vector<Lit> &Assumptions,
                    const std::vector<Preference> &Prefer, uint64_t Owed) {
  ConflictCore.clear();
  if (!Ok) {
    return LBool::False;
  }
  auto RequireLive = [this](Lit L) {
    ensureVars(L.var() + 1);
    if (ElimVars[L.var()])
      throw std::logic_error(
          "Solver::solve: assumption or preference over an eliminated "
          "variable -- such variables must be frozen (Solver::setFrozen) "
          "before preprocessing runs");
  };
  for (Lit L : Assumptions)
    RequireLive(L);
  for (const Preference &P : Prefer)
    RequireLive(P.L);
  ConflictsThisSolve = 0;
  MaxLearnts = std::max<double>(
      Opts.MaxLearntsBase, static_cast<double>(ProblemClauses.size()) / 3.0);

  // The root scan runs when it is stale (simplifyLevel0's own gate) and
  // due: the propagations since the last scan cover the literals it kept.
  // Otherwise the levels the last call kept are reused up to the first
  // assumption that differs.
  bool Scan = (rootTrailSize() != SimpDbAssigns || ProblemClauseFreed) &&
              (SimpDbAssigns < 0 || Stats.Propagations >= SimpDbProps);
  cancelUntil(Scan ? 0 : reusableLevels(Assumptions));
  CurAssumptions = Assumptions;
  if (Scan)
    simplifyLevel0();
  else
    refreshTierGauges();
  if (Ok && Opts.Preprocess && !PreprocessedOnce)
    preprocess(); // load-time pass; restart boundaries re-run it below
  if (!Ok) {
    CurAssumptions.clear();
    return LBool::False;
  }
  Stats.ReusedLevels += static_cast<uint64_t>(decisionLevel());
  checkGarbage();
  Preferences = Prefer;
  PreferOwed = Owed;
  PreferAfter.assign(Prefer.size(), 0);
  for (size_t I = Prefer.size(); I-- > 1;)
    PreferAfter[I - 1] = PreferAfter[I] + Prefer[I].Weight;

  LBool Result = LBool::Undef;
  while (Result == LBool::Undef) {
    ConflictsSinceRestart = 0;
    Result = search();
    if (Result == LBool::Undef) {
      if (Interrupted)
        break; // interrupted: hand back Undef without counting a restart
      if (BudgetExhaustedFlag)
        break; // budget exhausted (or cancelled): same contract
      if (faultinject::active() &&
          faultinject::onEvent(faultinject::Event::Restart))
        Interrupted = true;
      ++Stats.Restarts;
      if (ConflictBudget != 0 && ConflictsThisSolve >= ConflictBudget)
        break;
      if (Ok && Opts.Preprocess &&
          Stats.Conflicts - LastInprocConflicts >= InprocessIntervalConflicts)
        preprocess(); // inprocessing under the same budget accounting
      if (!Ok) {
        Result = LBool::False;
        break;
      }
    }
  }

  if (Result == LBool::True) {
    // Eliminated variables never appear on the trail; modelValue() restores
    // them from the first ElimStack.size() words of the stack on demand.
    Model.assign(Assigns.begin(), Assigns.end());
    ExtendPending = ElimStack.size();
    cancelUntil(static_cast<int>(CurAssumptions.size()));
  } else if (Result == LBool::Undef) {
    cancelUntil(0);
  }
  // After False the search stopped at the failing assumption's level (or
  // at the root), so the levels left are exactly those before it.
  KeptAssumptions.swap(CurAssumptions);
  CurAssumptions.clear();
  Preferences.clear();
  PreferAfter.clear();
  PreferScan.clear();
  PreferOwed = 0;
  return Result;
}

int Solver::reusableLevels(const std::vector<Lit> &Assumptions) const {
  size_t N = std::min(static_cast<size_t>(decisionLevel()), Assumptions.size());
  size_t K = 0;
  while (K < N && KeptAssumptions[K] == Assumptions[K])
    ++K;
  return static_cast<int>(K);
}

void Solver::simplifyLevel0() {
  assert(decisionLevel() == 0 && "simplify only at root");
  if (propagate() != InvalidClause) {
    Ok = false;
    return;
  }
  // MiniSAT's simpDB_assigns gate. Clauses added since the last full scan
  // hold no root-assigned literal: addClause, resolvents and imports are
  // simplified against the root on entry, and learnts never contain a
  // level-0 literal. So without a new root assignment or a freed problem
  // clause the scan below would change nothing.
  if (static_cast<int64_t>(Trail.size()) == SimpDbAssigns &&
      !ProblemClauseFreed) {
    refreshTierGauges();
    return;
  }
  uint64_t KeptLits = 0;
  auto SimplifySet = [&](std::vector<ClauseRef> &Set) {
    size_t J = 0;
    for (ClauseRef CR : Set) {
      if (clauseFreed(CR))
        continue;
      Lit *CL = clauseLits(CR);
      uint32_t Size = clauseSize(CR);
      bool Satisfied = false;
      for (uint32_t K = 0; K < Size; ++K) {
        if (value(CL[K]) == LBool::True && level(CL[K].var()) == 0) {
          Satisfied = true;
          break;
        }
      }
      if (Satisfied) {
        if (!isLocked(CR)) {
          removeClause(CR);
          continue;
        }
      } else {
        // Trim root-level false literals beyond the two watched positions;
        // after level-0 propagation the watches themselves are never false.
        uint32_t NewSize = Size;
        for (uint32_t K = 2; K < NewSize;) {
          if (value(CL[K]) == LBool::False) {
            CL[K] = CL[--NewSize];
            ++ArenaWasted;
          } else {
            ++K;
          }
        }
        if (NewSize != Size) {
          setClauseSize(CR, NewSize);
          if (NewSize == 2)
            rewatchAsBinary(CR); // keep the size-2 <=> BinWatches invariant
        }
      }
      KeptLits += clauseSize(CR);
      Set[J++] = CR;
    }
    Set.resize(J);
  };
  SimplifySet(ProblemClauses);
  SimplifySet(CoreLearnts);
  SimplifySet(MidLearnts);
  SimplifySet(LocalLearnts);
  refreshTierGauges();
  SimpDbAssigns = static_cast<int64_t>(Trail.size());
  SimpDbProps = Stats.Propagations + KeptLits;
  ProblemClauseFreed = false;
  ++Stats.RootScans;
}

void Solver::reduceLearntDb() {
  returnToRoot();
  reduceDB();
}

void Solver::reduceDB() {
  // Redistribute mid/local by their current (possibly tightened) LBD; the
  // core tier is permanent and never rescanned.
  std::vector<ClauseRef> Mid, Local;
  auto Classify = [&](ClauseRef CR, bool FromMid) {
    if (clauseFreed(CR))
      return;
    uint32_t Lbd = clauseLbd(CR);
    if (Lbd <= CoreLbdCut || clauseSize(CR) <= 2) {
      CoreLearnts.push_back(CR); // promoted for good
      return;
    }
    if (Lbd <= MidLbdCut) {
      if (clauseTouched(CR)) {
        // Used in a conflict since the last reduction: stays mid, young.
        setClauseTouched(CR, false);
        setClauseAge(CR, 0);
        Mid.push_back(CR);
        return;
      }
      if (FromMid) {
        uint32_t Age = clauseAge(CR) + 1;
        if (Age < MidMaxAge) {
          setClauseAge(CR, Age);
          Mid.push_back(CR);
          return;
        }
        // Unused for MidMaxAge reductions: falls into the local rotation.
      }
      // A clause that already aged out of mid only climbs back when a
      // conflict touches it again.
    }
    Local.push_back(CR);
  };
  for (ClauseRef CR : MidLearnts)
    Classify(CR, /*FromMid=*/true);
  for (ClauseRef CR : LocalLearnts)
    Classify(CR, /*FromMid=*/false);

  // Aggressive local rotation: the worst half by LBD-then-activity goes.
  // Locked clauses and clauses touched since the last reduction survive.
  std::sort(Local.begin(), Local.end(), [&](ClauseRef A, ClauseRef B) {
    if (clauseLbd(A) != clauseLbd(B))
      return clauseLbd(A) > clauseLbd(B);
    return clauseActivity(A) < clauseActivity(B);
  });
  size_t Target = Local.size() / 2;
  size_t Deleted = 0, J = 0;
  for (ClauseRef CR : Local) {
    if (Deleted < Target && !isLocked(CR) && !clauseTouched(CR)) {
      removeClause(CR);
      ++Deleted;
    } else {
      setClauseTouched(CR, false);
      Local[J++] = CR;
    }
  }
  Local.resize(J);

  MidLearnts = std::move(Mid);
  LocalLearnts = std::move(Local);
  MaxLearnts = MaxLearnts * 1.1 + 100;
  refreshTierGauges();
  checkGarbage();
}

void Solver::refreshTierGauges() {
  auto Live = [&](const std::vector<ClauseRef> &Set) {
    uint64_t N = 0;
    for (ClauseRef CR : Set)
      if (!clauseFreed(CR))
        ++N;
    return N;
  };
  Stats.CoreLearnts = Live(CoreLearnts);
  Stats.MidLearnts = Live(MidLearnts);
  Stats.LocalLearnts = Live(LocalLearnts);
}

std::vector<uint32_t> Solver::learntLbds() const {
  std::vector<uint32_t> Lbds;
  for (const auto *Set : {&CoreLearnts, &MidLearnts, &LocalLearnts})
    for (ClauseRef CR : *Set)
      if (!clauseFreed(CR))
        Lbds.push_back(clauseLbd(CR));
  return Lbds;
}

// --- arena garbage collection ----------------------------------------------

void Solver::checkGarbage() {
  if (ArenaWasted * 5 >= Arena.size() && ArenaWasted > 0)
    garbageCollect();
}

void Solver::forceGarbageCollect() {
  returnToRoot();
  garbageCollect();
}

void Solver::garbageCollect() {
  flushAllWatches(); // drop records name clauses about to be reclaimed
  std::vector<Lit> To;
  To.reserve(Arena.size() - ArenaWasted);

  auto Reloc = [&](ClauseRef &CR) {
    if (header(CR) & RelocedBit) {
      CR = Arena[CR + 1].code();
      return;
    }
    ClauseRef NR = static_cast<ClauseRef>(To.size());
    uint32_t Size = clauseSize(CR);
    for (int H = 0; H < HeaderWords; ++H)
      To.push_back(Arena[CR + H]); // header, activity, lbd/flags
    for (uint32_t K = 0; K < Size; ++K)
      To.push_back(Arena[CR + HeaderWords + K]);
    Arena[CR] = Lit::fromCode(header(CR) | RelocedBit);
    Arena[CR + 1] = Lit::fromCode(NR);
    CR = NR;
  };

  for (auto &WL : Watches)
    for (Watcher &W : WL)
      Reloc(W.CRef);
  for (auto &WL : BinWatches)
    for (Watcher &W : WL)
      Reloc(W.CRef);
  for (Lit L : Trail)
    if (Reason[L.var()] != InvalidClause)
      Reloc(Reason[L.var()]);
  auto RelocSet = [&](std::vector<ClauseRef> &Set) {
    size_t J = 0;
    for (ClauseRef CR : Set) {
      if (clauseFreed(CR) && !(header(CR) & RelocedBit))
        continue; // dead clause: dropped by collection
      Reloc(CR);
      Set[J++] = CR;
    }
    Set.resize(J);
  };
  RelocSet(ProblemClauses);
  RelocSet(CoreLearnts);
  RelocSet(MidLearnts);
  RelocSet(LocalLearnts);

  Arena = std::move(To);
  ArenaWasted = 0;
  ++Stats.GcRuns;
}

// --- VSIDS activity heap ----------------------------------------------------

void Solver::boostActivity(Var V, double Amount) {
  Activity[V] += Amount * VarInc;
  if (HeapIndex[V] != -1)
    heapDecrease(V);
}

void Solver::varBumpActivity(Var V) {
  Activity[V] += VarInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapIndex[V] != -1)
    heapDecrease(V);
}

void Solver::claBumpActivity(ClauseRef CR) {
  float A = clauseActivity(CR) + static_cast<float>(ClaInc);
  setClauseActivity(CR, A);
  if (A > 1e20f) {
    for (auto *Set : {&CoreLearnts, &MidLearnts, &LocalLearnts})
      for (ClauseRef LR : *Set)
        if (!clauseFreed(LR))
          setClauseActivity(LR, clauseActivity(LR) * 1e-20f);
    ClaInc *= 1e-20;
  }
}

void Solver::insertVarOrder(Var V) {
  if (HeapIndex[V] == -1 && !Released[V] && !ElimVars[V])
    heapInsert(V);
}

void Solver::heapInsert(Var V) {
  assert(HeapIndex[V] == -1 && "var already in heap");
  HeapIndex[V] = static_cast<int>(Heap.size());
  Heap.push_back(V);
  heapPercolateUp(HeapIndex[V]);
}

void Solver::heapDecrease(Var V) { heapPercolateUp(HeapIndex[V]); }

Var Solver::heapPop() {
  Var Top = Heap[0];
  HeapIndex[Top] = -1;
  Heap[0] = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    HeapIndex[Heap[0]] = 0;
    heapPercolateDown(0);
  }
  return Top;
}

void Solver::heapPercolateUp(int I) {
  Var V = Heap[I];
  while (I > 0) {
    int Parent = (I - 1) / 2;
    if (Activity[Heap[Parent]] >= Activity[V])
      break;
    Heap[I] = Heap[Parent];
    HeapIndex[Heap[I]] = I;
    I = Parent;
  }
  Heap[I] = V;
  HeapIndex[V] = I;
}

void Solver::heapPercolateDown(int I) {
  Var V = Heap[I];
  int N = static_cast<int>(Heap.size());
  for (;;) {
    int Child = 2 * I + 1;
    if (Child >= N)
      break;
    if (Child + 1 < N && Activity[Heap[Child + 1]] > Activity[Heap[Child]])
      ++Child;
    if (Activity[Heap[Child]] <= Activity[V])
      break;
    Heap[I] = Heap[Child];
    HeapIndex[Heap[I]] = I;
    I = Child;
  }
  Heap[I] = V;
  HeapIndex[V] = I;
}
