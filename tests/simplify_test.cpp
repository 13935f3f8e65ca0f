//===- simplify_test.cpp - inprocessing unit & differential tests ------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Covers the SatELite-style simplifier (sat/Simplifier.h): hand-checked
// bounded variable elimination and backward subsumption, model
// reconstruction round-trips (every model of the reduced formula extends
// to a model of the original), lazy reconstruction (the same model for
// every reader of one answer), the frozen-variable contract (eliminating
// a frozen variable is a hard error, talking about an eliminated variable
// is a hard error, releaseVar unfreezes), a brute-force differential on
// random instances, and CLI differentials: every checked-in instance
// answers identically with and without --no-preprocess, and the TCAS
// localization report is byte-identical with and without preprocessing.
//
//===----------------------------------------------------------------------===//

#include "sat/Simplifier.h"
#include "sat/Solver.h"

#include "cnf/Cnf.h"
#include "cnf/DimacsReader.h"
#include "maxsat/Answer.h"
#include "maxsat/MaxSat.h"
#include "support/Rng.h"

#include "BruteForce.h"
#include "CliTestUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

using namespace bugassist;
using namespace bugassist::clitest;

// --- hand-checked transformations --------------------------------------------

// x has one positive occurrence (a \/ x) and one negative (~x \/ b): the
// single resolvent is (a \/ b), the clause count does not grow, and x is
// gone. Any model of the residue must extend to one of the original.
TEST(Simplify, HandCheckedEliminationProducesTheResolvent) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(X)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), mkLit(B)}));

  ASSERT_TRUE(S.eliminateVar(X));
  EXPECT_TRUE(S.isEliminated(X));
  EXPECT_EQ(S.stats().VarsEliminated, 1u);
  EXPECT_GT(S.stats().ReconstructBytes, 0u);

  // Push the residue off the trivial model: force ~a, so (a \/ b) demands
  // b, and the reconstruction must pick x = true to satisfy (a \/ x).
  ASSERT_TRUE(S.addClause({~mkLit(A)}));
  ASSERT_EQ(S.solve(), LBool::True);
  EXPECT_EQ(S.modelValue(B), LBool::True);
  EXPECT_TRUE(modelSatisfies(
      S, {{mkLit(A), mkLit(X)}, {~mkLit(X), mkLit(B)}, {~mkLit(A)}}))
      << "extendModel must restore the eliminated variable";
  EXPECT_EQ(S.modelValue(X), LBool::True);
}

// A pure-side variable (only positive occurrences) eliminates with zero
// resolvents; reconstruction alone must satisfy its clauses.
TEST(Simplify, PureLiteralEliminatesWithNoResolvents) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(X), mkLit(A)}));
  ASSERT_TRUE(S.addClause({mkLit(X), mkLit(B)}));
  ASSERT_TRUE(S.eliminateVar(X));
  ASSERT_TRUE(S.isEliminated(X));
  ASSERT_TRUE(S.addClause({~mkLit(A)}));
  ASSERT_TRUE(S.addClause({~mkLit(B)}));
  ASSERT_EQ(S.solve(), LBool::True);
  EXPECT_EQ(S.modelValue(X), LBool::True)
      << "only x = true satisfies the stored clauses under ~a, ~b";
}

TEST(Simplify, BackwardSubsumptionRemovesTheSuperset) {
  Solver::Options O;
  O.PreprocessMinClauses = 0; // tiny hand-built formula
  Solver S{O};
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(B)}));
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(B), mkLit(C)})); // subsumed
  ASSERT_TRUE(S.preprocess());
  EXPECT_GE(S.stats().ClausesSubsumed, 1u);
  EXPECT_EQ(S.solve(), LBool::True);
}

TEST(Simplify, SelfSubsumingResolutionStrengthens) {
  Solver::Options O;
  O.PreprocessMinClauses = 0; // tiny hand-built formula
  Solver S{O};
  Var A = S.newVar(), B = S.newVar(), C = S.newVar(), D = S.newVar();
  // (a \/ b) resolved with (~a \/ b \/ c \/ d) on a strengthens the long
  // clause to (b \/ c \/ d). The extra literal d keeps the pair from
  // colliding with the variable-elimination sweep's clause-count bound in
  // an order-dependent way; the strengthening itself is what we assert.
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(B)}));
  ASSERT_TRUE(S.addClause({~mkLit(A), mkLit(B), mkLit(C), mkLit(D)}));
  ASSERT_TRUE(S.preprocess());
  EXPECT_GE(S.stats().LitsSelfSubsumed, 1u);
  EXPECT_EQ(S.solve(), LBool::True);
}

// --- model reconstruction ----------------------------------------------------

// Chains y0 -> y1 -> ... -> yN with the interior unconstrained from
// outside: preprocessing eliminates interior variables, and the extended
// model must still satisfy every original clause.
TEST(Simplify, ReconstructionRoundTripsOnAChain) {
  const int N = 50;
  Solver S;
  S.ensureVars(N + 1);
  std::vector<Clause> Original;
  Original.push_back({mkLit(0)});
  for (Var V = 0; V < N; ++V)
    Original.push_back({~mkLit(V), mkLit(V + 1)});
  for (const Clause &C : Original)
    ASSERT_TRUE(S.addClause(C));
  ASSERT_TRUE(S.preprocess());
  ASSERT_EQ(S.solve(), LBool::True);
  EXPECT_TRUE(modelSatisfies(S, Original));
}

TEST(Simplify, RandomDifferentialAgainstBruteForce) {
  // 80 random instances around the phase transition; preprocessing-on
  // answers must match brute force, and SAT models (after extendModel)
  // must satisfy the ORIGINAL clauses.
  for (uint64_t Seed = 1; Seed <= 80; ++Seed) {
    Rng R(Seed);
    int NumVars = 8 + static_cast<int>(R.below(6));
    auto Cs = randomInstance(R, NumVars, NumVars * 4, 3);
    Solver S;
    S.ensureVars(NumVars);
    bool Ok = true;
    for (const Clause &C : Cs)
      Ok = Ok && S.addClause(C);
    LBool Res = Ok ? S.solve() : LBool::False;
    bool Expected = bruteForceSat(NumVars, Cs);
    ASSERT_EQ(Res == LBool::True, Expected) << "seed " << Seed;
    if (Res == LBool::True) {
      ASSERT_TRUE(modelSatisfies(S, Cs)) << "seed " << Seed;
    }
  }
}

// Solver copies (the serve clone path) must carry the
// reconstruction stack: a clone of a preprocessed solver extends models
// exactly like the original.
TEST(Simplify, CloneInheritsReconstructionStack) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(X)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), mkLit(B)}));
  ASSERT_TRUE(S.eliminateVar(X));

  Solver Copy = S; // member-wise deep copy
  ASSERT_TRUE(Copy.addClause({~mkLit(A)}));
  ASSERT_EQ(Copy.solve(), LBool::True);
  EXPECT_TRUE(Copy.isEliminated(X));
  EXPECT_TRUE(modelSatisfies(
      Copy, {{mkLit(A), mkLit(X)}, {~mkLit(X), mkLit(B)}, {~mkLit(A)}}));
}

// modelValue rebuilds eliminated variables on their first read, from the
// reconstruction stack as it stood at the SAT answer. Three readers of one
// answer must see the same model, and it must satisfy the original
// clauses: a read right after the answer; a read after the stack grew and
// a later solve came back UNSAT; and a read from a copy taken while the
// rebuild was still pending. The stack grows over a clause the answer
// falsifies, so a rebuild that replayed the whole stack would flip the
// newly eliminated variable whenever that clause lands on its stored side.
TEST(Simplify, LazyModelExtensionIsTheSameForEveryReader) {
  Solver::Options O;
  O.PreprocessMinClauses = 0; // small random formulas
  int Checked = 0, GrownOverFalsified = 0;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    Rng R(Seed);
    int NumVars = 10 + static_cast<int>(R.below(6));
    auto Cs = randomInstance(R, NumVars, NumVars * 3, 3);
    // Var 0 is frozen: the later UNSAT solve assumes it both ways.
    auto Load = [&](Solver &S) {
      S.ensureVars(NumVars);
      S.setFrozen(0, true);
      for (const Clause &C : Cs)
        if (!S.addClause(C))
          return false;
      return true;
    };
    Solver Now(O);
    if (!Load(Now) || Now.solve() != LBool::True ||
        Now.stats().VarsEliminated == 0)
      continue;
    ++Checked;
    Solver Pending = Now; // copied before anything read the model

    // 1. Read right after the answer: one rebuild, whatever is read next.
    std::vector<LBool> Model = readModel(Now, NumVars);
    EXPECT_EQ(Now.stats().ModelRebuilds, 1u) << "seed " << Seed;
    EXPECT_TRUE(modelSatisfies(Now, Cs)) << "seed " << Seed;
    EXPECT_EQ(Now.stats().ModelRebuilds, 1u) << "seed " << Seed;

    // 2. The same search again; before any read, a clause the answer
    // falsifies is added, one of its variables is eliminated over it, and
    // a solve under contradictory assumptions answers False.
    Solver Later(O);
    ASSERT_TRUE(Load(Later)) << "seed " << Seed;
    ASSERT_EQ(Later.solve(), LBool::True) << "seed " << Seed;
    uint64_t StackBytes = Later.stats().ReconstructBytes;
    Lit Zero = mkLit(0, Model[0] == LBool::False); // true in the answer
    for (Var V = 1; V < NumVars; ++V) {
      if (Later.isEliminated(V))
        continue;
      Lit Held = mkLit(V, Model[V] == LBool::False);
      if (!Later.addClause({~Held, ~Zero}))
        break;
      if (Later.eliminateVar(V)) {
        ++GrownOverFalsified;
        break;
      }
    }
    EXPECT_EQ(Later.solve({mkLit(0), ~mkLit(0)}), LBool::False)
        << "seed " << Seed;
    EXPECT_EQ(readModel(Later, NumVars), Model) << "seed " << Seed;
    EXPECT_TRUE(modelSatisfies(Later, Cs)) << "seed " << Seed;
    EXPECT_GE(Later.stats().ReconstructBytes, StackBytes);

    // 3. The copy rebuilds on its own first read, to the same values.
    EXPECT_EQ(Pending.stats().ModelRebuilds, 0u) << "seed " << Seed;
    EXPECT_EQ(readModel(Pending, NumVars), Model) << "seed " << Seed;
    EXPECT_TRUE(modelSatisfies(Pending, Cs)) << "seed " << Seed;
    EXPECT_EQ(Pending.stats().ModelRebuilds, 1u) << "seed " << Seed;
  }
  EXPECT_GT(Checked, 10) << "too few instances eliminated variables";
  EXPECT_GT(GrownOverFalsified, 10) << "too few stacks grew after the answer";
}

// --- identity differential ---------------------------------------------------

namespace bugassist {

/// The elimination pass as it was before resolvent counting and dirty
/// re-sweeps: every resolvent of an attempt is materialized before the
/// bounds are checked, and every sweep retries every variable. The
/// subsumption, reconstruction and learnt-sweep steps are copied verbatim,
/// so any difference from Simplifier comes from the elimination loop.
/// Solver befriends SolverTestAccess, which is all this copy needs.
struct SolverTestAccess {
  using ClauseRef = Solver::ClauseRef;
  struct Entry {
    ClauseRef CR;
    uint64_t Sig;
    uint32_t Size;
    bool Dead;
  };

  Solver &S;
  Simplifier::Limits Lim;
  std::vector<Entry> Cs;
  std::vector<std::vector<int>> Occ;
  std::vector<int> Queue;
  size_t QueueHead = 0;
  std::vector<char> InQueue;
  std::vector<Lit> Scratch;
  std::vector<char> TempFrozen;

  SolverTestAccess(Solver &S, const Simplifier::Limits &L) : S(S), Lim(L) {}

  // Observable state the two passes must agree on.
  static std::vector<std::vector<Lit>> problemLits(const Solver &S) {
    std::vector<std::vector<Lit>> Out;
    for (ClauseRef CR : S.ProblemClauses)
      if (!S.clauseFreed(CR))
        Out.emplace_back(S.clauseLits(CR), S.clauseLits(CR) + S.clauseSize(CR));
    return Out;
  }
  static const std::vector<Lit> &elimStack(const Solver &S) {
    return S.ElimStack;
  }
  static const std::vector<Lit> &trail(const Solver &S) { return S.Trail; }

  bool varTouchable(Var V) const {
    return S.value(V) == LBool::Undef && !S.ElimVars[V] && !S.isFrozen(V) &&
           !TempFrozen[V];
  }

  uint64_t signatureOf(ClauseRef CR) const {
    uint64_t Sig = 0;
    for (uint32_t I = 0; I < S.clauseSize(CR); ++I)
      Sig |= 1ull << (S.clauseLits(CR)[I].var() & 63);
    return Sig;
  }

  bool run() {
    if (!S.Ok || S.propagate() != Solver::InvalidClause) {
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
    uint64_t TotalElims = 0;
    for (int Round = 0; Round < Lim.MaxRounds; ++Round) {
      uint64_t Subs = subsumptionFixpoint();
      if (!S.Ok)
        break;
      uint64_t Elims = bveSweep();
      TotalElims += Elims;
      if (!S.Ok || (Subs == 0 && Elims == 0))
        break;
    }
    if (S.Ok) {
      if (TotalElims)
        sweepLearnts();
      S.refreshTierGauges();
      S.flushAllWatches();
      S.checkGarbage();
    }
    return S.Ok;
  }

  void collect() {
    Occ.assign(S.numVars(), {});
    for (ClauseRef CR : S.ProblemClauses) {
      if (S.clauseFreed(CR))
        continue;
      const Lit *CL = S.clauseLits(CR);
      uint32_t Size = S.clauseSize(CR);
      bool Satisfied = false;
      for (uint32_t I = 0; I < Size; ++I)
        Satisfied = Satisfied || S.value(CL[I]) == LBool::True;
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

  void enqueue(int EI) {
    if (InQueue[EI])
      return;
    InQueue[EI] = 1;
    Queue.push_back(EI);
  }

  bool entrySatisfied(int EI) {
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

  uint64_t subsumptionFixpoint() {
    uint64_t Changes = 0;
    while (QueueHead < Queue.size() && S.Ok) {
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

  uint64_t backwardCheck(int EI) {
    Entry &E = Cs[EI];
    if (E.Dead || S.clauseFreed(E.CR) || entrySatisfied(EI))
      return 0;
    if (E.Size > Lim.MaxClauseSize)
      return 0;
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
      if (D.Dead || S.clauseFreed(D.CR) || D.Size < E.Size ||
          (E.Sig & ~D.Sig) || entrySatisfied(DI))
        continue;
      Lit Flip = NullLit;
      if (!subsumeOrStrengthen(EI, DI, Flip))
        continue;
      ++Changes;
      if (Flip == NullLit) {
        S.removeClause(D.CR);
        D.Dead = true;
        ++S.Stats.ClausesSubsumed;
      } else {
        strengthenEntry(DI, ~Flip);
        if (!S.Ok)
          break;
      }
    }
    return Changes;
  }

  bool subsumeOrStrengthen(int CI, int DI, Lit &Flip) {
    const Lit *CL = S.clauseLits(Cs[CI].CR);
    const Lit *DL = S.clauseLits(Cs[DI].CR);
    Flip = NullLit;
    for (uint32_t I = 0; I < Cs[CI].Size; ++I) {
      bool Found = false;
      for (uint32_t J = 0; J < Cs[DI].Size && !Found; ++J) {
        if (DL[J] == CL[I]) {
          Found = true;
        } else if (DL[J] == ~CL[I]) {
          if (Flip != NullLit)
            return false;
          Flip = CL[I];
          Found = true;
        }
      }
      if (!Found)
        return false;
    }
    return true;
  }

  void strengthenEntry(int EI, Lit L) {
    Entry &E = Cs[EI];
    ++S.Stats.LitsSelfSubsumed;
    S.strengthenClause(E.CR, L);
    if (!S.Ok)
      return;
    if (S.clauseFreed(E.CR)) {
      E.Dead = true;
      return;
    }
    E.Size = S.clauseSize(E.CR);
    E.Sig = signatureOf(E.CR);
    enqueue(EI);
  }

  uint64_t bveSweep() {
    std::vector<std::pair<uint32_t, Var>> Order;
    for (Var V = 0; V < S.numVars(); ++V) {
      size_t N = Occ[V].size();
      if (varTouchable(V) && N != 0 && N <= Lim.MaxOccurrences)
        Order.push_back({static_cast<uint32_t>(N), V});
    }
    std::sort(Order.begin(), Order.end());
    uint64_t Elims = 0;
    for (const auto &P : Order) {
      if (!S.Ok)
        break;
      Elims += tryEliminate(P.second);
    }
    return Elims;
  }

  bool tryEliminate(Var V) {
    if (S.ElimVars[V] || S.isFrozen(V) || TempFrozen[V] ||
        S.value(V) != LBool::Undef)
      return false;
    std::vector<int> Pos, Neg;
    for (int EI : Occ[V]) {
      if (Cs[EI].Dead || S.clauseFreed(Cs[EI].CR) || entrySatisfied(EI))
        continue;
      const Lit *CL = S.clauseLits(Cs[EI].CR);
      for (uint32_t I = 0; I < Cs[EI].Size; ++I) {
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
    if (Pos.size() + Neg.size() > Lim.MaxOccurrences)
      return false;
    std::vector<std::vector<Lit>> Resolvents;
    for (int PI : Pos) {
      for (int NI : Neg) {
        if (!resolve(PI, NI, V))
          continue;
        if (Scratch.size() > Lim.MaxResolventSize)
          return false;
        Resolvents.push_back(Scratch);
        if (Resolvents.size() > Pos.size() + Neg.size())
          return false;
      }
    }
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
      S.Activity[V] = 1e300;
      S.heapDecrease(V);
      S.heapPop();
      S.Activity[V] = 0.0;
    }
    for (const auto &R : Resolvents) {
      addResolvent(R);
      if (!S.Ok)
        break;
    }
    return true;
  }

  bool resolve(int PI, int NI, Var V) {
    Scratch.clear();
    auto Side = [&](int EI, Lit Pivot) {
      const Lit *CL = S.clauseLits(Cs[EI].CR);
      for (uint32_t I = 0; I < Cs[EI].Size; ++I) {
        if (CL[I] == Pivot || S.value(CL[I]) == LBool::False)
          continue;
        if (S.value(CL[I]) == LBool::True)
          return false;
        Scratch.push_back(CL[I]);
      }
      return true;
    };
    if (!Side(PI, mkLit(V)) || !Side(NI, mkLit(V, true)))
      return false;
    std::sort(Scratch.begin(), Scratch.end());
    size_t J = 0;
    for (size_t I = 0; I < Scratch.size(); ++I) {
      if (J > 0 && Scratch[I] == Scratch[J - 1])
        continue;
      if (J > 0 && Scratch[I] == ~Scratch[J - 1])
        return false;
      Scratch[J++] = Scratch[I];
    }
    Scratch.resize(J);
    return true;
  }

  void addResolvent(const std::vector<Lit> &Lits) {
    Scratch.clear();
    for (Lit L : Lits) {
      if (S.value(L) == LBool::True)
        return;
      if (S.value(L) != LBool::False)
        Scratch.push_back(L);
    }
    if (Scratch.empty()) {
      S.Ok = false;
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
    for (Lit L : Scratch)
      Occ[L.var()].push_back(Idx);
    enqueue(Idx);
  }

  void pushReconstruction(Var V, const std::vector<int> &StoredSide,
                          Lit Default) {
    for (int EI : StoredSide) {
      const Lit *CL = S.clauseLits(Cs[EI].CR);
      Scratch.clear();
      Lit Pivot = NullLit;
      for (uint32_t I = 0; I < Cs[EI].Size; ++I) {
        if (CL[I].var() == V)
          Pivot = CL[I];
        else if (S.value(CL[I]) != LBool::False)
          Scratch.push_back(CL[I]);
      }
      S.ElimStack.push_back(Pivot);
      S.ElimStack.insert(S.ElimStack.end(), Scratch.begin(), Scratch.end());
      S.ElimStack.push_back(
          Lit::fromCode(static_cast<int32_t>(Scratch.size() + 1)));
    }
    S.ElimStack.push_back(Default);
    S.ElimStack.push_back(Lit::fromCode(1));
  }

  void sweepLearnts() {
    auto Sweep = [&](std::vector<ClauseRef> &Set) {
      size_t J = 0;
      for (ClauseRef CR : Set) {
        if (S.clauseFreed(CR))
          continue;
        bool Ghost = false;
        for (uint32_t I = 0; I < S.clauseSize(CR); ++I)
          Ghost = Ghost || S.ElimVars[S.clauseLits(CR)[I].var()];
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
};

} // namespace bugassist

namespace {

/// A random CNF shaped to keep all three rounds of a pass busy: short
/// clauses over a small variable range (so subsumption and strengthening
/// fire between sweeps), a share of frozen variables and a few units (so
/// root assignments and frozen skips interleave with eliminations).
void loadIdentityInstance(Solver &S, uint64_t Seed) {
  Rng R(Seed);
  int NumVars = 20 + static_cast<int>(R.below(40));
  S.ensureVars(NumVars);
  for (Var V = 0; V < NumVars; ++V)
    if (R.chance(1, 8))
      S.setFrozen(V, true);
  int NumClauses = NumVars * (2 + static_cast<int>(R.below(3)));
  for (int I = 0; I < NumClauses; ++I) {
    int Len = R.chance(1, 24) ? 1 : 2 + static_cast<int>(R.below(4));
    Clause C;
    for (int K = 0; K < Len; ++K)
      C.push_back(mkLit(static_cast<Var>(R.below(NumVars)), R.chance(1, 2)));
    if (!S.addClause(C))
      return;
  }
}

} // namespace

// The pass must eliminate the same variables in the same order, with the
// same resolvents, as materializing every resolvent and retrying every
// variable: identical surviving clauses (literal order included), root
// trail, reconstruction stack and counters, under the default limits and
// under tight ones that make the growth bounds and re-sweeps decide.
TEST(SimplifyIdentity, MatchesMaterializeEverythingRetryEverything) {
  Simplifier::Limits Default;
  Simplifier::Limits Tight;
  Tight.MaxOccurrences = 10;
  Tight.MaxResolventSize = 4;
  Tight.MaxClauseSize = 6;
  uint64_t Eliminated = 0;
  for (const Simplifier::Limits &L : {Default, Tight}) {
    for (uint64_t Seed = 1; Seed <= 400; ++Seed) {
      Solver A, B;
      loadIdentityInstance(A, Seed);
      loadIdentityInstance(B, Seed);
      Simplifier Simp(A);
      bool OkA = Simp.run(L);
      SolverTestAccess Ref(B, L);
      bool OkB = Ref.run();
      ASSERT_EQ(OkA, OkB) << "seed " << Seed;
      ASSERT_EQ(SolverTestAccess::trail(A), SolverTestAccess::trail(B))
          << "seed " << Seed;
      ASSERT_EQ(SolverTestAccess::problemLits(A),
                SolverTestAccess::problemLits(B))
          << "seed " << Seed;
      ASSERT_EQ(SolverTestAccess::elimStack(A), SolverTestAccess::elimStack(B))
          << "seed " << Seed;
      const SolverStats &SA = A.stats(), &SB = B.stats();
      ASSERT_EQ(SA.VarsEliminated, SB.VarsEliminated) << "seed " << Seed;
      ASSERT_EQ(SA.ClausesSubsumed, SB.ClausesSubsumed) << "seed " << Seed;
      ASSERT_EQ(SA.LitsSelfSubsumed, SB.LitsSelfSubsumed) << "seed " << Seed;
      ASSERT_EQ(SA.ReconstructBytes, SB.ReconstructBytes) << "seed " << Seed;
      ASSERT_EQ(SA.Propagations, SB.Propagations) << "seed " << Seed;
      ASSERT_EQ(A.solve(), B.solve()) << "seed " << Seed;
      Eliminated += SA.VarsEliminated;
    }
  }
  EXPECT_GT(Eliminated, 0u) << "the instances must exercise elimination";
}

// --- the frozen-variable contract --------------------------------------------

TEST(SimplifyFrozen, EliminatingAFrozenVariableIsAHardError) {
  Solver S;
  Var A = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(X)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), ~mkLit(A)}));
  S.setFrozen(X, true);
  EXPECT_TRUE(S.isFrozen(X));
  EXPECT_THROW(S.eliminateVar(X), std::logic_error);
  EXPECT_FALSE(S.isEliminated(X));
}

TEST(SimplifyFrozen, PreprocessSkipsFrozenVariables) {
  Solver::Options O;
  O.PreprocessMinClauses = 0; // tiny hand-built formula
  Solver S{O};
  Var A = S.newVar(), B = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(X)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), mkLit(B)}));
  S.setFrozen(X, true);
  ASSERT_TRUE(S.preprocess());
  EXPECT_FALSE(S.isEliminated(X))
      << "a full pass must silently skip frozen variables, not throw";
  // The frozen variable is still legal to talk about afterwards. (A and B
  // were fair game for elimination, so pair X with a fresh variable.)
  EXPECT_EQ(S.solve({mkLit(X)}), LBool::True);
  Var C = S.newVar();
  EXPECT_TRUE(S.addClause({mkLit(X), mkLit(C)}));
}

TEST(SimplifyFrozen, MentioningAnEliminatedVariableIsAHardError) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), mkLit(X)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), mkLit(B)}));
  ASSERT_TRUE(S.eliminateVar(X));
  EXPECT_THROW(S.addClause({mkLit(X)}), std::logic_error);
  EXPECT_THROW((void)S.solve({mkLit(X)}), std::logic_error);
}

TEST(SimplifyFrozen, ReleaseVarUnfreezes) {
  Solver S;
  Var A = S.newVar();
  Var G = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(A), ~mkLit(G)}));
  S.setFrozen(G, true);
  ASSERT_TRUE(S.isFrozen(G));
  // Retiring the guard (the Fu-Malik relaxation path) must lift the
  // freeze: the variable is root-fixed afterwards and fair game.
  ASSERT_TRUE(S.releaseVar(~mkLit(G)));
  EXPECT_FALSE(S.isFrozen(G));
  EXPECT_EQ(S.solve(), LBool::True);
}

// --- CLI differentials -------------------------------------------------------

namespace {

/// Top-level *.cnf / *.wcnf files under the checked-in instance dir.
std::vector<std::string> instanceFiles(const char *Suffix) {
  std::vector<std::string> Files;
  DIR *D = opendir(Instances.c_str());
  EXPECT_NE(D, nullptr);
  if (!D)
    return Files;
  size_t SufLen = std::strlen(Suffix);
  while (dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > SufLen &&
        Name.compare(Name.size() - SufLen, SufLen, Suffix) == 0)
      Files.push_back(Instances + "/" + Name);
  }
  closedir(D);
  std::sort(Files.begin(), Files.end());
  EXPECT_FALSE(Files.empty());
  return Files;
}

/// The answer lines (s/o) of a CLI run; everything else (c comments,
/// models, stats) is timing- or reconstruction-dependent.
std::string answerLines(const std::string &Out) {
  std::string Answers;
  size_t Pos = 0;
  while (Pos < Out.size()) {
    size_t Nl = Out.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Out.size();
    if (Out.compare(Pos, 2, "s ") == 0 || Out.compare(Pos, 2, "o ") == 0)
      Answers.append(Out, Pos, Nl - Pos + 1);
    Pos = Nl + 1;
  }
  return Answers;
}

} // namespace

TEST(SimplifyCliDifferential, EveryInstanceAnswersIdenticallyWithoutPreprocess) {
  for (const std::string &F : instanceFiles(".cnf")) {
    int E1 = 0, E2 = 0;
    std::string On = runCommand(Cli + " sat " + F + " --no-model", E1);
    std::string Off =
        runCommand(Cli + " sat " + F + " --no-model --no-preprocess", E2);
    EXPECT_EQ(exitStatus(E1), exitStatus(E2)) << F;
    EXPECT_EQ(answerLines(On), answerLines(Off)) << F;
  }
  for (const std::string &F : instanceFiles(".wcnf")) {
    int E1 = 0, E2 = 0;
    std::string On = runCommand(Cli + " maxsat " + F + " --no-model", E1);
    std::string Off =
        runCommand(Cli + " maxsat " + F + " --no-model --no-preprocess", E2);
    EXPECT_EQ(exitStatus(E1), exitStatus(E2)) << F;
    EXPECT_EQ(answerLines(On), answerLines(Off)) << F;
  }
}

TEST(SimplifyCliDifferential, TcasLocalizationIgnoresPreprocessing) {
  // TCAS v2 with the same deterministic failing input the CI smoke uses.
  // One canonical report with and without preprocessing: canonicalized
  // optima make the diagnosis sequence independent of the eliminations.
  int Exit = 0;
  std::string Source = runCommand(Cli + " dump-tcas 2", Exit);
  ASSERT_EQ(exitStatus(Exit), 0);
  std::string Path = "/tmp/bugassist_simplify_tcas2.ba";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fwrite(Source.data(), 1, Source.size(), F);
  std::fclose(F);

  std::string Base =
      Cli + " localize " + Path +
      " --input \"1052,1,0,6677,118,1329,0,790,890,0,2,1\" --golden 2"
      " --no-obligations --no-bounds --bitwidth 16 --hard-lines 69-84"
      " --max-diagnoses 24";
  std::string On = runCommand(Base, Exit);
  ASSERT_EQ(exitStatus(Exit), 0);
  ASSERT_NE(On.find("diagnosis 1 "), std::string::npos);
  std::string Off = runCommand(Base + " --no-preprocess", Exit);
  ASSERT_EQ(exitStatus(Exit), 0);
  EXPECT_EQ(Off, On) << "report diverged at --no-preprocess";
  std::remove(Path.c_str());
}

// Preprocessing must actually fire on the checked-in pigeonhole instance --
// the --stats counters prove the sweep is not a no-op.
TEST(SimplifyCliDifferential, StatsReportEliminations) {
  int Exit = 0;
  std::string Out = runCommand(Cli + " maxsat " + Instances +
                                   "/php_soft8.wcnf --no-model --stats",
                               Exit);
  ASSERT_EQ(exitStatus(Exit), 0);
  size_t Pos = Out.find("vars_eliminated=");
  ASSERT_NE(Pos, std::string::npos) << Out;
  EXPECT_NE(Out.substr(Pos), "vars_eliminated=0 ")
      << "expected eliminations on the buffered pigeonhole:\n" << Out;
  uint64_t Count =
      std::strtoull(Out.c_str() + Pos + std::strlen("vars_eliminated="),
                    nullptr, 10);
  EXPECT_GT(Count, 0u) << Out;
}

// The maxsat front end keeps its witness: on the buffered pigeonhole, whose
// buffer variables preprocessing eliminates, printing the model rebuilds
// them, and the rebuilt model satisfies every hard clause.
TEST(SimplifyCliDifferential, WitnessSessionRebuildsEliminatedVariables) {
  DimacsParseError Err;
  auto Parsed = readDimacsFile(Instances + "/php_soft8.wcnf", Err);
  ASSERT_TRUE(Parsed) << Err.Message;
  MaxSatInstance Inst = toMaxSatInstance(std::move(*Parsed));
  ASSERT_TRUE(Inst.Witness);
  auto Session = makeFuMalikSession(Inst);
  MaxSatResult Res = Session->solve();
  ASSERT_EQ(Res.Status, MaxSatStatus::Optimum);
  EXPECT_GT(Res.Search.VarsEliminated, 0u);
  EXPECT_GE(Res.Search.ModelRebuilds, 1u);
  EXPECT_TRUE(Inst.forEachHard([&](ClauseView C) {
    return clauseSatisfied(C.vec(), Res.Model);
  }));
}

// `sat --no-model` (and serve's model:false) solves without a witness: the
// answer and the search are the same, but the model stays empty and no
// eliminated variable is rebuilt. The hard part of the buffered pigeonhole
// is satisfiable, and preprocessing eliminates its buffer variables.
TEST(SimplifyCliDifferential, SatWithoutWitnessRebuildsNothing) {
  DimacsParseError Err;
  auto Parsed = readDimacsFile(Instances + "/php_soft8.wcnf", Err);
  ASSERT_TRUE(Parsed) << Err.Message;
  const int NumVars = Parsed->NumVars;
  SatAnswer Bare =
      solveSat(Parsed->Hard, NumVars, /*Witness=*/false, Solver::Options());
  SatAnswer Full =
      solveSat(Parsed->Hard, NumVars, /*Witness=*/true, Solver::Options());
  ASSERT_EQ(Bare.Result, LBool::True);
  ASSERT_EQ(Full.Result, LBool::True);
  EXPECT_GT(Bare.Stats.VarsEliminated, 0u);
  EXPECT_TRUE(Bare.Model.empty());
  EXPECT_EQ(Bare.Stats.ModelRebuilds, 0u);
  EXPECT_GE(Full.Stats.ModelRebuilds, 1u);
  ASSERT_EQ(Full.Model.size(), static_cast<size_t>(NumVars));
  for (const Clause &C : Parsed->Hard)
    EXPECT_TRUE(clauseSatisfied(C, Full.Model));
  EXPECT_EQ(Bare.Stats.Conflicts, Full.Stats.Conflicts);
  EXPECT_EQ(Bare.Stats.Decisions, Full.Stats.Decisions);
  EXPECT_EQ(Bare.Stats.Propagations, Full.Stats.Propagations);
  EXPECT_EQ(Bare.Stats.VarsEliminated, Full.Stats.VarsEliminated);
}
