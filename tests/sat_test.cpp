//===- sat_test.cpp - CDCL solver unit & property tests ----------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "cnf/Cnf.h"
#include "support/FaultInject.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include "BruteForce.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>

using namespace bugassist;

namespace bugassist {

/// White-box access to the solver's watch lists (Solver befriends it).
struct SolverTestAccess {
  using ClauseRef = Solver::ClauseRef;
  using Entry = std::pair<ClauseRef, int32_t>; // clause, blocker code

  static std::vector<Entry> readList(Solver &S, Lit L, bool Binary) {
    uint32_t Id = Solver::watchId(L, Binary);
    S.flushWatchesIfPending(Id);
    std::vector<Entry> Out;
    for (const Solver::Watcher &W : S.watchList(Id))
      Out.push_back({W.CRef, W.Blocker.code()});
    return Out;
  }
  static bool hasPendingEdits(const Solver &S, Lit L, bool Binary) {
    return S.hasPendingEdits(Solver::watchId(L, Binary));
  }
  static const std::vector<ClauseRef> &problemClauses(const Solver &S) {
    return S.ProblemClauses;
  }
  static std::vector<Lit> lits(const Solver &S, ClauseRef CR) {
    const Lit *CL = S.clauseLits(CR);
    return std::vector<Lit>(CL, CL + S.clauseSize(CR));
  }
  static bool freed(const Solver &S, ClauseRef CR) {
    return S.clauseFreed(CR);
  }
  static void removeClause(Solver &S, ClauseRef CR) { S.removeClause(CR); }
  static bool strengthen(Solver &S, ClauseRef CR, Lit L) {
    return S.strengthenClause(CR, L);
  }
  /// What simplifyLevel0 does to a clause whose literals past the watched
  /// two all became false: shrink it, then move it to the binary lists.
  static void trimToBinary(Solver &S, ClauseRef CR) {
    S.setClauseSize(CR, 2);
    S.rewatchAsBinary(CR);
  }
  static int decisionLevel(const Solver &S) { return S.decisionLevel(); }
  /// True when no preference-ordered branching state is left over.
  static bool preferenceIdle(const Solver &S) {
    return S.Preferences.empty() && S.PreferAfter.empty() &&
           S.PreferScan.empty() && S.PreferOwed == 0;
  }
};

} // namespace bugassist

TEST(Solver, EmptyFormulaIsSat) {
  Solver S;
  EXPECT_EQ(S.solve(), LBool::True);
}

TEST(Solver, SingleUnit) {
  Solver S;
  Var X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(X)}));
  EXPECT_EQ(S.solve(), LBool::True);
  EXPECT_EQ(S.modelValue(X), LBool::True);
}

TEST(Solver, ContradictoryUnits) {
  Solver S;
  Var X = S.newVar();
  EXPECT_TRUE(S.addClause({mkLit(X)}));
  EXPECT_FALSE(S.addClause({~mkLit(X)}));
  EXPECT_FALSE(S.okay());
  EXPECT_EQ(S.solve(), LBool::False);
}

TEST(Solver, UnitPropagationChain) {
  // x1, x1->x2, x2->x3, ..., x9->x10; all become true.
  Solver S;
  S.ensureVars(10);
  ASSERT_TRUE(S.addClause({mkLit(0)}));
  for (Var V = 0; V < 9; ++V)
    ASSERT_TRUE(S.addClause({~mkLit(V), mkLit(V + 1)}));
  ASSERT_EQ(S.solve(), LBool::True);
  for (Var V = 0; V < 10; ++V)
    EXPECT_EQ(S.modelValue(V), LBool::True) << "var " << V;
}

TEST(Solver, TautologyDropped) {
  Solver S;
  Var X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(X), ~mkLit(X)}));
  EXPECT_EQ(S.solve(), LBool::True);
}

TEST(Solver, DuplicateLiteralsMerged) {
  Solver S;
  Var X = S.newVar(), Y = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(X), mkLit(X), mkLit(Y)}));
  ASSERT_TRUE(S.addClause({~mkLit(Y)}));
  // Duplicate-merged (x \/ y) with ~y forces x; this clause then empties
  // under level-0 simplification and addClause reports UNSAT eagerly.
  EXPECT_FALSE(S.addClause({~mkLit(X), mkLit(Y)}));
  EXPECT_EQ(S.solve(), LBool::False);
}

TEST(Solver, SimpleUnsatTriangle) {
  // (a \/ b) (a \/ ~b) (~a \/ b) (~a \/ ~b) is UNSAT.
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause({mkLit(A), mkLit(B)});
  S.addClause({mkLit(A), ~mkLit(B)});
  S.addClause({~mkLit(A), mkLit(B)});
  S.addClause({~mkLit(A), ~mkLit(B)});
  EXPECT_EQ(S.solve(), LBool::False);
}

TEST(Solver, PigeonHole4Into3) {
  // PHP(4,3): 4 pigeons, 3 holes, UNSAT; forces real conflict analysis.
  Solver S;
  const int P = 4, H = 3;
  auto VarOf = [&](int Pi, int Hi) { return Pi * H + Hi; };
  S.ensureVars(P * H);
  for (int Pi = 0; Pi < P; ++Pi) {
    Clause C;
    for (int Hi = 0; Hi < H; ++Hi)
      C.push_back(mkLit(VarOf(Pi, Hi)));
    S.addClause(C);
  }
  for (int Hi = 0; Hi < H; ++Hi)
    for (int P1 = 0; P1 < P; ++P1)
      for (int P2 = P1 + 1; P2 < P; ++P2)
        S.addClause({~mkLit(VarOf(P1, Hi)), ~mkLit(VarOf(P2, Hi))});
  EXPECT_EQ(S.solve(), LBool::False);
  EXPECT_GT(S.stats().Conflicts, 0u);
}

TEST(Solver, PigeonHole5Into5IsSat) {
  Solver S;
  const int P = 5, H = 5;
  auto VarOf = [&](int Pi, int Hi) { return Pi * H + Hi; };
  S.ensureVars(P * H);
  std::vector<Clause> All;
  for (int Pi = 0; Pi < P; ++Pi) {
    Clause C;
    for (int Hi = 0; Hi < H; ++Hi)
      C.push_back(mkLit(VarOf(Pi, Hi)));
    All.push_back(C);
  }
  for (int Hi = 0; Hi < H; ++Hi)
    for (int P1 = 0; P1 < P; ++P1)
      for (int P2 = P1 + 1; P2 < P; ++P2)
        All.push_back({~mkLit(VarOf(P1, Hi)), ~mkLit(VarOf(P2, Hi))});
  for (const Clause &C : All)
    S.addClause(C);
  ASSERT_EQ(S.solve(), LBool::True);
  EXPECT_TRUE(modelSatisfies(S, All));
}

TEST(Solver, AssumptionsSatAndUnsat) {
  // Preprocessing off: b is assumed only in the *second* solve, and the
  // frozen-variable contract (tested in simplify_test) requires such
  // late-bound assumption variables to be frozen up front. This test is
  // about assumption handling, not the contract.
  Solver::Options O;
  O.Preprocess = false;
  Solver S{O};
  Var A = S.newVar(), B = S.newVar();
  S.addClause({~mkLit(A), mkLit(B)}); // a -> b
  EXPECT_EQ(S.solve({mkLit(A)}), LBool::True);
  EXPECT_EQ(S.modelValue(B), LBool::True);
  EXPECT_EQ(S.solve({mkLit(A), ~mkLit(B)}), LBool::False);
  // Solver state must survive for reuse.
  EXPECT_EQ(S.solve({mkLit(A)}), LBool::True);
  EXPECT_EQ(S.solve(), LBool::True);
}

TEST(Solver, ConflictCoreIsSubsetOfAssumptions) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar(), D = S.newVar();
  S.addClause({~mkLit(A), ~mkLit(B)}); // a,b incompatible
  (void)D;
  std::vector<Lit> Assumps = {mkLit(A), mkLit(B), mkLit(C), mkLit(D)};
  ASSERT_EQ(S.solve(Assumps), LBool::False);
  const auto &Core = S.conflictCore();
  EXPECT_FALSE(Core.empty());
  for (Lit L : Core)
    EXPECT_TRUE(std::find(Assumps.begin(), Assumps.end(), L) != Assumps.end())
        << "core literal " << L.str() << " not among assumptions";
  // c and d are irrelevant; core must not mention them.
  for (Lit L : Core) {
    EXPECT_NE(L.var(), C);
    EXPECT_NE(L.var(), D);
  }
}

TEST(Solver, CoreFromChainedImplications) {
  // a -> x, x -> y, y -> ~b: assuming a and b is UNSAT; core = {a, b}.
  Solver S;
  Var A = S.newVar(), B = S.newVar(), X = S.newVar(), Y = S.newVar();
  S.addClause({~mkLit(A), mkLit(X)});
  S.addClause({~mkLit(X), mkLit(Y)});
  S.addClause({~mkLit(Y), ~mkLit(B)});
  ASSERT_EQ(S.solve({mkLit(A), mkLit(B)}), LBool::False);
  std::set<Var> CoreVars;
  for (Lit L : S.conflictCore())
    CoreVars.insert(L.var());
  EXPECT_TRUE(CoreVars.count(A));
  EXPECT_TRUE(CoreVars.count(B));
}

TEST(Solver, RedundantAssumptionHandled) {
  Solver S;
  Var A = S.newVar();
  S.addClause({mkLit(A)});
  // Assumption already implied at level 0.
  EXPECT_EQ(S.solve({mkLit(A)}), LBool::True);
  // Assumption contradicting a level-0 unit.
  EXPECT_EQ(S.solve({~mkLit(A)}), LBool::False);
}

TEST(Solver, ConflictBudgetReturnsUndef) {
  // A hard random instance with a budget of 1 conflict usually gives Undef;
  // at minimum it must not crash and must return a defined result when the
  // budget is lifted.
  Rng R(42);
  auto Cs = randomInstance(R, 30, 128, 3);
  Solver S;
  S.ensureVars(30);
  bool Ok = true;
  for (const Clause &C : Cs)
    Ok = Ok && S.addClause(C);
  if (Ok) {
    S.setConflictBudget(1);
    LBool First = S.solve();
    S.setConflictBudget(0);
    LBool Second = S.solve();
    EXPECT_NE(Second, LBool::Undef);
    if (First != LBool::Undef) {
      EXPECT_EQ(First, Second);
    }
  }
}

TEST(Solver, AddFormulaLoadsGroupsAsHard) {
  CnfFormula F;
  Var X = F.newVar();
  GroupId G = F.newGroup(1);
  F.addGroupedClause(G, {mkLit(X)});
  // The second solve assumes x, which the first solve's preprocessing pass
  // may eliminate (the frozen contract is simplify_test's subject, not
  // this test's): keep the pass off so group semantics stay the focus.
  Solver::Options O;
  O.Preprocess = false;
  Solver S{O};
  ASSERT_TRUE(S.addFormula(F));
  // With the selector asserted, x must hold.
  ASSERT_EQ(S.solve({F.selectorLit(G)}), LBool::True);
  EXPECT_EQ(S.modelValue(X), LBool::True);
  // With the selector negated the clause is disabled; ~x is fine.
  ASSERT_EQ(S.solve({~F.selectorLit(G), ~mkLit(X)}), LBool::True);
}

// Property test: solver agrees with brute force on hundreds of random
// instances around the 3-SAT phase transition (clause/var ~ 4.3).
struct RandomSatCase {
  int NumVars;
  int NumClauses;
  uint64_t Seed;
};

class SolverRandomTest : public ::testing::TestWithParam<RandomSatCase> {};

TEST_P(SolverRandomTest, AgreesWithBruteForce) {
  const auto &P = GetParam();
  Rng R(P.Seed);
  for (int Round = 0; Round < 30; ++Round) {
    auto Cs = randomInstance(R, P.NumVars, P.NumClauses, 3);
    Solver S;
    S.ensureVars(P.NumVars);
    bool Ok = true;
    for (const Clause &C : Cs)
      Ok = Ok && S.addClause(C);
    bool Expected = bruteForceSat(P.NumVars, Cs);
    if (!Ok) {
      EXPECT_FALSE(Expected);
      continue;
    }
    LBool Got = S.solve();
    ASSERT_NE(Got, LBool::Undef);
    EXPECT_EQ(Got == LBool::True, Expected)
        << "vars=" << P.NumVars << " clauses=" << P.NumClauses
        << " seed=" << P.Seed << " round=" << Round;
    if (Got == LBool::True) {
      EXPECT_TRUE(modelSatisfies(S, Cs));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PhaseTransitionSweep, SolverRandomTest,
    ::testing::Values(RandomSatCase{6, 20, 1}, RandomSatCase{6, 30, 2},
                      RandomSatCase{8, 34, 3}, RandomSatCase{8, 40, 4},
                      RandomSatCase{10, 42, 5}, RandomSatCase{10, 50, 6},
                      RandomSatCase{12, 51, 7}, RandomSatCase{12, 60, 8},
                      RandomSatCase{14, 60, 9}, RandomSatCase{14, 70, 10},
                      RandomSatCase{16, 68, 11}, RandomSatCase{16, 80, 12}));

// Property: under random assumptions, an UNSAT answer's core re-verifies
// as UNSAT when solved with exactly the core as assumptions, with
// preprocessing on and off.
TEST(Solver, CoreReverifies) {
  Rng R(777);
  for (int Round = 0; Round < 40; ++Round) {
    int NumVars = 10;
    auto Cs = randomInstance(R, NumVars, 30, 3);
    Solver S;
    S.ensureVars(NumVars);
    bool Ok = true;
    for (const Clause &C : Cs)
      Ok = Ok && S.addClause(C);
    if (!Ok)
      continue;
    std::vector<Lit> Assumps;
    for (Var V = 0; V < 5; ++V)
      Assumps.push_back(mkLit(V, R.chance(1, 2)));
    if (S.solve(Assumps) != LBool::False)
      continue;
    std::vector<Lit> Core = S.conflictCore();
    Solver S2;
    S2.ensureVars(NumVars);
    bool Ok2 = true;
    for (const Clause &C : Cs)
      Ok2 = Ok2 && S2.addClause(C);
    if (!Ok2)
      continue;
    EXPECT_EQ(S2.solve(Core), LBool::False)
        << "core failed to reverify (round " << Round << ")";
  }

  // Preprocessing off, on a solver that has already decided the formula
  // without assumptions: the assumption probe then runs over the learnt
  // clauses of the first solve. Both answers must match brute force and an
  // UNSAT core must re-verify on a fresh default solver.
  Rng R2(2026);
  Solver::Options NoPre;
  NoPre.Preprocess = false;
  for (int Round = 0; Round < 60; ++Round) {
    const int NumVars = 12;
    auto Cs = randomInstance(R2, NumVars, 51, 3);
    Solver S{NoPre};
    S.ensureVars(NumVars);
    bool Ok = true;
    for (const Clause &C : Cs)
      Ok = Ok && S.addClause(C);
    bool Expected = bruteForceSat(NumVars, Cs);
    if (!Ok) {
      EXPECT_FALSE(Expected);
      continue;
    }
    LBool Got = S.solve();
    ASSERT_NE(Got, LBool::Undef);
    EXPECT_EQ(Got == LBool::True, Expected) << "round " << Round;

    std::vector<Lit> Assumps;
    std::vector<Clause> Assumed = Cs;
    for (Var V = 0; V < 5; ++V) {
      Assumps.push_back(mkLit(V, R2.chance(1, 2)));
      Assumed.push_back({Assumps.back()});
    }
    LBool Probe = S.solve(Assumps);
    ASSERT_NE(Probe, LBool::Undef);
    EXPECT_EQ(Probe == LBool::True, bruteForceSat(NumVars, Assumed))
        << "assumption probe, round " << Round;
    if (Probe != LBool::False)
      continue;
    Solver Check;
    Check.ensureVars(NumVars);
    bool OkC = true;
    for (const Clause &C : Cs)
      OkC = OkC && Check.addClause(C);
    ASSERT_TRUE(OkC);
    EXPECT_EQ(Check.solve(S.conflictCore()), LBool::False)
        << "preprocessing-off core failed to reverify (round " << Round
        << ")";
  }
}

// Differential check of the assumption levels solve() keeps between calls.
// Each instance runs a sequence of solve(assumptions) calls whose lists
// extend, shrink or swap the tail of the previous list, so later calls
// start from a kept prefix of levels. addClause, releaseVar, setPolarity
// and the other root-only calls are interleaved. Every answer must match
// brute force under the same assumptions, every model must satisfy the
// clauses and the assumptions, every core must be a subset of the
// assumptions and UNSAT on its own, and every root-only call must leave
// the solver at level 0.
TEST(SolverTrailReuse, AssumptionSequencesAgreeWithBruteForce) {
  using Access = SolverTestAccess;
  Rng R(20261019);
  uint64_t Reused = 0, Sat = 0, Unsat = 0;
  for (int Round = 0; Round < 80; ++Round) {
    const int NumVars = 10 + static_cast<int>(R.below(4));
    // Assumptions, releases and added clauses draw on the control
    // variables [0, NumControl), which stay frozen while preprocessing is
    // on; the rest are left to variable elimination.
    const int NumControl = 7;
    Solver::Options O;
    O.Preprocess = R.chance(1, 2);
    O.PreprocessMinClauses = 0;
    Solver S(O);
    S.ensureVars(NumVars);
    for (Var V = 0; V < NumControl; ++V)
      S.setFrozen(V, true);
    std::vector<Clause> Cs = randomInstance(
        R, NumVars, 2 * NumVars + static_cast<int>(R.below(2 * NumVars)), 3);
    bool Ok = true;
    for (const Clause &C : Cs)
      Ok = Ok && S.addClause(C);
    if (!Ok) {
      EXPECT_FALSE(bruteForceSat(NumVars, Cs));
      continue;
    }
    std::vector<Var> Pool; // control variables not yet released
    for (Var V = 0; V < NumControl; ++V)
      Pool.push_back(V);
    auto RandomAssumption = [&] {
      return mkLit(Pool[R.below(Pool.size())], R.chance(1, 2));
    };
    const int AnyVar = O.Preprocess ? NumControl : NumVars;
    std::vector<Lit> Assumps;
    for (int Call = 0; Call < 14 && S.okay(); ++Call) {
      std::string Where = "round " + std::to_string(Round) + " call " +
                          std::to_string(Call);
      // The next assumption list: extend, shrink or swap the tail.
      uint64_t Shape = R.below(3);
      size_t Tail = 1 + R.below(2);
      if (Shape == 1 || Shape == 2)
        Assumps.resize(Assumps.size() - std::min(Tail, Assumps.size()));
      if (Shape == 0 || Shape == 2)
        for (size_t I = 0; I < Tail && !Pool.empty(); ++I)
          Assumps.push_back(RandomAssumption());

      // Root-only calls and phase hints between solves.
      uint64_t Between = R.below(10);
      if (Between < 2) {
        Clause C;
        while (C.size() < 2 + R.below(2)) {
          Lit L = mkLit(static_cast<Var>(R.below(AnyVar)), R.chance(1, 2));
          if (std::none_of(C.begin(), C.end(),
                           [&](Lit M) { return M.var() == L.var(); }))
            C.push_back(L);
        }
        Cs.push_back(C);
        S.addClause(C);
        EXPECT_EQ(Access::decisionLevel(S), 0) << Where << " addClause";
      } else if (Between == 2 && Pool.size() > 2) {
        size_t At = R.below(Pool.size());
        Lit Fixed = mkLit(Pool[At], R.chance(1, 2));
        Pool.erase(Pool.begin() + static_cast<std::ptrdiff_t>(At));
        Assumps.erase(std::remove_if(Assumps.begin(), Assumps.end(),
                                     [&](Lit L) {
                                       return L.var() == Fixed.var();
                                     }),
                      Assumps.end());
        Cs.push_back({Fixed});
        S.releaseVar(Fixed);
        EXPECT_EQ(Access::decisionLevel(S), 0) << Where << " releaseVar";
      } else if (Between == 3) {
        S.setPolarity(static_cast<Var>(R.below(NumVars)), R.chance(1, 2));
      } else if (Between == 4) {
        switch (R.below(3)) {
        case 0:
          S.reduceLearntDb();
          break;
        case 1:
          S.forceGarbageCollect();
          break;
        default:
          S.preprocess();
          break;
        }
        EXPECT_EQ(Access::decisionLevel(S), 0) << Where << " root call";
      }
      if (!S.okay()) {
        EXPECT_FALSE(bruteForceSat(NumVars, Cs)) << Where;
        break;
      }

      uint64_t ReusedBefore = S.stats().ReusedLevels;
      LBool Got = S.solve(Assumps);
      ASSERT_NE(Got, LBool::Undef) << Where;
      Reused += S.stats().ReusedLevels - ReusedBefore;
      std::vector<Clause> Assumed = Cs;
      for (Lit A : Assumps)
        Assumed.push_back({A});
      EXPECT_EQ(Got == LBool::True, bruteForceSat(NumVars, Assumed)) << Where;
      if (Got == LBool::True) {
        ++Sat;
        EXPECT_TRUE(modelSatisfies(S, Cs)) << Where;
        for (Lit A : Assumps)
          EXPECT_EQ(S.modelValue(A), LBool::True) << Where;
        // Every assumption level stays for the next call.
        EXPECT_EQ(Access::decisionLevel(S), static_cast<int>(Assumps.size()))
            << Where;
        continue;
      }
      ++Unsat;
      EXPECT_LE(Access::decisionLevel(S), static_cast<int>(Assumps.size()))
          << Where;
      std::vector<Clause> CoreOnly = Cs;
      for (Lit L : S.conflictCore()) {
        EXPECT_NE(std::find(Assumps.begin(), Assumps.end(), L), Assumps.end())
            << Where << ": core literal is not an assumption";
        CoreOnly.push_back({L});
      }
      EXPECT_FALSE(bruteForceSat(NumVars, CoreOnly))
          << Where << ": core is satisfiable on its own";
    }
  }
  // The sequences exercise both answers and the reuse path itself.
  EXPECT_GT(Sat, 100u);
  EXPECT_GT(Unsat, 100u);
  EXPECT_GT(Reused, 100u);
}

// Differential check of preference-ordered branching. On random instances,
// under random assumptions and with preprocessing on or off, a solve with
// an ordered, weighted preference list must return the model that is
// lexicographically greatest over the list (true beats false at the first
// listed literal where two models differ):
//  * with nothing owed, among all models;
//  * with the formula restricted, by clauses blocking every other model,
//    to the models that falsify exactly some listed weight C, and C owed,
//    which exercises the tail rule.
// Any owed weight must leave the SAT/UNSAT answer and the model's validity
// alone, and the plain solve that follows must be correct and find no
// preference state left over.
TEST(SolverPreference, LexicographicOptimumAgreesWithBruteForce) {
  using Access = SolverTestAccess;
  Rng R(20261020);
  int Lex = 0, Owing = 0;
  for (int Round = 0; Round < 160; ++Round) {
    const int NumVars = 7 + static_cast<int>(R.below(4));
    // Preferences and assumptions use the control variables, frozen while
    // preprocessing is on.
    const int NumControl = 6;
    Solver::Options O;
    O.Preprocess = R.chance(1, 2);
    O.PreprocessMinClauses = 0;
    std::vector<Clause> Cs = randomInstance(
        R, NumVars, NumVars + static_cast<int>(R.below(3 * NumVars)), 3);
    std::vector<Var> Order;
    for (Var V = 0; V < NumControl; ++V)
      Order.push_back(V);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);
    const uint64_t MaxWeight = R.chance(1, 2) ? 1 : 9;
    std::vector<Solver::Preference> Prefer;
    for (size_t I = 0; I < 2 + R.below(NumControl - 1); ++I)
      Prefer.push_back({mkLit(Order[I], R.chance(1, 2)), 1 + R.below(MaxWeight)});
    std::vector<Lit> Assumps;
    for (size_t I = R.below(3); I > 0; --I)
      Assumps.push_back(mkLit(static_cast<Var>(R.below(NumControl)),
                              R.chance(1, 2)));

    // Brute force: each model's listed values and falsified listed weight.
    struct Model {
      std::vector<bool> Listed;
      uint64_t Cost;
      uint64_t Mask;
    };
    std::vector<Model> Models;
    auto Holds = [](uint64_t Mask, Lit L) {
      return (((Mask >> L.var()) & 1) != 0) != L.negated();
    };
    for (uint64_t Mask = 0; Mask < (1ull << NumVars); ++Mask) {
      bool Ok = std::all_of(Cs.begin(), Cs.end(), [&](const Clause &C) {
        return std::any_of(C.begin(), C.end(),
                           [&](Lit L) { return Holds(Mask, L); });
      });
      Ok = Ok && std::all_of(Assumps.begin(), Assumps.end(),
                             [&](Lit A) { return Holds(Mask, A); });
      if (!Ok)
        continue;
      Model M{{}, 0, Mask};
      for (const Solver::Preference &P : Prefer) {
        M.Listed.push_back(Holds(Mask, P.L));
        M.Cost += Holds(Mask, P.L) ? 0 : P.Weight;
      }
      Models.push_back(std::move(M));
    }
    auto Greatest = [&](uint64_t OnlyCost, bool Restrict) {
      std::vector<bool> Best;
      for (const Model &M : Models)
        if ((!Restrict || M.Cost == OnlyCost) && M.Listed > Best)
          Best = M.Listed;
      return Best;
    };

    // One solver per case: blocking clauses mention eliminable variables.
    auto Run = [&](const std::vector<Clause> &Extra, uint64_t Owed,
                   bool ExpectSat, const std::vector<bool> *ExpectListed,
                   const std::string &Where) {
      Solver S(O);
      S.ensureVars(NumVars);
      for (Var V = 0; V < NumControl; ++V)
        S.setFrozen(V, true);
      bool Ok = true;
      for (const Clause &C : Cs)
        Ok = Ok && S.addClause(C);
      for (const Clause &C : Extra)
        Ok = Ok && S.addClause(C);
      if (!Ok) {
        EXPECT_FALSE(ExpectSat) << Where;
        return;
      }
      LBool Got = S.solve(Assumps, Prefer, Owed);
      ASSERT_NE(Got, LBool::Undef) << Where;
      EXPECT_EQ(Got == LBool::True, ExpectSat) << Where;
      EXPECT_TRUE(Access::preferenceIdle(S)) << Where;
      if (Got == LBool::True) {
        EXPECT_TRUE(modelSatisfies(S, Cs)) << Where;
        EXPECT_TRUE(modelSatisfies(S, Extra)) << Where;
        for (Lit A : Assumps)
          EXPECT_EQ(S.modelValue(A), LBool::True) << Where;
        if (ExpectListed) {
          std::vector<bool> Listed;
          for (const Solver::Preference &P : Prefer)
            Listed.push_back(S.modelValue(P.L) == LBool::True);
          EXPECT_EQ(Listed, *ExpectListed) << Where;
        }
      }
      // The plain solve that follows answers the same, unsteered.
      LBool Plain = S.solve(Assumps);
      EXPECT_EQ(Plain == LBool::True, ExpectSat) << Where << " plain";
      if (Plain == LBool::True) {
        EXPECT_TRUE(modelSatisfies(S, Cs)) << Where << " plain";
        EXPECT_TRUE(modelSatisfies(S, Extra)) << Where << " plain";
      }
    };

    std::string Where = "round " + std::to_string(Round);
    std::vector<bool> Best = Greatest(0, /*Restrict=*/false);
    Run({}, 0, !Models.empty(), &Best, Where + " nothing owed");
    Lex += !Models.empty();
    uint64_t AnyOwed = R.below(4 * MaxWeight + 1);
    Run({}, AnyOwed, !Models.empty(), nullptr, Where + " owed any");
    if (Models.empty())
      continue;
    uint64_t C = Models[R.below(Models.size())].Cost;
    std::vector<Clause> Block;
    for (const Model &M : Models) {
      if (M.Cost == C)
        continue;
      Clause B;
      for (Var V = 0; V < NumVars; ++V)
        B.push_back(mkLit(V, ((M.Mask >> V) & 1) != 0));
      Block.push_back(std::move(B));
    }
    // Assumptions already exclude every assignment they contradict, so
    // only the models that satisfy them are blocked.
    std::vector<bool> BestAtC = Greatest(C, /*Restrict=*/true);
    Run(Block, C, true, &BestAtC, Where + " owed " + std::to_string(C));
    Owing += C > 0;
  }
  EXPECT_GT(Lex, 60);
  EXPECT_GT(Owing, 40);
}

TEST(SolverPreference, PlainSolveAfterwardIsNotSteered) {
  // Three free variables whose saved phases point at false: the preference
  // solve sets them true, and a plain solve after re-seeding the phases
  // must follow the phases again.
  Solver S;
  S.ensureVars(3);
  std::vector<Solver::Preference> Prefer;
  for (Var V = 0; V < 3; ++V)
    Prefer.push_back({mkLit(V), 1});
  ASSERT_EQ(S.solve({}, Prefer, 0), LBool::True);
  for (Var V = 0; V < 3; ++V) {
    EXPECT_EQ(S.modelValue(V), LBool::True);
    S.setPolarity(V, false);
  }
  ASSERT_EQ(S.solve(), LBool::True);
  for (Var V = 0; V < 3; ++V)
    EXPECT_EQ(S.modelValue(V), LBool::False);
}

TEST(Solver, StatsAreTracked) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause({mkLit(A), mkLit(B)});
  S.solve();
  EXPECT_GE(S.stats().Decisions, 1u);
}

TEST(Solver, PolarityHintRespectedWhenFree) {
  Solver S;
  Var A = S.newVar();
  Var B = S.newVar();
  S.addClause({mkLit(A), mkLit(B)});
  S.setPolarity(A, true);
  S.setPolarity(B, true);
  ASSERT_EQ(S.solve(), LBool::True);
  // Both saved phases point at true; at least the first decision follows.
  EXPECT_TRUE(S.modelValue(A) == LBool::True ||
              S.modelValue(B) == LBool::True);
}

TEST(Solver, IncrementalStatePersistsAcrossSolves) {
  // Pigeonhole (7 pigeons, 6 holes) with each pigeon's placement clause
  // guarded by an assumption literal: UNSAT under all guards, and hard
  // enough that the first refutation must learn clauses. The SAME solver
  // is solved repeatedly; learned clauses and stats must persist, making
  // later identical calls strictly cheaper -- the property the incremental
  // MaxSAT layer is built on.
  const int Holes = 6, Pigeons = Holes + 1;
  Solver S;
  S.ensureVars(Pigeons * Holes);
  auto VarOf = [](int P, int H) { return P * Holes + H; };
  std::vector<Lit> Assumps;
  for (int P = 0; P < Pigeons; ++P) {
    Clause C;
    for (int H = 0; H < Holes; ++H)
      C.push_back(mkLit(VarOf(P, H)));
    Var G = S.newVar();
    C.push_back(mkLit(G, /*Negated=*/true));
    ASSERT_TRUE(S.addClause(C));
    Assumps.push_back(mkLit(G));
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        ASSERT_TRUE(S.addClause({~mkLit(VarOf(P1, H)), ~mkLit(VarOf(P2, H))}));

  ASSERT_EQ(S.solve(Assumps), LBool::False);
  const uint64_t Conflicts1 = S.stats().Conflicts;
  const uint64_t Learned1 = S.stats().LearnedClauses;
  EXPECT_GT(Conflicts1, 0u);
  EXPECT_GT(Learned1, 0u) << "first refutation should learn clauses";

  ASSERT_EQ(S.solve(Assumps), LBool::False);
  const uint64_t Conflicts2 = S.stats().Conflicts - Conflicts1;
  // Stats are cumulative across calls ...
  EXPECT_GE(S.stats().Conflicts, Conflicts1);
  EXPECT_GE(S.stats().LearnedClauses, Learned1);
  // ... and the persisted learned clauses make the re-refutation cheaper.
  EXPECT_LT(Conflicts2, Conflicts1)
      << "second solve on the same instance should reuse learned clauses";

  // Dropping one guard makes the instance satisfiable: the persistent
  // solver must still answer positively after repeated UNSAT calls.
  Assumps.pop_back();
  EXPECT_EQ(S.solve(Assumps), LBool::True);
}

// --- resource budgets --------------------------------------------------------

namespace {

/// Loads PHP(Holes + 1, Holes) -- hard enough that refutation needs real
/// search for Holes >= 6, far beyond any test deadline for Holes >= 9.
void loadPigeonhole(Solver &S, int Holes) {
  int Pigeons = Holes + 1;
  auto VarOf = [Holes](int P, int H) { return P * Holes + H; };
  S.ensureVars(Pigeons * Holes);
  for (int P = 0; P < Pigeons; ++P) {
    Clause C;
    for (int H = 0; H < Holes; ++H)
      C.push_back(mkLit(VarOf(P, H)));
    ASSERT_TRUE(S.addClause(C));
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        ASSERT_TRUE(S.addClause({~mkLit(VarOf(P1, H)), ~mkLit(VarOf(P2, H))}));
}

} // namespace

TEST(SolverBudget, ConflictCapReturnsUndefAndIsSticky) {
  Solver S;
  loadPigeonhole(S, 7);
  Solver::Budget B;
  B.MaxConflicts = 10;
  S.setBudget(B);
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_TRUE(S.budgetExhausted());
  // Exhaustion is sticky: further solves return Undef immediately instead
  // of burning another 10 conflicts each.
  uint64_t ConflictsAfterFirst = S.stats().Conflicts;
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_EQ(S.stats().Conflicts, ConflictsAfterFirst);
  // clearBudget re-arms the solver; the refutation then completes.
  S.clearBudget();
  EXPECT_FALSE(S.budgetExhausted());
  EXPECT_EQ(S.solve(), LBool::False);
}

TEST(SolverBudget, ConflictCapIsExact) {
  // The cap is checked at every conflict, so the search stops at exactly
  // the capped count, not at the next amortized budget poll.
  for (uint64_t Cap : {1u, 10u, 37u}) {
    Solver S;
    loadPigeonhole(S, 7);
    Solver::Budget B;
    B.MaxConflicts = Cap;
    S.setBudget(B);
    EXPECT_EQ(S.solve(), LBool::Undef);
    EXPECT_TRUE(S.budgetExhausted());
    EXPECT_EQ(S.stats().Conflicts, Cap);
  }
}

TEST(SolverBudget, PerCallConflictBudgetIsExact) {
  // The per-call budget is checked at every conflict too, so a run of
  // back-to-back conflicts cannot overshoot it; each call gets it afresh.
  for (uint64_t Cap : {1u, 10u, 37u}) {
    Solver S;
    loadPigeonhole(S, 7);
    S.setConflictBudget(Cap);
    EXPECT_EQ(S.solve(), LBool::Undef);
    EXPECT_EQ(S.stats().Conflicts, Cap);
    EXPECT_EQ(S.solve(), LBool::Undef);
    EXPECT_EQ(S.stats().Conflicts, 2 * Cap);
    EXPECT_FALSE(S.budgetExhausted()); // not the query budget
  }
}

TEST(SolverBudget, ReinstallingABudgetResetsTheBaseline) {
  Solver S;
  loadPigeonhole(S, 7);
  Solver::Budget B;
  B.MaxConflicts = 10;
  S.setBudget(B);
  EXPECT_EQ(S.solve(), LBool::Undef);
  // A fresh setBudget counts conflicts from now, not from construction:
  // the accumulated spend must not instantly re-exhaust it.
  Solver::Budget Big;
  Big.MaxConflicts = 1000000;
  S.setBudget(Big);
  EXPECT_FALSE(S.budgetExhausted());
  EXPECT_EQ(S.solve(), LBool::False);
}

TEST(SolverBudget, DeadlineStopsALongRefutationPromptly) {
  // PHP(10, 9) would run for a very long time; a 50 ms deadline must turn
  // that into a prompt Undef.
  Solver S;
  loadPigeonhole(S, 9);
  Solver::Budget B;
  B.setDeadlineIn(0.05);
  S.setBudget(B);
  Timer T;
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_TRUE(S.budgetExhausted());
  EXPECT_LT(T.seconds(), 5.0) << "deadline was not honored promptly";
}

TEST(SolverBudget, PropagationCapReturnsUndef) {
  Solver S;
  loadPigeonhole(S, 7);
  Solver::Budget B;
  B.MaxPropagations = 100;
  S.setBudget(B);
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_TRUE(S.budgetExhausted());
}

TEST(SolverBudget, ArenaCapDegradesToUnknownInsteadOfThrowing) {
  // A cap far below what the refutation's learnt clauses need: the solver
  // must hand back Undef (never throw, never wedge) once the arena would
  // outgrow it. PHP(7)'s problem clauses alone exceed 4 KiB, so the very
  // first learnt allocation trips the cap.
  Solver S;
  loadPigeonhole(S, 7);
  Solver::Budget B;
  B.MaxArenaBytes = 4096;
  S.setBudget(B);
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_TRUE(S.budgetExhausted());
}

TEST(SolverBudget, UnlimitedBudgetIsANoOp) {
  Solver S;
  loadPigeonhole(S, 5);
  S.setBudget(Solver::Budget()); // all knobs zero: unlimited
  EXPECT_EQ(S.solve(), LBool::False);
  EXPECT_FALSE(S.budgetExhausted());
}

// --- cancellation through the budget ------------------------------------------

TEST(SolverCancel, CancelBeforeSolveReturnsAtOnce) {
  std::atomic<bool> Cancel{true};
  Solver S;
  loadPigeonhole(S, 9);
  Solver::Budget B;
  B.Cancel = &Cancel;
  EXPECT_FALSE(B.unlimited());
  S.setBudget(B);
  Timer Total;
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_TRUE(S.budgetExhausted());
  EXPECT_LT(Total.seconds(), 1.0);
  EXPECT_EQ(S.stats().Conflicts, 0u); // stopped at the first poll
  // The trip is sticky until the budget is re-armed, even with the flag
  // down again.
  Cancel.store(false);
  EXPECT_EQ(S.solve(), LBool::Undef);
}

TEST(SolverCancel, CancelDuringLongImplicationChainPropagation) {
  // A 30k-step binary implication chain hangs off a pigeonhole core. The
  // chain is propagated in full inside single search iterations (budget
  // polls sit between iterations, not inside propagate()), so the cancel
  // must land cleanly with the trail mid-chain-consistent.
  const int ChainLen = 30000;
  const int Holes = 9;
  Solver S;
  loadPigeonhole(S, Holes);
  int Base = (Holes + 1) * Holes;
  S.ensureVars(Base + ChainLen);
  ASSERT_TRUE(S.addClause({mkLit(Base)}));
  for (int I = 0; I < ChainLen - 1; ++I)
    ASSERT_TRUE(S.addClause({~mkLit(Base + I), mkLit(Base + I + 1)}));
  std::atomic<bool> Cancel{false};
  Solver::Budget B;
  B.Cancel = &Cancel;
  S.setBudget(B);

  Timer Total;
  LBool Result = LBool::True;
  std::thread Runner([&] { Result = S.solve(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Cancel.store(true);
  Runner.join();
  EXPECT_EQ(Result, LBool::Undef);
  EXPECT_TRUE(S.budgetExhausted());
  // "Promptly": seconds, not the hours the PHP(10, 9) refutation would need.
  EXPECT_LT(Total.seconds(), 10.0);
  // The unit head forces the whole chain at level 0.
  EXPECT_GE(S.stats().Propagations, static_cast<uint64_t>(ChainLen));
}

TEST(SolverCancel, CopiedSolverSharesTheCancelFlag) {
  // A copy keeps the budget, and with it the pointer to the one flag: the
  // owner cancels the original and every clone of it at once.
  std::atomic<bool> Cancel{false};
  Solver S;
  loadPigeonhole(S, 9);
  Solver::Budget B;
  B.Cancel = &Cancel;
  S.setBudget(B);
  Solver Copy(S);
  EXPECT_EQ(Copy.budget().Cancel, &Cancel);
  LBool Result = LBool::True;
  std::thread Runner([&] { Result = Copy.solve(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Cancel.store(true);
  Runner.join();
  EXPECT_EQ(Result, LBool::Undef);
  EXPECT_TRUE(Copy.budgetExhausted());
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_TRUE(S.budgetExhausted());
}

TEST(SolverCancel, SolverReuseAfterCancelKeepsSaneStats) {
  // cancel -> solve -> lower the flag -> solve -> solve on ONE solver: the
  // post-cancel solve must decide correctly and cumulative stats must
  // stay monotone across the whole sequence.
  std::atomic<bool> Cancel{true};
  Solver::Budget B;
  B.Cancel = &Cancel;
  Solver S;
  loadPigeonhole(S, 6);
  S.setBudget(B);
  EXPECT_EQ(S.solve(), LBool::Undef);
  SolverStats After1 = S.stats();

  Cancel.store(false);
  S.setBudget(B);
  EXPECT_EQ(S.solve(), LBool::False);
  EXPECT_FALSE(S.budgetExhausted());
  SolverStats After2 = S.stats();
  EXPECT_GE(After2.Conflicts, After1.Conflicts);
  EXPECT_GE(After2.Propagations, After1.Propagations);
  EXPECT_GT(After2.Decisions, After1.Decisions);

  // Root-level UNSAT is cached: a third solve answers instantly and the
  // counters never move backwards.
  EXPECT_EQ(S.solve(), LBool::False);
  EXPECT_GE(S.stats().Conflicts, After2.Conflicts);
  EXPECT_GE(S.stats().Propagations, After2.Propagations);
}

// --- fault injection (test-only hook) ----------------------------------------

TEST(SolverFaultInject, SpuriousInterruptAtNthAllocationStopsSolve) {
  Solver S;
  loadPigeonhole(S, 7);
  // The refutation must learn clauses, so allocation events are
  // guaranteed; the injected fault converts the 3rd one into an interrupt.
  LBool R;
  {
    faultinject::ScopedFault Fault(faultinject::Event::Allocation,
                                   faultinject::Fault::Interrupt, 3);
    R = S.solve();
  }
  EXPECT_EQ(R, LBool::Undef);
  EXPECT_TRUE(S.interrupted());
  // The injected stop is sticky; a copy taken now carries it too.
  EXPECT_EQ(S.solve(), LBool::Undef);
  EXPECT_TRUE(Solver(S).interrupted());
}

TEST(SolverFaultInject, InjectedBadAllocPropagatesOutOfSolve) {
  // The exception must escape solve(): isolation lives at serve's worker
  // thread boundary, not in the solver.
  Solver S;
  loadPigeonhole(S, 7);
  faultinject::ScopedFault Fault(faultinject::Event::Allocation,
                                 faultinject::Fault::BadAlloc, 1);
  EXPECT_THROW(S.solve(), std::bad_alloc);
}

// Deferred watch detach must leave every list exactly as eager
// swap-with-back removal would: propagation order steers the search. A
// reference applies the same edits eagerly in the test while thousands of
// clauses sharing one watched literal are removed, added, strengthened and
// moved to the binary lists, with reads interleaved.
TEST(SolverWatches, DeferredDetachReplaysInEagerOrder) {
  using Access = SolverTestAccess;
  using ClauseRef = Access::ClauseRef;
  using Entry = Access::Entry;
  constexpr int NumVars = 120;
  const Lit Shared = mkLit(0); // the smallest literal: every clause watches it

  Solver::Options O;
  O.Preprocess = false;
  Solver S(O);
  S.ensureVars(NumVars);
  Rng R(20240611);

  // The reference: list id -> eager contents, mirrored from the solver's
  // lists once loading is done and edited only by the test from then on.
  std::map<std::pair<int32_t, bool>, std::vector<Entry>> Ref;
  auto RefList = [&](Lit L, bool Binary) -> std::vector<Entry> & {
    return Ref[{L.code(), Binary}];
  };
  auto RefPush = [&](ClauseRef CR, bool Binary) {
    std::vector<Lit> CL = Access::lits(S, CR);
    RefList(~CL[0], Binary).push_back({CR, CL[1].code()});
    RefList(~CL[1], Binary).push_back({CR, CL[0].code()});
  };
  auto RefDrop = [&](ClauseRef CR, const std::vector<Lit> &CL, bool Binary) {
    for (int I = 0; I < 2; ++I) {
      std::vector<Entry> &WL = RefList(~CL[I], Binary);
      for (size_t J = 0; J < WL.size(); ++J)
        if (WL[J].first == CR) {
          WL[J] = WL.back();
          WL.pop_back();
          break;
        }
    }
  };
  auto RandomClause = [&](int Size) {
    Clause C{Shared};
    while (static_cast<int>(C.size()) < Size) {
      Var V = static_cast<Var>(1 + R.below(NumVars - 1));
      bool Fresh = std::none_of(C.begin(), C.end(),
                                [&](Lit L) { return L.var() == V; });
      if (Fresh)
        C.push_back(mkLit(V, R.chance(1, 2)));
    }
    return C;
  };
  auto SizeOf = [&] { return static_cast<int>(2 + R.below(4)); };

  for (int I = 0; I < 3000; ++I)
    ASSERT_TRUE(S.addClause(RandomClause(SizeOf())));
  for (int V = 0; V < NumVars; ++V)
    for (bool Neg : {false, true})
      for (bool Binary : {false, true})
        RefList(mkLit(V, Neg), Binary) =
            Access::readList(S, mkLit(V, Neg), Binary);
  ASSERT_GT(RefList(~Shared, false).size(), 1000u);
  ASSERT_GT(RefList(~Shared, true).size(), 500u);

  std::vector<ClauseRef> Live(Access::problemClauses(S));
  bool SawPending = false;
  for (int Op = 0; Op < 6000; ++Op) {
    size_t Pick = R.below(Live.size());
    ClauseRef CR = Live[Pick];
    std::vector<Lit> CL = Access::lits(S, CR);
    bool Binary = CL.size() == 2;
    uint64_t Kind = R.below(100);
    if (Kind < 40 && Live.size() > 200) {
      Access::removeClause(S, CR);
      RefDrop(CR, CL, Binary);
      Live[Pick] = Live.back();
      Live.pop_back();
    } else if (Kind < 70) {
      ASSERT_TRUE(S.addClause(RandomClause(SizeOf())));
      ClauseRef New = Access::problemClauses(S).back();
      RefPush(New, Access::lits(S, New).size() == 2);
      Live.push_back(New);
    } else if (Kind < 85 && CL.size() >= 3) {
      ASSERT_TRUE(Access::strengthen(S, CR, CL[R.below(CL.size())]));
      ASSERT_FALSE(Access::freed(S, CR));
      RefDrop(CR, CL, Binary);
      RefPush(CR, Access::lits(S, CR).size() == 2);
    } else if (Kind < 95 && CL.size() >= 3) {
      Access::trimToBinary(S, CR);
      RefDrop(CR, CL, /*Binary=*/false);
      RefPush(CR, /*Binary=*/true);
    } else if (Kind >= 95) {
      // An interleaved read replays the shared lists mid-stream.
      for (bool B : {false, true})
        ASSERT_EQ(Access::readList(S, ~Shared, B), RefList(~Shared, B))
            << "after op " << Op;
    }
    SawPending |= Access::hasPendingEdits(S, ~Shared, false) ||
                  Access::hasPendingEdits(S, ~Shared, true);
  }
  EXPECT_TRUE(SawPending) << "no removal took the deferred path";

  for (auto &[Key, Want] : Ref)
    EXPECT_EQ(Access::readList(S, Lit::fromCode(Key.first), Key.second), Want)
        << "list of literal code " << Key.first
        << (Key.second ? " (binary)" : "");
  // The replayed solver still decides the formula.
  EXPECT_EQ(S.solve(), LBool::True);
}
