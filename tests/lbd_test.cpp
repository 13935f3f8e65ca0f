//===- lbd_test.cpp - LBD clause management unit & property tests ------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Covers the Glucose-style learned-clause machinery: LBD computation at
// learn time on formulas with hand-checked decision-level signatures,
// three-tier reduceDB retention (core clauses survive every reduction),
// LBD preservation across relocating arena GC, EMA restart triggering,
// trail-EMA restart blocking, and the incremental re-refutation win of
// tier retention.
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "cnf/Cnf.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace bugassist;

namespace {

/// PHP(Holes+1, Holes): UNSAT, forces real conflict analysis and learning.
void addPigeonhole(Solver &S, int Holes) {
  int Pigeons = Holes + 1;
  auto VarOf = [Holes](int P, int H) { return P * Holes + H; };
  S.ensureVars(Pigeons * Holes);
  for (int P = 0; P < Pigeons; ++P) {
    Clause C;
    for (int H = 0; H < Holes; ++H)
      C.push_back(mkLit(VarOf(P, H)));
    S.addClause(C);
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause({~mkLit(VarOf(P1, H)), ~mkLit(VarOf(P2, H))});
}

} // namespace

// Two assumption levels feed the conflict: a@1 implies x, b@2 implies y,
// and {~x,~y,z} / {~x,~y,~z} clash at level 2. First-UIP learns (~y \/ ~x)
// whose literals sit at levels {2, 1}: LBD must be exactly 2.
TEST(Lbd, HandCheckedTwoLevelSignature) {
  // Preprocessing off: variable elimination would resolve away x/z and
  // decide the formula without any conflict, and this test is about the
  // exact learnt clause of an unsimplified search.
  Solver::Options O;
  O.Preprocess = false;
  Solver S{O};
  Var A = S.newVar(), B = S.newVar(), X = S.newVar(), Y = S.newVar(),
      Z = S.newVar();
  ASSERT_TRUE(S.addClause({~mkLit(A), mkLit(X)}));
  ASSERT_TRUE(S.addClause({~mkLit(B), mkLit(Y)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), ~mkLit(Y), mkLit(Z)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), ~mkLit(Y), ~mkLit(Z)}));
  ASSERT_EQ(S.solve({mkLit(A), mkLit(B)}), LBool::False);
  ASSERT_EQ(S.stats().LearnedClauses, 1u);
  EXPECT_EQ(S.stats().LbdSum, 2u);
  std::vector<uint32_t> Lbds = S.learntLbds();
  ASSERT_EQ(Lbds.size(), 1u);
  EXPECT_EQ(Lbds[0], 2u);
  // Binary and LBD <= 3: lands in the permanent core tier.
  EXPECT_EQ(S.stats().CoreLearnts, 1u);
  EXPECT_EQ(S.stats().MidLearnts + S.stats().LocalLearnts, 0u);
}

// Three assumption levels: a@1 -> x, b@2 -> y, c@3 -> w, then
// {~x,~y,~w,z} / {~x,~y,~w,~z} clash at level 3. The first-UIP clause is
// (~w \/ ~x \/ ~y) with level signature {3, 1, 2}: LBD exactly 3.
TEST(Lbd, HandCheckedThreeLevelSignature) {
  Solver::Options O;
  O.Preprocess = false; // as above: keep the hand-checked search intact
  Solver S{O};
  Var A = S.newVar(), B = S.newVar(), C = S.newVar(), X = S.newVar(),
      Y = S.newVar(), W = S.newVar(), Z = S.newVar();
  ASSERT_TRUE(S.addClause({~mkLit(A), mkLit(X)}));
  ASSERT_TRUE(S.addClause({~mkLit(B), mkLit(Y)}));
  ASSERT_TRUE(S.addClause({~mkLit(C), mkLit(W)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), ~mkLit(Y), ~mkLit(W), mkLit(Z)}));
  ASSERT_TRUE(S.addClause({~mkLit(X), ~mkLit(Y), ~mkLit(W), ~mkLit(Z)}));
  ASSERT_EQ(S.solve({mkLit(A), mkLit(B), mkLit(C)}), LBool::False);
  ASSERT_EQ(S.stats().LearnedClauses, 1u);
  EXPECT_EQ(S.stats().LbdSum, 3u);
  std::vector<uint32_t> Lbds = S.learntLbds();
  ASSERT_EQ(Lbds.size(), 1u);
  EXPECT_EQ(Lbds[0], 3u);
  EXPECT_EQ(S.stats().CoreLearnts, 1u); // LBD 3 <= default core cut
}

// Core clauses (LBD <= 3 and binaries) survive arbitrarily many reductions;
// repeated reduceDB calls must never shrink the core population.
TEST(Lbd, ReduceDbKeepsCoreTier) {
  Solver S;
  addPigeonhole(S, 6);
  ASSERT_EQ(S.solve(), LBool::False);
  ASSERT_GT(S.stats().LearnedClauses, 0u);

  auto CountAtMost = [](const std::vector<uint32_t> &Lbds, uint32_t Cut) {
    return std::count_if(Lbds.begin(), Lbds.end(),
                         [Cut](uint32_t L) { return L <= Cut; });
  };
  std::vector<uint32_t> Before = S.learntLbds();
  auto CoreBefore = CountAtMost(Before, 3);
  uint64_t CoreGaugeBefore = S.stats().CoreLearnts;
  ASSERT_GT(CoreGaugeBefore, 0u);

  for (int I = 0; I < 5; ++I)
    S.reduceLearntDb();

  std::vector<uint32_t> After = S.learntLbds();
  // Tightening during analysis can only promote into the cut, never out.
  EXPECT_GE(CountAtMost(After, 3), CoreBefore)
      << "core-tier clauses were deleted by reduceDB";
  EXPECT_GE(S.stats().CoreLearnts, CoreGaugeBefore);
  EXPECT_LE(After.size(), Before.size());
  // The gauges agree with the live clause count.
  EXPECT_EQ(S.stats().CoreLearnts + S.stats().MidLearnts +
                S.stats().LocalLearnts,
            After.size());
}

// With a tiny reduction trigger the solver reduces aggressively mid-search;
// deletions must actually happen and never change answers.
TEST(Lbd, AggressiveReductionStaysSound) {
  Solver::Options O;
  O.MaxLearntsBase = 20;
  Solver S(O);
  addPigeonhole(S, 7);
  EXPECT_EQ(S.solve(), LBool::False);
  EXPECT_GT(S.stats().DeletedClauses, 0u);
  EXPECT_GT(S.stats().LearnedClauses, 0u);
}

// Relocating arena GC must carry the LBD word: the multiset of live learnt
// LBDs is invariant under collection, and the solver keeps working.
TEST(Lbd, GarbageCollectionPreservesLbd) {
  Solver S;
  addPigeonhole(S, 6);
  ASSERT_EQ(S.solve(), LBool::False);
  S.reduceLearntDb(); // create arena waste

  std::vector<uint32_t> Before = S.learntLbds();
  std::sort(Before.begin(), Before.end());
  uint64_t Gc = S.stats().GcRuns;
  S.forceGarbageCollect();
  EXPECT_EQ(S.stats().GcRuns, Gc + 1);
  std::vector<uint32_t> After = S.learntLbds();
  std::sort(After.begin(), After.end());
  EXPECT_EQ(Before, After) << "GC relocation lost or corrupted LBDs";

  // Watches and reasons survived relocation: the instance still refutes.
  EXPECT_EQ(S.solve(), LBool::False);
}

// A margin of 0 makes a restart pending after the first conflict, so the
// EMA policy must restart every RestartMinConflicts conflicts.
TEST(Lbd, EmaRestartsFire) {
  Solver::Options O;
  O.RestartMargin = 0.0;
  O.RestartMinConflicts = 10;
  Solver S(O);
  addPigeonhole(S, 6);
  ASSERT_EQ(S.solve(), LBool::False);
  ASSERT_GT(S.stats().Conflicts, 20u);
  EXPECT_GT(S.stats().Restarts, 0u);
  EXPECT_GE(S.stats().Restarts, S.stats().Conflicts / 10 / 2)
      << "EMA restarts fired far less often than the forced cadence";
}

// A blocking margin of 0 cancels every pending restart at every conflict:
// restarts stay at zero while the blocked counter climbs.
TEST(Lbd, TrailEmaBlocksRestarts) {
  Solver::Options O;
  O.RestartMargin = 0.0; // every conflict makes a restart pending
  O.RestartMinConflicts = 10;
  O.BlockMargin = 0.0; // every conflict blocks it again
  O.BlockMinConflicts = 0;
  Solver S(O);
  addPigeonhole(S, 6);
  ASSERT_EQ(S.solve(), LBool::False);
  ASSERT_GT(S.stats().Conflicts, 10u);
  EXPECT_EQ(S.stats().Restarts, 0u);
  EXPECT_GT(S.stats().RestartsBlocked, 0u);
}

// Incremental MaxSAT-style reuse under the tier policy: repeated refutation
// of the same assumptions gets cheaper because retained (core) clauses
// short-circuit the proof, exactly the property PR 1 built on.
TEST(Lbd, TierRetentionKeepsIncrementalWin) {
  const int Holes = 6, Pigeons = Holes + 1;
  Solver S; // default glucose policies
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
  ASSERT_GT(Conflicts1, 0u);
  ASSERT_EQ(S.solve(Assumps), LBool::False);
  EXPECT_LT(S.stats().Conflicts - Conflicts1, Conflicts1)
      << "tier retention lost the incremental re-refutation win";
  Assumps.pop_back();
  EXPECT_EQ(S.solve(Assumps), LBool::True);
}
