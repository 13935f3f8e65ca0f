//===- maxsat_test.cpp - Partial MaxSAT unit & property tests ----------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "maxsat/MaxSat.h"

#include "maxsat/Cardinality.h"
#include "sat/Solver.h"
#include "support/Rng.h"

#include "BruteForce.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

using namespace bugassist;

namespace {

/// A random partial MaxSAT instance whose soft weights are drawn from
/// [1, \p MaxWeight] (1: unit weights).
MaxSatInstance randomInstance(Rng &R, int NumVars, int NumHard, int NumSoft,
                              uint64_t MaxWeight) {
  MaxSatInstance Inst;
  Inst.NumVars = NumVars;
  auto RandomClause = [&](int Len) {
    Clause C;
    std::set<Var> Used;
    while (static_cast<int>(C.size()) < Len) {
      Var V = static_cast<Var>(R.below(NumVars));
      if (!Used.insert(V).second)
        continue;
      C.push_back(mkLit(V, R.chance(1, 2)));
    }
    return C;
  };
  for (int I = 0; I < NumHard; ++I)
    Inst.Hard.push_back(RandomClause(static_cast<int>(R.range(1, 3))));
  for (int I = 0; I < NumSoft; ++I) {
    SoftClause S;
    S.Lits = RandomClause(static_cast<int>(R.range(1, 2)));
    S.Weight = MaxWeight > 1 ? 1 + R.below(MaxWeight) : 1;
    Inst.Soft.push_back(std::move(S));
  }
  return Inst;
}

} // namespace

// --- cardinality encodings --------------------------------------------------

namespace {

/// Counts models of the clauses produced by an encoder, projected onto the
/// first NumVars variables, that satisfy a predicate.
template <typename Pred>
void forEachProjectedModel(int NumVars,
                           const std::vector<Clause> &EncoderClauses,
                           int TotalVars, Pred &&Check) {
  for (uint64_t Mask = 0; Mask < (1ull << NumVars); ++Mask) {
    // The encoding must be *satisfiable consistently with Mask* iff the
    // constraint holds for Mask. Use the solver with assumptions.
    Solver S;
    S.ensureVars(TotalVars);
    bool Ok = true;
    for (const Clause &C : EncoderClauses)
      Ok = Ok && S.addClause(C);
    std::vector<Lit> Assumps;
    for (int V = 0; V < NumVars; ++V)
      Assumps.push_back(mkLit(V, !((Mask >> V) & 1)));
    bool Sat = Ok && S.solve(Assumps) == LBool::True;
    Check(Mask, Sat);
  }
}

} // namespace

TEST(Cardinality, AtMostOnePairwise) {
  for (int N : {2, 3, 4, 5}) {
    std::vector<Clause> Out;
    int NextVar = N;
    ClauseSink Sink{[&Out](Clause C) { Out.push_back(std::move(C)); },
                    [&NextVar]() { return NextVar++; }};
    std::vector<Lit> Ls;
    for (int I = 0; I < N; ++I)
      Ls.push_back(mkLit(I));
    encodeAtMostOne(Ls, Sink);
    forEachProjectedModel(N, Out, NextVar, [&](uint64_t Mask, bool Sat) {
      EXPECT_EQ(Sat, __builtin_popcountll(Mask) <= 1)
          << "n=" << N << " mask=" << Mask;
    });
  }
}

TEST(Cardinality, AtMostOneLadder) {
  for (int N : {6, 8, 10}) {
    std::vector<Clause> Out;
    int NextVar = N;
    ClauseSink Sink{[&Out](Clause C) { Out.push_back(std::move(C)); },
                    [&NextVar]() { return NextVar++; }};
    std::vector<Lit> Ls;
    for (int I = 0; I < N; ++I)
      Ls.push_back(mkLit(I));
    encodeAtMostOne(Ls, Sink);
    forEachProjectedModel(N, Out, NextVar, [&](uint64_t Mask, bool Sat) {
      EXPECT_EQ(Sat, __builtin_popcountll(Mask) <= 1)
          << "n=" << N << " mask=" << Mask;
    });
  }
}

TEST(Cardinality, ExactlyOne) {
  for (int N : {1, 3, 7}) {
    std::vector<Clause> Out;
    int NextVar = N;
    ClauseSink Sink{[&Out](Clause C) { Out.push_back(std::move(C)); },
                    [&NextVar]() { return NextVar++; }};
    std::vector<Lit> Ls;
    for (int I = 0; I < N; ++I)
      Ls.push_back(mkLit(I));
    encodeExactlyOne(Ls, Sink);
    forEachProjectedModel(N, Out, NextVar, [&](uint64_t Mask, bool Sat) {
      EXPECT_EQ(Sat, __builtin_popcountll(Mask) == 1)
          << "n=" << N << " mask=" << Mask;
    });
  }
}

// --- MaxSAT solvers -----------------------------------------------------------

TEST(FuMalik, AllSoftSatisfiable) {
  MaxSatInstance Inst;
  Inst.NumVars = 2;
  Inst.Soft.push_back({{mkLit(0)}, 1});
  Inst.Soft.push_back({{mkLit(1)}, 1});
  auto R = solveFuMalik(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 0u);
  EXPECT_TRUE(R.FalsifiedSoft.empty());
}

TEST(FuMalik, TwoContradictorySoft) {
  MaxSatInstance Inst;
  Inst.NumVars = 1;
  Inst.Soft.push_back({{mkLit(0)}, 1});
  Inst.Soft.push_back({{~mkLit(0)}, 1});
  auto R = solveFuMalik(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 1u);
  EXPECT_EQ(R.FalsifiedSoft.size(), 1u);
}

TEST(FuMalik, HardUnsatDetected) {
  MaxSatInstance Inst;
  Inst.NumVars = 1;
  Inst.Hard.push_back({mkLit(0)});
  Inst.Hard.push_back({~mkLit(0)});
  Inst.Soft.push_back({{mkLit(0)}, 1});
  auto R = solveFuMalik(Inst);
  EXPECT_EQ(R.Status, MaxSatStatus::HardUnsat);
}

TEST(FuMalik, HardForcesSoftViolation) {
  // Hard: x. Soft: ~x, y, ~y. Optimum 2 (must falsify ~x and one of y/~y).
  MaxSatInstance Inst;
  Inst.NumVars = 2;
  Inst.Hard.push_back({mkLit(0)});
  Inst.Soft.push_back({{~mkLit(0)}, 1});
  Inst.Soft.push_back({{mkLit(1)}, 1});
  Inst.Soft.push_back({{~mkLit(1)}, 1});
  auto R = solveFuMalik(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 2u);
}

TEST(FuMalik, SelectorLocalizationShape) {
  // The BugAssist shape: hard statement clauses guarded by selectors,
  // contradictory data; MaxSAT must falsify exactly the "buggy" selector.
  // Statements: s1: x=1, s2: y=x+1 (as y=2), s3: assert y==3 (hard).
  // Encoded propositionally: sel1 -> x1, sel2 -> (x1 <-> y2false...)
  // Simplified Boolean model: hard: (y3), sel2 -> (y3 <-> x... )
  // Use: hard (a), soft sel1 with sel1->(b), soft sel2 with sel2->(b -> ~a).
  // Then sel1 & sel2 & a is UNSAT; dropping either selector fixes it; the
  // optimum cost is 1.
  MaxSatInstance Inst;
  Inst.NumVars = 4; // a=0 b=1 sel1=2 sel2=3
  Lit A = mkLit(0), B = mkLit(1), S1 = mkLit(2), S2 = mkLit(3);
  Inst.Hard.push_back({A});
  Inst.Hard.push_back({~S1, B});
  Inst.Hard.push_back({~S2, ~B, ~A});
  Inst.Soft.push_back({{S1}, 1});
  Inst.Soft.push_back({{S2}, 1});
  auto R = solveFuMalik(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 1u);
  ASSERT_EQ(R.FalsifiedSoft.size(), 1u);
}

// --- weighted cores ---------------------------------------------------------

TEST(WeightedFuMalik, MatchesSmallOptimum) {
  MaxSatInstance Inst;
  Inst.NumVars = 2;
  Inst.Hard.push_back({mkLit(0)});
  Inst.Soft.push_back({{~mkLit(0)}, 7});
  Inst.Soft.push_back({{mkLit(1)}, 2});
  auto R = solveFuMalik(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 7u);
}

TEST(WeightedFuMalik, WeightedPrefersCheaperViolation) {
  // x and ~x soft with weights 1 and 10: falsify the weight-1 clause.
  MaxSatInstance Inst;
  Inst.NumVars = 1;
  Inst.Soft.push_back({{mkLit(0)}, 1});
  Inst.Soft.push_back({{~mkLit(0)}, 10});
  auto R = solveFuMalik(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 1u);
  ASSERT_EQ(R.FalsifiedSoft.size(), 1u);
  EXPECT_EQ(R.FalsifiedSoft[0], 0u);
}

TEST(WeightedFuMalik, HardUnsat) {
  MaxSatInstance Inst;
  Inst.NumVars = 1;
  Inst.Hard.push_back({mkLit(0)});
  Inst.Hard.push_back({~mkLit(0)});
  auto R = solveFuMalik(Inst);
  EXPECT_EQ(R.Status, MaxSatStatus::HardUnsat);
}

TEST(WeightedFuMalik, LoopWeightShape) {
  // The Section 5.2 shape: iterations kappa=1..3 get weights
  // alpha+eta-kappa = 4,3,2 (alpha=2, eta=3). Hard constraints force at
  // least one iteration selector off; the solver must drop the *latest*
  // (cheapest) iteration.
  MaxSatInstance Inst;
  Inst.NumVars = 3;
  Inst.Hard.push_back({~mkLit(0), ~mkLit(1), ~mkLit(2)});
  Inst.Soft.push_back({{mkLit(0)}, 4});
  Inst.Soft.push_back({{mkLit(1)}, 3});
  Inst.Soft.push_back({{mkLit(2)}, 2});
  auto R = solveFuMalik(Inst);
  ASSERT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 2u);
  ASSERT_EQ(R.FalsifiedSoft.size(), 1u);
  EXPECT_EQ(R.FalsifiedSoft[0], 2u);
}

// --- randomized differential properties -------------------------------------

struct MaxSatRandomCase {
  int NumVars;
  int NumHard;
  int NumSoft;
  uint64_t MaxWeight;
  uint64_t Seed;
};

class MaxSatRandomTest : public ::testing::TestWithParam<MaxSatRandomCase> {};

TEST_P(MaxSatRandomTest, MatchesBruteForce) {
  const auto &P = GetParam();
  Rng R(P.Seed);
  for (int Round = 0; Round < 25; ++Round) {
    MaxSatInstance Inst =
        randomInstance(R, P.NumVars, P.NumHard, P.NumSoft, P.MaxWeight);
    uint64_t Expected = bruteForceOptimum(Inst);

    auto FM = solveFuMalik(Inst);
    if (Expected == UINT64_MAX) {
      EXPECT_EQ(FM.Status, MaxSatStatus::HardUnsat);
    } else {
      ASSERT_EQ(FM.Status, MaxSatStatus::Optimum) << "round " << Round;
      EXPECT_EQ(FM.Cost, Expected) << "round " << Round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, MaxSatRandomTest,
    ::testing::Values(MaxSatRandomCase{5, 4, 6, 1, 101},
                      MaxSatRandomCase{6, 8, 8, 1, 102},
                      MaxSatRandomCase{7, 10, 10, 1, 103},
                      MaxSatRandomCase{8, 12, 10, 1, 104},
                      MaxSatRandomCase{5, 4, 6, 5, 201},
                      MaxSatRandomCase{6, 8, 8, 5, 202},
                      MaxSatRandomCase{7, 10, 10, 5, 203},
                      MaxSatRandomCase{8, 12, 10, 5, 204}));

// --- incremental engines vs. the brute-force oracle ----------------------

TEST(Incremental, FuMalikMatchesBruteForceOnFixedInstances) {
  // Unique optimum: y is forced, so (~x \/ ~y) forces x false and the only
  // minimal CoMSS is soft clause 0.
  MaxSatInstance Inst;
  Inst.NumVars = 2;
  Inst.Hard.push_back({~mkLit(0), ~mkLit(1)});
  Inst.Hard.push_back({mkLit(1)});
  Inst.Soft.push_back({{mkLit(0)}, 1});
  Inst.Soft.push_back({{mkLit(1)}, 1});

  auto Inc = solveFuMalik(Inst);
  ASSERT_EQ(Inc.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(Inc.Cost, bruteForceOptimum(Inst));
  EXPECT_EQ(Inc.FalsifiedSoft, std::vector<size_t>{0});
}

TEST(Incremental, WeightedMatchesBruteForceOnFixedInstances) {
  // At most two of x0..x2 hold; dropping the cheapest (x2, weight 2) is
  // the unique optimum.
  MaxSatInstance Inst;
  Inst.NumVars = 3;
  Inst.Hard.push_back({~mkLit(0), ~mkLit(1), ~mkLit(2)});
  Inst.Soft.push_back({{mkLit(0)}, 4});
  Inst.Soft.push_back({{mkLit(1)}, 3});
  Inst.Soft.push_back({{mkLit(2)}, 2});

  auto Inc = solveFuMalik(Inst);
  ASSERT_EQ(Inc.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(Inc.Cost, bruteForceOptimum(Inst));
  EXPECT_EQ(Inc.FalsifiedSoft, std::vector<size_t>{2});
}

TEST(Incremental, MatchesBruteForceOnRandomSweep) {
  Rng R(4242);
  for (int Round = 0; Round < 40; ++Round) {
    MaxSatInstance Inst = randomInstance(R, 7, 8, 9, Round % 2 ? 5 : 1);
    uint64_t Expected = bruteForceOptimum(Inst);
    MaxSatStatus ExpectedStatus = Expected == UINT64_MAX
                                      ? MaxSatStatus::HardUnsat
                                      : MaxSatStatus::Optimum;
    auto Inc = solveFuMalik(Inst);
    ASSERT_EQ(Inc.Status, ExpectedStatus) << "round " << Round;
    if (ExpectedStatus == MaxSatStatus::Optimum) {
      EXPECT_EQ(Inc.Cost, Expected) << "round " << Round;
    }
  }
}

TEST(Incremental, SessionEnumerationMatchesBruteForce) {
  // Drive one persistent session through blocked re-optimizations (the
  // CoMSS enumeration pattern) and check every step against the oracle
  // on the instance plus all blocking clauses.
  const int Length = 6;
  MaxSatInstance Inst;
  Inst.NumVars = (Length + 1) + Length;
  auto Y = [](int I) { return mkLit(I); };
  auto Sel = [](int I) { return mkLit(Length + I); };
  Inst.Hard.push_back({Y(0)});
  Inst.Hard.push_back({~Y(Length)});
  for (int I = 1; I <= Length; ++I) {
    Inst.Hard.push_back({~Sel(I), ~Y(I - 1), Y(I)});
    Inst.Hard.push_back({~Sel(I), Y(I - 1), ~Y(I)});
    Inst.Soft.push_back({{Sel(I)}, 1});
  }

  auto Session = makeFuMalikSession(Inst);
  MaxSatInstance Blocked = Inst; // accumulates beta for the oracle
  for (int Step = 0; Step < Length + 1; ++Step) {
    MaxSatResult Inc = Session->solve();
    uint64_t Expected = bruteForceOptimum(Blocked);
    if (Expected == UINT64_MAX) {
      EXPECT_EQ(Inc.Status, MaxSatStatus::HardUnsat) << "step " << Step;
      break;
    }
    ASSERT_EQ(Inc.Status, MaxSatStatus::Optimum) << "step " << Step;
    EXPECT_EQ(Inc.Cost, Expected) << "step " << Step;
    EXPECT_EQ(Inc.FalsifiedSoft.size(), Expected) << "step " << Step;
    ASSERT_FALSE(Inc.FalsifiedSoft.empty());
    Clause Beta;
    for (size_t I : Inc.FalsifiedSoft)
      Beta.push_back(Inst.Soft[I].Lits[0]);
    Session->addHardClause(Beta);
    Blocked.Hard.push_back(Beta);
  }
}

TEST(Incremental, WeightedSessionSurvivesBlockingClauses) {
  // Weighted session: after each blocking clause the next-cheapest
  // violation must be found on the same persistent relaxation structure
  // (optima 1, then 5, then 9, then hard-UNSAT).
  MaxSatInstance Inst;
  Inst.NumVars = 3;
  Inst.Hard.push_back({~mkLit(0), ~mkLit(1), ~mkLit(2)});
  Inst.Soft.push_back({{mkLit(0)}, 1});
  Inst.Soft.push_back({{mkLit(1)}, 5});
  Inst.Soft.push_back({{mkLit(2)}, 9});

  auto Session = makeFuMalikSession(Inst);
  auto R1 = Session->solve();
  ASSERT_EQ(R1.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R1.Cost, 1u);
  ASSERT_EQ(R1.FalsifiedSoft, std::vector<size_t>{0});

  Session->addHardClause({mkLit(0)}); // beta: statement 0 stays enabled
  auto R2 = Session->solve();
  ASSERT_EQ(R2.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R2.Cost, 5u);
  ASSERT_EQ(R2.FalsifiedSoft, std::vector<size_t>{1});

  Session->addHardClause({mkLit(1)});
  auto R3 = Session->solve();
  ASSERT_EQ(R3.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R3.Cost, 9u);
  ASSERT_EQ(R3.FalsifiedSoft, std::vector<size_t>{2});

  Session->addHardClause({mkLit(2)});
  auto R4 = Session->solve();
  EXPECT_EQ(R4.Status, MaxSatStatus::HardUnsat);
}

TEST(Incremental, CanonicalSessionsMatchTheOracleUnderBlockingClauses) {
  // The canonical optimum (cost, falsified set, hard-UNSAT) of one session
  // against bruteForceCanonical on the instance plus every blocking clause
  // so far, for unit weights, small weights, and weights far beyond any
  // counter width. Each blocking clause asks for one of the falsified soft
  // clauses to hold, as Algorithm 1's beta does.
  int Solves = 0, Blocked = 0;
  for (uint64_t MaxWeight : {1ull, 9ull, 1000000ull}) {
    Rng R(6100 + MaxWeight);
    for (int Round = 0; Round < 30; ++Round) {
      MaxSatInstance Inst = randomInstance(R, 7, 6, 9, MaxWeight);
      auto Session = makeFuMalikSession(Inst);
      for (int Step = 0; Step <= 6; ++Step) {
        BruteForceAnswer Expected = bruteForceCanonical(Inst);
        MaxSatResult Got = Session->solve();
        ++Solves;
        std::string Where = "weights <= " + std::to_string(MaxWeight) +
                            ", round " + std::to_string(Round) + ", step " +
                            std::to_string(Step);
        if (Expected.HardUnsat) {
          EXPECT_EQ(Got.Status, MaxSatStatus::HardUnsat) << Where;
          break;
        }
        ASSERT_EQ(Got.Status, MaxSatStatus::Optimum) << Where;
        EXPECT_EQ(Got.Cost, Expected.Cost) << Where;
        EXPECT_EQ(Got.FalsifiedSoft, Expected.FalsifiedSoft) << Where;
        if (Got.FalsifiedSoft.empty() || Step == 6)
          break;
        Clause Beta;
        for (size_t I : Got.FalsifiedSoft)
          Beta.insert(Beta.end(), Inst.Soft[I].Lits.begin(),
                      Inst.Soft[I].Lits.end());
        Session->addHardClause(Beta);
        Inst.Hard.push_back(std::move(Beta));
        ++Blocked;
      }
    }
  }
  // The sweep must exercise re-optimization, not just first solves.
  EXPECT_GT(Blocked, 100);
  EXPECT_GT(Solves, Blocked);
}

namespace {

/// Solves \p Inst with preprocessing on and off and checks the canonical
/// optimum against bruteForceCanonical, which must itself falsify exactly
/// \p Expected (the case the caller built).
void expectCanonical(const MaxSatInstance &Inst,
                     const std::vector<size_t> &Expected) {
  BruteForceAnswer Oracle = bruteForceCanonical(Inst);
  ASSERT_FALSE(Oracle.HardUnsat);
  ASSERT_EQ(Oracle.FalsifiedSoft, Expected);
  for (bool Preprocess : {true, false}) {
    Solver::Options O;
    O.Preprocess = Preprocess;
    O.PreprocessMinClauses = 0;
    MaxSatResult Got = solveFuMalik(Inst, 0, O);
    ASSERT_EQ(Got.Status, MaxSatStatus::Optimum) << "preprocess " << Preprocess;
    EXPECT_EQ(Got.Cost, Oracle.Cost) << "preprocess " << Preprocess;
    EXPECT_EQ(Got.FalsifiedSoft, Expected) << "preprocess " << Preprocess;
    EXPECT_FALSE(Got.CanonicalTruncated);
  }
}

/// Soft units (x_i) of the given weights over variables 0..n-1.
MaxSatInstance softUnits(const std::vector<uint64_t> &Weights) {
  MaxSatInstance Inst;
  Inst.NumVars = static_cast<int>(Weights.size());
  for (size_t I = 0; I < Weights.size(); ++I)
    Inst.Soft.push_back({{mkLit(static_cast<Var>(I))}, Weights[I]});
  return Inst;
}

} // namespace

// Edge cases of the preference-ordered canonical solve: where the optimum
// falsifies the first, the last or every soft clause, where the weight
// listed after a clause exactly equals what is still owed (the tail rule
// must not fire there), and non-unit soft clauses, whose preferred
// literals are the lazily created satisfaction selectors.
TEST(CanonicalSolve, OptimumFalsifiesOnlyTheLastSoftClause) {
  for (std::vector<uint64_t> W : {std::vector<uint64_t>{1, 1, 1, 1},
                                  std::vector<uint64_t>{5, 4, 3, 2}}) {
    MaxSatInstance Inst = softUnits(W); // at most three of x0..x3
    Inst.Hard.push_back({~mkLit(0), ~mkLit(1), ~mkLit(2), ~mkLit(3)});
    expectCanonical(Inst, {3});
  }
}

TEST(CanonicalSolve, OptimumFalsifiesEverySoftClause) {
  MaxSatInstance Inst = softUnits({1, 7, 3});
  for (Var V = 0; V < 3; ++V)
    Inst.Hard.push_back({~mkLit(V)});
  expectCanonical(Inst, {0, 1, 2});
  // The same cost forced by a core instead of units: (x_i) against (~x_i).
  MaxSatInstance Pairs = softUnits({2, 2, 2});
  for (Var V = 0; V < 3; ++V)
    Pairs.Soft.push_back({{~mkLit(V)}, 1});
  expectCanonical(Pairs, {3, 4, 5});
}

TEST(CanonicalSolve, SuffixWeightEqualToTheOwedRemainder) {
  // x0 excludes x1 and x2: falsify {0} or {1, 2}, both cost 2. At clause
  // 0 the weight after it (2) equals what is owed (2), so it is decided
  // true and {1, 2} is canonical.
  MaxSatInstance First = softUnits({2, 1, 1});
  First.Hard.push_back({~mkLit(0), ~mkLit(1)});
  First.Hard.push_back({~mkLit(0), ~mkLit(2)});
  expectCanonical(First, {1, 2});
  // x2 excludes x0 and x1: falsify {2} or {0, 1}, both cost 2. Nothing is
  // falsified before clause 1 and the weight after it (2) equals the owed
  // 2: it is decided true, and {2} is canonical.
  MaxSatInstance Second = softUnits({1, 1, 2});
  Second.Hard.push_back({~mkLit(2), ~mkLit(0)});
  Second.Hard.push_back({~mkLit(2), ~mkLit(1)});
  expectCanonical(Second, {2});
}

TEST(CanonicalSolve, NonUnitSoftClausesUseSatisfactionSelectors) {
  // The four binary clauses over x0, x1: every assignment falsifies
  // exactly the one clause that excludes it. With unit weights the last
  // is canonical; weighting it 5 moves the optimum to the third.
  MaxSatInstance Inst;
  Inst.NumVars = 2;
  Inst.Soft.push_back({{mkLit(0), mkLit(1)}, 1});
  Inst.Soft.push_back({{~mkLit(0), mkLit(1)}, 1});
  Inst.Soft.push_back({{mkLit(0), ~mkLit(1)}, 1});
  Inst.Soft.push_back({{~mkLit(0), ~mkLit(1)}, 1});
  expectCanonical(Inst, {3});
  Inst.Soft[3].Weight = 5;
  expectCanonical(Inst, {2});

  // Random instances whose soft clauses all have two or three literals.
  int Checked = 0;
  for (uint64_t MaxWeight : {1ull, 9ull}) {
    Rng R(7300 + MaxWeight);
    for (int Round = 0; Round < 40; ++Round) {
      MaxSatInstance Rand;
      Rand.NumVars = 5;
      for (int I = 0; I < 18; ++I) {
        std::vector<Clause> One = bugassist::randomInstance(
            R, Rand.NumVars, 1, static_cast<int>(R.range(2, 3)));
        if (I < 4)
          Rand.Hard.push_back(One[0]);
        else
          Rand.Soft.push_back({One[0], 1 + R.below(MaxWeight)});
      }
      BruteForceAnswer Oracle = bruteForceCanonical(Rand);
      if (Oracle.HardUnsat)
        continue;
      expectCanonical(Rand, Oracle.FalsifiedSoft);
      Checked += !Oracle.FalsifiedSoft.empty();
    }
  }
  EXPECT_GT(Checked, 30);
}

// --- anytime bounds under resource budgets -----------------------------------

namespace {

/// Cost of \p Model on \p Inst: sum of soft weights the model falsifies.
uint64_t modelCost(const MaxSatInstance &Inst,
                   const std::vector<LBool> &Model) {
  uint64_t Cost = 0;
  for (const SoftClause &S : Inst.Soft)
    if (!clauseSatisfied(S.Lits, Model))
      Cost += S.Weight;
  return Cost;
}

/// N contradictory soft pairs (x_i) / (~x_i), all weight 1: every model
/// costs exactly N, so the optimum is N and Fu-Malik needs N rounds.
MaxSatInstance contradictoryPairs(int N) {
  MaxSatInstance Inst;
  Inst.NumVars = N;
  for (int I = 0; I < N; ++I) {
    Inst.Soft.push_back({{mkLit(I)}, 1});
    Inst.Soft.push_back({{~mkLit(I)}, 1});
  }
  return Inst;
}

/// Appends PHP(Holes + 1, Holes) with ALL clauses soft (weight 1) on fresh
/// variables: its minimal relaxation costs exactly 1, but finding the core
/// requires the full exponential pigeonhole refutation.
void appendSoftPigeonhole(MaxSatInstance &Inst, int Holes) {
  int Base = Inst.NumVars;
  int Pigeons = Holes + 1;
  auto VarOf = [&](int P, int H) { return Base + P * Holes + H; };
  Inst.NumVars += Pigeons * Holes;
  for (int P = 0; P < Pigeons; ++P) {
    Clause C;
    for (int H = 0; H < Holes; ++H)
      C.push_back(mkLit(VarOf(P, H)));
    Inst.Soft.push_back({std::move(C), 1});
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        Inst.Soft.push_back(
            {{~mkLit(VarOf(P1, H)), ~mkLit(VarOf(P2, H))}, 1});
}

} // namespace

TEST(Anytime, OptimumCarriesTightBoundsAndWitness) {
  Rng R(9001);
  for (int Round = 0; Round < 15; ++Round) {
    MaxSatInstance Inst = randomInstance(R, 7, 6, 9, Round % 2 ? 5 : 1);
    auto Res = solveFuMalik(Inst);
    if (Res.Status == MaxSatStatus::HardUnsat) {
      EXPECT_EQ(Res.LowerBound, UINT64_MAX);
      EXPECT_EQ(Res.UpperBound, UINT64_MAX);
      continue;
    }
    ASSERT_EQ(Res.Status, MaxSatStatus::Optimum);
    EXPECT_EQ(Res.LowerBound, Res.Cost);
    EXPECT_EQ(Res.UpperBound, Res.Cost);
    EXPECT_EQ(Res.BestModel, Res.Model);
  }
}

TEST(Anytime, BudgetedFuMalikReturnsSoundBoundsAndRecovers) {
  // 12 contradictory pairs (each core found in a couple of propagations)
  // plus a soft pigeonhole whose single core needs the full exponential
  // refutation. With a 1-conflict cap the cheap pair rounds finish before
  // the amortized poll (every 1024 search iterations) first fires, then
  // the pigeonhole round blows well past it: the session must hand back
  // Unknown with a sound bracket and a hard-satisfying witness.
  const uint64_t Pairs = 12, Optimum = Pairs + 1;
  MaxSatInstance Inst = contradictoryPairs(static_cast<int>(Pairs));
  appendSoftPigeonhole(Inst, /*Holes=*/6);
  auto Session = makeFuMalikSession(Inst);
  Solver::Budget B;
  B.MaxConflicts = 1;
  Session->setBudget(B);
  MaxSatResult R = Session->solve();
  ASSERT_EQ(R.Status, MaxSatStatus::Unknown);
  EXPECT_GT(R.LowerBound, 0u) << "some rounds should complete before poll";
  EXPECT_LE(R.LowerBound, Optimum);
  ASSERT_NE(R.UpperBound, UINT64_MAX) << "harvest produced no witness";
  ASSERT_FALSE(R.BestModel.empty());
  EXPECT_EQ(modelCost(Inst, R.BestModel), R.UpperBound);
  EXPECT_GE(R.UpperBound, Optimum);

  // clearBudget re-arms the SAME session; it must then reach the optimum
  // inside the bracket it reported while budgeted.
  Session->clearBudget();
  MaxSatResult R2 = Session->solve();
  ASSERT_EQ(R2.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R2.Cost, Optimum);
  EXPECT_GE(R2.Cost, R.LowerBound);
  EXPECT_LE(R2.Cost, R.UpperBound);
}

TEST(Anytime, BudgetedBoundsBracketTheTrueOptimumOnRandomSweep) {
  // Soundness of the anytime contract against the brute-force oracle:
  // whatever a budget-starved session reports, the true optimum must lie
  // within [LowerBound, UpperBound] and BestModel must witness UpperBound.
  Rng R(777);
  int Exhausted = 0;
  for (int Round = 0; Round < 20; ++Round) {
    MaxSatInstance Inst = randomInstance(R, 7, 8, 9, Round % 2 ? 5 : 1);
    uint64_t Expected = bruteForceOptimum(Inst);
    auto Session = makeFuMalikSession(Inst);
    // An already-expired deadline: the optimizing search stops at its very
    // first poll, so only the harvest pass (which runs budget-free) can
    // contribute a witness.
    Solver::Budget B;
    B.setDeadlineIn(0.0);
    Session->setBudget(B);
    MaxSatResult Res = Session->solve();
    switch (Res.Status) {
    case MaxSatStatus::Optimum:
      EXPECT_EQ(Res.Cost, Expected) << "round " << Round;
      break;
    case MaxSatStatus::HardUnsat:
      EXPECT_EQ(Expected, UINT64_MAX) << "round " << Round;
      break;
    case MaxSatStatus::Unknown:
      ++Exhausted;
      EXPECT_LE(Res.LowerBound, Expected) << "round " << Round;
      EXPECT_GE(Res.UpperBound, Expected) << "round " << Round;
      if (Expected == UINT64_MAX) {
        // Hard part unsatisfiable: no witness can exist.
        EXPECT_EQ(Res.UpperBound, UINT64_MAX) << "round " << Round;
        EXPECT_TRUE(Res.BestModel.empty()) << "round " << Round;
      } else if (Res.UpperBound != UINT64_MAX) {
        ASSERT_FALSE(Res.BestModel.empty()) << "round " << Round;
        EXPECT_EQ(modelCost(Inst, Res.BestModel), Res.UpperBound)
            << "round " << Round;
      }
      break;
    }
  }
  // The sweep is only meaningful if the budget actually bit somewhere.
  EXPECT_GT(Exhausted, 0) << "no round exhausted its budget";
}

TEST(MaxSat, FalsifiedSoftConsistentWithCost) {
  Rng R(555);
  for (int Round = 0; Round < 20; ++Round) {
    MaxSatInstance Inst = randomInstance(R, 7, 6, 9, 5);
    auto Res = solveFuMalik(Inst);
    if (Res.Status != MaxSatStatus::Optimum)
      continue;
    uint64_t Sum = 0;
    for (size_t I : Res.FalsifiedSoft)
      Sum += Inst.Soft[I].Weight;
    EXPECT_EQ(Sum, Res.Cost);
    // Every clause not reported falsified must be satisfied by the model.
    for (size_t I = 0; I < Inst.Soft.size(); ++I) {
      bool Reported = std::find(Res.FalsifiedSoft.begin(),
                                Res.FalsifiedSoft.end(),
                                I) != Res.FalsifiedSoft.end();
      EXPECT_EQ(!clauseSatisfied(Inst.Soft[I].Lits, Res.Model), Reported);
    }
  }
}

// --- witness models -----------------------------------------------------------

namespace {

/// Every SolverStats counter but ModelRebuilds, which is the one a witness
/// readout changes.
auto searchCounters(const SolverStats &S) {
  return std::make_tuple(S.Conflicts, S.Decisions, S.Propagations, S.Restarts,
                         S.RestartsBlocked, S.LearnedClauses,
                         S.DeletedClauses, S.GcRuns, S.LbdSum, S.LbdCount,
                         S.LbdTightened, S.VarsEliminated, S.ClausesSubsumed,
                         S.LitsSelfSubsumed, S.ReconstructBytes);
}

/// Solves \p Inst with and without a witness under \p Budget (the
/// canonical solve runs too), and checks that the witness changes
/// nothing but Model, BestModel and the rebuild count. \returns the
/// witness-free result.
MaxSatResult solveWithAndWithoutWitness(MaxSatInstance Inst,
                                        const Solver::Budget &Budget) {
  MaxSatResult Res[2];
  for (bool Witness : {true, false}) {
    Inst.Witness = Witness;
    auto Session = makeFuMalikSession(Inst);
    if (!Budget.unlimited())
      Session->setBudget(Budget);
    Res[Witness] = Session->solve();
  }
  const MaxSatResult &On = Res[1], &Off = Res[0];
  EXPECT_EQ(Off.Status, On.Status);
  EXPECT_EQ(Off.Cost, On.Cost);
  EXPECT_EQ(Off.FalsifiedSoft, On.FalsifiedSoft);
  EXPECT_EQ(Off.SatCalls, On.SatCalls);
  EXPECT_EQ(Off.LowerBound, On.LowerBound);
  EXPECT_EQ(Off.UpperBound, On.UpperBound);
  EXPECT_EQ(Off.CanonicalTruncated, On.CanonicalTruncated);
  EXPECT_EQ(searchCounters(Off.Search), searchCounters(On.Search));
  EXPECT_TRUE(Off.Model.empty());
  EXPECT_TRUE(Off.BestModel.empty());
  EXPECT_EQ(Off.Search.ModelRebuilds, 0u);
  if (On.UpperBound != UINT64_MAX) {
    // The witness pays the one rebuild, and witnesses the reported cost.
    EXPECT_GT(On.Search.VarsEliminated, 0u);
    EXPECT_EQ(On.Search.ModelRebuilds, 1u);
    EXPECT_EQ(On.BestModel.size(), static_cast<size_t>(Inst.NumVars));
    EXPECT_TRUE(Inst.forEachHard([&](ClauseView C) {
      return clauseSatisfied(C.vec(), On.BestModel);
    }));
    EXPECT_EQ(modelCost(Inst, On.BestModel), On.UpperBound);
  }
  return Off;
}

/// Buffered soft pigeonhole: each variable of PHP(Holes + 1, Holes) heads a
/// chain of \p Buffer hard-equivalent variables, which preprocessing
/// eliminates, so a witness has variables to rebuild.
MaxSatInstance bufferedSoftPigeonhole(int Holes, int Buffer) {
  MaxSatInstance Inst;
  appendSoftPigeonhole(Inst, Holes);
  int Slots = Inst.NumVars;
  for (Var V = 0; V < Slots; ++V) {
    Var Prev = V;
    for (int B = 0; B < Buffer; ++B) {
      Var Next = Inst.NumVars++;
      Inst.Hard.push_back({~mkLit(Prev), mkLit(Next)});
      Inst.Hard.push_back({mkLit(Prev), ~mkLit(Next)});
      Prev = Next;
    }
  }
  return Inst;
}

} // namespace

TEST(Witness, ClearedWitnessChangesNothingButTheModels) {
  // Optimum: the witness costs exactly one rebuild. Soft PHP(5, 4) costs
  // 1, and dropping its last clause -- the at-most-one of pigeons 3 and 4
  // in hole 3 -- leaves it satisfiable, so that clause is the canonical
  // CoMSS.
  MaxSatInstance Php5 = bufferedSoftPigeonhole(/*Holes=*/4, /*Buffer=*/3);
  MaxSatResult Opt = solveWithAndWithoutWitness(Php5, Solver::Budget());
  EXPECT_EQ(Opt.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(Opt.Cost, 1u);
  EXPECT_EQ(Opt.FalsifiedSoft, std::vector<size_t>{Php5.Soft.size() - 1});

  // HardUnsat: no model exists, with or without a witness.
  MaxSatInstance Unsat = bufferedSoftPigeonhole(/*Holes=*/3, /*Buffer=*/2);
  Unsat.Hard.push_back({mkLit(0)});
  Unsat.Hard.push_back({~mkLit(0)});
  EXPECT_EQ(solveWithAndWithoutWitness(Unsat, Solver::Budget()).Status,
            MaxSatStatus::HardUnsat);

  // Unknown: the anytime upper bound is still reported without a witness.
  MaxSatInstance Hard = contradictoryPairs(12);
  MaxSatInstance Php = bufferedSoftPigeonhole(/*Holes=*/6, /*Buffer=*/2);
  for (SoftClause SC : Php.Soft) {
    for (Lit &L : SC.Lits)
      L = mkLit(L.var() + Hard.NumVars, L.negated());
    Hard.Soft.push_back(std::move(SC));
  }
  for (Clause C : Php.Hard) {
    for (Lit &L : C)
      L = mkLit(L.var() + Hard.NumVars, L.negated());
    Hard.Hard.push_back(std::move(C));
  }
  Hard.NumVars += Php.NumVars;
  Solver::Budget B;
  B.MaxConflicts = 1;
  MaxSatResult Starved = solveWithAndWithoutWitness(Hard, B);
  ASSERT_EQ(Starved.Status, MaxSatStatus::Unknown);
  EXPECT_NE(Starved.UpperBound, UINT64_MAX);
  EXPECT_GT(Starved.LowerBound, 0u);
  EXPECT_LE(Starved.LowerBound, 13u); // 12 pairs + the soft pigeonhole
  EXPECT_GE(Starved.UpperBound, 13u);
}
