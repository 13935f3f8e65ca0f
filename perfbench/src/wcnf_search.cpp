//===- wcnf_search.cpp - Workload: known-optimum partial MaxSAT -----------===//
//
// Part of the BugAssist-Repro benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
//
// One op is one seeded partial MaxSAT instance, read by DimacsReader and
// solved on a width-1 session exactly as `bugassist maxsat` does. The only
// conflict-heavy workload, and the only one without a front end, so the
// cnf layer and CDCL search are measured under load here.
//
// Two families, each with its optimum known by construction:
//  * buffered soft pigeonhole PHP(p, p-1), as bench/instances/generate.py
//    builds it (every wire behind a chain of buffer equivalences): one
//    pigeon must stay out, optimum 1;
//  * a planted random 3-SAT core (hard, satisfied by a hidden assignment)
//    with q contradictory soft unit pairs (y) / (~y) over its variables:
//    every assignment falsifies exactly one clause per pair, optimum q.
// The pool of 40 instances (variable numbering, clause order, the random
// cores) is drawn from a fixed generator seed, so every run solves the same
// instances and a pass over the pool costs the same whatever the run's
// seed; the run's seed draws the order the pool is visited in. A run
// measures whole passes.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "cnf/DimacsReader.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdlib>

using namespace perfbench;
using namespace bugassist;

namespace {

/// Generator seed of the instance pool.
constexpr uint64_t PoolSeed = 20110604;

struct WcnfInstance {
  std::string Name;
  std::string Text;
  uint64_t Optimum = 0;
};

/// Clause lists in 1-based DIMACS literals, rendered with a seeded
/// variable relabeling and clause order.
struct Builder {
  int NumVars = 0;
  std::vector<std::vector<int>> Hard;
  std::vector<std::vector<int>> Soft;

  int var() { return ++NumVars; }

  std::string render(Rng &R) const {
    std::vector<size_t> Perm = seededOrder(NumVars, R.next());
    auto Lit = [&](int L) {
      int V = static_cast<int>(Perm[std::abs(L) - 1]) + 1;
      return L < 0 ? -V : V;
    };
    std::vector<std::string> Lines;
    uint64_t Top = Soft.size() + 1;
    for (const auto &C : Hard) {
      std::string S = std::to_string(Top);
      for (int L : C)
        S += ' ' + std::to_string(Lit(L));
      Lines.push_back(S + " 0\n");
    }
    for (const auto &C : Soft) {
      std::string S = "1";
      for (int L : C)
        S += ' ' + std::to_string(Lit(L));
      Lines.push_back(S + " 0\n");
    }
    std::vector<size_t> Order = seededOrder(Lines.size(), R.next());
    std::string Out = "p wcnf " + std::to_string(NumVars) + " " +
                      std::to_string(Lines.size()) + " " +
                      std::to_string(Top) + "\n";
    for (size_t I : Order)
      Out += Lines[I];
    return Out;
  }
};

WcnfInstance softPigeonhole(Rng &R, int Pigeons, int Buffers) {
  int Holes = Pigeons - 1;
  Builder B;
  std::vector<std::vector<int>> X(Pigeons, std::vector<int>(Holes));
  for (auto &Row : X)
    for (int &V : Row)
      V = B.var();
  std::vector<std::vector<int>> XB = X;
  for (auto &Row : XB)
    for (int &V : Row)
      for (int K = 0; K < Buffers; ++K) {
        int Next = B.var();
        B.Hard.push_back({-V, Next});
        B.Hard.push_back({V, -Next});
        V = Next;
      }
  for (int J = 0; J < Holes; ++J)
    for (int I1 = 0; I1 < Pigeons; ++I1)
      for (int I2 = I1 + 1; I2 < Pigeons; ++I2)
        B.Hard.push_back({-XB[I1][J], -XB[I2][J]});
  for (const auto &Row : X)
    B.Soft.push_back(Row);
  return {"php" + std::to_string(Pigeons) + "-b" + std::to_string(Buffers),
          B.render(R), 1};
}

WcnfInstance plantedCore(Rng &R, int Vars, int Pairs) {
  Builder B;
  std::vector<bool> Planted(Vars + 1);
  for (int V = 1; V <= Vars; ++V) {
    B.var();
    Planted[V] = R.chance(1, 2);
  }
  int Clauses = Vars * 36 / 10;
  while (static_cast<int>(B.Hard.size()) < Clauses) {
    std::vector<int> C;
    bool Sat = false;
    while (C.size() < 3) {
      int V = static_cast<int>(R.range(1, Vars));
      if (std::find(C.begin(), C.end(), V) != C.end() ||
          std::find(C.begin(), C.end(), -V) != C.end())
        continue;
      bool Pos = R.chance(1, 2);
      Sat = Sat || Pos == Planted[V];
      C.push_back(Pos ? V : -V);
    }
    if (Sat)
      B.Hard.push_back(C);
  }
  std::vector<size_t> Pick = seededOrder(Vars, R.next());
  for (int P = 0; P < Pairs; ++P) {
    int Y = static_cast<int>(Pick[P]) + 1;
    B.Soft.push_back({Y});
    B.Soft.push_back({-Y});
  }
  return {"planted3sat-n" + std::to_string(Vars), B.render(R),
          static_cast<uint64_t>(Pairs)};
}

/// What one solve produced, kept for the independent model check.
struct Solved {
  MaxSatInstance Inst;
  MaxSatResult Res;
  bool Parsed = false;
};

OpOutput solveInstance(const WcnfInstance &W, bool Traced, Solved &S) {
  S = Solved();
  DimacsParseError Err;
  std::optional<DimacsInstance> D;
  {
    SpanScope Span("cnf.dimacs_parse");
    D = parseDimacs(W.Text, Err);
    if (D) {
      bool AnyWeight = false;
      S.Inst = toMaxSatInstance(std::move(*D), &AnyWeight);
      S.Parsed = !AnyWeight;
    }
  }
  OpOutput Out;
  if (!S.Parsed)
    return Out;
  std::unique_ptr<MaxSatSession> Session;
  {
    SpanScope Span("maxsat.build");
    Session = makeMaxSatSession(S.Inst, /*Weighted=*/false,
                                /*ConflictBudget=*/0, Solver::Options(),
                                /*Canonical=*/true);
  }
  if (Traced) {
    {
      SpanScope Span("sat.preprocess");
      Session->solver().preprocess();
    }
    Session = std::make_unique<TimedSession>(std::move(Session));
  }
  S.Res = Session->solve();
  {
    SpanScope Span("maxsat.release");
    Session.reset();
  }
  Out.Text = W.Name + " cost=" + std::to_string(S.Res.Cost) + "\n";
  Out.Counters = "sat_calls=" + std::to_string(S.Res.SatCalls) +
                 " conflicts=" + std::to_string(S.Res.Search.Conflicts) +
                 " decisions=" + std::to_string(S.Res.Search.Decisions) +
                 " propagations=" +
                 std::to_string(S.Res.Search.Propagations);
  countSolver(S.Res.Search);
  return Out;
}

/// The optimum and the model, checked against the construction.
std::string checkSolved(const WcnfInstance &W, const Solved &S) {
  if (!S.Parsed)
    return W.Name + ": DimacsReader rejected the instance";
  if (S.Res.Status != MaxSatStatus::Optimum)
    return W.Name + ": no optimum reported";
  if (S.Res.Cost != W.Optimum)
    return W.Name + ": cost " + std::to_string(S.Res.Cost) +
           ", known optimum " + std::to_string(W.Optimum);
  for (const Clause &C : S.Inst.Hard)
    if (!clauseSatisfied(C, S.Res.Model))
      return W.Name + ": model falsifies a hard clause";
  uint64_t Falsified = 0;
  for (const SoftClause &C : S.Inst.Soft)
    Falsified += clauseSatisfied(C.Lits, S.Res.Model) ? 0 : C.Weight;
  if (Falsified != W.Optimum)
    return W.Name + ": model falsifies " + std::to_string(Falsified) +
           " soft weight, reported cost " + std::to_string(S.Res.Cost);
  return "";
}

} // namespace

RunResult perfbench::runWcnfSearch(const Args &A, const Expected &) {
  RunResult R;
  std::vector<WcnfInstance> Pool;
  auto Setup = [&] {
    Pool.clear();
    Rng Gen(PoolSeed);
    for (int I = 0; I < 8; ++I) {
      Pool.push_back(plantedCore(Gen, 300, 8));
      Pool.push_back(plantedCore(Gen, 300, 8));
      Pool.push_back(softPigeonhole(Gen, 7, 8));
      Pool.push_back(softPigeonhole(Gen, 7, 8));
      Pool.push_back(softPigeonhole(Gen, 8, 6));
    }
  };
  runSetup(A, R, Setup, 5);
  std::vector<size_t> Order = seededOrder(Pool.size(), A.Seed);

  Solved Last;
  auto Run = [&](size_t Item, bool Traced) {
    return solveInstance(Pool[Order[Item]], Traced, Last);
  };
  auto Check = [&](size_t Item, const OpOutput &) {
    std::string Bad = checkSolved(Pool[Order[Item]], Last);
    if (!Bad.empty())
      R.fail(Bad);
  };
  driveOps(A, Order.size(), Run, Check, R, /*RoundSize=*/Order.size(), Setup);
  return R;
}
