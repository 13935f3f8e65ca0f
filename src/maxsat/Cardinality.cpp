//===- Cardinality.cpp - Cardinality encodings ----------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "maxsat/Cardinality.h"

#include <cassert>

using namespace bugassist;

void bugassist::encodeAtMostOne(const std::vector<Lit> &Lits,
                                ClauseSink &Sink) {
  size_t N = Lits.size();
  if (N <= 1)
    return;
  if (N <= 5) {
    // Pairwise: (~a \/ ~b) for every pair.
    for (size_t I = 0; I < N; ++I)
      for (size_t J = I + 1; J < N; ++J)
        Sink.AddClause({~Lits[I], ~Lits[J]});
    return;
  }
  // Sequential / ladder encoding: S_i means "some lit among the first i+1
  // is true".
  std::vector<Lit> S(N - 1);
  for (size_t I = 0; I + 1 < N; ++I)
    S[I] = mkLit(Sink.NewVar());
  Sink.AddClause({~Lits[0], S[0]});
  for (size_t I = 1; I + 1 < N; ++I) {
    Sink.AddClause({~Lits[I], S[I]});
    Sink.AddClause({~S[I - 1], S[I]});
    Sink.AddClause({~Lits[I], ~S[I - 1]});
  }
  Sink.AddClause({~Lits[N - 1], ~S[N - 2]});
}

void bugassist::encodeExactlyOne(const std::vector<Lit> &Lits,
                                 ClauseSink &Sink) {
  assert(!Lits.empty() && "exactly-one over empty set is unsatisfiable");
  Sink.AddClause(Clause(Lits.begin(), Lits.end())); // at least one
  encodeAtMostOne(Lits, Sink);
}
