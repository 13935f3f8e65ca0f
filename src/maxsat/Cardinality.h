//===- Cardinality.h - Cardinality encodings --------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CNF encodings of cardinality constraints, the "cardinality constraints
/// used to constrain the number of relaxed clauses" of the paper's Section
/// 3.3: Fu-Malik's exactly-one over each round's relaxation literals.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_MAXSAT_CARDINALITY_H
#define BUGASSIST_MAXSAT_CARDINALITY_H

#include "cnf/Lit.h"

#include <functional>
#include <vector>

namespace bugassist {

/// Destination for generated clauses plus a fresh-variable source, so the
/// encoders work against either a CnfFormula or a Solver.
struct ClauseSink {
  std::function<void(Clause)> AddClause;
  std::function<Var()> NewVar;
};

/// Emits clauses forcing at most one of \p Lits true. Uses pairwise
/// encoding for few literals, the sequential (ladder) encoding otherwise.
void encodeAtMostOne(const std::vector<Lit> &Lits, ClauseSink &Sink);

/// Emits clauses forcing exactly one of \p Lits true (Fu-Malik relaxation
/// constraint). \p Lits must be nonempty.
void encodeExactlyOne(const std::vector<Lit> &Lits, ClauseSink &Sink);

} // namespace bugassist

#endif // BUGASSIST_MAXSAT_CARDINALITY_H
