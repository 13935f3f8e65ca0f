//===- Lit.h - Boolean variables and literals -------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MiniSAT-style variable and literal types shared by the CNF layer, the
/// CDCL solver, the MaxSAT solvers, and the bit blaster. A literal packs a
/// variable index and a sign into one integer: Lit = 2*Var + sign, so the
/// positive and negative literal of a variable are adjacent, which makes
/// watch lists and polarity flips branch-free.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_CNF_LIT_H
#define BUGASSIST_CNF_LIT_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace bugassist {

/// A Boolean variable is a dense 0-based index.
using Var = int32_t;

constexpr Var NullVar = -1;

/// A literal: variable plus polarity, encoded as 2*Var+sign. Sign bit set
/// means the *negative* literal.
class Lit {
public:
  constexpr Lit() : Code(-2) {}
  constexpr Lit(Var V, bool Negated) : Code(V * 2 + (Negated ? 1 : 0)) {}

  constexpr Var var() const { return Code >> 1; }
  constexpr bool negated() const { return Code & 1; }
  constexpr int32_t code() const { return Code; }

  constexpr Lit operator~() const { return fromCode(Code ^ 1); }
  constexpr bool isValid() const { return Code >= 0; }

  static constexpr Lit fromCode(int32_t C) {
    Lit L;
    L.Code = C;
    return L;
  }

  friend constexpr bool operator==(Lit A, Lit B) { return A.Code == B.Code; }
  friend constexpr bool operator!=(Lit A, Lit B) { return A.Code != B.Code; }
  friend constexpr bool operator<(Lit A, Lit B) { return A.Code < B.Code; }

  /// DIMACS rendering: 1-based, negative for negated literals.
  std::string str() const {
    return std::to_string(negated() ? -(var() + 1) : (var() + 1));
  }

private:
  int32_t Code;
};

constexpr Lit NullLit{};

/// Convenience builder for the common positive-literal case.
constexpr Lit mkLit(Var V, bool Negated = false) { return Lit(V, Negated); }

/// A clause is a disjunction of literals. At this layer it is just a vector;
/// the solver copies clauses into its own arena.
using Clause = std::vector<Lit>;

/// A read-only (pointer, size) view of a clause's literals, wherever they
/// live: a Clause, a CnfFormula's flat literal store, or a brace list. The
/// view owns nothing; the literals must outlive it.
class ClauseView {
public:
  constexpr ClauseView(const Lit *Data, size_t Size) : Data(Data), Size(Size) {}
  ClauseView(const Clause &C) : Data(C.data()), Size(C.size()) {}

  const Lit *begin() const { return Data; }
  const Lit *end() const { return Data + Size; }
  size_t size() const { return Size; }
  Lit operator[](size_t I) const { return Data[I]; }

  /// An owning copy.
  Clause vec() const { return Clause(begin(), end()); }

private:
  const Lit *Data;
  size_t Size;
};

/// Ternary truth value used for assignments and model queries.
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

constexpr LBool lboolFromBool(bool B) { return B ? LBool::True : LBool::False; }

/// Negates a defined LBool; Undef stays Undef.
constexpr LBool lboolNeg(LBool B) {
  if (B == LBool::Undef)
    return LBool::Undef;
  return B == LBool::True ? LBool::False : LBool::True;
}

} // namespace bugassist

#endif // BUGASSIST_CNF_LIT_H
