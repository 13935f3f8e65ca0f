//===- BitBlaster.h - Word-level circuits to CNF ----------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-precise encoding of W-bit two's-complement arithmetic into CNF
/// (the Section 3.2 reduction: "a C program with finite-bitwidth data can
/// be converted into an equivalent Boolean program by separately tracking
/// each bit"). Words are little-endian literal vectors; Tseitin variables
/// and clauses are emitted into a CnfFormula under the *current clause
/// group*, so an entire statement's circuit is enabled or disabled by one
/// selector variable (Section 3.4).
///
/// Semantics match interp/Interpreter.h exactly: wraparound add/sub/mul,
/// C-style truncating signed division with /0 yielding 0, shifts with
/// amounts outside [0, W) saturating. The agreement is enforced by
/// differential property tests.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_BMC_BITBLASTER_H
#define BUGASSIST_BMC_BITBLASTER_H

#include "cnf/Cnf.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bugassist {

/// A W-bit word: Bits[0] is the least significant bit.
using Word = std::vector<Lit>;

/// Circuit generator writing clauses into a CnfFormula.
///
/// Gates perform constant folding against the true/false literals, so
/// circuits fed constants shrink without a separate simplification pass.
class BitBlaster {
public:
  BitBlaster(CnfFormula &F, int Width);

  int width() const { return Width; }
  CnfFormula &formula() { return F; }

  /// All subsequently emitted clauses belong to \p G (NoGroup = hard).
  void setGroup(GroupId G) { CurGroup = G; }
  GroupId currentGroup() const { return CurGroup; }

  /// The always-true literal (backed by a hard unit clause).
  Lit trueLit() const { return TrueL; }
  Lit falseLit() const { return ~TrueL; }
  bool isConstTrue(Lit L) const { return L == TrueL; }
  bool isConstFalse(Lit L) const { return L == ~TrueL; }

  /// Fresh unconstrained bit / word.
  Lit freshBit();
  Word freshWord();

  /// The W-bit two's complement constant \p V.
  Word constWord(int64_t V);

  /// \returns the constant value of \p W if all bits are constants.
  bool constValue(const Word &Wd, int64_t &Out) const;

  // --- gates -----------------------------------------------------------------
  Lit mkAnd(Lit A, Lit B);
  Lit mkOr(Lit A, Lit B);
  Lit mkXor(Lit A, Lit B);
  Lit mkMux(Lit Cond, Lit Then, Lit Else);
  Lit mkAndList(const std::vector<Lit> &Ls);
  Lit mkOrList(const std::vector<Lit> &Ls);

  // --- arithmetic ------------------------------------------------------------
  Word add(const Word &A, const Word &B);
  Word sub(const Word &A, const Word &B);
  Word neg(const Word &A);
  Word bitNot(const Word &A);
  Word mul(const Word &A, const Word &B);
  /// C-style truncating signed division; quotient and remainder are 0 when
  /// the divisor is 0. INT_MIN / -1 wraps to INT_MIN.
  void divRem(const Word &A, const Word &B, Word &Quot, Word &Rem);

  // --- bitwise / shifts -------------------------------------------------------
  Word bitAnd(const Word &A, const Word &B);
  Word bitOr(const Word &A, const Word &B);
  Word bitXor(const Word &A, const Word &B);
  /// Logical left shift; amounts < 0 or >= W give 0.
  Word shl(const Word &A, const Word &Amount);
  /// Arithmetic right shift; amounts < 0 or >= W give the sign fill.
  Word ashr(const Word &A, const Word &Amount);

  // --- comparisons --------------------------------------------------------------
  Lit eq(const Word &A, const Word &B);
  Lit ult(const Word &A, const Word &B);
  Lit slt(const Word &A, const Word &B);
  Lit sle(const Word &A, const Word &B);

  // --- selection / assertion ---------------------------------------------------
  Word mux(Lit Cond, const Word &Then, const Word &Else);
  /// Forces A == B bitwise (clauses in the current group).
  void assertEqual(const Word &A, const Word &B);
  void assertBitEqual(Lit A, Lit B);
  void assertTrue(Lit A);

private:
  /// Appends \p C to the formula in place, in the current group.
  void emit(ClauseView C);
  void emit(std::initializer_list<Lit> C) {
    emit(ClauseView(C.begin(), C.size()));
  }
  Word uShiftStage(const Word &A, Lit Sel, int Amount, bool Left, Lit Fill);

  CnfFormula &F;
  int Width;
  GroupId CurGroup = NoGroup;
  Lit TrueL;
};

} // namespace bugassist

#endif // BUGASSIST_BMC_BITBLASTER_H
