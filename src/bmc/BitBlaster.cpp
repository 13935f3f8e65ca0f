//===- BitBlaster.cpp - Word-level circuits to CNF ------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "bmc/BitBlaster.h"

#include <cassert>

using namespace bugassist;

BitBlaster::BitBlaster(CnfFormula &F, int Width) : F(F), Width(Width) {
  assert(Width >= 2 && Width <= 62 && "unsupported word width");
  TrueL = mkLit(F.newVar());
  F.addClause({TrueL}); // hard: the constant-true anchor
}

void BitBlaster::emit(ClauseView C) {
  if (CurGroup == NoGroup)
    F.addClause(C);
  else
    F.addGroupedClause(CurGroup, C);
}

Lit BitBlaster::freshBit() { return mkLit(F.newVar()); }

Word BitBlaster::freshWord() {
  Word W(Width);
  for (int I = 0; I < Width; ++I)
    W[I] = freshBit();
  return W;
}

Word BitBlaster::constWord(int64_t V) {
  Word W(Width);
  for (int I = 0; I < Width; ++I)
    W[I] = ((V >> I) & 1) ? TrueL : ~TrueL;
  return W;
}

bool BitBlaster::constValue(const Word &Wd, int64_t &Out) const {
  int64_t V = 0;
  for (int I = 0; I < Width; ++I) {
    if (Wd[I] == TrueL)
      V |= (1ll << I);
    else if (Wd[I] != ~TrueL)
      return false;
  }
  // Sign extend.
  if (V & (1ll << (Width - 1)))
    V |= ~((1ll << Width) - 1);
  Out = V;
  return true;
}

// --- gates ----------------------------------------------------------------------

Lit BitBlaster::mkAnd(Lit A, Lit B) {
  if (isConstFalse(A) || isConstFalse(B))
    return falseLit();
  if (isConstTrue(A))
    return B;
  if (isConstTrue(B))
    return A;
  if (A == B)
    return A;
  if (A == ~B)
    return falseLit();
  Lit O = freshBit();
  emit({~O, A});
  emit({~O, B});
  emit({O, ~A, ~B});
  return O;
}

Lit BitBlaster::mkOr(Lit A, Lit B) { return ~mkAnd(~A, ~B); }

Lit BitBlaster::mkXor(Lit A, Lit B) {
  if (isConstFalse(A))
    return B;
  if (isConstTrue(A))
    return ~B;
  if (isConstFalse(B))
    return A;
  if (isConstTrue(B))
    return ~A;
  if (A == B)
    return falseLit();
  if (A == ~B)
    return trueLit();
  Lit O = freshBit();
  emit({~O, A, B});
  emit({~O, ~A, ~B});
  emit({O, ~A, B});
  emit({O, A, ~B});
  return O;
}

Lit BitBlaster::mkMux(Lit Cond, Lit Then, Lit Else) {
  if (isConstTrue(Cond))
    return Then;
  if (isConstFalse(Cond))
    return Else;
  if (Then == Else)
    return Then;
  if (isConstTrue(Then))
    return mkOr(Cond, Else);
  if (isConstFalse(Then))
    return mkAnd(~Cond, Else);
  if (isConstTrue(Else))
    return mkOr(~Cond, Then);
  if (isConstFalse(Else))
    return mkAnd(Cond, Then);
  if (Then == ~Else)
    return mkXor(~Cond, Then); // cond ? t : ~t == ~(cond ^ t)
  Lit O = freshBit();
  emit({~Cond, ~Then, O});
  emit({~Cond, Then, ~O});
  emit({Cond, ~Else, O});
  emit({Cond, Else, ~O});
  return O;
}

Lit BitBlaster::mkAndList(const std::vector<Lit> &Ls) {
  std::vector<Lit> Useful;
  for (Lit L : Ls) {
    if (isConstFalse(L))
      return falseLit();
    if (!isConstTrue(L))
      Useful.push_back(L);
  }
  if (Useful.empty())
    return trueLit();
  if (Useful.size() == 1)
    return Useful[0];
  Lit O = freshBit();
  Clause Long{O};
  for (Lit L : Useful) {
    emit({~O, L});
    Long.push_back(~L);
  }
  emit(Long);
  return O;
}

Lit BitBlaster::mkOrList(const std::vector<Lit> &Ls) {
  std::vector<Lit> Negated;
  Negated.reserve(Ls.size());
  for (Lit L : Ls)
    Negated.push_back(~L);
  return ~mkAndList(Negated);
}

// --- arithmetic ---------------------------------------------------------------

namespace {
/// Ripple-carry addition with an initial carry, shared by add/sub/neg.
Word addWithCarry(BitBlaster &BB, const Word &A, const Word &B, Lit Carry) {
  int W = BB.width();
  Word Sum(W);
  for (int I = 0; I < W; ++I) {
    Lit AxB = BB.mkXor(A[I], B[I]);
    Sum[I] = BB.mkXor(AxB, Carry);
    if (I + 1 < W)
      Carry = BB.mkOr(BB.mkAnd(A[I], B[I]), BB.mkAnd(Carry, AxB));
  }
  return Sum;
}
} // namespace

Word BitBlaster::add(const Word &A, const Word &B) {
  return addWithCarry(*this, A, B, falseLit());
}

Word BitBlaster::sub(const Word &A, const Word &B) {
  return addWithCarry(*this, A, bitNot(B), trueLit());
}

Word BitBlaster::neg(const Word &A) {
  return addWithCarry(*this, bitNot(A), constWord(0), trueLit());
}

Word BitBlaster::bitNot(const Word &A) {
  Word R(Width);
  for (int I = 0; I < Width; ++I)
    R[I] = ~A[I];
  return R;
}

Word BitBlaster::mul(const Word &A, const Word &B) {
  Word Acc = constWord(0);
  for (int I = 0; I < Width; ++I) {
    // Partial product: B[I] ? (A << I) : 0.
    Word Partial(Width, falseLit());
    for (int J = I; J < Width; ++J)
      Partial[J] = mkAnd(B[I], A[J - I]);
    Acc = add(Acc, Partial);
  }
  return Acc;
}

void BitBlaster::divRem(const Word &A, const Word &B, Word &Quot, Word &Rem) {
  Lit SignA = A[Width - 1];
  Lit SignB = B[Width - 1];
  Word MagA = mux(SignA, neg(A), A);
  Word MagB = mux(SignB, neg(B), B);

  // Restoring division on magnitudes, MSB first.
  Word R = constWord(0);
  Word Q(Width, falseLit());
  for (int I = Width - 1; I >= 0; --I) {
    // R = (R << 1) | magA[I]
    Word Shifted(Width);
    Shifted[0] = MagA[I];
    for (int J = 1; J < Width; ++J)
      Shifted[J] = R[J - 1];
    Lit Geq = ~ult(Shifted, MagB);
    R = mux(Geq, sub(Shifted, MagB), Shifted);
    Q[I] = Geq;
  }

  Lit QNeg = mkXor(SignA, SignB);
  Word SignedQ = mux(QNeg, neg(Q), Q);
  Word SignedR = mux(SignA, neg(R), R);

  // C-aligned /0: both results are 0.
  Lit BZero = eq(B, constWord(0));
  Quot = mux(BZero, constWord(0), SignedQ);
  Rem = mux(BZero, constWord(0), SignedR);
}

// --- bitwise / shifts -------------------------------------------------------------

Word BitBlaster::bitAnd(const Word &A, const Word &B) {
  Word R(Width);
  for (int I = 0; I < Width; ++I)
    R[I] = mkAnd(A[I], B[I]);
  return R;
}

Word BitBlaster::bitOr(const Word &A, const Word &B) {
  Word R(Width);
  for (int I = 0; I < Width; ++I)
    R[I] = mkOr(A[I], B[I]);
  return R;
}

Word BitBlaster::bitXor(const Word &A, const Word &B) {
  Word R(Width);
  for (int I = 0; I < Width; ++I)
    R[I] = mkXor(A[I], B[I]);
  return R;
}

Word BitBlaster::uShiftStage(const Word &A, Lit Sel, int Amount, bool Left,
                             Lit Fill) {
  Word R(Width);
  for (int I = 0; I < Width; ++I) {
    int Src = Left ? I - Amount : I + Amount;
    Lit Shifted = (Src >= 0 && Src < Width) ? A[Src] : Fill;
    R[I] = mkMux(Sel, Shifted, A[I]);
  }
  return R;
}

Word BitBlaster::shl(const Word &A, const Word &Amount) {
  // Barrel shifter over the low bits; any high (or sign) bit set means the
  // amount is outside [0, W) and the result saturates to the fill.
  int Stages = 1;
  while ((1 << Stages) < Width)
    ++Stages;
  Word R = A;
  for (int K = 0; K < Stages; ++K)
    R = uShiftStage(R, Amount[K], 1 << K, /*Left=*/true, falseLit());
  std::vector<Lit> HighBits;
  for (int K = Stages; K < Width; ++K)
    HighBits.push_back(Amount[K]);
  Lit Over = mkOrList(HighBits);
  // Also: amounts >= W but < 2^Stages shift everything out naturally.
  return mux(Over, constWord(0), R);
}

Word BitBlaster::ashr(const Word &A, const Word &Amount) {
  Lit Sign = A[Width - 1];
  int Stages = 1;
  while ((1 << Stages) < Width)
    ++Stages;
  Word R = A;
  for (int K = 0; K < Stages; ++K)
    R = uShiftStage(R, Amount[K], 1 << K, /*Left=*/false, Sign);
  std::vector<Lit> HighBits;
  for (int K = Stages; K < Width; ++K)
    HighBits.push_back(Amount[K]);
  Lit Over = mkOrList(HighBits);
  Word Fill(Width, Sign);
  return mux(Over, Fill, R);
}

// --- comparisons --------------------------------------------------------------------

Lit BitBlaster::eq(const Word &A, const Word &B) {
  std::vector<Lit> Bits;
  Bits.reserve(Width);
  for (int I = 0; I < Width; ++I)
    Bits.push_back(~mkXor(A[I], B[I]));
  return mkAndList(Bits);
}

Lit BitBlaster::ult(const Word &A, const Word &B) {
  Lit Less = falseLit();
  for (int I = 0; I < Width; ++I) {
    Lit Diff = mkXor(A[I], B[I]);
    // If the bits differ, B's bit decides; otherwise keep the verdict from
    // the lower bits. Iterating LSB to MSB gives MSB priority.
    Less = mkMux(Diff, B[I], Less);
  }
  return Less;
}

Lit BitBlaster::slt(const Word &A, const Word &B) {
  // Flip the sign bits and compare unsigned.
  Word A2 = A, B2 = B;
  A2[Width - 1] = ~A2[Width - 1];
  B2[Width - 1] = ~B2[Width - 1];
  return ult(A2, B2);
}

Lit BitBlaster::sle(const Word &A, const Word &B) { return ~slt(B, A); }

// --- selection / assertion --------------------------------------------------------

Word BitBlaster::mux(Lit Cond, const Word &Then, const Word &Else) {
  Word R(Width);
  for (int I = 0; I < Width; ++I)
    R[I] = mkMux(Cond, Then[I], Else[I]);
  return R;
}

void BitBlaster::assertBitEqual(Lit A, Lit B) {
  if (A == B)
    return;
  if (isConstTrue(A)) {
    emit({B});
    return;
  }
  if (isConstFalse(A)) {
    emit({~B});
    return;
  }
  if (isConstTrue(B)) {
    emit({A});
    return;
  }
  if (isConstFalse(B)) {
    emit({~A});
    return;
  }
  emit({~A, B});
  emit({A, ~B});
}

void BitBlaster::assertEqual(const Word &A, const Word &B) {
  assert(A.size() == B.size() && "width mismatch");
  for (size_t I = 0; I < A.size(); ++I)
    assertBitEqual(A[I], B[I]);
}

void BitBlaster::assertTrue(Lit A) {
  if (isConstTrue(A))
    return;
  emit({A});
}
