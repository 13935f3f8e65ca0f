//===- Encoder.cpp - Trace IR to grouped CNF ------------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "bmc/Encoder.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace bugassist;

namespace {

class Encoder {
public:
  Encoder(const UnrolledProgram &UP, const EncodeOptions &Opts)
      : UP(UP), Opts(Opts) {
    EP.Blaster = std::make_unique<BitBlaster>(EP.Formula, Opts.BitWidth);
    BB = EP.Blaster.get();
  }

  EncodedProgram run();

private:
  /// Storage of an SSA symbol: ints are Words, bools single Lits.
  struct Slot {
    bool IsBool = false;
    Lit B = NullLit;
    Word W;
  };

  GroupId groupFor(const TraceDef &D);
  Slot encodeExpr(const SymExpr *E);
  Word asWord(const Slot &S) {
    assert(!S.IsBool && "expected an int value");
    return S.W;
  }
  Lit asBool(const Slot &S) {
    assert(S.IsBool && "expected a bool value");
    return S.B;
  }
  Lit boolOf(SsaId Id) { return asBool(Slots[Id]); }
  Word wordOf(SsaId Id) { return asWord(Slots[Id]); }

  const UnrolledProgram &UP;
  const EncodeOptions &Opts;
  EncodedProgram EP;
  BitBlaster *BB = nullptr;
  std::vector<Slot> Slots;
  /// (line, unwinding-or-0) -> group
  std::map<std::pair<uint32_t, uint32_t>, GroupId> Groups;
};

GroupId Encoder::groupFor(const TraceDef &D) {
  uint32_t GroupUnw = Opts.PerIterationGroups ? D.Unwinding : 0;
  // Ablation mode: a unique key per definition disables line grouping.
  uint32_t Key2 = Opts.GroupPerDefinition ? static_cast<uint32_t>(D.Def)
                                          : GroupUnw;
  auto Key = std::make_pair(D.Line, Key2);
  auto It = Groups.find(Key);
  if (It != Groups.end())
    return It->second;
  // Eq. 3 weights: alpha + eta - kappa for loop iterations; plain alpha
  // elsewhere (kappa = 0 means "not in a loop unwinding").
  uint64_t Weight = Opts.BaseWeight;
  if (Opts.PerIterationGroups && GroupUnw > 0)
    Weight = Opts.BaseWeight + UP.MaxUnwinding - GroupUnw;
  std::string Label = "line " + std::to_string(D.Line);
  if (Opts.PerIterationGroups && GroupUnw > 0)
    Label += " iter " + std::to_string(GroupUnw);
  GroupId G = EP.Formula.newGroup(D.Line, Label, Weight, GroupUnw);
  Groups[Key] = G;
  return G;
}

Encoder::Slot Encoder::encodeExpr(const SymExpr *E) {
  Slot S;
  switch (E->Kind) {
  case SymExpr::ConstInt:
    S.W = BB->constWord(E->IntVal);
    return S;
  case SymExpr::ConstBool:
    S.IsBool = true;
    S.B = E->BoolVal ? BB->trueLit() : BB->falseLit();
    return S;
  case SymExpr::Use:
    return Slots[E->Id];
  case SymExpr::Unary: {
    Slot A = encodeExpr(E->Ops[0].get());
    switch (E->UOp) {
    case UnaryOp::Neg:
      S.W = BB->neg(asWord(A));
      return S;
    case UnaryOp::BitNot:
      S.W = BB->bitNot(asWord(A));
      return S;
    case UnaryOp::LogNot:
      S.IsBool = true;
      S.B = ~asBool(A);
      return S;
    }
    return S;
  }
  case SymExpr::Binary: {
    Slot A = encodeExpr(E->Ops[0].get());
    Slot B2 = encodeExpr(E->Ops[1].get());
    switch (E->BOp) {
    case BinaryOp::Add:
      S.W = BB->add(asWord(A), asWord(B2));
      return S;
    case BinaryOp::Sub:
      S.W = BB->sub(asWord(A), asWord(B2));
      return S;
    case BinaryOp::Mul:
      S.W = BB->mul(asWord(A), asWord(B2));
      return S;
    case BinaryOp::Div: {
      Word Q, R;
      BB->divRem(asWord(A), asWord(B2), Q, R);
      S.W = Q;
      return S;
    }
    case BinaryOp::Rem: {
      Word Q, R;
      BB->divRem(asWord(A), asWord(B2), Q, R);
      S.W = R;
      return S;
    }
    case BinaryOp::Shl:
      S.W = BB->shl(asWord(A), asWord(B2));
      return S;
    case BinaryOp::Shr:
      S.W = BB->ashr(asWord(A), asWord(B2));
      return S;
    case BinaryOp::Lt:
      S.IsBool = true;
      S.B = BB->slt(asWord(A), asWord(B2));
      return S;
    case BinaryOp::Le:
      S.IsBool = true;
      S.B = BB->sle(asWord(A), asWord(B2));
      return S;
    case BinaryOp::Gt:
      S.IsBool = true;
      S.B = BB->slt(asWord(B2), asWord(A));
      return S;
    case BinaryOp::Ge:
      S.IsBool = true;
      S.B = BB->sle(asWord(B2), asWord(A));
      return S;
    case BinaryOp::Eq:
      S.IsBool = true;
      S.B = A.IsBool ? ~BB->mkXor(asBool(A), asBool(B2))
                     : BB->eq(asWord(A), asWord(B2));
      return S;
    case BinaryOp::Ne:
      S.IsBool = true;
      S.B = A.IsBool ? BB->mkXor(asBool(A), asBool(B2))
                     : ~BB->eq(asWord(A), asWord(B2));
      return S;
    case BinaryOp::BitAnd:
      S.W = BB->bitAnd(asWord(A), asWord(B2));
      return S;
    case BinaryOp::BitOr:
      S.W = BB->bitOr(asWord(A), asWord(B2));
      return S;
    case BinaryOp::BitXor:
      S.W = BB->bitXor(asWord(A), asWord(B2));
      return S;
    case BinaryOp::LogAnd:
      S.IsBool = true;
      S.B = BB->mkAnd(asBool(A), asBool(B2));
      return S;
    case BinaryOp::LogOr:
      S.IsBool = true;
      S.B = BB->mkOr(asBool(A), asBool(B2));
      return S;
    }
    return S;
  }
  case SymExpr::Ite: {
    Lit C = asBool(encodeExpr(E->Ops[0].get()));
    Slot T = encodeExpr(E->Ops[1].get());
    Slot F2 = encodeExpr(E->Ops[2].get());
    S.IsBool = T.IsBool;
    if (T.IsBool)
      S.B = BB->mkMux(C, asBool(T), asBool(F2));
    else
      S.W = BB->mux(C, asWord(T), asWord(F2));
    return S;
  }
  case SymExpr::ArrayRead: {
    // Mux chain: idx == k selects element k; out-of-range reads give 0.
    Word Idx = asWord(encodeExpr(E->Ops[0].get()));
    Word Result = BB->constWord(0);
    for (size_t K = E->Elems.size(); K-- > 0;) {
      Lit Hit = BB->eq(Idx, BB->constWord(static_cast<int64_t>(K)));
      Result = BB->mux(Hit, wordOf(E->Elems[K]), Result);
    }
    S.W = Result;
    return S;
  }
  }
  return S;
}

EncodedProgram Encoder::run() {
  Slots.resize(UP.Vars.size());

  for (const TraceDef &D : UP.Defs) {
    bool IsBool = UP.Vars[D.Def].IsBool;
    if (std::getenv("BUGASSIST_TRACE_ENCODER"))
      fprintf(stderr, "encoding def %d '%s' line %u role %d\n", D.Def,
              D.Label.c_str(), D.Line, static_cast<int>(D.Role));

    if (D.Role == DefRole::Input) {
      Slot S;
      S.IsBool = IsBool;
      if (IsBool)
        S.B = BB->freshBit();
      else
        S.W = BB->freshWord();
      Slots[D.Def] = S;
      if (IsBool)
        EP.InputWords.push_back(Word{S.B});
      else
        EP.InputWords.push_back(S.W);
      continue;
    }

    assert(D.Rhs && "non-input definition without RHS");

    // Trusted concretization (Section 6.2 "C"): replace the circuit with
    // the shadow constant. The binding stays hard: library behaviour is
    // not up for repair (Section 6.3).
    if (Opts.ConcretizeTrusted && D.Trusted && D.Shadow) {
      Slot S;
      S.IsBool = IsBool;
      if (IsBool)
        S.B = *D.Shadow ? BB->trueLit() : BB->falseLit();
      else
        S.W = BB->constWord(*D.Shadow);
      Slots[D.Def] = S;
      continue;
    }

    bool Soft = isSoftRole(D.Role) && !D.Trusted;
    GroupId G = Soft ? groupFor(D) : NoGroup;
    BB->setGroup(G);

    Slot Rhs = encodeExpr(D.Rhs.get());

    // The defined variable needs its own formula variables when soft
    // (disabling the group must leave it unconstrained) or when the RHS is
    // shared storage; fresh-variable plus equivalence is uniform and the
    // solver's simplification flattens the hard cases cheaply.
    Slot S;
    S.IsBool = IsBool;
    if (Soft) {
      if (IsBool) {
        S.B = BB->freshBit();
        BB->assertBitEqual(S.B, asBool(Rhs));
      } else {
        S.W = BB->freshWord();
        BB->assertEqual(S.W, asWord(Rhs));
      }
    } else {
      // Hard definitions can share the RHS literals directly.
      S = Rhs;
      S.IsBool = IsBool;
    }
    Slots[D.Def] = S;
    BB->setGroup(NoGroup);
  }

  // Assumptions: (guard => cond), hard.
  for (const TraceAssumption &A : UP.Assumptions) {
    Lit G = boolOf(A.Guard);
    Lit C = boolOf(A.Cond);
    if (BB->isConstTrue(G))
      BB->assertTrue(C);
    else
      EP.Formula.addClause({~G, C});
  }

  // Obligations: SpecLit <-> AND of (guard => cond).
  std::vector<Lit> Parts;
  for (const TraceObligation &O : UP.Obligations)
    Parts.push_back(BB->mkOr(~boolOf(O.Guard), boolOf(O.Cond)));
  EP.SpecLit = BB->mkAndList(Parts);

  if (UP.RetVal != NoSsa) {
    EP.RetIsBool = UP.RetIsBool;
    if (UP.RetIsBool)
      EP.RetWord = Word{boolOf(UP.RetVal)};
    else
      EP.RetWord = wordOf(UP.RetVal);
  }
  EP.Inputs = UP.Inputs;
  EP.InputShapes = UP.InputShapes;
  return std::move(EP);
}

} // namespace

EncodedProgram bugassist::encodeProgram(const UnrolledProgram &UP,
                                        const EncodeOptions &Opts) {
  Encoder E(UP, Opts);
  return E.run();
}
