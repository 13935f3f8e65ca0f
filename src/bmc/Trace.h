//===- Trace.h - Guarded-SSA trace IR ---------------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The intermediate representation between the mini-C front end and the
/// bit blaster: a fully inlined, loop-unwound, single-static-assignment
/// program in the style of CBMC's symbolic execution. Control flow is
/// compiled into phi definitions (`x2 := ite(c, xThen, xElse)`); asserts
/// become guarded *obligations*, assumes and unwinding bounds become
/// guarded *assumptions*.
///
/// Every definition carries:
///  * a DefRole that decides whether its clauses are soft (a candidate
///    "statement to change" with a selector variable -- paper Section 3.4)
///    or hard (plumbing / spec / trusted);
///  * the source line, which is the clause-group key;
///  * the loop unwinding index, for the Section 5.2 per-iteration weights;
///  * an optional concolic shadow value, computed when the unroller is
///    seeded with a concrete test input (the Section 6.2 "C" reduction).
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_BMC_TRACE_H
#define BUGASSIST_BMC_TRACE_H

#include "lang/Ast.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace bugassist {

/// Index of an SSA symbol within an UnrolledProgram.
using SsaId = int32_t;
constexpr SsaId NoSsa = -1;

/// Metadata for one SSA symbol.
struct SsaVarInfo {
  bool IsBool = false;
  std::string Name;
};

/// Symbolic expression over SSA operands. Trees are per-definition (no
/// cross-definition sharing), so disabling one definition's clause group
/// cannot silently disable another's.
struct SymExpr;
using SymExprPtr = std::unique_ptr<SymExpr>;

struct SymExpr {
  enum KindTy {
    ConstInt,
    ConstBool,
    Use,
    Unary,
    Binary,
    Ite,
    /// Array read: Ops[0] is the index; Elems is a snapshot of the array's
    /// element SSA ids at read time. Out-of-range reads yield 0.
    ArrayRead
  } Kind;

  bool IsBool = false;
  int64_t IntVal = 0;
  bool BoolVal = false;
  SsaId Id = NoSsa;
  UnaryOp UOp = UnaryOp::Neg;
  BinaryOp BOp = BinaryOp::Add;
  std::vector<SymExprPtr> Ops;
  std::vector<SsaId> Elems;

  static SymExprPtr constInt(int64_t V) {
    auto E = std::make_unique<SymExpr>();
    E->Kind = ConstInt;
    E->IntVal = V;
    return E;
  }
  static SymExprPtr constBool(bool V) {
    auto E = std::make_unique<SymExpr>();
    E->Kind = ConstBool;
    E->IsBool = true;
    E->BoolVal = V;
    return E;
  }
  static SymExprPtr use(SsaId Id, bool IsBool) {
    auto E = std::make_unique<SymExpr>();
    E->Kind = Use;
    E->Id = Id;
    E->IsBool = IsBool;
    return E;
  }
  static SymExprPtr unary(UnaryOp Op, SymExprPtr A) {
    auto E = std::make_unique<SymExpr>();
    E->Kind = Unary;
    E->UOp = Op;
    E->IsBool = (Op == UnaryOp::LogNot);
    E->Ops.push_back(std::move(A));
    return E;
  }
  static SymExprPtr binary(BinaryOp Op, SymExprPtr A, SymExprPtr B) {
    auto E = std::make_unique<SymExpr>();
    E->Kind = Binary;
    E->BOp = Op;
    E->IsBool = isComparisonOp(Op) || isLogicalOp(Op);
    E->Ops.push_back(std::move(A));
    E->Ops.push_back(std::move(B));
    return E;
  }
  static SymExprPtr ite(SymExprPtr C, SymExprPtr T, SymExprPtr F) {
    auto E = std::make_unique<SymExpr>();
    E->Kind = Ite;
    E->IsBool = T->IsBool;
    E->Ops.push_back(std::move(C));
    E->Ops.push_back(std::move(T));
    E->Ops.push_back(std::move(F));
    return E;
  }
  static SymExprPtr arrayRead(std::vector<SsaId> Elems, SymExprPtr Index) {
    auto E = std::make_unique<SymExpr>();
    E->Kind = ArrayRead;
    E->Elems = std::move(Elems);
    E->Ops.push_back(std::move(Index));
    return E;
  }
};

/// Deep copy of a symbolic expression tree.
SymExprPtr cloneSymExpr(const SymExpr *E);

/// Collects every SSA id referenced by \p E into \p Out.
void collectSymExprUses(const SymExpr *E, std::vector<SsaId> &Out);

/// Why a definition exists; determines hard/soft classification.
enum class DefRole {
  Input,      ///< entry-parameter element; bound to the test by hard clauses
  UserAssign, ///< a source statement's effect -- SOFT
  ArrayStore, ///< per-element update of an array write -- SOFT (same group)
  CondEval,   ///< branch/loop condition evaluation -- SOFT
  ParamBind,  ///< call argument to formal binding -- SOFT (call-site line)
  Phi,        ///< control-flow merge -- hard
  Guard,      ///< path-guard plumbing -- hard
  ZeroInit,   ///< implicit zero initialization -- hard
  SpecEval,   ///< assert/assume condition evaluation -- hard (specs are hard)
  Synth       ///< other synthesized plumbing -- hard
};

/// \returns true if definitions with \p Role get a soft selector group
/// (unless the definition is Trusted).
inline bool isSoftRole(DefRole Role) {
  return Role == DefRole::UserAssign || Role == DefRole::ArrayStore ||
         Role == DefRole::CondEval || Role == DefRole::ParamBind;
}

/// One SSA definition `Def := Rhs` (Rhs is null for Input).
struct TraceDef {
  SsaId Def = NoSsa;
  SymExprPtr Rhs;
  DefRole Role = DefRole::Synth;
  uint32_t Line = 0;
  std::string Label;
  uint32_t Unwinding = 0;
  /// Defined while inlining a trusted (library) function; eligible for
  /// concretization and never blamed (paper Section 6.3 makes library
  /// constraints hard).
  bool Trusted = false;
  /// Concolic shadow value (0/1 for bools) when the unroller was seeded
  /// with a concrete input and the value is determined.
  std::optional<int64_t> Shadow;
};

/// assert-style proof obligation: on paths where Guard holds, Cond must.
struct TraceObligation {
  SsaId Guard = NoSsa;
  SsaId Cond = NoSsa;
  SourceLoc Loc;
  std::string Label;
};

/// assume-style constraint: Guard implies Cond, enforced hard.
struct TraceAssumption {
  SsaId Guard = NoSsa;
  SsaId Cond = NoSsa;
  SourceLoc Loc;
};

/// One entry input element (scalar parameter, or one array slot).
struct TraceInput {
  SsaId Id = NoSsa;
  std::string Name;
  bool IsBool = false;
};

/// Shape of one entry parameter, used to rebuild InputVectors from
/// counterexample models.
struct InputShape {
  std::string Name;
  bool IsArray = false;
  int ArraySize = 0;
  bool IsBool = false;
};

/// The unrolled program: SSA symbols, ordered definitions, obligations,
/// assumptions, inputs, and the entry return value.
struct UnrolledProgram {
  std::vector<SsaVarInfo> Vars;
  std::vector<TraceDef> Defs;
  std::vector<TraceObligation> Obligations;
  std::vector<TraceAssumption> Assumptions;
  std::vector<TraceInput> Inputs;
  std::vector<InputShape> InputShapes;
  SsaId RetVal = NoSsa;
  bool RetIsBool = false;
  uint32_t MaxUnwinding = 0;

  /// Number of UserAssign definitions -- the "assign#" metric of Table 3.
  size_t numAssignDefs() const {
    size_t N = 0;
    for (const TraceDef &D : Defs)
      if (D.Role == DefRole::UserAssign)
        ++N;
    return N;
  }
};

/// The backward cone of influence of \p UP's specification (the mark phase
/// of Section 6.2's "S" reduction): \returns one flag per SSA id, set for
/// every id an obligation, an assumption or the return value depends on,
/// transitively through definition right-hand sides. A definition outside
/// it can never appear in a CoMSS. sliceProgram (reduce/Slicer.h) keeps
/// only the definitions inside it; the encoder marks the rest out of every
/// localization formula (bmc/Encoder.h, EncodedProgram::OutsideCone).
std::vector<bool> specCone(const UnrolledProgram &UP);

} // namespace bugassist

#endif // BUGASSIST_BMC_TRACE_H
