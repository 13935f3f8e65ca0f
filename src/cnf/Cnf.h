//===- Cnf.h - Grouped CNF formulas -----------------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CnfFormula is the exchange format between the BMC encoder and the
/// (Max)SAT solvers. It supports the paper's *clause grouping* scheme
/// (Section 3.4): clauses born from the same program statement share a
/// ClauseGroup whose selector variable lambda is disjoined (negated) into
/// each of them, so a single soft unit clause (lambda) enables or disables
/// the whole statement.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_CNF_CNF_H
#define BUGASSIST_CNF_CNF_H

#include "cnf/Lit.h"

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace bugassist {

/// Identifies one clause group (one program statement / source line).
using GroupId = int32_t;

constexpr GroupId NoGroup = -1;

/// Metadata for a clause group: its selector variable, the source line it
/// maps back to, an optional label, and the soft weight used by the
/// weighted loop-diagnosis extension (paper Eq. 3).
struct ClauseGroup {
  GroupId Id = NoGroup;
  Var Selector = NullVar;
  uint32_t Line = 0;
  std::string Label;
  uint64_t Weight = 1;
  /// Loop-unwinding index this group's clauses came from (0 = not in a
  /// loop / first unwinding); used for per-iteration diagnosis.
  uint32_t Unwinding = 0;
};

/// The hard clauses of a CnfFormula in order, each as a ClauseView into
/// the formula's flat literal store. Views stay valid until the formula is
/// next modified or destroyed.
class ClauseRange {
public:
  class iterator;

  ClauseRange(const Lit *Lits, const uint32_t *Ends, size_t Size)
      : Lits(Lits), Ends(Ends), Size(Size) {}

  size_t size() const { return Size; }
  ClauseView operator[](size_t I) const {
    uint32_t Begin = I ? Ends[I - 1] : 0;
    return ClauseView(Lits + Begin, Ends[I] - Begin);
  }
  iterator begin() const;
  iterator end() const;

private:
  const Lit *Lits;
  const uint32_t *Ends;
  size_t Size;
};

/// Holds a copy of its range, so it stays valid after the ClauseRange
/// temporary it came from is gone (as long as the formula is unmodified).
class ClauseRange::iterator {
public:
  iterator(ClauseRange R, size_t I) : R(R), I(I) {}
  ClauseView operator*() const { return R[I]; }
  iterator &operator++() {
    ++I;
    return *this;
  }
  bool operator!=(const iterator &O) const { return I != O.I; }

private:
  ClauseRange R;
  size_t I;
};

inline ClauseRange::iterator ClauseRange::begin() const {
  return iterator(*this, 0);
}
inline ClauseRange::iterator ClauseRange::end() const {
  return iterator(*this, Size);
}

/// A CNF formula with hard clauses, grouped soft selectors, and fresh
/// variable management.
///
/// The hard clauses are stored flat, MiniSAT-arena style: one literal
/// array plus the end offset of each clause, so building a formula and
/// loading it into a solver (Solver::addFormula, MaxSatInstance::Formula)
/// make no per-clause heap allocation.
///
/// Invariants:
///  * every literal in every clause refers to a variable < numVars();
///  * group selectors are ordinary variables of this formula;
///  * hard clauses added through addGroupedClause carry the group's
///    (~selector) guard literal, last.
class CnfFormula {
public:
  /// Allocates a fresh variable.
  Var newVar() { return NumVars++; }

  /// Allocates \p N fresh variables and returns the first.
  Var newVars(unsigned N) {
    Var First = NumVars;
    NumVars += N;
    return First;
  }

  int numVars() const { return NumVars; }
  size_t numClauses() const { return Ends.size(); }
  size_t numGroups() const { return Groups.size(); }

  /// Adds a hard (always enforced) clause.
  void addClause(ClauseView C) {
    appendLits(C);
    closeClause();
  }
  void addClause(std::initializer_list<Lit> C) {
    addClause(ClauseView(C.begin(), C.size()));
  }

  /// Creates a new clause group with a fresh selector variable.
  GroupId newGroup(uint32_t Line, std::string Label = "", uint64_t Weight = 1,
                   uint32_t Unwinding = 0);

  /// Adds a clause guarded by \p Group's selector: the stored clause is
  /// (C \/ ~selector), guard last. Asserting the selector enforces C;
  /// unasserting it "removes the statement" (paper Section 3.4).
  void addGroupedClause(GroupId Group, ClauseView C) {
    assert(Group >= 0 && Group < static_cast<GroupId>(Groups.size()) &&
           "bad group id");
    appendLits(C);
    Lits.push_back(mkLit(Groups[Group].Selector, /*Negated=*/true));
    closeClause();
  }
  void addGroupedClause(GroupId Group, std::initializer_list<Lit> C) {
    addGroupedClause(Group, ClauseView(C.begin(), C.size()));
  }

  const ClauseGroup &group(GroupId Id) const { return Groups[Id]; }
  ClauseGroup &group(GroupId Id) { return Groups[Id]; }
  const std::vector<ClauseGroup> &groups() const { return Groups; }
  ClauseRange hardClauses() const {
    return ClauseRange(Lits.data(), Ends.data(), Ends.size());
  }

  /// \returns the selector literal (positive) of \p Group; the soft unit
  /// clauses of the paper's TF2 are exactly these.
  Lit selectorLit(GroupId Group) const {
    return mkLit(Groups[Group].Selector);
  }

private:
  void appendLits(ClauseView C) {
    for ([[maybe_unused]] Lit L : C)
      assert(L.isValid() && L.var() < NumVars && "literal out of range");
    Lits.insert(Lits.end(), C.begin(), C.end());
  }
  void closeClause() {
    assert(Lits.size() <= UINT32_MAX && "flat clause store overflow");
    Ends.push_back(static_cast<uint32_t>(Lits.size()));
  }

  Var NumVars = 0;
  std::vector<Lit> Lits;      // every hard clause's literals, back to back
  std::vector<uint32_t> Ends; // clause I is Lits[Ends[I-1] (or 0), Ends[I])
  std::vector<ClauseGroup> Groups;
};

} // namespace bugassist

#endif // BUGASSIST_CNF_CNF_H
