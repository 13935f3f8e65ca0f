//===- Cnf.cpp - Grouped CNF formulas --------------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "cnf/Cnf.h"

using namespace bugassist;

GroupId CnfFormula::newGroup(uint32_t Line, std::string Label, uint64_t Weight,
                             uint32_t Unwinding) {
  ClauseGroup G;
  G.Id = static_cast<GroupId>(Groups.size());
  G.Selector = newVar();
  G.Line = Line;
  G.Label = std::move(Label);
  G.Weight = Weight;
  G.Unwinding = Unwinding;
  Groups.push_back(std::move(G));
  return Groups.back().Id;
}
