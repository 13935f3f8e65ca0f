//===- DimacsWriter.cpp - DIMACS / WCNF serialization -----------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "cnf/DimacsWriter.h"

using namespace bugassist;

static void appendClause(std::string &Out, ClauseView C) {
  for (Lit L : C) {
    Out += L.str();
    Out += ' ';
  }
  Out += "0\n";
}

std::string bugassist::writeDimacs(const CnfFormula &F) {
  std::string Out = "p cnf " + std::to_string(F.numVars()) + " " +
                    std::to_string(F.numClauses()) + "\n";
  for (ClauseView C : F.hardClauses())
    appendClause(Out, C);
  return Out;
}

std::string bugassist::writeWcnf(const CnfFormula &F) {
  uint64_t SoftSum = 0;
  for (const ClauseGroup &G : F.groups())
    SoftSum += G.Weight;
  uint64_t Top = SoftSum + 1;

  size_t NumClauses = F.numClauses() + F.numGroups();
  std::string Out = "p wcnf " + std::to_string(F.numVars()) + " " +
                    std::to_string(NumClauses) + " " + std::to_string(Top) +
                    "\n";
  for (ClauseView C : F.hardClauses()) {
    Out += std::to_string(Top);
    Out += ' ';
    appendClause(Out, C);
  }
  for (const ClauseGroup &G : F.groups()) {
    Out += std::to_string(G.Weight);
    Out += ' ';
    Lit Sel = mkLit(G.Selector);
    appendClause(Out, ClauseView(&Sel, 1));
  }
  return Out;
}
