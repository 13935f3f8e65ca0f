//===- cnf_test.cpp - CNF layer unit tests -----------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "cnf/Cnf.h"
#include "cnf/DimacsWriter.h"

#include <gtest/gtest.h>

using namespace bugassist;

TEST(Lit, EncodingRoundTrips) {
  Lit P = mkLit(7);
  EXPECT_EQ(P.var(), 7);
  EXPECT_FALSE(P.negated());
  EXPECT_TRUE((~P).negated());
  EXPECT_EQ((~P).var(), 7);
  EXPECT_EQ(~~P, P);
  EXPECT_NE(P, ~P);
}

TEST(Lit, DimacsRendering) {
  EXPECT_EQ(mkLit(0).str(), "1");
  EXPECT_EQ((~mkLit(0)).str(), "-1");
  EXPECT_EQ(mkLit(41).str(), "42");
  EXPECT_EQ(mkLit(41, true).str(), "-42");
}

TEST(Lit, AdjacentCodes) {
  // Positive and negative literal of one var differ only in the low bit,
  // the invariant the solver's watch indexing relies on.
  Lit P = mkLit(3);
  EXPECT_EQ(P.code() ^ 1, (~P).code());
}

TEST(Lit, LBoolNegation) {
  EXPECT_EQ(lboolNeg(LBool::True), LBool::False);
  EXPECT_EQ(lboolNeg(LBool::False), LBool::True);
  EXPECT_EQ(lboolNeg(LBool::Undef), LBool::Undef);
}

TEST(CnfFormula, FreshVariables) {
  CnfFormula F;
  EXPECT_EQ(F.numVars(), 0);
  Var A = F.newVar();
  Var B = F.newVar();
  EXPECT_NE(A, B);
  EXPECT_EQ(F.numVars(), 2);
  Var First = F.newVars(5);
  EXPECT_EQ(First, 2);
  EXPECT_EQ(F.numVars(), 7);
}

TEST(CnfFormula, GroupedClausesCarryGuard) {
  CnfFormula F;
  Var X = F.newVar();
  GroupId G = F.newGroup(/*Line=*/42, "x := 1");
  F.addGroupedClause(G, {mkLit(X)});

  ASSERT_EQ(F.numClauses(), 1u);
  ClauseView C = F.hardClauses()[0];
  ASSERT_EQ(C.size(), 2u);
  EXPECT_EQ(C[0], mkLit(X));
  EXPECT_EQ(C[1], mkLit(F.group(G).Selector, true));
  EXPECT_EQ(F.group(G).Line, 42u);
  EXPECT_EQ(F.group(G).Label, "x := 1");
}

TEST(CnfFormula, SelectorLiteral) {
  CnfFormula F;
  GroupId G1 = F.newGroup(1);
  EXPECT_EQ(F.selectorLit(G1), mkLit(F.group(G1).Selector));
}

TEST(CnfFormula, GroupWeightsAndUnwindings) {
  CnfFormula F;
  GroupId G = F.newGroup(7, "loop body", /*Weight=*/9, /*Unwinding=*/3);
  EXPECT_EQ(F.group(G).Weight, 9u);
  EXPECT_EQ(F.group(G).Unwinding, 3u);
}

TEST(CnfFormula, FlatStoreRoundTrip) {
  // Every way of adding a clause lands in the one flat store: contents and
  // order exactly as added, grouped clauses with the guard literal last,
  // and the empty clause kept as a zero-length view.
  CnfFormula F;
  Var A = F.newVar(), B = F.newVar(), C = F.newVar();
  GroupId G1 = F.newGroup(3, "g1");
  GroupId G2 = F.newGroup(4, "g2", /*Weight=*/2);
  Lit Sel1 = mkLit(F.group(G1).Selector, true);
  Lit Sel2 = mkLit(F.group(G2).Selector, true);
  Clause Long{mkLit(C), mkLit(A, true), mkLit(B), mkLit(A)};

  F.addClause({mkLit(A)});
  F.addGroupedClause(G1, {mkLit(B, true), mkLit(C)});
  F.addClause(Long);
  F.addClause(ClauseView(nullptr, 0));
  F.addGroupedClause(G2, Long);
  F.addClause({mkLit(C, true), mkLit(B), mkLit(A, true)});
  F.addGroupedClause(G1, ClauseView(nullptr, 0));

  std::vector<Clause> Want = {
      {mkLit(A)},
      {mkLit(B, true), mkLit(C), Sel1},
      Long,
      {},
      {mkLit(C), mkLit(A, true), mkLit(B), mkLit(A), Sel2},
      {mkLit(C, true), mkLit(B), mkLit(A, true)},
      {Sel1},
  };
  ASSERT_EQ(F.numClauses(), Want.size());
  ASSERT_EQ(F.hardClauses().size(), Want.size());
  size_t K = 0;
  for (ClauseView V : F.hardClauses()) {
    EXPECT_EQ(V.vec(), Want[K]) << "clause " << K;
    EXPECT_EQ(F.hardClauses()[K].vec(), Want[K]) << "clause " << K;
    ++K;
  }
  EXPECT_EQ(K, Want.size());

  // The writers render the views byte for byte as the clauses were added.
  EXPECT_EQ(writeDimacs(F), "p cnf 5 7\n"
                            "1 0\n"
                            "-2 3 -4 0\n"
                            "3 -1 2 1 0\n"
                            "0\n"
                            "3 -1 2 1 -5 0\n"
                            "-3 2 -1 0\n"
                            "-4 0\n");
  EXPECT_EQ(writeWcnf(F), "p wcnf 5 9 4\n"
                          "4 1 0\n"
                          "4 -2 3 -4 0\n"
                          "4 3 -1 2 1 0\n"
                          "4 0\n"
                          "4 3 -1 2 1 -5 0\n"
                          "4 -3 2 -1 0\n"
                          "4 -4 0\n"
                          "1 4 0\n"
                          "2 5 0\n");
}

TEST(DimacsWriter, PlainCnf) {
  CnfFormula F;
  Var A = F.newVar(), B = F.newVar();
  F.addClause({mkLit(A), ~mkLit(B)});
  F.addClause({~mkLit(A)});
  EXPECT_EQ(writeDimacs(F), "p cnf 2 2\n1 -2 0\n-1 0\n");
}

TEST(DimacsWriter, WcnfHardAndSoft) {
  CnfFormula F;
  Var X = F.newVar();
  GroupId G = F.newGroup(1, "stmt", /*Weight=*/3);
  F.addGroupedClause(G, {mkLit(X)});
  std::string W = writeWcnf(F);
  // Top weight = 3 + 1 = 4; one hard clause (x \/ ~sel), one soft (sel).
  EXPECT_EQ(W, "p wcnf 2 2 4\n4 1 -2 0\n3 2 0\n");
}

TEST(DimacsWriter, WcnfTopExceedsSoftSum) {
  CnfFormula F;
  F.newGroup(1, "", 5);
  F.newGroup(2, "", 7);
  std::string W = writeWcnf(F);
  EXPECT_NE(W.find("p wcnf 2 2 13"), std::string::npos);
}
