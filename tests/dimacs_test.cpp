//===- dimacs_test.cpp - DIMACS / WCNF reader tests --------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The reader against its three duties: round-tripping what DimacsWriter
// emits, rejecting malformed input with precise diagnostics, and feeding
// the checked-in MaxSAT-Evaluation instances through the `bugassist
// maxsat` CLI end to end.
//
//===----------------------------------------------------------------------===//

#include "CliTestUtils.h"
#include "cnf/DimacsReader.h"
#include "cnf/DimacsWriter.h"
#include "maxsat/MaxSat.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>

using namespace bugassist;

namespace {

DimacsInstance parseOk(const std::string &Text) {
  DimacsParseError Err;
  auto Inst = parseDimacs(Text, Err);
  EXPECT_TRUE(Inst.has_value()) << Err.render();
  return Inst ? *Inst : DimacsInstance{};
}

DimacsParseError parseBad(const std::string &Text) {
  DimacsParseError Err;
  auto Inst = parseDimacs(Text, Err);
  EXPECT_FALSE(Inst.has_value()) << "expected a parse error";
  return Err;
}

} // namespace

// --- well-formed inputs ------------------------------------------------------

TEST(DimacsReader, PlainCnf) {
  DimacsInstance I = parseOk("c a comment\n"
                             "p cnf 3 2\n"
                             "1 -2 0\n"
                             "-1 2 3 0\n");
  EXPECT_FALSE(I.Weighted);
  EXPECT_EQ(I.NumVars, 3);
  ASSERT_EQ(I.Hard.size(), 2u);
  EXPECT_TRUE(I.Soft.empty());
  EXPECT_EQ(I.Hard[0], (Clause{mkLit(0), mkLit(1, true)}));
  EXPECT_EQ(I.Hard[1], (Clause{mkLit(0, true), mkLit(1), mkLit(2)}));
}

TEST(DimacsReader, ClausesMaySpanLines) {
  DimacsInstance I = parseOk("p cnf 4 1\n1 2\n3\n-4 0\n");
  ASSERT_EQ(I.Hard.size(), 1u);
  EXPECT_EQ(I.Hard[0].size(), 4u);
}

TEST(DimacsReader, CommentsBetweenClauses) {
  DimacsInstance I = parseOk("p cnf 2 2\nc mid-file comment\n1 0\n"
                             "c another\n2 0\n");
  EXPECT_EQ(I.Hard.size(), 2u);
}

TEST(DimacsReader, ClassicWcnfSplitsHardAndSoft) {
  DimacsInstance I = parseOk("p wcnf 2 4 10\n"
                             "10 1 2 0\n"
                             "2 -1 0\n"
                             "3 -2 0\n"
                             "4 -1 -2 0\n");
  EXPECT_TRUE(I.Weighted);
  EXPECT_EQ(I.Top, 10u);
  ASSERT_EQ(I.Hard.size(), 1u);
  ASSERT_EQ(I.Soft.size(), 3u);
  EXPECT_EQ(I.Soft[0].Weight, 2u);
  EXPECT_EQ(I.Soft[1].Weight, 3u);
  EXPECT_EQ(I.Soft[2].Weight, 4u);
  EXPECT_EQ(I.softWeightSum(), 9u);
}

TEST(DimacsReader, WeightAboveTopIsHard) {
  DimacsInstance I = parseOk("p wcnf 1 2 5\n7 1 0\n1 -1 0\n");
  EXPECT_EQ(I.Hard.size(), 1u);
  EXPECT_EQ(I.Soft.size(), 1u);
}

TEST(DimacsReader, OldStyleWcnfWithoutTopIsAllSoft) {
  DimacsInstance I = parseOk("p wcnf 2 2\n3 1 0\n1 -1 2 0\n");
  EXPECT_TRUE(I.Weighted);
  EXPECT_TRUE(I.Hard.empty());
  ASSERT_EQ(I.Soft.size(), 2u);
  EXPECT_EQ(I.Soft[0].Weight, 3u);
}

TEST(DimacsReader, NewFormatWcnfWithoutHeader) {
  DimacsInstance I = parseOk("c 2022+ MaxSAT-Evaluation format\n"
                             "h 1 2 0\n"
                             "3 -1 0\n"
                             "h -2 0\n");
  EXPECT_TRUE(I.Weighted);
  EXPECT_EQ(I.NumVars, 2); // inferred from the literals
  EXPECT_EQ(I.Hard.size(), 2u);
  ASSERT_EQ(I.Soft.size(), 1u);
  EXPECT_EQ(I.Soft[0].Weight, 3u);
}

TEST(DimacsReader, EmptyClauseIsAccepted) {
  DimacsInstance I = parseOk("p cnf 1 1\n0\n");
  ASSERT_EQ(I.Hard.size(), 1u);
  EXPECT_TRUE(I.Hard[0].empty());
}

// --- round trips through DimacsWriter ----------------------------------------

namespace {

CnfFormula makeGroupedFormula() {
  CnfFormula F;
  Var A = F.newVar(), B = F.newVar(), C = F.newVar();
  F.addClause({mkLit(A), mkLit(B)});
  F.addClause({mkLit(A, true), mkLit(C)});
  GroupId G1 = F.newGroup(10, "stmt1", 2);
  F.addGroupedClause(G1, {mkLit(B, true), mkLit(C)});
  GroupId G2 = F.newGroup(11, "stmt2", 5);
  F.addGroupedClause(G2, {mkLit(C, true)});
  return F;
}

} // namespace

TEST(DimacsReader, RoundTripsWriteDimacs) {
  CnfFormula F = makeGroupedFormula();
  DimacsInstance I = parseOk(writeDimacs(F));
  EXPECT_FALSE(I.Weighted);
  EXPECT_EQ(I.NumVars, F.numVars());
  ASSERT_EQ(I.Hard.size(), F.numClauses());
  for (size_t K = 0; K < I.Hard.size(); ++K)
    EXPECT_EQ(I.Hard[K], F.hardClauses()[K].vec()) << "clause " << K;
}

TEST(DimacsReader, RoundTripsWriteWcnf) {
  CnfFormula F = makeGroupedFormula();
  DimacsInstance I = parseOk(writeWcnf(F));
  EXPECT_TRUE(I.Weighted);
  // Top = 1 + sum of group weights (2 + 5).
  EXPECT_EQ(I.Top, 8u);
  ASSERT_EQ(I.Hard.size(), F.numClauses());
  for (size_t K = 0; K < I.Hard.size(); ++K)
    EXPECT_EQ(I.Hard[K], F.hardClauses()[K].vec()) << "clause " << K;
  // The soft side comes back as the selector units with group weights.
  ASSERT_EQ(I.Soft.size(), F.numGroups());
  for (size_t G = 0; G < I.Soft.size(); ++G) {
    EXPECT_EQ(I.Soft[G].Weight, F.group(static_cast<GroupId>(G)).Weight);
    EXPECT_EQ(I.Soft[G].Lits,
              Clause{F.selectorLit(static_cast<GroupId>(G))});
  }
}

// --- malformed inputs ---------------------------------------------------------

TEST(DimacsReader, RejectsEmptyInput) {
  DimacsParseError E = parseBad("");
  EXPECT_EQ(E.Line, 0u);
  E = parseBad("c only comments\nc nothing else\n");
  EXPECT_NE(E.Message.find("empty"), std::string::npos);
}

TEST(DimacsReader, RejectsBadHeader) {
  DimacsParseError E = parseBad("p dnf 3 2\n1 0\n");
  EXPECT_EQ(E.Line, 1u);
  EXPECT_NE(E.Message.find("bad header"), std::string::npos);

  E = parseBad("p cnf -3 2\n");
  EXPECT_EQ(E.Line, 1u);

  E = parseBad("p cnf 3\n");
  EXPECT_EQ(E.Line, 1u);

  E = parseBad("c leading comment\np wcnf 2 1 0\n1 1 0\n");
  EXPECT_EQ(E.Line, 2u);
  EXPECT_NE(E.Message.find("top"), std::string::npos);
}

TEST(DimacsReader, RejectsLiteralOutOfRange) {
  DimacsParseError E = parseBad("p cnf 3 1\n1 -4 0\n");
  EXPECT_EQ(E.Line, 2u);
  EXPECT_NE(E.Message.find("out of range"), std::string::npos);
  EXPECT_NE(E.Message.find("-4"), std::string::npos);
}

TEST(DimacsReader, RejectsMissingTerminatingZero) {
  DimacsParseError E = parseBad("p cnf 3 1\n1 2 3\n");
  EXPECT_EQ(E.Line, 2u); // reported at the clause's first token
  EXPECT_NE(E.Message.find("terminating 0"), std::string::npos);
}

TEST(DimacsReader, RejectsTrailingGarbage) {
  DimacsParseError E = parseBad("p cnf 3 1\n1 2 x 0\n");
  EXPECT_EQ(E.Line, 2u);
  EXPECT_NE(E.Message.find("'x'"), std::string::npos);
}

TEST(DimacsReader, RejectsClauseCountMismatch) {
  // Fewer clauses than declared.
  DimacsParseError E = parseBad("p cnf 2 3\n1 0\n2 0\n");
  EXPECT_EQ(E.Line, 0u);
  EXPECT_NE(E.Message.find("declares 3"), std::string::npos);
  // More clauses than declared: reported at the first extra clause.
  E = parseBad("p cnf 2 1\n1 0\n2 0\n");
  EXPECT_EQ(E.Line, 3u);
}

TEST(DimacsReader, RejectsBadWeights) {
  DimacsParseError E = parseBad("p wcnf 2 1 5\n0 1 0\n");
  EXPECT_EQ(E.Line, 2u);
  EXPECT_NE(E.Message.find("positive"), std::string::npos);

  E = parseBad("p wcnf 2 1 5\n99999999999999999999 1 0\n");
  EXPECT_EQ(E.Line, 2u);
  EXPECT_NE(E.Message.find("overflow"), std::string::npos);

  // 'h' is the new format's marker; with a p-line it is malformed.
  E = parseBad("p wcnf 2 1 5\nh 1 0\n");
  EXPECT_EQ(E.Line, 2u);
}

TEST(DimacsReader, RejectsSoftWeightSumOverflow) {
  // Each weight fits in 64 bits, but their SUM does not: the reader must
  // diagnose the overflow instead of silently wrapping the optimum.
  DimacsParseError E = parseBad("p wcnf 1 2\n"
                                "18446744073709551615 1 0\n"
                                "1 -1 0\n");
  EXPECT_EQ(E.Line, 3u);
  EXPECT_NE(E.Message.find("total soft clause weight"), std::string::npos);

  // Many mid-size weights overflow just the same as one huge one.
  E = parseBad("p wcnf 1 3\n"
               "9223372036854775807 1 0\n"
               "9223372036854775807 -1 0\n"
               "2 1 0\n");
  EXPECT_EQ(E.Line, 4u);
  EXPECT_NE(E.Message.find("overflow"), std::string::npos);

  // A sum of exactly UINT64_MAX is still legal (the new-format
  // sentinel-weight case below depends on it).
  DimacsInstance Inst = parseOk("18446744073709551615 1 0\n"
                                "h -1 0\n");
  ASSERT_EQ(Inst.Soft.size(), 1u);
  EXPECT_EQ(Inst.Soft[0].Weight, UINT64_MAX);
}

TEST(DimacsReader, ReadDimacsFileReportsMissingFile) {
  DimacsParseError Err;
  auto I = readDimacsFile("/nonexistent/definitely_not_here.cnf", Err);
  EXPECT_FALSE(I.has_value());
  EXPECT_EQ(Err.Line, 0u);
  EXPECT_NE(Err.Message.find("cannot open"), std::string::npos);
}

// --- parsed instances through the MaxSAT engine -------------------------------

TEST(DimacsReader, ParsedWcnfSolvesToKnownOptimum) {
  DimacsInstance D = parseOk("p wcnf 2 4 10\n"
                             "10 1 2 0\n"
                             "2 -1 0\n"
                             "3 -2 0\n"
                             "4 -1 -2 0\n");
  bool AnyWeight = false;
  MaxSatResult R = solveFuMalik(toMaxSatInstance(D, &AnyWeight));
  EXPECT_TRUE(AnyWeight);
  EXPECT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 2u);
}

TEST(DimacsReader, ParsedUnsatHardReportsHardUnsat) {
  DimacsInstance D = parseOk("p wcnf 2 4 8\n"
                             "8 1 0\n8 -1 2 0\n8 -2 0\n1 1 2 0\n");
  MaxSatResult R = solveFuMalik(toMaxSatInstance(D));
  EXPECT_EQ(R.Status, MaxSatStatus::HardUnsat);
}

TEST(DimacsReader, SentinelTopNeverMakesWeightsHard) {
  // 2022 format: even a maximal uint64 weight is still a soft clause --
  // only 'h' marks hardness when there is no real top.
  DimacsInstance D = parseOk("18446744073709551615 1 0\nh -1 0\n");
  EXPECT_EQ(D.Hard.size(), 1u);
  EXPECT_EQ(D.Soft.size(), 1u);

  // Same shape with a solvable weight: the optimum falsifies the soft
  // clause at its full weight instead of reporting HardUnsat.
  DimacsInstance D2 = parseOk("1000000 1 0\nh -1 0\n");
  MaxSatResult R = solveFuMalik(toMaxSatInstance(D2));
  EXPECT_EQ(R.Status, MaxSatStatus::Optimum);
  EXPECT_EQ(R.Cost, 1000000u);
}

// --- end-to-end through the bugassist CLI -------------------------------------

using clitest::Cli;
using clitest::Instances;
using clitest::runCommand;

TEST(BugassistCli, MaxsatKnownOptima) {
  int Exit = 0;
  // Hard-only instance: satisfiable hard clauses, optimum 0.
  std::string Out =
      runCommand(Cli + " maxsat " + Instances + "/hard_only.wcnf", Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("o 0\ns OPTIMUM FOUND\n"), std::string::npos) << Out;

  // Weighted instance: known optimum 2.
  Out = runCommand(Cli + " maxsat " + Instances + "/weighted.wcnf", Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("o 2\ns OPTIMUM FOUND\n"), std::string::npos) << Out;

  // UNSAT hard part.
  Out = runCommand(Cli + " maxsat " + Instances + "/unsat_hard.wcnf", Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("s UNSATISFIABLE\n"), std::string::npos) << Out;
}

TEST(BugassistCli, MaxsatRejectsMalformedFile) {
  char Path[] = "/tmp/bugassist_dimacs_XXXXXX";
  int Fd = mkstemp(Path);
  ASSERT_GE(Fd, 0);
  const char *Bad = "p cnf 2 1\n1 -3 0\n";
  ASSERT_EQ(write(Fd, Bad, strlen(Bad)), static_cast<ssize_t>(strlen(Bad)));
  close(Fd);
  int Exit = 0;
  runCommand(Cli + " maxsat " + Path + " 2>/dev/null", Exit);
  EXPECT_NE(Exit, 0);
  std::remove(Path);
}
